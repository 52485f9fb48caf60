//! Regression tests for the tracing layer's two core promises:
//!
//! 1. **Observation must not perturb the experiment.** Rebuilding the
//!    Figure 2 study with full tracing forced on must produce a CSV
//!    table byte-identical to the untraced build — the tracer only
//!    reads simulated time, never advances it.
//! 2. **The sinks must be loadable.** The Chrome `trace_event` export
//!    of the traced run has to parse with the workspace's one JSON
//!    reader (`trace::json`, strict about trailing commas, bare words
//!    and trailing bytes), with monotone timestamps within each
//!    process, and the metrics JSON must parse too. The metrics CSV
//!    has to carry the headline counters EXPERIMENTS.md documents.
//!
//! Tracing is driven through `set_override` rather than `ELANIB_TRACE`
//! because the env configuration is cached per process.

use elanib_apps::md::{ljs, MdProblem};
use elanib_bench::md_figure_table;
use elanib_simcore::trace::{self, TraceConfig};

#[test]
fn fig2_csv_identical_traced_vs_untraced_and_sinks_are_loadable() {
    let problem = MdProblem { steps: 4, ..ljs() };
    let nodes = [1usize, 2, 4];

    // Both phases must actually simulate: with the point cache live,
    // phase 2 would replay phase 1's memoized grid and record no
    // traces at all.
    elanib_core::simcache::set_override(Some(elanib_core::simcache::Mode::Off));

    // Phase 1: tracing forced OFF (an explicit disabled override, so a
    // stray ELANIB_TRACE in the environment can't flip this phase).
    trace::set_override(Some(TraceConfig::default()));
    let (plain, _) = md_figure_table(problem, &nodes);

    // Phase 2: both sinks forced ON, flushing into a scratch dir.
    let dir = std::env::temp_dir().join("elanib-trace-determinism-test");
    let _ = std::fs::remove_dir_all(&dir);
    trace::set_override(Some(TraceConfig {
        dir: Some(dir.clone()),
        ..TraceConfig::all()
    }));
    let (traced, _) = md_figure_table(problem, &nodes);
    let files = trace::flush("fig2_traced").expect("traced run must collect traces");
    trace::set_override(None);

    assert_eq!(
        plain.to_csv(),
        traced.to_csv(),
        "tracing must not perturb the fig2 study by a single byte"
    );

    // Chrome export: valid JSON, timestamps monotone within each pid.
    let tj = files.trace_json.expect("events were recorded");
    let text = std::fs::read_to_string(&tj).unwrap();
    let events = trace::json::parse(&text).expect("chrome trace must parse as JSON");
    let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
    let mut seen = 0usize;
    for e in events.as_arr().expect("chrome trace is a JSON array") {
        let (Some(ts), Some(pid)) = (e.num("ts"), e.num("pid")) else {
            continue; // "M" metadata records carry no ts
        };
        let prev = last_ts.entry(pid as u64).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "timestamps must be monotone within pid {pid}: {ts} after {prev}"
        );
        *prev = ts;
        seen += 1;
    }
    assert!(
        seen > 100,
        "expected a real event stream, got {seen} events"
    );

    let mj = files.metrics_json.expect("metrics were recorded");
    trace::json::parse(&std::fs::read_to_string(&mj).unwrap()).expect("metrics JSON must parse");

    // Metrics summary: the headline counters of the acceptance surface.
    let mc = files.metrics_csv.expect("metrics were recorded");
    let csv = std::fs::read_to_string(&mc).unwrap();
    for needle in [
        "regcache.hits",
        "regcache.misses",
        "fabric.link",
        "mpi.unexpected_depth",
        "world.unexpected",
        "coll.count",
    ] {
        assert!(
            csv.contains(needle),
            "metrics csv must mention {needle}:\n{csv}"
        );
    }

    elanib_core::simcache::set_override(None);
    let _ = std::fs::remove_dir_all(&dir);
}
