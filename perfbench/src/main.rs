//! Repository benchmark: runs one exhibit-shaped workload in this
//! process and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cg_classA --seed 0 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with every observer off;
//! `--trace 1` reports the per-layer metrics: it alternates untraced
//! and traced grid passes (the existing kernel profiler and metrics
//! registry switched on through their public overrides) and adds the
//! layer probes of [`probes`]. See `perfbench/README.md`.

mod grid;
mod host;
mod probes;

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use elanib_core::simcache::{self, Mode};
use elanib_simcore::profile::{self, ProfTotals, TAG_NAMES};
use elanib_simcore::FxHasher;
use elanib_trace::TraceConfig;

use grid::{Expected, Inputs, Point};
use host::{json_str, median};

/// A/B toggles whose alternate code paths have landed. A run under any
/// of them measures a path no exhibit ships, so the benchmark refuses.
const REFUSED_TOGGLES: [&str; 8] = [
    "ELANIB_PAYLOAD_MODE",
    "ELANIB_CALL_ARENA",
    "ELANIB_FLAG_POOL",
    "ELANIB_FUT_POOL",
    "ELANIB_WAKE_COALESCE",
    "ELANIB_GUIDED_PLACEMENT",
    "ELANIB_ADAPTIVE_LOOKAHEAD",
    "ELANIB_DES_SHARDS",
];

/// Set-up is sampled before the first pass for `SETUP_FIRST_S`, and
/// after each pass for `SETUP_SHARE` of that pass's wall time, at
/// most `SETUP_BATCH_MAX` times per batch; `setup_s` is the median.
const SETUP_FIRST_S: f64 = 0.05;
const SETUP_SHARE: f64 = 0.05;
const SETUP_BATCH_MAX: usize = 100;

/// Per-layer count metrics: `(metric, metrics-registry counter, unit)`.
const COUNTERS: [(&str, &str, &str); 24] = [
    ("simcore.timer.count", "sim.timers", "count"),
    ("simcore.tasks_spawned", "sim.tasks_spawned", "count"),
    ("simcore.wheel_cascades", "wheel.cascades", "count"),
    ("mpisim.eager_sends", "mpi.eager_sends", "count"),
    ("mpisim.rdv_sends", "mpi.rdv_sends", "count"),
    ("mpisim.unexpected", "mpi.unexpected", "count"),
    ("mpisim.collectives", "coll.count", "count"),
    ("mpisim.wire_bytes", "world.wire_bytes", "B"),
    ("nic.hca.posts", "hca.posts", "count"),
    ("nic.hca.post_bytes", "hca.post_bytes", "B"),
    ("nic.regcache.hits", "regcache.hits", "count"),
    ("nic.regcache.misses", "regcache.misses", "count"),
    ("nic.elan.eager_sends", "elan.eager_sends", "count"),
    ("nic.elan.rdv_sends", "elan.rdv_sends", "count"),
    ("nic.elan.unexpected", "elan.unexpected", "count"),
    ("nic.elan.link_retries", "elan.link_retries", "count"),
    ("nic.ib.retransmits", "ib.retransmits", "count"),
    ("nic.ib.qp_errors", "ib.qp_errors", "count"),
    ("nic.roce.pause_frames", "roce.pause_frames", "count"),
    ("nic.roce.ecn_marks", "roce.ecn_marks", "count"),
    ("fabric.messages", "fabric.messages", "count"),
    ("fabric.wire_bytes", "fabric.wire_bytes", "B"),
    (
        "fabric.contention_stalls",
        "fabric.contention_stalls",
        "count",
    ),
    ("fabric.reroutes", "fault.reroutes", "count"),
];

/// Profiler buckets reported as `simcore.<bucket>.*`. The kernel
/// dispatches a timer pop as a poll of the sleeping task, so the
/// profiler's `timer` bucket stays empty and timer cost is inside
/// `poll`; `simcore.timer.count` counts the timers scheduled instead.
const BUCKETS: [(usize, &str); 3] = [(0, "poll"), (2, "call"), (3, "wake")];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !grid::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            grid::WORKLOADS
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Host-time span of one grid point or one sweep, relative to the
/// run's epoch. A point's parent is the sweep span of its pass.
struct Span {
    name: String,
    pass: usize,
    traced: bool,
    thread: String,
    start_ns: u128,
    end_ns: u128,
}

/// What one grid pass measured.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    point_s: Vec<f64>,
}

/// A traced pass with the profiler totals and counts it produced.
struct TracedPass {
    pass: Pass,
    prof: ProfTotals,
    counts: BTreeMap<String, u64>,
}

/// Everything a run accumulates across passes.
struct Run<'a> {
    args: &'a Args,
    points: Vec<Point>,
    order: Vec<usize>,
    width: usize,
    inputs: Inputs,
    expected: Expected,
    epoch: Instant,
    passes: usize,
    spans: Vec<Span>,
    /// Distinct cell mismatches and point panics.
    mismatches: BTreeSet<String>,
    /// Distinct validity findings; any makes the run incorrect.
    invalid: BTreeSet<String>,
    attempted: usize,
    failed: usize,
}

thread_local! {
    /// Set while a grid point runs on this thread.
    static IN_POINT: Cell<bool> = const { Cell::new(false) };
}

/// Panics inside a grid point are outcomes the run records (the fault
/// grid's QP-ERR cells are caught inside the point itself), so they
/// skip the default hook's report and backtrace, whose cost would land
/// in the point's time. Any other panic is reported as usual.
fn quiet_point_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !IN_POINT.with(Cell::get) {
            default(info);
        }
    }));
}

/// Set-up samples totalling at least `seconds`, each on a fresh thread
/// so it fills the thread-local caches from cold. Only the set-up
/// itself is timed.
fn sample_setup(workload: &str, seconds: f64) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    while out.len() < SETUP_BATCH_MAX && out.iter().sum::<f64>() < seconds {
        let once = || {
            let t = Instant::now();
            drop(grid::setup(workload));
            t.elapsed().as_secs_f64()
        };
        out.push(std::thread::scope(|s| {
            s.spawn(once).join().expect("set-up thread")
        }));
    }
    out
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

fn set_observers(traced: bool) {
    profile::set_override(Some(traced));
    elanib_trace::set_override(Some(TraceConfig {
        events: false,
        metrics: traced,
        max_events: 0,
        dir: None,
    }));
}

impl Run<'_> {
    /// One pass over the whole grid through the sweep engine, with
    /// every point timed and its cells checked against the CSVs.
    fn pass(&mut self, traced: bool) -> Pass {
        let pass = self.passes;
        self.passes += 1;
        set_observers(traced);
        let hints: Vec<u64> = self
            .order
            .iter()
            .map(|&i| self.points[i].cost_hint())
            .collect();
        let (points, inputs, epoch) = (&self.points, &self.inputs, self.epoch);
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let (results, _) = elanib_core::sweep_guided_with_stats(&self.order, &hints, |&i| {
            let start = Instant::now();
            IN_POINT.with(|f| f.set(true));
            let cells = catch_unwind(AssertUnwindSafe(|| points[i].eval(inputs)));
            IN_POINT.with(|f| f.set(false));
            let end = Instant::now();
            let thread = format!("{:?}", std::thread::current().id());
            (cells.map_err(|p| panic_text(&*p)), start, end, thread)
        });
        let t1 = Instant::now();
        let cpu_s = host::cpu_seconds() - cpu0;
        set_observers(false);
        let mut point_s = Vec::with_capacity(results.len());
        for (&i, (cells, start, end, thread)) in self.order.iter().zip(results) {
            let name = self.points[i].label();
            point_s.push((end - start).as_secs_f64());
            let ok = match cells {
                Err(msg) => {
                    self.mismatches.insert(format!("{name}: panicked: {msg}"));
                    false
                }
                Ok(cells) => cells.iter().all(|c| {
                    let key = (c.file.to_string(), c.key.clone(), c.col.to_string());
                    let want = self.expected.get(&key);
                    let same = want == Some(&c.got);
                    if !same {
                        self.mismatches.insert(format!(
                            "{name}: {}.csv [{}] {:?} = {} (committed {})",
                            c.file,
                            c.key,
                            c.col,
                            c.got,
                            want.map_or("<missing>", String::as_str)
                        ));
                    }
                    same
                }),
            };
            self.failed += usize::from(!ok);
            self.spans.push(Span {
                name,
                pass,
                traced,
                thread,
                start_ns: (start - epoch).as_nanos(),
                end_ns: (end - epoch).as_nanos(),
            });
        }
        self.spans.push(Span {
            name: "sweep".into(),
            pass,
            traced,
            thread: format!("width {}", self.width),
            start_ns: (t0 - epoch).as_nanos(),
            end_ns: (t1 - epoch).as_nanos(),
        });
        if !traced {
            // The untraced pass must have run with every observer off.
            if !elanib_trace::drain().is_empty() {
                self.invalid
                    .insert("metrics registry collected data in an untraced pass".into());
            }
            if profile::take().sims != 0 {
                self.invalid
                    .insert("kernel profiler ran in an untraced pass".into());
            }
        }
        self.attempted += point_s.len();
        Pass {
            wall_s: (t1 - t0).as_secs_f64(),
            cpu_s,
            point_s,
        }
    }
}

/// Merged metrics-registry counters plus the profiler's deterministic
/// counts of one traced pass.
fn collect_counts(prof: &ProfTotals) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for t in elanib_trace::drain() {
        for (k, v) in &t.summary.counters {
            *counts.entry(k.to_string()).or_insert(0) += v;
        }
    }
    for (tag, name) in TAG_NAMES.iter().enumerate() {
        counts.insert(format!("profile.{name}.count"), prof.det.count[tag]);
    }
    counts.insert("profile.sims".into(), prof.sims);
    counts
}

/// Compare counts with the committed baseline (`name value` lines)
/// and name every one that moved, appeared or vanished.
fn moved_counts(baseline: &Path, counts: &BTreeMap<String, u64>) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(baseline) else {
        return vec![format!("no baseline at {}", baseline.display())];
    };
    let base: BTreeMap<&str, u64> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k, v.trim().parse().ok()?)))
        .collect();
    let mut moved = Vec::new();
    for (k, &v) in counts {
        match base.get(k.as_str()) {
            Some(&b) if b == v => {}
            Some(&b) => moved.push(format!("{k}: {b} -> {v}")),
            None => moved.push(format!("{k}: new ({v})")),
        }
    }
    for (k, b) in &base {
        if !counts.contains_key(*k) {
            moved.push(format!("{k}: gone (was {b})"));
        }
    }
    moved
}

/// Digest of every count, so runs that agree on all of them show one
/// value.
fn count_digest(counts: &BTreeMap<String, u64>) -> u64 {
    let mut h = FxHasher::default();
    h.write(counts_text(counts).as_bytes());
    h.finish()
}

fn counts_text(counts: &BTreeMap<String, u64>) -> String {
    counts.iter().fold(String::new(), |mut s, (k, v)| {
        let _ = writeln!(s, "{k} {v}");
        s
    })
}

/// `(name, value, unit)` triples in output order.
type Metrics = Vec<(String, f64, &'static str)>;

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(k),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let env: Vec<(String, String)> = {
        let mut v: Vec<_> = std::env::vars()
            .filter(|(k, _)| k.starts_with("ELANIB_"))
            .collect();
        v.sort();
        v
    };
    let refused: Vec<&str> = REFUSED_TOGGLES
        .iter()
        .copied()
        .filter(|t| std::env::var_os(t).is_some())
        .collect();
    if !refused.is_empty() {
        eprintln!("perfbench: refusing to run with A/B toggles set: {refused:?}");
        std::process::exit(2);
    }
    quiet_point_panics();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let expected = match grid::load_expected(&repo.join("results"), &args.workload) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    // Point cache off, observers off; the pool width is the workload's.
    simcache::set_override(Some(Mode::Off));
    set_observers(false);
    let mut invalid = BTreeSet::new();
    if profile::enabled() || elanib_trace::config().enabled() {
        invalid.insert("profiler or tracer still on after forcing them off".to_string());
    }
    let width = grid::pool_width(&args.workload);
    std::env::set_var("ELANIB_SWEEP_THREADS", width.to_string());
    let cache0 = simcache::stats();

    let points = grid::points(&args.workload);
    let order = host::permutation(points.len(), args.seed);

    // Set-up before the first point: sampled on fresh threads, then
    // once here, which leaves this thread's caches filled for the
    // inline sweeps. More samples are taken between passes, so the
    // median spans the whole run rather than one moment of it.
    let mut setup_s = sample_setup(&args.workload, SETUP_FIRST_S);
    let t = Instant::now();
    let inputs = grid::setup(&args.workload);
    setup_s.push(t.elapsed().as_secs_f64());

    let mut run = Run {
        args: &args,
        points,
        order,
        width,
        inputs,
        expected,
        epoch: Instant::now(),
        passes: 0,
        spans: Vec::new(),
        mismatches: BTreeSet::new(),
        invalid,
        attempted: 0,
        failed: 0,
    };

    let started = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    // Memory after set-up and one pass: a fixed amount of work, however
    // many passes fit in the run. (A simulation that ends with live
    // tasks is never freed, so memory keeps growing on congestion.)
    let mut peak_rss_mb = None;
    loop {
        let t = Instant::now();
        untraced.push(run.pass(false));
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        if !args.trace {
            let share = SETUP_SHARE * untraced.last().map_or(0.0, |p| p.wall_s);
            setup_s.extend(sample_setup(&args.workload, share));
        } else {
            let pass = run.pass(true);
            let prof = profile::take();
            let counts = collect_counts(&prof);
            if traced.first().is_some_and(|first| first.counts != counts) {
                run.invalid
                    .insert("count metrics differ between traced passes".into());
            }
            traced.push(TracedPass { pass, prof, counts });
        }
        if started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    let mut metrics: Metrics = Vec::new();
    let wall_s = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let mut counts = BTreeMap::new();
    let mut moved = Vec::new();
    if !args.trace {
        let cpu: Vec<f64> = untraced.iter().map(|p| p.cpu_s).collect();
        let point_s: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.point_s.iter().copied())
            .collect();
        metrics.push(("wall_s".into(), wall_s, "s"));
        metrics.push(("cpu_s".into(), median(&cpu), "s"));
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb.unwrap_or_default(), "MiB"));
        metrics.push(("point_p50_ms".into(), median(&point_s) * 1e3, "ms"));
    } else {
        counts = traced[0].counts.clone();
        let baseline = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("counts")
            .join(format!("{}.txt", args.workload));
        moved = moved_counts(&baseline, &counts);
        layer_metrics(&mut metrics, run.width, &traced, wall_s);
        metrics.push(("apps.cg_1rank_s".into(), probes::cg_1rank_s(), "s"));
        let deliver_ns = probes::fabric_deliver_ns(&args.workload);
        metrics.push(("fabric.deliver_ns".into(), deliver_ns, "ns"));
        metrics.push((
            "fabric.build_s".into(),
            probes::fabric_build_s(&args.workload),
            "s",
        ));
        metrics.push(("nodesim.op_ns".into(), probes::nodesim_op_ns(), "ns"));
    }

    let cache = simcache::stats().delta_since(cache0);
    if cache.hits + cache.misses + cache.stores > 0 {
        run.invalid.insert(format!(
            "point cache saw traffic: {} hits, {} misses, {} stores",
            cache.hits, cache.misses, cache.stores
        ));
    }
    let correct = run.failed == 0 && run.invalid.is_empty();

    let record = write_record(&run, &env, &setup_s, &untraced, &metrics, &counts, &moved);
    eprintln!(
        "perfbench {} seed {} trace {}: {} passes x {} points at width {}, {} failed, {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        untraced.len() + traced.len(),
        run.points.len(),
        run.width,
        run.failed,
        record.map_or_else(
            |e| format!("record not written: {e}"),
            |p| format!("record {}", p.display())
        )
    );
    for line in run.mismatches.iter().take(10).chain(&run.invalid) {
        eprintln!("  {line}");
    }
    if args.trace {
        eprintln!("  count digest {:016x}", count_digest(&counts));
        for m in moved.iter().take(20) {
            eprintln!("  count moved vs baseline: {m}");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_json(&metrics)
    );
}

/// Per-layer metrics of the traced passes: profiler buckets, registry
/// counters, sweep scheduling and tracing overhead. Times are medians
/// over the traced passes; counts are the first pass's.
fn layer_metrics(m: &mut Metrics, width: usize, traced: &[TracedPass], untraced_wall_s: f64) {
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<f64>>());
    let (prof, counts) = (&traced[0].prof, &traced[0].counts);
    let events = prof.events();
    m.push(("simcore.events".into(), events as f64, "count"));
    m.push((
        "simcore.events_per_s".into(),
        events as f64 / untraced_wall_s,
        "1/s",
    ));
    for (tag, name) in BUCKETS {
        let count = prof.det.count[tag];
        let wall = med(&|t| t.prof.wall_ns[tag] as f64 * 1e-9);
        let per = if count == 0 {
            0.0
        } else {
            wall * 1e9 / count as f64
        };
        m.push((format!("simcore.{name}.count"), count as f64, "count"));
        m.push((format!("simcore.{name}.wall_s"), wall, "s"));
        m.push((format!("simcore.{name}.ns_per_event"), per, "ns"));
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    for (metric, counter, unit) in COUNTERS {
        m.push((metric.into(), count(counter) as f64, unit));
    }
    let (hits, misses) = (count("regcache.hits"), count("regcache.misses"));
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    m.push(("nic.regcache.hit_ratio".into(), ratio, "ratio"));
    let busy = |t: &TracedPass| t.pass.point_s.iter().sum::<f64>();
    m.push(("core.sweep.busy_s".into(), med(&busy), "s"));
    m.push((
        "core.sweep.idle_s".into(),
        med(&|t| width as f64 * t.pass.wall_s - busy(t)),
        "s",
    ));
    let max_point = |t: &TracedPass| t.pass.point_s.iter().copied().fold(0.0, f64::max);
    m.push(("core.point.max_s".into(), med(&max_point), "s"));
    let overhead = med(&|t| t.pass.wall_s) / untraced_wall_s - 1.0;
    m.push(("trace.overhead_pct".into(), overhead * 100.0, "%"));
}

/// Write the run record (environment, samples, metrics, counts, cell
/// mismatches and every span) to `perfbench/out/`.
fn write_record(
    run: &Run,
    env: &[(String, String)],
    setup_s: &[f64],
    untraced: &[Pass],
    metrics: &Metrics,
    counts: &BTreeMap<String, u64>,
    moved: &[String],
) -> std::io::Result<PathBuf> {
    let a = run.args;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    if a.trace {
        std::fs::write(dir.join(format!("{stem}.counts.txt")), counts_text(counts))?;
    }
    let nums =
        |v: &mut dyn Iterator<Item = f64>| v.map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
    let strs = |v: &mut dyn Iterator<Item = &String>| {
        v.map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {},",
        json_str(&a.workload),
        a.seed,
        a.trace,
        a.seconds
    );
    let _ = writeln!(
        s,
        "  \"nproc\": {nproc}, \"pool_width\": {}, \"git_rev\": {},",
        run.width,
        json_str(elanib_trace::git_rev())
    );
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let _ = writeln!(s, "  \"env\": {{{}}},", env_json.join(", "));
    let _ = writeln!(
        s,
        "  \"points\": {}, \"attempted\": {}, \"failed\": {},",
        run.points.len(),
        run.attempted,
        run.failed
    );
    let _ = writeln!(
        s,
        "  \"setup_s\": [{}],",
        nums(&mut setup_s.iter().copied())
    );
    let _ = writeln!(
        s,
        "  \"untraced_wall_s\": [{}],",
        nums(&mut untraced.iter().map(|p| p.wall_s))
    );
    let _ = writeln!(
        s,
        "  \"untraced_cpu_s\": [{}],",
        nums(&mut untraced.iter().map(|p| p.cpu_s))
    );
    let _ = writeln!(s, "  \"final_peak_rss_mb\": {},", host::peak_rss_mb());
    let _ = writeln!(s, "  \"metrics\": {},", metrics_json(metrics));
    let _ = writeln!(s, "  \"count_digest\": \"{:016x}\",", count_digest(counts));
    let _ = writeln!(s, "  \"counts_moved\": [{}],", strs(&mut moved.iter()));
    let _ = writeln!(
        s,
        "  \"mismatches\": [{}],",
        strs(&mut run.mismatches.iter())
    );
    let _ = writeln!(s, "  \"invalid\": [{}],", strs(&mut run.invalid.iter()));
    s.push_str("  \"spans\": [\n");
    for (i, sp) in run.spans.iter().enumerate() {
        let parent = if sp.name == "sweep" {
            "null".to_string()
        } else {
            format!("\"sweep#{}\"", sp.pass)
        };
        let sep = if i + 1 < run.spans.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"pass\": {}, \"traced\": {}, \"thread\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            json_str(&sp.name), sp.pass, sp.traced, json_str(&sp.thread), sp.start_ns, sp.end_ns
        );
    }
    s.push_str("  ]\n}\n");
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, s)?;
    Ok(path)
}
