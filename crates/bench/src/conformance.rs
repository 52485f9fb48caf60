//! Driver behind the `conformance` binary: expectation evaluation plus
//! the two repo-level gates the dep-free `elanib-validate` crate cannot
//! know about — exhibit *coverage* (every entry of
//! [`elanib_core::EXHIBITS`] must be claimed by an expectation file)
//! and BENCH *regression gating* (current `BENCH_*.json` wall times vs
//! the committed baselines).
//!
//! Lives in the library (not the binary) so the integration tests can
//! run the exact production code path against mutated CSV fixtures.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use elanib_simcore::trace::json::quote_all;
use elanib_validate::report::Report;

use crate::record::{BenchRecord, Body, WallRecord};

/// Everything one conformance run needs.
pub struct ConformanceOptions {
    /// Directory of `*.toml` expectation files.
    pub expectations: PathBuf,
    /// Directory of exhibit CSVs to validate.
    pub results: PathBuf,
    /// Where to write `conformance.json` (`None` = don't).
    pub json: Option<PathBuf>,
    /// Fresh BENCH JSONL (e.g. produced during this CI run).
    pub bench_current: Option<PathBuf>,
    /// Committed baseline JSONL (`BENCH_regen.json` / `BENCH_sweep.json`).
    pub bench_baselines: Vec<PathBuf>,
    /// Wall-time ratio above which a record is flagged. Deliberately
    /// generous: the gate exists to catch a 10x accidental slowdown
    /// (an O(n^2) regression, a cache left off), not 20% noise.
    pub bench_ratio: f64,
    /// Promote bench warnings to failures.
    pub strict: bool,
    /// `Some(r)` promotes the events/s regression check from warn-only
    /// to FAILING at ratio `r`: a sweep record whose throughput fell
    /// more than `r`x below the best baseline on record fails the run
    /// outright (regardless of `strict`). Records under the
    /// [`EPS_GATE_MIN_EVENTS`] noise floor are never judged.
    pub eps_gate: Option<f64>,
}

impl ConformanceOptions {
    pub fn new(expectations: PathBuf, results: PathBuf) -> ConformanceOptions {
        ConformanceOptions {
            expectations,
            results,
            json: None,
            bench_current: None,
            bench_baselines: Vec::new(),
            bench_ratio: 8.0,
            strict: false,
            eps_gate: None,
        }
    }
}

/// Result of a full conformance run.
pub struct Outcome {
    pub report: Report,
    /// Exhibit ids with no expectation file, and expectation files
    /// naming unknown exhibits.
    pub uncovered: Vec<String>,
    pub unknown_exhibits: Vec<String>,
    /// Bench-gate messages (warnings unless `strict`).
    pub bench_flags: Vec<String>,
    /// Events/s regressions under the failing gate
    /// ([`ConformanceOptions::eps_gate`]); always count against
    /// [`Outcome::ok`].
    pub eps_failures: Vec<String>,
    pub strict: bool,
}

impl Outcome {
    /// Expectations + coverage verdict (bench flags only fail strict
    /// runs; events/s failures under the promoted gate always fail).
    pub fn ok(&self) -> bool {
        self.report.ok()
            && self.uncovered.is_empty()
            && self.unknown_exhibits.is_empty()
            && self.eps_failures.is_empty()
            && (self.bench_flags.is_empty() || !self.strict)
    }

    /// Full human-readable rendering: the expectation report, then
    /// coverage, then the bench gate.
    pub fn render_text(&self) -> String {
        let mut out = self.report.render_text();
        if !self.uncovered.is_empty() {
            out.push_str(&format!(
                "\nCOVERAGE: {} exhibit(s) have no expectation file: {}\n",
                self.uncovered.len(),
                self.uncovered.join(", ")
            ));
        }
        if !self.unknown_exhibits.is_empty() {
            out.push_str(&format!(
                "\nCOVERAGE: expectation file(s) name unknown exhibits: {}\n",
                self.unknown_exhibits.join(", ")
            ));
        }
        for f in &self.bench_flags {
            out.push_str(&format!(
                "\nBENCH {}: {f}\n",
                if self.strict { "FAIL" } else { "WARN" }
            ));
        }
        for f in &self.eps_failures {
            out.push_str(&format!("\nBENCH FAIL (events/s gate): {f}\n"));
        }
        out
    }

    /// `conformance.json`: the validator's JSON with the repo-level
    /// gates appended, still deterministic.
    pub fn to_json(&self) -> String {
        let core = self.report.to_json();
        // Splice our extra fields before the final closing brace.
        let body = core.trim_end().trim_end_matches('}').trim_end();
        let mut out = String::from(body);
        out.push_str(&format!(
            ",\n  \"coverage_ok\": {}",
            self.uncovered.is_empty() && self.unknown_exhibits.is_empty()
        ));
        let list = |items: &[String]| quote_all(items, ", ");
        out.push_str(&format!(",\n  \"uncovered\": [{}]", list(&self.uncovered)));
        out.push_str(&format!(
            ",\n  \"unknown_exhibits\": [{}]",
            list(&self.unknown_exhibits)
        ));
        out.push_str(&format!(
            ",\n  \"bench_strict\": {},\n  \"bench_flags\": [{}]",
            self.strict,
            list(&self.bench_flags)
        ));
        out.push_str(&format!(
            ",\n  \"eps_failures\": [{}]",
            list(&self.eps_failures)
        ));
        out.push_str(&format!(",\n  \"ok\": {}\n}}\n", self.ok()));
        out
    }
}

/// Run the whole conformance check. `Err` is reserved for setup
/// problems (unreadable dirs, unparseable expectations) — evaluation
/// findings land in the `Outcome`, never fail fast.
pub fn run(opts: &ConformanceOptions) -> Result<Outcome, String> {
    let files = elanib_validate::load_expect_dir(&opts.expectations)?;
    let report = elanib_validate::run_files(&files, &opts.results);

    // Coverage, both directions.
    let covered: Vec<&str> = files.iter().map(|f| f.exhibit.as_str()).collect();
    let uncovered: Vec<String> = elanib_core::EXHIBITS
        .iter()
        .filter(|e| !covered.contains(&e.id))
        .map(|e| e.id.to_string())
        .collect();
    let unknown_exhibits: Vec<String> = files
        .iter()
        .filter(|f| elanib_core::exhibit(&f.exhibit).is_none())
        .map(|f| format!("{} (from {})", f.exhibit, f.source))
        .collect();

    let (bench_flags, eps_failures) = match &opts.bench_current {
        Some(current) => bench_gate(
            current,
            &opts.bench_baselines,
            opts.bench_ratio,
            opts.eps_gate,
        )?,
        None => (Vec::new(), Vec::new()),
    };

    Ok(Outcome {
        report,
        uncovered,
        unknown_exhibits,
        bench_flags,
        eps_failures,
        strict: opts.strict,
    })
}

/// Records shorter than this are never gated: sub-quarter-second
/// exhibits (the cost tables) have wall times dominated by process
/// noise, and flagging a 0.4 ms -> 4 ms "regression" helps nobody.
const BENCH_FLOOR_S: f64 = 0.25;

/// Noise floor for the FAILING events/s gate: records with fewer
/// simulated events than this are never judged — a per-event rate over
/// a handful of dispatches is dominated by process startup noise. The
/// kernel micro-bench scenarios all clear this comfortably.
const EPS_GATE_MIN_EVENTS: f64 = 50_000.0;

/// Compare per-exhibit wall times in `current` against the best
/// (minimum) wall time per exhibit across the `baselines`, and sweep
/// events/s against the best (maximum) baseline. Returns
/// `(warn_flags, eps_failures)`: wall-time regressions (and, when
/// `eps_gate` is `None`, throughput regressions at `ratio`) are
/// warn-only flags; with `eps_gate = Some(r)` the throughput check is
/// instead judged at ratio `r` over the [`EPS_GATE_MIN_EVENTS`] noise
/// floor and its findings land in the failing bucket.
fn bench_gate(
    current: &Path,
    baselines: &[PathBuf],
    ratio: f64,
    eps_gate: Option<f64>,
) -> Result<(Vec<String>, Vec<String>), String> {
    let (base, base_eps) = best_records(baselines)?;
    if base.is_empty() {
        return Err(format!(
            "bench gate: no baseline records found in {}",
            baselines
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    // Best current records too: a warm-cache rerun in the same file
    // must not be penalized by its cold predecessor.
    let (cur, cur_eps) = best_records(&[current.to_path_buf()])?;
    let mut flags = Vec::new();
    let mut failures = Vec::new();
    for (key, wall) in &cur {
        let Some(b) = base.get(key) else { continue };
        if *wall >= BENCH_FLOOR_S && *wall > b * ratio {
            flags.push(format!(
                "{key}: {wall:.2} s vs baseline {b:.2} s ({:.1}x > allowed {ratio}x)",
                wall / b
            ));
        }
    }
    // Throughput gate: a sweep whose simulated events/s dropped by more
    // than the allowed ratio against the best baseline is flagged.
    // Kernel-dispatch regressions show up here even when wall time
    // hides behind cache hits or a smaller grid, because the metric is
    // normalized per event. Warn-only at `ratio` by default; with
    // `eps_gate` the check fails the run at that (generous) ratio.
    let eps_ratio = eps_gate.unwrap_or(ratio);
    for (key, (eps, wall, events)) in &cur_eps {
        let Some(&(b, _, _)) = base_eps.get(key) else {
            continue;
        };
        let judged = match eps_gate {
            // The failing gate's floor is event-count based: a rate is
            // only trustworthy over enough dispatches.
            Some(_) => *events >= EPS_GATE_MIN_EVENTS,
            None => *wall >= BENCH_FLOOR_S,
        };
        if judged && eps * eps_ratio < b {
            let msg = format!(
                "{key}: {:.2}M events/s vs best on record {:.2}M ({:.1}x slower > allowed {eps_ratio}x)",
                eps / 1e6,
                b / 1e6,
                b / eps
            );
            if eps_gate.is_some() {
                failures.push(msg);
            } else {
                flags.push(msg);
            }
        }
    }
    Ok((flags, failures))
}

/// Best records per key across `files`: the minimum `wall_s`, and the
/// maximum `events_per_sec` together with the wall and event count of
/// the record that achieved it. Ties keep the earliest record.
type Best = (BTreeMap<String, f64>, BTreeMap<String, (f64, f64, f64)>);

fn best_records(files: &[PathBuf]) -> Result<Best, String> {
    let (mut wall, mut eps) = Best::default();
    for f in files {
        for (key, w) in wall_records(f)? {
            if let Some(e) = w.events_per_sec {
                let best = eps.entry(key.clone()).or_insert((e, w.wall_s, w.events));
                if e > best.0 {
                    *best = (e, w.wall_s, w.events);
                }
            }
            let best = wall.entry(key).or_insert(w.wall_s);
            if w.wall_s < *best {
                *best = w.wall_s;
            }
        }
    }
    Ok((wall, eps))
}

/// The regen and sweep records of one BENCH file, keyed `kind:label`
/// so sweep and regen records never collide. Profile records carry no
/// `wall_s` and unknown kinds are not gated, so both are skipped.
fn wall_records(path: &Path) -> Result<Vec<(String, WallRecord)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("bench gate: cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(BenchRecord::parse)
        .filter_map(|r| {
            let key = r.key()?;
            match r.body {
                Body::Wall(w) => Some((key, w)),
                _ => None,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_field_extraction() {
        let dir = std::env::temp_dir().join(format!("elanib-bench-fields-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let p = dir.join("bench.json");
        std::fs::write(
            &p,
            concat!(
                "{\"kind\":\"regen\",\"exhibit\":\"fig2_ljs\",\"wall_s\":0.531003,\"cache_hits\":0}\n",
                "{\"kind\":\"profile\",\"exhibit\":\"fig2_ljs\",\"poll_count\":1}\n",
                "{\"kind\": \"ab\", \"exhibit\": \"fig2_ljs\", \"wall_s\": 9}\n",
                "not json\n",
                "{\"kind\":\"sweep\",\"label\":\"a \\\"q\\\"\",\"events\":7,\"wall_s\":1,\"events_per_sec\":7.0}\n",
            ),
        )
        .unwrap();
        let recs = wall_records(&p).unwrap();
        let view: Vec<(&str, f64, Option<f64>, f64)> = recs
            .iter()
            .map(|(k, w)| (k.as_str(), w.wall_s, w.events_per_sec, w.events))
            .collect();
        assert_eq!(
            view,
            [
                ("regen:fig2_ljs", 0.531003, None, 0.0),
                ("sweep:a \"q\"", 1.0, Some(7.0), 7.0)
            ]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bench_gate_flags_only_large_slow_records() {
        let dir = std::env::temp_dir().join("elanib-bench-gate-test");
        let _ = std::fs::create_dir_all(&dir);
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        std::fs::write(
            &base,
            concat!(
                "{\"kind\":\"regen\",\"exhibit\":\"slow\",\"wall_s\":0.5}\n",
                "{\"kind\":\"regen\",\"exhibit\":\"tiny\",\"wall_s\":0.0001}\n",
            ),
        )
        .unwrap();
        std::fs::write(
            &cur,
            concat!(
                // 10x over the 0.5 s baseline -> flagged.
                "{\"kind\":\"regen\",\"exhibit\":\"slow\",\"wall_s\":5.0}\n",
                // 100x over baseline but under the absolute floor -> ignored.
                "{\"kind\":\"regen\",\"exhibit\":\"tiny\",\"wall_s\":0.01}\n",
                // No baseline -> ignored.
                "{\"kind\":\"regen\",\"exhibit\":\"new\",\"wall_s\":9.0}\n",
            ),
        )
        .unwrap();
        let (flags, _) = bench_gate(&cur, std::slice::from_ref(&base), 8.0, None).unwrap();
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].starts_with("regen:slow"), "{}", flags[0]);
        // A second, faster record for the same exhibit rescues it.
        std::fs::write(
            &cur,
            concat!(
                "{\"kind\":\"regen\",\"exhibit\":\"slow\",\"wall_s\":5.0}\n",
                "{\"kind\":\"regen\",\"exhibit\":\"slow\",\"wall_s\":0.6}\n",
            ),
        )
        .unwrap();
        assert!(bench_gate(&cur, &[base], 8.0, None).unwrap().0.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bench_gate_flags_events_per_sec_regressions() {
        let dir = std::env::temp_dir().join("elanib-bench-eps-gate-test");
        let _ = std::fs::create_dir_all(&dir);
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        std::fs::write(
            &base,
            concat!(
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"wall_s\":1.0,\"events_per_sec\":8000000.0}\n",
                "{\"kind\":\"sweep\",\"label\":\"fig6_nascg\",\"wall_s\":1.0,\"events_per_sec\":6000000.0}\n",
            ),
        )
        .unwrap();
        std::fs::write(
            &cur,
            concat!(
                // 10x fewer events/s at comparable wall -> flagged.
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"wall_s\":1.0,\"events_per_sec\":800000.0}\n",
                // Slower but within ratio -> clean.
                "{\"kind\":\"sweep\",\"label\":\"fig6_nascg\",\"wall_s\":1.0,\"events_per_sec\":2000000.0}\n",
                // Huge drop but under the wall floor (cache-warmed
                // blip, not a trustworthy sample) -> ignored.
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"wall_s\":0.001,\"events_per_sec\":1.0}\n",
            ),
        )
        .unwrap();
        let (flags, fails) = bench_gate(&cur, std::slice::from_ref(&base), 8.0, None).unwrap();
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(
            fails.is_empty(),
            "warn-only mode must never fail: {fails:?}"
        );
        assert!(
            flags[0].starts_with("sweep:fig2_ljs") && flags[0].contains("events/s"),
            "{}",
            flags[0]
        );
        // A faster sweep record for the same label rescues it.
        std::fs::write(
            &cur,
            concat!(
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"wall_s\":1.0,\"events_per_sec\":800000.0}\n",
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"wall_s\":1.0,\"events_per_sec\":7500000.0}\n",
            ),
        )
        .unwrap();
        assert!(bench_gate(&cur, &[base], 8.0, None).unwrap().0.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn eps_gate_fails_regressions_over_the_event_floor() {
        let dir = std::env::temp_dir().join("elanib-eps-gate-fail-test");
        let _ = std::fs::create_dir_all(&dir);
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        std::fs::write(
            &base,
            concat!(
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"events\":2000000,\"wall_s\":0.5,\"events_per_sec\":4000000.0}\n",
                "{\"kind\":\"sweep\",\"label\":\"kernel_timers\",\"events\":1000000,\"wall_s\":0.1,\"events_per_sec\":10000000.0}\n",
            ),
        )
        .unwrap();
        std::fs::write(
            &cur,
            concat!(
                // 2.5x below best on record, plenty of events -> FAILS.
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"events\":2000000,\"wall_s\":1.25,\"events_per_sec\":1600000.0}\n",
                // Short wall but above the event floor: the failing
                // gate judges it (wall floor doesn't apply) — within
                // 2x, so clean.
                "{\"kind\":\"sweep\",\"label\":\"kernel_timers\",\"events\":1000000,\"wall_s\":0.12,\"events_per_sec\":8000000.0}\n",
                // Huge drop but under the event floor -> ignored.
                "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"events\":100,\"wall_s\":1.0,\"events_per_sec\":100.0}\n",
            ),
        )
        .unwrap();
        // Best-per-key semantics: the 100-event record can't drag down
        // fig2_ljs because the 1.6M record is the best current one —
        // and that one is a genuine 2.5x regression.
        let (flags, fails) = bench_gate(&cur, std::slice::from_ref(&base), 8.0, Some(2.0)).unwrap();
        assert!(flags.is_empty(), "{flags:?}");
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].starts_with("sweep:fig2_ljs") && fails[0].contains("2.5x slower"),
            "{}",
            fails[0]
        );
        // Recovered throughput -> the failing gate passes clean.
        std::fs::write(
            &cur,
            "{\"kind\":\"sweep\",\"label\":\"fig2_ljs\",\"events\":2000000,\"wall_s\":0.48,\"events_per_sec\":4100000.0}\n",
        )
        .unwrap();
        let (_, fails) = bench_gate(&cur, &[base], 8.0, Some(2.0)).unwrap();
        assert!(fails.is_empty(), "{fails:?}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
