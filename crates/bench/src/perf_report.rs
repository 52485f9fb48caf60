//! Driver behind the `elanib-report` binary: merge BENCH history,
//! profiler output and `conformance.json` into one perf dashboard.
//!
//! Inputs are the flat JSONL records the rest of the repo already
//! emits to `ELANIB_BENCH_JSON` — `{"kind":"regen"}` per-exhibit wall
//! times, `{"kind":"sweep"}` throughput records (with the schema-3
//! per-worker breakdown), `{"kind":"profile"}` kernel-profiler
//! flushes, all read through [`crate::record`] — plus the conformance
//! run's JSON verdict, read with [`json::parse`]. Output is a
//! markdown dashboard (`perf_report.md`) and a structured JSON twin
//! (`perf_report.json`), both deterministic functions of the input
//! files: records are processed in file order, line order, and every
//! table is sorted by explicit keys, so re-running the report on the
//! same inputs is byte-identical (`scripts/ci.sh` stage `report`
//! renders twice and `cmp`s the outputs).
//!
//! The report also extends the warn-only regression gate from wall
//! time to **per-event-type cost**: for each exhibit with profile
//! history, the latest `ns/event` of every kernel bucket is compared
//! against the best historical value; a bucket that got more than
//! `ratio` times slower is flagged (warning by default, failure with
//! `--strict`) — the same generous-threshold policy as the bench gate,
//! but attributed to a named kernel bucket instead of a whole run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use elanib_simcore::profile::{TAGS, TAG_NAMES};
use elanib_simcore::trace::json::{self, quote, quote_all};

use crate::record::{BenchRecord, Body, ProfileRecord, WallRecord};

/// Buckets with fewer events than this are not cost-gated: per-event
/// cost over a handful of dispatches is process noise. Shared with the
/// BENCH rotation so it preserves exactly the records this gate
/// considers "best".
pub(crate) const GATE_MIN_EVENTS: f64 = 10_000.0;

/// Everything parsed out of the input files.
#[derive(Debug, Default)]
struct History {
    /// Records in input order, keyed for "latest" = last occurrence.
    regen: Vec<WallRecord>,
    sweeps: Vec<WallRecord>,
    profiles: Vec<ProfileRecord>,
    inputs: Vec<String>,
    git_revs: Vec<String>,
}

/// The generated report.
#[derive(Debug, Default)]
pub struct PerfReport {
    pub markdown: String,
    pub json: String,
    /// Per-event-type cost regressions (warn-only unless strict).
    pub flags: Vec<String>,
}

fn load(inputs: &[PathBuf]) -> Result<History, String> {
    let mut h = History::default();
    for path in inputs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("report: cannot read {}: {e}", path.display()))?;
        h.inputs.push(
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
        );
        for r in text.lines().filter_map(BenchRecord::parse) {
            if !r.git_rev.is_empty() && !h.git_revs.contains(&r.git_rev) {
                h.git_revs.push(r.git_rev);
            }
            match r.body {
                Body::Wall(w) if r.kind == "regen" => h.regen.push(w),
                Body::Wall(w) => h.sweeps.push(w),
                Body::Profile(p) => h.profiles.push(p),
                Body::Unknown => {}
            }
        }
    }
    Ok(h)
}

/// `conformance.json`'s top-level `ok` and the length of its
/// top-level `bench_flags` array.
fn load_conformance(path: &Path) -> Result<(bool, usize), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("report: cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("report: {}: {e}", path.display()))?;
    let flags = v.get("bench_flags").and_then(json::Value::as_arr);
    Ok((
        v.get("ok") == Some(&json::Value::Bool(true)),
        flags.map_or(0, <[_]>::len),
    ))
}

fn fmt_eps(eps: f64) -> String {
    format!("{:.2}M", eps / 1e6)
}

/// Latest-vs-best trend tables keyed by label: `(best, latest, n)`.
fn trend<'a>(
    recs: impl Iterator<Item = &'a WallRecord>,
    value: impl Fn(&WallRecord) -> Option<f64>,
    best_is_max: bool,
) -> BTreeMap<String, (f64, f64, usize)> {
    let mut out: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for r in recs {
        let Some(v) = value(r) else { continue };
        let e = out.entry(r.label.clone()).or_insert((v, v, 0));
        if (best_is_max && v > e.0) || (!best_is_max && v < e.0) {
            e.0 = v;
        }
        e.1 = v; // input order: last record wins "latest"
        e.2 += 1;
    }
    out
}

/// Per-event-type cost gate: latest ns/event per (exhibit, bucket) vs
/// the best (minimum) historical ns/event over the earlier records.
fn cost_flags(profiles: &[ProfileRecord], ratio: f64) -> Vec<String> {
    let mut flags = Vec::new();
    let mut by_exhibit: BTreeMap<&str, Vec<&ProfileRecord>> = BTreeMap::new();
    for p in profiles {
        by_exhibit.entry(p.label.as_str()).or_default().push(p);
    }
    for (exhibit, recs) in by_exhibit {
        let (latest, history) = match recs.split_last() {
            Some((l, h)) if !h.is_empty() => (l, h),
            _ => continue, // nothing to compare against
        };
        for (b, name) in TAG_NAMES.iter().enumerate() {
            let Some(now) = latest.ns_per_event(b) else {
                continue;
            };
            if latest.buckets[b].0 < GATE_MIN_EVENTS {
                continue;
            }
            let best = history
                .iter()
                .filter(|p| p.buckets[b].0 >= GATE_MIN_EVENTS)
                .filter_map(|p| p.ns_per_event(b))
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() && now > best * ratio {
                flags.push(format!(
                    "{exhibit}/{name}: {now:.1} ns/event vs best {best:.1} ({:.1}x > allowed {ratio}x)",
                    now / best
                ));
            }
        }
    }
    flags
}

/// Generate the dashboard from `inputs` (JSONL files, in order) and an
/// optional `conformance.json`. Pure function of the file contents.
pub fn generate(
    inputs: &[PathBuf],
    conformance: Option<&Path>,
    ratio: f64,
) -> Result<PerfReport, String> {
    let h = load(inputs)?;
    let conf = conformance.map(load_conformance).transpose()?;
    let flags = cost_flags(&h.profiles, ratio);

    let eps_trend = trend(h.sweeps.iter(), |r| r.events_per_sec, true);
    let wall_trend = trend(h.regen.iter(), |r| Some(r.wall_s), false);

    // Latest profile per exhibit, plus a cross-exhibit bucket rollup.
    let mut latest_prof: BTreeMap<&str, &ProfileRecord> = BTreeMap::new();
    for p in &h.profiles {
        latest_prof.insert(p.label.as_str(), p);
    }
    let mut rollup = [(0.0f64, 0.0f64); TAGS];
    let mut roll_run_ns = 0.0f64;
    for p in latest_prof.values() {
        for (r, b) in rollup.iter_mut().zip(p.buckets.iter()) {
            r.0 += b.0;
            r.1 += b.1;
        }
        roll_run_ns += p.run_wall_ns;
    }

    // ---- markdown ----
    let mut md = String::from("# elanib perf report\n\n");
    md.push_str(&format!("Inputs: {}\n", h.inputs.join(", ")));
    if !h.git_revs.is_empty() {
        md.push_str(&format!("Git revisions seen: {}\n", h.git_revs.join(", ")));
    }
    md.push('\n');

    md.push_str("## Sweep throughput (events/s per label)\n\n");
    if eps_trend.is_empty() {
        md.push_str("No sweep records.\n\n");
    } else {
        md.push_str("| label | records | best | latest | latest/best |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for (label, (best, latest, n)) in &eps_trend {
            md.push_str(&format!(
                "| {label} | {n} | {} | {} | {:.2} |\n",
                fmt_eps(*best),
                fmt_eps(*latest),
                latest / best
            ));
        }
        md.push('\n');
    }

    md.push_str("## Regen wall time (s per exhibit)\n\n");
    if wall_trend.is_empty() {
        md.push_str("No regen records.\n\n");
    } else {
        md.push_str("| exhibit | records | best | latest | latest/best |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for (label, (best, latest, n)) in &wall_trend {
            md.push_str(&format!(
                "| {label} | {n} | {best:.3} | {latest:.3} | {:.2} |\n",
                latest / best.max(1e-9)
            ));
        }
        md.push('\n');
    }

    md.push_str("## Hot kernel events (latest profile per exhibit, rolled up)\n\n");
    if latest_prof.is_empty() {
        md.push_str("No profile records (run with ELANIB_PROFILE=1 to collect).\n\n");
    } else {
        let total_attr: f64 = rollup.iter().map(|&(_, w)| w).sum::<f64>();
        let pct = if roll_run_ns > 0.0 {
            100.0 * total_attr / roll_run_ns
        } else {
            100.0
        };
        md.push_str("| bucket | events | wall ms | ns/event | share of attributed |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        let mut order: Vec<usize> = (0..TAGS).collect();
        order.sort_by(|&a, &b| rollup[b].1.total_cmp(&rollup[a].1));
        for b in order {
            let (count, wall) = rollup[b];
            let npe = if count > 0.0 { wall / count } else { 0.0 };
            md.push_str(&format!(
                "| {} | {:.0} | {:.2} | {npe:.1} | {:.1}% |\n",
                TAG_NAMES[b],
                count,
                wall / 1e6,
                if total_attr > 0.0 {
                    100.0 * wall / total_attr
                } else {
                    0.0
                }
            ));
        }
        md.push('\n');
        md.push_str(&format!(
            "Attribution: **{pct:.1}%** of measured kernel wall time is in named buckets.\n\n"
        ));
        md.push_str("Per exhibit:\n\n");
        md.push_str("| exhibit | sims | events | run wall ms | attribution |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for (exhibit, p) in &latest_prof {
            md.push_str(&format!(
                "| {exhibit} | {:.0} | {:.0} | {:.2} | {:.1}% |\n",
                p.sims,
                p.events,
                p.run_wall_ns / 1e6,
                p.attribution_pct
            ));
        }
        md.push('\n');
    }

    md.push_str("## Worker efficiency\n\n");
    let pooled: Vec<&WallRecord> = h.sweeps.iter().filter(|r| !r.workers.is_empty()).collect();
    if pooled.is_empty() {
        md.push_str("No sweep records with worker breakdowns (schema 3).\n\n");
    } else {
        md.push_str("| label | threads | jobs | events/s | worker balance |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for r in pooled {
            let balance = if r.workers.len() > 1 {
                let evs: Vec<f64> = r.workers.iter().map(|&(_, e, _)| e).collect();
                let max = evs.iter().cloned().fold(0.0f64, f64::max);
                let mean = evs.iter().sum::<f64>() / evs.len() as f64;
                if mean > 0.0 {
                    format!("{:.2} max/mean", max / mean)
                } else {
                    "—".to_string()
                }
            } else {
                "—".to_string()
            };
            md.push_str(&format!(
                "| {} | {} | {} | {} | {balance} |\n",
                r.label,
                r.threads.map_or("—".into(), |t| format!("{t:.0}")),
                r.jobs.map_or("—".into(), |j| format!("{j:.0}")),
                r.events_per_sec.map_or("—".into(), fmt_eps),
            ));
        }
        md.push('\n');
    }

    md.push_str("## Per-event-type cost gate\n\n");
    if flags.is_empty() {
        md.push_str(&format!(
            "Clean: no kernel bucket got more than {ratio}x slower than its best historical ns/event.\n\n"
        ));
    } else {
        for f in &flags {
            md.push_str(&format!("- WARN {f}\n"));
        }
        md.push('\n');
    }

    md.push_str("## Conformance\n\n");
    if let Some((ok, bench_flags)) = conf {
        md.push_str(&format!(
            "conformance.json: **{}**, {bench_flags} bench flag(s).\n",
            if ok { "ok" } else { "FAILING" },
        ));
    } else {
        md.push_str("No conformance.json supplied.\n");
    }

    // ---- json twin ----
    let trend_json = |t: &BTreeMap<String, (f64, f64, usize)>, prec: usize| {
        let rows: Vec<String> = t
            .iter()
            .map(|(l, (b, latest, n))| {
                format!(
                    "{}: {{\"best\": {b:.prec$}, \"latest\": {latest:.prec$}, \"records\": {n}}}",
                    quote(l)
                )
            })
            .collect();
        rows.join(", ")
    };
    let profiles: Vec<String> = latest_prof
        .iter()
        .map(|(e, p)| {
            let buckets: Vec<String> = TAG_NAMES
                .iter()
                .zip(p.buckets)
                .map(|(name, (count, wall))| {
                    format!("\"{name}\": {{\"count\": {count:.0}, \"wall_ns\": {wall:.0}}}")
                })
                .collect();
            format!(
                "{}: {{\"events\": {:.0}, \"run_wall_ns\": {:.0}, \"attribution_pct\": {:.2}, {}}}",
                quote(e),
                p.events,
                p.run_wall_ns,
                p.attribution_pct,
                buckets.join(", ")
            )
        })
        .collect();
    let mut js = format!("{{\n  \"inputs\": [{}],\n", quote_all(&h.inputs, ", "));
    js.push_str(&format!(
        "  \"sweep_eps\": {{{}}},\n",
        trend_json(&eps_trend, 1)
    ));
    js.push_str(&format!(
        "  \"regen_wall_s\": {{{}}},\n",
        trend_json(&wall_trend, 6)
    ));
    js.push_str(&format!("  \"profiles\": {{{}}},\n", profiles.join(", ")));
    js.push_str(&format!(
        "  \"cost_flags\": [{}],\n",
        quote_all(&flags, ", ")
    ));
    let (ok, bench_flags) = conf.unwrap_or_default();
    js.push_str(&format!(
        "  \"conformance\": {{\"present\": {}, \"ok\": {ok}, \"bench_flags\": {bench_flags}}}\n}}\n",
        conf.is_some()
    ));

    Ok(PerfReport {
        markdown: md,
        json: js,
        flags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, body: &str) -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, body).unwrap();
        p
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("elanib_report_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const SWEEP_A: &str = "{\"kind\":\"sweep\",\"schema\":3,\"git_rev\":\"abc123\",\"label\":\"fig2_ljs\",\"jobs\":24,\"threads\":4,\"events\":1000000,\"failed\":0,\"wall_s\":0.5,\"events_per_sec\":2000000.0,\"unix_ts\":1,\"workers\":[{\"w\":0,\"j\":12,\"e\":600000,\"busy_s\":0.4},{\"w\":1,\"j\":12,\"e\":400000,\"busy_s\":0.3}]}";
    const PROF_1: &str = "{\"kind\":\"profile\",\"schema\":3,\"git_rev\":\"abc123\",\"exhibit\":\"fig2_ljs\",\"sims\":24,\"events\":1000000,\"run_wall_ns\":100000000,\"attribution_pct\":98.50,\"poll_count\":800000,\"poll_wall_ns\":70000000,\"timer_count\":100000,\"timer_wall_ns\":10000000,\"call_count\":100000,\"call_wall_ns\":10000000,\"wake_count\":50000,\"wake_wall_ns\":8000000,\"wheel_cascades\":12,\"wheel_high_water\":900,\"unix_ts\":1}";
    // Same exhibit, poll 10x slower per event.
    const PROF_2: &str = "{\"kind\":\"profile\",\"schema\":3,\"git_rev\":\"def456\",\"exhibit\":\"fig2_ljs\",\"sims\":24,\"events\":1000000,\"run_wall_ns\":800000000,\"attribution_pct\":97.00,\"poll_count\":800000,\"poll_wall_ns\":700000000,\"timer_count\":100000,\"timer_wall_ns\":11000000,\"call_count\":100000,\"call_wall_ns\":11000000,\"wake_count\":50000,\"wake_wall_ns\":9000000,\"wheel_cascades\":12,\"wheel_high_water\":900,\"unix_ts\":2}";

    #[test]
    fn report_renders_all_sections_and_is_deterministic() {
        let dir = tmpdir("full");
        let bench = write(
            &dir,
            "bench.json",
            &format!(
                "{SWEEP_A}\n{{\"kind\":\"regen\",\"schema\":3,\"git_rev\":\"abc123\",\"exhibit\":\"fig2_ljs\",\"wall_s\":0.6,\"unix_ts\":1}}\n{PROF_1}\n"
            ),
        );
        let conf = write(
            &dir,
            "conformance.json",
            "{\n  \"ok\": true,\n  \"bench_flags\": []\n}\n",
        );
        let r1 = generate(std::slice::from_ref(&bench), Some(&conf), 8.0).unwrap();
        let r2 = generate(std::slice::from_ref(&bench), Some(&conf), 8.0).unwrap();
        assert_eq!(r1.markdown, r2.markdown, "markdown must be deterministic");
        assert_eq!(r1.json, r2.json);
        assert!(r1.flags.is_empty(), "{:?}", r1.flags);
        assert!(r1.markdown.contains("| fig2_ljs | 1 | 2.00M | 2.00M |"));
        assert!(r1.markdown.contains("| poll | 800000 |"), "{}", r1.markdown);
        assert!(r1.markdown.contains("1.20 max/mean"), "{}", r1.markdown);
        assert!(r1.markdown.contains("**ok**"), "{}", r1.markdown);
        assert!(
            r1.markdown.contains("Attribution: **98.0%"),
            "{}",
            r1.markdown
        );
        assert!(r1.json.contains("\"attribution_pct\": 98.50"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cost_gate_flags_per_bucket_regressions() {
        let dir = tmpdir("gate");
        let bench = write(&dir, "bench.json", &format!("{PROF_1}\n{PROF_2}\n"));
        let r = generate(std::slice::from_ref(&bench), None, 8.0).unwrap();
        assert_eq!(r.flags.len(), 1, "{:?}", r.flags);
        assert!(r.flags[0].starts_with("fig2_ljs/poll:"), "{}", r.flags[0]);
        assert!(r.markdown.contains("WARN fig2_ljs/poll"), "{}", r.markdown);
        // A single record has no history: nothing to flag.
        let solo = write(&dir, "solo.json", &format!("{PROF_2}\n"));
        let r = generate(std::slice::from_ref(&solo), None, 8.0).unwrap();
        assert!(r.flags.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn worker_array_parsing_is_robust() {
        let r = BenchRecord::parse(SWEEP_A).unwrap();
        let Body::Wall(w) = r.body else {
            panic!("{r:?}")
        };
        assert_eq!(w.workers, [(12.0, 600000.0, 0.4), (12.0, 400000.0, 0.3)]);
        // The cross-worker balance row is computed from those events.
        let dir = tmpdir("workers");
        let bench = write(&dir, "bench.json", &format!("{SWEEP_A}\n"));
        let r = generate(std::slice::from_ref(&bench), None, 8.0).unwrap();
        assert!(r
            .markdown
            .contains("| fig2_ljs | 4 | 24 | 2.00M | 1.20 max/mean |"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn conformance_summary_reads_top_level_members() {
        let dir = tmpdir("conf");
        // A flag holding `]` and an escaped quote, and a nested `ok`
        // that must not be mistaken for the verdict.
        let conf = write(
            &dir,
            "conformance.json",
            "{\n  \"files\": [{\"ok\": true}],\n  \"bench_flags\": [\"regen:x]: 9 s \\\"slow\\\"\"],\n  \"ok\": false\n}\n",
        );
        assert_eq!(load_conformance(&conf), Ok((false, 1)));
        let bad = write(&dir, "bad.json", "{\"ok\": true,}");
        assert!(load_conformance(&bad).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
