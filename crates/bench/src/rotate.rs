//! BENCH history rotation: bound the append-only `BENCH_regen.json` /
//! `BENCH_sweep.json` files without weakening the regression gates.
//!
//! Every full `regen_all.sh` pass appends records, so left alone the
//! files grow without bound. Rotation keeps, per `(kind, label)` key:
//!
//! * the **best-on-record** entries the gates compare against — the
//!   minimum `wall_s` regen record, the maximum `events_per_sec` sweep
//!   record, and (for profile records) the record achieving the
//!   minimum ns/event for *each* kernel bucket over the cost gate's
//!   event floor — so `conformance` and `elanib-report` judge future
//!   runs against exactly the same baselines before and after a
//!   rotation;
//! * the **last `keep`** records in input order, so the trend tables
//!   keep their recent history.
//!
//! Lines that don't parse as a keyed record (unknown `kind`, missing
//! label) are always preserved verbatim: rotation must never eat data
//! it doesn't understand. Output preserves the original relative
//! order, so "latest = last occurrence" semantics survive.

use std::path::Path;

use elanib_simcore::profile::TAGS;

use crate::perf_report::GATE_MIN_EVENTS;
use crate::record::{BenchRecord, Body};

/// What one [`rotate_file`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RotateStats {
    /// Lines written back.
    pub kept: usize,
    /// Lines dropped.
    pub dropped: usize,
}

/// The rotation key and gate-relevant metrics of one record.
struct Keyed {
    key: String,
    /// Lower-is-better score (regen wall, sweep -events/s).
    score: f64,
    /// Profile-only: ns/event per bucket (None under the gate floor).
    bucket_cost: [Option<f64>; TAGS],
}

fn classify(line: &str) -> Option<Keyed> {
    let r = BenchRecord::parse(line)?;
    let key = r.key()?;
    let (score, bucket_cost) = match r.body {
        Body::Wall(w) if r.kind == "regen" => (w.wall_s, [None; TAGS]),
        // Sweep best = max events/s; negate for the shared min-score.
        Body::Wall(w) => (-w.events_per_sec.unwrap_or(-w.wall_s), [None; TAGS]),
        // Profiles have no single best; only bucket costs pin records.
        // Score ties every profile equally.
        Body::Profile(p) => (
            0.0,
            p.buckets
                .map(|(count, wall)| (count >= GATE_MIN_EVENTS).then(|| wall / count)),
        ),
        Body::Unknown => return None,
    };
    Some(Keyed {
        key,
        score,
        bucket_cost,
    })
}

/// Indices (ascending) of the lines to keep under a `keep`-per-key
/// rotation. Pure function of the lines, exposed for tests.
pub fn rotation_keep_set(lines: &[&str], keep: usize) -> Vec<usize> {
    use std::collections::BTreeMap;

    let keyed: Vec<Option<Keyed>> = lines.iter().copied().map(classify).collect();

    // Per key: best score index, best bucket-cost index per bucket,
    // and all indices in order.
    struct Group {
        best_score: Option<(f64, usize)>,
        best_bucket: [Option<(f64, usize)>; TAGS],
        members: Vec<usize>,
    }
    let mut groups: BTreeMap<&str, Group> = BTreeMap::new();
    let mut kept: Vec<bool> = keyed.iter().map(Option::is_none).collect(); // unparsed: keep

    for (i, k) in keyed.iter().enumerate() {
        let Some(k) = k else { continue };
        let g = groups.entry(k.key.as_str()).or_insert(Group {
            best_score: None,
            best_bucket: [None; TAGS],
            members: Vec::new(),
        });
        // Ties keep the earliest record — the gates' fold order.
        if g.best_score.is_none_or(|(s, _)| k.score < s) {
            g.best_score = Some((k.score, i));
        }
        for (slot, cost) in g.best_bucket.iter_mut().zip(k.bucket_cost.iter()) {
            if let Some(c) = cost {
                if slot.is_none_or(|(s, _)| *c < s) {
                    *slot = Some((*c, i));
                }
            }
        }
        g.members.push(i);
    }

    for g in groups.values() {
        if let Some((_, i)) = g.best_score {
            kept[i] = true;
        }
        for slot in g.best_bucket.iter().flatten() {
            kept[slot.1] = true;
        }
        for &i in g.members.iter().rev().take(keep) {
            kept[i] = true;
        }
    }
    (0..lines.len()).filter(|&i| kept[i]).collect()
}

/// Rotate `path` in place, keeping the last `keep` records per
/// `(kind, label)` key plus every best-on-record entry (see module
/// docs). Atomic: the result is written to a sibling temp file and
/// renamed over the original, so a crash mid-rotation never truncates
/// history.
pub fn rotate_file(path: &Path, keep: usize) -> Result<RotateStats, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("rotate: cannot read {}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let keep_set = rotation_keep_set(&lines, keep);
    let stats = RotateStats {
        kept: keep_set.len(),
        dropped: lines.len() - keep_set.len(),
    };
    if stats.dropped == 0 {
        return Ok(stats); // nothing to do; don't churn the file
    }
    let mut out = String::with_capacity(text.len());
    for i in keep_set {
        out.push_str(lines[i]);
        out.push('\n');
    }
    let tmp = path.with_extension("rotate.tmp");
    std::fs::write(&tmp, &out)
        .map_err(|e| format!("rotate: cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rotate: cannot replace {}: {e}", path.display()))?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regen(label: &str, wall: f64) -> String {
        format!("{{\"kind\":\"regen\",\"exhibit\":\"{label}\",\"wall_s\":{wall}}}")
    }

    fn sweep(label: &str, eps: f64) -> String {
        format!(
            "{{\"kind\":\"sweep\",\"label\":\"{label}\",\"events\":1000000,\"wall_s\":0.5,\"events_per_sec\":{eps}}}"
        )
    }

    fn profile(label: &str, poll_npe: f64, wake_npe: f64) -> String {
        format!(
            "{{\"kind\":\"profile\",\"exhibit\":\"{label}\",\"poll_count\":100000,\"poll_wall_ns\":{},\"wake_count\":50000,\"wake_wall_ns\":{}}}",
            poll_npe * 100000.0,
            wake_npe * 50000.0
        )
    }

    #[test]
    fn keeps_last_n_plus_best_per_key() {
        // 6 regen records for one exhibit; best (0.1 s) is the second.
        let lines: Vec<String> = [5.0, 0.1, 4.0, 3.0, 2.0, 1.0]
            .iter()
            .map(|&w| regen("fig2_ljs", w))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let kept = rotation_keep_set(&refs, 2);
        // Last two (indices 4, 5) + the best (index 1).
        assert_eq!(kept, vec![1, 4, 5]);
    }

    #[test]
    fn sweep_best_is_max_events_per_sec() {
        let lines: Vec<String> = [1e6, 9e6, 2e6, 3e6]
            .iter()
            .map(|&e| sweep("fig2_ljs", e))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let kept = rotation_keep_set(&refs, 1);
        // Best-on-record 9M (index 1) + latest (index 3).
        assert_eq!(kept, vec![1, 3]);
    }

    #[test]
    fn profile_rotation_pins_per_bucket_minima() {
        // Three profiles: record 0 has the best poll cost, record 1 the
        // best wake cost, record 2 is merely latest.
        let lines = [
            profile("fig2_ljs", 100.0, 900.0),
            profile("fig2_ljs", 500.0, 200.0),
            profile("fig2_ljs", 400.0, 800.0),
        ];
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let kept = rotation_keep_set(&refs, 1);
        assert_eq!(kept, vec![0, 1, 2]);
    }

    #[test]
    fn keys_do_not_cross_and_unparsed_lines_survive() {
        let lines = [
            regen("a", 1.0),
            regen("b", 2.0),
            "{\"kind\":\"mystery\",\"x\":1}".to_string(),
            regen("a", 0.5),
            regen("b", 0.1),
            regen("a", 0.9),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let kept = rotation_keep_set(&refs, 1);
        // a: best 0.5 (idx 3) + latest (idx 5); b: best=latest 0.1
        // (idx 4) ... plus earlier b latest-1? keep=1 → only idx 4.
        // Mystery line (idx 2) always kept.
        assert_eq!(kept, vec![2, 3, 4, 5]);
    }

    #[test]
    fn committed_history_keeps_unknown_kind_lines() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_regen.json");
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let kept = rotation_keep_set(&lines, 1);
        let unknown: Vec<usize> = (0..lines.len())
            .filter(|&i| classify(lines[i]).is_none())
            .collect();
        assert!(unknown.len() >= 4, "the A/B summaries are unknown-kind");
        assert!(unknown.iter().all(|i| kept.contains(i)));
    }

    #[test]
    fn rotate_file_is_idempotent_and_preserves_gate_baselines() {
        let dir = std::env::temp_dir().join(format!("elanib_rotate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_sweep.json");
        let mut body = String::new();
        for i in 0..20 {
            body.push_str(&sweep("fig2_ljs", 1e6 + i as f64));
            body.push('\n');
        }
        body.push_str(&sweep("fig2_ljs", 5e7)); // best on record
        body.push('\n');
        for i in 0..20 {
            body.push_str(&sweep("fig2_ljs", 2e6 + i as f64));
            body.push('\n');
        }
        std::fs::write(&p, &body).unwrap();
        let s1 = rotate_file(&p, 8).unwrap();
        assert_eq!(
            s1,
            RotateStats {
                kept: 9,
                dropped: 32
            }
        );
        let after = std::fs::read_to_string(&p).unwrap();
        assert!(after.contains("50000000"), "best-on-record entry dropped");
        assert_eq!(after.lines().count(), 9);
        // Second rotation: nothing left to drop.
        let s2 = rotate_file(&p, 8).unwrap();
        assert_eq!(
            s2,
            RotateStats {
                kept: 9,
                dropped: 0
            }
        );
        assert_eq!(std::fs::read_to_string(&p).unwrap(), after);
        let _ = std::fs::remove_dir_all(dir);
    }
}
