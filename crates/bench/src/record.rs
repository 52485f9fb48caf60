//! Typed reader for BENCH history lines (`ELANIB_BENCH_JSON`,
//! `BENCH_regen.json`, `BENCH_sweep.json`).
//!
//! The conformance bench gate, `elanib-report` and its rotation all
//! read lines through [`BenchRecord::parse`]: the whole line through
//! [`json::parse`], then the top-level members the gates key on. The
//! writer is [`json::Record`].

use elanib_simcore::profile::{TAGS, TAG_NAMES};
use elanib_simcore::trace::json::{self, Value};

/// One line of BENCH history: the envelope every kind shares, plus the
/// typed body of the kinds the gates read.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// The `kind` member, verbatim.
    pub kind: String,
    /// The `git_rev` member; empty when absent or unknown.
    pub git_rev: String,
    pub body: Body,
}

#[derive(Clone, Debug)]
pub enum Body {
    /// A `regen` or `sweep` record with a label and `wall_s`.
    Wall(WallRecord),
    /// A `profile` record with a label.
    Profile(ProfileRecord),
    /// Any other kind, or a known kind missing the members above. The
    /// gates skip these and rotation keeps them verbatim.
    Unknown,
}

/// A `{"kind":"regen"}` or `{"kind":"sweep"}` record.
#[derive(Clone, Debug)]
pub struct WallRecord {
    /// `exhibit`, else `label`.
    pub label: String,
    pub wall_s: f64,
    /// Kernel events behind `events_per_sec`; 0 when absent.
    pub events: f64,
    pub events_per_sec: Option<f64>,
    pub threads: Option<f64>,
    pub jobs: Option<f64>,
    /// Per-worker `(jobs, events, busy_s)` from the schema-3 breakdown.
    pub workers: Vec<(f64, f64, f64)>,
}

/// A `{"kind":"profile"}` record.
#[derive(Clone, Debug)]
pub struct ProfileRecord {
    /// `exhibit`, else `label`.
    pub label: String,
    pub sims: f64,
    pub events: f64,
    pub run_wall_ns: f64,
    pub attribution_pct: f64,
    /// `(count, wall_ns)` per kernel bucket, indexed like [`TAG_NAMES`].
    pub buckets: [(f64, f64); TAGS],
}

impl ProfileRecord {
    pub fn ns_per_event(&self, b: usize) -> Option<f64> {
        let (count, wall) = self.buckets[b];
        (count > 0.0).then(|| wall / count)
    }
}

impl BenchRecord {
    /// Read one line. `None` unless the line is a JSON object with a
    /// string `kind`.
    pub fn parse(line: &str) -> Option<BenchRecord> {
        let v = json::parse(line).ok()?;
        let kind = v.str("kind")?.to_string();
        let git_rev = v.str("git_rev").unwrap_or_default().to_string();
        let label = v.str("exhibit").or_else(|| v.str("label"));
        let num0 = |key: &str| v.num(key).unwrap_or(0.0);
        let body = match (kind.as_str(), label) {
            ("regen" | "sweep", Some(label)) if v.num("wall_s").is_some() => {
                Body::Wall(WallRecord {
                    label: label.to_string(),
                    wall_s: num0("wall_s"),
                    events: num0("events"),
                    events_per_sec: v.num("events_per_sec"),
                    threads: v.num("threads"),
                    jobs: v.num("jobs"),
                    workers: v
                        .get("workers")
                        .and_then(Value::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .map(|w| {
                            let n = |key: &str| w.num(key).unwrap_or(0.0);
                            (n("j"), n("e"), n("busy_s"))
                        })
                        .collect(),
                })
            }
            ("profile", Some(label)) => Body::Profile(ProfileRecord {
                label: label.to_string(),
                sims: num0("sims"),
                events: num0("events"),
                run_wall_ns: num0("run_wall_ns"),
                attribution_pct: num0("attribution_pct"),
                buckets: TAG_NAMES
                    .map(|b| (num0(&format!("{b}_count")), num0(&format!("{b}_wall_ns")))),
            }),
            _ => Body::Unknown,
        };
        Some(BenchRecord {
            kind,
            git_rev,
            body,
        })
    }

    /// `kind:label` — the key the gates and rotation group records by
    /// (`None` for [`Body::Unknown`]).
    pub fn key(&self) -> Option<String> {
        let label = match &self.body {
            Body::Wall(w) => &w.label,
            Body::Profile(p) => &p.label,
            Body::Unknown => return None,
        };
        Some(format!("{}:{label}", self.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_wall_profile_and_unknown_lines() {
        let sweep = BenchRecord::parse(
            r#"{"kind":"sweep","schema":3,"git_rev":"abc","label":"fig2_ljs","jobs":24,"threads":2,"events":100,"failed":0,"wall_s":0.5,"events_per_sec":200.0,"unix_ts":1,"workers":[{"w":0,"j":12,"e":60,"busy_s":0.4},{"w":1,"j":12,"e":40,"busy_s":0.3}]}"#,
        )
        .unwrap();
        assert_eq!(sweep.git_rev, "abc");
        assert_eq!(sweep.key().as_deref(), Some("sweep:fig2_ljs"));
        let Body::Wall(w) = &sweep.body else {
            panic!("{sweep:?}")
        };
        assert_eq!(
            (w.wall_s, w.events, w.events_per_sec),
            (0.5, 100.0, Some(200.0))
        );
        assert_eq!(w.workers, [(12.0, 60.0, 0.4), (12.0, 40.0, 0.3)]);

        let prof = BenchRecord::parse(
            r#"{"kind":"profile","exhibit":"fig6","sims":2,"poll_count":10,"poll_wall_ns":50,"wake_count":4,"wake_wall_ns":8}"#,
        )
        .unwrap();
        let Body::Profile(p) = &prof.body else {
            panic!("{prof:?}")
        };
        assert_eq!(p.label, "fig6");
        assert_eq!(p.ns_per_event(0), Some(5.0));
        assert_eq!(p.ns_per_event(1), None);
        assert_eq!(p.ns_per_event(3), Some(2.0));

        // Unknown kind, a regen with no wall, non-JSON: never keyed.
        let ab = BenchRecord::parse(r#"{"kind": "ab", "git_rev": "f00", "wall_s": 1}"#).unwrap();
        assert!(matches!(ab.body, Body::Unknown) && ab.key().is_none());
        assert_eq!(ab.git_rev, "f00");
        let walless = BenchRecord::parse(r#"{"kind":"regen","exhibit":"x"}"#).unwrap();
        assert!(walless.key().is_none());
        assert!(BenchRecord::parse("{\"kind\":\"regen\",").is_none());
        assert!(BenchRecord::parse("[1]").is_none());
    }

    #[test]
    fn labels_with_escapes_read_exactly() {
        let r = BenchRecord::parse(r#"{"kind":"regen","exhibit":"a\"bµ","wall_s":1}"#).unwrap();
        assert_eq!(r.key().as_deref(), Some("regen:a\"bµ"));
    }

    /// The committed history parses line for line: every regen/sweep
    /// line is a keyed wall record, and the four hand-written A/B
    /// summaries stay unknown-kind.
    #[test]
    fn committed_history_parses() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut kinds = std::collections::BTreeMap::new();
        for file in ["BENCH_regen.json", "BENCH_sweep.json"] {
            let text = std::fs::read_to_string(root.join(file)).unwrap();
            for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
                json::parse(line).unwrap_or_else(|e| panic!("{file}:{}: {e}", i + 1));
                let r = BenchRecord::parse(line).unwrap();
                match r.kind.as_str() {
                    "regen" | "sweep" => {
                        let Body::Wall(w) = &r.body else {
                            panic!("{file}:{}: {r:?}", i + 1)
                        };
                        assert!(!w.label.is_empty() && w.wall_s >= 0.0);
                    }
                    _ => assert!(matches!(r.body, Body::Unknown), "{file}:{}", i + 1),
                }
                *kinds.entry((file, r.kind)).or_insert(0) += 1;
            }
        }
        let n = |f: &'static str, k: &str| kinds.get(&(f, k.to_string())).copied().unwrap_or(0);
        assert!(n("BENCH_regen.json", "regen") > 0 && n("BENCH_sweep.json", "sweep") > 0);
        // Rotation keeps unknown-kind lines, so these never go away.
        assert!(n("BENCH_regen.json", "ab") >= 4, "{kinds:?}");
    }
}
