//! Live progress heartbeat for long runs.
//!
//! Long sweeps (hours at the target scale in ROADMAP item 4) are
//! otherwise silent until they finish. When `ELANIB_PROGRESS=<path>`
//! is set, drivers emit small JSONL heartbeat records to that file —
//! one atomic append per beat (same single-`write` discipline as
//! [`crate::jsonl`]), rate-limited so a tight loop cannot flood the
//! file — and a watcher (`tail -f`, a dashboard) sees jobs complete in
//! real time.
//!
//! Heartbeats are **out-of-band**: they never touch simulated state,
//! so determinism of the exhibits is unaffected; the records carry
//! wall-clock timestamps and are not expected to be reproducible.
//!
//! | variable | effect |
//! |---|---|
//! | `ELANIB_PROGRESS` | heartbeat JSONL path; unset/empty → disabled |
//! | `ELANIB_PROGRESS_SECS` | min seconds between beats (default 1.0) |

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

fn env_path() -> Option<&'static PathBuf> {
    static P: OnceLock<Option<PathBuf>> = OnceLock::new();
    P.get_or_init(|| {
        std::env::var("ELANIB_PROGRESS")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
    .as_ref()
}

fn min_interval() -> Duration {
    static D: OnceLock<Duration> = OnceLock::new();
    *D.get_or_init(|| {
        let secs = std::env::var("ELANIB_PROGRESS_SECS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        Duration::from_secs_f64(secs.max(0.0))
    })
}

/// Runtime override used by tests (env vars are cached once per
/// process). `Some(path)` routes beats there; `None` restores
/// env-driven behaviour.
static OVERRIDE_SET: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

pub fn set_override(path: Option<PathBuf>) {
    OVERRIDE_SET.store(path.is_some(), Ordering::SeqCst);
    *OVERRIDE.lock().unwrap() = path;
}

/// Where heartbeats go: the runtime override when one is set, else the
/// `ELANIB_PROGRESS` path, else nowhere. Pure, so the policy is tested
/// without touching process-global state.
fn resolve_sink(over: Option<&Path>, env: Option<&Path>) -> Option<PathBuf> {
    over.or(env).map(Path::to_path_buf)
}

fn sink() -> Option<PathBuf> {
    let over = if OVERRIDE_SET.load(Ordering::SeqCst) {
        OVERRIDE.lock().unwrap().clone()
    } else {
        None
    };
    resolve_sink(over.as_deref(), env_path().map(PathBuf::as_path))
}

/// Whether heartbeats are enabled — callers that must assemble fields
/// eagerly can skip the work entirely when this is false. [`beat`]
/// already builds fields lazily, so most call sites need not check.
pub fn enabled() -> bool {
    sink().is_some()
}

fn last_beat() -> &'static Mutex<Option<Instant>> {
    static T: OnceLock<Mutex<Option<Instant>>> = OnceLock::new();
    T.get_or_init(|| Mutex::new(None))
}

fn write_beat(path: &Path, source: &str, fields: &str) {
    let line = format!(
        "{{\"kind\":\"progress\",\"source\":\"{source}\",{fields},\"unix_ts\":{}}}",
        crate::json::unix_ts()
    );
    let _ = crate::jsonl::append_line(path, &line);
}

/// Emit a heartbeat if enabled and the rate limit allows. `fields` is
/// built lazily and must be a comma-separated run of JSON key/value
/// pairs without braces, e.g. `"done":3,"total":40` — the record wraps
/// it as `{"kind":"progress","source":<source>,<fields>,"unix_ts":N}`.
pub fn beat(source: &str, fields: impl FnOnce() -> String) {
    let Some(path) = sink() else { return };
    {
        let mut last = last_beat().lock().unwrap();
        let now = Instant::now();
        if let Some(prev) = *last {
            if now.duration_since(prev) < min_interval() {
                return;
            }
        }
        *last = Some(now);
    }
    write_beat(&path, source, &fields());
}

/// Emit a heartbeat unconditionally (start/finish markers that must
/// not be rate-limited away).
pub fn beat_now(source: &str, fields: impl FnOnce() -> String) {
    let Some(path) = sink() else { return };
    *last_beat().lock().unwrap() = Some(Instant::now());
    write_beat(&path, source, &fields());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beats_append_jsonl_and_rate_limit() {
        let dir = std::env::temp_dir().join(format!("elanib_progress_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("beat.jsonl");
        set_override(Some(path.clone()));
        beat_now("test", || "\"done\":1,\"total\":2".to_string());
        // Immediately after a beat the rate limiter suppresses this one.
        beat("test", || panic!("rate-limited beat must not build fields"));
        beat_now("test", || "\"done\":2,\"total\":2".to_string());
        set_override(None);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "{body}");
        assert!(lines[0].starts_with("{\"kind\":\"progress\",\"source\":\"test\""));
        assert!(lines[0].contains("\"done\":1"));
        assert!(lines[1].contains("\"done\":2"));
        assert!(lines[0].contains("\"unix_ts\":"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_without_env_or_override() {
        // Asserted on the resolution policy, not on the process-global
        // override a sibling test sets concurrently.
        let (over, env) = (Path::new("over.jsonl"), Path::new("env.jsonl"));
        assert_eq!(resolve_sink(None, None), None);
        assert_eq!(resolve_sink(None, Some(env)), Some(env.to_path_buf()));
        assert_eq!(resolve_sink(Some(over), None), Some(over.to_path_buf()));
        assert_eq!(
            resolve_sink(Some(over), Some(env)),
            Some(over.to_path_buf())
        );
    }
}
