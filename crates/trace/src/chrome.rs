//! Chrome `trace_event` JSON exporter.
//!
//! Writes the "JSON Array Format" understood by Perfetto and
//! `chrome://tracing`: one object per event, timestamps in
//! microseconds. Each simulation in a flush becomes one `pid` with a
//! `process_name` metadata record carrying its label and seed, so a
//! sweep's 24 jobs land side by side in a single trace file.
//!
//! The writer is fully deterministic: events arrive pre-sorted by
//! simulated timestamp (the `Tracer` sorts on drop) and simulations
//! are ordered by (label, seed) by [`crate::drain`].

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::json::quote;
use crate::{FinishedTrace, Phase};

/// Simulated picoseconds per Chrome microsecond.
const PS_PER_US: u64 = 1_000_000;

/// Render `ps` picoseconds as a decimal microsecond literal with no
/// float formatting involved (keeps output byte-stable across
/// platforms and densely precise: 1 ps = 1e-6 us).
fn us(ps: u64) -> String {
    let whole = ps / PS_PER_US;
    let frac = ps % PS_PER_US;
    if frac == 0 {
        format!("{whole}")
    } else {
        let s = format!("{whole}.{frac:06}");
        s.trim_end_matches('0').to_string()
    }
}

/// Write all simulations' events as one Chrome trace file.
pub fn write_chrome_trace(path: &Path, traces: &[FinishedTrace]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(b"[")?;
    let mut first = true;
    for (pid, t) in traces.iter().enumerate() {
        if t.events.is_empty() {
            continue;
        }
        let sep = |first: &mut bool| if std::mem::take(first) { "\n" } else { ",\n" };
        let meta_name = format!("{} (seed {})", t.summary.label, t.summary.seed);
        write!(
            w,
            "{}{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
            sep(&mut first),
            quote(&meta_name)
        )?;
        for e in &t.events {
            // The three phases differ only in the `ph` tag, the span's
            // `dur` and the name of the argument.
            let (ph, dur, arg) = match e.ph {
                Phase::Span => ("X", format!(",\"dur\":{}", us(e.dur_ps)), "v"),
                Phase::Instant => ("i\",\"s\":\"t", String::new(), "v"),
                Phase::Counter => ("C", String::new(), "value"),
            };
            write!(
                w,
                "{}{{\"name\":{},\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{}{dur},\"pid\":{pid},\"tid\":{},\"args\":{{\"{arg}\":{}}}}}",
                sep(&mut first),
                quote(&e.name),
                e.cat,
                us(e.ts_ps),
                e.tid,
                e.arg
            )?;
        }
    }
    w.write_all(b"\n]\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_renders_exact_decimal() {
        assert_eq!(us(0), "0");
        assert_eq!(us(1_000_000), "1");
        assert_eq!(us(1_500_000), "1.5");
        assert_eq!(us(1), "0.000001");
        assert_eq!(us(123_456_789), "123.456789");
    }

    #[test]
    fn esc_handles_quotes_and_controls() {
        // Awkward task names survive the export: the file parses and
        // every name reads back exactly.
        let name = "a\"b\\c\nd\u{1} µs";
        let tr = FinishedTrace {
            summary: crate::MetricsSummary {
                label: "lbl\"x".into(),
                seed: 0,
                counters: Default::default(),
                gauges: Default::default(),
                hists: Default::default(),
                dropped_events: 0,
            },
            events: vec![crate::Event {
                ts_ps: 1,
                dur_ps: 0,
                ph: Phase::Instant,
                cat: "test",
                name: name.to_string().into(),
                tid: 0,
                arg: 0,
            }],
        };
        let dir = std::env::temp_dir().join(format!("elanib-chrome-esc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.json");
        write_chrome_trace(&p, &[tr]).unwrap();
        let v = crate::json::parse(&std::fs::read_to_string(&p).unwrap()).unwrap();
        let evs = v.as_arr().unwrap();
        let meta = evs[0].get("args").and_then(|a| a.str("name"));
        assert_eq!(meta, Some("lbl\"x (seed 0)"));
        assert_eq!(evs[1].str("name"), Some(name));
        let _ = std::fs::remove_dir_all(dir);
    }
}
