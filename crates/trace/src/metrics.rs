//! Per-run metrics summaries and their JSON/CSV sinks.
//!
//! A [`MetricsSummary`] is the end-of-run snapshot of one simulation's
//! counter registry. The flush aggregates every summary collected
//! since the last drain into two files next to the exhibit CSVs:
//!
//! * `<label>.metrics.json` — full per-run detail plus totals;
//! * `<label>.metrics.csv` — flat `label,seed,kind,name,value` rows,
//!   convenient for joining against the exhibit tables.
//!
//! Both are deterministic: `BTreeMap` keeps metric names sorted and
//! the caller ([`crate::drain`]) orders runs by (label, seed).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::json::quote;
use crate::Name;

/// Last-and-max gauge (queue depths, occupancy).
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauge {
    pub last: i64,
    pub max: i64,
}

impl Gauge {
    pub fn record(&mut self, v: i64) {
        self.last = v;
        if v > self.max {
            self.max = v;
        }
    }
}

/// Count/sum/min/max histogram (message sizes, stall durations).
#[derive(Clone, Copy, Debug, Default)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// End-of-run snapshot of one simulation's metrics registry.
#[derive(Clone, Debug)]
pub struct MetricsSummary {
    pub label: String,
    pub seed: u64,
    pub counters: BTreeMap<Name, u64>,
    pub gauges: BTreeMap<Name, Gauge>,
    pub hists: BTreeMap<Name, Hist>,
    pub dropped_events: u64,
}

impl MetricsSummary {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }
}

/// Aggregate counters across runs (sum per name).
fn totals<'a>(summaries: &[&'a MetricsSummary]) -> BTreeMap<&'a str, u64> {
    let mut t: BTreeMap<&str, u64> = BTreeMap::new();
    for s in summaries {
        for (k, v) in &s.counters {
            *t.entry(k.as_ref()).or_insert(0) += v;
        }
    }
    t
}

/// The members of a JSON object, `"name": value` joined by `,`.
fn members<K: AsRef<str>, V>(m: &BTreeMap<K, V>, value: impl Fn(&V) -> String) -> String {
    let m: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k.as_ref()), value(v)))
        .collect();
    m.join(",")
}

/// Write the per-run + aggregate metrics JSON document.
pub fn write_metrics_json(
    path: &Path,
    label: &str,
    summaries: &[&MetricsSummary],
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{{")?;
    writeln!(w, "  \"exhibit\": {},", quote(label))?;
    writeln!(w, "  \"runs\": [")?;
    let n = summaries.len();
    for (i, s) in summaries.iter().enumerate() {
        writeln!(w, "    {{")?;
        writeln!(w, "      \"label\": {},", quote(&s.label))?;
        writeln!(w, "      \"seed\": {},", s.seed)?;
        writeln!(w, "      \"dropped_events\": {},", s.dropped_events)?;
        let counters = members(&s.counters, u64::to_string);
        writeln!(w, "      \"counters\": {{{counters}}},")?;
        let gauges = members(&s.gauges, |g| {
            format!("{{\"last\": {}, \"max\": {}}}", g.last, g.max)
        });
        writeln!(w, "      \"gauges\": {{{gauges}}},")?;
        let hists = members(&s.hists, |h| {
            format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                h.count, h.sum, h.min, h.max
            )
        });
        writeln!(w, "      \"histograms\": {{{hists}}}")?;
        writeln!(w, "    }}{}", if i + 1 < n { "," } else { "" })?;
    }
    writeln!(w, "  ],")?;
    let totals = members(&totals(summaries), u64::to_string);
    writeln!(w, "  \"totals\": {{{totals}}}")?;
    writeln!(w, "}}")?;
    w.flush()
}

/// Write the flat per-run metrics CSV: one row per metric.
pub fn write_metrics_csv(path: &Path, summaries: &[&MetricsSummary]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "label,seed,kind,name,value")?;
    let csv_label = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    for s in summaries {
        let l = csv_label(&s.label);
        for (k, v) in &s.counters {
            writeln!(w, "{l},{},counter,{k},{v}", s.seed)?;
        }
        for (k, g) in &s.gauges {
            writeln!(w, "{l},{},gauge_last,{k},{}", s.seed, g.last)?;
            writeln!(w, "{l},{},gauge_max,{k},{}", s.seed, g.max)?;
        }
        for (k, h) in &s.hists {
            writeln!(w, "{l},{},hist_count,{k},{}", s.seed, h.count)?;
            writeln!(w, "{l},{},hist_sum,{k},{}", s.seed, h.sum)?;
        }
        if s.dropped_events > 0 {
            writeln!(
                w,
                "{l},{},counter,trace.dropped_events,{}",
                s.seed, s.dropped_events
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_last_and_max() {
        let mut g = Gauge::default();
        g.record(3);
        g.record(7);
        g.record(2);
        assert_eq!((g.last, g.max), (2, 7));
    }

    #[test]
    fn hist_tracks_bounds_and_mean() {
        let mut h = Hist::default();
        h.record(10);
        h.record(2);
        h.record(6);
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 18, 2, 10));
        assert!((h.mean() - 6.0).abs() < 1e-12);
    }
}
