//! Regression test for the determinism contract of the parallel sweep
//! engine: regenerating the exhibit studies serially and through the
//! thread pool must produce byte-identical CSV tables.
//!
//! The study grids, seeds and fold logic are exactly those of the
//! `fig2`, `fig6` and `faults` regenerators; only the measured step and
//! iteration counts are reduced so the test stays fast in debug
//! builds. MD node counts still span 1..32 so the 2- and 3-D
//! decompositions, both networks and both PPNs are all exercised, and
//! the fault tables cover the loss and outage recovery paths.

use elanib_apps::md::{ljs, MdProblem};
use elanib_apps::nascg::{class_a_reduced, CgProblem};
use elanib_bench::{cg_figure_table, faults_latency_table, faults_outage_table, md_figure_table};
use elanib_core::SweepStats;

/// Every table regenerated at the current `ELANIB_SWEEP_THREADS`, as
/// `(name, csv, stats)`.
fn regenerate() -> Vec<(&'static str, String, SweepStats)> {
    let md = MdProblem { steps: 6, ..ljs() };
    let cg = CgProblem {
        outer: 2,
        inner: 4,
        ..class_a_reduced(1024)
    };
    let (fig2, s2) = md_figure_table(md, &[1usize, 2, 4, 8, 16, 32]);
    let (fig6, s6) = cg_figure_table(cg, &[1usize, 2, 4, 8], 1);
    let (flat, sl) = faults_latency_table();
    let (fout, so) = faults_outage_table();
    vec![
        ("fig2", fig2.to_csv(), s2),
        ("fig6", fig6.to_csv(), s6),
        ("fault latency", flat.to_csv(), sl),
        ("fault outage", fout.to_csv(), so),
    ]
}

#[test]
fn exhibit_tables_serial_vs_sweep_engine_identical_csv() {
    // One test function, sequential phases: the env var is process
    // local and nothing else in this binary reads it concurrently.
    std::env::set_var("ELANIB_SWEEP_THREADS", "1");
    let serial = regenerate();
    std::env::set_var("ELANIB_SWEEP_THREADS", "4");
    let parallel = regenerate();
    std::env::remove_var("ELANIB_SWEEP_THREADS");

    for ((name, s_csv, s), (_, p_csv, p)) in serial.iter().zip(&parallel) {
        assert_eq!(s.threads, 1, "{name}: serial run used a pool");
        assert_eq!(p.threads, 4.min(p.jobs), "{name}: pool width");
        assert_eq!(
            s_csv, p_csv,
            "{name}: sweep engine must reproduce the serial table byte for byte"
        );
        // Same simulations ran in both modes: identical totals.
        assert_eq!(s.jobs, p.jobs, "{name}: job count");
        assert_eq!(s.events, p.events, "{name}: event count");
    }
}
