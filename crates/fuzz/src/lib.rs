//! # elanib-fuzz — seeded scenario generator and property fuzzer
//!
//! The conformance DSL (`elanib-validate`) pins the paper's claims at
//! 17 hand-picked exhibits; this crate flips that into a *generator*:
//! seeded random scenarios across the whole configuration space —
//! cluster shape, message-size mix, protocol thresholds, fault
//! schedules, and every knob that must not change results (tracing,
//! profiling, the point cache) — each run through **both** simulated
//! stacks with cross-cutting invariants checked as first-class
//! validate terms.
//!
//! The moving parts:
//!
//! * [`scenario`] — [`Scenario`]: one configuration point, generated
//!   as a pure function of a seed, shrinkable, and round-trippable
//!   through the `fuzz_failures/<seed>.toml` repro format.
//! * [`harness`] — [`check_scenario`]: runs a scenario on both
//!   networks and evaluates byte conservation, no-deadlock (typed
//!   [`elanib_simcore::SimError::ScenarioTimeout`] budgets),
//!   determinism/observer-effect replays, cache agreement, monotone
//!   degradation, and the paper's small-message
//!   ordering — every one expressed in the validate DSL and evaluated
//!   with [`elanib_validate::run_on_table`].
//! * [`shrink`] — [`fuzz_batch`] (panic-isolated sweep over generated
//!   seeds), [`shrink()`](shrink::shrink) (greedy minimization of a
//!   failing scenario), and [`write_repro`].
//!
//! The `fuzz` binary in `elanib-bench` is the CLI: batch mode for CI,
//! `--replay` for a saved repro, `--mutate` for checking that the
//! checker still catches planted bugs.

pub mod harness;
pub mod scenario;
pub mod shrink;

pub use harness::{check_scenario, default_budget, FuzzOpts, Mutation, ScenarioReport};
pub use scenario::{fault_horizon, Scenario};
pub use shrink::{batch_seed, fuzz_batch, write_repro, BatchOutcome};
