//! Network-generic job launcher: run the same rank program on either
//! network and get the final simulated time back.

use elanib_fabric::FaultStats;
use elanib_nic::{BackendKind, ElanParams, HcaParams, RoceMode, RoceParams};
use elanib_nodesim::NodeParams;
use elanib_simcore::{Dur, Sim, SimError, SimTime};

use crate::tports::{ElanWorld, TportsMpiParams};
use crate::verbs::{IbWorld, VerbsParams};
use crate::Communicator;

/// Which interconnect a job runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Network {
    InfiniBand,
    Elan4,
    /// EXTENSION: RoCEv2 over lossless-configured 10GbE, one variant
    /// per congestion-control mode. Same MVAPICH software stack as
    /// [`Network::InfiniBand`]; the fabric and the CC engine differ.
    RoceV2(RoceMode),
}

impl Network {
    pub fn label(self) -> &'static str {
        match self {
            Network::InfiniBand => "4X InfiniBand",
            Network::Elan4 => "Quadrics Elan-4",
            Network::RoceV2(RoceMode::Pfc) => "RoCEv2/pfc",
            Network::RoceV2(RoceMode::Dcqcn) => "RoCEv2/dcqcn",
            Network::RoceV2(RoceMode::Hybrid) => "RoCEv2/hybrid",
        }
    }

    /// The paper's two study networks — every committed exhibit
    /// iterates exactly these.
    pub const BOTH: [Network; 2] = [Network::InfiniBand, Network::Elan4];

    /// Every modelled interconnect, including the RoCEv2 extension
    /// modes (the CI backend matrix and the fuzzer draw from here).
    pub const ALL: [Network; 5] = [
        Network::InfiniBand,
        Network::Elan4,
        Network::RoceV2(RoceMode::Pfc),
        Network::RoceV2(RoceMode::Dcqcn),
        Network::RoceV2(RoceMode::Hybrid),
    ];

    /// The registry identity of this network (the `ELANIB_BACKEND`
    /// names).
    pub fn backend(self) -> BackendKind {
        match self {
            Network::InfiniBand => BackendKind::Hca,
            Network::Elan4 => BackendKind::Elan,
            Network::RoceV2(m) => BackendKind::Roce(m),
        }
    }

    fn from_backend(b: BackendKind) -> Network {
        match b {
            BackendKind::Hca => Network::InfiniBand,
            BackendKind::Elan => Network::Elan4,
            BackendKind::Roce(m) => Network::RoceV2(m),
        }
    }
}

impl std::fmt::Display for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A rank program that can run over any [`Communicator`]. Cloned once
/// per rank.
pub trait RankProgram: Clone + 'static {
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static;
}

/// Job description shared by every experiment in the reproduction.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    pub network: Network,
    pub nodes: usize,
    pub ppn: usize,
    pub seed: u64,
}

impl JobSpec {
    pub fn n_ranks(&self) -> usize {
        self.nodes * self.ppn
    }
}

/// Every tunable of both stacks in one bundle — the handle the
/// ablation studies turn.
#[derive(Clone, Debug, Default)]
pub struct NetConfig {
    pub node: NodeParams,
    pub hca: HcaParams,
    pub verbs: VerbsParams,
    pub elan: ElanParams,
    pub tports: TportsMpiParams,
    /// Deterministic fault-injection plan threaded down to the fabric.
    /// `None` falls back to the `ELANIB_FAULTS` environment plan (or
    /// no faults at all) — the hot path stays untouched either way.
    pub faults: Option<std::sync::Arc<elanib_fabric::FaultPlan>>,
    /// RoCEv2 congestion-control override. `None` (the default) means
    /// a [`Network::RoceV2`] job runs on [`RoceParams::for_mode`] of
    /// its mode; ignored entirely by the two paper networks.
    pub roce: Option<RoceParams>,
}

/// Run `program` on every rank of a fresh cluster; returns the final
/// simulated time (all ranks and all in-flight hardware activity
/// complete). Panics on deadlock — a deadlock in an experiment is a
/// bug, not a result.
pub fn run_job<P: RankProgram>(spec: JobSpec, program: P) -> SimTime {
    run_job_configured(spec, &NetConfig::default(), program)
}

/// `ELANIB_SIM_BUDGET_SECS`: in-kernel simulated-time watchdog for
/// [`run_job`]-family launches. A runaway simulation (livelock, a
/// fault plan that never lets a retransmit through) used to be killed
/// from outside by the script-level `ELANIB_REGEN_TIMEOUT`; the
/// in-kernel budget instead surfaces a typed
/// [`SimError::ScenarioTimeout`] with the flight-ring tail attached.
/// Default 10 000 simulated seconds — orders of magnitude past any
/// committed exhibit, so the fixed results never feel it; `0`/`off`
/// disables. The script watchdog stays as the outer backstop.
fn job_budget() -> Option<SimTime> {
    match std::env::var("ELANIB_SIM_BUDGET_SECS").as_deref() {
        Ok("0") | Ok("off") => None,
        Ok(v) => v
            .parse::<u64>()
            .ok()
            .map(|s| SimTime::ZERO + Dur::from_secs(s)),
        Err(_) => Some(SimTime::ZERO + Dur::from_secs(10_000)),
    }
}

/// [`run_job`] with explicit stack parameters (ablations, sweeps).
pub fn run_job_configured<P: RankProgram>(spec: JobSpec, cfg: &NetConfig, program: P) -> SimTime {
    match run_scenario(spec, cfg, job_budget(), program) {
        Ok(run) => run.end,
        Err(e @ SimError::Deadlock { .. }) => panic!("{} job deadlocked: {e}", spec.network),
        Err(e) => panic!("{} job failed: {e}", spec.network),
    }
}

/// One completed scenario run: the final clock plus every end-of-run
/// counter the fuzzer's cross-cutting invariants read.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Final simulated time (all ranks and hardware activity done).
    pub end: SimTime,
    /// Whole-world traffic and software-event totals.
    pub stats: crate::WorldStats,
    /// Fault-injection and recovery totals from the fabric.
    pub faults: FaultStats,
    /// Per-link byte totals, in link order — the determinism invariant
    /// compares these byte-for-byte across observer-on/off and
    /// cold/warm-cache replays.
    pub link_bytes: Vec<u64>,
}

/// Programmatic scenario entry point for the property fuzzer:
/// identical cluster construction to [`run_job_configured`], but a
/// deadlock — or a blown simulated-time `budget` — comes back as a
/// typed `Err(SimError)` instead of a panic, so a fuzz batch can treat
/// failures as data, shrink them, and replay them.
pub fn run_scenario<P: RankProgram>(
    spec: JobSpec,
    cfg: &NetConfig,
    budget: Option<SimTime>,
    program: P,
) -> Result<ScenarioRun, SimError> {
    run_scenario_on(&Sim::new(spec.seed), spec, cfg, budget, program)
}

/// [`run_scenario`] on a caller-built kernel — the hook for harnesses
/// that pin a tracer or profiler regardless of environment
/// ([`Sim::with_tracer`] / [`Sim::with_profiler`]): the fuzzer's
/// observer-effect invariant re-runs a scenario with telemetry
/// attached and demands byte-identical metrics. The caller is
/// responsible for seeding `sim` with `spec.seed` if it wants the
/// plain [`run_scenario`] behavior.
/// `ELANIB_BACKEND`: force every scenario onto one backend by registry
/// name (`hca`/`ib`, `elan`, `roce`, `roce-pfc`, `roce-dcqcn`,
/// `roce-hybrid`) regardless of what the harness asked for. This is
/// the CI backend-matrix hook: the same exhibit binary re-runs under
/// each backend without recompilation. **Pair it with
/// `ELANIB_CACHE=off`** — the scenario cache keys on the *requested*
/// network, so cached entries written under an override would poison
/// later unoverridden runs.
fn backend_override(spec: JobSpec) -> JobSpec {
    apply_backend(spec, std::env::var("ELANIB_BACKEND").ok().as_deref())
}

fn apply_backend(spec: JobSpec, name: Option<&str>) -> JobSpec {
    match name {
        None => spec,
        Some(name) => match BackendKind::parse(name) {
            Some(b) => JobSpec {
                network: Network::from_backend(b),
                ..spec
            },
            None => panic!(
                "ELANIB_BACKEND={name:?} is not a backend; known: {}",
                BackendKind::ALL.map(|b| b.name()).join(", ")
            ),
        },
    }
}

pub fn run_scenario_on<P: RankProgram>(
    sim: &Sim,
    spec: JobSpec,
    cfg: &NetConfig,
    budget: Option<SimTime>,
    program: P,
) -> Result<ScenarioRun, SimError> {
    let spec = backend_override(spec);
    if let Some(tr) = sim.tracer() {
        tr.set_label(format!(
            "{} {}n x {}ppn",
            spec.network, spec.nodes, spec.ppn
        ));
    }
    let drive = |sim: &Sim| match budget {
        Some(b) => sim.run_until_budget(b),
        None => sim.run(),
    };
    match spec.network {
        Network::InfiniBand | Network::RoceV2(_) => {
            let w = match spec.network {
                Network::RoceV2(mode) => {
                    let rp = cfg.roce.unwrap_or_else(|| RoceParams::for_mode(mode));
                    IbWorld::with_config_roce(sim, spec.nodes, spec.ppn, cfg, rp)
                }
                _ => IbWorld::with_config(sim, spec.nodes, spec.ppn, cfg),
            };
            w.spawn_ranks("job", move |c| program.clone().run(c));
            let end = drive(sim)?;
            if let Some(tr) = sim.tracer() {
                record_world_metrics(tr, &w.stats());
                w.net.fabric.record_metrics(tr);
            }
            Ok(ScenarioRun {
                end,
                stats: w.stats(),
                faults: w.net.fabric.fault_stats(),
                link_bytes: w.net.fabric.per_link_bytes(),
            })
        }
        Network::Elan4 => {
            let w = ElanWorld::with_config(sim, spec.nodes, spec.ppn, cfg);
            w.spawn_ranks("job", move |c| program.clone().run(c));
            let end = drive(sim)?;
            if let Some(tr) = sim.tracer() {
                record_world_metrics(tr, &w.stats());
                w.net.fabric.record_metrics(tr);
            }
            Ok(ScenarioRun {
                end,
                stats: w.stats(),
                faults: w.net.fabric.fault_stats(),
                link_bytes: w.net.fabric.per_link_bytes(),
            })
        }
    }
}

/// Fold end-of-run [`crate::WorldStats`] into the metrics registry.
/// Live per-event counters cover the software path; these cover
/// whole-world hardware totals that are cheapest to read once at the
/// end (fabric byte counts, NIC work-request totals, regcache state).
fn record_world_metrics(tr: &elanib_simcore::trace::Tracer, st: &crate::WorldStats) {
    tr.add("world.wire_bytes", st.wire_bytes);
    tr.add("world.nic_messages", st.nic_messages);
    tr.add("world.unexpected", st.unexpected);
    tr.add("world.reg_hits", st.reg_hits);
    tr.add("world.reg_misses", st.reg_misses);
    tr.add("world.reg_evictions", st.reg_evictions);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce, Op};
    use std::cell::Cell;
    use std::rc::Rc;

    #[derive(Clone)]
    struct SumProgram {
        out: Rc<Cell<f64>>,
    }

    impl RankProgram for SumProgram {
        #[allow(clippy::manual_async_fn)]
        fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
            async move {
                let v = allreduce(&c, Op::Sum, &[1.0]).await;
                if c.rank() == 0 {
                    self.out.set(v[0]);
                }
            }
        }
    }

    #[test]
    fn run_scenario_returns_counters_on_success() {
        for net in Network::BOTH {
            let out = Rc::new(Cell::new(0.0));
            let run = run_scenario(
                JobSpec {
                    network: net,
                    nodes: 4,
                    ppn: 1,
                    seed: 2,
                },
                &NetConfig::default(),
                Some(SimTime::ZERO + Dur::from_secs(1)),
                SumProgram { out: out.clone() },
            )
            .expect("scenario completes well under budget");
            assert_eq!(out.get(), 4.0);
            assert!(run.end > SimTime::ZERO);
            assert!(run.stats.wire_bytes > 0, "allreduce moved bytes");
            assert_eq!(run.faults, FaultStats::default(), "no plan, no faults");
            assert_eq!(
                run.link_bytes.iter().sum::<u64>(),
                run.stats.wire_bytes,
                "per-link bytes account for the wire total"
            );
        }
    }

    #[test]
    fn run_scenario_reports_blown_budget_as_typed_error() {
        let out = Rc::new(Cell::new(0.0));
        let err = run_scenario(
            JobSpec {
                network: Network::InfiniBand,
                nodes: 4,
                ppn: 1,
                seed: 2,
            },
            &NetConfig::default(),
            // One picosecond of simulated time: nothing real finishes.
            Some(SimTime::ZERO + Dur::from_ps(1)),
            SumProgram { out },
        )
        .expect_err("budget must blow");
        assert!(
            matches!(err, SimError::ScenarioTimeout { .. }),
            "expected timeout, got {err:?}"
        );
    }

    #[test]
    fn run_job_on_every_roce_mode() {
        for mode in RoceMode::ALL {
            let out = Rc::new(Cell::new(0.0));
            let t = run_job(
                JobSpec {
                    network: Network::RoceV2(mode),
                    nodes: 4,
                    ppn: 2,
                    seed: 1,
                },
                SumProgram { out: out.clone() },
            );
            assert_eq!(out.get(), 8.0, "{mode} allreduce result");
            assert!(t > SimTime::ZERO);
        }
    }

    #[test]
    fn backend_override_maps_registry_names_onto_networks() {
        let spec = JobSpec {
            network: Network::InfiniBand,
            nodes: 2,
            ppn: 1,
            seed: 0,
        };
        assert_eq!(apply_backend(spec, None).network, Network::InfiniBand);
        assert_eq!(apply_backend(spec, Some("elan")).network, Network::Elan4);
        assert_eq!(
            apply_backend(spec, Some("roce-pfc")).network,
            Network::RoceV2(RoceMode::Pfc)
        );
        // Round trip: every modelled network survives its own name.
        for net in Network::ALL {
            assert_eq!(apply_backend(spec, Some(net.backend().name())).network, net);
        }
    }

    #[test]
    fn run_job_on_both_networks() {
        for net in Network::BOTH {
            let out = Rc::new(Cell::new(0.0));
            let t = run_job(
                JobSpec {
                    network: net,
                    nodes: 4,
                    ppn: 2,
                    seed: 1,
                },
                SumProgram { out: out.clone() },
            );
            assert_eq!(out.get(), 8.0);
            assert!(t > SimTime::ZERO);
        }
    }
}
