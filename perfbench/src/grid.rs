//! The four workloads: their grid points, the committed CSV cell each
//! point reproduces, and the set-up a run pays before its first point.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use elanib_apps::md::{ljs, md_step_time, membrane, MdProblem};
use elanib_apps::nascg::{cg_run, class_a, SparseSpd};
use elanib_core::f;
use elanib_fabric::{elan_fabric, ib_fabric, roce_fabric, Fabric, FaultPlan};
use elanib_microbench::{
    beff, fault_pingpong, figure1_sizes, incast, outage_stream, pingpong, pingpong_reuse,
    small_allreduce_us, streaming, FaultPoint,
};
use elanib_mpi::{Network, RoceMode};

pub const WORKLOADS: [&str; 4] = ["cg_classA", "md_scaled", "p2p_micro", "congestion"];

// The grid constants below copy the exhibit binaries' private ones. The
// cell check against the committed CSVs fails any point they drift on.

/// Node counts of the application studies (fig2, fig3, fig6).
const STUDY_NODES: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Node counts of b_eff and the RoCE incast grids.
const SCALE_NODES: [usize; 5] = [2, 4, 8, 16, 32];
const ROCE_NETS: [Network; 4] = [
    Network::InfiniBand,
    Network::RoceV2(RoceMode::Pfc),
    Network::RoceV2(RoceMode::Dcqcn),
    Network::RoceV2(RoceMode::Hybrid),
];
/// Loss rates and sizes of `faults_latency.csv`.
const FAULT_RATES: [f64; 4] = [0.0, 1e-3, 1e-2, 3e-2];
const FAULT_SIZES: [u64; 3] = [64, 4096, 65_536];
/// Outage lengths of `faults_outage.csv` (0 = clean baseline).
const OUTAGE_US: [u64; 3] = [0, 1_000, 3_000];

/// One grid point: a single call into a grid-point entry function.
#[derive(Clone, Copy, Debug)]
pub enum Point {
    Cg {
        net: Network,
        procs: usize,
    },
    Md {
        fig3: bool,
        net: Network,
        ppn: usize,
        nodes: usize,
    },
    PingPong {
        net: Network,
        bytes: u64,
    },
    Stream {
        net: Network,
        bytes: u64,
    },
    Beff {
        net: Network,
        nodes: usize,
    },
    Reuse {
        net: Network,
        bytes: u64,
        pct: u32,
    },
    Incast {
        net: Network,
        nodes: usize,
    },
    Allreduce {
        net: Network,
        nodes: usize,
    },
    FaultLatency {
        net: Network,
        rate: usize,
        bytes: u64,
    },
    Outage {
        net: Network,
        outage: usize,
    },
}

/// One produced CSV cell: `(file, row key, column)` and its text.
pub struct Cell {
    pub file: &'static str,
    pub key: String,
    pub col: &'static str,
    pub got: String,
}

/// Inputs prepared by [`setup`] that grid points read.
pub struct Inputs {
    /// Fault plans of `faults_latency.csv`, indexed like [`FAULT_RATES`].
    rate_plans: Vec<Arc<FaultPlan>>,
    /// Outage plans: IB's then Elan's, each indexed like [`OUTAGE_US`].
    outage_plans: Vec<Arc<FaultPlan>>,
}

fn col(net: Network, ib: &'static str, elan: &'static str) -> &'static str {
    match net {
        Network::InfiniBand => ib,
        _ => elan,
    }
}

fn roce_col(
    net: Network,
    ib: &'static str,
    pfc: &'static str,
    dcqcn: &'static str,
    hybrid: &'static str,
) -> &'static str {
    match net {
        Network::InfiniBand => ib,
        Network::RoceV2(RoceMode::Pfc) => pfc,
        Network::RoceV2(RoceMode::Dcqcn) => dcqcn,
        Network::RoceV2(RoceMode::Hybrid) => hybrid,
        Network::Elan4 => unreachable!("RoCE grids run IB and the three RoCE modes"),
    }
}

fn fault_cell(p: &FaultPoint) -> String {
    if p.failed {
        "QP-ERR".to_string()
    } else {
        f(p.latency_us)
    }
}

/// Same iteration counts as the fig1 exhibit.
fn iters_for(bytes: u64) -> u32 {
    match bytes {
        0..=65_536 => 60,
        65_537..=1_048_576 => 20,
        _ => 8,
    }
}

fn window_for(bytes: u64) -> u32 {
    match bytes {
        0..=4_096 => 200,
        4_097..=262_144 => 50,
        _ => 10,
    }
}

fn md_problem(fig3: bool) -> MdProblem {
    if fig3 {
        membrane()
    } else {
        ljs()
    }
}

impl Point {
    /// Run the point and render every committed cell it reproduces.
    pub fn eval(&self, inputs: &Inputs) -> Vec<Cell> {
        let cell = |file, key: String, col, got| Cell {
            file,
            key,
            col,
            got,
        };
        match *self {
            Point::Cg { net, procs } => {
                let r = cg_run(net, class_a(), procs, 1);
                let c = col(net, "IB MOps/s/proc", "Elan MOps/s/proc");
                vec![cell(
                    "fig6_nascg",
                    procs.to_string(),
                    c,
                    f(r.mops_per_process),
                )]
            }
            Point::Md {
                fig3,
                net,
                ppn,
                nodes,
            } => {
                let t = md_step_time(net, md_problem(fig3), nodes, ppn);
                let c = match (net, ppn) {
                    (Network::InfiniBand, 1) => "IB 1PPN s/step",
                    (Network::InfiniBand, _) => "IB 2PPN s/step",
                    (_, 1) => "Elan 1PPN s/step",
                    _ => "Elan 2PPN s/step",
                };
                let file = if fig3 { "fig3_membrane" } else { "fig2_ljs" };
                vec![cell(file, nodes.to_string(), c, f(t))]
            }
            Point::PingPong { net, bytes } => {
                let p = pingpong(net, bytes, iters_for(bytes));
                let mut cells = vec![cell(
                    "fig1a_latency",
                    bytes.to_string(),
                    col(net, "IB us", "Elan us"),
                    f(p.latency_us),
                )];
                if bytes != 0 {
                    cells.push(cell(
                        "fig1b_bandwidth",
                        bytes.to_string(),
                        col(net, "IB pp MB/s", "Elan pp MB/s"),
                        f(p.bandwidth_mb_s),
                    ));
                }
                cells
            }
            Point::Stream { net, bytes } => {
                let p = streaming(net, bytes, window_for(bytes));
                let c = col(net, "IB st MB/s", "Elan st MB/s");
                vec![cell(
                    "fig1b_bandwidth",
                    bytes.to_string(),
                    c,
                    f(p.bandwidth_mb_s),
                )]
            }
            Point::Beff { net, nodes } => {
                let p = beff(net, nodes, 1, 2);
                let c = col(net, "IB b_eff/proc MB/s", "Elan b_eff/proc MB/s");
                vec![cell(
                    "fig1d_beff",
                    nodes.to_string(),
                    c,
                    f(p.per_process_mb_s),
                )]
            }
            Point::Reuse { net, bytes, pct } => {
                let p = pingpong_reuse(net, bytes, pct, 20);
                let c = col(net, "IB us", "Elan us");
                vec![cell(
                    "ablations_buffer_reuse",
                    format!("{bytes}|{pct}"),
                    c,
                    f(p.latency_us),
                )]
            }
            Point::Incast { net, nodes } => {
                let p = incast(net, nodes, 65_536, 16);
                let c = roce_col(net, "IB MB/s", "PFC MB/s", "DCQCN MB/s", "Hybrid MB/s");
                vec![cell("roce_bw", nodes.to_string(), c, f(p.bandwidth_mb_s))]
            }
            Point::Allreduce { net, nodes } => {
                let us = small_allreduce_us(net, nodes, 8);
                let c = roce_col(net, "IB us", "PFC us", "DCQCN us", "Hybrid us");
                vec![cell("roce_lat", nodes.to_string(), c, f(us))]
            }
            Point::FaultLatency { net, rate, bytes } => {
                let p = fault_pingpong(net, bytes, 30, &inputs.rate_plans[rate]);
                let key = format!("{bytes}|{}", f(FAULT_RATES[rate]));
                vec![
                    cell(
                        "faults_latency",
                        key.clone(),
                        col(net, "IB us", "Elan us"),
                        fault_cell(&p),
                    ),
                    cell(
                        "faults_latency",
                        key,
                        col(net, "IB retransmits", "Elan link retries"),
                        p.retries.to_string(),
                    ),
                ]
            }
            Point::Outage { net, outage } => {
                let plan = match net {
                    Network::InfiniBand => &inputs.outage_plans[outage],
                    _ => &inputs.outage_plans[OUTAGE_US.len() + outage],
                };
                let p = outage_stream(net, 100, 65_536, plan);
                let key = format!("{}|{}", net.label(), f(OUTAGE_US[outage] as f64 / 1e3));
                let file = "faults_outage";
                vec![
                    cell(file, key.clone(), "stream time us", fault_cell(&p)),
                    cell(file, key.clone(), "reroutes", p.reroutes.to_string()),
                    cell(
                        file,
                        key.clone(),
                        "outage waits",
                        p.outage_waits.to_string(),
                    ),
                    cell(file, key, "retries", p.retries.to_string()),
                ]
            }
        }
    }

    /// Expected relative cost, for the sweep's biggest-first claiming
    /// (the same proxies the exhibits pass: ranks for CG and MD).
    pub fn cost_hint(&self) -> u64 {
        match *self {
            Point::Cg { procs, .. } => procs as u64,
            Point::Md { ppn, nodes, .. } => (nodes * ppn) as u64,
            _ => 1,
        }
    }

    /// Short span name, e.g. `cg_run/IB/32`.
    pub fn label(&self) -> String {
        let n = |net: Network| match net {
            Network::InfiniBand => "IB",
            Network::Elan4 => "Elan",
            Network::RoceV2(RoceMode::Pfc) => "PFC",
            Network::RoceV2(RoceMode::Dcqcn) => "DCQCN",
            Network::RoceV2(RoceMode::Hybrid) => "Hybrid",
        };
        match *self {
            Point::Cg { net, procs } => format!("cg_run/{}/{procs}", n(net)),
            Point::Md {
                fig3,
                net,
                ppn,
                nodes,
            } => {
                let p = if fig3 { "membrane" } else { "ljs" };
                format!("md_step_time/{p}/{}/{nodes}x{ppn}", n(net))
            }
            Point::PingPong { net, bytes } => format!("pingpong/{}/{bytes}", n(net)),
            Point::Stream { net, bytes } => format!("streaming/{}/{bytes}", n(net)),
            Point::Beff { net, nodes } => format!("beff/{}/{nodes}", n(net)),
            Point::Reuse { net, bytes, pct } => format!("pingpong_reuse/{}/{bytes}/{pct}", n(net)),
            Point::Incast { net, nodes } => format!("incast/{}/{nodes}", n(net)),
            Point::Allreduce { net, nodes } => format!("small_allreduce_us/{}/{nodes}", n(net)),
            Point::FaultLatency { net, rate, bytes } => {
                format!("fault_pingpong/{}/{}/{bytes}", n(net), FAULT_RATES[rate])
            }
            Point::Outage { net, outage } => {
                format!("outage_stream/{}/{}us", n(net), OUTAGE_US[outage])
            }
        }
    }
}

/// A workload's grid in the exhibit's own point order (seed 0).
pub fn points(workload: &str) -> Vec<Point> {
    let both = Network::BOTH;
    let mut v = Vec::new();
    match workload {
        "cg_classA" => {
            for net in both {
                for procs in STUDY_NODES {
                    v.push(Point::Cg { net, procs });
                }
            }
        }
        "md_scaled" => {
            for fig3 in [false, true] {
                for (net, ppn) in [(both[0], 1), (both[0], 2), (both[1], 1), (both[1], 2)] {
                    for nodes in STUDY_NODES {
                        v.push(Point::Md {
                            fig3,
                            net,
                            ppn,
                            nodes,
                        });
                    }
                }
            }
        }
        "p2p_micro" => {
            for bytes in figure1_sizes() {
                for net in both {
                    v.push(Point::PingPong { net, bytes });
                }
            }
            for bytes in figure1_sizes().into_iter().filter(|&b| b != 0) {
                for net in both {
                    v.push(Point::Stream { net, bytes });
                }
            }
            for nodes in SCALE_NODES {
                for net in both {
                    v.push(Point::Beff { net, nodes });
                }
            }
            for bytes in [512u64, 65_536, 262_144] {
                for pct in [100u32, 50, 0] {
                    for net in both {
                        v.push(Point::Reuse { net, bytes, pct });
                    }
                }
            }
        }
        "congestion" => {
            for net in ROCE_NETS {
                for nodes in SCALE_NODES {
                    v.push(Point::Incast { net, nodes });
                }
            }
            for net in ROCE_NETS {
                for nodes in SCALE_NODES {
                    v.push(Point::Allreduce { net, nodes });
                }
            }
            for net in both {
                for rate in 0..FAULT_RATES.len() {
                    for bytes in FAULT_SIZES {
                        v.push(Point::FaultLatency { net, rate, bytes });
                    }
                }
            }
            for net in both {
                for outage in 0..OUTAGE_US.len() {
                    v.push(Point::Outage { net, outage });
                }
            }
        }
        _ => {}
    }
    v
}

/// Sweep pool width: the MD grids fill every core, the rest run
/// inline on one thread like their exhibits' reference mode.
pub fn pool_width(workload: &str) -> usize {
    if workload == "md_scaled" {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    }
}

/// Committed CSVs each workload reproduces.
pub fn csv_files(workload: &str) -> &'static [&'static str] {
    match workload {
        "cg_classA" => &["fig6_nascg"],
        "md_scaled" => &["fig2_ljs", "fig3_membrane"],
        "p2p_micro" => &[
            "fig1a_latency",
            "fig1b_bandwidth",
            "fig1d_beff",
            "ablations_buffer_reuse",
        ],
        _ => &["roce_bw", "roce_lat", "faults_latency", "faults_outage"],
    }
}

/// Expected cells keyed by `(file, row key, column)`. Tables whose
/// rows are identified by two columns join them with `|`.
pub type Expected = HashMap<(String, String, String), String>;

pub fn load_expected(results: &Path, workload: &str) -> Result<Expected, String> {
    let mut out = Expected::new();
    for &file in csv_files(workload) {
        let key_cols = match file {
            "ablations_buffer_reuse" | "faults_latency" | "faults_outage" => 2,
            _ => 1,
        };
        let path = results.join(format!("{file}.csv"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
        for line in lines.filter(|l| !l.is_empty()) {
            let cells: Vec<&str> = line.split(',').collect();
            let key = cells[..key_cols.min(cells.len())].join("|");
            for (c, v) in header.iter().zip(&cells).skip(key_cols) {
                out.insert(
                    (file.to_string(), key.clone(), c.to_string()),
                    v.to_string(),
                );
            }
        }
    }
    Ok(out)
}

/// A network's fabric constructor (`ib_fabric`, `elan_fabric`, ...).
pub type BuildFabric = fn(usize) -> Fabric;

/// Every fabric a workload's grid builds: the constructor of each
/// network it runs, at each node count.
pub fn fabric_builds(workload: &str) -> Vec<(BuildFabric, usize)> {
    let nets: &[BuildFabric] = if workload == "congestion" {
        &[ib_fabric, elan_fabric, roce_fabric]
    } else {
        &[ib_fabric, elan_fabric]
    };
    let nodes: &[usize] = match workload {
        "cg_classA" | "md_scaled" => &STUDY_NODES,
        _ => &SCALE_NODES,
    };
    nets.iter()
        .flat_map(|&build| nodes.iter().map(move |&n| (build, n)))
        .collect()
}

/// Input preparation before the first point: the CG matrix into this
/// thread's cache, every (network, node count) fabric of the grid with
/// its routes, and the fault plans the congestion grid reads.
pub fn setup(workload: &str) -> Inputs {
    if workload == "cg_classA" {
        let p = class_a();
        // The seed the CG rank programs generate their matrix with.
        std::hint::black_box(SparseSpd::shared(p.n, p.nz_per_row, 0xC6));
    }
    for (build, nodes) in fabric_builds(workload) {
        std::hint::black_box(build(nodes));
    }
    let mut inputs = Inputs {
        rate_plans: Vec::new(),
        outage_plans: Vec::new(),
    };
    if workload == "congestion" {
        let plan = |spec: String| Arc::new(FaultPlan::parse(&spec).expect("fault spec parses"));
        inputs.rate_plans = FAULT_RATES
            .iter()
            .map(|r| plan(format!("loss={r},seed=11")))
            .collect();
        for build in [ib_fabric as BuildFabric, elan_fabric] {
            // The first switch-side link on the clean 0 -> 15 route, so
            // the outage provably intersects the static path.
            let edge = build(16).routes().path(0, 15)[1];
            for us in OUTAGE_US {
                inputs.outage_plans.push(plan(if us == 0 {
                    "loss=0,seed=11".to_string()
                } else {
                    format!("outage=link{edge}@2ms+{us}us,seed=11")
                }));
            }
        }
    }
    inputs
}
