//! Layer probes: host time of single public calls into one layer,
//! timed from outside with tracing and profiling off.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use elanib_apps::md::{decompose3, ljs};
use elanib_apps::nascg::{cg_run, class_a};
use elanib_microbench::figure1_sizes;
use elanib_mpi::Network;
use elanib_nodesim::{Node, NodeParams};
use elanib_simcore::{Dur, Sim};

use elanib_fabric::{elan_fabric, ib_fabric, roce_fabric};

use crate::grid::{fabric_builds, BuildFabric};
use crate::host::median;

/// `apps.cg_1rank_s`: one 1-process CG class A point (a few hundred
/// kernel events, so almost pure numerics). One untimed call first fills the
/// per-thread matrix cache.
pub fn cg_1rank_s() -> f64 {
    black_box(cg_run(Network::InfiniBand, class_a(), 1, 1));
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(cg_run(Network::InfiniBand, class_a(), 1, 1));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&reps)
}

/// `fabric.build_s`: host seconds to build every fabric of the grid.
pub fn fabric_build_s(workload: &str) -> f64 {
    let builds = fabric_builds(workload);
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for &(build, nodes) in &builds {
                black_box(build(nodes));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&reps)
}

/// A workload's traffic: the fabrics it crosses, their endpoint count
/// and the `(src, dst, bytes)` messages of one round.
struct Pattern {
    nets: &'static [BuildFabric],
    endpoints: usize,
    msgs: Vec<(usize, usize, u64)>,
}

/// Ping-pong pairs, 3-D halo neighbours, CG's all-to-all segments, or
/// incast into rank 0.
fn pattern(workload: &str) -> Pattern {
    let mut msgs = Vec::new();
    match workload {
        "p2p_micro" => {
            for b in figure1_sizes() {
                msgs.push((0, 1, b));
                msgs.push((1, 0, b));
            }
            Pattern {
                nets: &[ib_fabric, elan_fabric],
                endpoints: 2,
                msgs,
            }
        }
        "md_scaled" => {
            let n = 32;
            let (px, py, pz) = decompose3(n);
            let at = |x: usize, y: usize, z: usize| (z * py + y) * px + x;
            for z in 0..pz {
                for y in 0..py {
                    for x in 0..px {
                        let me = at(x, y, z);
                        let nbrs = [
                            at((x + 1) % px, y, z),
                            at((x + px - 1) % px, y, z),
                            at(x, (y + 1) % py, z),
                            at(x, (y + py - 1) % py, z),
                            at(x, y, (z + 1) % pz),
                            at(x, y, (z + pz - 1) % pz),
                        ];
                        for d in nbrs.into_iter().filter(|&d| d != me) {
                            msgs.push((me, d, ljs().ghost_bytes_per_face));
                        }
                    }
                }
            }
            Pattern {
                nets: &[ib_fabric, elan_fabric],
                endpoints: n,
                msgs,
            }
        }
        "cg_classA" => {
            let n = 32;
            let seg = (class_a().n / n * 8) as u64;
            for s in 0..n {
                for d in (0..n).filter(|&d| d != s) {
                    msgs.push((s, d, seg));
                }
            }
            Pattern {
                nets: &[ib_fabric, elan_fabric],
                endpoints: n,
                msgs,
            }
        }
        _ => {
            let n = 32;
            for s in 1..n {
                msgs.push((s, 0, 65_536));
            }
            Pattern {
                nets: &[ib_fabric, roce_fabric],
                endpoints: n,
                msgs,
            }
        }
    }
}

/// `fabric.deliver_ns`: host ns per `Fabric::deliver_at` call over the
/// workload's pattern. Simulated time stays at zero, so reservations
/// queue up and every call also takes the contention branch.
pub fn fabric_deliver_ns(workload: &str) -> f64 {
    const CALLS: usize = 200_000;
    let Pattern {
        nets,
        endpoints,
        msgs,
    } = pattern(workload);
    let mut reps = Vec::new();
    for _ in 0..5 {
        let mut ns = 0.0;
        let mut calls = 0;
        for &build in nets {
            let sim = Sim::new(1);
            let fabric = build(endpoints);
            // Fill the per-pair route cache before timing.
            for &(s, d, b) in &msgs {
                black_box(fabric.deliver_at(&sim, s, d, b));
            }
            let rounds = (CALLS / nets.len()).div_ceil(msgs.len());
            let t = Instant::now();
            for _ in 0..rounds {
                for &(s, d, b) in &msgs {
                    black_box(fabric.deliver_at(&sim, black_box(s), d, b));
                }
            }
            ns += t.elapsed().as_nanos() as f64;
            calls += rounds * msgs.len();
        }
        reps.push(ns / calls as f64);
    }
    median(&reps)
}

/// `nodesim.op_ns`: host ns per `Node::dma` / `host_copy` / `compute`
/// call, with both CPUs of one node contending for its buses. The
/// calls are async, so the time is the simulation run that drives them
/// divided by the calls made.
pub fn nodesim_op_ns() -> f64 {
    const ITERS: usize = 20_000;
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let sim = Sim::new(1);
            let node: Rc<Node> = Node::new(0, NodeParams::default());
            for cpu in 0..2 {
                let (s, n) = (sim.clone(), node.clone());
                sim.spawn(format!("cpu{cpu}"), async move {
                    for _ in 0..ITERS {
                        n.dma(&s, 4096).await;
                        n.host_copy(&s, 4096).await;
                        n.compute(&s, cpu, Dur::from_us(1), 0.5).await;
                    }
                });
            }
            let t = Instant::now();
            sim.run().expect("two CPU loops finish");
            t.elapsed().as_nanos() as f64 / (2 * 3 * ITERS) as f64
        })
        .collect();
    median(&reps)
}
