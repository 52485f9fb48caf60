//! Property-based tests of the simulation kernel's invariants.

use proptest::prelude::*;

use elanib_simcore::{Dur, FifoChannel, PsResource, Sim, SimTime};
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel clock never goes backwards, and a task sleeping a
    /// sequence of durations finishes at exactly their sum.
    #[test]
    fn sleeps_sum_exactly(durs in prop::collection::vec(0u64..10_000_000, 1..40)) {
        let sim = Sim::new(1);
        let s = sim.clone();
        let durs2 = durs.clone();
        sim.spawn("t", async move {
            for &d in &durs2 {
                s.sleep(Dur::from_ps(d)).await;
            }
        });
        let end = sim.run().unwrap();
        prop_assert_eq!(end.as_ps(), durs.iter().sum::<u64>());
    }

    /// Determinism: any set of interleaved sleeping tasks produces the
    /// same final time and event count on re-run.
    #[test]
    fn random_task_soup_is_deterministic(
        seeds in prop::collection::vec(1u64..1000, 2..10),
    ) {
        let run = || {
            let sim = Sim::new(42);
            for (i, &sd) in seeds.iter().enumerate() {
                let s = sim.clone();
                sim.spawn(format!("t{i}"), async move {
                    for k in 0..5u64 {
                        s.sleep(Dur::from_ns(sd * (k + 1))).await;
                    }
                });
            }
            let t = sim.run().unwrap();
            (t, sim.events_processed())
        };
        prop_assert_eq!(run(), run());
    }

    /// FIFO channel: completions happen in request order and total
    /// busy time equals the sum of service times.
    #[test]
    fn fifo_channel_is_fifo_and_conserves_time(
        sizes in prop::collection::vec(1u64..5_000_000, 1..20),
    ) {
        let sim = Sim::new(7);
        let ch = FifoChannel::new(1e9, Dur::from_ns(100));
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, &bytes) in sizes.iter().enumerate() {
            let (c, s, o) = (ch.clone(), sim.clone(), order.clone());
            sim.spawn(format!("t{i}"), async move {
                c.transfer(&s, bytes).await;
                o.borrow_mut().push(i);
            });
        }
        let end = sim.run().unwrap();
        let expect: Vec<usize> = (0..sizes.len()).collect();
        prop_assert_eq!(&*order.borrow(), &expect);
        // All requests issued at t=0: makespan = sum of service times.
        let total_ns: f64 = sizes.iter().map(|&b| b as f64).sum::<f64>()
            + 100.0 * sizes.len() as f64;
        prop_assert!((end.as_secs_f64() * 1e9 - total_ns).abs() < 1.0);
    }

    /// Processor sharing: work conservation. With all jobs present
    /// from t=0, the resource drains in exactly total_bytes/rate, and
    /// no job finishes before its fair-share lower bound.
    #[test]
    fn ps_resource_work_conservation(
        sizes in prop::collection::vec(1_000u64..2_000_000, 1..16),
    ) {
        let sim = Sim::new(3);
        let rate = 1e9;
        let ps = PsResource::new(rate);
        let ends = Rc::new(RefCell::new(Vec::new()));
        for (i, &bytes) in sizes.iter().enumerate() {
            let (p, s, e) = (ps.clone(), sim.clone(), ends.clone());
            sim.spawn(format!("t{i}"), async move {
                p.transfer(&s, bytes).await;
                e.borrow_mut().push((i, s.now().as_secs_f64()));
            });
        }
        let end = sim.run().unwrap();
        let total: u64 = sizes.iter().sum();
        let makespan = end.as_secs_f64();
        // Work conservation: the resource is never idle while jobs
        // remain, so the drain time is exactly total/rate (within
        // picosecond rounding per completion event).
        let ideal = total as f64 / rate;
        prop_assert!((makespan - ideal).abs() < 1e-6 * sizes.len() as f64,
            "makespan {makespan} vs ideal {ideal}");
        // Fairness lower bound: a job of b bytes among n jobs cannot
        // finish before b*n/rate... only while all n are active; the
        // universal lower bound is b/rate.
        for &(i, t) in ends.borrow().iter() {
            prop_assert!(t + 1e-9 >= sizes[i] as f64 / rate);
        }
        // Shortest job finishes first (equal shares).
        let min_idx = (0..sizes.len()).min_by_key(|&i| sizes[i]).unwrap();
        let first = ends
            .borrow()
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|&(i, _)| i)
            .unwrap();
        prop_assert_eq!(sizes[first], sizes[min_idx]);
    }

    /// Determinism of the slab/wake-dedup executor: a workload that
    /// exercises slot recycling (short-lived nested tasks), duplicate
    /// same-instant wakes (multi-waiter flags set together), and timer
    /// events gives the identical event count and final clock when
    /// re-run with the same seed.
    #[test]
    fn slab_and_wake_dedup_preserve_determinism(
        seeds in prop::collection::vec(1u64..500, 2..8),
        spawn_depth in 1usize..4,
    ) {
        use elanib_simcore::Flag;
        let run = || {
            let sim = Sim::new(9);
            let gate = Flag::new();
            for (i, &sd) in seeds.iter().enumerate() {
                // Waiters: all woken by the same flag at one instant
                // (the dedup-prone pattern).
                let (s, g) = (sim.clone(), gate.clone());
                sim.spawn(format!("waiter{i}"), async move {
                    g.wait().await;
                    s.sleep(Dur::from_ns(sd)).await;
                });
                // Nested short-lived spawns: recycle slab slots while
                // the sim is still running.
                let s = sim.clone();
                let depth = spawn_depth;
                sim.spawn(format!("nest{i}"), async move {
                    for d in 0..depth {
                        let s2 = s.clone();
                        let done = Flag::new();
                        let d2 = done.clone();
                        s.spawn(format!("leaf{i}.{d}"), async move {
                            s2.sleep(Dur::from_ns(sd * (d as u64 + 1))).await;
                            d2.set();
                        });
                        done.wait().await;
                    }
                });
            }
            let s = sim.clone();
            sim.spawn("setter", async move {
                s.sleep(Dur::from_ns(100)).await;
                gate.set();
            });
            let t = sim.run().unwrap();
            (t, sim.events_processed(), sim.live_tasks())
        };
        let a = run();
        prop_assert_eq!(a, run());
        prop_assert_eq!(a.2, 0); // every slot reclaimed
    }

    /// Mailbox preserves FIFO order for any interleaving of pushes.
    #[test]
    fn mailbox_order_preserved(values in prop::collection::vec(0u32..1000, 1..50)) {
        use elanib_simcore::Mailbox;
        let sim = Sim::new(5);
        let mb: Mailbox<u32> = Mailbox::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        let n = values.len();
        let (m, g) = (mb.clone(), got.clone());
        sim.spawn("consumer", async move {
            for _ in 0..n {
                let v = m.recv().await;
                g.borrow_mut().push(v);
            }
        });
        let s = sim.clone();
        let vals = values.clone();
        sim.spawn("producer", async move {
            for (k, v) in vals.into_iter().enumerate() {
                // Irregular but deterministic pacing.
                s.sleep(Dur::from_ns((v as u64 * 7 + k as u64) % 50)).await;
                mb.push(v);
            }
        });
        sim.run().unwrap();
        prop_assert_eq!(&*got.borrow(), &values);
    }
}

/// Reference sleep: the stored-waker timer the kernel's direct timer
/// path replaced, built from the public API. On first poll it parks a
/// clone of its waker in a call event at the deadline — one wheel
/// entry at the same sequence point as the kernel's own timer — and
/// firing it wakes the task through the wake queue.
struct RefSleep {
    sim: Sim,
    dur: Dur,
    deadline: Option<SimTime>,
}

impl Future for RefSleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.deadline {
            None if this.dur.is_zero() => Poll::Ready(()),
            None => {
                let deadline = this.sim.now() + this.dur;
                this.deadline = Some(deadline);
                let waker = cx.waker().clone();
                this.sim.call_at(deadline, move |_| waker.wake());
                Poll::Pending
            }
            Some(d) if this.sim.now() >= d => Poll::Ready(()),
            Some(_) => Poll::Pending,
        }
    }
}

/// Sleep through the kernel's direct timer path or the reference.
fn nap(sim: &Sim, d: Dur, reference: bool) -> Pin<Box<dyn Future<Output = ()>>> {
    if reference {
        Box::pin(RefSleep {
            sim: sim.clone(),
            dur: d,
            deadline: None,
        })
    } else {
        Box::pin(sim.sleep(d))
    }
}

/// Run one randomized schedule with the kernel's sleep or the
/// reference sleep and return every observable: the full
/// `(time, step)` execution log (ordering-sensitive), the final clock,
/// and the event count.
fn timer_path_run(reference: bool, chains: &[Vec<u64>]) -> (Vec<(u64, u64)>, u64, u64) {
    use elanib_simcore::Mailbox;
    let sim = Sim::new(11);
    let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let mb: Mailbox<u64> = Mailbox::new();
    for (i, chain) in chains.iter().enumerate() {
        let s = sim.clone();
        let l = log.clone();
        let m = mb.clone();
        let chain = chain.clone();
        let first = chain[0];
        sim.spawn(format!("p{i}"), async move {
            for (k, &d) in chain.iter().enumerate() {
                nap(&s, Dur::from_ps(d), reference).await;
                l.borrow_mut()
                    .push((s.now().as_ps(), ((i as u64) << 8) | k as u64));
            }
            m.push(i as u64);
        });
        // A timed closure event competing with the timers at a nearby
        // instant (same-instant ordering is part of the contract).
        let l = log.clone();
        sim.call_in(Dur::from_ps(first), move |s| {
            l.borrow_mut().push((s.now().as_ps(), 40_000 + i as u64))
        });
    }
    let total = chains.len();
    let s = sim.clone();
    let l = log.clone();
    sim.spawn("consumer", async move {
        for _ in 0..total {
            let v = mb.recv().await;
            l.borrow_mut().push((s.now().as_ps(), 10_000 + v));
            nap(&s, Dur::from_ns(3), reference).await;
        }
    });
    let end = sim.run().unwrap();
    let out = log.borrow().clone();
    (out, end.as_ps(), sim.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The direct timer path (the sleeping task's id in the wheel)
    /// must replay the stored-waker reference exactly on arbitrary
    /// schedules: same dispatch order (full log), same wake-driven
    /// consumer order, same final clock, same event count.
    #[test]
    fn tagged_and_legacy_payloads_agree_on_random_schedules(
        chains in prop::collection::vec(
            prop::collection::vec(0u64..5_000_000, 1..8),
            1..12,
        ),
    ) {
        let direct = timer_path_run(false, &chains);
        let reference = timer_path_run(true, &chains);
        prop_assert_eq!(direct, reference);
    }
}
