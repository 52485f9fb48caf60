//! Quick kernel micro-benchmark and allocation audit.
//!
//! Exercises the three kernel event paths in isolation — direct timer
//! dispatch (`timers`), the inline call slab (`calls`), and the wake
//! queue (`pingpong`) — then one fig2-shaped MD point (`model`) as the
//! end-to-end reference. For each scenario it reports events, wall
//! time, events/s, and allocations per event (via a counting global
//! allocator), plus the thread's waker-`Arc` allocation count.
//!
//! Runs in under a second; CI runs it inside the throughput-gate stage
//! so a dispatch-path or allocation regression is visible right next
//! to the rolled-up events/s numbers it would eventually sink.
//!
//! Diagnostics: set `ALLOCPROBE_BT=<size>` to print a sampled
//! backtrace of every 20000th allocation of exactly `<size>` bytes —
//! the tool that located the hot allocation sites this kernel no
//! longer has.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use elanib_simcore::trace::json;
use elanib_simcore::{Dur, Sim};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static EXACT: [AtomicU64; 512] = [const { AtomicU64::new(0) }; 512];
static PROBE_SIZE: AtomicU64 = AtomicU64::new(0);
static PROBE_N: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_BT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        EXACT[layout.size().min(511)].fetch_add(1, Ordering::Relaxed);
        // Optional: sample backtraces of allocations of one exact size
        // (ALLOCPROBE_BT=<size>), every 20000th hit.
        if layout.size() as u64 == PROBE_SIZE.load(Ordering::Relaxed)
            && PROBE_N
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(20000)
            && IN_BT.with(|g| !g.replace(true))
        {
            eprintln!(
                "--- {} B alloc ---\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            IN_BT.with(|g| g.set(false));
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Append a sweep-shaped BENCH record for one scenario so the CI
/// events/s gate can judge kernel dispatch throughput directly,
/// best-on-record style, next to the exhibit sweeps. No-op unless
/// `ELANIB_BENCH_JSON` is set (same contract as `SweepStats::record`).
fn record(label: &str, events: u64, wall: f64) {
    json::Record::new("sweep")
        .str("label", &format!("kernel_{label}"))
        .raw("jobs", 1)
        .raw("threads", 1)
        .raw("events", events)
        .raw("failed", 0)
        .fixed("wall_s", wall, 6)
        .fixed("events_per_sec", events as f64 / wall.max(1e-9), 1)
        .unix_ts()
        .raw(
            "workers",
            format!("[{{\"w\":0,\"j\":1,\"e\":{events},\"busy_s\":{wall:.6}}}]"),
        )
        .append();
}

/// Build a scenario on a fresh sim, run it to completion, and report
/// events, wall time, events/s, and allocations per event.
fn scenario(name: &str, build: impl FnOnce(&Sim)) {
    let e0 = elanib_simcore::thread_events();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = std::time::Instant::now();
    let sim = Sim::new(7);
    build(&sim);
    sim.run().unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let events = elanib_simcore::thread_events() - e0;
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    println!(
        "{name:8} events={events:9} wall={wall:7.3}s  ev/s={:7.2}M  allocs/event={:.3}",
        events as f64 / wall / 1e6,
        allocs as f64 / events as f64,
    );
    record(name, events, wall);
}

/// Direct timer dispatch: every event is a `Delay` firing straight
/// back into its task, no waker round-trip.
fn timers(sim: &Sim) {
    for t in 0..64u64 {
        let s = sim.clone();
        sim.spawn_fmt(format_args!("timer{t}"), async move {
            for i in 0..4000u64 {
                s.sleep(Dur::from_ns(10 + ((t + i) % 17))).await;
            }
        });
    }
}

/// Inline call slab: self-rescheduling closures, zero tasks involved.
fn calls(sim: &Sim) {
    fn chain(sim: &Sim, left: u32) {
        if left == 0 {
            return;
        }
        let at = sim.now() + Dur::from_ns(25);
        sim.call_at(at, move |sim| chain(sim, left - 1));
    }
    for _ in 0..64 {
        chain(sim, 4000);
    }
}

/// Wake path: pairs of tasks ping-ponging one-shot flags, re-created
/// per round (also exercises the flag pool).
fn pingpong(sim: &Sim) {
    use elanib_simcore::Flag;
    use std::cell::RefCell;
    use std::rc::Rc;
    for p in 0..32u64 {
        let a: Rc<RefCell<Flag>> = Rc::new(RefCell::new(Flag::new()));
        let b: Rc<RefCell<Flag>> = Rc::new(RefCell::new(Flag::new()));
        let (a2, b2) = (a.clone(), b.clone());
        let s = sim.clone();
        sim.spawn_fmt(format_args!("ping{p}"), async move {
            for _ in 0..2000 {
                s.sleep(Dur::from_ns(20)).await;
                let f = a.borrow().clone();
                f.set();
                let f = b.borrow().clone();
                f.wait().await;
                *b.borrow_mut() = Flag::new();
            }
        });
        let s = sim.clone();
        sim.spawn_fmt(format_args!("pong{p}"), async move {
            for _ in 0..2000 {
                let f = a2.borrow().clone();
                f.wait().await;
                *a2.borrow_mut() = Flag::new();
                s.sleep(Dur::from_ns(20)).await;
                let f = b2.borrow().clone();
                f.set();
            }
        });
    }
}

fn main() {
    if let Ok(s) = std::env::var("ALLOCPROBE_BT") {
        PROBE_SIZE.store(s.parse().unwrap_or(0), Ordering::Relaxed);
    }
    scenario("timers", timers);
    scenario("calls", calls);
    scenario("pingpong", pingpong);

    // End-to-end reference: one fig2-shaped MD point, uncached.
    std::env::set_var("ELANIB_CACHE", "off");
    let e0 = elanib_simcore::thread_events();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = std::time::Instant::now();
    let t = elanib_apps::md::proxy::md_step_time(
        elanib_mpi::Network::InfiniBand,
        elanib_apps::md::proxy::ljs(),
        32,
        2,
    );
    let wall = t0.elapsed().as_secs_f64();
    let events = elanib_simcore::thread_events() - e0;
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    println!(
        "model    events={events:9} wall={wall:7.3}s  ev/s={:7.2}M  allocs/event={:.3}  step_s={t:.6}",
        events as f64 / wall / 1e6,
        allocs as f64 / events as f64,
    );
    record("model", events, wall);
    println!(
        "waker_allocs={}  (thread total)",
        elanib_simcore::kernel::thread_waker_allocs()
    );
    // Top exact allocation sizes — the audit trail for new hot sites.
    let mut exact: Vec<(usize, u64)> = EXACT
        .iter()
        .enumerate()
        .map(|(s, c)| (s, c.load(Ordering::Relaxed)))
        .filter(|&(_, c)| c > 5000)
        .collect();
    exact.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (s, c) in exact.iter().take(10) {
        println!("  exactly {s:4} B x {c}");
    }
}
