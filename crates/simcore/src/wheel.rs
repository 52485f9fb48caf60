//! Hierarchical timing wheel — the kernel's pending-event structure.
//!
//! Replaces the former `BinaryHeap<Reverse<Ev>>` on the hottest path in
//! the repository: every one of the hundreds of millions of events a
//! full exhibit regeneration dispatches goes through one [`push`] and
//! one [`pop`](TimerWheel::pop). The wheel keeps the **exact same total
//! order** as the heap it replaces — `(at, seq)`, so same-instant
//! events still fire in schedule order — which the tier-2 determinism
//! check (byte-identical exhibit CSVs) and the model proptest in
//! `tests/wheel_model.rs` both lock.
//!
//! ## Structure
//!
//! * [`LEVELS`] levels of [`SLOTS`] buckets each; level `l` buckets are
//!   `2^(BITS·l)` picoseconds wide, so the wheel spans
//!   `2^(BITS·LEVELS)` ps (~281 simulated seconds) — far past any delay a
//!   model component schedules.
//! * An event is filed at the level of the highest bit in which its
//!   expiry differs from the wheel anchor (the classic hashed-wheel
//!   rule), so `push` is O(1): no per-event comparisons, no sift.
//! * A sorted **far list** absorbs the (in practice nonexistent)
//!   overflow beyond the top level, keeping the structure total.
//! * `pop` advances the anchor to the next occupied bucket — found by
//!   per-level occupancy bitmaps, one `trailing_zeros` per level — and
//!   **cascades** that bucket in a single batched pass: the anchor
//!   jumps directly to the bucket's minimal expiry (provably the
//!   global minimum — levels are scanned fine to coarse, slots early
//!   to late, and the far list is never earlier), the minimal entries
//!   drain in sequence order, and every other entry re-files exactly
//!   once against the final anchor. A multi-level rollover that the
//!   classic hashed wheel pays once per level therefore costs one
//!   `place` per entry here. Same-expiry events are ordered by their
//!   monotone sequence number, so cascade order is irrelevant to the
//!   final order — which is what makes the wheel exactly
//!   heap-equivalent.
//!
//! Per-event cost is O(1) amortized — each event is filed at most
//! twice (once at push, once when its bucket's batched cascade runs) —
//! versus O(log n) comparisons per heap operation. The number of
//! events moved by cascades is exposed as
//! [`cascades`](TimerWheel::cascades) and surfaces in the metrics
//! registry as `wheel.cascades`.

use std::collections::VecDeque;

/// log2 of the bucket count per level.
const BITS: u32 = 6;
/// Buckets per level (must stay ≤ 64: occupancy is a `u64` bitmap).
pub const SLOTS: usize = 1 << BITS;
/// Number of levels; the wheel spans `2^(BITS·LEVELS)` picoseconds.
pub const LEVELS: usize = 8;
/// First expiry-minus-anchor distance that can *never* be held by the
/// wheel proper, regardless of alignment (beyond it events go to the
/// far list; closer events may still overflow on a boundary crossing).
pub const HORIZON_PS: u64 = 1 << (BITS * LEVELS as u32);

/// One pending event: expiry, schedule order, payload.
struct Entry<T> {
    at: u64,
    seq: u64,
    payload: T,
}

/// One wheel level: 64 buckets plus an occupancy bitmap (bit `i` set
/// iff `buckets[i]` is non-empty).
struct Level<T> {
    occupied: u64,
    buckets: [Vec<Entry<T>>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            occupied: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// A min-ordered (by `(at, seq)`) pending-event store with O(1) insert.
///
/// Sequence numbers are assigned internally by [`push`](Self::push) in
/// call order, reproducing the schedule-order tiebreak of the heap it
/// replaces. Expiries must be ≥ the expiry of the most recently popped
/// event (time never runs backwards in a discrete-event kernel).
pub struct TimerWheel<T> {
    /// The reference point bucket indices are computed against. Equals
    /// the expiry of the most recently popped event (transiently, a
    /// bucket-span start while cascading inside `pop`).
    anchor: u64,
    levels: Vec<Level<T>>,
    /// Overflow beyond the top level, sorted by `(at, seq)`
    /// *descending* so the minimum pops off the tail in O(1).
    far: Vec<Entry<T>>,
    /// Events expiring exactly at `anchor`, in seq order: the bucket
    /// currently being drained, plus any zero-delay events pushed while
    /// draining it (their seq is necessarily larger than all entries).
    cur: VecDeque<Entry<T>>,
    /// Reusable buffer for cascading a bucket (swapped with the bucket
    /// so neither Vec ever gives its capacity back to the allocator —
    /// bucket churn is the wheel's hottest memory traffic).
    scratch: Vec<Entry<T>>,
    next_seq: u64,
    len: usize,
    high_water: usize,
    cascaded: u64,
}

impl<T> TimerWheel<T> {
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            anchor: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            far: Vec::new(),
            cur: VecDeque::new(),
            scratch: Vec::new(),
            next_seq: 0,
            len: 0,
            high_water: 0,
            cascaded: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events moved by level-down cascades so far (monotone; a measure
    /// of how much re-filing the workload's delay distribution causes).
    pub fn cascades(&self) -> u64 {
        self.cascaded
    }

    /// High-water mark of pending events — how deep the wheel got over
    /// its lifetime (monotone; the profiler's occupancy ceiling).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Level an expiry files at, given the current anchor: the level
    /// containing the highest differing bit. `LEVELS` means "far list";
    /// an expiry equal to the anchor files at level 0 (its bucket is
    /// the first one `pop` inspects).
    #[inline(always)]
    fn level_of(&self, at: u64) -> usize {
        let xor = at ^ self.anchor;
        if xor == 0 {
            return 0;
        }
        ((63 - xor.leading_zeros()) / BITS) as usize
    }

    /// File an entry into its wheel level or the far list. Expects
    /// `entry.at >= self.anchor`.
    #[inline]
    fn place(&mut self, entry: Entry<T>) {
        let level = self.level_of(entry.at);
        if level >= LEVELS {
            // Beyond the top level: keep the far list sorted descending
            // by (at, seq) so the global minimum is at the tail.
            let key = (entry.at, entry.seq);
            let pos = self.far.partition_point(|e| (e.at, e.seq) > key);
            self.far.insert(pos, entry);
            return;
        }
        let slot = ((entry.at >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let lv = &mut self.levels[level];
        lv.occupied |= 1 << slot;
        lv.buckets[slot].push(entry);
    }

    /// Insert an event expiring at `at` (picoseconds). Events pushed
    /// with equal `at` pop in push order. `at` must not precede the
    /// expiry of the most recently popped event; in release builds a
    /// stale expiry is clamped to the anchor instead of corrupting the
    /// structure.
    #[inline]
    pub fn push(&mut self, at: u64, payload: T) {
        debug_assert!(at >= self.anchor, "event scheduled into the past");
        let at = at.max(self.anchor);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
        if at == self.anchor {
            // Zero-delay event while the anchor bucket drains: seq is
            // larger than everything buffered, so FIFO order is (at,
            // seq) order.
            self.cur.push_back(Entry { at, seq, payload });
            return;
        }
        self.place(Entry { at, seq, payload });
    }

    /// Remove and return the earliest event `(at, payload)` in strict
    /// `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        match self.pop_impl::<false>(0) {
            Ok(next) => next,
            Err(_) => unreachable!("unbounded pop cannot report a limit"),
        }
    }

    /// Remove and return the earliest event, but only if it expires
    /// strictly before `limit`.
    ///
    /// * `Ok(Some((at, payload)))` — earliest event, `at < limit`.
    /// * `Ok(None)` — no events pending.
    /// * `Err(at)` — the earliest pending event expires at `at >=
    ///   limit`. **Nothing is removed and the anchor does not move**,
    ///   so the caller may keep pushing events at or after the most
    ///   recently *popped* expiry — including into `[now, at)` — and
    ///   pop again later. This is what lets a bounded run
    ///   ([`Sim::run_until_budget`](crate::Sim::run_until_budget)) stop
    ///   at its limit without the wheel having committed to the
    ///   out-of-limit minimum.
    pub fn pop_before(&mut self, limit: u64) -> Result<Option<(u64, T)>, u64> {
        self.pop_impl::<true>(limit)
    }

    /// Shared scan for [`pop`](Self::pop) and
    /// [`pop_before`](Self::pop_before). With `BOUNDED = false` every
    /// limit check compiles out and the code is exactly the unbounded
    /// pop. With `BOUNDED = true`, each arm of the scan learns the
    /// candidate minimum's expiry *before* mutating anything (clearing
    /// occupancy, jumping the anchor, cascading), so an out-of-window
    /// minimum returns `Err` with the structure untouched. The far-list
    /// re-home at the top of the loop is the one permitted mutation: it
    /// files entries against the *current* anchor, which is valid
    /// whether or not this pop commits.
    fn pop_impl<const BOUNDED: bool>(&mut self, limit: u64) -> Result<Option<(u64, T)>, u64> {
        if let Some(e) = self.cur.front() {
            if BOUNDED && e.at >= limit {
                return Err(e.at);
            }
            let e = self.cur.pop_front().expect("front checked");
            self.len -= 1;
            return Ok(Some((e.at, e.payload)));
        }
        if self.len == 0 {
            return Ok(None);
        }
        loop {
            // Re-home far-list entries that fit under the top level at
            // the current anchor. (Entries are taken from the tail —
            // the minimum — so at most a prefix of the ordered list
            // moves, and everything left is still beyond the wheel.)
            while let Some(e) = self.far.last() {
                if self.level_of(e.at) >= LEVELS {
                    break;
                }
                let e = self.far.pop().expect("checked non-empty");
                self.place(e);
            }

            // Level 0: buckets are 1 ps wide, so the first occupied
            // bucket at or after the anchor holds exactly the events of
            // the minimal expiry. Order within it by seq and drain.
            let base0 = (self.anchor & (SLOTS as u64 - 1)) as u32;
            let mask0 = self.levels[0].occupied & (!0u64 << base0);
            if mask0 != 0 {
                let slot = mask0.trailing_zeros() as usize;
                if BOUNDED {
                    // Level-0 buckets hold a single instant (1 ps wide
                    // within one 64 ps window of the anchor), so the
                    // first entry's expiry is the bucket's.
                    let at = self.levels[0].buckets[slot][0].at;
                    if at >= limit {
                        return Err(at);
                    }
                }
                let lv = &mut self.levels[0];
                lv.occupied &= !(1u64 << slot);
                let bucket = &mut lv.buckets[slot];
                debug_assert!(!bucket.is_empty());
                self.len -= 1;
                if bucket.len() == 1 {
                    // Dominant case: one event at this instant. Skip
                    // the sort and the `cur` round-trip entirely.
                    let e = bucket.pop().expect("checked len");
                    debug_assert!(e.at >= self.anchor);
                    self.anchor = e.at;
                    return Ok(Some((e.at, e.payload)));
                }
                bucket.sort_unstable_by_key(|e| e.seq);
                let at = bucket[0].at;
                debug_assert!(bucket.iter().all(|e| e.at == at));
                debug_assert!(at >= self.anchor);
                self.anchor = at;
                // drain(..) leaves the bucket's capacity in place for
                // its next tenant.
                self.cur.extend(bucket.drain(..));
                let e = self.cur.pop_front().expect("bucket was non-empty");
                return Ok(Some((e.at, e.payload)));
            }

            // Coarser levels: find the first occupied bucket at or
            // after the anchor's own. The bucket provably contains the
            // global minimum (levels are scanned fine to coarse, slots
            // early to late, and the far list is never earlier), so
            // instead of rolling its entries down one level per loop
            // iteration the whole multi-level rollover is batched into
            // a single pass: jump the anchor straight to the bucket's
            // minimal expiry, drain that expiry to `cur`, and re-file
            // every other entry exactly once against the final anchor.
            for level in 1..LEVELS {
                let shift = BITS * level as u32;
                let base = ((self.anchor >> shift) & (SLOTS as u64 - 1)) as u32;
                let mask = self.levels[level].occupied & (!0u64 << base);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as usize;
                if BOUNDED {
                    // The bucket provably holds the global minimum;
                    // find it before touching anything so an
                    // out-of-window minimum leaves the wheel intact.
                    let min_at = self.levels[level].buckets[slot]
                        .iter()
                        .map(|e| e.at)
                        .min()
                        .expect("occupied bucket is non-empty");
                    if min_at >= limit {
                        return Err(min_at);
                    }
                }
                if slot as u32 > base {
                    // Anchor jumps to the start of the bucket's span;
                    // bits below the level are zeroed (nothing earlier
                    // exists — every finer level was empty).
                    let span = 1u64 << shift;
                    let window = !((span << BITS) - 1);
                    self.anchor = (self.anchor & window) | ((slot as u64) << shift);
                }
                let lv = &mut self.levels[level];
                lv.occupied &= !(1u64 << slot);
                if lv.buckets[slot].len() == 1 {
                    // This bucket was found by scanning levels fine to
                    // coarse and slots early to late, so every other
                    // pending wheel event — same level later slots,
                    // coarser levels, the far list — expires after all
                    // of its entries. A singleton bucket therefore
                    // *is* the global minimum: return it outright
                    // instead of re-filing it through `level` more
                    // cascade rounds. Sparse queues (few tasks, one
                    // timer each) take this path for nearly every pop.
                    let e = lv.buckets[slot].pop().expect("checked len");
                    debug_assert!(e.at >= self.anchor);
                    self.anchor = e.at;
                    self.len -= 1;
                    return Ok(Some((e.at, e.payload)));
                }
                let at0 = lv.buckets[slot][0].at;
                if lv.buckets[slot].iter().all(|e| e.at == at0) {
                    // Same reasoning, next-most-common shape: every
                    // entry expires at one instant (collective wakeups
                    // schedule whole rank groups together). Draining
                    // here skips `level` re-filing rounds *per entry*.
                    let Self {
                        levels,
                        cur,
                        anchor,
                        len,
                        ..
                    } = self;
                    let bucket = &mut levels[level].buckets[slot];
                    bucket.sort_unstable_by_key(|e| e.seq);
                    debug_assert!(at0 >= *anchor);
                    *anchor = at0;
                    cur.extend(bucket.drain(..));
                    let e = cur.pop_front().expect("bucket was non-empty");
                    *len -= 1;
                    return Ok(Some((e.at, e.payload)));
                }
                // Mixed-expiry bucket: batched one-pass cascade. Swap
                // the bucket with the (empty) scratch buffer so
                // `place` can borrow `self`; swap back afterwards so
                // both keep their capacity.
                let mut bucket = std::mem::take(&mut self.scratch);
                let lv = &mut self.levels[level];
                std::mem::swap(&mut bucket, &mut lv.buckets[slot]);
                self.cascaded += bucket.len() as u64;
                let min_at = bucket.iter().map(|e| e.at).min().expect("non-empty");
                debug_assert!(min_at >= self.anchor);
                // Entries share this bucket, so they agree on every bit
                // at or above the bucket's slot index — each re-files
                // at a level *strictly below* `level` relative to the
                // new anchor and can never cascade again this pop.
                self.anchor = min_at;
                debug_assert!(self.cur.is_empty());
                for e in bucket.drain(..) {
                    if e.at == min_at {
                        self.cur.push_back(e);
                    } else {
                        debug_assert!(self.level_of(e.at) < level);
                        self.place(e);
                    }
                }
                self.scratch = bucket;
                self.cur.make_contiguous().sort_unstable_by_key(|e| e.seq);
                self.len -= 1;
                let e = self.cur.pop_front().expect("minimum drained to cur");
                return Ok(Some((e.at, e.payload)));
            }

            // Wheel empty: everything pending is in the far list. Jump
            // the anchor straight to its minimum and re-home.
            match self.far.last() {
                Some(e) => {
                    if BOUNDED && e.at >= limit {
                        return Err(e.at);
                    }
                    self.anchor = e.at;
                    // Loop: the far-drain above now re-homes it (and
                    // any same-window followers) into the wheel.
                }
                None => {
                    debug_assert_eq!(self.len, 0);
                    return Ok(None);
                }
            }
        }
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a heap ordered exactly like the pre-wheel
    /// kernel's `BinaryHeap<Reverse<Ev>>`.
    fn drain(wheel: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = wheel.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        for (i, &at) in [50u64, 3, 17, 3, 1 << 20, 64, 63].iter().enumerate() {
            w.push(at, i as u32);
        }
        let order = drain(&mut w);
        let times: Vec<u64> = order.iter().map(|&(at, _)| at).collect();
        assert_eq!(times, vec![3, 3, 17, 50, 63, 64, 1 << 20]);
        // Equal expiries keep push order.
        assert_eq!(order[0].1, 1);
        assert_eq!(order[1].1, 3);
    }

    #[test]
    fn same_instant_events_pop_in_push_order() {
        let mut w = TimerWheel::new();
        for i in 0..100u32 {
            w.push(4096, i);
        }
        let payloads: Vec<u32> = drain(&mut w).into_iter().map(|(_, p)| p).collect();
        assert_eq!(payloads, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_delay_push_while_draining_pops_last_among_equals() {
        let mut w = TimerWheel::new();
        w.push(10, 0);
        w.push(10, 1);
        assert_eq!(w.pop(), Some((10, 0)));
        // Pushed at the instant being drained: fires after payload 1
        // (larger seq), before anything later.
        w.push(10, 2);
        w.push(11, 3);
        assert_eq!(w.pop(), Some((10, 1)));
        assert_eq!(w.pop(), Some((10, 2)));
        assert_eq!(w.pop(), Some((11, 3)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn crosses_level_boundaries() {
        // Expiries straddling every level boundary, pushed in reverse.
        let mut w = TimerWheel::new();
        let mut ats = Vec::new();
        for level in 0..LEVELS as u32 {
            let span = 1u64 << (BITS * level);
            ats.extend([span - 1, span, span + 1]);
        }
        for (i, &at) in ats.iter().rev().enumerate() {
            w.push(at, i as u32);
        }
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(at, _)| at).collect();
        let mut want = ats.clone();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn far_list_handles_beyond_horizon_expiries() {
        let mut w = TimerWheel::new();
        w.push(HORIZON_PS + 5, 0);
        w.push(3 * HORIZON_PS + 1, 1);
        w.push(HORIZON_PS + 5, 2);
        w.push(7, 3);
        assert_eq!(w.pop(), Some((7, 3)));
        assert_eq!(w.pop(), Some((HORIZON_PS + 5, 0)));
        // Equal far expiries keep push order too.
        assert_eq!(w.pop(), Some((HORIZON_PS + 5, 2)));
        // After the anchor jumped far, nearby pushes still order.
        w.push(3 * HORIZON_PS, 4);
        assert_eq!(w.pop(), Some((3 * HORIZON_PS, 4)));
        assert_eq!(w.pop(), Some((3 * HORIZON_PS + 1, 1)));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        w.push(1, 0);
        w.push(HORIZON_PS * 2, 1);
        w.push(1, 2);
        assert_eq!(w.len(), 3);
        w.pop();
        assert_eq!(w.len(), 2);
        drain(&mut w);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut w = TimerWheel::new();
        assert_eq!(w.high_water(), 0);
        for i in 0..5u32 {
            w.push(10 + i as u64, i);
        }
        assert_eq!(w.high_water(), 5);
        drain(&mut w);
        assert_eq!(w.high_water(), 5, "high water is monotone");
        w.push(1 << 20, 9);
        assert_eq!(w.high_water(), 5);
    }

    #[test]
    fn cascades_are_counted() {
        let mut w = TimerWheel::new();
        // Two distinct expiries sharing one level-2 bucket: finding
        // the earlier one must cascade both down. (A singleton bucket
        // would short-circuit without cascading — that's the fast
        // path, covered by `interleaved_push_pop_matches_reference_heap`.)
        w.push(1 << (2 * BITS), 0);
        w.push((1 << (2 * BITS)) + 1, 1);
        assert_eq!(w.cascades(), 0);
        assert_eq!(w.pop(), Some((1 << (2 * BITS), 0)));
        assert!(w.cascades() >= 2);
    }

    #[test]
    fn mixed_bucket_rollover_cascades_each_entry_once() {
        // Two expiries 1 ps apart deep in level 7. The classic hashed
        // wheel rolls the survivor down one level per pop iteration
        // (≈ one re-file per level); the batched cascade files each
        // entry exactly once, so the cascade counter equals the bucket
        // size and nothing recascades on the follow-up pop.
        let mut w = TimerWheel::new();
        let base = 1u64 << (BITS * 7);
        w.push(base, 0);
        w.push(base + 1, 1);
        assert_eq!(w.pop(), Some((base, 0)));
        assert_eq!(w.cascades(), 2, "one batched pass, one count per entry");
        assert_eq!(w.pop(), Some((base + 1, 1)));
        assert_eq!(
            w.cascades(),
            2,
            "survivor re-filed once, popped via fast path"
        );
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn pop_before_leaves_wheel_intact_and_accepts_earlier_pushes() {
        let mut w = TimerWheel::new();
        w.push(10, 0);
        w.push(5_000, 1);
        w.push(1 << 20, 2);
        assert_eq!(w.pop_before(100), Ok(Some((10, 0))));
        // Next event (5000) is out of window: reported, not removed,
        // and the anchor stays at 10.
        assert_eq!(w.pop_before(100), Err(5_000));
        assert_eq!(w.len(), 2);
        // A windowed driver may now inject events anywhere at or after
        // the last popped expiry — including *before* the reported
        // minimum — and ordering must hold.
        w.push(50, 3);
        w.push(4_999, 4);
        assert_eq!(w.pop_before(100), Ok(Some((50, 3))));
        assert_eq!(w.pop_before(100), Err(4_999));
        assert_eq!(w.pop(), Some((4_999, 4)));
        assert_eq!(w.pop(), Some((5_000, 1)));
        // Far-horizon minimum is reported without committing either.
        w.push(3 * HORIZON_PS, 5);
        assert_eq!(w.pop_before(1 << 20), Err(1 << 20));
        assert_eq!(w.pop(), Some((1 << 20, 2)));
        assert_eq!(w.pop_before(HORIZON_PS), Err(3 * HORIZON_PS));
        w.push((1 << 20) + 7, 6);
        assert_eq!(w.pop(), Some(((1 << 20) + 7, 6)));
        assert_eq!(w.pop(), Some((3 * HORIZON_PS, 5)));
        assert_eq!(w.pop_before(u64::MAX), Ok(None));
    }

    #[test]
    fn pop_before_same_instant_batch_keeps_seq_order_across_windows() {
        let mut w = TimerWheel::new();
        for i in 0..4u32 {
            w.push(200, i);
        }
        assert_eq!(w.pop_before(200), Err(200));
        // The batch was not disturbed: draining pops in push order.
        for i in 0..4u32 {
            assert_eq!(w.pop_before(201), Ok(Some((200, i))));
        }
        assert_eq!(w.pop_before(201), Ok(None));
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Deterministic pseudo-random op mix, compared op-for-op
        // against the exact heap the wheel replaced.
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for i in 0..20_000u32 {
            if rng() % 3 != 0 {
                // Push with a delay profile spanning all levels.
                let exp = rng() % 40;
                let at = now + (rng() % (1 << exp.min(50)));
                wheel.push(at, i);
                heap.push(Reverse((at, seq, i)));
                seq += 1;
            } else {
                let want = heap.pop().map(|Reverse((at, _, p))| (at, p));
                let got = wheel.pop();
                assert_eq!(got, want, "divergence after {i} ops");
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        loop {
            let want = heap.pop().map(|Reverse((at, _, p))| (at, p));
            let got = wheel.pop();
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
