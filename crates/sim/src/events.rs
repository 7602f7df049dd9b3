//! Event scheduling primitives for the event-driven engine core.
//!
//! Two calendar-queue structures back the simulator's cycle-skipping:
//!
//! * [`CalendarWheel`] — the NoC/DRAM event wheel. The engine schedules
//!   each SM's next wake-up at an absolute cycle (the earliest warp
//!   `ready_at`, which is a memory/NoC completion time when the SM is
//!   fully memory-stalled) and pops wake-ups in `(cycle, id)` order.
//!   Empty buckets are skipped through an occupancy bitmap, so when
//!   every SM is parked the clock jumps directly to the next ready
//!   event.
//! * [`CompletionRing`] — the MSHR completion ring. A capacity-bounded
//!   multiset of absolute completion times (MSHR entries, store-buffer
//!   slots, outstanding-atomic trackers): admission retires everything
//!   that completed by `now` and, when the structure is full, returns
//!   the earliest outstanding completion as the admission time.
//!
//! Both are drop-in replacements for binary heaps and are **required**
//! to reproduce the heap orderings bit-exactly: the golden 18-cell
//! statistics (`tests/golden_stats.rs`) pin every counter, so the wheel
//! must pop ties by lowest id and the ring must retire and admit at
//! exactly the cycles the heap-based `CapacityQueue` used to.
//!
//! # Layout
//!
//! A wheel holds `W` (a power of two) buckets; an event at absolute
//! cycle `t` lives in bucket `t & (W - 1)`. All buckets within the
//! active window `[cursor, cursor + W)` map to distinct slots, so no
//! per-bucket time tag is needed. Events scheduled at or beyond
//! `cursor + W` overflow into a binary heap and migrate into the wheel
//! as the cursor advances (migration happens before every pop, which
//! keeps every wheel entry at or below every overflow entry — the pop
//! never has to compare the two). A one-bit-per-bucket occupancy bitmap
//! lets the pop scan skip empty regions 64 buckets at a time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of buckets in a [`CalendarWheel`]; covers the engine's run
/// quantum and the Table IV memory round-trips without overflowing.
const WHEEL_BUCKETS: usize = 512;

/// Number of buckets in a [`CompletionRing`]; covers every single-shot
/// memory latency (chains under contention overflow to the heap).
const RING_BUCKETS: usize = 1024;

/// A calendar queue of `(absolute cycle, id)` wake-up events that pops
/// in lexicographic `(cycle, id)` order — the same order as a
/// `BinaryHeap<Reverse<(u64, u32)>>`, in O(1) amortized time per event.
#[derive(Debug)]
pub struct CalendarWheel {
    /// `WHEEL_BUCKETS` buckets of ids; bucket `t & mask` holds the
    /// events at cycle `t` for `t` within `[cursor, cursor + W)`.
    buckets: Vec<Vec<u32>>,
    mask: u64,
    /// Lower bound on every live event's cycle (monotone).
    cursor: u64,
    /// One bit per non-empty bucket, indexed by bucket number.
    occupancy: Vec<u64>,
    /// Events scheduled at `cursor + W` or beyond, migrated into the
    /// wheel as the cursor advances.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    len: usize,
}

impl CalendarWheel {
    /// Creates an empty wheel with its cursor at cycle `start`.
    pub fn new(start: u64) -> Self {
        Self {
            buckets: vec![Vec::new(); WHEEL_BUCKETS],
            mask: (WHEEL_BUCKETS - 1) as u64,
            cursor: start,
            occupancy: vec![0; WHEEL_BUCKETS / 64],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the wheel and moves the cursor to `start` (bucket
    /// allocations are kept for reuse across kernels).
    pub fn reset(&mut self, start: u64) {
        if self.len > 0 {
            for b in &mut self.buckets {
                b.clear();
            }
            self.occupancy.fill(0);
            self.overflow.clear();
            self.len = 0;
        }
        self.cursor = start;
    }

    /// Schedules a wake-up for `id` at absolute cycle `at`. Scheduling
    /// in the past (below the last popped cycle) is clamped to the
    /// present, which keeps the pop order consistent.
    pub fn schedule(&mut self, at: u64, id: u32) {
        let at = at.max(self.cursor);
        self.len += 1;
        if at - self.cursor < WHEEL_BUCKETS as u64 {
            let b = (at & self.mask) as usize;
            self.buckets[b].push(id);
            self.occupancy[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.push(Reverse((at, id)));
        }
    }

    /// Pops the earliest event; ties at the same cycle resolve to the
    /// lowest id. Advances the cursor to the popped cycle.
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Keep the migration invariant: everything below
            // `cursor + W` lives in the wheel, so a non-empty wheel
            // always holds the global minimum.
            while let Some(&Reverse((t, _))) = self.overflow.peek() {
                if t - self.cursor < WHEEL_BUCKETS as u64 {
                    let Reverse((t, id)) = self.overflow.pop().expect("peeked");
                    let b = (t & self.mask) as usize;
                    self.buckets[b].push(id);
                    self.occupancy[b / 64] |= 1 << (b % 64);
                } else {
                    break;
                }
            }
            if let Some((b, t)) = first_occupied(&self.occupancy, self.mask, self.cursor) {
                // Lowest-id tie-break within the bucket (buckets are
                // small: one entry per parked SM at most).
                let (pos, &id) = self.buckets[b]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &id)| id)
                    .expect("occupied bucket is non-empty");
                self.buckets[b].swap_remove(pos);
                if self.buckets[b].is_empty() {
                    self.occupancy[b / 64] &= !(1 << (b % 64));
                }
                self.len -= 1;
                self.cursor = t;
                return Some((t, id));
            }
            // Wheel empty, overflow not: jump the cursor to the
            // overflow minimum and let migration place it.
            let &Reverse((t, _)) = self.overflow.peek().expect("len > 0");
            self.cursor = t;
        }
    }
}

/// A capacity-bounded multiset of absolute completion times: the MSHR
/// completion ring (also used for store-buffer slots and
/// outstanding-atomic trackers).
///
/// Semantics match the heap-based capacity queue it replaces exactly:
/// [`CompletionRing::admit_at`] first retires every completion at or
/// before `now`, then returns `now` if a slot is free, otherwise
/// removes and returns the earliest outstanding completion (the cycle
/// at which the next slot frees up).
#[derive(Debug)]
pub struct CompletionRing {
    /// Completion counts per bucket for cycles in `[cursor, cursor + W)`.
    counts: Vec<u32>,
    mask: u64,
    /// No bucketed completion is below `cursor` (monotone; tracks the
    /// largest retirement cycle seen).
    cursor: u64,
    occupancy: Vec<u64>,
    /// Completions at `cursor + W` or beyond.
    overflow: BinaryHeap<Reverse<u64>>,
    /// Completions pushed *below* the cursor (an SM running behind the
    /// ring's high-water `now` — rare, but must retire exactly).
    early: BinaryHeap<Reverse<u64>>,
    /// Live completions across buckets, overflow, and early.
    outstanding: usize,
    capacity: usize,
    /// Latest completion ever enqueued (for drains).
    high_water: u64,
}

impl CompletionRing {
    /// Creates an empty ring admitting at most `capacity` outstanding
    /// completions.
    pub fn new(capacity: usize) -> Self {
        Self {
            counts: vec![0; RING_BUCKETS],
            mask: (RING_BUCKETS - 1) as u64,
            cursor: 0,
            occupancy: vec![0; RING_BUCKETS / 64],
            overflow: BinaryHeap::new(),
            early: BinaryHeap::new(),
            outstanding: 0,
            capacity,
            high_water: 0,
        }
    }

    /// Live (un-retired) completions.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Returns the time at which a free slot is available (`now` if one
    /// is free already; otherwise the earliest outstanding completion,
    /// which is removed).
    ///
    /// Retirement of completed entries is *lazy*: `outstanding` may
    /// overcount until the ring looks full, because completed-but-
    /// unretired entries only ever make the count too high. If even the
    /// stale count is under capacity a slot is certainly free, so the
    /// common (uncontended) admit skips the retirement sweep entirely;
    /// only an apparently-full ring pays for `CompletionRing::retire`
    /// and re-checks. The admitted time is identical to eager
    /// retirement in every case.
    pub fn admit_at(&mut self, now: u64) -> u64 {
        if self.outstanding < self.capacity {
            return now;
        }
        self.retire(now);
        if self.outstanding < self.capacity {
            now
        } else {
            let t = self.pop_min().expect("full ring is non-empty");
            t.max(now)
        }
    }

    /// Records a transaction completing at `completion`.
    pub fn push(&mut self, completion: u64) {
        self.high_water = self.high_water.max(completion);
        self.outstanding += 1;
        if completion < self.cursor {
            self.early.push(Reverse(completion));
        } else if completion - self.cursor < RING_BUCKETS as u64 {
            let b = (completion & self.mask) as usize;
            self.counts[b] += 1;
            self.occupancy[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.push(Reverse(completion));
        }
    }

    /// Time by which every outstanding entry has completed.
    pub fn drain_time(&self) -> u64 {
        self.high_water
    }

    /// Removes every completion at or before `now` and advances the
    /// cursor past them.
    fn retire(&mut self, now: u64) {
        while let Some(&Reverse(t)) = self.early.peek() {
            if t <= now {
                self.early.pop();
                self.outstanding -= 1;
            } else {
                break;
            }
        }
        if now < self.cursor {
            return;
        }
        // Clear occupied buckets in `[cursor, now]`, window-ordered.
        while let Some((b, t)) = first_occupied(&self.occupancy, self.mask, self.cursor) {
            if t > now {
                break;
            }
            self.outstanding -= self.counts[b] as usize;
            self.counts[b] = 0;
            self.occupancy[b / 64] &= !(1 << (b % 64));
            self.cursor = t;
        }
        self.cursor = now + 1;
        // The advanced cursor widens the window: migrate overflow
        // completions that now fit (or retire them outright).
        while let Some(&Reverse(t)) = self.overflow.peek() {
            if t <= now {
                self.overflow.pop();
                self.outstanding -= 1;
            } else if t - self.cursor < RING_BUCKETS as u64 {
                self.overflow.pop();
                let b = (t & self.mask) as usize;
                self.counts[b] += 1;
                self.occupancy[b / 64] |= 1 << (b % 64);
            } else {
                break;
            }
        }
    }

    /// Removes and returns the earliest outstanding completion.
    fn pop_min(&mut self) -> Option<u64> {
        if self.outstanding == 0 {
            return None;
        }
        let wheel_min = first_occupied(&self.occupancy, self.mask, self.cursor).map(|(_, t)| t);
        let early_min = self.early.peek().map(|&Reverse(t)| t);
        let over_min = self.overflow.peek().map(|&Reverse(t)| t);
        // `early` sits below the cursor and the migration in `retire`
        // keeps the wheel minimum below the overflow front, but a push
        // after the last retire can land anywhere — compare all three.
        let min = [early_min, wheel_min, over_min]
            .into_iter()
            .flatten()
            .min()
            .expect("outstanding > 0");
        self.outstanding -= 1;
        if early_min == Some(min) {
            self.early.pop();
        } else if wheel_min == Some(min) {
            let b = (min & self.mask) as usize;
            self.counts[b] -= 1;
            if self.counts[b] == 0 {
                self.occupancy[b / 64] &= !(1 << (b % 64));
            }
        } else {
            self.overflow.pop();
        }
        Some(min)
    }
}

/// First occupied bucket of a window-ordered `occupancy` bitmap (one
/// bit per bucket of a `mask + 1`-bucket queue whose window starts at
/// `cursor`) and its absolute cycle: the nearest future event. Shared
/// by [`CalendarWheel`] and [`CompletionRing`].
#[inline]
fn first_occupied(occupancy: &[u64], mask: u64, cursor: u64) -> Option<(usize, u64)> {
    let at = |b: usize| Some((b, cursor + ((b as u64).wrapping_sub(cursor) & mask)));
    let start = (cursor & mask) as usize;
    // The window wraps at `start`: scan `[start, W)` then `[0, start)`,
    // adjusting the first word for the offset.
    let words = occupancy.len();
    let (w0, bit0) = (start / 64, start % 64);
    let first = occupancy[w0] & (!0u64 << bit0);
    if first != 0 {
        return at(w0 * 64 + first.trailing_zeros() as usize);
    }
    for i in 1..words {
        let w = (w0 + i) % words;
        if occupancy[w] != 0 {
            return at(w * 64 + occupancy[w].trailing_zeros() as usize);
        }
    }
    let tail = occupancy[w0] & !(!0u64 << bit0);
    if tail != 0 {
        return at(w0 * 64 + tail.trailing_zeros() as usize);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model for the wheel: a plain binary heap.
    #[derive(Default)]
    struct HeapWheel(BinaryHeap<Reverse<(u64, u32)>>);

    impl HeapWheel {
        fn schedule(&mut self, at: u64, id: u32) {
            self.0.push(Reverse((at, id)));
        }
        fn pop(&mut self) -> Option<(u64, u32)> {
            self.0.pop().map(|Reverse(e)| e)
        }
    }

    /// Reference model for the ring: the heap-based capacity queue the
    /// ring replaced (verbatim semantics).
    struct HeapQueue {
        heap: BinaryHeap<Reverse<u64>>,
        capacity: usize,
        high_water: u64,
    }

    impl HeapQueue {
        fn new(capacity: usize) -> Self {
            Self {
                heap: BinaryHeap::new(),
                capacity,
                high_water: 0,
            }
        }
        fn admit_at(&mut self, now: u64) -> u64 {
            while let Some(&Reverse(t)) = self.heap.peek() {
                if t <= now {
                    self.heap.pop();
                } else {
                    break;
                }
            }
            if self.heap.len() < self.capacity {
                now
            } else {
                let Reverse(t) = self.heap.pop().expect("full");
                t.max(now)
            }
        }
        fn push(&mut self, completion: u64) {
            self.high_water = self.high_water.max(completion);
            self.heap.push(Reverse(completion));
        }
    }

    /// Deterministic pseudo-random stream (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn same_cycle_events_pop_in_id_order() {
        let mut w = CalendarWheel::new(100);
        // Insertion order scrambled; same cycle must pop lowest id
        // first — the engine's SM interleaving depends on it.
        w.schedule(107, 9);
        w.schedule(107, 2);
        w.schedule(107, 14);
        w.schedule(107, 0);
        assert_eq!(w.pop(), Some((107, 0)));
        assert_eq!(w.pop(), Some((107, 2)));
        assert_eq!(w.pop(), Some((107, 9)));
        assert_eq!(w.pop(), Some((107, 14)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn wheel_wraps_around_bucket_boundary() {
        // Cycles straddling a multiple of the bucket count land in
        // wrapped bucket indices; order must still come out by cycle.
        let near_wrap = 3 * WHEEL_BUCKETS as u64 - 2;
        let mut w = CalendarWheel::new(near_wrap);
        for (i, dt) in [0u64, 1, 2, 3, 5, 100].iter().enumerate() {
            w.schedule(near_wrap + dt, i as u32);
        }
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push(e);
        }
        let cycles: Vec<u64> = out.iter().map(|&(t, _)| t).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        assert_eq!(cycles, sorted, "pops come out in cycle order");
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], (near_wrap, 0));
        assert_eq!(out[5], (near_wrap + 100, 5));
    }

    #[test]
    fn far_future_events_overflow_and_migrate() {
        let mut w = CalendarWheel::new(0);
        w.schedule(10 * WHEEL_BUCKETS as u64, 1); // overflow
        w.schedule(3, 2); // wheel
        assert_eq!(w.pop(), Some((3, 2)));
        assert_eq!(w.pop(), Some((10 * WHEEL_BUCKETS as u64, 1)));
        // After the cursor advanced, near events re-use migrated space.
        w.schedule(10 * WHEEL_BUCKETS as u64 + 7, 3);
        assert_eq!(w.pop(), Some((10 * WHEEL_BUCKETS as u64 + 7, 3)));
    }

    #[test]
    fn wheel_matches_heap_on_random_workload() {
        let mut w = CalendarWheel::new(0);
        let mut h = HeapWheel::default();
        let mut rng = Rng(7);
        let mut clock = 0u64;
        for i in 0..10_000u32 {
            // Mixed schedule/pop traffic with occasional far-future
            // events (overflow) and same-cycle collisions.
            if !rng.next().is_multiple_of(3) {
                let dt = match rng.next() % 10 {
                    0 => rng.next() % 5_000, // far future
                    _ => rng.next() % 300,   // typical memory latency
                };
                w.schedule(clock + dt, i % 16);
                h.schedule(clock + dt, i % 16);
            } else {
                let a = w.pop();
                let b = h.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    clock = t;
                }
            }
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn ring_admits_immediately_until_full() {
        let mut r = CompletionRing::new(2);
        assert_eq!(r.admit_at(10), 10);
        r.push(50);
        assert_eq!(r.admit_at(11), 11);
        r.push(60);
        // Full: the next admission waits for the earliest completion.
        assert_eq!(r.admit_at(12), 50);
        r.push(70);
        assert_eq!(r.drain_time(), 70);
    }

    #[test]
    fn ring_retires_completions_at_admission() {
        let mut r = CompletionRing::new(1);
        r.push(30);
        // At cycle 31 the single slot has retired: admission is free.
        assert_eq!(r.admit_at(31), 31);
        assert_eq!(r.outstanding(), 0);
    }

    #[test]
    fn ring_handles_out_of_order_admission_times() {
        // SMs run ahead of each other, so `now` is not monotone across
        // admissions; completions may even land below an earlier `now`.
        let mut r = CompletionRing::new(1);
        assert_eq!(r.admit_at(1000), 1000);
        r.push(500); // below the ring's high-water `now`
        assert_eq!(r.admit_at(600), 600, "the 500 completion has retired");
        r.push(650);
        assert_eq!(r.admit_at(620), 650, "full: wait for the live entry");
    }

    #[test]
    fn ring_matches_heap_queue_on_random_workload() {
        for cap in [1usize, 2, 16, 128] {
            let mut r = CompletionRing::new(cap);
            let mut q = HeapQueue::new(cap);
            let mut rng = Rng(cap as u64);
            let mut now = 0u64;
            for _ in 0..10_000 {
                // Non-monotone `now` (SMs interleave out of order) and
                // completions from nearby to far-future (chains).
                now = now.saturating_add(rng.next() % 50).saturating_sub(8);
                let a = r.admit_at(now);
                let b = q.admit_at(now);
                assert_eq!(a, b, "admission diverged at now={now} cap={cap}");
                let completion = a + rng.next() % 4_000;
                r.push(completion);
                q.push(completion);
                assert_eq!(r.drain_time(), q.high_water);
                // The ring retires lazily, so its raw count may
                // transiently overcount; after an explicit sweep at
                // `now` both sides must agree on live entries.
                r.retire(now);
                while q.heap.peek().is_some_and(|&Reverse(t)| t <= now) {
                    q.heap.pop();
                }
                assert_eq!(r.outstanding(), q.heap.len());
            }
        }
    }
}
