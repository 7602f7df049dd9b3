//! The MSHR completion ring of the memory system.
//!
//! [`CompletionRing`] is a capacity-bounded multiset of absolute
//! completion times (MSHR entries, store-buffer slots,
//! outstanding-atomic trackers): admission retires everything that
//! completed by `now` and, when the structure is full, returns the
//! earliest outstanding completion as the admission time. It admits on
//! every L1 load miss, store and atomic, which is why it is a calendar
//! ring rather than a binary heap: a heap there measurably slows the
//! simulator (see "The event-driven core" in `docs/performance.md`).
//!
//! The ring must reproduce the heap ordering bit-exactly: the golden
//! statistics (`tests/golden_stats.rs`) pin every counter, so it
//! retires and admits at exactly the cycles the heap-based capacity
//! queue it replaced did.
//!
//! # Layout
//!
//! The ring holds `W` (a power of two) count buckets; a completion at
//! absolute cycle `t` lives in bucket `t & (W - 1)`. All buckets within
//! the active window `[cursor, cursor + W)` map to distinct slots, so
//! no per-bucket time tag is needed. Completions at or beyond
//! `cursor + W` overflow into a binary heap and migrate into the ring
//! as the cursor advances; completions below the cursor go to a second
//! heap. A one-bit-per-bucket occupancy bitmap lets retirement skip
//! empty regions 64 buckets at a time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of buckets in a [`CompletionRing`]; covers every single-shot
/// memory latency (chains under contention overflow to the heap).
const RING_BUCKETS: usize = 1024;

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
pub(crate) struct CompletionRing {
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
    pub(crate) fn new(capacity: usize) -> Self {
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
    pub(crate) fn admit_at(&mut self, now: u64) -> u64 {
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
    pub(crate) fn push(&mut self, completion: u64) {
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
    pub(crate) fn drain_time(&self) -> u64 {
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
        let ring_min = first_occupied(&self.occupancy, self.mask, self.cursor).map(|(_, t)| t);
        let early_min = self.early.peek().map(|&Reverse(t)| t);
        let over_min = self.overflow.peek().map(|&Reverse(t)| t);
        // `early` sits below the cursor and the migration in `retire`
        // keeps the bucket minimum below the overflow front, but a push
        // after the last retire can land anywhere — compare all three.
        let min = [early_min, ring_min, over_min]
            .into_iter()
            .flatten()
            .min()
            .expect("outstanding > 0");
        self.outstanding -= 1;
        if early_min == Some(min) {
            self.early.pop();
        } else if ring_min == Some(min) {
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
/// `cursor`) and its absolute cycle: the nearest future completion.
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
        assert_eq!(r.outstanding, 0);
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
                assert_eq!(r.outstanding, q.heap.len());
            }
        }
    }
}
