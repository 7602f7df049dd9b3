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
//! The ring holds [`RING_BUCKETS`] `u16` count buckets in a fixed array;
//! a completion at absolute cycle `t` lives in bucket `t & (W - 1)`.
//! All buckets within the active window `[cursor, cursor + W)` map to
//! distinct slots, so no per-bucket time tag is needed. Completions at
//! or beyond `cursor + W` overflow into a binary heap and migrate into
//! the ring as the cursor advances; completions below the cursor go to
//! a second heap. A one-bit-per-bucket occupancy bitmap (32 words) and
//! a summary word with one bit per non-empty occupancy word make the
//! next completion a rotate and two `trailing_zeros` away.
//!
//! A bucket's count never exceeds `outstanding`, which never exceeds
//! the capacity, and [`SystemParams::validate`](crate::SystemParams::validate)
//! bounds the capacities by `u16::MAX`, so a count cannot wrap.
//!
//! Admission while the ring is not full and a push into the window are
//! inlined at their call sites; retirement, the full-ring pop and the
//! heap paths are out of line.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of buckets in a [`CompletionRing`]; covers every single-shot
/// memory latency (chains under contention overflow to the heap).
const RING_BUCKETS: usize = 2048;
const MASK: u64 = RING_BUCKETS as u64 - 1;
/// Occupancy words, one bit per bucket; the summary word has one bit
/// per occupancy word.
const WORDS: usize = RING_BUCKETS / 64;
const _: () = assert!(WORDS == u32::BITS as usize);

/// A capacity-bounded multiset of absolute completion times: the MSHR
/// completion ring (also used for store-buffer slots and
/// outstanding-atomic trackers).
///
/// Semantics match the heap-based capacity queue it replaces exactly:
/// [`CompletionRing::admit_at`] first retires every completion at or
/// before `now`, then returns `now` if a slot is free, otherwise
/// removes and returns the earliest outstanding completion (the cycle
/// at which the next slot frees up).
#[derive(Debug, Clone)]
pub(crate) struct CompletionRing {
    /// Completion counts per bucket for cycles in `[cursor, cursor + W)`.
    counts: [u16; RING_BUCKETS],
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` is non-empty.
    occupancy: [u64; WORDS],
    /// Bit `w` is set iff `occupancy[w]` is non-zero.
    summary: u32,
    /// No bucketed completion is below `cursor` (monotone; tracks the
    /// largest retirement cycle seen).
    cursor: u64,
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
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `u16::MAX`, where a bucket count
    /// could wrap (validated parameters never do).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            capacity <= usize::from(u16::MAX),
            "completion ring capacity {capacity} exceeds u16::MAX"
        );
        Self {
            counts: [0; RING_BUCKETS],
            occupancy: [0; WORDS],
            summary: 0,
            cursor: 0,
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
    #[inline]
    pub(crate) fn admit_at(&mut self, now: u64) -> u64 {
        if self.outstanding < self.capacity {
            now
        } else {
            self.admit_full(now)
        }
    }

    /// [`CompletionRing::admit_at`] on a ring that looks full.
    #[inline(never)]
    fn admit_full(&mut self, now: u64) -> u64 {
        self.retire(now);
        if self.outstanding < self.capacity {
            now
        } else {
            let t = self.pop_min().expect("full ring is non-empty");
            t.max(now)
        }
    }

    /// Records a transaction completing at `completion`.
    #[inline]
    pub(crate) fn push(&mut self, completion: u64) {
        self.high_water = self.high_water.max(completion);
        self.outstanding += 1;
        debug_assert!(self.outstanding <= self.capacity);
        // One unsigned compare covers both ends of the window: below
        // the cursor the difference wraps to a huge value.
        if completion.wrapping_sub(self.cursor) < RING_BUCKETS as u64 {
            self.mark(completion);
        } else {
            self.push_outside(completion);
        }
    }

    /// [`CompletionRing::push`] of a completion outside the window.
    #[inline(never)]
    fn push_outside(&mut self, completion: u64) {
        if completion < self.cursor {
            self.early.push(Reverse(completion));
        } else {
            self.overflow.push(Reverse(completion));
        }
    }

    /// Heap bytes held by the two overflow heaps (the bucket arrays
    /// live inline).
    pub(crate) fn heap_bytes(&self) -> u64 {
        ((self.overflow.capacity() + self.early.capacity()) * size_of::<u64>()) as u64
    }

    /// Time by which every outstanding entry has completed.
    pub(crate) fn drain_time(&self) -> u64 {
        self.high_water
    }

    /// Counts a completion at `t` (inside the window) in its bucket.
    #[inline]
    fn mark(&mut self, t: u64) {
        let b = (t & MASK) as usize;
        self.counts[b] += 1;
        self.occupancy[b / 64] |= 1 << (b % 64);
        self.summary |= 1 << (b / 64);
    }

    /// Marks bucket `b`, whose count just reached zero, empty.
    #[inline]
    fn clear(&mut self, b: usize) {
        let w = b / 64;
        self.occupancy[w] &= !(1 << (b % 64));
        if self.occupancy[w] == 0 {
            self.summary &= !(1 << w);
        }
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
        while let Some((b, t)) = self.first_occupied() {
            if t > now {
                break;
            }
            self.outstanding -= usize::from(self.counts[b]);
            self.counts[b] = 0;
            self.clear(b);
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
                self.mark(t);
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
        let ring_min = self.first_occupied().map(|(_, t)| t);
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
            let b = (min & MASK) as usize;
            self.counts[b] -= 1;
            if self.counts[b] == 0 {
                self.clear(b);
            }
        } else {
            self.overflow.pop();
        }
        Some(min)
    }

    /// First occupied bucket in window order (starting at `cursor`) and
    /// its absolute cycle: the nearest bucketed completion.
    ///
    /// The start word's bits at or above the cursor come first. Failing
    /// those, the summary word rotated to begin just past the start word
    /// names the next non-empty word in window order; it ends with the
    /// start word itself, whose remaining set bits are all below the
    /// cursor (the window's wrapped tail).
    #[inline]
    fn first_occupied(&self) -> Option<(usize, u64)> {
        let start = (self.cursor & MASK) as usize;
        let (w0, bit0) = (start / 64, start % 64);
        let head = self.occupancy[w0] & (!0u64 << bit0);
        let b = if head != 0 {
            w0 * 64 + head.trailing_zeros() as usize
        } else {
            let rotated = self.summary.rotate_right(w0 as u32 + 1);
            if rotated == 0 {
                return None;
            }
            let w = (w0 + 1 + rotated.trailing_zeros() as usize) % WORDS;
            debug_assert_ne!(self.occupancy[w], 0, "summary bit {w} is stale");
            w * 64 + self.occupancy[w].trailing_zeros() as usize
        };
        Some((
            b,
            self.cursor + ((b as u64).wrapping_sub(self.cursor) & MASK),
        ))
    }
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
        let window = RING_BUCKETS as u64;
        for cap in [1usize, 2, 16, 128] {
            let mut r = CompletionRing::new(cap);
            let mut q = HeapQueue::new(cap);
            let mut rng = Rng(cap as u64);
            let mut now = 0u64;
            let mut beyond_window = 0;
            for _ in 0..20_000 {
                // Non-monotone `now` (SMs interleave out of order),
                // with an occasional long jump back or forward.
                now = match rng.next() % 64 {
                    0 => now.saturating_sub(rng.next() % (2 * window)),
                    1 => now + rng.next() % (4 * window),
                    _ => now.saturating_add(rng.next() % 50).saturating_sub(8),
                };
                let a = r.admit_at(now);
                let b = q.admit_at(now);
                assert_eq!(a, b, "admission diverged at now={now} cap={cap}");
                // Completions from nearby to 8 windows ahead (chains),
                // so far-future overflow migrates into the window
                // again and again as the cursor advances.
                let ahead = match rng.next() % 4 {
                    0 => rng.next() % (8 * window),
                    _ => rng.next() % 400,
                };
                let completion = a + ahead;
                beyond_window += u32::from(completion >= r.cursor + window);
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
                r.check_summary();
            }
            assert!(beyond_window > 1_000, "cap={cap}: {beyond_window}");
        }
    }

    impl CompletionRing {
        /// Asserts that the summary word and the occupancy bitmap agree
        /// with the bucket counts.
        fn check_summary(&self) {
            for (w, &word) in self.occupancy.iter().enumerate() {
                assert_eq!(self.summary >> w & 1 == 1, word != 0, "word {w}");
                for bit in 0..64 {
                    let b = w * 64 + bit;
                    assert_eq!(word >> bit & 1 == 1, self.counts[b] != 0, "bucket {b}");
                }
            }
        }
    }

    #[test]
    fn first_occupied_wraps_around_the_summary_word() {
        let window = RING_BUCKETS as u64;
        // A window starting in the last occupancy word, 40 buckets into
        // it: cycles 10_000 * W + 2024 onwards.
        let base = 10_000 * window;
        let cursor = base + (WORDS as u64 - 1) * 64 + 40;
        let at = |t: u64| {
            let mut r = CompletionRing::new(4);
            r.cursor = cursor;
            r.push(t);
            r.first_occupied()
        };
        // The start word at or above the cursor.
        assert_eq!(at(cursor), Some(((cursor & MASK) as usize, cursor)));
        assert_eq!(at(cursor + 23), Some((RING_BUCKETS - 1, cursor + 23)));
        // Past the end of the bitmap: word 0, then further words.
        assert_eq!(at(cursor + 24), Some((0, base + window)));
        assert_eq!(
            at(cursor + 24 + 64 * 5 + 3),
            Some((323, base + window + 323))
        );
        // The low bits of the start word are the window's far end.
        let tail = base + window + (WORDS as u64 - 1) * 64 + 5;
        assert_eq!(at(tail), Some(((tail & MASK) as usize, tail)));
        assert_eq!(
            at(cursor + window - 1),
            Some((((cursor - 1) & MASK) as usize, cursor + window - 1))
        );

        // With several words occupied, the nearest in window order wins
        // and clearing it moves on to the next, tail last.
        let mut r = CompletionRing::new(8);
        r.cursor = cursor;
        for t in [tail, base + window + 700, base + window + 3, cursor + 10] {
            r.push(t);
        }
        let mut order = Vec::new();
        while let Some(t) = r.pop_min() {
            order.push(t);
            r.check_summary();
        }
        assert_eq!(
            order,
            [cursor + 10, base + window + 3, base + window + 700, tail]
        );
        assert_eq!((r.summary, r.first_occupied()), (0, None));
    }
}
