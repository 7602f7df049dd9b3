//! Static data-race and sharing analysis of one kernel trace.
//!
//! A [`ggs_sim::trace::KernelTrace`] gives every thread's exact access
//! sequence, so race detection needs no happens-before machinery within
//! a kernel: the simulated GPU provides *no* intra-kernel ordering
//! between plain accesses of different threads (warps and blocks
//! interleave arbitrarily), and kernel boundaries are global barriers
//! (launch acquire + store drain). Two accesses conflict iff they are
//! in the *same* kernel, touch the same word, come from different
//! threads, and at least one is a plain (unmarked) write:
//!
//! > **race(a)** ⇔ plain accesses to `a` come from ≥ 2 distinct
//! > threads **and** at least one of them is a write.
//!
//! Atomics never race with each other, and a plain *read* concurrent
//! with remote atomic writes is deliberately admitted: that is the
//! paper's benign monotonic-publication idiom (push frontier checks, CC
//! parent chasing), where the reader only ever observes a stale-but-
//! monotonic value and re-converges. Such addresses are still called
//! out by their [`AccessClass`], so the report shows exactly where the
//! discipline relies on monotonicity.
//!
//! The analysis is parametrized by [`ConsistencyModel`] — not because
//! the race rule changes (DRF0/DRF1/DRFrlx all require data-race
//! freedom; they differ in what they promise *racy* programs), but
//! because which atomics act as fences or block their warp does, and
//! the report records those counts using the same
//! [`ConsistencyModel::atomic_is_fence`] /
//! [`ConsistencyModel::atomic_blocks_warp`] predicates the timing model
//! uses, keeping the two views of "synchronizing op" identical.

use std::collections::HashMap;
use std::fmt;

use ggs_sim::config::ConsistencyModel;
use ggs_sim::trace::{KernelTrace, MicroOp};
use ggs_verify::AccessSite;

/// Sharing classification of one address within one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessClass {
    /// Touched by exactly one thread (any mix of ops): private state.
    ThreadPrivate,
    /// Touched by several threads, reads only: shared immutable data
    /// (graph structure, frontier inputs).
    ReadShared,
    /// Touched by several threads; every write is atomic. Plain reads
    /// may coexist — the benign monotonic-publication idiom.
    WriteSharedAtomic,
    /// One thread writes it plainly while other threads access it only
    /// through atomics. Race-free by the rule above, but fragile: a
    /// second plain accessor would race.
    WriteSharedMixed,
    /// Plain accesses from ≥ 2 threads with at least one plain write: a
    /// data race.
    Racy,
}

impl AccessClass {
    /// All classes, in report order.
    pub const ALL: [AccessClass; 5] = [
        AccessClass::ThreadPrivate,
        AccessClass::ReadShared,
        AccessClass::WriteSharedAtomic,
        AccessClass::WriteSharedMixed,
        AccessClass::Racy,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::ThreadPrivate => "private",
            AccessClass::ReadShared => "read-shared",
            AccessClass::WriteSharedAtomic => "atomic-shared",
            AccessClass::WriteSharedMixed => "mixed-shared",
            AccessClass::Racy => "RACY",
        }
    }

    /// Index into `[usize; 5]` count arrays.
    pub fn index(self) -> usize {
        match self {
            AccessClass::ThreadPrivate => 0,
            AccessClass::ReadShared => 1,
            AccessClass::WriteSharedAtomic => 2,
            AccessClass::WriteSharedMixed => 3,
            AccessClass::Racy => 4,
        }
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Up to two distinct thread ids — enough to decide "one thread or
/// several" without storing whole thread sets per address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ThreadPair {
    first: Option<u64>,
    second: Option<u64>,
}

impl ThreadPair {
    fn add(&mut self, t: u64) {
        match (self.first, self.second) {
            (None, _) => self.first = Some(t),
            (Some(a), None) if a != t => self.second = Some(t),
            _ => {}
        }
    }

    fn ids(&self) -> impl Iterator<Item = u64> {
        [self.first, self.second].into_iter().flatten()
    }
}

/// Counts two or more distinct ids across several [`ThreadPair`]s
/// (saturating at 2 — classification only needs "1" vs "≥ 2").
fn distinct2(pairs: &[ThreadPair]) -> usize {
    let mut seen: [Option<u64>; 2] = [None, None];
    for t in pairs.iter().flat_map(|p| p.ids()) {
        match seen {
            [None, _] => seen[0] = Some(t),
            [Some(a), None] if a != t => return 2,
            _ => {}
        }
    }
    usize::from(seen[0].is_some())
}

/// Per-address access summary accumulated over one kernel.
#[derive(Debug, Clone, Copy, Default)]
struct AddrStat {
    plain_reads: u64,
    plain_writes: u64,
    atomics: u64,
    readers: ThreadPair,
    writers: ThreadPair,
    atomic_threads: ThreadPair,
}

impl AddrStat {
    fn plain_accessors(&self) -> usize {
        distinct2(&[self.readers, self.writers])
    }

    fn accessors(&self) -> usize {
        distinct2(&[self.readers, self.writers, self.atomic_threads])
    }

    fn is_race(&self) -> bool {
        self.plain_writes > 0 && self.plain_accessors() >= 2
    }

    fn classify(&self) -> AccessClass {
        if self.is_race() {
            AccessClass::Racy
        } else if self.accessors() <= 1 {
            AccessClass::ThreadPrivate
        } else if self.plain_writes == 0 && self.atomics == 0 {
            AccessClass::ReadShared
        } else if self.plain_writes == 0 {
            AccessClass::WriteSharedAtomic
        } else {
            AccessClass::WriteSharedMixed
        }
    }

    /// Sample of implicated thread ids for diagnostics (up to four).
    fn sample_threads(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.writers.ids().chain(self.readers.ids()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One detected data race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Byte address of the raced word.
    pub addr: u64,
    /// Sample of the racing threads (at least two; first plain writers,
    /// then plain readers).
    pub threads: Vec<u64>,
    /// Plain writes to the address in this kernel.
    pub plain_writes: u64,
    /// Plain reads to the address in this kernel.
    pub plain_reads: u64,
    /// The first concrete conflicting access pair: the earliest plain
    /// write to the address (threads scanned in id order) and the
    /// earliest plain access to it from a different thread.  Rendered
    /// with the same [`AccessSite`] vocabulary ggs-verify uses for
    /// witness schedules.
    pub pair: Option<(AccessSite, AccessSite)>,
}

impl Race {
    /// `thread 0 store @0x40 conflicts with thread 1 load @0x40`, or a
    /// thread-list fallback if the pair could not be reconstructed.
    pub fn conflict_line(&self) -> String {
        match &self.pair {
            Some((a, b)) => format!("{a} conflicts with {b}"),
            None => format!("threads {:?} race", self.threads),
        }
    }
}

/// Finds the first concrete conflicting access pair at `addr`: the
/// earliest plain write (threads in id order, ops in program order) and
/// the earliest plain access from a *different* thread.  By the race
/// rule one of the pair is always a write, so any other-thread plain
/// access conflicts.
fn first_conflicting_pair(kernel: &KernelTrace, addr: u64) -> Option<(AccessSite, AccessSite)> {
    let mut writer: Option<u64> = None;
    'outer: for t in 0..kernel.num_threads() {
        for &op in kernel.thread(t) {
            if matches!(op, MicroOp::Store { addr: a } if a == addr) {
                writer = Some(t);
                break 'outer;
            }
        }
    }
    let wt = writer?;
    for t in 0..kernel.num_threads() {
        if t == wt {
            continue;
        }
        for &op in kernel.thread(t) {
            let other = match op {
                MicroOp::Load { addr: a } if a == addr => AccessSite::thread(t, "load", addr),
                MicroOp::Store { addr: a } if a == addr => AccessSite::thread(t, "store", addr),
                _ => continue,
            };
            return Some((AccessSite::thread(wt, "store", addr), other));
        }
    }
    None
}

/// Which per-direction contract (or the DRF rule itself) was broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Plain conflicting accesses from distinct threads (any
    /// direction): a data race.
    Race,
    /// Push contract: a shared address is updated by a *plain* write —
    /// push may only update remote state through atomics.
    PushPlainSharedWrite,
    /// Pull contract: an address written in a pull kernel is touched by
    /// more than one thread — pull updates must be dense and local.
    PullRemoteWrite,
    /// Pull contract: a pull kernel issued an atomic — pull promises an
    /// entirely synchronization-free epoch.
    PullAtomic,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Race => "data race",
            ViolationKind::PushPlainSharedWrite => "push: plain write to shared address",
            ViolationKind::PullRemoteWrite => "pull: write to non-private address",
            ViolationKind::PullAtomic => "pull: atomic issued",
        })
    }
}

/// One contract violation, attributed to a kernel and (when a memory
/// map is available) a named array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Zero-based kernel index within the workload's launch sequence.
    pub kernel: usize,
    /// Byte address.
    pub addr: u64,
    /// Name of the array containing `addr`, if the workload's memory
    /// map covers it.
    pub region: Option<String>,
    /// What was violated.
    pub kind: ViolationKind,
    /// Human-readable specifics (thread ids, access counts).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {} addr {:#x} ({}): {} — {}",
            self.kernel,
            self.addr,
            self.region.as_deref().unwrap_or("?"),
            self.kind,
            self.detail
        )
    }
}

/// The analysis of one kernel trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAnalysis {
    /// Distinct word addresses touched.
    pub addresses: usize,
    /// Address count per [`AccessClass`], indexed by
    /// [`AccessClass::index`].
    pub class_counts: [usize; 5],
    /// Detected data races (addresses classified [`AccessClass::Racy`]).
    pub races: Vec<Race>,
    /// Addresses whose writes are all atomic but that several threads
    /// touch — the set the push contract inspects. `(addr, accessors≥2)`
    /// is implied; plain writes to shared addresses land in `races` or
    /// `shared_plain_writes`.
    pub shared_plain_writes: Vec<(u64, Vec<u64>)>,
    /// Addresses written (plainly) by their single accessor — the pull
    /// contract requires *all* written addresses to look like this.
    pub private_writes: usize,
    /// Total atomic ops in the kernel.
    pub atomic_ops: u64,
    /// Lowest address an atomic touched, for diagnostics when a
    /// direction forbids atomics entirely.
    pub atomic_addr_sample: Option<u64>,
    /// Atomics that act as acquire/release fences under the analyzed
    /// consistency model ([`ConsistencyModel::atomic_is_fence`]): all
    /// of them under DRF0, none under DRF1/DRFrlx.
    pub fence_atomics: u64,
    /// Atomics that block their warp under the analyzed model
    /// ([`ConsistencyModel::atomic_blocks_warp`]): all under DRF0, only
    /// the value-returning ones under DRF1/DRFrlx.
    pub blocking_atomics: u64,
    /// Total plain stores in the kernel.
    pub plain_writes: u64,
}

/// Builds the per-address access map of `kernel` across all threads and
/// analyzes it under `consistency`.
///
/// Addresses are tracked at word granularity exactly as traced; the
/// caller decides what to do with the result (per-direction contract
/// checks live in [`crate::certify`]).
pub fn analyze_kernel(kernel: &KernelTrace, consistency: ConsistencyModel) -> KernelAnalysis {
    let mut map: HashMap<u64, AddrStat> = HashMap::new();
    let mut atomic_ops = 0u64;
    let mut atomic_addr_sample: Option<u64> = None;
    let mut fence_atomics = 0u64;
    let mut blocking_atomics = 0u64;
    let mut plain_writes = 0u64;

    for t in 0..kernel.num_threads() {
        for &op in kernel.thread(t) {
            match op {
                MicroOp::Load { addr } => {
                    let s = map.entry(addr).or_default();
                    s.plain_reads += 1;
                    s.readers.add(t);
                }
                MicroOp::Store { addr } => {
                    let s = map.entry(addr).or_default();
                    s.plain_writes += 1;
                    s.writers.add(t);
                    plain_writes += 1;
                }
                MicroOp::Atomic {
                    addr,
                    returns_value,
                } => {
                    let s = map.entry(addr).or_default();
                    s.atomics += 1;
                    s.atomic_threads.add(t);
                    atomic_ops += 1;
                    atomic_addr_sample =
                        Some(atomic_addr_sample.map_or(addr, |a: u64| a.min(addr)));
                    if consistency.atomic_is_fence() {
                        fence_atomics += 1;
                    }
                    if consistency.atomic_blocks_warp(returns_value) {
                        blocking_atomics += 1;
                    }
                }
                MicroOp::Compute { .. } => {}
            }
        }
    }

    let mut class_counts = [0usize; 5];
    let mut races = Vec::new();
    let mut shared_plain_writes = Vec::new();
    let mut private_writes = 0usize;
    for (&addr, stat) in &map {
        let class = stat.classify();
        class_counts[class.index()] += 1;
        if class == AccessClass::Racy {
            races.push(Race {
                addr,
                threads: stat.sample_threads(),
                plain_writes: stat.plain_writes,
                plain_reads: stat.plain_reads,
                pair: first_conflicting_pair(kernel, addr),
            });
        } else if stat.plain_writes > 0 {
            if stat.accessors() >= 2 {
                shared_plain_writes.push((addr, stat.sample_threads()));
            } else {
                private_writes += 1;
            }
        }
    }
    races.sort_by_key(|r| r.addr);
    shared_plain_writes.sort_unstable();

    KernelAnalysis {
        addresses: map.len(),
        class_counts,
        races,
        shared_plain_writes,
        private_writes,
        atomic_ops,
        atomic_addr_sample,
        fence_atomics,
        blocking_atomics,
        plain_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(threads: Vec<Vec<MicroOp>>) -> KernelTrace {
        KernelTrace::new(threads, 256).unwrap()
    }

    fn analyze(threads: Vec<Vec<MicroOp>>) -> KernelAnalysis {
        analyze_kernel(&k(threads), ConsistencyModel::Drf1)
    }

    #[test]
    fn two_plain_writers_race() {
        let a = analyze(vec![vec![MicroOp::store(64)], vec![MicroOp::store(64)]]);
        assert_eq!(a.races.len(), 1);
        assert_eq!(a.races[0].threads, vec![0, 1]);
        assert_eq!(a.class_counts[AccessClass::Racy.index()], 1);
        assert_eq!(
            a.races[0].conflict_line(),
            "thread 0 store @0x40 conflicts with thread 1 store @0x40"
        );
    }

    #[test]
    fn writer_and_remote_reader_race() {
        let a = analyze(vec![vec![MicroOp::store(64)], vec![MicroOp::load(64)]]);
        assert_eq!(a.races.len(), 1);
        assert_eq!(a.races[0].plain_writes, 1);
        assert_eq!(a.races[0].plain_reads, 1);
        let (w, r) = a.races[0].pair.expect("pair reconstructed");
        assert_eq!(w, AccessSite::thread(0, "store", 64));
        assert_eq!(r, AccessSite::thread(1, "load", 64));
    }

    #[test]
    fn pair_picks_earliest_writer_even_when_a_reader_comes_first() {
        // Thread 0 only reads; the first plain *writer* is thread 2, and
        // the conflicting partner is the earliest other-thread access
        // (thread 0's load), not another writer.
        let a = analyze(vec![
            vec![MicroOp::load(64)],
            vec![MicroOp::load(128)],
            vec![MicroOp::compute(1), MicroOp::store(64)],
        ]);
        let race = a.races.iter().find(|r| r.addr == 64).expect("race at 0x40");
        let (w, o) = race.pair.expect("pair reconstructed");
        assert_eq!(w, AccessSite::thread(2, "store", 64));
        assert_eq!(o, AccessSite::thread(0, "load", 64));
    }

    #[test]
    fn own_read_write_is_private() {
        let a = analyze(vec![vec![MicroOp::load(64), MicroOp::store(64)]]);
        assert!(a.races.is_empty());
        assert_eq!(a.class_counts[AccessClass::ThreadPrivate.index()], 1);
        assert_eq!(a.private_writes, 1);
    }

    #[test]
    fn shared_reads_are_clean() {
        let a = analyze(vec![vec![MicroOp::load(0)], vec![MicroOp::load(0)]]);
        assert!(a.races.is_empty());
        assert_eq!(a.class_counts[AccessClass::ReadShared.index()], 1);
    }

    #[test]
    fn atomic_updates_never_race() {
        let a = analyze(vec![
            vec![MicroOp::atomic(0)],
            vec![MicroOp::atomic(0), MicroOp::load(0)],
            vec![MicroOp::load(0)],
        ]);
        assert!(a.races.is_empty());
        assert_eq!(a.class_counts[AccessClass::WriteSharedAtomic.index()], 1);
    }

    #[test]
    fn plain_writer_with_remote_atomics_is_mixed_not_racy() {
        let a = analyze(vec![
            vec![MicroOp::store(0), MicroOp::load(0)],
            vec![MicroOp::atomic(0)],
        ]);
        assert!(a.races.is_empty());
        assert_eq!(a.class_counts[AccessClass::WriteSharedMixed.index()], 1);
        // It is still a shared plain write — the push contract rejects it.
        assert_eq!(a.shared_plain_writes.len(), 1);
    }

    #[test]
    fn consistency_changes_sync_counts_not_races() {
        let threads = vec![
            vec![MicroOp::atomic(0), MicroOp::atomic_returning(64)],
            vec![MicroOp::store(128)],
        ];
        let drf0 = analyze_kernel(&k(threads.clone()), ConsistencyModel::Drf0);
        let drf1 = analyze_kernel(&k(threads.clone()), ConsistencyModel::Drf1);
        let rlx = analyze_kernel(&k(threads), ConsistencyModel::DrfRlx);
        for a in [&drf0, &drf1, &rlx] {
            assert!(a.races.is_empty());
            assert_eq!(a.atomic_ops, 2);
        }
        // DRF0: every atomic fences and blocks. DRF1/DRFrlx: none fence,
        // only the value-returning one blocks — the same split
        // `ggs_sim::sm` applies when issuing.
        assert_eq!((drf0.fence_atomics, drf0.blocking_atomics), (2, 2));
        assert_eq!((drf1.fence_atomics, drf1.blocking_atomics), (0, 1));
        assert_eq!((rlx.fence_atomics, rlx.blocking_atomics), (0, 1));
    }

    #[test]
    fn distinct_addresses_do_not_interact() {
        let a = analyze(vec![vec![MicroOp::store(0)], vec![MicroOp::store(64)]]);
        assert!(a.races.is_empty());
        assert_eq!(a.addresses, 2);
        assert_eq!(a.private_writes, 2);
    }

    #[test]
    fn thread_pair_saturates() {
        let mut p = ThreadPair::default();
        p.add(3);
        p.add(3);
        assert_eq!(p.ids().count(), 1);
        p.add(7);
        p.add(9); // ignored beyond two distinct
        assert_eq!(p.ids().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(distinct2(&[p]), 2);
    }
}
