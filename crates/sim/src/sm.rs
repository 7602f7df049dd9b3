//! The SM (GPU core) model: warps, lockstep slot execution with
//! coalescing, consistency-model ordering, and greedy-then-oldest
//! scheduling with stall classification.

use crate::config::ConsistencyModel;
use crate::mem::MemorySystem;
use crate::params::SchedulerPolicy;
use crate::stats::{StallBreakdown, StallClass};
use crate::trace::{MicroOp, ThreadsSlice};
use ggs_trace::{TraceEvent, Tracer};

/// One 32-lane warp executing its lanes' micro-op streams in lockstep
/// slots.
#[derive(Debug)]
struct Warp<'k> {
    lanes: ThreadsSlice<'k>,
    block: usize,
    slot: usize,
    max_len: usize,
    ready_at: u64,
    /// Why `ready_at` is in the future (classification of a wait on this
    /// warp).
    blocked: StallClass,
    /// Completion time of this warp's most recent atomic (DRF1 program
    /// order between atomics).
    last_atomic_done: u64,
    finished: bool,
}

impl<'k> Warp<'k> {
    fn new(lanes: ThreadsSlice<'k>, block: usize, at: u64) -> Self {
        let max_len = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
        Self {
            finished: max_len == 0,
            lanes,
            block,
            slot: 0,
            max_len,
            ready_at: at,
            blocked: StallClass::Idle,
            last_atomic_done: 0,
        }
    }
}

#[derive(Debug)]
struct BlockState {
    warps_left: u32,
}

/// One streaming multiprocessor: resident warps, a load-store unit, and
/// the issue scheduler.
#[derive(Debug)]
pub struct Sm<'k> {
    id: u32,
    /// Local clock in cycles.
    pub now: u64,
    lsu_free: u64,
    warps: Vec<Warp<'k>>,
    /// Flat mirror of each warp's `ready_at`, with finished warps pinned
    /// to `u64::MAX`. The scheduler scan in [`Sm::step`] runs every
    /// simulated cycle and only needs (ready, index); keeping those in a
    /// dense array avoids striding over the full `Warp` structs.
    ready: Vec<u64>,
    /// Count of unfinished resident warps (`ready` entries below
    /// `u64::MAX`).
    live: usize,
    blocks: Vec<BlockState>,
    resident_blocks: u32,
    max_blocks: u32,
    warp_size: u32,
    line_mask: u64,
    consistency: ConsistencyModel,
    scheduler: SchedulerPolicy,
    rr: usize,
    /// Cycle classification accumulated so far.
    pub stats: StallBreakdown,
    /// Latest completion time of any transaction this SM issued
    /// (outstanding stores/atomics at kernel end).
    pub last_completion: u64,
    /// Latest `ready_at` of a warp that retired its final slot (tail
    /// pipeline latency still in flight when the warp finished).
    tail: u64,
    /// Hard simulated-cycle boundary (`u64::MAX` = none): the SM never
    /// advances `now` past it, so a cycle budget is breached at the
    /// exact budget cycle even when the stall jump would skip over it.
    hard_stop: u64,
    /// Injected trace sink handle; off by default.
    tracer: Tracer<'k>,
    /// Start cycle of the last stall sample emitted (stride sampling).
    last_sample: u64,
    /// Reusable per-issue gather buffers (taken out for the duration of
    /// each [`Sm::issue`] call so no allocation happens per
    /// instruction).
    scratch_loads: Vec<u64>,
    scratch_stores: Vec<u64>,
    scratch_atomics: Vec<(u64, bool)>,
}

/// Result of one scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Issued one warp instruction (one Busy cycle consumed).
    Issued,
    /// No warp was ready; the clock jumped forward over classified stall
    /// cycles.
    Waited,
    /// Every resident warp has finished; the SM needs a new block (or is
    /// done).
    Drained,
    /// The SM reached its hard stop (cycle-budget boundary): its clock
    /// sits exactly on the boundary and it must not run further.
    Stopped,
}

impl<'k> Sm<'k> {
    /// Creates an SM with its clock at `start`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        start: u64,
        consistency: ConsistencyModel,
        warp_size: u32,
        line_bytes: u32,
        max_blocks: u32,
        scheduler: SchedulerPolicy,
    ) -> Self {
        Self {
            id,
            now: start,
            lsu_free: 0,
            warps: Vec::new(),
            ready: Vec::new(),
            live: 0,
            blocks: Vec::new(),
            resident_blocks: 0,
            max_blocks,
            warp_size,
            line_mask: !(line_bytes as u64 - 1),
            consistency,
            scheduler,
            rr: 0,
            stats: StallBreakdown::default(),
            last_completion: 0,
            tail: 0,
            hard_stop: u64::MAX,
            tracer: Tracer::off(),
            last_sample: 0,
            scratch_loads: Vec::new(),
            scratch_stores: Vec::new(),
            scratch_atomics: Vec::new(),
        }
    }

    /// Attach a trace sink handle (stall samples and acquire/release
    /// events); returns the SM for builder-style chaining.
    pub fn with_tracer(mut self, tracer: Tracer<'k>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Installs a hard simulated-cycle boundary (a cycle budget): the SM
    /// parks at `stop` instead of issuing or jumping past it, and
    /// [`Sm::step`] reports [`Step::Stopped`] once `now` reaches it.
    pub fn with_hard_stop(mut self, stop: Option<u64>) -> Self {
        self.hard_stop = stop.unwrap_or(u64::MAX);
        self
    }

    /// This SM's id (its index among the GPU's cores).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// `true` if another thread block can be made resident.
    pub fn has_capacity(&self) -> bool {
        self.resident_blocks < self.max_blocks
    }

    /// Number of unfinished resident warps.
    pub fn live_warps(&self) -> usize {
        self.live
    }

    /// Makes a thread block resident, splitting its threads into warps.
    ///
    /// # Panics
    ///
    /// Panics if the SM has no block capacity left.
    pub fn assign_block(&mut self, threads: ThreadsSlice<'k>) {
        assert!(self.has_capacity(), "SM {} has no block capacity", self.id);
        let block_idx = self.blocks.len();
        let mut warps_in_block = 0;
        let n = threads.len();
        let ws = self.warp_size as usize;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + ws).min(n);
            let w = Warp::new(threads.slice(lo, hi), block_idx, self.now);
            lo = hi;
            if w.finished {
                self.ready.push(u64::MAX);
            } else {
                warps_in_block += 1;
                self.live += 1;
                self.ready.push(w.ready_at);
            }
            self.warps.push(w);
        }
        self.blocks.push(BlockState {
            warps_left: warps_in_block,
        });
        if warps_in_block > 0 {
            self.resident_blocks += 1;
        }
    }

    /// Runs one scheduler step against the shared memory system.
    pub fn step(&mut self, mem: &mut MemorySystem) -> Step {
        if self.live == 0 {
            return Step::Drained;
        }
        if self.now >= self.hard_stop {
            return Step::Stopped;
        }
        let n = self.ready.len();
        let now = self.now;
        // Issue scan over the flat ready mirror: the first warp at or
        // past the scheduler cursor whose `ready_at` has arrived wins.
        // Finished warps sit at `u64::MAX`, so they skip naturally.
        // The stall jump (taken only if both scan halves fail) needs
        // the lexicographic `(ready_at, idx)` minimum, so each half
        // also tracks its min as it fails — fused here to keep this to
        // two passes total instead of three.
        let start = self.rr % n;
        let mut hit = None;
        let (mut min_hi, mut argmin_hi) = (u64::MAX, 0usize);
        for (w, &r) in self.ready[start..].iter().enumerate() {
            if r <= now {
                hit = Some(start + w);
                break;
            }
            if r < min_hi {
                min_hi = r;
                argmin_hi = start + w;
            }
        }
        let (mut min_lo, mut argmin_lo) = (u64::MAX, 0usize);
        if hit.is_none() {
            for (w, &r) in self.ready[..start].iter().enumerate() {
                if r <= now {
                    hit = Some(w);
                    break;
                }
                if r < min_lo {
                    min_lo = r;
                    argmin_lo = w;
                }
            }
        }
        if let Some(idx) = hit {
            // Greedy-then-oldest keeps the cursor on the issuing warp
            // (issue again next cycle while it stays ready); round robin
            // rotates past it.
            self.rr = match self.scheduler {
                SchedulerPolicy::GreedyThenOldest => idx,
                SchedulerPolicy::RoundRobin => (idx + 1) % n,
            };
            self.issue(idx, mem);
            self.stats.record(StallClass::Busy, 1);
            self.now += 1;
            return Step::Issued;
        }
        // Nothing ready: jump to the earliest unfinished warp. The
        // tie-break is on *array* index (first index at the minimum
        // `ready_at`), so the chosen stall class is independent of the
        // cursor position: the low half's indices precede the high
        // half's, so on a tie the low half wins.
        let (t, i) = if min_lo <= min_hi {
            (min_lo, argmin_lo)
        } else {
            (min_hi, argmin_hi)
        };
        let class = self.warps[i].blocked;
        debug_assert!(t > self.now);
        // A cycle budget clamps the jump: account the stall only up to
        // the boundary and park exactly on it.
        let (t, stopped) = if t >= self.hard_stop {
            (self.hard_stop, true)
        } else {
            (t, false)
        };
        self.stats.record(class, t - self.now);
        // Sampled stall-transition event: at most one per stride window
        // per SM, so hot stalls stay bounded in the trace.
        if self.tracer.enabled() && self.now >= self.last_sample + self.tracer.stride() {
            self.last_sample = self.now;
            self.tracer.emit(&TraceEvent::StallSample {
                sm: self.id,
                cycle: self.now,
                class: class.name(),
                cycles: t - self.now,
            });
        }
        self.now = t;
        if stopped {
            Step::Stopped
        } else {
            Step::Waited
        }
    }

    /// Executes the next slot of warp `idx`.
    fn issue(&mut self, idx: usize, mem: &mut MemorySystem) {
        let slot = self.warps[idx].slot;
        let now = self.now;

        // Gather this slot's per-lane ops into the reusable scratch
        // buffers (taken out so the warp borrow below stays legal).
        let mut load_lines = std::mem::take(&mut self.scratch_loads);
        let mut store_lines = std::mem::take(&mut self.scratch_stores);
        let mut atomics = std::mem::take(&mut self.scratch_atomics);
        load_lines.clear();
        store_lines.clear();
        atomics.clear();
        let mut comp_cycles: u64 = 0;
        for lane in self.warps[idx].lanes.iter() {
            if let Some(op) = lane.get(slot) {
                match *op {
                    MicroOp::Load { addr } => load_lines.push(addr & self.line_mask),
                    MicroOp::Store { addr } => store_lines.push(addr & self.line_mask),
                    MicroOp::Atomic {
                        addr,
                        returns_value,
                    } => atomics.push((addr, returns_value)),
                    MicroOp::Compute { cycles } => comp_cycles = comp_cycles.max(cycles as u64),
                }
            }
        }
        // Coalesce data accesses: one transaction per unique line.
        // Lanes walk mostly-ascending addresses, so the gathered lines
        // are usually already sorted — check before paying for a sort.
        if !load_lines.is_sorted() {
            load_lines.sort_unstable();
        }
        load_lines.dedup();
        if !store_lines.is_sorted() {
            store_lines.sort_unstable();
        }
        store_lines.dedup();
        let mut ready = now + 1;
        let mut blocked = StallClass::Comp;
        let raise = |r: u64, c: StallClass, ready: &mut u64, blocked: &mut StallClass| {
            if r > *ready {
                *ready = r;
                *blocked = c;
            }
        };

        if comp_cycles > 0 {
            raise(
                now + 1 + comp_cycles,
                StallClass::Comp,
                &mut ready,
                &mut blocked,
            );
        }

        if !load_lines.is_empty() {
            let start = now.max(self.lsu_free);
            self.lsu_free = start + load_lines.len() as u64;
            let mut done = 0;
            for &line in &load_lines {
                let acc = mem.load(self.id, line, start);
                done = done.max(acc.complete_at);
            }
            self.last_completion = self.last_completion.max(done);
            // Loads are blocking (their values feed the next op).
            raise(done, StallClass::Data, &mut ready, &mut blocked);
        }

        if !store_lines.is_empty() {
            let start = now.max(self.lsu_free);
            self.lsu_free = start + store_lines.len() as u64;
            let mut proceed = 0;
            for &line in &store_lines {
                let acc = mem.store(self.id, line, start);
                proceed = proceed.max(acc.proceed_at);
                self.last_completion = self.last_completion.max(acc.complete_at);
            }
            // Stores only block on buffer back-pressure.
            raise(proceed, StallClass::Data, &mut ready, &mut blocked);
        }

        if !atomics.is_empty() {
            self.issue_atomics(idx, &atomics, &mut ready, &mut blocked, mem);
        }

        self.scratch_loads = load_lines;
        self.scratch_stores = store_lines;
        self.scratch_atomics = atomics;

        let w = &mut self.warps[idx];
        w.ready_at = ready;
        w.blocked = blocked;
        w.slot += 1;
        if w.slot >= w.max_len {
            w.finished = true;
            let tail = w.ready_at;
            let b = w.block;
            self.ready[idx] = u64::MAX;
            self.live -= 1;
            self.tail = self.tail.max(tail);
            self.blocks[b].warps_left -= 1;
            if self.blocks[b].warps_left == 0 {
                self.resident_blocks -= 1;
            }
        } else {
            self.ready[idx] = ready;
        }
    }

    fn issue_atomics(
        &mut self,
        idx: usize,
        atomics: &[(u64, bool)],
        ready: &mut u64,
        blocked: &mut StallClass,
        mem: &mut MemorySystem,
    ) {
        let now = self.now;
        let any_returns = atomics.iter().any(|&(_, r)| r);
        let raise = |r: u64, c: StallClass, ready: &mut u64, blocked: &mut StallClass| {
            if r > *ready {
                *ready = r;
                *blocked = c;
            }
        };

        // Ordering constraints before issue (shared predicates on
        // ConsistencyModel keep this in lockstep with ggs-check).
        let issue_from = if self.consistency.atomic_is_fence() {
            // Paired atomic: release (drain own writes) + acquire
            // (self-invalidate) around it.
            let drain = mem.release_drain(self.id);
            mem.acquire(self.id);
            if self.tracer.enabled() {
                self.tracer.emit(&TraceEvent::AcquireRelease {
                    sm: self.id,
                    cycle: now,
                    drain_to: drain,
                });
            }
            now.max(drain)
        } else if self.consistency.atomics_program_ordered() {
            // Program order between atomics: wait for this warp's
            // previous atomic.
            now.max(self.warps[idx].last_atomic_done)
        } else {
            now
        };
        if issue_from > now {
            raise(issue_from, StallClass::Sync, ready, blocked);
        }

        // One outstanding-atomic tracker per warp atomic instruction;
        // back-pressure bounds DRFrlx MLP.
        let admitted = mem.atomic_slot_admit(self.id, issue_from);
        // LSU occupancy: one transaction per lane (atomics to the same
        // word are distinct RMWs and serialize downstream).
        let start = admitted.max(self.lsu_free);
        self.lsu_free = start + atomics.len() as u64;

        let mut done = 0;
        let mut proceed = start + 1;
        for &(addr, _) in atomics {
            let acc = mem.atomic(self.id, addr, start);
            done = done.max(acc.complete_at);
            proceed = proceed.max(acc.proceed_at);
        }
        mem.atomic_slot_complete(self.id, done);
        self.last_completion = self.last_completion.max(done);
        self.warps[idx].last_atomic_done = done;

        // Paired or value-returning atomics block the warp until the
        // value is back; fire-and-forget unpaired atomics only wait for
        // issue back-pressure.
        if self.consistency.atomic_blocks_warp(any_returns) {
            raise(done, StallClass::Sync, ready, blocked);
        } else {
            raise(proceed, StallClass::Sync, ready, blocked);
        }
    }

    /// The time at which this SM finished all its issued work, including
    /// outstanding transactions and its store-buffer drain.
    pub fn finish_time(&self, mem: &MemorySystem) -> u64 {
        self.now
            .max(self.last_completion)
            .max(self.tail)
            .max(mem.release_drain(self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceKind, HwConfig};
    use crate::params::SystemParams;
    use crate::trace::KernelTrace;

    /// Leaks `threads` as a block view with a `'static` lifetime (test
    /// convenience standing in for the engine's borrow of a kernel).
    fn leak_block(threads: Vec<Vec<MicroOp>>) -> ThreadsSlice<'static> {
        let kt: &'static KernelTrace = Box::leak(Box::new(KernelTrace::new(threads, 256).unwrap()));
        kt.threads_slice(0, kt.num_threads() as usize)
    }

    fn setup(consistency: ConsistencyModel) -> (MemorySystem<'static>, Sm<'static>) {
        let params = SystemParams::default();
        let mem = MemorySystem::new(&params, HwConfig::new(CoherenceKind::Gpu, consistency));
        let sm = Sm::new(
            0,
            0,
            consistency,
            32,
            64,
            8,
            SchedulerPolicy::GreedyThenOldest,
        );
        (mem, sm)
    }

    fn run_to_completion(sm: &mut Sm<'_>, mem: &mut MemorySystem) -> u64 {
        loop {
            match sm.step(mem) {
                Step::Drained => return sm.finish_time(mem),
                _ => continue,
            }
        }
    }

    #[test]
    fn empty_sm_drains_immediately() {
        let (mut mem, mut sm) = setup(ConsistencyModel::Drf1);
        assert_eq!(sm.step(&mut mem), Step::Drained);
    }

    #[test]
    fn compute_only_warp_is_comp_bound() {
        let threads: Vec<Vec<MicroOp>> = vec![vec![MicroOp::compute(10); 4]; 32];
        let (mut mem, mut sm) = setup(ConsistencyModel::Drf1);
        let threads_static = leak_block(threads);
        sm.assign_block(threads_static);
        let t = run_to_completion(&mut sm, &mut mem);
        assert!(t >= 40, "4 slots x 10 cycles");
        assert!(sm.stats.get(StallClass::Comp) > 0);
        assert_eq!(sm.stats.get(StallClass::Data), 0);
    }

    #[test]
    fn coalesced_loads_are_one_transaction() {
        // All 32 lanes load consecutive words in one line.
        let threads: Vec<Vec<MicroOp>> = (0..32).map(|i| vec![MicroOp::load(i * 4)]).collect();
        let (mut mem, mut sm) = setup(ConsistencyModel::Drf1);
        let threads_static = leak_block(threads);
        sm.assign_block(threads_static);
        run_to_completion(&mut sm, &mut mem);
        assert_eq!(
            mem.counters.l1_misses, 2,
            "32 consecutive words span exactly two 64-byte lines"
        );
    }

    #[test]
    fn scattered_loads_are_many_transactions() {
        let threads: Vec<Vec<MicroOp>> =
            (0..32u64).map(|i| vec![MicroOp::load(i * 4096)]).collect();
        let (mut mem, mut sm) = setup(ConsistencyModel::Drf1);
        let threads_static = leak_block(threads);
        sm.assign_block(threads_static);
        run_to_completion(&mut sm, &mut mem);
        assert_eq!(mem.counters.l1_misses, 32);
    }

    #[test]
    fn drf1_serializes_atomics_drfrlx_overlaps() {
        // One lane issuing 8 atomics to different lines.
        let mk = || -> ThreadsSlice<'static> {
            let threads: Vec<Vec<MicroOp>> =
                vec![(0..8u64).map(|i| MicroOp::atomic(i * 4096)).collect()];
            leak_block(threads)
        };
        let (mut mem1, mut sm1) = setup(ConsistencyModel::Drf1);
        sm1.assign_block(mk());
        let t1 = run_to_completion(&mut sm1, &mut mem1);

        let (mut memr, mut smr) = setup(ConsistencyModel::DrfRlx);
        smr.assign_block(mk());
        let tr = run_to_completion(&mut smr, &mut memr);

        assert!(
            tr * 3 < t1,
            "DRFrlx ({tr}) should be much faster than DRF1 ({t1})"
        );
        assert!(sm1.stats.get(StallClass::Sync) > smr.stats.get(StallClass::Sync));
    }

    #[test]
    fn drf0_is_slower_than_drf1_for_atomics() {
        let mk = || -> ThreadsSlice<'static> {
            let threads: Vec<Vec<MicroOp>> = vec![(0..8u64)
                .flat_map(|i| [MicroOp::load(0x100000), MicroOp::atomic(i * 4096)])
                .collect()];
            leak_block(threads)
        };
        let (mut mem0, mut sm0) = setup(ConsistencyModel::Drf0);
        sm0.assign_block(mk());
        let t0 = run_to_completion(&mut sm0, &mut mem0);

        let (mut mem1, mut sm1) = setup(ConsistencyModel::Drf1);
        sm1.assign_block(mk());
        let t1 = run_to_completion(&mut sm1, &mut mem1);

        assert!(t0 > t1, "DRF0 ({t0}) should be slower than DRF1 ({t1})");
        // DRF0 invalidates at every atomic: the repeated loads never hit.
        assert!(mem0.counters.l1_hits < mem1.counters.l1_hits);
    }

    #[test]
    fn returning_atomics_block_even_under_drfrlx() {
        let mk = |returns: bool| -> ThreadsSlice<'static> {
            let op = |i: u64| {
                if returns {
                    MicroOp::atomic_returning(i * 4096)
                } else {
                    MicroOp::atomic(i * 4096)
                }
            };
            let threads: Vec<Vec<MicroOp>> = vec![(0..8u64).map(op).collect()];
            leak_block(threads)
        };
        let (mut mem_a, mut sm_a) = setup(ConsistencyModel::DrfRlx);
        sm_a.assign_block(mk(true));
        let t_ret = run_to_completion(&mut sm_a, &mut mem_a);

        let (mut mem_b, mut sm_b) = setup(ConsistencyModel::DrfRlx);
        sm_b.assign_block(mk(false));
        let t_fire = run_to_completion(&mut sm_b, &mut mem_b);

        assert!(
            t_ret > t_fire * 2,
            "returning atomics ({t_ret}) must serialize vs fire-and-forget ({t_fire})"
        );
    }

    #[test]
    fn block_capacity_tracking() {
        let threads: Vec<Vec<MicroOp>> = vec![vec![MicroOp::compute(1)]; 256];
        let threads_static = leak_block(threads);
        let (mut mem, mut sm) = setup(ConsistencyModel::Drf1);
        for _ in 0..8 {
            assert!(sm.has_capacity());
            sm.assign_block(threads_static);
        }
        assert!(!sm.has_capacity());
        run_to_completion(&mut sm, &mut mem);
        assert!(sm.has_capacity(), "capacity frees after blocks finish");
    }

    #[test]
    fn divergent_lane_lengths_finish_together() {
        // Lane 0 has 100 ops; others 1 op. Warp finishes at slot 100.
        let mut threads: Vec<Vec<MicroOp>> = vec![vec![MicroOp::compute(1)]; 32];
        threads[0] = vec![MicroOp::compute(1); 100];
        let threads_static = leak_block(threads);
        let (mut mem, mut sm) = setup(ConsistencyModel::Drf1);
        sm.assign_block(threads_static);
        let t = run_to_completion(&mut sm, &mut mem);
        assert!(t >= 100, "warp runs as long as its longest lane");
    }
}
