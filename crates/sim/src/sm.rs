//! The SM (GPU core) model: warps, lockstep execution of pre-coalesced
//! warp slots, consistency-model ordering, and greedy-then-oldest
//! scheduling with stall classification.

use std::sync::Arc;

use crate::config::ConsistencyModel;
use crate::mem::MemorySystem;
use crate::params::SystemParams;
use crate::stats::{StallBreakdown, StallClass};
use crate::trace::{decode, PackedBlock, Slot};
use ggs_trace::{TraceEvent, Tracer};

/// One warp walking its packed slot records (see
/// [`WarpTrace`](crate::trace::WarpTrace)). It holds its block's shared
/// records, so they stay live while the warp runs.
#[derive(Debug, Clone)]
struct Warp {
    /// The block's records; the warp's own are `records[pos..end]`,
    /// from the next slot on.
    records: Arc<[u32]>,
    pos: usize,
    end: usize,
    block: usize,
    /// Why the warp's ready time (its [`Sm`] `ready` entry) is in the
    /// future (classification of a wait on this warp).
    blocked: StallClass,
    /// Completion time of this warp's most recent atomic (DRF1 program
    /// order between atomics).
    last_atomic_done: u64,
}

#[derive(Debug, Clone)]
struct BlockState {
    warps_left: u32,
}

/// The SM's load-store path: what issuing a slot reads and updates
/// besides the issuing warp.
#[derive(Debug, Clone)]
struct Lsu<'t> {
    id: u32,
    /// The cycle the load-store unit is next free.
    free: u64,
    consistency: ConsistencyModel,
    /// Latest completion time of any transaction this SM issued
    /// (outstanding stores/atomics at kernel end).
    last_completion: u64,
    /// Injected trace sink handle; off by default.
    tracer: Tracer<'t>,
}

/// One streaming multiprocessor: resident warps, a load-store unit, and
/// the issue scheduler.
#[derive(Debug, Clone)]
pub struct Sm<'t> {
    /// Local clock in cycles.
    pub now: u64,
    lsu: Lsu<'t>,
    /// The unfinished resident warps, in assignment order: a warp
    /// leaves when it issues its last slot, and an empty warp never
    /// enters.
    warps: Vec<Warp>,
    /// Each warp's ready time (the cycle it can issue next), index for
    /// index with `warps`. The scheduler scan in [`Sm::step`] runs every
    /// simulated cycle and only needs (ready, index); keeping those in a
    /// dense array avoids striding over the full `Warp` structs.
    ready: Vec<u64>,
    blocks: Vec<BlockState>,
    resident_blocks: u32,
    max_blocks: u32,
    line_shift: u32,
    /// Greedy-then-oldest cursor: the warp that issued last (or, if it
    /// retired, the index it vacated), where the next issue scan starts.
    greedy: usize,
    /// Cycle classification accumulated so far.
    pub stats: StallBreakdown,
    /// Latest ready time of a warp that retired its final slot (tail
    /// pipeline latency still in flight when the warp finished).
    tail: u64,
    /// Start cycle of the last stall sample emitted (stride sampling).
    last_sample: u64,
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
}

/// Raises a warp's ready time to `r`, charging the wait to `c`, if `r`
/// is later than the ready time so far.
fn raise(r: u64, c: StallClass, ready: &mut u64, blocked: &mut StallClass) {
    if r > *ready {
        *ready = r;
        *blocked = c;
    }
}

impl<'t> Sm<'t> {
    /// Creates an SM with its clock at `start`, holding at most
    /// `params.max_blocks_per_sm` blocks of records packed for
    /// `params.line_bytes`.
    pub fn new(id: u32, start: u64, consistency: ConsistencyModel, params: &SystemParams) -> Self {
        Self {
            now: start,
            lsu: Lsu {
                id,
                free: 0,
                consistency,
                last_completion: 0,
                tracer: Tracer::off(),
            },
            warps: Vec::new(),
            ready: Vec::new(),
            blocks: Vec::new(),
            resident_blocks: 0,
            max_blocks: params.max_blocks_per_sm,
            line_shift: params.line_bytes.trailing_zeros(),
            greedy: 0,
            stats: StallBreakdown::default(),
            tail: 0,
            last_sample: 0,
        }
    }

    /// Attach a trace sink handle (stall samples and acquire/release
    /// events); returns the SM for builder-style chaining.
    pub fn with_tracer(mut self, tracer: Tracer<'t>) -> Self {
        self.lsu.tracer = tracer;
        self
    }

    /// Switches the consistency model of the slots still to issue.
    pub(crate) fn set_consistency(&mut self, model: ConsistencyModel) {
        self.lsu.consistency = model;
    }

    /// This SM's id (its index among the GPU's cores).
    pub fn id(&self) -> u32 {
        self.lsu.id
    }

    /// `true` if another thread block can be made resident.
    pub fn has_capacity(&self) -> bool {
        self.resident_blocks < self.max_blocks
    }

    /// Number of unfinished resident warps.
    pub fn live_warps(&self) -> usize {
        self.ready.len()
    }

    /// Makes a thread block resident. Its warps hold the block's records
    /// until each issues its last slot.
    ///
    /// # Panics
    ///
    /// Panics if the SM has no block capacity left.
    pub fn assign_block(&mut self, block: &PackedBlock) {
        assert!(
            self.has_capacity(),
            "SM {} has no block capacity",
            self.id()
        );
        let block_idx = self.blocks.len();
        let mut warps_in_block = 0;
        // An empty warp never issues, so it never enters the scan.
        for range in block.warp_ranges().filter(|r| !r.is_empty()) {
            warps_in_block += 1;
            self.ready.push(self.now);
            self.warps.push(Warp {
                records: Arc::clone(block.records()),
                pos: range.start,
                end: range.end,
                block: block_idx,
                blocked: StallClass::Idle,
                last_atomic_done: 0,
            });
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
        if self.ready.is_empty() {
            return Step::Drained;
        }
        let n = self.ready.len();
        let now = self.now;
        // Issue scan over the flat ready mirror: the first warp at or
        // past the scheduler cursor whose ready time has arrived wins.
        // The stall jump (taken only if both scan halves fail) needs
        // the lexicographic `(ready, idx)` minimum, so the scan also
        // tracks it as it fails — fused here to keep this to two passes
        // total instead of three. `greedy` is at most `n` (one past the
        // last warp, where a retiring last warp leaves it), and wraps to
        // the first warp there.
        let start = self.greedy % n;
        let mut hit = None;
        let mut earliest = (self.ready[start], start);
        for (w, &r) in self.ready[start..].iter().enumerate() {
            if r <= now {
                hit = Some(start + w);
                break;
            }
            earliest = earliest.min((r, start + w));
        }
        if hit.is_none() {
            for (w, &r) in self.ready[..start].iter().enumerate() {
                if r <= now {
                    hit = Some(w);
                    break;
                }
                earliest = earliest.min((r, w));
            }
        }
        if let Some(idx) = hit {
            // Greedy-then-oldest keeps the cursor on the issuing warp:
            // it issues again next cycle while it stays ready.
            self.greedy = idx;
            self.issue(idx, mem);
            self.stats.record(StallClass::Busy, 1);
            self.now += 1;
            return Step::Issued;
        }
        // Nothing ready: jump to the earliest warp. The tie-break is on
        // *array* index (first index at the minimum ready time), so the
        // chosen stall class is independent of the cursor position.
        let (t, i) = earliest;
        let class = self.warps[i].blocked;
        debug_assert!(t > self.now);
        self.stats.record(class, t - self.now);
        // Sampled stall-transition event: at most one per stride window
        // per SM, so hot stalls stay bounded in the trace.
        let tracer = self.lsu.tracer;
        if tracer.enabled() && self.now >= self.last_sample + tracer.stride() {
            self.last_sample = self.now;
            tracer.emit(&TraceEvent::StallSample {
                sm: self.id(),
                cycle: self.now,
                class: class.name(),
                cycles: t - self.now,
            });
        }
        self.now = t;
        Step::Waited
    }

    /// Executes the next slot of warp `idx`.
    fn issue(&mut self, idx: usize, mem: &mut MemorySystem) {
        let warp = &self.warps[idx];
        // Resident warps always have a slot left: a warp leaves the
        // scan when it issues its last one.
        let Some((slot, rest)) = decode(&warp.records[warp.pos..warp.end], self.line_shift) else {
            return;
        };
        let pos = warp.end - rest.len();
        let (ready, blocked, atomic_done) =
            self.lsu.issue(slot, self.now, warp.last_atomic_done, mem);

        let w = &mut self.warps[idx];
        w.pos = pos;
        w.blocked = blocked;
        if let Some(done) = atomic_done {
            w.last_atomic_done = done;
        }
        if w.pos == w.end {
            // Retire the warp, releasing its hold on the block's
            // records. `greedy` stays at `idx`, which now names the
            // following warp, so the next scan starts where it would
            // have after skipping this one; `Vec::remove` keeps the
            // array order the stall tie-break relies on.
            let b = w.block;
            self.tail = self.tail.max(ready);
            self.warps.remove(idx);
            self.ready.remove(idx);
            self.blocks[b].warps_left -= 1;
            if self.blocks[b].warps_left == 0 {
                self.resident_blocks -= 1;
            }
        } else {
            self.ready[idx] = ready;
        }
    }

    /// The time at which this SM finished all its issued work, including
    /// outstanding transactions and its store-buffer drain.
    pub fn finish_time(&self, mem: &MemorySystem) -> u64 {
        self.now
            .max(self.lsu.last_completion)
            .max(self.tail)
            .max(mem.release_drain(self.id()))
    }
}

impl Lsu<'_> {
    /// Issues `slot` at cycle `now` for a warp whose previous atomic
    /// completed at `last_atomic_done`. Returns the warp's next ready
    /// time, the stall class of the wait until then, and the completion
    /// time of the slot's atomics, if it has any.
    fn issue(
        &mut self,
        slot: Slot<'_>,
        now: u64,
        last_atomic_done: u64,
        mem: &mut MemorySystem,
    ) -> (u64, StallClass, Option<u64>) {
        let mut ready = now + 1;
        let mut blocked = StallClass::Comp;

        if slot.compute > 0 {
            raise(
                now + 1 + u64::from(slot.compute),
                StallClass::Comp,
                &mut ready,
                &mut blocked,
            );
        }

        if !slot.loads.is_empty() {
            let start = now.max(self.free);
            self.free = start + slot.loads.len() as u64;
            let mut done = 0;
            for line in slot.load_addrs() {
                let acc = mem.load(self.id, line, start);
                done = done.max(acc.complete_at);
            }
            self.last_completion = self.last_completion.max(done);
            // Loads are blocking (their values feed the next op).
            raise(done, StallClass::Data, &mut ready, &mut blocked);
        }

        if !slot.stores.is_empty() {
            let start = now.max(self.free);
            self.free = start + slot.stores.len() as u64;
            let mut proceed = 0;
            for line in slot.store_addrs() {
                let acc = mem.store(self.id, line, start);
                proceed = proceed.max(acc.proceed_at);
                self.last_completion = self.last_completion.max(acc.complete_at);
            }
            // Stores only block on buffer back-pressure.
            raise(proceed, StallClass::Data, &mut ready, &mut blocked);
        }

        let atomic_done = (!slot.atomics.is_empty()).then(|| {
            self.issue_atomics(slot, now, last_atomic_done, &mut ready, &mut blocked, mem)
        });
        (ready, blocked, atomic_done)
    }

    /// Issues `slot`'s atomics (see [`Self::issue`]) and returns their
    /// completion time.
    fn issue_atomics(
        &mut self,
        slot: Slot<'_>,
        now: u64,
        last_atomic_done: u64,
        ready: &mut u64,
        blocked: &mut StallClass,
        mem: &mut MemorySystem,
    ) -> u64 {
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
            now.max(last_atomic_done)
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
        let start = admitted.max(self.free);
        self.free = start + slot.atomics.len() as u64;

        let mut done = 0;
        let mut proceed = start + 1;
        for addr in slot.atomic_addrs() {
            let acc = mem.atomic(self.id, addr, start);
            done = done.max(acc.complete_at);
            proceed = proceed.max(acc.proceed_at);
        }
        mem.atomic_slot_complete(self.id, done);
        self.last_completion = self.last_completion.max(done);

        // Paired or value-returning atomics block the warp until the
        // value is back; fire-and-forget unpaired atomics only wait for
        // issue back-pressure.
        if self.consistency.atomic_blocks_warp(slot.any_returns) {
            raise(done, StallClass::Sync, ready, blocked);
        } else {
            raise(proceed, StallClass::Sync, ready, blocked);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceKind, HwConfig};
    use crate::params::SystemParams;
    use crate::trace::{KernelTrace, MicroOp, WarpTrace};

    /// Packs `threads` as one block and leaks it with a `'static`
    /// lifetime (test convenience standing in for the engine's borrow of
    /// a kernel).
    fn leak_block(threads: Vec<Vec<MicroOp>>) -> &'static WarpTrace {
        let kernel = KernelTrace::new(threads, 256).unwrap();
        Box::leak(Box::new(
            WarpTrace::pack(&kernel, &SystemParams::default()).unwrap(),
        ))
    }

    fn setup(consistency: ConsistencyModel) -> (MemorySystem<'static>, Sm<'static>) {
        let params = SystemParams::default();
        let mem = MemorySystem::new(&params, HwConfig::new(CoherenceKind::Gpu, consistency));
        let sm = Sm::new(0, 0, consistency, &params);
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
        sm.assign_block(&threads_static.as_window().blocks()[0]);
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
        sm.assign_block(&threads_static.as_window().blocks()[0]);
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
        sm.assign_block(&threads_static.as_window().blocks()[0]);
        run_to_completion(&mut sm, &mut mem);
        assert_eq!(mem.counters.l1_misses, 32);
    }

    #[test]
    fn drf1_serializes_atomics_drfrlx_overlaps() {
        // One lane issuing 8 atomics to different lines.
        let mk = || -> &'static WarpTrace {
            let threads: Vec<Vec<MicroOp>> =
                vec![(0..8u64).map(|i| MicroOp::atomic(i * 4096)).collect()];
            leak_block(threads)
        };
        let (mut mem1, mut sm1) = setup(ConsistencyModel::Drf1);
        sm1.assign_block(&mk().as_window().blocks()[0]);
        let t1 = run_to_completion(&mut sm1, &mut mem1);

        let (mut memr, mut smr) = setup(ConsistencyModel::DrfRlx);
        smr.assign_block(&mk().as_window().blocks()[0]);
        let tr = run_to_completion(&mut smr, &mut memr);

        assert!(
            tr * 3 < t1,
            "DRFrlx ({tr}) should be much faster than DRF1 ({t1})"
        );
        assert!(sm1.stats.get(StallClass::Sync) > smr.stats.get(StallClass::Sync));
    }

    #[test]
    fn drf0_is_slower_than_drf1_for_atomics() {
        let mk = || -> &'static WarpTrace {
            let threads: Vec<Vec<MicroOp>> = vec![(0..8u64)
                .flat_map(|i| [MicroOp::load(0x100000), MicroOp::atomic(i * 4096)])
                .collect()];
            leak_block(threads)
        };
        let (mut mem0, mut sm0) = setup(ConsistencyModel::Drf0);
        sm0.assign_block(&mk().as_window().blocks()[0]);
        let t0 = run_to_completion(&mut sm0, &mut mem0);

        let (mut mem1, mut sm1) = setup(ConsistencyModel::Drf1);
        sm1.assign_block(&mk().as_window().blocks()[0]);
        let t1 = run_to_completion(&mut sm1, &mut mem1);

        assert!(t0 > t1, "DRF0 ({t0}) should be slower than DRF1 ({t1})");
        // DRF0 invalidates at every atomic: the repeated loads never hit.
        assert!(mem0.counters.l1_hits < mem1.counters.l1_hits);
    }

    #[test]
    fn returning_atomics_block_even_under_drfrlx() {
        let mk = |returns: bool| -> &'static WarpTrace {
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
        sm_a.assign_block(&mk(true).as_window().blocks()[0]);
        let t_ret = run_to_completion(&mut sm_a, &mut mem_a);

        let (mut mem_b, mut sm_b) = setup(ConsistencyModel::DrfRlx);
        sm_b.assign_block(&mk(false).as_window().blocks()[0]);
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
            sm.assign_block(&threads_static.as_window().blocks()[0]);
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
        sm.assign_block(&threads_static.as_window().blocks()[0]);
        let t = run_to_completion(&mut sm, &mut mem);
        assert!(t >= 100, "warp runs as long as its longest lane");
    }

    /// A kernel shaped to stress the issue scan: `tb_size` 96 with an
    /// empty middle warp in every block, divergent lane lengths, and
    /// seven blocks for an SM that holds two, so warps retire and new
    /// blocks are appended while the scheduler cursor sits at the end.
    fn crafted_kernel() -> &'static WarpTrace {
        let threads: Vec<Vec<MicroOp>> = (0..7 * 96u64)
            .map(|t| {
                let (block, lane) = (t / 96, t % 96);
                match lane / 32 {
                    0 => (0..1 + lane % 7 + block)
                        .map(|k| match k % 3 {
                            0 => MicroOp::load(block * 4096 + lane * 4 + k * 256),
                            1 => MicroOp::compute((lane % 5 + 1) as u16),
                            _ => MicroOp::atomic((k % 4) * 4),
                        })
                        .collect(),
                    1 => Vec::new(),
                    _ => (0..1 + (lane % 3) * 2)
                        .map(|k| {
                            if k % 2 == 0 {
                                MicroOp::store(block * 8192 + lane * 64)
                            } else {
                                MicroOp::load(lane * 4 + k * 64)
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        let kernel = KernelTrace::new(threads, 96).unwrap();
        Box::leak(Box::new(
            WarpTrace::pack(&kernel, &SystemParams::default()).unwrap(),
        ))
    }

    /// Runs the crafted kernel on one SM, feeding blocks as capacity
    /// frees up, and checks the scheduler's invariants after every
    /// step. Returns the finish time, the stall breakdown, and how many
    /// blocks were appended with the cursor past the last warp.
    fn run_crafted(hw: HwConfig) -> (u64, StallBreakdown, usize) {
        let trace = crafted_kernel();
        let blocks = trace.num_blocks() as usize;
        let params = SystemParams {
            max_blocks_per_sm: 2,
            ..SystemParams::default()
        };
        let mut mem = MemorySystem::new(&params, hw);
        let mut sm = Sm::new(0, 0, hw.consistency, &params);
        let (mut next, mut appended_at_end) = (0, 0);
        loop {
            while sm.has_capacity() && next < blocks {
                if sm.greedy > 0 && sm.greedy == sm.ready.len() {
                    appended_at_end += 1;
                }
                sm.assign_block(&trace.as_window().blocks()[next]);
                next += 1;
            }
            let step = sm.step(&mut mem);
            // Only live warps are resident: one ready entry per warp,
            // each with a slot left, matching the blocks' live counts.
            assert_eq!(sm.ready.len(), sm.live_warps());
            assert_eq!(sm.warps.len(), sm.ready.len());
            assert!(sm.warps.iter().all(|w| w.pos < w.end));
            let left: u32 = sm.blocks.iter().map(|b| b.warps_left).sum();
            assert_eq!(left as usize, sm.live_warps());
            if step == Step::Drained && next == blocks {
                return (sm.finish_time(&mem), sm.stats, appended_at_end);
            }
        }
    }

    #[test]
    fn scan_order_and_stalls_are_pinned_on_a_crafted_kernel() {
        // Recorded with the scheduler that parked finished and empty
        // warps in the scan; dropping them must not move a cycle.
        let expected: [(u64, [u64; 5]); 6] = [
            (5254, [105, 93, 2765, 2083, 0]), // GPU, DRF0
            (3717, [105, 89, 2432, 852, 0]),  // GPU, DRF1
            (3313, [105, 101, 2844, 24, 0]),  // GPU, DRFrlx
            (3784, [105, 97, 2881, 493, 0]),  // DeNovo, DRF0
            (2763, [105, 87, 2208, 148, 0]),  // DeNovo, DRF1
            (2738, [105, 80, 2241, 97, 0]),   // DeNovo, DRFrlx
        ];
        for (hw, (finish, cycles)) in HwConfig::all().zip(expected) {
            let (t, stats, appended_at_end) = run_crafted(hw);
            assert_eq!(t, finish, "{hw:?} finish time");
            let mut want = StallBreakdown::default();
            for (class, n) in StallClass::ALL.into_iter().zip(cycles) {
                want.record(class, n);
            }
            assert_eq!(stats, want, "{hw:?} stalls");
            assert!(
                appended_at_end > 0,
                "a block must arrive behind a retired last warp"
            );
        }
    }

    #[test]
    fn stall_tie_breaks_on_array_index_not_cursor() {
        // Two warps become ready at the same cycle; the stall is charged
        // to the lower index even though the cursor sits on the other.
        let threads_static = leak_block(vec![vec![MicroOp::compute(1)]; 64]);
        let (mut mem, mut sm) = setup(ConsistencyModel::Drf1);
        sm.assign_block(&threads_static.as_window().blocks()[0]);
        sm.ready = vec![10, 10];
        sm.warps[0].blocked = StallClass::Data;
        sm.warps[1].blocked = StallClass::Comp;
        sm.greedy = 1;
        assert_eq!(sm.step(&mut mem), Step::Waited);
        assert_eq!((sm.now, sm.stats.get(StallClass::Data)), (10, 10));
        assert_eq!(sm.stats.get(StallClass::Comp), 0);
    }
}
