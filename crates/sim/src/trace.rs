//! The micro-op trace formats kernels are expressed in.
//!
//! Applications emit each GPU kernel as one micro-op stream per thread,
//! handed over as a [`KernelSource`]: a thread count, a block size and
//! an emitter. The simulator executes threads in 32-lane warps: at
//! *slot* `k`, a warp executes op `k` of every lane that still has ops
//! left (shorter lanes simply become inactive — this models
//! loop-trip-count divergence, the dominant divergence in vertex-centric
//! graph kernels). Packing turns a kernel into those warp slots as its
//! threads are emitted, coalesced for one warp and line size, one
//! thread block at a time ([`PackedBlock`]); the records bound the
//! addresses a kernel may touch (a line or word number must fit 32
//! bits). [`KernelSource::windows`] delivers a kernel in
//! [`BlockWindow`]s of consecutive blocks, each packed when it is asked
//! for, and [`KernelSource::pack`] packs it whole as a [`WarpTrace`],
//! its one window; the simulator runs either. A [`KernelTrace`] holds
//! every thread's micro-ops at once, as emitted, for consumers that
//! read threads one by one (the race detector, tests).

use std::ops::Range;
use std::sync::{Arc, Weak};

use crate::config::AtomicMix;
use crate::params::{ParamsError, SystemParams};

/// One micro-operation of a GPU thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Non-atomic load of one 32-bit word. Loads are *blocking*: graph
    /// kernels consume a load's value immediately (pointer chasing), so
    /// the warp waits for completion before its next slot.
    Load {
        /// Byte address.
        addr: u64,
    },
    /// Non-atomic store of one 32-bit word. Stores retire through the
    /// store buffer (GPU coherence) or ownership registration (DeNovo)
    /// and do not block the warp unless back-pressure applies.
    Store {
        /// Byte address.
        addr: u64,
    },
    /// Atomic read-modify-write on one 32-bit word. Ordering and overlap
    /// are governed by the configured consistency model, except that
    /// *value-returning* atomics always block the warp (their result
    /// feeds control flow, as in Connected Components).
    Atomic {
        /// Byte address.
        addr: u64,
        /// `true` if the program consumes the returned value.
        returns_value: bool,
    },
    /// `cycles` of arithmetic occupying the warp's compute pipeline.
    Compute {
        /// Pipeline occupancy in cycles.
        cycles: u16,
    },
}

impl MicroOp {
    /// Convenience constructor for a blocking load.
    pub fn load(addr: u64) -> Self {
        MicroOp::Load { addr }
    }

    /// Convenience constructor for a store.
    pub fn store(addr: u64) -> Self {
        MicroOp::Store { addr }
    }

    /// Convenience constructor for a non-value-returning atomic
    /// (e.g. `atomicAdd` used as a reduction).
    pub fn atomic(addr: u64) -> Self {
        MicroOp::Atomic {
            addr,
            returns_value: false,
        }
    }

    /// Convenience constructor for a value-returning atomic
    /// (e.g. `atomicCAS` whose result drives control flow).
    pub fn atomic_returning(addr: u64) -> Self {
        MicroOp::Atomic {
            addr,
            returns_value: true,
        }
    }

    /// Convenience constructor for a compute burst.
    pub fn compute(cycles: u16) -> Self {
        MicroOp::Compute { cycles }
    }

    /// The byte address touched, if this is a memory operation.
    pub fn address(&self) -> Option<u64> {
        match *self {
            MicroOp::Load { addr } | MicroOp::Store { addr } | MicroOp::Atomic { addr, .. } => {
                Some(addr)
            }
            MicroOp::Compute { .. } => None,
        }
    }
}

/// The per-thread micro-op streams of one kernel launch.
///
/// Thread `i` belongs to thread block `i / tb_size`; blocks are
/// dispatched to SMs in order as resources free up.
///
/// Internally the streams live in one flat arena of [`MicroOp`]s plus a
/// cumulative `u32` offset table (thread `i` is
/// `ops[offsets[i]..offsets[i + 1]]`), so a trace costs two allocations
/// regardless of thread count. Producers hand kernels over as a
/// [`KernelSource`], which packs into warp slots without building this
/// form; [`KernelSource::into_trace`] builds it where a per-thread view
/// is read, and [`WarpTrace::pack`] packs it.
///
/// # Example
///
/// ```
/// use ggs_sim::trace::{KernelTrace, MicroOp};
///
/// let threads = vec![vec![MicroOp::load(0)], vec![MicroOp::compute(4)]];
/// let k = KernelTrace::new(threads, 256)?;
/// assert_eq!(k.num_threads(), 2);
/// assert_eq!(k.num_blocks(), 1);
/// assert_eq!(k.thread(1), [MicroOp::compute(4)]);
/// # Ok::<(), ggs_sim::params::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Every thread's ops, concatenated in thread order.
    ops: Vec<MicroOp>,
    /// `num_threads + 1` cumulative offsets into `ops`.
    offsets: Vec<u32>,
    tb_size: u32,
}

impl KernelTrace {
    /// Creates a kernel trace.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`]:
    /// - [`NonPositive`](ParamsError::NonPositive) if `tb_size` is zero;
    /// - [`TooManyOps`](ParamsError::TooManyOps) if the threads hold more
    ///   ops than the `u32` offset table can index.
    pub fn new(threads: Vec<Vec<MicroOp>>, tb_size: u32) -> Result<Self, ParamsError> {
        Self::build(threads.len(), tb_size, |t, ops| {
            ops.extend_from_slice(&threads[t])
        })
    }

    /// Builds a trace of `num_threads` threads, thread `t`'s ops
    /// appended by `emit(t, ops)`, in order.
    fn build(
        num_threads: usize,
        tb_size: u32,
        mut emit: impl FnMut(usize, &mut Vec<MicroOp>),
    ) -> Result<Self, ParamsError> {
        if tb_size == 0 {
            return Err(ParamsError::NonPositive("tb_size"));
        }
        let mut ops = Vec::new();
        let mut offsets = Vec::with_capacity(num_threads + 1);
        offsets.push(0);
        for t in 0..num_threads {
            emit(t, &mut ops);
            check_op_count(ops.len())?;
            offsets.push(ops.len() as u32);
        }
        ops.shrink_to_fit();
        Ok(Self {
            ops,
            offsets,
            tb_size,
        })
    }

    /// Number of threads (may be less than `num_blocks * tb_size` in the
    /// final block).
    pub fn num_threads(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Thread block size this kernel was generated for.
    pub fn tb_size(&self) -> u32 {
        self.tb_size
    }

    /// Number of thread blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_threads().div_ceil(self.tb_size as u64)
    }

    /// The micro-op stream of one thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn thread(&self, thread: u64) -> &[MicroOp] {
        let t = thread as usize;
        &self.ops[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Total number of micro-ops across all threads.
    pub fn total_ops(&self) -> u64 {
        self.ops.len() as u64
    }
}

/// Checks that `total` entries fit a trace's `u32` offset table.
fn check_op_count(total: usize) -> Result<(), ParamsError> {
    match u32::try_from(total) {
        Ok(_) => Ok(()),
        Err(_) => Err(ParamsError::TooManyOps(total as u64)),
    }
}

/// One kernel launch as its producer emits it: `num_threads` threads in
/// blocks of `tb_size`, and an emitter that appends thread `t`'s ops.
///
/// A consumer takes the kernel once, thread by thread in order:
/// [`Self::windows`] packs it in windows of consecutive thread blocks,
/// each packed only when it is asked for, so at most one window of the
/// kernel's records is built at a time; [`Self::pack`] packs the whole
/// kernel into one [`WarpTrace`]; and [`Self::into_trace`] materializes
/// the per-thread [`KernelTrace`] for consumers that read threads one by
/// one. Packing holds one warp's lanes at a time. An emitter may carry
/// state from one thread to the next (connected components' hooking
/// kernel replays its union-find as it goes), so a kernel dropped before
/// every thread was emitted runs the emitter for the rest: whatever a
/// consumer does with one kernel, the producer's next kernel is the same.
///
/// # Example
///
/// ```
/// use ggs_sim::trace::{KernelSource, MicroOp};
/// use ggs_sim::SystemParams;
///
/// // Three threads; thread t loads t words from address 0.
/// let mut emit = |t: u32, ops: &mut Vec<MicroOp>| {
///     ops.extend((0..t).map(|i| MicroOp::load(u64::from(i) * 4)));
/// };
/// let packed = KernelSource::new(3, 256, &mut emit).pack(&SystemParams::default())?;
/// assert_eq!((packed.num_threads(), packed.total_ops()), (3, 3));
/// let trace = KernelSource::new(3, 256, &mut emit).into_trace()?;
/// assert_eq!(trace.thread(2).len(), 2);
/// # Ok::<(), ggs_sim::params::ParamsError>(())
/// ```
pub struct KernelSource<'e> {
    num_threads: u32,
    tb_size: u32,
    /// The first thread not yet emitted.
    next: u32,
    emit: &'e mut dyn FnMut(u32, &mut Vec<MicroOp>),
}

impl<'e> KernelSource<'e> {
    /// A kernel of `num_threads` threads in blocks of `tb_size`, whose
    /// thread `t` is what `emit(t, ops)` appends to `ops`. Threads are
    /// emitted once each, in order.
    pub fn new(
        num_threads: u32,
        tb_size: u32,
        emit: &'e mut dyn FnMut(u32, &mut Vec<MicroOp>),
    ) -> Self {
        Self {
            num_threads,
            tb_size,
            next: 0,
            emit,
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> u64 {
        self.num_threads.into()
    }

    /// Packs the whole kernel for the warp size and line size of
    /// `params`, one warp at a time: each warp is packed as soon as its
    /// lanes are emitted, so at most one warp's lanes are held.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`]:
    /// - [`NonPositive`](ParamsError::NonPositive) if `tb_size` is zero;
    /// - [`NonPositive`](ParamsError::NonPositive),
    ///   [`TooLarge`](ParamsError::TooLarge) or
    ///   [`NotPowerOfTwo`](ParamsError::NotPowerOfTwo) for a warp size or
    ///   line size that cannot be packed;
    /// - [`AddressOutOfRange`](ParamsError::AddressOutOfRange) for a load
    ///   or store whose line number, or an atomic whose word number, does
    ///   not fit 32 bits;
    /// - [`TooManyOps`](ParamsError::TooManyOps) if one block's records
    ///   outgrow its `u32` offset table.
    pub fn pack(mut self, params: &SystemParams) -> Result<WarpTrace, ParamsError> {
        let mut packer = WarpPacker::new(self.num_threads(), self.tb_size, params)?;
        while let Some(t) = self.next_thread() {
            packer.push_thread(|ops| (self.emit)(t, ops))?;
        }
        packer.finish()
    }

    /// Packs the kernel for the warp size and line size of `params` in
    /// windows of [`SystemParams::window_blocks`] consecutive thread
    /// blocks (the last may hold fewer). A window's threads are emitted
    /// and packed when the window is asked for, so the kernel's records
    /// are never all built at once; each window carries the
    /// [`AtomicMix`] of its own blocks.
    ///
    /// # Errors
    ///
    /// [`NonPositive`](ParamsError::NonPositive) for a zero `tb_size`,
    /// and the geometry errors of [`Self::pack`]; a window that cannot
    /// be packed is yielded as the error of [`Self::pack`], and ends the
    /// windows.
    pub fn windows(self, params: &SystemParams) -> Result<KernelWindows<'e>, ParamsError> {
        Ok(KernelWindows {
            packer: WarpPacker::new(self.num_threads(), self.tb_size, params)?,
            source: self,
            window_blocks: params.window_blocks(),
            done: false,
        })
    }

    /// Materializes every thread's stream as a [`KernelTrace`].
    ///
    /// # Errors
    ///
    /// As [`KernelTrace::new`].
    pub fn into_trace(mut self) -> Result<KernelTrace, ParamsError> {
        KernelTrace::build(self.num_threads as usize, self.tb_size, |_, ops| {
            if let Some(t) = self.next_thread() {
                (self.emit)(t, ops);
            }
        })
    }

    /// The next thread to emit, if any is left.
    fn next_thread(&mut self) -> Option<u32> {
        let t = self.next;
        (t < self.num_threads).then(|| {
            self.next += 1;
            t
        })
    }
}

impl Drop for KernelSource<'_> {
    /// Emits, and discards, the threads no consumer asked for.
    fn drop(&mut self) {
        let mut ops = Vec::new();
        while let Some(t) = self.next_thread() {
            ops.clear();
            (self.emit)(t, &mut ops);
        }
    }
}

impl std::fmt::Debug for KernelSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSource")
            .field("num_threads", &self.num_threads)
            .field("tb_size", &self.tb_size)
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

/// A kernel's windows of consecutive thread blocks, in block order
/// ([`KernelSource::windows`]). A kernel without threads has none.
///
/// The iterator ends after yielding an error. Dropped before its end, it
/// drops its [`KernelSource`], which emits the threads left.
///
/// # Example
///
/// ```
/// use ggs_sim::trace::{KernelSource, MicroOp};
/// use ggs_sim::SystemParams;
///
/// // 100 blocks of 32 threads, on a GPU that packs 4 blocks a window.
/// let params = SystemParams { num_sms: 2, max_blocks_per_sm: 1, ..SystemParams::default() };
/// let mut emit = |t: u32, ops: &mut Vec<MicroOp>| ops.push(MicroOp::load(u64::from(t) * 4));
/// let windows = KernelSource::new(3200, 32, &mut emit).windows(&params)?;
/// let firsts: Vec<u64> = windows.map(|w| w.map(|w| w.first_block())).collect::<Result<_, _>>()?;
/// assert_eq!(firsts.len(), 25);
/// assert_eq!(firsts[1], 4);
/// # Ok::<(), ggs_sim::params::ParamsError>(())
/// ```
#[derive(Debug)]
pub struct KernelWindows<'e> {
    source: KernelSource<'e>,
    packer: WarpPacker,
    window_blocks: u64,
    /// Set once every thread is packed or packing failed.
    done: bool,
}

impl Iterator for KernelWindows<'_> {
    type Item = Result<BlockWindow, ParamsError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done && (self.packer.blocks.len() as u64) < self.window_blocks {
            let packed = match self.source.next_thread() {
                Some(t) => {
                    let emit = &mut self.source.emit;
                    self.packer.push_thread(|ops| emit(t, ops))
                }
                None => {
                    self.done = true;
                    self.packer.finish_block()
                }
            };
            if let Err(e) = packed {
                self.done = true;
                self.packer.blocks.clear();
                return Some(Err(e));
            }
        }
        let window = self.packer.take_window();
        (!window.blocks.is_empty()).then_some(Ok(window))
    }
}

/// Packs a kernel as its threads arrive, in thread order, holding at
/// most one warp's lanes: the one packing loop behind
/// [`KernelSource::pack`], [`KernelSource::windows`] and
/// [`WarpTrace::pack`], whose docs list its errors.
///
/// A warp is `warp_size` consecutive threads of one block, split from
/// the block's first thread, so the packer packs the pending warp when
/// it holds `warp_size` lanes or its last lane ends a block, and the
/// pending block when its last lane arrives; [`Self::finish_block`]
/// packs a partial last warp and block. Packed blocks wait in the
/// packer until [`Self::take_window`] takes them. The lane and record
/// buffers are reused from warp to warp and block to block.
#[derive(Debug)]
pub(crate) struct WarpPacker {
    shape: KernelShape,
    /// The pending warp's ops, lane after lane.
    lane_ops: Vec<MicroOp>,
    /// The unpacked ops of each pending lane that has any, in
    /// `lane_ops`, in lane order.
    lanes: Vec<Range<usize>>,
    /// Lanes the pending warp holds, empty ones included.
    pending: u32,
    scratch: SlotScratch,
    /// The pending block's records, and the offset of each of its packed
    /// warps (starting with 0).
    words: Vec<u32>,
    warps: Vec<u32>,
    /// Packed blocks not yet taken, and their atomic mix.
    blocks: Vec<PackedBlock>,
    atomic_mix: AtomicMix,
    /// The kernel-wide index of the first block not yet taken.
    first: u64,
    /// Threads pushed so far.
    pushed: u64,
    total_ops: u64,
}

impl WarpPacker {
    /// A packer for a kernel of `num_threads` threads in blocks of
    /// `tb_size`, for the warp size and line size of `params`.
    pub(crate) fn new(
        num_threads: u64,
        tb_size: u32,
        params: &SystemParams,
    ) -> Result<Self, ParamsError> {
        if tb_size == 0 {
            return Err(ParamsError::NonPositive("tb_size"));
        }
        let (warp_size, line_bytes) = (params.warp_size, params.line_bytes);
        check_packable(warp_size, line_bytes)?;
        Ok(Self {
            shape: KernelShape {
                num_threads,
                tb_size,
                warp_size,
                line_bytes,
            },
            lane_ops: Vec::new(),
            lanes: Vec::with_capacity(warp_size as usize),
            pending: 0,
            scratch: SlotScratch::default(),
            words: Vec::new(),
            warps: vec![0],
            blocks: Vec::new(),
            atomic_mix: AtomicMix::None,
            first: 0,
            pushed: 0,
            total_ops: 0,
        })
    }

    /// Adds the next thread, whose ops `emit` appends to the vector it
    /// is handed (which may already hold other lanes' ops).
    pub(crate) fn push_thread(
        &mut self,
        emit: impl FnOnce(&mut Vec<MicroOp>),
    ) -> Result<(), ParamsError> {
        let start = self.lane_ops.len();
        emit(&mut self.lane_ops);
        let end = self.lane_ops.len();
        if end > start {
            self.lanes.push(start..end);
        }
        self.total_ops += (end - start) as u64;
        self.pushed += 1;
        self.pending += 1;
        if self.pushed.is_multiple_of(self.shape.tb_size.into()) {
            self.finish_block()?;
        } else if self.pending == self.shape.warp_size {
            self.pack_warp()?;
        }
        Ok(())
    }

    /// Packs the pending warp: at each slot, the next op of every lane
    /// that still has one. A lane leaves once it runs out, so a slot
    /// visits active lanes only.
    fn pack_warp(&mut self) -> Result<(), ParamsError> {
        let line_shift = self.shape.line_bytes.trailing_zeros();
        let Self {
            lane_ops,
            lanes,
            scratch,
            words,
            atomic_mix,
            ..
        } = self;
        while !lanes.is_empty() {
            let ops = lanes.iter_mut().map(|lane| {
                let op = lane_ops[lane.start];
                lane.start += 1;
                op
            });
            *atomic_mix = (*atomic_mix).max(scratch.pack(ops, line_shift, words)?);
            lanes.retain(|lane| !lane.is_empty());
        }
        check_op_count(words.len())?;
        self.warps.push(words.len() as u32);
        self.lane_ops.clear();
        self.pending = 0;
        Ok(())
    }

    /// Packs the pending warp and block, if any thread is pending: the
    /// end of a block, or of the kernel.
    pub(crate) fn finish_block(&mut self) -> Result<(), ParamsError> {
        if self.pending > 0 {
            self.pack_warp()?;
        }
        if self.warps.len() > 1 {
            // The block takes the record buffer, so none is held at the
            // largest block's capacity for the rest of the kernel.
            self.blocks.push(PackedBlock {
                words: Arc::from(std::mem::take(&mut self.words)),
                warps: self.warps.as_slice().into(),
            });
            self.warps.truncate(1);
        }
        Ok(())
    }

    /// Takes the packed blocks not yet taken, as a window.
    pub(crate) fn take_window(&mut self) -> BlockWindow {
        let window = BlockWindow {
            shape: self.shape,
            first: self.first,
            blocks: std::mem::take(&mut self.blocks),
            atomic_mix: std::mem::replace(&mut self.atomic_mix, AtomicMix::None),
        };
        self.first += window.blocks.len() as u64;
        window
    }

    /// Packs the partial last warp and block and returns the whole
    /// kernel.
    pub(crate) fn finish(mut self) -> Result<WarpTrace, ParamsError> {
        self.finish_block()?;
        let mut window = self.take_window();
        window.blocks.shrink_to_fit();
        Ok(WarpTrace {
            window,
            total_ops: self.total_ops,
        })
    }
}

/// Checks that a warp and line geometry can be packed: a warp of
/// 1..=[`WarpTrace::MAX_WARP_SIZE`] lanes and a power-of-two line.
pub(crate) fn check_packable(warp_size: u32, line_bytes: u32) -> Result<(), ParamsError> {
    if warp_size == 0 {
        return Err(ParamsError::NonPositive("warp_size"));
    }
    if warp_size > WarpTrace::MAX_WARP_SIZE {
        return Err(ParamsError::TooLarge {
            what: "warp_size",
            max: WarpTrace::MAX_WARP_SIZE.into(),
        });
    }
    if !line_bytes.is_power_of_two() {
        return Err(ParamsError::NotPowerOfTwo("line_bytes"));
    }
    Ok(())
}

/// What the engine needs of a kernel before its first block: its thread
/// count and block size, and the geometry its blocks were packed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KernelShape {
    pub(crate) num_threads: u64,
    pub(crate) tb_size: u32,
    pub(crate) warp_size: u32,
    pub(crate) line_bytes: u32,
}

impl KernelShape {
    /// Number of thread blocks.
    pub(crate) fn num_blocks(&self) -> u64 {
        self.num_threads.div_ceil(self.tb_size.into())
    }

    /// See [`WarpTrace::check_geometry`].
    pub(crate) fn check_geometry(&self, params: &SystemParams) -> Result<(), ParamsError> {
        for (what, trace, params) in [
            ("warp_size", self.warp_size, params.warp_size),
            ("line_bytes", self.line_bytes, params.line_bytes),
        ] {
            if trace != params {
                return Err(ParamsError::GeometryMismatch {
                    what,
                    trace,
                    params,
                });
            }
        }
        Ok(())
    }
}

/// One thread block packed into warp slots (see [`WarpTrace`] for the
/// record layout).
///
/// The records live in one shared allocation: an SM that makes the
/// block resident holds it from each of the block's warps, so the
/// records are freed once the block's window, or [`WarpTrace`], is
/// dropped and every SM that ran the block has finished it.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBlock {
    /// The block's slot records, warp after warp.
    words: Arc<[u32]>,
    /// `num_warps + 1` cumulative offsets into `words`.
    warps: Box<[u32]>,
}

impl PackedBlock {
    /// Number of warps, empty ones included.
    pub fn num_warps(&self) -> usize {
        self.warps.len() - 1
    }

    /// The records of each warp, in warp order, as a range of
    /// [`Self::records`].
    pub(crate) fn warp_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.warps.windows(2).map(|w| w[0] as usize..w[1] as usize)
    }

    /// The block's shared record allocation.
    pub(crate) fn records(&self) -> &Arc<[u32]> {
        &self.words
    }

    /// The slot records of warp `w`.
    fn slots(&self, w: usize, line_shift: u32) -> Slots<'_> {
        Slots {
            rest: &self.words[self.warps[w] as usize..self.warps[w + 1] as usize],
            line_shift,
        }
    }

    /// Heap bytes of the records and the offset table, 4 bytes per
    /// entry (both are allocated at their exact length).
    pub fn heap_bytes(&self) -> u64 {
        ((self.words.len() + self.warps.len()) * std::mem::size_of::<u32>()) as u64
    }
}

/// A run of consecutive thread blocks of one kernel, packed: the unit a
/// kernel is delivered in ([`KernelSource::windows`]) and a
/// [`Simulation`](crate::engine::Simulation) runs
/// ([`Simulation::run_window`](crate::engine::Simulation::run_window)).
/// A [`WarpTrace`] is the one window of a whole kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWindow {
    shape: KernelShape,
    /// The kernel-wide index of the first block.
    first: u64,
    blocks: Vec<PackedBlock>,
    atomic_mix: AtomicMix,
}

impl BlockWindow {
    /// The kernel-wide index of the window's first block.
    pub fn first_block(&self) -> u64 {
        self.first
    }

    /// The window's blocks, in order.
    pub fn blocks(&self) -> &[PackedBlock] {
        &self.blocks
    }

    /// Which atomics the window's blocks issue (see
    /// [`WarpTrace::atomic_mix`]).
    pub fn atomic_mix(&self) -> AtomicMix {
        self.atomic_mix
    }

    /// Heap bytes held by the window: its blocks'
    /// [`PackedBlock::heap_bytes`] and the block table.
    pub fn heap_bytes(&self) -> u64 {
        let table = self.blocks.capacity() * std::mem::size_of::<PackedBlock>();
        table as u64 + self.blocks.iter().map(PackedBlock::heap_bytes).sum::<u64>()
    }

    pub(crate) fn shape(&self) -> KernelShape {
        self.shape
    }

    /// Block `b` of the kernel, which must lie in the window.
    pub(crate) fn block(&self, b: u64) -> &PackedBlock {
        &self.blocks[(b - self.first) as usize]
    }

    /// The kernel-wide index one past the window's last block.
    pub(crate) fn end_block(&self) -> u64 {
        self.first + self.blocks.len() as u64
    }
}

/// One kernel launch packed into warp slots: the form the simulator
/// executes.
///
/// At slot `k` a warp executes op `k` of every lane that still has ops
/// left. What the SM issues for that slot depends only on the lanes'
/// ops, the warp size and the line size, so packing gathers and
/// coalesces every slot once, and each configuration that simulates the
/// kernel walks the records.
///
/// # Layout
///
/// Each thread block is a [`PackedBlock`]: its warps' slot records in
/// one flat `u32` allocation, warp after warp, found through a
/// `num_warps + 1` cumulative offset table. One record is:
///
/// | words | hold |
/// |---|---|
/// | 1 | load-line count (bits 0–15), store-line count (bits 16–31) |
/// | 1 | atomic count (bits 0–14), any-atomic-returns-a-value flag (bit 15), longest compute burst in cycles (bits 16–31) |
/// | one per load line | the distinct line numbers the lanes load, ascending |
/// | one per store line | the distinct line numbers the lanes store, ascending |
/// | one per atomic | each atomic's word number (`addr / 4`), in lane order |
///
/// Warps split each thread block from its first thread, as the engine
/// hands blocks to SMs, so a block's last warp may be partial. A warp
/// whose lanes hold no ops keeps its index and has no records. The
/// whole kernel is one [`BlockWindow`] ([`Self::as_window`]).
///
/// # Example
///
/// ```
/// use ggs_sim::trace::{KernelTrace, MicroOp, WarpTrace};
/// use ggs_sim::SystemParams;
///
/// // Two lanes load words of one 64-byte line; one also computes.
/// let threads = vec![
///     vec![MicroOp::load(0), MicroOp::compute(4)],
///     vec![MicroOp::load(8)],
/// ];
/// let kernel = KernelTrace::new(threads, 256)?;
/// let packed = WarpTrace::pack(&kernel, &SystemParams::default())?;
/// let slots: Vec<_> = packed.warp(0).collect();
/// assert_eq!(slots.len(), 2);
/// assert_eq!(slots[0].loads, [0]);
/// assert_eq!(slots[1].compute, 4);
/// assert_eq!(packed.total_ops(), 3);
/// # Ok::<(), ggs_sim::params::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WarpTrace {
    window: BlockWindow,
    total_ops: u64,
}

impl WarpTrace {
    /// The widest warp a record's 15-bit atomic count holds.
    pub const MAX_WARP_SIZE: u32 = (1 << 15) - 1;
    const COUNT_BITS: u32 = 16;
    const COUNT_MASK: u32 = (1 << Self::COUNT_BITS) - 1;
    const RETURNS_BIT: u32 = 1 << 15;

    /// Packs `kernel` for the warp size and line size of `params`, thread
    /// by thread, as [`KernelSource::pack`] packs an emitted kernel.
    ///
    /// # Errors
    ///
    /// As [`KernelSource::pack`].
    pub fn pack(kernel: &KernelTrace, params: &SystemParams) -> Result<Self, ParamsError> {
        let mut packer = WarpPacker::new(kernel.num_threads(), kernel.tb_size(), params)?;
        for t in 0..kernel.num_threads() {
            packer.push_thread(|ops| ops.extend_from_slice(kernel.thread(t)))?;
        }
        packer.finish()
    }

    /// Checks that this trace was packed for the warp size and line size
    /// of `params`.
    ///
    /// # Errors
    ///
    /// [`ParamsError::GeometryMismatch`] naming the first parameter that
    /// differs.
    pub fn check_geometry(&self, params: &SystemParams) -> Result<(), ParamsError> {
        self.window.shape.check_geometry(params)
    }

    /// The whole kernel as one window, the form
    /// [`Simulation::run_kernel`](crate::engine::Simulation::run_kernel)
    /// runs it in.
    pub fn as_window(&self) -> &BlockWindow {
        &self.window
    }

    /// Number of threads packed (may be less than
    /// `num_blocks * tb_size` in the final block).
    pub fn num_threads(&self) -> u64 {
        self.window.shape.num_threads
    }

    /// Thread block size the kernel was generated for.
    pub fn tb_size(&self) -> u32 {
        self.window.shape.tb_size
    }

    /// Number of thread blocks.
    pub fn num_blocks(&self) -> u64 {
        self.window.shape.num_blocks()
    }

    /// Warp size the trace was packed for.
    pub fn warp_size(&self) -> u32 {
        self.window.shape.warp_size
    }

    /// Line size in bytes the trace was packed for.
    pub fn line_bytes(&self) -> u32 {
        self.window.shape.line_bytes
    }

    /// Number of warps, empty ones included.
    pub fn num_warps(&self) -> usize {
        self.window.blocks.iter().map(PackedBlock::num_warps).sum()
    }

    /// The slot records of warp `w`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn warp(&self, w: usize) -> Slots<'_> {
        let per_block = self.tb_size().div_ceil(self.warp_size()) as usize;
        self.window.blocks[w / per_block].slots(w % per_block, self.line_shift())
    }

    /// The warps of thread block `b`, in order (none past the last
    /// block).
    pub fn block(&self, b: usize) -> impl Iterator<Item = Slots<'_>> {
        let line_shift = self.line_shift();
        let block = self.window.blocks.get(b);
        let warps = block.map_or(0, PackedBlock::num_warps);
        (0..warps).filter_map(move |w| Some(block?.slots(w, line_shift)))
    }

    /// Which atomics the kernel issues: none, only value-returning ones,
    /// or some fire-and-forget ones. This is all the consistency model
    /// can observe of the kernel (see
    /// [`ConsistencyModel::class_representative`](crate::config::ConsistencyModel::class_representative)).
    pub fn atomic_mix(&self) -> AtomicMix {
        self.window.atomic_mix
    }

    /// Number of thread micro-ops packed into the records.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Heap bytes held by the packed blocks and the block table (see
    /// [`BlockWindow::heap_bytes`]), counted from capacity, which equals
    /// length because packing shrinks each. Capacity-bounded trace
    /// caches use this for their memory accounting.
    pub fn heap_bytes(&self) -> u64 {
        self.window.heap_bytes()
    }

    fn line_shift(&self) -> u32 {
        self.line_bytes().trailing_zeros()
    }
}

/// Watches the blocks of delivered windows that something still holds
/// once their window is dropped: the SMs they are resident on. A window
/// consumer uses it to measure the packed bytes its windowed delivery
/// keeps live: the current window's, plus those of the earlier blocks
/// still running.
#[derive(Debug, Default)]
pub struct BlockWatch {
    /// A weak handle on each watched block's records, with their bytes.
    held: Vec<(Weak<[u32]>, u64)>,
}

impl BlockWatch {
    /// Watches each block of `window` that is held beyond the window
    /// itself. Call it before dropping the window.
    pub fn watch(&mut self, window: &BlockWindow) {
        for block in &window.blocks {
            if Arc::strong_count(&block.words) > 1 {
                let bytes = (block.words.len() * std::mem::size_of::<u32>()) as u64;
                self.held.push((Arc::downgrade(&block.words), bytes));
            }
        }
    }

    /// The record bytes of the watched blocks still held. Forgets the
    /// others, so their memory is returned.
    pub fn held_bytes(&mut self) -> u64 {
        self.held.retain(|(block, _)| block.strong_count() > 0);
        self.held.iter().map(|&(_, bytes)| bytes).sum()
    }
}

/// Reusable gather buffers for a [`WarpPacker`].
#[derive(Debug, Default)]
struct SlotScratch {
    loads: Vec<u32>,
    stores: Vec<u32>,
    atomics: Vec<u32>,
}

impl SlotScratch {
    /// Coalesces one slot's lane ops, appends its record to `words` and
    /// returns the slot's [`AtomicMix`].
    fn pack(
        &mut self,
        ops: impl Iterator<Item = MicroOp>,
        line_shift: u32,
        words: &mut Vec<u32>,
    ) -> Result<AtomicMix, ParamsError> {
        let Self {
            loads,
            stores,
            atomics,
        } = self;
        loads.clear();
        stores.clear();
        atomics.clear();
        let mut returns = false;
        let mut mix = AtomicMix::None;
        let mut compute = 0u16;
        for op in ops {
            match op {
                MicroOp::Load { addr } => loads.push(number(addr, line_shift)?),
                MicroOp::Store { addr } => stores.push(number(addr, line_shift)?),
                MicroOp::Atomic {
                    addr,
                    returns_value,
                } => {
                    atomics.push(number(addr, WORD_SHIFT)?);
                    returns |= returns_value;
                    mix = mix.max(AtomicMix::of_atomic(returns_value));
                }
                MicroOp::Compute { cycles } => compute = compute.max(cycles),
            }
        }
        // One transaction per distinct line. Lanes walk mostly-ascending
        // addresses, so the lines are usually sorted already.
        for lines in [&mut *loads, &mut *stores] {
            if !lines.is_sorted() {
                lines.sort_unstable();
            }
            lines.dedup();
        }
        let count = |v: &[u32]| v.len() as u32;
        words.push(count(loads) | count(stores) << WarpTrace::COUNT_BITS);
        words.push(
            count(atomics)
                | if returns { WarpTrace::RETURNS_BIT } else { 0 }
                | u32::from(compute) << WarpTrace::COUNT_BITS,
        );
        words.extend_from_slice(loads);
        words.extend_from_slice(stores);
        words.extend_from_slice(atomics);
        Ok(mix)
    }
}

/// Atomics address 32-bit words (`addr >> WORD_SHIFT` is the word
/// number).
pub(crate) const WORD_SHIFT: u32 = 2;

/// `addr >> shift` as a `u32` record entry.
fn number(addr: u64, shift: u32) -> Result<u32, ParamsError> {
    u32::try_from(addr >> shift).map_err(|_| ParamsError::AddressOutOfRange(addr))
}

/// One decoded warp slot of a [`WarpTrace`]: what the warp issues when
/// it executes that slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot<'k> {
    /// The distinct line numbers the lanes load, ascending.
    pub loads: &'k [u32],
    /// The distinct line numbers the lanes store, ascending.
    pub stores: &'k [u32],
    /// Each lane's atomic as a word number (`addr / 4`), in lane order.
    pub atomics: &'k [u32],
    /// `true` if any of the atomics consumes its returned value.
    pub any_returns: bool,
    /// The longest compute burst among the lanes, in cycles.
    pub compute: u16,
    line_shift: u32,
}

impl Slot<'_> {
    /// The base byte address of each load line.
    pub fn load_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.loads.iter().map(|&l| u64::from(l) << self.line_shift)
    }

    /// The base byte address of each store line.
    pub fn store_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.stores.iter().map(|&l| u64::from(l) << self.line_shift)
    }

    /// The byte address of each atomic's word.
    pub fn atomic_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.atomics.iter().map(|&w| u64::from(w) << WORD_SHIFT)
    }
}

/// A cursor over one warp's slot records ([`WarpTrace::warp`]). It is
/// `Copy` and borrows the trace's records.
#[derive(Debug, Clone, Copy)]
pub struct Slots<'k> {
    /// The records not yet visited.
    rest: &'k [u32],
    line_shift: u32,
}

impl Slots<'_> {
    /// `true` once every slot has been visited.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

impl<'k> Iterator for Slots<'k> {
    type Item = Slot<'k>;

    #[inline]
    fn next(&mut self) -> Option<Slot<'k>> {
        let (slot, rest) = decode(self.rest, self.line_shift)?;
        self.rest = rest;
        Some(slot)
    }
}

/// Decodes the slot record at the head of `records`, returning it and
/// the records after it (`None` once `records` is empty).
#[inline]
pub(crate) fn decode(records: &[u32], line_shift: u32) -> Option<(Slot<'_>, &[u32])> {
    let (&[counts, rest_of_header], body) = records.split_first_chunk::<2>()?;
    let mask = WarpTrace::COUNT_MASK;
    let (loads, body) = body.split_at_checked((counts & mask) as usize)?;
    let (stores, body) = body.split_at_checked((counts >> WarpTrace::COUNT_BITS) as usize)?;
    let atomic_count = rest_of_header & (WarpTrace::RETURNS_BIT - 1);
    let (atomics, rest) = body.split_at_checked(atomic_count as usize)?;
    let slot = Slot {
        loads,
        stores,
        atomics,
        any_returns: rest_of_header & WarpTrace::RETURNS_BIT != 0,
        compute: (rest_of_header >> WarpTrace::COUNT_BITS) as u16,
        line_shift,
    };
    Some((slot, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Any micro-op, with the boundary values drawn as often as a
    /// uniform pick from the full range.
    fn micro_ops() -> impl Strategy<Value = MicroOp> {
        let addr = || prop_oneof![Just(0), Just(u64::MAX), 0u64..u64::MAX];
        prop_oneof![
            addr().prop_map(MicroOp::load),
            addr().prop_map(MicroOp::store),
            (addr(), prop_oneof![Just(false), Just(true)]).prop_map(|(addr, returns_value)| {
                MicroOp::Atomic {
                    addr,
                    returns_value,
                }
            }),
            prop_oneof![Just(0), Just(u16::MAX), 0u16..=u16::MAX].prop_map(MicroOp::compute),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn thread_streams_round_trip_through_the_arena(
            threads in prop::collection::vec(prop::collection::vec(micro_ops(), 0..6), 0..40),
            tb_size in 1u32..64,
        ) {
            let k = KernelTrace::new(threads.clone(), tb_size).unwrap();
            prop_assert_eq!(k.num_threads(), threads.len() as u64);
            for (t, stream) in threads.iter().enumerate() {
                prop_assert_eq!(k.thread(t as u64), &stream[..]);
            }
            prop_assert_eq!(k.total_ops(), threads.iter().map(Vec::len).sum::<usize>() as u64);
        }
    }

    #[test]
    fn addresses_the_records_cannot_hold_are_rejected_by_packing() {
        // The cache tags hold 40 bits of line number; a line number past
        // u32 used to reach them and panic mid-simulation.
        let params = SystemParams::default();
        let pack = |op: MicroOp| WarpTrace::pack(&KernelTrace::new(vec![vec![op]], 32)?, &params);
        let last_line = u64::from(u32::MAX) << 6;
        let last_word = u64::from(u32::MAX) << 2;
        for op in [
            MicroOp::load(1 << 50),
            MicroOp::store(last_line + 64),
            MicroOp::atomic_returning(last_word + 4),
            MicroOp::atomic(u64::MAX),
        ] {
            let addr = op.address().unwrap();
            assert_eq!(pack(op), Err(ParamsError::AddressOutOfRange(addr)));
        }
        for op in [
            MicroOp::load(last_line + 63),
            MicroOp::store(last_line),
            MicroOp::atomic(last_word + 3),
            MicroOp::compute(u16::MAX),
        ] {
            assert!(pack(op).is_ok(), "{op:?}");
        }
    }

    #[test]
    fn packing_rejects_geometries_it_cannot_encode() {
        let k = KernelTrace::new(vec![vec![MicroOp::load(0)]], 32).unwrap();
        let pack = |warp_size, line_bytes| {
            let params = SystemParams {
                warp_size,
                line_bytes,
                ..SystemParams::default()
            };
            WarpTrace::pack(&k, &params)
        };
        assert_eq!(pack(0, 64), Err(ParamsError::NonPositive("warp_size")));
        assert_eq!(
            pack(WarpTrace::MAX_WARP_SIZE + 1, 64),
            Err(ParamsError::TooLarge {
                what: "warp_size",
                max: WarpTrace::MAX_WARP_SIZE.into()
            })
        );
        assert_eq!(pack(32, 48), Err(ParamsError::NotPowerOfTwo("line_bytes")));
        assert_eq!(pack(32, 0), Err(ParamsError::NotPowerOfTwo("line_bytes")));
        assert!(pack(WarpTrace::MAX_WARP_SIZE, 1).is_ok());
    }

    #[test]
    fn warps_split_blocks_from_their_first_thread() {
        // 100 threads in blocks of 48, warps of 32: blocks 0 and 1 hold
        // a full and a 16-lane warp each, block 2 one 4-lane warp. Only
        // threads 40 (block 0, warp 1) and 99 (block 2) have ops.
        let mut threads = vec![Vec::new(); 100];
        threads[40] = vec![MicroOp::store(640), MicroOp::compute(3)];
        threads[99] = vec![MicroOp::atomic_returning(12)];
        let k = KernelTrace::new(threads, 48).unwrap();
        let w = WarpTrace::pack(&k, &SystemParams::default()).unwrap();
        assert_eq!(
            (w.num_threads(), w.num_blocks(), w.num_warps()),
            (100, 3, 5)
        );
        let lens: Vec<usize> = (0..5).map(|i| w.warp(i).count()).collect();
        assert_eq!(lens, [0, 2, 0, 0, 1], "empty warps keep their index");
        let blocks: Vec<usize> = (0..4).map(|b| w.block(b).count()).collect();
        assert_eq!(blocks, [2, 2, 1, 0]);
        let slot = w.warp(1).next().unwrap();
        assert_eq!((slot.stores, slot.compute), (&[10][..], 0));
        assert_eq!(slot.store_addrs().collect::<Vec<_>>(), [640]);
        let atomic = w.warp(4).next().unwrap();
        assert_eq!((atomic.atomics, atomic.any_returns), (&[3][..], true));
        assert_eq!(atomic.atomic_addrs().collect::<Vec<_>>(), [12]);
        assert_eq!(w.total_ops(), 3);
        assert_eq!(w.atomic_mix(), AtomicMix::AllReturning);
        assert_eq!((w.tb_size(), w.warp_size(), w.line_bytes()), (48, 32, 64));
    }

    #[test]
    fn slots_coalesce_lines_and_keep_every_atomic() {
        // Four lanes: loads of two lines out of order with repeats,
        // stores to one line, and two atomics to the same word.
        let threads = vec![
            vec![MicroOp::load(200), MicroOp::atomic(8)],
            vec![MicroOp::load(4), MicroOp::atomic(8)],
            vec![MicroOp::load(196), MicroOp::compute(7)],
            vec![MicroOp::store(64), MicroOp::store(68)],
        ];
        let k = KernelTrace::new(threads, 256).unwrap();
        let w = WarpTrace::pack(&k, &SystemParams::default()).unwrap();
        let slots: Vec<Slot<'_>> = w.warp(0).collect();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].loads, [0, 3]);
        assert_eq!(slots[0].stores, [1]);
        assert_eq!(slots[0].load_addrs().collect::<Vec<_>>(), [0, 192]);
        assert_eq!(slots[1].stores, [1]);
        assert_eq!(slots[1].atomics, [2, 2]);
        assert!(!slots[1].any_returns);
        assert_eq!(slots[1].compute, 7);
    }

    #[test]
    fn packed_heap_bytes_are_exact() {
        let threads: Vec<Vec<MicroOp>> = (0..1000u64)
            .map(|t| (0..t % 7).map(|i| MicroOp::load((t * 8 + i) * 4)).collect())
            .collect();
        let k = KernelTrace::new(threads, 128).unwrap();
        let w = WarpTrace::pack(&k, &SystemParams::default()).unwrap();
        let words: usize = (0..w.num_warps())
            .flat_map(|i| w.warp(i))
            .map(|s| 2 + s.loads.len() + s.stores.len() + s.atomics.len())
            .sum();
        // Per block: its records, `num_warps + 1` offsets, and its entry
        // in the block table.
        let blocks = w.num_blocks() as usize;
        let table = blocks * std::mem::size_of::<PackedBlock>();
        let bytes = 4 * (words + w.num_warps() + blocks) + table;
        assert_eq!(w.heap_bytes(), bytes as u64);
        assert_eq!(w.total_ops(), k.total_ops());
    }

    #[test]
    fn geometry_is_checked_against_params() {
        let k = KernelTrace::new(vec![vec![MicroOp::load(0)]], 32).unwrap();
        let params = SystemParams::default();
        let w = WarpTrace::pack(&k, &params).unwrap();
        assert_eq!(w.check_geometry(&params), Ok(()));
        let narrow = SystemParams {
            warp_size: 16,
            ..params.clone()
        };
        assert_eq!(
            w.check_geometry(&narrow),
            Err(ParamsError::GeometryMismatch {
                what: "warp_size",
                trace: 32,
                params: 16
            })
        );
        let wide_lines = SystemParams {
            line_bytes: 128,
            ..params
        };
        assert!(matches!(
            w.check_geometry(&wide_lines),
            Err(ParamsError::GeometryMismatch {
                what: "line_bytes",
                ..
            })
        ));
    }

    #[test]
    fn op_count_beyond_u32_rejected() {
        assert!(check_op_count(u32::MAX as usize).is_ok());
        let over = u32::MAX as usize + 1;
        assert_eq!(
            check_op_count(over),
            Err(ParamsError::TooManyOps(over as u64))
        );
    }

    #[test]
    fn kernel_sources_pack_as_their_materialized_trace_does() {
        // 100 threads in blocks of 48, so blocks end mid-warp and the
        // last block is partial; every third lane is empty.
        let mut emit = |t: u32, ops: &mut Vec<MicroOp>| {
            if !t.is_multiple_of(3) {
                ops.extend((0..t % 5).map(|i| MicroOp::load(u64::from(t * 8 + i) * 4)));
            }
            if t == 40 {
                ops.push(MicroOp::atomic(8));
            }
        };
        let params = SystemParams::default();
        let streamed = KernelSource::new(100, 48, &mut emit).pack(&params).unwrap();
        let trace = KernelSource::new(100, 48, &mut emit).into_trace().unwrap();
        assert_eq!(streamed, WarpTrace::pack(&trace, &params).unwrap());
        assert_eq!(streamed.atomic_mix(), AtomicMix::SomeFireAndForget);
        assert_eq!((streamed.num_threads(), streamed.num_warps()), (100, 5));
    }

    #[test]
    fn kernel_sources_report_typed_errors() {
        let params = SystemParams::default();
        // A materialized trace holds any address; packing checks that
        // the line number fits a record.
        let mut far = |_: u32, ops: &mut Vec<MicroOp>| ops.push(MicroOp::load(u64::MAX));
        let trace = KernelSource::new(1, 32, &mut far).into_trace().unwrap();
        assert_eq!(trace.thread(0), [MicroOp::load(u64::MAX)]);
        assert_eq!(
            KernelSource::new(1, 32, &mut far).pack(&params),
            Err(ParamsError::AddressOutOfRange(u64::MAX))
        );
        let mut empty = |_: u32, _: &mut Vec<MicroOp>| {};
        let err = ParamsError::NonPositive("tb_size");
        assert_eq!(
            KernelSource::new(1, 0, &mut empty).into_trace(),
            Err(err.clone())
        );
        assert_eq!(KernelSource::new(1, 0, &mut empty).pack(&params), Err(err));
    }

    #[test]
    fn atomic_mix_is_recorded_while_packing() {
        let mix = |threads: Vec<Vec<MicroOp>>| {
            let kernel = KernelTrace::new(threads, 32).unwrap();
            WarpTrace::pack(&kernel, &SystemParams::default())
                .unwrap()
                .atomic_mix()
        };
        assert_eq!(
            mix(vec![vec![MicroOp::load(0), MicroOp::store(4)]]),
            AtomicMix::None
        );
        assert_eq!(
            mix(vec![
                vec![MicroOp::atomic_returning(0)],
                vec![MicroOp::compute(1)]
            ]),
            AtomicMix::AllReturning
        );
        assert_eq!(
            mix(vec![
                vec![MicroOp::atomic_returning(0)],
                vec![MicroOp::load(8), MicroOp::atomic(4)],
            ]),
            AtomicMix::SomeFireAndForget
        );
    }

    #[test]
    fn block_count_rounds_up() {
        let k = KernelTrace::new(vec![Vec::new(); 257], 256).unwrap();
        assert_eq!(k.num_blocks(), 2);
    }

    #[test]
    fn addresses() {
        assert_eq!(MicroOp::load(64).address(), Some(64));
        assert_eq!(MicroOp::store(4).address(), Some(4));
        assert_eq!(MicroOp::atomic(8).address(), Some(8));
        assert_eq!(MicroOp::compute(2).address(), None);
    }

    #[test]
    fn returning_flag() {
        assert!(matches!(
            MicroOp::atomic_returning(0),
            MicroOp::Atomic {
                returns_value: true,
                ..
            }
        ));
        assert!(matches!(
            MicroOp::atomic(0),
            MicroOp::Atomic {
                returns_value: false,
                ..
            }
        ));
    }

    #[test]
    fn total_ops_sums_threads() {
        let k = KernelTrace::new(
            vec![vec![MicroOp::compute(1); 3], vec![MicroOp::compute(1); 2]],
            128,
        )
        .unwrap();
        assert_eq!(k.total_ops(), 5);
    }

    #[test]
    fn zero_tb_size_rejected() {
        assert!(KernelTrace::new(Vec::new(), 0).is_err());
    }

    #[test]
    fn try_new_reports_zero_tb_size() {
        assert!(KernelTrace::new(Vec::new(), 0).is_err());
        assert!(KernelTrace::new(Vec::new(), 1).is_ok());
    }
}
