//! The micro-op trace format kernels are expressed in.
//!
//! Applications compile each GPU kernel into one micro-op stream per
//! thread. The simulator executes threads in 32-lane warps: at *slot*
//! `k`, a warp executes op `k` of every lane that still has ops left
//! (shorter lanes simply become inactive — this models loop-trip-count
//! divergence, the dominant divergence in vertex-centric graph kernels).

use crate::config::AtomicMix;
use crate::params::ParamsError;

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

/// One [`MicroOp`] packed into 8 bytes: the form a [`KernelTrace`]
/// stores its ops in. Decode with [`Op::get`].
///
/// Layout of the `u64`:
///
/// | bits | holds |
/// |---|---|
/// | 62–63 | kind: 0 load, 1 store, 2 atomic, 3 compute |
/// | 61 | `returns_value` (atomics only, else 0) |
/// | 0–60 | byte address, or the compute cycles |
///
/// The kind lives in the top bits, so addresses need no alignment;
/// any byte address up to [`Op::MAX_ADDR`] packs losslessly.
///
/// ```
/// use ggs_sim::trace::{MicroOp, Op};
///
/// let m = MicroOp::atomic_returning(0x1234);
/// assert_eq!(Op::from(m).get(), m);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Op(u64);

const _: () = assert!(std::mem::size_of::<Op>() == 8);

impl Op {
    /// Largest byte address an `Op` holds (2^61 − 1).
    pub const MAX_ADDR: u64 = (1 << 61) - 1;
    const KIND_SHIFT: u32 = 62;
    const RETURNS_VALUE_SHIFT: u32 = 61;

    /// The decoded micro-op.
    #[inline]
    pub fn get(self) -> MicroOp {
        let payload = self.0 & Self::MAX_ADDR;
        match self.0 >> Self::KIND_SHIFT {
            0 => MicroOp::Load { addr: payload },
            1 => MicroOp::Store { addr: payload },
            2 => MicroOp::Atomic {
                addr: payload,
                returns_value: (self.0 >> Self::RETURNS_VALUE_SHIFT) & 1 != 0,
            },
            _ => MicroOp::Compute {
                cycles: payload as u16,
            },
        }
    }
}

impl From<MicroOp> for Op {
    /// Packs `op`. An address above [`Op::MAX_ADDR`] keeps only its low
    /// 61 bits; [`KernelTrace::new`] rejects such addresses instead.
    #[inline]
    fn from(op: MicroOp) -> Self {
        let kind = |k: u64| k << Self::KIND_SHIFT;
        Op(match op {
            MicroOp::Load { addr } => kind(0) | (addr & Self::MAX_ADDR),
            MicroOp::Store { addr } => kind(1) | (addr & Self::MAX_ADDR),
            MicroOp::Atomic {
                addr,
                returns_value,
            } => {
                kind(2)
                    | u64::from(returns_value) << Self::RETURNS_VALUE_SHIFT
                    | (addr & Self::MAX_ADDR)
            }
            MicroOp::Compute { cycles } => kind(3) | cycles as u64,
        })
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// The per-thread micro-op streams of one kernel launch.
///
/// Thread `i` belongs to thread block `i / tb_size`; blocks are
/// dispatched to SMs in order as resources free up.
///
/// Internally the streams live in one flat arena of packed [`Op`]s plus
/// a cumulative offset table (thread `i` is
/// `ops[offsets[i]..offsets[i + 1]]`), so a trace costs two allocations
/// regardless of thread count and the simulator walks contiguous
/// memory. Both are shrunk to their length on construction.
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
/// assert_eq!(k.thread(1)[0].get(), MicroOp::compute(4));
/// # Ok::<(), ggs_sim::params::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Every thread's ops, concatenated in thread order.
    ops: Vec<Op>,
    /// `num_threads + 1` cumulative offsets into `ops`.
    offsets: Vec<u32>,
    tb_size: u32,
    /// Which atomics `ops` holds, found once at construction.
    atomic_mix: AtomicMix,
}

impl KernelTrace {
    /// Creates a kernel trace.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`]:
    /// - [`NonPositive`](ParamsError::NonPositive) if `tb_size` is zero;
    /// - [`TooManyOps`](ParamsError::TooManyOps) if the threads hold more
    ///   ops than the `u32` offset table can index;
    /// - [`AddressOutOfRange`](ParamsError::AddressOutOfRange) for an
    ///   address above [`Op::MAX_ADDR`].
    pub fn new(threads: Vec<Vec<MicroOp>>, tb_size: u32) -> Result<Self, ParamsError> {
        if tb_size == 0 {
            return Err(ParamsError::NonPositive("tb_size"));
        }
        let total = threads.iter().map(Vec::len).sum();
        check_op_count(total)?;
        let mut ops = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(threads.len() + 1);
        offsets.push(0);
        for t in &threads {
            for &op in t {
                match op.address() {
                    Some(addr) if addr > Op::MAX_ADDR => {
                        return Err(ParamsError::AddressOutOfRange(addr))
                    }
                    _ => ops.push(Op::from(op)),
                }
            }
            offsets.push(ops.len() as u32);
        }
        Ok(Self::from_flat(ops, offsets, tb_size))
    }

    /// Creates a kernel trace directly from a flat op arena and its
    /// cumulative offset table (`num_threads + 1` entries starting at 0
    /// and ending at `ops.len()`). This is the allocation-free path for
    /// trace generators that append thread streams in order. Both
    /// vectors are shrunk to their length, so [`Self::heap_bytes`]
    /// counts no growth slack.
    ///
    /// # Panics
    ///
    /// Panics if `tb_size` is zero or the offset table is malformed.
    pub fn from_flat(mut ops: Vec<Op>, mut offsets: Vec<u32>, tb_size: u32) -> Self {
        assert!(tb_size > 0, "tb_size must be positive");
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("offsets non-empty") as usize,
            ops.len(),
            "offsets must end at ops.len()"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        ops.shrink_to_fit();
        offsets.shrink_to_fit();
        let atomic_mix = ops
            .iter()
            .filter_map(|op| match op.get() {
                MicroOp::Atomic { returns_value, .. } => Some(AtomicMix::of_atomic(returns_value)),
                _ => None,
            })
            .max()
            .unwrap_or_default();
        Self {
            ops,
            offsets,
            tb_size,
            atomic_mix,
        }
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
    pub fn thread(&self, thread: u64) -> &[Op] {
        let t = thread as usize;
        &self.ops[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// A contiguous view of thread streams `lo..hi` (used by the engine
    /// to hand a thread block's threads to an SM).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn threads_slice(&self, lo: usize, hi: usize) -> ThreadsSlice<'_> {
        ThreadsSlice {
            ops: &self.ops,
            offsets: &self.offsets[lo..=hi],
        }
    }

    /// Which atomics the kernel issues: none, only value-returning ones,
    /// or some fire-and-forget ones. This is all the consistency model
    /// can observe of the kernel (see
    /// [`ConsistencyModel::class_representative`](crate::config::ConsistencyModel::class_representative)).
    pub fn atomic_mix(&self) -> AtomicMix {
        self.atomic_mix
    }

    /// Total number of micro-ops across all threads.
    pub fn total_ops(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Heap bytes held by the trace's op arena and offset table: 8 bytes
    /// per op plus 4 per offset. Counted from capacity, which equals
    /// length because construction shrinks both. Capacity-bounded trace
    /// caches use this for their memory accounting.
    pub fn heap_bytes(&self) -> u64 {
        (self.ops.capacity() * std::mem::size_of::<Op>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Checks that `total` ops fit a trace's `u32` offset table.
fn check_op_count(total: usize) -> Result<(), ParamsError> {
    match u32::try_from(total) {
        Ok(_) => Ok(()),
        Err(_) => Err(ParamsError::TooManyOps(total as u64)),
    }
}

/// A borrowed, copyable view of a contiguous range of a kernel's thread
/// streams (a thread block, or a warp's lanes within one). Threads index
/// into the kernel's shared flat op arena, so slicing never allocates.
#[derive(Debug, Clone, Copy)]
pub struct ThreadsSlice<'k> {
    ops: &'k [Op],
    /// `len() + 1` cumulative offsets into `ops` for this view's
    /// threads.
    offsets: &'k [u32],
}

impl<'k> ThreadsSlice<'k> {
    /// Number of threads in the view.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the view holds no threads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The micro-op stream of thread `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn thread(&self, i: usize) -> &'k [Op] {
        &self.ops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Sub-view of threads `lo..hi` (e.g. one warp's lanes).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> ThreadsSlice<'k> {
        ThreadsSlice {
            ops: self.ops,
            offsets: &self.offsets[lo..=hi],
        }
    }

    /// Iterates over the view's thread streams in order.
    pub fn iter(&self) -> impl Iterator<Item = &'k [Op]> + '_ {
        let ops = self.ops;
        self.offsets
            .windows(2)
            .map(move |w| &ops[w[0] as usize..w[1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Any micro-op, with the packing's boundary values drawn as often
    /// as a uniform pick from the full range.
    fn micro_ops() -> impl Strategy<Value = MicroOp> {
        let addr = || prop_oneof![Just(0), Just(Op::MAX_ADDR), 0u64..Op::MAX_ADDR];
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
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn op_round_trips(m in micro_ops()) {
            prop_assert_eq!(Op::from(m).get(), m);
        }
    }

    #[test]
    fn unpackable_address_rejected() {
        let too_far = Op::MAX_ADDR + 1;
        for m in [
            MicroOp::load(too_far),
            MicroOp::store(too_far),
            MicroOp::atomic_returning(u64::MAX),
        ] {
            let addr = m.address().unwrap();
            assert_eq!(
                KernelTrace::new(vec![vec![m]], 32),
                Err(ParamsError::AddressOutOfRange(addr))
            );
        }
        assert!(KernelTrace::new(vec![vec![MicroOp::load(Op::MAX_ADDR)]], 32).is_ok());
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
    fn atomic_mix_is_recorded_at_construction() {
        let mix = |threads: Vec<Vec<MicroOp>>| KernelTrace::new(threads, 32).unwrap().atomic_mix();
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
