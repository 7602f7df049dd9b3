//! Execution statistics and the paper's stall-classification taxonomy.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Classification of a GPU-core cycle, following the stall taxonomy of
/// Alsop et al. used by the paper (§V-C):
///
/// * **Busy** — at least one instruction issued.
/// * **Comp** — waiting for a computation unit or a computation result.
/// * **Data** — waiting for a non-atomic memory operation (or a full
///   store buffer / MSHR on a data access).
/// * **Sync** — waiting for an atomic operation, a fence/flush, or a
///   barrier.
/// * **Idle** — the core has no work while the kernel is still running
///   elsewhere (includes kernel-launch gaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallClass {
    /// At least one instruction issued this cycle.
    Busy,
    /// Waiting on a computation unit or result.
    Comp,
    /// Waiting on a non-atomic memory operation.
    Data,
    /// Waiting on an atomic operation, flush, or barrier.
    Sync,
    /// No runnable work while other cores still execute the kernel.
    Idle,
}

impl StallClass {
    /// All five classes in display order.
    pub const ALL: [StallClass; 5] = [
        StallClass::Busy,
        StallClass::Comp,
        StallClass::Data,
        StallClass::Sync,
        StallClass::Idle,
    ];

    /// Static display name, used as the stall-sample trace-event label.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::Busy => "Busy",
            StallClass::Comp => "Comp",
            StallClass::Data => "Data",
            StallClass::Sync => "Sync",
            StallClass::Idle => "Idle",
        }
    }
}

impl fmt::Display for StallClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class cycle counts for one SM or aggregated over the GPU.
///
/// # Example
///
/// ```
/// use ggs_sim::stats::{StallBreakdown, StallClass};
///
/// let mut b = StallBreakdown::default();
/// b.record(StallClass::Busy, 10);
/// b.record(StallClass::Sync, 5);
/// assert_eq!(b.total(), 15);
/// assert_eq!(b.get(StallClass::Sync), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    cycles: [u64; 5],
}

impl StallBreakdown {
    /// Records `cycles` of the given class.
    pub fn record(&mut self, class: StallClass, cycles: u64) {
        self.cycles[class as usize] += cycles;
    }

    /// Cycle count of one class.
    pub fn get(&self, class: StallClass) -> u64 {
        self.cycles[class as usize]
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction of the total attributed to `class` (0 when empty).
    pub fn fraction(&self, class: StallClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }

    /// Iterates `(class, cycles)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (StallClass, u64)> + '_ {
        StallClass::ALL.into_iter().map(|c| (c, self.get(c)))
    }
}

impl Add for StallBreakdown {
    type Output = StallBreakdown;

    fn add(mut self, rhs: StallBreakdown) -> StallBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for StallBreakdown {
    fn add_assign(&mut self, rhs: StallBreakdown) {
        for i in 0..5 {
            self.cycles[i] += rhs.cycles[i];
        }
    }
}

impl fmt::Display for StallBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "busy={} comp={} data={} sync={} idle={}",
            self.get(StallClass::Busy),
            self.get(StallClass::Comp),
            self.get(StallClass::Data),
            self.get(StallClass::Sync),
            self.get(StallClass::Idle),
        )
    }
}

/// Aggregate result of a simulation: GPU execution time and where the
/// cycles went, plus memory-system event counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// GPU execution time in cycles (sum over kernels of the slowest
    /// SM's completion, plus kernel launch gaps).
    pub total_cycles: u64,
    /// Per-class breakdown summed over SMs (each SM contributes
    /// `total_cycles` cycles, classified).
    pub breakdown: StallBreakdown,
    /// Number of kernels executed.
    pub kernels: u64,
    /// Memory-system event counters.
    pub mem: MemCounters,
}

impl ExecStats {
    /// GPU execution time in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Normalized per-class fractions of all SM-cycles.
    pub fn stall_fractions(&self) -> [(StallClass, f64); 5] {
        StallClass::ALL.map(|c| (c, self.breakdown.fraction(c)))
    }
}

/// Per-region (per data structure) memory access attribution, in the
/// spirit of the GPU Stall Inspector (Alsop et al., ISPASS 2016) the
/// paper's methodology builds on: which array a workload's memory
/// traffic and latency actually go to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Non-atomic load transactions touching the region.
    pub loads: u64,
    /// Store transactions touching the region.
    pub stores: u64,
    /// Atomic operations touching the region.
    pub atomics: u64,
    /// L1 hits among the loads.
    pub l1_hits: u64,
    /// Stores satisfied locally (DeNovo owned-line writes; write-through
    /// GPU stores never hit).
    pub store_hits: u64,
    /// Atomics satisfied locally (DeNovo owned-line atomics; GPU atomics
    /// always execute at the L2).
    pub atomic_hits: u64,
    /// Summed completion latency (cycles) of all accesses to the
    /// region; divide by the access count for the average.
    pub total_latency: u64,
}

impl RegionStats {
    /// Total accesses of any kind.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores + self.atomics
    }

    /// Average latency per access (0 when the region was never
    /// touched).
    pub fn avg_latency(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }
}

/// Counters of memory-system events, useful for tests, model threshold
/// calibration, and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// L1 data-load hits.
    pub l1_hits: u64,
    /// L1 data-load misses.
    pub l1_misses: u64,
    /// L2 hits (on L1 misses and write-throughs needing data).
    pub l2_hits: u64,
    /// L2 misses (memory accesses).
    pub l2_misses: u64,
    /// Atomics executed at the L2 (every GPU-coherence atomic).
    pub l2_atomics: u64,
    /// Atomics executed at the L1 (every DeNovo atomic: an unowned
    /// line registers first, then the atomic runs at the L1).
    pub l1_atomics: u64,
    /// DeNovo ownership registrations (L1 obtained ownership).
    pub registrations: u64,
    /// Ownership transfers that came from another SM's L1.
    pub remote_transfers: u64,
    /// Stores written through to L2 (GPU coherence).
    pub write_throughs: u64,
    /// L1 lines invalidated by acquire self-invalidations.
    pub invalidations: u64,
    /// Accesses delayed because the MSHR was full.
    pub mshr_stalls: u64,
    /// Stores delayed because the store buffer was full.
    pub store_buffer_stalls: u64,
    /// Cache-line-sized payloads moved across the NoC (fills,
    /// write-throughs, ownership transfers, writebacks).
    pub noc_line_transfers: u64,
    /// Word-sized / control messages across the NoC: a request and a
    /// reply per GPU-coherence atomic, a request and an ack per DeNovo
    /// registration. Self-invalidation is local and sends none.
    pub noc_control_messages: u64,
}

impl MemCounters {
    /// Field-wise difference against an `earlier` snapshot of the same
    /// monotonically increasing counters (the engine uses this for
    /// per-kernel trace deltas). Saturates rather than wrapping if a
    /// snapshot from a different run is passed.
    pub fn delta(&self, earlier: &MemCounters) -> MemCounters {
        MemCounters {
            l1_hits: self.l1_hits.saturating_sub(earlier.l1_hits),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            l2_atomics: self.l2_atomics.saturating_sub(earlier.l2_atomics),
            l1_atomics: self.l1_atomics.saturating_sub(earlier.l1_atomics),
            registrations: self.registrations.saturating_sub(earlier.registrations),
            remote_transfers: self
                .remote_transfers
                .saturating_sub(earlier.remote_transfers),
            write_throughs: self.write_throughs.saturating_sub(earlier.write_throughs),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            mshr_stalls: self.mshr_stalls.saturating_sub(earlier.mshr_stalls),
            store_buffer_stalls: self
                .store_buffer_stalls
                .saturating_sub(earlier.store_buffer_stalls),
            noc_line_transfers: self
                .noc_line_transfers
                .saturating_sub(earlier.noc_line_transfers),
            noc_control_messages: self
                .noc_control_messages
                .saturating_sub(earlier.noc_control_messages),
        }
    }
}

impl AddAssign for MemCounters {
    fn add_assign(&mut self, rhs: MemCounters) {
        self.l1_hits += rhs.l1_hits;
        self.l1_misses += rhs.l1_misses;
        self.l2_hits += rhs.l2_hits;
        self.l2_misses += rhs.l2_misses;
        self.l2_atomics += rhs.l2_atomics;
        self.l1_atomics += rhs.l1_atomics;
        self.registrations += rhs.registrations;
        self.remote_transfers += rhs.remote_transfers;
        self.write_throughs += rhs.write_throughs;
        self.invalidations += rhs.invalidations;
        self.mshr_stalls += rhs.mshr_stalls;
        self.store_buffer_stalls += rhs.store_buffer_stalls;
        self.noc_line_transfers += rhs.noc_line_transfers;
        self.noc_control_messages += rhs.noc_control_messages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates() {
        let mut b = StallBreakdown::default();
        b.record(StallClass::Busy, 3);
        b.record(StallClass::Busy, 2);
        b.record(StallClass::Idle, 5);
        assert_eq!(b.get(StallClass::Busy), 5);
        assert_eq!(b.total(), 10);
        assert!((b.fraction(StallClass::Idle) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn breakdown_addition() {
        let mut a = StallBreakdown::default();
        a.record(StallClass::Data, 4);
        let mut b = StallBreakdown::default();
        b.record(StallClass::Data, 6);
        b.record(StallClass::Sync, 1);
        let c = a + b;
        assert_eq!(c.get(StallClass::Data), 10);
        assert_eq!(c.get(StallClass::Sync), 1);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(StallBreakdown::default().fraction(StallClass::Busy), 0.0);
    }

    #[test]
    fn iter_covers_all_classes() {
        let b = StallBreakdown::default();
        assert_eq!(b.iter().count(), 5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(StallClass::Sync.to_string(), "Sync");
        let mut b = StallBreakdown::default();
        b.record(StallClass::Comp, 1);
        assert!(b.to_string().contains("comp=1"));
    }

    #[test]
    fn mem_counters_accumulate() {
        let mut a = MemCounters::default();
        let b = MemCounters {
            l1_hits: 2,
            registrations: 3,
            ..MemCounters::default()
        };
        a += b;
        assert_eq!(a.l1_hits, 2);
        assert_eq!(a.registrations, 3);
    }

    #[test]
    fn mem_counters_delta_subtracts_and_saturates() {
        let earlier = MemCounters {
            l1_hits: 5,
            l2_misses: 2,
            ..MemCounters::default()
        };
        let later = MemCounters {
            l1_hits: 9,
            l2_misses: 2,
            ..MemCounters::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.l1_hits, 4);
        assert_eq!(d.l2_misses, 0);
        // Swapped arguments saturate instead of wrapping.
        assert_eq!(earlier.delta(&later).l1_hits, 0);
    }

    #[test]
    fn stall_class_names_match_display() {
        for class in StallClass::ALL {
            assert_eq!(class.name(), class.to_string());
        }
    }
}
