//! Simulated system parameters (the paper's Table IV).

use std::fmt;

/// Validation failure from [`SystemParamsBuilder::build`] or one of the
/// fallible `try_*` constructors in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// A count or size parameter that must be ≥ 1 was zero.
    NonPositive(&'static str),
    /// A parameter that must be a power of two was not.
    NotPowerOfTwo(&'static str),
    /// A cache scale factor was zero, negative, or non-finite.
    BadScale(f64),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::NonPositive(what) => write!(f, "{what} must be positive"),
            ParamsError::NotPowerOfTwo(what) => {
                write!(f, "{what} must be a power of two")
            }
            ParamsError::BadScale(factor) => {
                write!(f, "scale factor must be positive and finite, got {factor}")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

/// Warp scheduling policy of each SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest (GPGPU-Sim's GTO, the default): keep issuing
    /// from the current warp until it stalls, then move on. Maximizes
    /// intra-warp locality.
    #[default]
    GreedyThenOldest,
    /// Loose round-robin: rotate to the next ready warp after every
    /// issue. Maximizes latency overlap at the cost of locality.
    RoundRobin,
}

/// Parameters of the simulated heterogeneous system.
///
/// Defaults reproduce the paper's Table IV:
///
/// | Parameter | Value |
/// |---|---|
/// | GPU CUs (SMs) | 15 |
/// | L1 size (8-way) | 32 KB per SM |
/// | L2 size (16 banks, NUCA) | 4 MB shared |
/// | Store buffer | 128 entries |
/// | L1 MSHRs | 128 entries |
/// | L1 hit latency | 1 cycle |
/// | Remote L1 hit latency | 35–83 cycles |
/// | L2 hit latency | 29–61 cycles |
/// | Memory latency | 197–261 cycles |
///
/// The latency *ranges* come from NUCA/mesh distance; [`crate::noc::Mesh`]
/// converts hop counts into concrete latencies inside these ranges.
///
/// [`SystemParams::scaled_caches`] shrinks the cache capacities for runs
/// on scaled-down inputs, so that the paper's volume classification
/// (working set vs. cache capacity) is preserved — see DESIGN.md.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// Number of GPU cores (CUs/SMs).
    pub num_sms: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Threads per thread block.
    pub tb_size: u32,
    /// Maximum thread blocks resident on one SM.
    pub max_blocks_per_sm: u32,

    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Per-SM L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// Shared L2 capacity in bytes (all banks together).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// Number of L2 banks (one per mesh node).
    pub l2_banks: u32,

    /// L1 MSHR entries per SM.
    pub mshr_entries: u32,
    /// Store buffer entries per SM.
    pub store_buffer_entries: u32,

    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// Minimum L2 hit latency (grows with mesh hops).
    pub l2_base_cycles: u64,
    /// Additional L2 latency per mesh hop.
    pub l2_hop_cycles: u64,
    /// Minimum memory latency (grows with mesh hops).
    pub mem_base_cycles: u64,
    /// Additional memory latency per mesh hop (SM→bank and bank→MC).
    pub mem_hop_cycles: u64,
    /// Minimum remote-L1 (ownership transfer) latency.
    pub remote_l1_base_cycles: u64,
    /// Additional remote-L1 latency per mesh hop.
    pub remote_l1_hop_cycles: u64,

    /// L2 bank service occupancy per atomic operation (the RMW unit is
    /// pipelined across different words).
    pub l2_atomic_occupancy: u64,
    /// L2 directory service occupancy per DeNovo ownership registration
    /// (tag lookup + state update + invalidation + data reply).
    pub registration_occupancy: u64,
    /// L1 service occupancy per locally-executed (owned) atomic.
    pub l1_atomic_occupancy: u64,
    /// Read-modify-write latency of an atomic once it reaches its
    /// execution point (added on top of the network/cache latency).
    pub atomic_rmw_cycles: u64,

    /// Fixed cost charged between kernel launches (CPU-side launch and
    /// synchronization overhead), accounted as Idle time.
    pub kernel_launch_cycles: u64,

    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
}

impl Default for SystemParams {
    fn default() -> Self {
        Self {
            num_sms: 15,
            warp_size: 32,
            tb_size: 256,
            max_blocks_per_sm: 8,

            line_bytes: 64,
            l1_bytes: 32 * 1024,
            l1_assoc: 8,
            l2_bytes: 4 * 1024 * 1024,
            l2_assoc: 16,
            l2_banks: 16,

            mshr_entries: 128,
            store_buffer_entries: 128,

            l1_hit_cycles: 1,
            l2_base_cycles: 29,
            l2_hop_cycles: 5,
            mem_base_cycles: 197,
            mem_hop_cycles: 6,
            remote_l1_base_cycles: 35,
            remote_l1_hop_cycles: 8,

            l2_atomic_occupancy: 2,
            registration_occupancy: 4,
            l1_atomic_occupancy: 2,
            atomic_rmw_cycles: 6,

            kernel_launch_cycles: 2_000,
            scheduler: SchedulerPolicy::default(),
        }
    }
}

impl SystemParams {
    /// Returns the parameters with L1/L2 capacities multiplied by
    /// `factor`, keeping at least one set per cache.
    ///
    /// Used when simulating scale-reduced inputs: the paper's *volume*
    /// classification compares working-set size against cache capacity,
    /// so scaling both by the same factor preserves every class.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::BadScale`] if `factor` is not positive and
    /// finite.
    pub fn scaled_caches(mut self, factor: f64) -> Result<Self, ParamsError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ParamsError::BadScale(factor));
        }
        let min_l1 = (self.line_bytes * self.l1_assoc) as u64;
        let min_l2 = (self.line_bytes * self.l2_assoc) as u64 * self.l2_banks as u64;
        self.l1_bytes = (((self.l1_bytes as f64 * factor) as u64) / min_l1).max(1) * min_l1;
        self.l2_bytes = (((self.l2_bytes as f64 * factor) as u64) / min_l2).max(1) * min_l2;
        Ok(self)
    }

    /// Start a fluent, validated builder seeded with the Table IV
    /// defaults.
    ///
    /// # Example
    ///
    /// ```
    /// use ggs_sim::SystemParams;
    ///
    /// let params = SystemParams::builder()
    ///     .num_sms(8)
    ///     .tb_size(128)
    ///     .scaled_caches(0.25)
    ///     .build()
    ///     .expect("valid parameters");
    /// assert_eq!(params.num_sms, 8);
    /// assert!(SystemParams::builder().line_bytes(48).build().is_err());
    /// ```
    pub fn builder() -> SystemParamsBuilder {
        SystemParamsBuilder {
            params: SystemParams::default(),
            scale: None,
        }
    }

    /// Check the structural invariants the simulator relies on.
    pub fn validate(&self) -> Result<(), ParamsError> {
        for (value, what) in [
            (self.num_sms, "num_sms"),
            (self.warp_size, "warp_size"),
            (self.tb_size, "tb_size"),
            (self.max_blocks_per_sm, "max_blocks_per_sm"),
            (self.line_bytes, "line_bytes"),
            (self.l1_assoc, "l1_assoc"),
            (self.l2_assoc, "l2_assoc"),
            (self.l2_banks, "l2_banks"),
            (self.mshr_entries, "mshr_entries"),
            (self.store_buffer_entries, "store_buffer_entries"),
        ] {
            if value == 0 {
                return Err(ParamsError::NonPositive(what));
            }
        }
        if self.l1_bytes == 0 {
            return Err(ParamsError::NonPositive("l1_bytes"));
        }
        if self.l2_bytes == 0 {
            return Err(ParamsError::NonPositive("l2_bytes"));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ParamsError::NotPowerOfTwo("line_bytes"));
        }
        Ok(())
    }

    /// Number of warps per thread block.
    pub fn warps_per_block(&self) -> u32 {
        self.tb_size.div_ceil(self.warp_size)
    }

    /// L1 capacity in kilobytes (used by the volume classifier).
    pub fn l1_kb(&self) -> f64 {
        self.l1_bytes as f64 / 1024.0
    }

    /// L2 capacity in kilobytes (used by the volume classifier).
    pub fn l2_kb(&self) -> f64 {
        self.l2_bytes as f64 / 1024.0
    }
}

/// Fluent, validated constructor for [`SystemParams`], created by
/// [`SystemParams::builder`]. Unset fields keep their Table IV default.
#[derive(Debug, Clone)]
pub struct SystemParamsBuilder {
    params: SystemParams,
    scale: Option<f64>,
}

macro_rules! builder_setter {
    ($(#[$doc:meta] $name:ident: $ty:ty),* $(,)?) => {
        $(
            #[$doc]
            pub fn $name(mut self, value: $ty) -> Self {
                self.params.$name = value;
                self
            }
        )*
    };
}

impl SystemParamsBuilder {
    builder_setter! {
        /// Number of GPU cores (CUs/SMs).
        num_sms: u32,
        /// Threads per warp.
        warp_size: u32,
        /// Threads per thread block.
        tb_size: u32,
        /// Maximum thread blocks resident on one SM.
        max_blocks_per_sm: u32,
        /// Cache line size in bytes (must be a power of two).
        line_bytes: u32,
        /// Per-SM L1 data cache capacity in bytes.
        l1_bytes: u64,
        /// L1 associativity.
        l1_assoc: u32,
        /// Shared L2 capacity in bytes.
        l2_bytes: u64,
        /// L2 associativity.
        l2_assoc: u32,
        /// Number of L2 banks.
        l2_banks: u32,
        /// L1 MSHR entries per SM.
        mshr_entries: u32,
        /// Store buffer entries per SM.
        store_buffer_entries: u32,
        /// Fixed cost charged between kernel launches.
        kernel_launch_cycles: u64,
        /// Warp scheduling policy.
        scheduler: SchedulerPolicy,
    }

    /// Scale L1/L2 capacities by `factor` (applied after the explicit
    /// sizes, validated in [`SystemParamsBuilder::build`]).
    pub fn scaled_caches(mut self, factor: f64) -> Self {
        self.scale = Some(factor);
        self
    }

    /// Validate and produce the parameters.
    pub fn build(self) -> Result<SystemParams, ParamsError> {
        self.params.validate()?;
        match self.scale {
            Some(factor) => self.params.scaled_caches(factor),
            None => Ok(self.params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv() {
        let p = SystemParams::default();
        assert_eq!(p.num_sms, 15);
        assert_eq!(p.l1_bytes, 32 * 1024);
        assert_eq!(p.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(p.mshr_entries, 128);
        assert_eq!(p.store_buffer_entries, 128);
        assert_eq!(p.l1_hit_cycles, 1);
        assert_eq!(p.l2_base_cycles, 29);
        assert_eq!(p.mem_base_cycles, 197);
        assert_eq!(p.remote_l1_base_cycles, 35);
    }

    #[test]
    fn latency_ranges_match_table_iv() {
        // Max manhattan distance on a 4x4 mesh is 6 hops.
        let p = SystemParams::default();
        assert!(p.l2_base_cycles + 6 * p.l2_hop_cycles <= 61);
        assert!(p.remote_l1_base_cycles + 6 * p.remote_l1_hop_cycles == 83);
        assert!(p.mem_base_cycles + 9 * p.mem_hop_cycles <= 261);
    }

    #[test]
    fn scaling_shrinks_caches_proportionally() {
        let p = SystemParams::default().scaled_caches(0.125).unwrap();
        assert_eq!(p.l1_bytes, 4 * 1024);
        assert_eq!(p.l2_bytes, 512 * 1024);
    }

    #[test]
    fn scaling_never_drops_below_one_set() {
        let p = SystemParams::default().scaled_caches(1e-9).unwrap();
        assert!(p.l1_bytes >= (p.line_bytes * p.l1_assoc) as u64);
        assert!(p.l2_bytes >= (p.line_bytes * p.l2_assoc * p.l2_banks) as u64);
    }

    #[test]
    fn warps_per_block() {
        assert_eq!(SystemParams::default().warps_per_block(), 8);
    }

    #[test]
    fn scaling_rejects_zero() {
        assert!(SystemParams::default().scaled_caches(0.0).is_err());
    }

    #[test]
    fn try_scaled_caches_reports_bad_factors() {
        assert_eq!(
            SystemParams::default().scaled_caches(0.0),
            Err(ParamsError::BadScale(0.0))
        );
        assert!(SystemParams::default().scaled_caches(f64::NAN).is_err());
        assert!(SystemParams::default().scaled_caches(0.5).is_ok());
    }

    #[test]
    fn builder_defaults_match_struct_defaults() {
        let built = SystemParams::builder().build().expect("defaults are valid");
        assert_eq!(built, SystemParams::default());
    }

    #[test]
    fn builder_applies_setters_and_scaling() {
        let p = SystemParams::builder()
            .num_sms(4)
            .tb_size(64)
            .scheduler(SchedulerPolicy::RoundRobin)
            .scaled_caches(0.125)
            .build()
            .expect("valid");
        assert_eq!(p.num_sms, 4);
        assert_eq!(p.tb_size, 64);
        assert_eq!(p.scheduler, SchedulerPolicy::RoundRobin);
        assert_eq!(p.l1_bytes, 4 * 1024);
    }

    #[test]
    fn builder_rejects_invalid_parameters() {
        assert_eq!(
            SystemParams::builder().warp_size(0).build(),
            Err(ParamsError::NonPositive("warp_size"))
        );
        assert_eq!(
            SystemParams::builder().line_bytes(48).build(),
            Err(ParamsError::NotPowerOfTwo("line_bytes"))
        );
        assert_eq!(
            SystemParams::builder().scaled_caches(-1.0).build(),
            Err(ParamsError::BadScale(-1.0))
        );
        let err = ParamsError::NonPositive("tb_size");
        assert!(err.to_string().contains("tb_size must be positive"));
    }
}
