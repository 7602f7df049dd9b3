//! Simulated system parameters (the paper's Table IV).

use std::fmt;

/// Validation failure from [`SystemParams::validate`],
/// [`KernelTrace::new`](crate::trace::KernelTrace::new), or one of the
/// fallible `try_*` constructors in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// A count or size parameter that must be ≥ 1 was zero.
    NonPositive(&'static str),
    /// A parameter that must be a power of two was not.
    NotPowerOfTwo(&'static str),
    /// A cache scale factor was zero, negative, or non-finite.
    BadScale(f64),
    /// A kernel trace held more ops than its `u32` offset table indexes.
    TooManyOps(u64),
    /// A trace op's byte address exceeds what a packed trace holds: a
    /// line (word, for atomics) number beyond `u32` in a
    /// [`WarpTrace`](crate::trace::WarpTrace).
    AddressOutOfRange(u64),
    /// A parameter exceeded the largest value the simulator supports.
    TooLarge {
        /// The parameter's name.
        what: &'static str,
        /// Its largest supported value.
        max: u64,
    },
    /// A [`WarpTrace`](crate::trace::WarpTrace) packed for one warp or
    /// line geometry was handed to a simulation of another.
    GeometryMismatch {
        /// The mismatched parameter (`warp_size` or `line_bytes`).
        what: &'static str,
        /// The value the trace was packed for.
        trace: u32,
        /// The value the simulation runs with.
        params: u32,
    },
    /// A [`BlockWindow`](crate::trace::BlockWindow) was handed to a
    /// simulation out of order: not the next window of the kernel in
    /// flight, or not a kernel's first window when none is.
    WindowOutOfOrder {
        /// The first block the simulation expected (`u64::MAX` if the
        /// window belongs to another kernel than the one in flight).
        expected: u64,
        /// The window's first block.
        got: u64,
    },
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
            ParamsError::TooManyOps(n) => {
                write!(
                    f,
                    "trace holds {n} ops, more than a u32 offset table indexes"
                )
            }
            ParamsError::AddressOutOfRange(addr) => {
                write!(
                    f,
                    "trace address {addr:#x} is beyond what a packed trace holds"
                )
            }
            ParamsError::TooLarge { what, max } => write!(f, "{what} must be at most {max}"),
            ParamsError::GeometryMismatch {
                what,
                trace,
                params,
            } => write!(
                f,
                "trace was packed for {what} {trace}, but the simulation uses {params}"
            ),
            ParamsError::WindowOutOfOrder { expected, got } => write!(
                f,
                "block window starts at block {got}, but the simulation expected block {expected}"
            ),
        }
    }
}

impl std::error::Error for ParamsError {}

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

    /// Check the structural invariants the simulator relies on.
    ///
    /// # Errors
    ///
    /// [`ParamsError::NonPositive`] for a zero count or size,
    /// [`ParamsError::NotPowerOfTwo`] for a line size that is not a
    /// power of two, and [`ParamsError::TooLarge`] for a warp wider than
    /// [`WarpTrace::MAX_WARP_SIZE`](crate::trace::WarpTrace::MAX_WARP_SIZE)
    /// or more than `u16::MAX` MSHR or store-buffer entries (the
    /// completion rings count entries per cycle in `u16`s).
    ///
    /// # Example
    ///
    /// ```
    /// use ggs_sim::SystemParams;
    ///
    /// let params = SystemParams {
    ///     num_sms: 8,
    ///     tb_size: 128,
    ///     ..SystemParams::default()
    /// };
    /// assert!(params.validate().is_ok());
    /// let bad = SystemParams {
    ///     line_bytes: 48,
    ///     ..SystemParams::default()
    /// };
    /// assert!(bad.validate().is_err());
    /// ```
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
        for (value, what) in [
            (self.mshr_entries, "mshr_entries"),
            (self.store_buffer_entries, "store_buffer_entries"),
        ] {
            if value > u32::from(u16::MAX) {
                return Err(ParamsError::TooLarge {
                    what,
                    max: u16::MAX.into(),
                });
            }
        }
        if self.l1_bytes == 0 {
            return Err(ParamsError::NonPositive("l1_bytes"));
        }
        if self.l2_bytes == 0 {
            return Err(ParamsError::NonPositive("l2_bytes"));
        }
        crate::trace::check_packable(self.warp_size, self.line_bytes)
    }

    /// Number of warps per thread block.
    pub fn warps_per_block(&self) -> u32 {
        self.tb_size.div_ceil(self.warp_size)
    }

    /// Thread blocks per window when a kernel is delivered in windows
    /// ([`KernelSource::windows`](crate::trace::KernelSource::windows)):
    /// twice the blocks the GPU holds resident at once, so a window
    /// refills every SM at least once before the next is packed. At
    /// least 1.
    pub fn window_blocks(&self) -> u64 {
        (2 * u64::from(self.num_sms) * u64::from(self.max_blocks_per_sm)).max(1)
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
    fn validate_rejects_warps_too_wide_to_pack() {
        let max = crate::trace::WarpTrace::MAX_WARP_SIZE;
        let p = SystemParams {
            warp_size: max + 1,
            ..SystemParams::default()
        };
        assert_eq!(
            p.validate(),
            Err(ParamsError::TooLarge {
                what: "warp_size",
                max: max.into()
            })
        );
        assert!(p.validate().unwrap_err().to_string().contains("32767"));
    }

    #[test]
    fn validate_bounds_completion_ring_capacities() {
        let max = u32::from(u16::MAX);
        let at_max = SystemParams {
            mshr_entries: max,
            store_buffer_entries: max,
            ..SystemParams::default()
        };
        assert_eq!(at_max.validate(), Ok(()));
        let p = SystemParams {
            mshr_entries: max + 1,
            ..SystemParams::default()
        };
        let err = p.validate().unwrap_err();
        assert_eq!(
            err,
            ParamsError::TooLarge {
                what: "mshr_entries",
                max: 65535
            }
        );
        assert_eq!(err.to_string(), "mshr_entries must be at most 65535");
        let p = SystemParams {
            store_buffer_entries: u32::MAX,
            ..SystemParams::default()
        };
        assert_eq!(
            p.validate(),
            Err(ParamsError::TooLarge {
                what: "store_buffer_entries",
                max: 65535
            })
        );
    }

    #[test]
    fn validate_rejects_invalid_parameters() {
        assert_eq!(SystemParams::default().validate(), Ok(()));
        let p = SystemParams {
            warp_size: 0,
            ..SystemParams::default()
        };
        assert_eq!(p.validate(), Err(ParamsError::NonPositive("warp_size")));
        let p = SystemParams {
            line_bytes: 48,
            ..SystemParams::default()
        };
        assert_eq!(p.validate(), Err(ParamsError::NotPowerOfTwo("line_bytes")));
        let err = ParamsError::NonPositive("tb_size");
        assert!(err.to_string().contains("tb_size must be positive"));
    }
}
