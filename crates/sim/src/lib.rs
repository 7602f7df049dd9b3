//! Cycle-approximate simulator of a tightly-integrated, coherent CPU-GPU
//! system, reproducing the platform of *Specializing Coherence,
//! Consistency, and Push/Pull for GPU Graph Analytics* (ISPASS 2020).
//!
//! The paper's authors used a GEMS + Simics + GPGPU-Sim + Garnet stack
//! (§V-C); neither that stack nor hardware with configurable coherence
//! exists to run against, so this crate implements the mechanisms that
//! drive the paper's results from scratch:
//!
//! * a GPU of 15 single-issue SMs executing 32-lane warps from 256-thread
//!   blocks, with greedy-then-oldest scheduling and per-warp memory
//!   coalescing ([`engine`], [`sm`]);
//! * a memory hierarchy with per-SM L1s, a 16-bank NUCA L2 spread over a
//!   4×4 mesh NoC, MSHRs, and store buffers, using the paper's Table IV
//!   latencies ([`mem`], [`cache`], [`noc`]);
//! * two coherence protocols — conventional **GPU coherence**
//!   (write-through L1, flash self-invalidation at acquires, atomics at
//!   the L2) and **DeNovo** (ownership registration at the L1, owned
//!   lines survive synchronization, atomics at the L1) ([`mem`]);
//! * three consistency models — **DRF0** (every atomic is a paired
//!   acquire/release), **DRF1** (unpaired atomics overlap data accesses
//!   but stay SC with respect to each other), and **DRFrlx** (relaxed
//!   atomics also overlap each other, exposing MLP) ([`config`]);
//! * the stall-classification methodology of Alsop et al. used by the
//!   paper's Figure 5 (Busy / Comp / Data / Sync / Idle) ([`stats`]).
//!
//! Workloads are expressed as per-thread micro-op traces ([`trace`])
//! produced by the `ggs-apps` crate; the address layout helper
//! ([`layout`]) keeps the two crates agreeing on where each array lives.
//!
//! The machine is one plain struct, [`SystemParams`], whose `Default`
//! is Table IV; a variant is a struct literal with `..Default::default()`,
//! checked by [`SystemParams::validate`]. The protocol checker (`check`
//! feature) is armed with [`SimulationBuilder`]'s `checker()`.
//!
//! # Example
//!
//! ```
//! use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
//! use ggs_sim::engine::Simulation;
//! use ggs_sim::params::SystemParams;
//! use ggs_sim::trace::{KernelSource, MicroOp};
//!
//! // One thread block; every thread loads one word then computes.
//! let mut emit = |t: u32, ops: &mut Vec<MicroOp>| {
//!     ops.extend([MicroOp::load(u64::from(t) * 4), MicroOp::compute(8)]);
//! };
//!
//! // Coalesce it into warp slots once, for the simulated geometry.
//! let params = SystemParams::default();
//! let packed = KernelSource::new(256, 256, &mut emit).pack(&params)?;
//!
//! let hw = HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::Drf0);
//! let mut sim = Simulation::new(params, hw)?;
//! sim.run_kernel(&packed)?;
//! let stats = sim.finish();
//! assert!(stats.total_cycles() > 0);
//! # Ok::<(), ggs_sim::params::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
#[cfg(feature = "check")]
pub mod check;
pub mod config;
pub mod engine;
mod events;
pub mod layout;
pub mod mem;
pub mod noc;
pub mod params;
pub mod sm;
pub mod stats;
pub mod trace;

#[cfg(feature = "check")]
pub use check::{InvariantKind, ProtocolViolation};
pub use config::{AtomicMix, CoherenceKind, ConsistencyModel, HwConfig};
#[cfg(feature = "check")]
pub use engine::DebugHooks;
pub use engine::{Simulation, SimulationBuilder};
pub use ggs_trace::{TraceEvent, TraceSink, Tracer};
pub use params::{ParamsError, SystemParams};
pub use stats::{ExecStats, StallBreakdown, StallClass};
pub use trace::{BlockWindow, KernelSource, KernelTrace, MicroOp, WarpTrace};
