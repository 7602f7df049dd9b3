//! Top-level experiment API for the GGS reproduction of *Specializing
//! Coherence, Consistency, and Push/Pull for GPU Graph Analytics*
//! (ISPASS 2020).
//!
//! This crate composes the substrates — [`ggs_graph`] inputs,
//! [`ggs_apps`] kernels, the [`ggs_sim`] simulator, and the
//! [`ggs_model`] taxonomy/decision tree — into the paper's experiments:
//!
//! * [`experiment::run_workload`] — one (application, graph, system
//!   configuration) point: generates the kernel sequence and simulates
//!   it end to end, returning the execution-time breakdown.
//! * [`sweep`] — the configuration sets one workload is swept across
//!   (the bars of one Figure 5 group, their baseline, and the hybrid
//!   extension cells); each is run with `run_workload`.
//! * [`study::Study`] — the full 36-workload × configurations study
//!   behind Figures 5–6 and the Table V accuracy evaluation, runnable
//!   in parallel.
//!
//! # Example
//!
//! ```
//! use ggs_core::experiment::{run_workload, ExperimentSpec};
//! use ggs_core::Tracer;
//! use ggs_apps::AppKind;
//! use ggs_graph::GraphBuilder;
//!
//! let graph = GraphBuilder::new(512)
//!     .edges((0..511).map(|i| (i, i + 1)))
//!     .symmetric(true)
//!     .build()?;
//! let spec = ExperimentSpec::default();
//! let config = "SGR".parse()?;
//! let stats = run_workload(AppKind::Pr, &graph, config, &spec, Tracer::off(), None)?;
//! assert!(stats.total_cycles() > 0);
//! # Ok::<(), ggs_core::GgsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod experiment;
pub mod json;
pub mod runner;
pub mod store;
pub mod study;
pub mod sweep;
pub mod trace_cache;

pub use error::GgsError;
pub use experiment::{run_workload, ExperimentSpec, ExperimentSpecBuilder};
pub use ggs_trace::{MetricsRegistry, Tracer};
pub use runner::{run_study, CellReport, CellStatus, Fault, FaultPlan, StudyOptions, StudyOutcome};
pub use store::{Claim, CompactReport, Store, StoreFaults, StoreLoadReport, StoreSnapshot};
pub use study::{Study, WorkloadReport};
pub use trace_cache::{graph_fingerprint, StreamKey, TraceCache, TraceCacheStats, TraceStream};
