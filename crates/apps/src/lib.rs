//! The six graph applications of *Specializing Coherence, Consistency,
//! and Push/Pull for GPU Graph Analytics* (ISPASS 2020), §V-B.
//!
//! Five applications are re-implementations of Pannotia benchmarks —
//! PageRank ([`pr`]), Single-Source Shortest Path ([`sssp`]), Maximal
//! Independent Set ([`mis`]), Graph Coloring ([`clr`]), and Betweenness
//! Centrality ([`bc`]) — each in a *push* (source-centric, atomic
//! updates) and a *pull* (target-centric, local updates) variant. The
//! sixth, Connected Components ([`cc`]), follows the ECL-CC algorithm of
//! Jaiganesh & Burtscher and represents *dynamic* traversal (racy
//! push+pull through data-dependent parent pointers). Breadth-First
//! Search ([`bfs`]) is provided as an extension beyond the paper's
//! matrix (§VIII outlook).
//!
//! Every application provides:
//!
//! * a **host reference** implementation (plain Rust, used as the
//!   correctness oracle in tests and by downstream users who just want
//!   the answer);
//! * a **kernel-trace generator** that replays the algorithm and emits
//!   the per-thread micro-op streams ([`ggs_sim::trace`]) a GPU
//!   execution would produce — predicate loads, CSR walks, property
//!   accesses, atomics — for the chosen [`Propagation`] variant;
//! * its algorithmic-property row from the paper's Table III
//!   ([`AppKind::algo_profile`]).
//!
//! # Example
//!
//! ```
//! use ggs_apps::{AppKind, Workload};
//! use ggs_graph::GraphBuilder;
//! use ggs_model::Propagation;
//!
//! let graph = GraphBuilder::new(64)
//!     .edges((0..63).map(|i| (i, i + 1)))
//!     .symmetric(true)
//!     .build()?;
//!
//! // Count the kernels a push PageRank run launches.
//! let workload = Workload::new(AppKind::Pr, &graph);
//! let mut kernels = 0;
//! workload.produce(Propagation::Push, 256, &mut |_k, _dir| kernels += 1);
//! assert_eq!(kernels, ggs_apps::pr::ITERATIONS as usize);
//! # Ok::<(), ggs_graph::GraphError>(())
//! ```
//!
//! [`Propagation`]: ggs_model::Propagation

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod clr;
mod common;
pub mod mis;
pub mod pr;
mod registry;
pub mod sssp;

pub use registry::{AppKind, ParseAppError, Workload, SSSP_MAX_WEIGHT};
