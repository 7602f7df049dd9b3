//! The repository benchmark harness.
//!
//! Two workloads (`study`, `store`) run through the public
//! APIs of `ggs-core`, `ggs-graph`, `ggs-apps`, `ggs-sim` and
//! `ggs-model`. An untraced run prints the end-to-end metrics; a traced
//! run records a span around every layer call the harness makes and
//! prints the per-layer metrics. See `perfbench/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod drive;
pub mod layers;
pub mod output;
pub mod spans;
pub mod stats;
pub mod workloads;
