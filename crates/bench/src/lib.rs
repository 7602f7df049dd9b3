//! Benchmark and reproduction harness for the GGS workspace.
//!
//! The library surface is minimal: shared helpers for the `repro`
//! binary (`src/bin/repro.rs`), which regenerates every table and
//! figure of the paper and runs the `repro bench` throughput baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod render;
pub mod svg;
