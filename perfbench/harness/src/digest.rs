//! Committed correctness digests.
//!
//! A digest file pins each cell's simulated `(total_cycles, kernels)`
//! plus the number of exact Table V predictions. Lines:
//!
//! ```text
//! # comment
//! exact_predictions <scope> <count>
//! <APP/GRAPH/CONFIG> <total_cycles> <kernels>
//! ```
//!
//! The simulator is deterministic, so a run either matches exactly or
//! simulated something else. Digests are refreshed only together with
//! the golden stats and `BENCH_sim.json` (see the benchmark README).

use std::collections::BTreeMap;

/// Expected outputs of one workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// `APP/GRAPH/CONFIG` → `(total_cycles, kernels)`.
    pub cells: BTreeMap<String, (u64, u64)>,
    /// Exact predictions per scope (`all`: the whole study).
    pub exact: BTreeMap<String, u64>,
}

impl Digest {
    /// Parses a digest file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digest = Self::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("digest line {}: {e}: {line:?}", i + 1))
            };
            match fields.as_slice() {
                ["exact_predictions", scope, n] => {
                    digest.exact.insert((*scope).to_owned(), num(n)?);
                }
                [key, cycles, kernels] => {
                    digest
                        .cells
                        .insert((*key).to_owned(), (num(cycles)?, num(kernels)?));
                }
                _ => return Err(format!("digest line {}: malformed: {line:?}", i + 1)),
            }
        }
        Ok(digest)
    }

    /// The file form, under a `header` comment.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (scope, n) in &self.exact {
            out.push_str(&format!("exact_predictions {scope} {n}\n"));
        }
        for (key, (cycles, kernels)) in &self.cells {
            out.push_str(&format!("{key} {cycles} {kernels}\n"));
        }
        out
    }
}
