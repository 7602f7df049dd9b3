//! Dynamic coherence-protocol invariant checking (the `check` feature).
//!
//! The simulator's two protocols maintain internal invariants that no
//! counter or timing assertion would catch if they broke — a stale line
//! surviving an acquire changes *which* accesses hit, not whether the
//! run completes. This module is an observer threaded through
//! [`crate::mem::MemorySystem`] that re-derives those invariants from
//! raw cache state after every access and records violations with
//! enough diagnostics (cycle, SM, line) to debug them:
//!
//! * **SWMR** — at most one L1 holds a line `Owned` (DeNovo's
//!   single-writer guarantee);
//! * **registry consistency** — the DeNovo ownership registry and the
//!   L1 `Owned` states agree exactly, in both directions;
//! * **GPU coherence owns nothing** — write-through L1s never hold a
//!   registered (dirty) line, so nothing can be lost past a release;
//! * **acquire leaves no stale lines** — after a self-invalidation,
//!   only `Owned` lines remain in the acquiring L1.
//!
//! The checker is compiled in only under the `check` feature and
//! enabled at runtime ([`crate::SimulationBuilder::checker`]),
//! so ordinary timing runs pay nothing. Fault injectors on the
//! [`crate::DebugHooks`] handle ([`crate::DebugHooks::force_owned`],
//! [`crate::DebugHooks::skip_next_invalidation`], obtained via
//! [`crate::Simulation::debug_hooks`]) let tests prove the checker
//! actually fires — a checker that cannot fail certifies nothing.

use std::fmt;

/// Which protocol invariant a [`ProtocolViolation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// More than one L1 holds the same line in `Owned` state: the
    /// single-writer/multiple-reader guarantee is broken and stores can
    /// be silently lost.
    Swmr,
    /// The DeNovo ownership registry and the L1 `Owned` states
    /// disagree — a registered owner whose L1 does not hold the line
    /// `Owned`, or an L1 `Owned` line with no (or a different)
    /// registry entry.
    OwnerMapMismatch,
    /// An L1 holds an `Owned` line under GPU coherence. Write-through
    /// L1s never register lines, so a release cannot account for such a
    /// line and its data would escape the store-buffer drain.
    GpuOwnedLine,
    /// A `Valid` (unowned) line survived an acquire's
    /// self-invalidation and could serve stale data.
    StaleAfterAcquire,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InvariantKind::Swmr => "SWMR",
            InvariantKind::OwnerMapMismatch => "owner-map-mismatch",
            InvariantKind::GpuOwnedLine => "gpu-owned-line",
            InvariantKind::StaleAfterAcquire => "stale-after-acquire",
        })
    }
}

/// One detected protocol invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Simulated cycle of the access (or audit) that exposed the
    /// violation.
    pub cycle: u64,
    /// SM whose L1 is implicated.
    pub sm: u32,
    /// Cache line number (byte address >> line shift).
    pub line: u64,
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Human-readable specifics (other SMs involved, registry entry,
    /// line state found).
    pub detail: String,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cycle {}] {} at SM {} line {:#x}: {}",
            self.cycle, self.kind, self.sm, self.line, self.detail
        )
    }
}

/// Mutable checker state owned by the memory system. The invariant
/// logic itself lives in `MemorySystem` (it needs the caches and the
/// ownership registry); this struct only accumulates results and holds
/// injection flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProtocolChecker {
    /// Violations recorded since the last
    /// [`crate::mem::MemorySystem::take_protocol_violations`].
    pub(crate) violations: Vec<ProtocolViolation>,
    /// Fault injection: the next acquire skips its self-invalidation.
    pub(crate) skip_next_invalidation: bool,
    /// Cycle of the most recent checked access, used to timestamp
    /// violations found at events that carry no cycle (acquires).
    pub(crate) now: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_carries_diagnostics() {
        let v = ProtocolViolation {
            cycle: 1234,
            sm: 7,
            line: 0x40,
            kind: InvariantKind::Swmr,
            detail: "also owned by SM 3".to_owned(),
        };
        let text = v.to_string();
        assert!(text.contains("1234"), "{text}");
        assert!(text.contains("SM 7"), "{text}");
        assert!(text.contains("0x40"), "{text}");
        assert!(text.contains("SWMR"), "{text}");
        assert!(text.contains("SM 3"), "{text}");
    }

    #[test]
    fn kind_display_names_are_distinct() {
        let kinds = [
            InvariantKind::Swmr,
            InvariantKind::OwnerMapMismatch,
            InvariantKind::GpuOwnedLine,
            InvariantKind::StaleAfterAcquire,
        ];
        let names: std::collections::BTreeSet<String> =
            kinds.iter().map(|k| k.to_string()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
