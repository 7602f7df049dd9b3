//! Hardware configuration vocabulary: coherence protocols and memory
//! consistency models (the two hardware dimensions of the paper's design
//! space, Table I).

use std::fmt;
use std::str::FromStr;

/// Cache coherence protocol (§II-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoherenceKind {
    /// Conventional software-driven GPU coherence: write-through L1s,
    /// flash self-invalidation of the L1 at synchronization reads, store
    /// buffer flush at synchronization writes, and all atomics executed
    /// at the shared L2.
    Gpu,
    /// DeNovo coherence: stores and atomics obtain *ownership*
    /// (registration) at the L1; owned lines are exempt from
    /// self-invalidation and flushes, and atomics to owned lines execute
    /// locally at the L1.
    DeNovo,
}

impl CoherenceKind {
    /// Both protocols, in the paper's presentation order.
    pub const ALL: [CoherenceKind; 2] = [CoherenceKind::Gpu, CoherenceKind::DeNovo];

    /// The single-letter code used in the paper's configuration names
    /// (`G` or `D`, the middle letter of e.g. `SGR`).
    pub fn letter(self) -> char {
        match self {
            CoherenceKind::Gpu => 'G',
            CoherenceKind::DeNovo => 'D',
        }
    }
}

impl fmt::Display for CoherenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherenceKind::Gpu => f.write_str("GPU"),
            CoherenceKind::DeNovo => f.write_str("DeNovo"),
        }
    }
}

/// Memory consistency model from the data-race-free family (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConsistencyModel {
    /// DRF0: every atomic is a paired acquire + release — it orders all
    /// data accesses around it (blocking), invalidates the L1, and
    /// flushes the store buffer.
    Drf0,
    /// DRF1: *unpaired* atomics may be overlapped with data accesses and
    /// skip the invalidate/flush, but execute in program order with
    /// respect to other atomics (at most one outstanding atomic per
    /// warp).
    Drf1,
    /// DRFrlx: relaxed atomics may additionally be overlapped with each
    /// other, exposing intra-thread memory-level parallelism (bounded
    /// only by MSHR capacity).
    DrfRlx,
}

impl ConsistencyModel {
    /// All three models, weakest-ordering last.
    pub const ALL: [ConsistencyModel; 3] = [
        ConsistencyModel::Drf0,
        ConsistencyModel::Drf1,
        ConsistencyModel::DrfRlx,
    ];

    /// The single-character code used in the paper's configuration names
    /// (`0`, `1`, or `R`, the final letter of e.g. `SGR`).
    pub fn letter(self) -> char {
        match self {
            ConsistencyModel::Drf0 => '0',
            ConsistencyModel::Drf1 => '1',
            ConsistencyModel::DrfRlx => 'R',
        }
    }

    /// `true` if atomics must also act as acquire/release fences (DRF0).
    pub fn atomics_are_paired(self) -> bool {
        matches!(self, ConsistencyModel::Drf0)
    }

    /// `true` if atomics may overlap each other (DRFrlx).
    pub fn atomics_overlap(self) -> bool {
        matches!(self, ConsistencyModel::DrfRlx)
    }

    /// `true` if an atomic acts as a full fence at issue — release
    /// (store-buffer drain) plus acquire (L1 self-invalidation). This
    /// is the DRF0 pairing; DRF1/DRFrlx atomics are unpaired and fence
    /// nothing.
    ///
    /// Shared by the timing model ([`crate::sm`]) and the `ggs-check`
    /// analyzer so both agree on which `MicroOp::Atomic` ops
    /// synchronize.
    pub fn atomic_is_fence(self) -> bool {
        self.atomics_are_paired()
    }

    /// `true` if atomics issue in program order with respect to the
    /// warp's previous atomic (DRF0 and DRF1; DRFrlx lets them
    /// overlap).
    pub fn atomics_program_ordered(self) -> bool {
        !self.atomics_overlap()
    }

    /// `true` if an atomic instruction blocks its warp until the value
    /// is back: always under DRF0 (paired), and under DRF1/DRFrlx only
    /// when the op is value-returning (`MicroOp::atomic_returning`) —
    /// a fire-and-forget `MicroOp::atomic` retires as soon as it is
    /// admitted.
    ///
    /// This single predicate is what makes `atomic` vs
    /// `atomic_returning` mean the same thing to the simulator's warp
    /// scheduler and to the race checker's synchronization analysis.
    pub fn atomic_blocks_warp(self, returns_value: bool) -> bool {
        self.atomics_are_paired() || returns_value
    }

    /// The model that stands for `self`'s *consistency class* on a
    /// kernel stream whose atomics are `mix`: the first model of
    /// [`ConsistencyModel::ALL`] under which the three predicates above
    /// treat every atomic of such a stream exactly as `self` does. The
    /// timing model consults the consistency model only through those
    /// predicates, so two models of one class time the stream
    /// identically, and a study simulates one of them and answers the
    /// others from it. The rule that falls out:
    ///
    /// - no atomics: nothing consults the model, so all three models
    ///   form one class, represented by DRF0;
    /// - only value-returning atomics: every atomic blocks its warp
    ///   until it is done, so program order between atomics never
    ///   delays one, and DRFrlx joins DRF1's class;
    /// - some fire-and-forget atomics: all three models differ.
    ///
    /// # Example
    ///
    /// ```
    /// use ggs_sim::config::{AtomicMix, ConsistencyModel};
    ///
    /// let rlx = ConsistencyModel::DrfRlx;
    /// assert_eq!(rlx.class_representative(AtomicMix::None), ConsistencyModel::Drf0);
    /// assert_eq!(rlx.class_representative(AtomicMix::AllReturning), ConsistencyModel::Drf1);
    /// assert_eq!(rlx.class_representative(AtomicMix::SomeFireAndForget), rlx);
    /// ```
    pub fn class_representative(self, mix: AtomicMix) -> ConsistencyModel {
        let behaviour = self.atomic_behaviour(mix);
        ConsistencyModel::ALL
            .into_iter()
            .find(|m| m.atomic_behaviour(mix) == behaviour)
            .unwrap_or(self)
    }

    /// Everything the SM's atomic issue path can observe of `self` on a
    /// stream whose atomics are `mix`: whether atomics fence, whether
    /// value-returning and fire-and-forget atomics block their warp, and
    /// whether program order can delay an atomic (only one issued after
    /// an atomic that did not block).
    fn atomic_behaviour(self, mix: AtomicMix) -> [bool; 4] {
        let returning = mix != AtomicMix::None;
        let fire_and_forget = mix == AtomicMix::SomeFireAndForget;
        let blocks_returning = returning && self.atomic_blocks_warp(true);
        let blocks_fire_and_forget = fire_and_forget && self.atomic_blocks_warp(false);
        let may_overlap =
            (returning && !blocks_returning) || (fire_and_forget && !blocks_fire_and_forget);
        [
            returning && self.atomic_is_fence(),
            blocks_returning,
            blocks_fire_and_forget,
            may_overlap && self.atomics_program_ordered(),
        ]
    }
}

/// Which atomics a kernel stream issues: all a consistency model can
/// observe of it (see [`ConsistencyModel::class_representative`]).
/// Ordered from least to most exposed, so a stream's mix is the
/// maximum over its kernels'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AtomicMix {
    /// No atomic op at all.
    #[default]
    None,
    /// Atomics, every one value-returning.
    AllReturning,
    /// At least one fire-and-forget (non-value-returning) atomic.
    SomeFireAndForget,
}

impl AtomicMix {
    /// The mix of a stream holding just one atomic.
    pub(crate) fn of_atomic(returns_value: bool) -> Self {
        if returns_value {
            AtomicMix::AllReturning
        } else {
            AtomicMix::SomeFireAndForget
        }
    }
}

impl fmt::Display for ConsistencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyModel::Drf0 => f.write_str("DRF0"),
            ConsistencyModel::Drf1 => f.write_str("DRF1"),
            ConsistencyModel::DrfRlx => f.write_str("DRFrlx"),
        }
    }
}

/// A hardware configuration point: one coherence protocol plus one
/// consistency model (the hardware half of the paper's 12-point design
/// space).
///
/// # Example
///
/// ```
/// use ggs_sim::config::{CoherenceKind, ConsistencyModel, HwConfig};
///
/// let hw = HwConfig::new(CoherenceKind::DeNovo, ConsistencyModel::Drf1);
/// assert_eq!(hw.code(), "D1");
/// assert_eq!("D1".parse::<HwConfig>().unwrap(), hw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HwConfig {
    /// Coherence protocol.
    pub coherence: CoherenceKind,
    /// Consistency model.
    pub consistency: ConsistencyModel,
}

impl HwConfig {
    /// Creates a configuration point.
    pub fn new(coherence: CoherenceKind, consistency: ConsistencyModel) -> Self {
        Self {
            coherence,
            consistency,
        }
    }

    /// All six hardware points (2 coherence × 3 consistency).
    pub fn all() -> impl Iterator<Item = HwConfig> {
        CoherenceKind::ALL.into_iter().flat_map(|c| {
            ConsistencyModel::ALL
                .into_iter()
                .map(move |m| HwConfig::new(c, m))
        })
    }

    /// Two-character code, e.g. `"GR"` for GPU coherence + DRFrlx.
    pub fn code(self) -> String {
        format!("{}{}", self.coherence.letter(), self.consistency.letter())
    }
}

impl fmt::Display for HwConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.coherence, self.consistency)
    }
}

/// Error parsing a hardware configuration code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHwConfigError(String);

impl fmt::Display for ParseHwConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid hardware config {:?} (expected <G|D><0|1|R>, e.g. \"GR\")",
            self.0
        )
    }
}

impl std::error::Error for ParseHwConfigError {}

impl FromStr for HwConfig {
    type Err = ParseHwConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseHwConfigError(s.to_owned());
        let mut chars = s.chars();
        let (Some(c), Some(m), None) = (chars.next(), chars.next(), chars.next()) else {
            return Err(err());
        };
        let coherence = match c.to_ascii_uppercase() {
            'G' => CoherenceKind::Gpu,
            'D' => CoherenceKind::DeNovo,
            _ => return Err(err()),
        };
        let consistency = match m.to_ascii_uppercase() {
            '0' => ConsistencyModel::Drf0,
            '1' => ConsistencyModel::Drf1,
            'R' => ConsistencyModel::DrfRlx,
            _ => return Err(err()),
        };
        Ok(HwConfig::new(coherence, consistency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_hardware_points() {
        assert_eq!(HwConfig::all().count(), 6);
    }

    #[test]
    fn codes_roundtrip() {
        for hw in HwConfig::all() {
            let parsed: HwConfig = hw.code().parse().unwrap();
            assert_eq!(parsed, hw);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("XR".parse::<HwConfig>().is_err());
        assert!("G".parse::<HwConfig>().is_err());
        assert!("GRR".parse::<HwConfig>().is_err());
        assert!("G2".parse::<HwConfig>().is_err());
    }

    #[test]
    fn consistency_predicates() {
        assert!(ConsistencyModel::Drf0.atomics_are_paired());
        assert!(!ConsistencyModel::Drf1.atomics_are_paired());
        assert!(ConsistencyModel::DrfRlx.atomics_overlap());
        assert!(!ConsistencyModel::Drf1.atomics_overlap());
    }

    #[test]
    fn consistency_classes_follow_the_atomic_mix() {
        use AtomicMix::{AllReturning, None as NoAtomics, SomeFireAndForget};
        use ConsistencyModel::{Drf0, Drf1, DrfRlx};
        // (stream's atomics, model) -> the model that represents its class.
        let table = [
            // Pull and other atomic-free streams: consistency-insensitive.
            (NoAtomics, Drf0, Drf0),
            (NoAtomics, Drf1, Drf0),
            (NoAtomics, DrfRlx, Drf0),
            // CC: every atomic is a value-returning CAS.
            (AllReturning, Drf0, Drf0),
            (AllReturning, Drf1, Drf1),
            (AllReturning, DrfRlx, Drf1),
            // SSSP push (fire-and-forget atomicMin): three classes, even
            // where SG1 and SGR happen to take equal cycles.
            (SomeFireAndForget, Drf0, Drf0),
            (SomeFireAndForget, Drf1, Drf1),
            (SomeFireAndForget, DrfRlx, DrfRlx),
        ];
        for (mix, model, class) in table {
            assert_eq!(model.class_representative(mix), class, "{model} on {mix:?}");
        }
    }

    #[test]
    fn a_stream_mix_is_the_most_exposed_kernel_mix() {
        assert_eq!(AtomicMix::default(), AtomicMix::None);
        assert_eq!(AtomicMix::of_atomic(true), AtomicMix::AllReturning);
        assert_eq!(AtomicMix::of_atomic(false), AtomicMix::SomeFireAndForget);
        assert!(AtomicMix::None < AtomicMix::AllReturning);
        assert!(AtomicMix::AllReturning < AtomicMix::SomeFireAndForget);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            HwConfig::new(CoherenceKind::Gpu, ConsistencyModel::DrfRlx).to_string(),
            "GPU+DRFrlx"
        );
    }
}
