//! The specialization decision tree (Figure 4 and §IV of the paper).

use std::fmt;
use std::str::FromStr;

use ggs_sim::{CoherenceKind, ConsistencyModel, HwConfig};

use crate::classes::Level;
use crate::profile::GraphProfile;
use crate::taxonomy::{AlgoProfile, Propagation, Traversal};

/// A full system configuration point: update propagation (software),
/// coherence, and consistency (hardware) — one of the paper's 12
/// configurations, named by its three-letter code (e.g. `SGR` = push +
/// GPU coherence + DRFrlx, `TG0` = pull + GPU coherence + DRF0, `DD1` =
/// dynamic + DeNovo + DRF1).
///
/// # Example
///
/// ```
/// use ggs_model::SystemConfig;
///
/// let cfg: SystemConfig = "SGR".parse()?;
/// assert_eq!(cfg.code(), "SGR");
/// # Ok::<(), ggs_model::decision::ParseConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SystemConfig {
    /// Update propagation strategy (software).
    pub propagation: Propagation,
    /// Coherence protocol (hardware).
    pub coherence: CoherenceKind,
    /// Consistency model (hardware).
    pub consistency: ConsistencyModel,
}

impl SystemConfig {
    /// Creates a configuration point.
    pub fn new(
        propagation: Propagation,
        coherence: CoherenceKind,
        consistency: ConsistencyModel,
    ) -> Self {
        Self {
            propagation,
            coherence,
            consistency,
        }
    }

    /// All 12 configuration points of the design space for a given
    /// traversal kind: static traversals choose pull (`T*`) or push
    /// (`S*`); dynamic traversals are always `D*`.
    pub fn all_for(traversal: Traversal) -> Vec<SystemConfig> {
        let props: &[Propagation] = match traversal {
            Traversal::Static => &[Propagation::Pull, Propagation::Push],
            Traversal::Dynamic => &[Propagation::PushPull],
        };
        let mut v = Vec::new();
        for &p in props {
            for c in CoherenceKind::ALL {
                for m in ConsistencyModel::ALL {
                    v.push(SystemConfig::new(p, c, m));
                }
            }
        }
        v
    }

    /// The three-letter code (`SGR`, `TG0`, `DD1`, …).
    pub fn code(&self) -> String {
        format!(
            "{}{}{}",
            self.propagation.letter(),
            self.coherence.letter(),
            self.consistency.letter()
        )
    }

    /// The hardware half of the configuration.
    pub fn hw(&self) -> HwConfig {
        HwConfig::new(self.coherence, self.consistency)
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.code())
    }
}

/// Error parsing a configuration code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError(String);

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid system config {:?} (expected <T|S|D|H><G|D><0|1|R>, e.g. \"SGR\")",
            self.0
        )
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for SystemConfig {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseConfigError(s.to_owned());
        let chars: Vec<char> = s.chars().collect();
        let [p, c, m] = chars[..] else {
            return Err(err());
        };
        let propagation = match p.to_ascii_uppercase() {
            'T' => Propagation::Pull,
            'S' => Propagation::Push,
            'D' => Propagation::PushPull,
            'H' => Propagation::Hybrid,
            _ => return Err(err()),
        };
        let hw: HwConfig = format!("{c}{m}").parse().map_err(|_| err())?;
        Ok(SystemConfig::new(propagation, hw.coherence, hw.consistency))
    }
}

/// Predicts the best configuration over the **full** design space
/// (Figure 4).
///
/// * Dynamic traversal → `DD1` (DeNovo exploits convergence-driven
///   reuse; DRF1 keeps programmability since relaxation cannot help
///   value-returning racy accesses — §IV-A4).
/// * Static traversal: push when control or information favors the
///   source, or when the input has medium/low reuse, high/medium
///   imbalance, or high volume; otherwise pull paired with `G0`
///   (pull needs neither atomics optimizations nor relaxation).
/// * Push coherence: GPU when reuse is medium/low or volume high
///   (ownership would not pay off / would thrash), else DeNovo.
/// * Push consistency: DRFrlx when imbalance is high or volume is
///   high/medium (MLP hides long-latency atomics), else DRF1.
pub fn predict_full(algo: &AlgoProfile, graph: &GraphProfile) -> SystemConfig {
    if algo.traversal == Traversal::Dynamic {
        return SystemConfig::new(
            Propagation::PushPull,
            CoherenceKind::DeNovo,
            ConsistencyModel::Drf1,
        );
    }
    let input_wants_push = graph.reuse_class.at_most_medium()
        || graph.imbalance_class.at_least_medium()
        || graph.volume == Level::High;
    if algo.favors_source() || input_wants_push {
        push_config(graph)
    } else {
        SystemConfig::new(
            Propagation::Pull,
            CoherenceKind::Gpu,
            ConsistencyModel::Drf0,
        )
    }
}

/// The secondary (coherence + consistency) decision for a push
/// implementation (Figure 4, right half).
fn push_config(graph: &GraphProfile) -> SystemConfig {
    let coherence = if graph.reuse_class.at_most_medium() || graph.volume == Level::High {
        CoherenceKind::Gpu
    } else {
        CoherenceKind::DeNovo
    };
    let consistency = if graph.imbalance_class == Level::High || graph.volume.at_least_medium() {
        ConsistencyModel::DrfRlx
    } else {
        ConsistencyModel::Drf1
    };
    SystemConfig::new(Propagation::Push, coherence, consistency)
}

/// The hybrid (frontier-adaptive push/pull) configuration point for a
/// graph: propagation `H` paired with the push sub-tree's hardware half
/// (Figure 4, right) — any hybrid iteration may realize the push
/// variant, so the hardware must still service its fine-grained
/// atomics, while pull iterations are simply over-provisioned.
pub fn hybrid_config(graph: &GraphProfile) -> SystemConfig {
    let push = push_config(graph);
    SystemConfig::new(Propagation::Hybrid, push.coherence, push.consistency)
}

/// Extends the decision tree with the frontier-adaptive hybrid point
/// (this repo's 13th configuration dimension, beyond Figure 4).
///
/// Returns `Some` only for frontier-driven algorithms — static
/// traversals whose *control* property favors the source, i.e. the
/// active-set predicate lives at the update source (BFS, SSSP), which
/// is exactly what a per-iteration frontier-density switch exploits.
/// Symmetric- or target-control apps and dynamic traversals get `None`:
/// they have no sparse frontier for push iterations to win on.
///
/// Callers must still intersect with the application's
/// `supported_propagations` table — an algorithm may be frontier-driven
/// on paper yet not expose its active set in this repo's producer.
pub fn predict_hybrid(algo: &AlgoProfile, graph: &GraphProfile) -> Option<SystemConfig> {
    if algo.traversal == Traversal::Static
        && algo.control == Some(crate::taxonomy::AlgoBias::Source)
    {
        Some(hybrid_config(graph))
    } else {
        None
    }
}

/// Predicts the best configuration when the hardware does **not**
/// support DRFrlx (§IV-B).
///
/// The consistency dimension collapses (push uses DRF1), and the
/// push/pull decision becomes more conservative:
///
/// * control favors source → push;
/// * otherwise, if information favors source, the full model's input
///   gate applies (medium volume still suffices for push);
/// * otherwise push requires medium/low reuse, high/medium imbalance,
///   or **high** volume — medium volume is no longer sufficient because
///   the atomics can no longer be relaxed.
pub fn predict_partial(algo: &AlgoProfile, graph: &GraphProfile) -> SystemConfig {
    if algo.traversal == Traversal::Dynamic {
        return SystemConfig::new(
            Propagation::PushPull,
            CoherenceKind::DeNovo,
            ConsistencyModel::Drf1,
        );
    }
    let control_source = algo.control == Some(crate::taxonomy::AlgoBias::Source);
    let info_source = algo.information == Some(crate::taxonomy::AlgoBias::Source);
    let base_gate = graph.reuse_class.at_most_medium() || graph.imbalance_class.at_least_medium();
    let choose_push = if control_source {
        true
    } else if info_source {
        base_gate || graph.volume.at_least_medium()
    } else {
        base_gate || graph.volume == Level::High
    };
    if choose_push {
        let full = push_config(graph);
        SystemConfig::new(Propagation::Push, full.coherence, ConsistencyModel::Drf1)
    } else {
        SystemConfig::new(
            Propagation::Pull,
            CoherenceKind::Gpu,
            ConsistencyModel::Drf0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::AlgoBias;

    fn profile(volume: Level, reuse: Level, imbalance: Level) -> GraphProfile {
        GraphProfile::from_classes(volume, reuse, imbalance)
    }

    // Table II classes: AMZ=HML(vol,reuse,imb order: volume H, reuse M,
    // imb L), DCT=MMM, EML=HLH, OLS=MHL, RAJ=LHH, WNG=MLL.
    fn amz() -> GraphProfile {
        profile(Level::High, Level::Medium, Level::Low)
    }
    fn dct() -> GraphProfile {
        profile(Level::Medium, Level::Medium, Level::Medium)
    }
    fn eml() -> GraphProfile {
        profile(Level::High, Level::Low, Level::High)
    }
    fn ols() -> GraphProfile {
        profile(Level::Medium, Level::High, Level::Low)
    }
    fn raj() -> GraphProfile {
        profile(Level::Low, Level::High, Level::High)
    }
    fn wng() -> GraphProfile {
        profile(Level::Medium, Level::Low, Level::Low)
    }

    // Table III profiles.
    fn pr() -> AlgoProfile {
        AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Source)
    }
    fn sssp() -> AlgoProfile {
        AlgoProfile::new_static(AlgoBias::Source, AlgoBias::Source)
    }
    fn mis() -> AlgoProfile {
        AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Symmetric)
    }
    fn clr() -> AlgoProfile {
        AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Target)
    }
    fn bc() -> AlgoProfile {
        AlgoProfile::new_static(AlgoBias::Source, AlgoBias::Symmetric)
    }
    fn cc() -> AlgoProfile {
        AlgoProfile::new_dynamic()
    }

    /// The model must reproduce the paper's Table V exactly.
    #[test]
    fn reproduces_table_v() {
        let apps = [pr(), sssp(), mis(), clr(), bc(), cc()];
        let expected = [
            (amz(), ["SGR", "SGR", "SGR", "SGR", "SGR", "DD1"]),
            (dct(), ["SGR", "SGR", "SGR", "SGR", "SGR", "DD1"]),
            (eml(), ["SGR", "SGR", "SGR", "SGR", "SGR", "DD1"]),
            (ols(), ["SDR", "SDR", "TG0", "TG0", "SDR", "DD1"]),
            (raj(), ["SDR", "SDR", "SDR", "SDR", "SDR", "DD1"]),
            (wng(), ["SGR", "SGR", "SGR", "SGR", "SGR", "DD1"]),
        ];
        for (graph, row) in &expected {
            for (app, want) in apps.iter().zip(row.iter()) {
                let got = predict_full(app, graph);
                assert_eq!(
                    got.code(),
                    *want,
                    "graph {:?} app {:?}",
                    graph.class_code(),
                    app
                );
            }
        }
    }

    #[test]
    fn partial_model_keeps_push_for_source_control() {
        // SSSP elides at source: push even without DRFrlx.
        let got = predict_partial(&sssp(), &raj());
        assert_eq!(got.propagation, Propagation::Push);
        assert_eq!(got.consistency, ConsistencyModel::Drf1);
    }

    #[test]
    fn partial_model_flips_symmetric_apps_to_pull_on_medium_volume() {
        // WNG is medium volume, low reuse: full model pushes (reuse L).
        // A hypothetical graph with high reuse, low imbalance, medium
        // volume and a symmetric app must flip to pull without DRFrlx.
        let g = profile(Level::Medium, Level::High, Level::Low);
        assert_eq!(predict_full(&pr(), &g).code(), "SDR"); // info source
        assert_eq!(predict_partial(&mis(), &g).code(), "TG0");
        // With info=source, medium volume still justifies push.
        assert_eq!(predict_partial(&pr(), &g).code(), "SD1");
    }

    #[test]
    fn partial_model_never_emits_drfrlx() {
        for app in [pr(), sssp(), mis(), clr(), bc(), cc()] {
            for g in [amz(), dct(), eml(), ols(), raj(), wng()] {
                let cfg = predict_partial(&app, &g);
                assert_ne!(cfg.consistency, ConsistencyModel::DrfRlx);
            }
        }
    }

    #[test]
    fn dynamic_always_dd1() {
        for g in [amz(), raj(), wng()] {
            assert_eq!(predict_full(&cc(), &g).code(), "DD1");
            assert_eq!(predict_partial(&cc(), &g).code(), "DD1");
        }
    }

    #[test]
    fn config_codes_roundtrip() {
        for t in [Traversal::Static, Traversal::Dynamic] {
            for cfg in SystemConfig::all_for(t) {
                let parsed: SystemConfig = cfg.code().parse().unwrap();
                assert_eq!(parsed, cfg);
            }
        }
    }

    #[test]
    fn twelve_static_and_six_dynamic_points() {
        assert_eq!(SystemConfig::all_for(Traversal::Static).len(), 12);
        assert_eq!(SystemConfig::all_for(Traversal::Dynamic).len(), 6);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("XGR".parse::<SystemConfig>().is_err());
        assert!("SG".parse::<SystemConfig>().is_err());
        assert!("SGRR".parse::<SystemConfig>().is_err());
    }

    #[test]
    fn hybrid_codes_roundtrip() {
        for coh in CoherenceKind::ALL {
            for cons in ConsistencyModel::ALL {
                let cfg = SystemConfig::new(Propagation::Hybrid, coh, cons);
                assert!(cfg.code().starts_with('H'));
                let parsed: SystemConfig = cfg.code().parse().unwrap();
                assert_eq!(parsed, cfg);
            }
        }
    }

    #[test]
    fn hybrid_predictor_gates_on_source_control() {
        for g in [amz(), dct(), eml(), ols(), raj(), wng()] {
            // Frontier-driven apps (source control) get the hybrid
            // point, with the push sub-tree's hardware half.
            let h = predict_hybrid(&sssp(), &g).expect("SSSP is frontier-driven");
            assert_eq!(h.propagation, Propagation::Hybrid);
            assert_eq!(h.hw(), push_config(&g).hw());
            // Symmetric control and dynamic traversal have no frontier.
            assert_eq!(predict_hybrid(&pr(), &g), None);
            assert_eq!(predict_hybrid(&mis(), &g), None);
            assert_eq!(predict_hybrid(&cc(), &g), None);
        }
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;
    use crate::taxonomy::AlgoBias;

    fn all_levels() -> [Level; 3] {
        [Level::Low, Level::Medium, Level::High]
    }

    /// The full tree over all 27 input-class combinations for a
    /// symmetric-property app: pull appears exactly on the Figure 4
    /// "else" region (high reuse AND low imbalance AND volume not
    /// high); every push cell follows the coherence/consistency arms.
    #[test]
    fn full_tree_exhaustive_for_symmetric_apps() {
        let algo = AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Symmetric);
        for v in all_levels() {
            for r in all_levels() {
                for i in all_levels() {
                    let g = GraphProfile::from_classes(v, r, i);
                    let cfg = predict_full(&algo, &g);
                    let expect_pull = r == Level::High && i == Level::Low && v != Level::High;
                    assert_eq!(
                        cfg.propagation == Propagation::Pull,
                        expect_pull,
                        "classes {v:?}/{r:?}/{i:?} -> {cfg}"
                    );
                    if cfg.propagation == Propagation::Push {
                        let want_gpu = r != Level::High || v == Level::High;
                        assert_eq!(
                            cfg.coherence == CoherenceKind::Gpu,
                            want_gpu,
                            "classes {v:?}/{r:?}/{i:?} -> {cfg}"
                        );
                        let want_rlx = i == Level::High || v != Level::Low;
                        assert_eq!(
                            cfg.consistency == ConsistencyModel::DrfRlx,
                            want_rlx,
                            "classes {v:?}/{r:?}/{i:?} -> {cfg}"
                        );
                    }
                }
            }
        }
    }

    /// Source-favoring apps are push on all 27 combinations, and the
    /// hardware half matches the symmetric app's push cells exactly
    /// (the push sub-tree is independent of the algorithm).
    #[test]
    fn push_subtree_is_algorithm_independent() {
        let src = AlgoProfile::new_static(AlgoBias::Source, AlgoBias::Source);
        let sym = AlgoProfile::new_static(AlgoBias::Symmetric, AlgoBias::Symmetric);
        for v in all_levels() {
            for r in all_levels() {
                for i in all_levels() {
                    let g = GraphProfile::from_classes(v, r, i);
                    let a = predict_full(&src, &g);
                    assert_eq!(a.propagation, Propagation::Push);
                    let b = predict_full(&sym, &g);
                    if b.propagation == Propagation::Push {
                        assert_eq!(a.hw(), b.hw(), "classes {v:?}/{r:?}/{i:?}");
                    }
                }
            }
        }
    }
}
