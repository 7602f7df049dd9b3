//! Sweeping one workload across system configurations (one group of
//! bars in the paper's Figure 5).

use ggs_apps::AppKind;
use ggs_graph::Csr;
use ggs_model::taxonomy::{Propagation, Traversal};
use ggs_model::SystemConfig;
use ggs_sim::{CoherenceKind, ConsistencyModel, ExecStats};

use ggs_trace::Tracer;

use crate::error::GgsError;
use crate::experiment::{run_workload, ExperimentSpec};

/// The result of one configuration point within a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// The configuration simulated.
    pub config: SystemConfig,
    /// Its execution statistics.
    pub stats: ExecStats,
}

/// One workload (application + graph) swept across configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSweep {
    /// The application.
    pub app: AppKind,
    /// Name of the input graph (preset mnemonic or custom name).
    pub graph_name: String,
    /// Per-configuration results, in the order simulated.
    pub results: Vec<ConfigResult>,
}

/// Builds a configuration point in const context (the struct fields are
/// public, so the tables below are verified at compile time — no
/// parsing, no panic path).
const fn cfg(
    propagation: Propagation,
    coherence: CoherenceKind,
    consistency: ConsistencyModel,
) -> SystemConfig {
    SystemConfig {
        propagation,
        coherence,
        consistency,
    }
}

/// The five Figure 5 bars for static workloads: TG0 (the only pull bar:
/// pull is insensitive to coherence/consistency) plus push over
/// {GPU, DeNovo} × {DRF1, DRFrlx} (DRF0 push is uniformly poor and
/// omitted, §VI).
const STATIC_FIGURE5: [SystemConfig; 5] = [
    cfg(
        Propagation::Pull,
        CoherenceKind::Gpu,
        ConsistencyModel::Drf0,
    ), // TG0
    cfg(
        Propagation::Push,
        CoherenceKind::Gpu,
        ConsistencyModel::Drf1,
    ), // SG1
    cfg(
        Propagation::Push,
        CoherenceKind::Gpu,
        ConsistencyModel::DrfRlx,
    ), // SGR
    cfg(
        Propagation::Push,
        CoherenceKind::DeNovo,
        ConsistencyModel::Drf1,
    ), // SD1
    cfg(
        Propagation::Push,
        CoherenceKind::DeNovo,
        ConsistencyModel::DrfRlx,
    ), // SDR
];

/// The four `D*` bars Figure 5 shows for CC (dynamic traversal).
const DYNAMIC_FIGURE5: [SystemConfig; 4] = [
    cfg(
        Propagation::PushPull,
        CoherenceKind::Gpu,
        ConsistencyModel::Drf1,
    ), // DG1
    cfg(
        Propagation::PushPull,
        CoherenceKind::Gpu,
        ConsistencyModel::DrfRlx,
    ), // DGR
    cfg(
        Propagation::PushPull,
        CoherenceKind::DeNovo,
        ConsistencyModel::Drf1,
    ), // DD1
    cfg(
        Propagation::PushPull,
        CoherenceKind::DeNovo,
        ConsistencyModel::DrfRlx,
    ), // DDR
];

/// The hybrid (frontier-adaptive push/pull) extension cells — this
/// repo's 13th configuration dimension, beyond the paper's 12-point
/// grid. The hardware halves mirror the push Figure 5 bars (any hybrid
/// iteration may realize push, so its atomics must be serviceable);
/// HG1 doubles as the hybrid normalization baseline.
const HYBRID_EXTENSION: [SystemConfig; 4] = [
    cfg(
        Propagation::Hybrid,
        CoherenceKind::Gpu,
        ConsistencyModel::Drf1,
    ), // HG1
    cfg(
        Propagation::Hybrid,
        CoherenceKind::Gpu,
        ConsistencyModel::DrfRlx,
    ), // HGR
    cfg(
        Propagation::Hybrid,
        CoherenceKind::DeNovo,
        ConsistencyModel::Drf1,
    ), // HD1
    cfg(
        Propagation::Hybrid,
        CoherenceKind::DeNovo,
        ConsistencyModel::DrfRlx,
    ), // HDR
];

/// The Figure 5 normalization baselines: TG0 for static workloads, DG1
/// for CC.
const STATIC_BASELINE: SystemConfig = STATIC_FIGURE5[0]; // TG0
const DYNAMIC_BASELINE: SystemConfig = DYNAMIC_FIGURE5[0]; // DG1

/// The configurations Figure 5 shows per workload: five for static
/// workloads, four for CC. The tables behind it (`STATIC_FIGURE5` /
/// `DYNAMIC_FIGURE5`) are compile-time constants, so this cannot fail.
pub fn figure5_configs(app: AppKind) -> Vec<SystemConfig> {
    match app.algo_profile().traversal {
        Traversal::Static => STATIC_FIGURE5.to_vec(),
        Traversal::Dynamic => DYNAMIC_FIGURE5.to_vec(),
    }
}

/// The baseline every bar of a Figure 5 group is normalized to: `TG0`
/// for static workloads, `DG1` for CC.
pub fn baseline_config(app: AppKind) -> SystemConfig {
    match app.algo_profile().traversal {
        Traversal::Static => STATIC_BASELINE,
        Traversal::Dynamic => DYNAMIC_BASELINE,
    }
}

/// The frontier-adaptive hybrid cells for `app` — the extension grid
/// simulated *alongside* the Figure 5 bars (never mixed into them, so
/// every paper-faithful table stays pinned). Empty for applications
/// whose producers expose no active set (see
/// [`AppKind::supported_propagations`]).
pub fn hybrid_configs(app: AppKind) -> Vec<SystemConfig> {
    if app.supported_propagations().contains(&Propagation::Hybrid) {
        HYBRID_EXTENSION.to_vec()
    } else {
        Vec::new()
    }
}

impl WorkloadSweep {
    /// Runs `app` on `graph` across `configs`.
    ///
    /// # Panics
    ///
    /// Panics if any configuration's propagation is unsupported by
    /// `app`. Prefer [`WorkloadSweep::try_run`] on paths that must not
    /// panic.
    pub fn run(
        app: AppKind,
        graph_name: impl Into<String>,
        graph: &Csr,
        configs: &[SystemConfig],
        spec: &ExperimentSpec,
    ) -> Self {
        Self::run_traced(app, graph_name, graph, configs, spec, Tracer::off())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`WorkloadSweep::run`].
    pub fn try_run(
        app: AppKind,
        graph_name: impl Into<String>,
        graph: &Csr,
        configs: &[SystemConfig],
        spec: &ExperimentSpec,
    ) -> Result<Self, GgsError> {
        Self::run_traced(app, graph_name, graph, configs, spec, Tracer::off())
    }

    /// Fallible, instrumented variant of [`WorkloadSweep::run`]: every
    /// configuration's simulation emits through `tracer` under the
    /// spec's budget (see [`run_workload`]).
    pub fn run_traced(
        app: AppKind,
        graph_name: impl Into<String>,
        graph: &Csr,
        configs: &[SystemConfig],
        spec: &ExperimentSpec,
        tracer: Tracer<'_>,
    ) -> Result<Self, GgsError> {
        let results = configs
            .iter()
            .map(|&config| {
                run_workload(app, graph, config, spec, tracer, None)
                    .map(|stats| ConfigResult { config, stats })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            app,
            graph_name: graph_name.into(),
            results,
        })
    }

    /// The fastest configuration (the paper's per-workload BEST).
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty. Prefer [`WorkloadSweep::try_best`]
    /// on paths that must not panic.
    pub fn best(&self) -> &ConfigResult {
        self.try_best()
            .unwrap_or_else(|| panic!("sweep has at least one configuration"))
    }

    /// The fastest configuration, or `None` for an empty sweep.
    pub fn try_best(&self) -> Option<&ConfigResult> {
        self.results.iter().min_by_key(|r| r.stats.total_cycles())
    }

    /// The result for a specific configuration, if it was swept.
    pub fn result_for(&self, config: SystemConfig) -> Option<&ConfigResult> {
        self.results.iter().find(|r| r.config == config)
    }

    /// Execution times normalized to `baseline` (the paper's Figure 5
    /// y-axis). Configurations map to `time / baseline_time`.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` was not part of the sweep. Prefer
    /// [`WorkloadSweep::try_normalized_to`] on paths that must not
    /// panic.
    pub fn normalized_to(&self, baseline: SystemConfig) -> Vec<(SystemConfig, f64)> {
        self.try_normalized_to(baseline)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`WorkloadSweep::normalized_to`]: a missing
    /// baseline is reported as [`GgsError::MissingConfig`].
    pub fn try_normalized_to(
        &self,
        baseline: SystemConfig,
    ) -> Result<Vec<(SystemConfig, f64)>, GgsError> {
        let base = self
            .result_for(baseline)
            .ok_or_else(|| {
                GgsError::MissingConfig(format!(
                    "baseline configuration {baseline} must be part of the sweep"
                ))
            })?
            .stats
            .total_cycles() as f64;
        Ok(self
            .results
            .iter()
            .map(|r| (r.config, r.stats.total_cycles() as f64 / base))
            .collect())
    }

    /// Relative slowdown of configuration `cfg` versus the best
    /// (0.0 = it *is* the best; 0.10 = 10% slower).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` was not part of the sweep. Prefer
    /// [`WorkloadSweep::try_slowdown_vs_best`] on paths that must not
    /// panic.
    pub fn slowdown_vs_best(&self, cfg: SystemConfig) -> f64 {
        self.try_slowdown_vs_best(cfg)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`WorkloadSweep::slowdown_vs_best`]: an
    /// empty sweep or a configuration outside it is reported as
    /// [`GgsError::MissingConfig`].
    pub fn try_slowdown_vs_best(&self, cfg: SystemConfig) -> Result<f64, GgsError> {
        let best = self
            .try_best()
            .ok_or_else(|| GgsError::MissingConfig("sweep is empty".to_owned()))?
            .stats
            .total_cycles() as f64;
        let t = self
            .result_for(cfg)
            .ok_or_else(|| {
                GgsError::MissingConfig(format!("configuration {cfg} must be part of the sweep"))
            })?
            .stats
            .total_cycles() as f64;
        Ok(t / best - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    fn graph() -> Csr {
        GraphBuilder::new(768)
            .edges((0..767).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
    }

    #[test]
    fn figure5_config_sets() {
        let static_cfgs = figure5_configs(AppKind::Pr);
        assert_eq!(static_cfgs.len(), 5);
        assert_eq!(static_cfgs[0].code(), "TG0");
        let cc_cfgs = figure5_configs(AppKind::Cc);
        assert_eq!(cc_cfgs.len(), 4);
        assert!(cc_cfgs.iter().all(|c| c.code().starts_with('D')));
    }

    #[test]
    fn baselines_match_figure5_caption() {
        assert_eq!(baseline_config(AppKind::Mis).code(), "TG0");
        assert_eq!(baseline_config(AppKind::Cc).code(), "DG1");
    }

    #[test]
    fn hybrid_config_sets() {
        // Only the frontier apps get hybrid cells; codes round-trip
        // through the parser like the Figure 5 tables do.
        let codes = ["HG1", "HGR", "HD1", "HDR"];
        for app in [AppKind::Sssp, AppKind::Bfs] {
            let cfgs = hybrid_configs(app);
            assert_eq!(cfgs.len(), 4, "{app}");
            for (cfg, code) in cfgs.iter().zip(codes) {
                assert_eq!(cfg.code(), code);
                assert_eq!(*cfg, code.parse::<SystemConfig>().unwrap());
            }
        }
        assert!(hybrid_configs(AppKind::Pr).is_empty());
        assert!(hybrid_configs(AppKind::Cc).is_empty());
        // The Figure 5 tables stay hybrid-free.
        for app in [AppKind::Pr, AppKind::Sssp, AppKind::Cc] {
            assert!(figure5_configs(app)
                .iter()
                .all(|c| c.propagation != Propagation::Hybrid));
        }
    }

    #[test]
    fn hybrid_sweep_runs_end_to_end() {
        let g = GraphBuilder::new(256)
            .edges((1..256).map(|v| (0, v)))
            .edges((1..255).map(|v| (v, v + 1)))
            .symmetric(true)
            .build();
        let spec = ExperimentSpec::at_scale(0.02);
        let sweep = WorkloadSweep::run(
            AppKind::Sssp,
            "star",
            &g,
            &hybrid_configs(AppKind::Sssp),
            &spec,
        );
        assert_eq!(sweep.results.len(), 4);
        assert!(sweep.results.iter().all(|r| r.stats.total_cycles() > 0));
    }

    #[test]
    fn const_tables_agree_with_the_code_parser() {
        // The compile-time tables must name exactly the paper's codes;
        // round-trip each entry through the string parser to prove the
        // field triples are the ones the codes denote.
        let static_codes = ["TG0", "SG1", "SGR", "SD1", "SDR"];
        for (cfg, code) in figure5_configs(AppKind::Pr).iter().zip(static_codes) {
            assert_eq!(cfg.code(), code);
            assert_eq!(*cfg, code.parse::<SystemConfig>().unwrap());
        }
        let dynamic_codes = ["DG1", "DGR", "DD1", "DDR"];
        for (cfg, code) in figure5_configs(AppKind::Cc).iter().zip(dynamic_codes) {
            assert_eq!(cfg.code(), code);
            assert_eq!(*cfg, code.parse::<SystemConfig>().unwrap());
        }
    }

    #[test]
    fn sweep_normalization_and_best() {
        let g = graph();
        let spec = ExperimentSpec::at_scale(0.05);
        let sweep = WorkloadSweep::run(
            AppKind::Pr,
            "chain",
            &g,
            &figure5_configs(AppKind::Pr),
            &spec,
        );
        let norm = sweep.normalized_to(baseline_config(AppKind::Pr));
        assert_eq!(norm.len(), 5);
        let (_, base_val) = norm.iter().find(|(c, _)| c.code() == "TG0").unwrap();
        assert!((base_val - 1.0).abs() < 1e-12);
        assert!(sweep.slowdown_vs_best(sweep.best().config).abs() < 1e-12);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use ggs_graph::GraphBuilder;

    fn graph() -> Csr {
        GraphBuilder::new(512)
            .edges((0..511).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
    }

    #[test]
    fn result_for_absent_config_is_none() {
        let spec = ExperimentSpec::at_scale(0.02);
        let sweep = WorkloadSweep::run(
            AppKind::Pr,
            "chain",
            &graph(),
            &["TG0".parse().unwrap()],
            &spec,
        );
        assert!(sweep.result_for("SGR".parse().unwrap()).is_none());
        assert!(sweep.result_for("TG0".parse().unwrap()).is_some());
    }

    #[test]
    fn slowdown_vs_best_is_nonnegative_everywhere() {
        let spec = ExperimentSpec::at_scale(0.02);
        let sweep = WorkloadSweep::run(
            AppKind::Sssp,
            "chain",
            &graph(),
            &figure5_configs(AppKind::Sssp),
            &spec,
        );
        for r in &sweep.results {
            assert!(sweep.slowdown_vs_best(r.config) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "baseline configuration")]
    fn normalization_requires_baseline_in_sweep() {
        let spec = ExperimentSpec::at_scale(0.02);
        let sweep = WorkloadSweep::run(
            AppKind::Pr,
            "chain",
            &graph(),
            &["SGR".parse().unwrap()],
            &spec,
        );
        let _ = sweep.normalized_to("TG0".parse().unwrap());
    }

    #[test]
    fn try_variants_report_errors_instead_of_panicking() {
        let spec = ExperimentSpec::at_scale(0.02);
        let sweep = WorkloadSweep::try_run(
            AppKind::Pr,
            "chain",
            &graph(),
            &["SGR".parse().unwrap()],
            &spec,
        )
        .unwrap();
        let err = sweep.try_normalized_to("TG0".parse().unwrap()).unwrap_err();
        assert!(err.to_string().contains("baseline configuration"));
        assert!(sweep.try_slowdown_vs_best("TG0".parse().unwrap()).is_err());
        assert!(sweep.try_slowdown_vs_best("SGR".parse().unwrap()).is_ok());
        // Unsupported pairing surfaces as Err, not panic.
        assert!(WorkloadSweep::try_run(
            AppKind::Cc,
            "chain",
            &graph(),
            &["SGR".parse().unwrap()],
            &spec,
        )
        .is_err());
        // Empty sweep has no best.
        let empty = WorkloadSweep::try_run(AppKind::Pr, "chain", &graph(), &[], &spec).unwrap();
        assert!(empty.try_best().is_none());
    }

    #[test]
    fn full_config_set_sweep_runs() {
        let spec = ExperimentSpec::at_scale(0.02);
        let configs = ggs_model::SystemConfig::all_for(ggs_model::taxonomy::Traversal::Static);
        let sweep = WorkloadSweep::run(AppKind::Mis, "chain", &graph(), &configs, &spec);
        assert_eq!(sweep.results.len(), 12);
        // Pull bars are hardware-insensitive on the consistency axis.
        let t = |code: &str| {
            sweep
                .result_for(code.parse().unwrap())
                .unwrap()
                .stats
                .total_cycles()
        };
        assert_eq!(t("TG0"), t("TG1"));
        assert_eq!(t("TG0"), t("TGR"));
    }
}
