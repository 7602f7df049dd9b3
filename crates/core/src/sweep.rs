//! The system configurations one workload is swept across (one group
//! of bars in the paper's Figure 5). Each configuration is simulated
//! with [`run_workload`](crate::experiment::run_workload).

use ggs_apps::AppKind;
use ggs_model::taxonomy::{Propagation, Traversal};
use ggs_model::SystemConfig;
use ggs_sim::{CoherenceKind, ConsistencyModel};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_workload, ExperimentSpec};
    use ggs_graph::{Csr, GraphBuilder};
    use ggs_trace::Tracer;

    fn graph() -> Csr {
        GraphBuilder::new(512)
            .edges((0..511).map(|i| (i, i + 1)))
            .symmetric(true)
            .build()
            .unwrap()
    }

    fn cycles(app: AppKind, g: &Csr, config: SystemConfig, spec: &ExperimentSpec) -> u64 {
        run_workload(app, g, config, spec, Tracer::off(), None)
            .unwrap()
            .total_cycles()
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
            .build()
            .unwrap();
        let spec = ExperimentSpec::at_scale(0.02);
        for config in hybrid_configs(AppKind::Sssp) {
            assert!(cycles(AppKind::Sssp, &g, config, &spec) > 0, "{config}");
        }
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
    fn full_config_set_sweep_runs() {
        let spec = ExperimentSpec::at_scale(0.02);
        let g = graph();
        let configs = SystemConfig::all_for(Traversal::Static);
        assert_eq!(configs.len(), 12);
        let t: Vec<(String, u64)> = configs
            .into_iter()
            .map(|c| (c.code(), cycles(AppKind::Mis, &g, c, &spec)))
            .collect();
        assert!(t.iter().all(|(_, cycles)| *cycles > 0));
        // Pull bars are hardware-insensitive on the consistency axis.
        let of = |code: &str| t.iter().find(|(c, _)| c == code).unwrap().1;
        assert_eq!(of("TG0"), of("TG1"));
        assert_eq!(of("TG0"), of("TGR"));
    }
}
