//! Cross-crate integration: graph generation → app trace generation →
//! simulation → model prediction, exercised through the public API the
//! way a downstream user would.

use ggs_apps::AppKind;
use ggs_core::experiment::{run_workload, ExperimentSpec};
use ggs_core::sweep::{baseline_config, figure5_configs};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_graph::GraphBuilder;
use ggs_model::{predict_full, GraphProfile, SystemConfig};
use ggs_sim::ExecStats;
use ggs_trace::Tracer;

const SCALE: f64 = 0.02;

fn run(
    app: AppKind,
    graph: &ggs_graph::Csr,
    cfg: SystemConfig,
    spec: &ExperimentSpec,
) -> ExecStats {
    run_workload(app, graph, cfg, spec, Tracer::off(), None).expect("supported cell runs")
}

fn preset_graph(p: GraphPreset) -> ggs_graph::Csr {
    SynthConfig::preset(p).scale(SCALE).generate()
}

#[test]
fn full_pipeline_on_one_workload() {
    let graph = preset_graph(GraphPreset::Raj);
    let spec = ExperimentSpec::at_scale(SCALE);
    let profile = GraphProfile::measure(&graph, &spec.metric_params());
    let algo = AppKind::Sssp.algo_profile();
    let predicted = predict_full(&algo, &profile);
    // The prediction must be runnable directly.
    let stats = run(AppKind::Sssp, &graph, predicted, &spec);
    assert!(stats.total_cycles() > 0);
    assert!(stats.kernels > 0);
}

#[test]
fn sweep_covers_every_figure5_config() {
    let graph = preset_graph(GraphPreset::Dct);
    let spec = ExperimentSpec::at_scale(SCALE);
    for app in AppKind::ALL {
        let configs = figure5_configs(app);
        let baseline = baseline_config(app);
        assert!(configs.contains(&baseline), "{app}: baseline is a bar");
        let cycles: Vec<u64> = configs
            .iter()
            .map(|&cfg| run(app, &graph, cfg, &spec).total_cycles())
            .collect();
        assert!(cycles.iter().all(|&c| c > 0), "{app}: {cycles:?}");
    }
}

#[test]
fn runs_are_deterministic_end_to_end() {
    let graph = preset_graph(GraphPreset::Wng);
    let spec = ExperimentSpec::at_scale(SCALE);
    let cfg: SystemConfig = "SGR".parse().expect("valid config");
    let a = run(AppKind::Pr, &graph, cfg, &spec);
    let b = run(AppKind::Pr, &graph, cfg, &spec);
    assert_eq!(a, b);
}

#[test]
fn custom_graphs_work_through_the_same_api() {
    // A user-provided graph (not a preset) drives everything the same
    // way.
    let graph = GraphBuilder::new(2048)
        .edges((0..2047).map(|i| (i, i + 1)))
        .edges(
            (0..2048)
                .map(|i| (i, (i * 97) % 2048))
                .filter(|&(a, b)| a != b),
        )
        .symmetric(true)
        .build()
        .unwrap();
    let spec = ExperimentSpec::at_scale(SCALE);
    let profile = GraphProfile::measure(&graph, &spec.metric_params());
    for app in AppKind::ALL {
        let cfg = predict_full(&app.algo_profile(), &profile);
        // CC's dynamic prediction is D*, static apps get T*/S*.
        let stats = run(app, &graph, cfg, &spec);
        assert!(stats.total_cycles() > 0, "{app} failed");
    }
}

#[test]
fn stall_classes_cover_all_cycles() {
    let graph = preset_graph(GraphPreset::Eml);
    let spec = ExperimentSpec::at_scale(SCALE);
    for code in ["TG0", "SG1", "SGR", "SD1", "SDR"] {
        let cfg: SystemConfig = code.parse().expect("valid");
        let stats = run(AppKind::Pr, &graph, cfg, &spec);
        assert_eq!(
            stats.breakdown.total(),
            stats.total_cycles() * spec.params.num_sms as u64,
            "{code}: every SM-cycle must be classified exactly once"
        );
    }
}
