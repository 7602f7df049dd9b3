//! Figure 5 bench: one simulated workload per (application ×
//! configuration) group, at a reduced scale.
//!
//! The `repro fig5` binary regenerates the figure's full data (36
//! workloads × 5 configurations with normalized stall breakdowns);
//! this bench tracks the simulation cost of each bar family so
//! regressions in the simulator's hot paths show up immediately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use ggs_apps::AppKind;
use ggs_core::experiment::{run_workload, ExperimentSpec};
use ggs_core::sweep::figure5_configs;
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_graph::Csr;
use ggs_model::SystemConfig;
use ggs_sim::ExecStats;
use ggs_trace::Tracer;

const SCALE: f64 = 0.02;

fn run(app: AppKind, graph: &Csr, config: SystemConfig, spec: &ExperimentSpec) -> ExecStats {
    run_workload(app, graph, config, spec, Tracer::off(), None).expect("figure 5 cells run")
}

fn bench_workloads(c: &mut Criterion) {
    let spec = ExperimentSpec::at_scale(SCALE);
    // DCT is the smallest medium-class input: representative and quick.
    let graph = SynthConfig::preset(GraphPreset::Dct)
        .scale(SCALE)
        .generate()
        .with_hashed_weights(64);

    for app in AppKind::ALL {
        let mut group = c.benchmark_group(format!("fig5/{app}-DCT"));
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(500));
        group.measurement_time(Duration::from_secs(2));
        for config in figure5_configs(app) {
            group.bench_with_input(
                BenchmarkId::from_parameter(config.code()),
                &config,
                |b, &config| b.iter(|| run(app, &graph, config, &spec)),
            );
        }
        group.finish();
    }
}

fn bench_imbalanced_input(c: &mut Criterion) {
    // EML is the imbalance showcase (Figure 5's biggest DRF1-vs-DRFrlx
    // gaps); track the push pair explicitly.
    let spec = ExperimentSpec::at_scale(SCALE);
    let graph = SynthConfig::preset(GraphPreset::Eml)
        .scale(SCALE)
        .generate();
    let mut group = c.benchmark_group("fig5/PR-EML");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for code in ["SG1", "SGR"] {
        let config = code.parse().expect("valid config");
        group.bench_with_input(BenchmarkId::from_parameter(code), &config, |b, &config| {
            b.iter(|| run(AppKind::Pr, &graph, config, &spec))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workloads, bench_imbalanced_input);
criterion_main!(benches);
