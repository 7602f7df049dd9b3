//! Runtime-adaptive configuration selection — the paper's stated
//! outlook (§VIII: *"we aim to target our analysis to implement runtime
//! methods that leverage flexible memory systems to achieve optimal
//! performance"*).
//!
//! The static model (§IV) classifies the whole input once; the paper's
//! own misprediction analysis (EML+SSSP, §VI) notes that *"a decision
//! flow similar to our model that used runtime information could
//! consider this and choose the correct configuration"* — frontier-based
//! kernels touch far less than the static working set, and a quiet
//! frontier removes the imbalance the static metric predicts.
//!
//! This module implements that flow on flexible hardware
//! ([`ggs_sim::Simulation::reconfigure`], the Spandex-style mechanism
//! the paper points to): the *propagation* choice stays fixed (it is
//! compiled into the kernel), while the *hardware* half (coherence +
//! consistency) is re-evaluated before every kernel launch from the
//! kernel's actual trace:
//!
//! * **dynamic volume** — the footprint the kernel will actually touch
//!   (distinct lines referenced), classified against the same cache
//!   thresholds as the static metric;
//! * **dynamic imbalance** — Equation 7 evaluated over per-warp *work*
//!   (micro-op counts) instead of static degrees, so an off-frontier
//!   hub no longer counts;
//! * reuse keeps its static class (locality is a property of the graph
//!   wiring, not the frontier).

use std::time::Instant;

use ggs_apps::AppKind;
use ggs_graph::Csr;
use ggs_model::decision::push_hardware;
use ggs_model::metrics::kmeans2;
use ggs_model::taxonomy::Traversal;
use ggs_model::{predict_full, GraphProfile, Level, MetricParams};
use ggs_sim::trace::KernelTrace;
use ggs_sim::{ExecStats, HwConfig};
use ggs_trace::Tracer;

use crate::error::GgsError;
use crate::experiment::{simulate, ExperimentSpec, Kernels};

/// Result of an adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Final execution statistics.
    pub stats: ExecStats,
    /// The hardware point chosen for each kernel, in launch order.
    pub schedule: Vec<HwConfig>,
    /// The static (whole-input) configuration the propagation choice
    /// came from.
    pub static_config: ggs_model::SystemConfig,
}

/// Classifies one kernel's runtime profile: `(volume class, imbalance
/// class)` from the trace it is about to launch.
pub fn kernel_classes(
    kernel: &KernelTrace,
    params: &MetricParams,
    line_bytes: u32,
) -> (Level, Level) {
    // Dynamic volume: distinct cache lines the kernel touches.
    let mut lines: Vec<u64> = Vec::new();
    for t in 0..kernel.num_threads() {
        for op in kernel.thread(t) {
            if let Some(addr) = op.address() {
                lines.push(addr / line_bytes as u64);
            }
        }
    }
    lines.sort_unstable();
    lines.dedup();
    let volume_kb =
        (lines.len() as u64 * line_bytes as u64) as f64 / 1024.0 / params.num_sms as f64;
    let volume = Level::classify(volume_kb, params.volume_low_kb(), params.volume_high_kb());

    // Dynamic imbalance: Equation 7 over per-warp op counts.
    let tb = params.tb_size as u64;
    let warp = params.warp_size as u64;
    let blocks = kernel.num_threads().div_ceil(tb);
    let mut marked = 0u64;
    let mut maxes: Vec<f64> = Vec::new();
    for b in 0..blocks {
        maxes.clear();
        let lo = b * tb;
        let hi = ((b + 1) * tb).min(kernel.num_threads());
        let mut v = lo;
        while v < hi {
            let w_hi = (v + warp).min(hi);
            let m = (v..w_hi).map(|t| kernel.thread(t).len()).max().unwrap_or(0);
            maxes.push(m as f64);
            v = w_hi;
        }
        let (c_lo, c_hi) = kmeans2(&maxes);
        if c_hi - c_lo > params.kmeans_gap {
            marked += 1;
        }
    }
    let imbalance = if blocks == 0 {
        0.0
    } else {
        marked as f64 / blocks as f64
    };
    let imbalance = Level::classify(imbalance, params.imb_low, params.imb_high);
    (volume, imbalance)
}

/// Runs `app` on `graph` with per-kernel hardware adaptation.
///
/// The propagation variant comes from the static full-design-space
/// prediction; before each kernel launch the hardware half is
/// re-derived from the kernel's runtime profile (see module docs) and
/// applied via [`ggs_sim::Simulation::reconfigure`]. Pull workloads
/// keep `G0` (no atomics to optimize); dynamic (CC) workloads keep
/// `D1` (§IV-A4).
///
/// Tracing, budget and deadline work as in
/// [`crate::experiment::run_workload`].
///
/// # Errors
///
/// [`GgsError::Budget`] / [`GgsError::Deadline`] if the spec's budget
/// or `deadline` is breached.
pub fn run_adaptive(
    app: AppKind,
    graph: &Csr,
    spec: &ExperimentSpec,
    tracer: Tracer<'_>,
    deadline: Option<Instant>,
) -> Result<AdaptiveOutcome, GgsError> {
    let params = spec.metric_params();
    let static_profile = GraphProfile::measure(graph, &params);
    let algo = app.algo_profile();
    let static_config = predict_full(&algo, &static_profile);
    let line_bytes = spec.params.line_bytes;
    let adapt = algo.traversal == Traversal::Static
        && static_config.propagation == ggs_model::Propagation::Push;

    let mut schedule = Vec::new();
    let kernels = Kernels::Generate {
        graph,
        regions: false,
    };
    let (stats, _) = simulate(
        app,
        static_config,
        kernels,
        spec,
        tracer,
        deadline,
        |sim, kernel| {
            let hw = if adapt {
                let (volume, imbalance) = kernel_classes(kernel, &params, line_bytes);
                let dynamic_profile =
                    GraphProfile::from_classes(volume, static_profile.reuse_class, imbalance);
                push_hardware(&dynamic_profile)
            } else {
                static_config.hw()
            };
            sim.reconfigure(hw);
            schedule.push(hw);
        },
    )?;
    Ok(AdaptiveOutcome {
        stats,
        schedule,
        static_config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggs_apps::Workload;
    use ggs_graph::synth::{GraphPreset, SynthConfig};
    use ggs_graph::GraphBuilder;
    use ggs_sim::trace::MicroOp;

    fn adaptive(app: AppKind, graph: &Csr, spec: &ExperimentSpec) -> AdaptiveOutcome {
        run_adaptive(app, graph, spec, Tracer::off(), None).expect("adaptive run succeeds")
    }

    #[test]
    fn kernel_classes_detect_imbalance() {
        let params = MetricParams::default();
        // 8 warps; one warp has a 200-op lane, the rest 4 ops.
        let mut threads = vec![vec![MicroOp::compute(1); 4]; 256];
        threads[0] = vec![MicroOp::compute(1); 200];
        let k = KernelTrace::new(threads, 256);
        let (_, imb) = kernel_classes(&k, &params, 64);
        assert_eq!(imb, Level::High);

        let uniform = KernelTrace::new(vec![vec![MicroOp::compute(1); 4]; 256], 256);
        let (_, imb) = kernel_classes(&uniform, &params, 64);
        assert_eq!(imb, Level::Low);
    }

    #[test]
    fn kernel_classes_measure_touched_footprint() {
        let params = MetricParams::default();
        // 16 threads touching 16 distinct lines: tiny volume.
        let k = KernelTrace::new(
            (0..16u64).map(|t| vec![MicroOp::load(t * 64)]).collect(),
            256,
        );
        let (vol, _) = kernel_classes(&k, &params, 64);
        assert_eq!(vol, Level::Low);
    }

    #[test]
    fn adaptive_runs_every_app() {
        let spec = ExperimentSpec::at_scale(0.02);
        let g = SynthConfig::preset(GraphPreset::Dct).scale(0.02).generate();
        for app in AppKind::ALL {
            let out = adaptive(app, &g, &spec);
            assert!(out.stats.total_cycles() > 0, "{app}");
            assert!(!out.schedule.is_empty(), "{app}");
        }
    }

    #[test]
    fn schedule_matches_per_kernel_reclassification() {
        // The schedule must be exactly what re-running the classifier
        // on each kernel trace yields (internal consistency of the
        // adaptive loop).
        let spec = ExperimentSpec::at_scale(0.05);
        let g = SynthConfig::preset(GraphPreset::Raj)
            .scale(0.05)
            .generate()
            .with_hashed_weights(64);
        let params = spec.metric_params();
        let static_profile = GraphProfile::measure(&g, &params);
        let out = adaptive(AppKind::Sssp, &g, &spec);
        assert_eq!(out.static_config.propagation, ggs_model::Propagation::Push);

        let mut expected = Vec::new();
        Workload::new(AppKind::Sssp, &g).generate(
            out.static_config.propagation,
            spec.params.tb_size,
            &mut |kernel| {
                let (vol, imb) = kernel_classes(kernel, &params, spec.params.line_bytes);
                let profile = GraphProfile::from_classes(vol, static_profile.reuse_class, imb);
                expected.push(push_hardware(&profile));
            },
        );
        assert_eq!(out.schedule, expected);
    }

    #[test]
    fn low_volume_balanced_kernel_stays_at_drf1() {
        // A uniform kernel touching a tiny footprint classifies L/L and
        // keeps DRF1 even on a high-reuse graph (Figure 4's else arm).
        let params = MetricParams::default();
        let k = KernelTrace::new(
            (0..512u64)
                .map(|t| vec![MicroOp::atomic((t % 64) * 4)])
                .collect(),
            256,
        );
        let (vol, imb) = kernel_classes(&k, &params, 64);
        assert_eq!((vol, imb), (Level::Low, Level::Low));
        let profile = GraphProfile::from_classes(vol, Level::High, imb);
        let hw = push_hardware(&profile);
        assert_eq!(hw.consistency, ggs_sim::ConsistencyModel::Drf1);
        assert_eq!(hw.coherence, ggs_sim::CoherenceKind::DeNovo);
    }

    #[test]
    fn pull_workloads_do_not_adapt() {
        // A high-reuse, low-imbalance graph pushes symmetric apps to
        // pull; pull has no atomics, so the schedule is constant G0.
        // The prediction is asserted first so this test fails (instead
        // of silently passing) if the predictor regresses to push.
        let spec = ExperimentSpec::at_scale(0.05);
        let g = GraphBuilder::new(4096)
            .edges((0..4095).map(|i| (i, i + 1)))
            .symmetric(true)
            .build();
        let out = adaptive(AppKind::Mis, &g, &spec);
        assert_eq!(out.static_config.propagation, ggs_model::Propagation::Pull);
        assert!(!out.schedule.is_empty());
        assert!(out.schedule.iter().all(|hw| *hw == out.static_config.hw()));
    }

    #[test]
    fn adaptive_run_trips_cycle_budget() {
        // Regression: run_adaptive once bypassed the Simulation builder
        // and silently dropped the spec's SimBudget. A tiny cycle cap
        // must surface as a typed budget error, not an unbounded run.
        let spec = ExperimentSpec::builder()
            .scale(0.02)
            .max_sim_cycles(1)
            .build()
            .unwrap();
        let g = SynthConfig::preset(GraphPreset::Dct).scale(0.02).generate();
        let err = run_adaptive(AppKind::Pr, &g, &spec, Tracer::off(), None).unwrap_err();
        assert!(matches!(err, GgsError::Budget(_)), "{err}");
        assert!(err.to_string().contains("cycle budget"), "{err}");
    }

    #[test]
    fn adaptive_run_honors_wall_clock_deadline() {
        let spec = ExperimentSpec::at_scale(0.02);
        let g = SynthConfig::preset(GraphPreset::Dct).scale(0.02).generate();
        let deadline = Instant::now() - std::time::Duration::from_millis(1);
        let err = run_adaptive(AppKind::Pr, &g, &spec, Tracer::off(), Some(deadline)).unwrap_err();
        assert!(matches!(err, GgsError::Deadline { .. }), "{err}");
    }
}
