//! Differential test of consistency-class aliasing (docs/performance.md,
//! "Consistency classes"): `run_study` simulates one cell per class and
//! answers the rest from it. Every answered cell of a full-grid study is
//! re-simulated here on its own, and its statistics must equal those of
//! the cell that answered it, field for field.

use std::collections::BTreeMap;
use std::sync::Arc;

use ggs_apps::AppKind;
use ggs_core::experiment::{produce_trace_stream, run_stream_budgeted, ExperimentSpec};
use ggs_core::runner::{run_study, CellStatus, StudyOptions};
use ggs_core::study::ConfigSet;
use ggs_core::MetricsRegistry;
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_graph::Csr;
use ggs_model::{Propagation, SystemConfig};
use ggs_sim::trace::WarpTrace;
use ggs_sim::{AtomicMix, ConsistencyModel};
use ggs_trace::{Tracer, NOOP};

const SCALE: f64 = 0.004;
const THREADS: usize = 4;

/// A preset input, built as `run_study` builds it.
fn graph(preset: GraphPreset) -> Csr {
    SynthConfig::preset(preset)
        .scale(SCALE)
        .generate()
        .with_hashed_weights(64)
}

fn mix_of(stream: &[Arc<WarpTrace>]) -> AtomicMix {
    stream
        .iter()
        .map(|k| k.atomic_mix())
        .max()
        .unwrap_or_default()
}

#[test]
fn every_answered_cell_matches_its_class_representative() {
    let spec = ExperimentSpec::at_scale(SCALE);
    let metrics = MetricsRegistry::new();
    let outcome = run_study(
        &spec,
        &StudyOptions::new(ConfigSet::Full, THREADS),
        &metrics,
        &NOOP,
    )
    .expect("study runs");
    assert!(outcome.study.failures.is_empty());
    assert!(outcome.cells.iter().all(|c| c.status == CellStatus::Ok));

    // answered cell key -> the config that simulated it.
    let answered: BTreeMap<String, String> = outcome
        .cells
        .iter()
        .filter_map(|c| {
            let by = c.detail.strip_prefix("answered from ")?;
            Some((c.key(), by.to_owned()))
        })
        .collect();
    assert_eq!(answered.len() as u64, metrics.counter("configs_answered"));
    assert_eq!(
        metrics.counter("configs_simulated") + metrics.counter("configs_answered"),
        outcome.cells.len() as u64
    );

    // The class rule aliases exactly the paper's equivalences: each
    // static workload's pull cells per coherence (pull has no atomics)
    // and CC's DRF1/DRFrlx cells per coherence (its atomics all return
    // values). The first cell of each class in job order (TG0, TD0, DG1,
    // DD1) simulates and answers the others; push never aliases.
    let mut expected = 0;
    for preset in GraphPreset::ALL {
        for app in AppKind::ALL {
            let classes: &[&[&str]] = if app == AppKind::Cc {
                &[&["DG1", "DGR"], &["DD1", "DDR"]]
            } else {
                &[&["TG0", "TG1", "TGR"], &["TD0", "TD1", "TDR"]]
            };
            for class in classes {
                let key = |code: &str| format!("{}/{}/{code}", app.mnemonic(), preset.mnemonic());
                let simulated: Vec<&str> = class
                    .iter()
                    .copied()
                    .filter(|code| !answered.contains_key(&key(code)))
                    .collect();
                assert_eq!(simulated, [class[0]], "{class:?} of {}", key(""));
                for code in &class[1..] {
                    assert_eq!(answered[&key(code)], class[0]);
                }
                expected += class.len() - 1;
            }
        }
    }
    assert_eq!(answered.len(), expected, "only the classes above alias");
    assert_eq!(answered.len(), 132);

    let rows: BTreeMap<String, _> = outcome
        .study
        .reports
        .iter()
        .flat_map(|r| {
            r.rows
                .iter()
                .map(move |row| (format!("{}/{}/{}", r.app, r.graph, row.config), row))
        })
        .collect();
    let tb = spec.params.tb_size;
    for preset in GraphPreset::ALL {
        let g = graph(preset);
        for app in AppKind::ALL {
            let mut streams: BTreeMap<Propagation, Vec<Arc<WarpTrace>>> = BTreeMap::new();
            for config in SystemConfig::all_for(app.algo_profile().traversal) {
                let key = format!("{}/{}/{}", app.mnemonic(), preset.mnemonic(), config.code());
                let Some(by) = answered.get(&key) else {
                    continue;
                };
                let by: SystemConfig = by.parse().expect("answering config code parses");
                let stream = streams
                    .entry(config.propagation)
                    .or_insert_with(|| produce_trace_stream(app, &g, config.propagation, tb));
                // The answering cell is in the answered cell's class.
                let mix = mix_of(stream);
                assert_eq!(
                    (by.propagation, by.coherence),
                    (config.propagation, config.coherence)
                );
                assert_eq!(
                    by.consistency.class_representative(mix),
                    config.consistency.class_representative(mix),
                    "{key} answered from {} across classes",
                    by.code()
                );
                let own = run_stream_budgeted(stream, app, config, &spec, Tracer::off(), None)
                    .expect("answered cell simulates");
                let theirs = run_stream_budgeted(stream, app, by, &spec, Tracer::off(), None)
                    .expect("answering cell simulates");
                assert_eq!(own, theirs, "{key} differs from {}", by.code());
                // And the study reports the answered cell's true row.
                let row = rows[&key];
                assert_eq!(row.config, config.code());
                assert_eq!(row.total_cycles, own.total_cycles, "{key}");
            }
        }
    }
}

/// Each worker walks whole stream groups in job order, so which cell of
/// a class simulates, and every cell's report, does not depend on how
/// many workers share the grid.
#[test]
fn cell_reports_do_not_depend_on_the_worker_count() {
    let spec = ExperimentSpec::at_scale(SCALE);
    let cells = |threads| {
        let options = StudyOptions::new(ConfigSet::Full, threads);
        run_study(&spec, &options, &MetricsRegistry::new(), &NOOP)
            .expect("study runs")
            .cells
    };
    let (one, four) = (cells(1), cells(4));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(
            (a.key(), a.status, &a.detail, a.attempts),
            (b.key(), b.status, &b.detail, b.attempts)
        );
    }
}

/// The rule on real streams: each application's atomics, per direction,
/// and the classes they put its configurations in. SSSP's push relaxes
/// distances with fire-and-forget `atomicMin`, so its `SG1` and `SGR`
/// stay distinct classes even on inputs where their cycles coincide.
#[test]
fn real_streams_fall_into_the_expected_classes() {
    use ConsistencyModel::{Drf0, Drf1, DrfRlx};
    let g = graph(GraphPreset::Dct);
    let tb = ExperimentSpec::at_scale(SCALE).params.tb_size;
    for app in AppKind::ALL {
        for &prop in app.supported_propagations() {
            if prop == Propagation::Hybrid {
                continue;
            }
            let mix = mix_of(&produce_trace_stream(app, &g, prop, tb));
            let (want, classes) = match prop {
                Propagation::Pull => (AtomicMix::None, [Drf0, Drf0, Drf0]),
                Propagation::PushPull => (AtomicMix::AllReturning, [Drf0, Drf1, Drf1]),
                _ => (AtomicMix::SomeFireAndForget, [Drf0, Drf1, DrfRlx]),
            };
            assert_eq!(mix, want, "{app:?} {prop:?}");
            let got = ConsistencyModel::ALL.map(|m| m.class_representative(mix));
            assert_eq!(got, classes, "{app:?} {prop:?}");
        }
    }
    let sssp_push = mix_of(&produce_trace_stream(
        AppKind::Sssp,
        &g,
        Propagation::Push,
        tb,
    ));
    assert_ne!(
        Drf1.class_representative(sssp_push),
        DrfRlx.class_representative(sssp_push),
        "SSSP's SG1 and SGR must stay distinct classes"
    );
}
