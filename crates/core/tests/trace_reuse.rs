//! Sweep-level reuse acceptance tests (docs/performance.md,
//! "Sweep-level reuse"):
//!
//! * the kernel-trace stream of a cell is a pure function of
//!   (application, graph, direction, TB size): streams produced at
//!   different times, interleaved with simulations, are identical
//!   across every coherence × consistency cell sharing a direction,
//!   and replaying a shared stream is bit-identical to replaying a
//!   per-cell rebuild;
//! * a study builds each input graph exactly once per preset, however
//!   many configuration cells consume it (asserted via `graph_build`
//!   trace events);
//! * a study builds each kernel stream once per stream group (graph ×
//!   application × direction), counted by the `streams_built` metric,
//!   and emits no `trace_cache_*` events.

use ggs_apps::AppKind;
use ggs_core::experiment::{produce_trace_stream, run_stream_budgeted, ExperimentSpec};
use ggs_core::runner::{run_study, StudyOptions};
use ggs_core::study::ConfigSet;
use ggs_core::MetricsRegistry;
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_model::{Propagation, SystemConfig};
use ggs_trace::{Tracer, WriterSink, NOOP};

const SCALE: f64 = 0.004;
const THREADS: usize = 8;

/// The six coherence × consistency cells sharing one traversal
/// direction.
fn configs_of(prop: Propagation) -> Vec<SystemConfig> {
    let dir = match prop {
        Propagation::Pull => 'T',
        Propagation::Push => 'S',
        Propagation::PushPull => 'D',
        Propagation::Hybrid => 'H',
    };
    let mut configs = Vec::new();
    for coh in ['G', 'D'] {
        for cons in ['0', '1', 'R'] {
            let code = format!("{dir}{coh}{cons}");
            configs.push(code.parse().expect("grid codes are valid"));
        }
    }
    configs
}

/// Satellite: per application and direction, the per-iteration kernel
/// trace stream is identical across every coherence × consistency
/// cell of that direction — rebuilt per cell or shared (as a stream
/// group's cells share one), the streams and the resulting stats agree
/// exactly.
#[test]
fn streams_are_identical_across_cells_sharing_a_direction() {
    let graph = SynthConfig::preset(GraphPreset::Ols)
        .scale(SCALE)
        .generate();
    let spec = ExperimentSpec::at_scale(SCALE);
    let tb = spec.params.tb_size;
    let apps = AppKind::ALL.into_iter().chain(AppKind::EXTENDED);
    for app in apps {
        for &prop in app.supported_propagations() {
            let shared = produce_trace_stream(app, &graph, prop, tb);
            for config in configs_of(prop) {
                // The stream a cell would build on its own, produced
                // *after* other cells of the grid already simulated —
                // byte-identical to the shared one.
                let fresh = produce_trace_stream(app, &graph, prop, tb);
                assert_eq!(
                    shared, fresh,
                    "{app:?}/{prop:?} stream differs across cells (config {config})"
                );
                let from_shared =
                    run_stream_budgeted(&shared, app, config, &spec, Tracer::off(), None)
                        .expect("grid cells are supported");
                let from_fresh =
                    run_stream_budgeted(&fresh, app, config, &spec, Tracer::off(), None)
                        .expect("grid cells are supported");
                assert_eq!(
                    from_shared, from_fresh,
                    "{app:?}/{config} stats differ between shared and per-cell streams"
                );
            }
        }
    }
}

/// The stream groups of the six presets: five static applications over
/// two directions and CC over one, for the Figure 5 set and the full
/// grid alike.
const STREAM_GROUPS: u64 = 11 * GraphPreset::ALL.len() as u64;

/// Satellite: a full-grid study builds each graph preset exactly once;
/// every configuration cell shares the build via `Arc<Csr>`. Asserted
/// from the `graph_build` trace events the runner emits.
#[test]
fn a_full_study_builds_each_graph_exactly_once() {
    let sink = WriterSink::jsonl(Vec::new());
    let metrics = MetricsRegistry::new();
    let outcome = run_study(
        &ExperimentSpec::at_scale(SCALE),
        &StudyOptions::new(ConfigSet::Full, THREADS),
        &metrics,
        &sink,
    )
    .expect("study runs");
    assert!(outcome.study.failures.is_empty());
    let text = String::from_utf8(sink.into_inner()).expect("utf8 trace");
    let builds = text
        .lines()
        .filter(|l| l.contains("\"type\":\"graph_build\""))
        .count();
    assert_eq!(
        builds,
        GraphPreset::ALL.len(),
        "expected one graph build per preset"
    );
    // Answered cells look like simulated ones in the trace: exactly one
    // `cell_start` and one `cell_finish` per cell, every one `ok`.
    let cells = outcome.cells.len();
    let count = |needle: &str| text.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count("\"type\":\"cell_start\""), cells);
    assert_eq!(count("\"type\":\"cell_finish\""), cells);
    assert_eq!(count("\"status\":\"ok\""), cells);
    // The full grid runs 12 static (6 dynamic) cells per workload over
    // two (one) traversal directions, and builds each direction's
    // stream once.
    assert_eq!(metrics.counter("streams_built"), STREAM_GROUPS);
    assert_eq!(count("\"type\":\"trace_cache_"), 0);
}

/// Tentpole: hybrid streams occupy their own cache entries. A hybrid
/// lookup never returns a static push or pull stream of the same
/// (app, graph, TB size) — the realized direction schedule is part of
/// the key — and repeated hybrid lookups hit the entry built by the
/// first.
#[test]
fn hybrid_streams_cache_independently_of_static_directions() {
    use ggs_apps::Workload;
    use ggs_core::trace_cache::{StreamKey, TraceCache};
    use std::sync::Arc;

    let graph = SynthConfig::preset(GraphPreset::Ols)
        .scale(SCALE)
        .generate();
    let spec = ExperimentSpec::at_scale(SCALE);
    let tb = spec.params.tb_size;
    let cache = TraceCache::new(64 * 1024 * 1024);
    let app = AppKind::Bfs;
    let workload = Workload::new(app, &graph);

    let fetch = |prop: Propagation| {
        cache.get_or_build(
            StreamKey::for_workload(&workload, prop, tb),
            "OLS",
            &NOOP,
            || 0,
            || Arc::new(produce_trace_stream(app, &graph, prop, tb)),
        )
    };
    let push = fetch(Propagation::Push);
    let pull = fetch(Propagation::Pull);
    let hybrid = fetch(Propagation::Hybrid);
    // Three directions, three distinct entries: every lookup so far was
    // a miss, and the hybrid stream is not an alias of either static
    // stream's cache entry.
    assert_eq!(cache.stats().misses, 3, "each direction builds its own");
    assert!(!Arc::ptr_eq(&hybrid, &push) && !Arc::ptr_eq(&hybrid, &pull));

    // A second hybrid lookup hits the hybrid entry (same Arc), while
    // the static entries stay untouched.
    let hybrid_again = fetch(Propagation::Hybrid);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 3));
    assert!(Arc::ptr_eq(&hybrid, &hybrid_again));
}

/// Acceptance: a Figure 5 study builds one stream per stream group and
/// no more, emits no `trace_cache_*` events, and simulates or answers
/// every cell exactly once.
#[test]
fn a_study_builds_each_stream_once() {
    let sink = WriterSink::jsonl(Vec::new());
    let metrics = MetricsRegistry::new();
    let outcome = run_study(
        &ExperimentSpec::at_scale(SCALE),
        &StudyOptions::new(ConfigSet::Figure5, THREADS),
        &metrics,
        &sink,
    )
    .expect("study runs");
    assert!(outcome.study.failures.is_empty());
    assert_eq!(metrics.counter("streams_built"), STREAM_GROUPS);
    let text = String::from_utf8(sink.into_inner()).expect("utf8 trace");
    let count = |needle: &str| text.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count("\"type\":\"trace_cache_"), 0);
    let cells = outcome.cells.len();
    assert_eq!(count("\"type\":\"cell_start\""), cells);
    assert_eq!(count("\"type\":\"cell_finish\""), cells);
    let simulated = metrics.counter("configs_simulated");
    let answered = metrics.counter("configs_answered");
    assert_eq!(simulated + answered, cells as u64);
    // The Figure 5 set aliases only CC's DGR (to DG1) and DDR (to DD1):
    // CC's compare-and-swap atomics all return values.
    assert_eq!(answered, 2 * GraphPreset::ALL.len() as u64);
}
