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
//! * a study with the trace cache enabled is bit-identical to the
//!   same study with the cache disabled, and reports the expected
//!   hit/miss split.

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

fn budgeted_spec() -> ExperimentSpec {
    ExperimentSpec::builder()
        .scale(SCALE)
        .max_kernels(256)
        .build()
        .expect("valid spec")
}

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
/// cell of that direction — rebuilt per cell (as an uncached sweep
/// would) or shared (as the `TraceCache` does), the streams and the
/// resulting stats agree exactly.
#[test]
fn streams_are_identical_across_cells_sharing_a_direction() {
    let graph = SynthConfig::preset(GraphPreset::Ols)
        .scale(SCALE)
        .generate();
    let spec = budgeted_spec();
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

/// Satellite: a full-grid study builds each graph preset exactly once;
/// every configuration cell shares the build via `Arc<Csr>`. Asserted
/// from the `graph_build` trace events the runner emits.
#[test]
fn a_full_study_builds_each_graph_exactly_once() {
    let sink = WriterSink::jsonl(Vec::new());
    let outcome = run_study(
        &budgeted_spec(),
        &StudyOptions::new(ConfigSet::Full, THREADS),
        &MetricsRegistry::new(),
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
    // two (one) traversal directions, so the trace cache misses once
    // per direction and hits on every sibling cell that simulates.
    let cache = outcome.trace_cache;
    assert!(cache.hits > 0, "full grid must reuse cached streams");
    let hit_events = text
        .lines()
        .filter(|l| l.contains("\"type\":\"trace_cache_hit\""))
        .count() as u64;
    let miss_events = text
        .lines()
        .filter(|l| l.contains("\"type\":\"trace_cache_miss\""))
        .count() as u64;
    assert_eq!((cache.hits, cache.misses), (hit_events, miss_events));
    assert!(cache.misses < hit_events, "most lookups must hit");
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
    let spec = budgeted_spec();
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

/// Acceptance: the trace cache is a pure optimization — a study run
/// with the default budget is bit-identical to the same study with a
/// zero budget, which caches nothing and so never hits.
#[test]
fn cached_study_is_bit_identical_to_uncached_study() {
    let spec = budgeted_spec();
    let cached_opts = StudyOptions::new(ConfigSet::Figure5, THREADS);
    assert!(cached_opts.trace_cache_bytes > 0, "cache is on by default");
    let mut uncached_opts = StudyOptions::new(ConfigSet::Figure5, THREADS);
    uncached_opts.trace_cache_bytes = 0;

    let cached =
        run_study(&spec, &cached_opts, &MetricsRegistry::new(), &NOOP).expect("cached study runs");
    let metrics = MetricsRegistry::new();
    let uncached = run_study(&spec, &uncached_opts, &metrics, &NOOP).expect("uncached study runs");
    assert_eq!(cached.study, uncached.study);
    assert!(cached.trace_cache.hits > 0);
    assert_eq!(uncached.trace_cache.hits, 0);
    // Every cell that simulated built its own stream; a cell answered
    // from its consistency class built and fetched none.
    let simulated = metrics.counter("configs_simulated");
    let answered = metrics.counter("configs_answered");
    assert_eq!(uncached.trace_cache.misses, simulated);
    assert_eq!(simulated + answered, uncached.cells.len() as u64);
    // The Figure 5 set aliases only CC's DGR (to DG1) and DDR (to DD1):
    // CC's compare-and-swap atomics all return values.
    assert_eq!(answered, 2 * GraphPreset::ALL.len() as u64);
    assert_eq!(uncached.trace_cache.evicted_streams, 0);
}
