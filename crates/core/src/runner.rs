//! Fault-isolated, resumable execution of the full study.
//!
//! [`run_study`] fans the 36-workload × configuration grid across
//! worker threads; without protection a single panicking cell, a
//! non-converging configuration, or a hung simulation kills the whole
//! study and discards hours of completed results. This module wraps
//! every *cell* (one application × graph × configuration point) in the
//! standard long-job robustness kit:
//!
//! * **Isolation** — each cell runs behind
//!   [`std::panic::catch_unwind`]; a panic becomes a typed
//!   [`CellFailure`] recorded in the failure report instead of
//!   poisoning the pool.
//! * **Watchdogs** — the spec's [`ggs_sim::SimBudget`] (kernel /
//!   simulated-cycle limits) plus an optional wall-clock deadline per
//!   cell; breached cells are recorded as [`CellStatus::Timeout`] and
//!   the study continues.
//! * **Retry** — cells failing with a retryable error (I/O) are retried
//!   with bounded exponential backoff; deterministic failures (panics,
//!   budget breaches, bad specs) fail fast.
//! * **Checkpoint/resume** — with a [`Store`] attached, completed cells
//!   are published as they finish; re-running the same study against
//!   the same store answers them from it ([`CellStatus::Skipped`]) and
//!   simulates only what is missing, reproducing the uninterrupted
//!   results byte for byte.
//!
//! The unit of work is a *stream group*: the cells of one graph ×
//! application × propagation, which share one kernel stream. A worker
//! takes the next group and walks its cells in job order, building the
//! stream at the first cell that simulates and dropping it when the
//! group ends. It also simulates each *consistency class* once: cells
//! that differ only in a consistency model their kernel stream cannot
//! observe (see
//! [`ConsistencyModel::class_representative`](ggs_sim::ConsistencyModel::class_representative))
//! lie in one group, and take the row of the first of them in job order
//! that simulated. No class spans two groups, so workers never wait on
//! each other.
//!
//! The failure taxonomy, the store resume workflow and how answered
//! cells go through the store are documented in `docs/robustness.md`;
//! the class rule and its measured effect in `docs/performance.md`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ggs_apps::{AppKind, SSSP_MAX_WEIGHT};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_model::{predict_full, predict_partial, GraphProfile, SystemConfig};
use ggs_sim::trace::{KernelTrace, MicroOp, WarpTrace};
use ggs_sim::{AtomicMix, StallClass};
use ggs_trace::{MetricsRegistry, TraceEvent, TraceSink, Tracer};

use crate::error::GgsError;
use crate::experiment::{produce_stream, run_stream_budgeted, ExperimentSpec};
use crate::store::{fnv1a64, versioned_spec_hash, Claim, Store, StoreLoadReport};
use crate::study::{ConfigSet, ResultRow, Study, WorkloadReport};
use crate::sweep::{baseline_config, figure5_configs};

/// Terminal state of one study cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell simulated successfully (possibly after retries), or was
    /// answered from another cell of its consistency class that did.
    Ok,
    /// The cell panicked or failed with a non-retryable error.
    Failed,
    /// The cell tripped a watchdog (budget or wall-clock deadline).
    Timeout,
    /// The cell was answered from the result store without re-running.
    Skipped,
}

impl CellStatus {
    /// Stable lower-case name used in reports, JSON, and trace events.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::Timeout => "timeout",
            CellStatus::Skipped => "skipped",
        }
    }

    /// Parses a name produced by [`CellStatus::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "ok" => Some(CellStatus::Ok),
            "failed" => Some(CellStatus::Failed),
            "timeout" => Some(CellStatus::Timeout),
            "skipped" => Some(CellStatus::Skipped),
            _ => None,
        }
    }
}

impl fmt::Display for CellStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-cell outcome record: the structured failure report the study
/// emits alongside its (possibly partial) results.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Application mnemonic.
    pub app: String,
    /// Graph mnemonic.
    pub graph: String,
    /// Configuration code.
    pub config: String,
    /// Terminal state.
    pub status: CellStatus,
    /// Human-readable detail: the error/panic message, the breached
    /// budget, the store provenance, or `answered from <CONFIG>` for a
    /// cell answered from the cell of its consistency class that
    /// simulated. Empty for cleanly simulated `Ok` cells.
    pub detail: String,
    /// Execution attempts made (0 for cells answered from the store or
    /// from their consistency class).
    pub attempts: u32,
}

impl CellReport {
    /// The `APP/GRAPH/CONFIG` key identifying this cell.
    pub fn key(&self) -> String {
        cell_key(&self.app, &self.graph, &self.config)
    }
}

/// A panic caught at a cell boundary, converted to a typed value.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Application mnemonic of the panicking cell.
    pub app: String,
    /// Graph mnemonic of the panicking cell.
    pub graph: String,
    /// Configuration code of the panicking cell.
    pub config: String,
    /// The panic payload, downcast to a string when possible.
    pub payload: String,
}

impl CellFailure {
    /// Converts a [`catch_unwind`] payload into a typed failure.
    pub fn from_payload(
        app: &str,
        graph: &str,
        config: &str,
        payload: Box<dyn std::any::Any + Send>,
    ) -> Self {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Self {
            app: app.to_owned(),
            graph: graph.to_owned(),
            config: config.to_owned(),
            payload: text,
        }
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{} panicked: {}",
            self.app, self.graph, self.config, self.payload
        )
    }
}

impl From<CellFailure> for GgsError {
    fn from(failure: CellFailure) -> Self {
        GgsError::CellPanic {
            payload: failure.payload,
        }
    }
}

/// A deliberately injected failure mode, for fault-injection tests and
/// the `repro study --inject-fault` smoke job.
#[derive(Debug)]
pub enum Fault {
    /// The cell panics on every attempt (deterministic; fails fast).
    Panic,
    /// The cell spins feeding kernels forever; only a watchdog (budget
    /// or deadline) can stop it. An internal failsafe caps the spin
    /// when no watchdog is configured, so tests cannot truly hang.
    Hang,
    /// The first `remaining` attempts fail with a transient I/O error,
    /// after which the cell runs normally (exercises the retry path).
    TransientIo {
        /// Failures left to inject (decremented per attempt).
        remaining: AtomicU32,
    },
}

/// Which cells to sabotage, keyed by `APP/GRAPH/CONFIG`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cells: BTreeMap<String, Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `fault` for the cell `app/graph/config`.
    pub fn inject(mut self, app: &str, graph: &str, config: &str, fault: Fault) -> Self {
        self.cells.insert(cell_key(app, graph, config), fault);
        self
    }

    /// Parses a CLI fault spec: `APP/GRAPH/CONFIG[=panic|hang|io]`
    /// (default `panic`), e.g. `PR/RMAT/SGR=hang`.
    pub fn parse_spec(mut self, spec: &str) -> Result<Self, GgsError> {
        let (key, kind) = match spec.split_once('=') {
            Some((key, kind)) => (key, kind),
            None => (spec, "panic"),
        };
        if key.split('/').count() != 3 {
            return Err(GgsError::InvalidSpec(format!(
                "fault cell must be APP/GRAPH/CONFIG, got {key:?}"
            )));
        }
        let fault = match kind {
            "panic" => Fault::Panic,
            "hang" => Fault::Hang,
            "io" => Fault::TransientIo {
                remaining: AtomicU32::new(2),
            },
            other => {
                return Err(GgsError::InvalidSpec(format!(
                    "unknown fault kind {other:?} (expected panic, hang, or io)"
                )))
            }
        };
        self.cells.insert(key.to_owned(), fault);
        Ok(self)
    }

    /// Whether no faults are registered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn get(&self, key: &str) -> Option<&Fault> {
        self.cells.get(key)
    }
}

/// Bounded-backoff retry policy for retryable cell failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Deterministic jitter seed. `None` keeps the pure exponential
    /// schedule; `Some(seed)` spreads each sleep over the upper half of
    /// its exponential slot so concurrent processes retrying the same
    /// contended resource (the store lock) do not synchronize into a
    /// thundering herd. The jitter is a pure function of
    /// `(seed, attempt)`, so a given policy is exactly reproducible.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep after the `attempt`-th failure (1-based):
    /// `base · 2^(attempt-1)`, capped at `max_backoff`. With a
    /// [`RetryPolicy::jitter_seed`], the sleep lands deterministically
    /// in `(slot/2, slot]` instead of exactly on the slot boundary.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self.base_backoff.saturating_mul(1u32 << exp);
        let slot = raw.min(self.max_backoff);
        match self.jitter_seed {
            None => slot,
            Some(seed) => {
                // splitmix64 of (seed, attempt): cheap, stateless, and
                // well distributed even for sequential attempt numbers.
                let mut z = seed
                    .wrapping_add(u64::from(attempt))
                    .wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let frac = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                slot - slot.mul_f64(frac * 0.5)
            }
        }
    }
}

/// Stable 64-bit FNV-1a hash of the experiment spec and config set,
/// identifying which run a store result belongs to (mixed with the
/// code version by [`versioned_spec_hash`]). (The std hasher is
/// not guaranteed stable across releases; FNV-1a is.)
pub fn spec_hash(spec: &ExperimentSpec, configs: ConfigSet) -> String {
    let text = format!("{spec:?}|{configs:?}");
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Options controlling a fault-tolerant study run.
#[derive(Debug)]
pub struct StudyOptions {
    /// Configuration set per workload.
    pub configs: ConfigSet,
    /// Worker threads (0 is rejected as an invalid spec).
    pub threads: usize,
    /// Retry policy for retryable cell failures.
    pub retry: RetryPolicy,
    /// Wall-clock deadline per cell attempt, if any.
    pub cell_deadline: Option<Duration>,
    /// Deliberate faults to inject (tests, smoke jobs).
    pub faults: FaultPlan,
    /// A shared crash-safe result store (see `crate::store`): each cell
    /// is looked up (and leased) before simulating and published after,
    /// so concurrent runners sharing the store partition the sweep
    /// without simulating any cell twice.
    pub store: Option<Store>,
    /// Store lease time-to-live: how long a claimed-but-unfinished cell
    /// stays reserved before other runners may reclaim it (bounds the
    /// damage of a runner that dies holding leases).
    pub lease_ttl: Duration,
    /// Not read by [`run_study`]; delete with the next benchmark
    /// change. The frozen benchmark harness reads its default to size
    /// its own [`TraceCache`](crate::TraceCache).
    pub trace_cache_bytes: u64,
}

impl Default for StudyOptions {
    fn default() -> Self {
        Self {
            configs: ConfigSet::Figure5,
            threads: 1,
            retry: RetryPolicy::default(),
            cell_deadline: None,
            faults: FaultPlan::new(),
            store: None,
            lease_ttl: Duration::from_secs(30),
            trace_cache_bytes: 256 << 20,
        }
    }
}

impl StudyOptions {
    /// Plain study options: `configs` over `threads` workers, no
    /// watchdogs, no store.
    pub fn new(configs: ConfigSet, threads: usize) -> Self {
        Self {
            configs,
            threads,
            ..Self::default()
        }
    }
}

/// The result of a fault-tolerant study run.
#[derive(Debug)]
pub struct StudyOutcome {
    /// The (possibly partial) study: reports cover every workload with
    /// at least one surviving cell; `study.failures` lists the cells
    /// that failed or timed out.
    pub study: Study,
    /// Every cell's terminal record, in job order (graph-major, then
    /// app, then configuration) — the structured per-cell report.
    pub cells: Vec<CellReport>,
    /// What the store scan observed at study start (record count,
    /// corrupt spans), if a store was attached.
    pub store_report: Option<StoreLoadReport>,
}

impl StudyOutcome {
    /// Cell totals `(ok, failed, timeout, skipped)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for cell in &self.cells {
            match cell.status {
                CellStatus::Ok => c.0 += 1,
                CellStatus::Failed => c.1 += 1,
                CellStatus::Timeout => c.2 += 1,
                CellStatus::Skipped => c.3 += 1,
            }
        }
        c
    }
}

/// One schedulable cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    graph_index: usize,
    app: AppKind,
    config: SystemConfig,
}

/// What a worker records for one finished cell.
#[derive(Debug)]
struct CellOutcome {
    report: CellReport,
    row: Option<ResultRow>,
}

/// The `APP/GRAPH/CONFIG` key naming a cell in reports, trace events
/// and the result store.
pub(crate) fn cell_key(app: &str, graph: &str, config: &str) -> String {
    format!("{app}/{graph}/{config}")
}

/// A cell's names, as reports, store keys and trace events spell them.
struct Names {
    app: &'static str,
    graph: &'static str,
    config: String,
    key: String,
}

impl Names {
    fn outcome(
        &self,
        status: CellStatus,
        detail: String,
        attempts: u32,
        row: Option<ResultRow>,
    ) -> CellOutcome {
        CellOutcome {
            report: CellReport {
                app: self.app.to_owned(),
                graph: self.graph.to_owned(),
                config: self.config.clone(),
                status,
                detail,
                attempts,
            },
            row,
        }
    }
}

/// A kernel stream, built by the first cell of its stream group that
/// simulates, and the [`AtomicMix`] that puts the group's cells into
/// consistency classes.
type GroupStream = (Vec<Arc<WarpTrace>>, AtomicMix);

/// Everything the workers of one study share.
struct Sweep<'a> {
    spec: &'a ExperimentSpec,
    options: &'a StudyOptions,
    store_hash: String,
    graphs: &'a [(GraphPreset, ggs_graph::Csr, GraphProfile)],
    cells: &'a [Cell],
    /// The cells of each (graph, app, propagation), in job order; the
    /// groups are ordered by their first cell.
    groups: Vec<Vec<usize>>,
    epoch: Instant,
    sink: &'a dyn TraceSink,
    next: AtomicUsize,
    results: Mutex<Vec<Option<CellOutcome>>>,
}

/// Runs the study under `spec` with full fault tolerance: panics are
/// isolated per cell, watchdogs convert runaways into timeouts, retryable
/// errors are retried with bounded backoff, and, with a store attached,
/// completed cells are published to (and answered from) the store.
///
/// Each worker takes one *stream group* at a time: the cells of one
/// graph × application × propagation, which share one kernel stream.
/// The group's first cell that simulates builds the stream, and the
/// worker drops it when the group ends. Each consistency class is
/// simulated once: cells whose configurations differ only in a
/// consistency model their stream cannot observe
/// ([`ConsistencyModel::class_representative`](ggs_sim::ConsistencyModel::class_representative))
/// are answered, as [`CellStatus::Ok`], from the first of them in job
/// order that simulated. Store hits and cells with an injected fault
/// never answer a class.
///
/// Returns `Err` only for setup failures (zero threads, an unreadable
/// or foreign store); individual cell failures never abort the run — they
/// are reported in [`StudyOutcome::cells`] and `study.failures`.
pub fn run_study(
    spec: &ExperimentSpec,
    options: &StudyOptions,
    metrics: &MetricsRegistry,
    sink: &dyn TraceSink,
) -> Result<StudyOutcome, GgsError> {
    if options.threads == 0 {
        return Err(GgsError::InvalidSpec(
            "need at least one worker thread".to_owned(),
        ));
    }
    let epoch = Instant::now();
    let store_report = match &options.store {
        Some(store) => {
            // Surface pre-existing corruption up front. Opening the
            // store already replayed it into the handle's index, so this
            // re-reads the file without re-parsing it; per-cell claims
            // then read only what peers append.
            let snapshot = store.load()?;
            if sink.enabled() {
                for span in &snapshot.report.corrupt {
                    sink.emit(&TraceEvent::StoreCorruption {
                        offset: span.offset,
                        bytes: span.bytes,
                        at_us: epoch.elapsed().as_micros() as u64,
                    });
                }
            }
            Some(snapshot.report)
        }
        None => None,
    };

    let metric_params = spec.metric_params();
    // Every graph is built exactly once per study and shared by
    // reference. The `graph_build` events make the once-per-study
    // invariant testable (one event per preset, never per cell).
    let graphs: Vec<(GraphPreset, ggs_graph::Csr, GraphProfile)> = {
        let _phase = metrics.phase("generate_inputs");
        GraphPreset::ALL
            .into_iter()
            .map(|p| {
                let g = SynthConfig::preset(p)
                    .scale(spec.scale)
                    .generate()
                    .with_hashed_weights(SSSP_MAX_WEIGHT);
                let profile = GraphProfile::measure(&g, &metric_params);
                if sink.enabled() {
                    sink.emit(&TraceEvent::GraphBuild {
                        graph: p.mnemonic().to_owned(),
                        vertices: u64::from(g.num_vertices()),
                        edges: g.num_edges(),
                        at_us: epoch.elapsed().as_micros() as u64,
                    });
                }
                (p, g, profile)
            })
            .collect()
    };

    // Cell list: graph-major, then app, then configuration — the same
    // order the aggregate reports are emitted in.
    let cells: Vec<Cell> = (0..graphs.len())
        .flat_map(|graph_index| {
            AppKind::ALL.into_iter().flat_map(move |app| {
                let configs = match options.configs {
                    ConfigSet::Figure5 => figure5_configs(app),
                    ConfigSet::Full => SystemConfig::all_for(app.algo_profile().traversal),
                };
                configs.into_iter().map(move |config| Cell {
                    graph_index,
                    app,
                    config,
                })
            })
        })
        .collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        let stream = (cell.graph_index, cell.app, cell.config.propagation);
        let g = *group_of.entry(stream).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }

    let sweep = Sweep {
        spec,
        options,
        store_hash: versioned_spec_hash(&spec_hash(spec, options.configs)),
        graphs: &graphs,
        cells: &cells,
        groups,
        epoch,
        sink,
        next: AtomicUsize::new(0),
        results: Mutex::new((0..cells.len()).map(|_| None).collect()),
    };
    {
        let _phase = metrics.phase("simulate");
        // The calling thread is one of the workers, so a one-thread
        // study simulates on it, where a profiler that samples only the
        // main thread can see the simulation.
        let worker = || {
            let local = MetricsRegistry::new();
            sweep.work(&local);
            metrics.merge(&local);
        };
        std::thread::scope(|scope| {
            for _ in 1..options.threads.min(sweep.groups.len()) {
                scope.spawn(worker);
            }
            worker();
        });
    }
    let slots = std::mem::take(&mut *sweep.results.lock().unwrap_or_else(|e| e.into_inner()));

    let _phase = metrics.phase("aggregate");
    let outcomes: Vec<CellOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                // A worker died without recording this cell (should be
                // unreachable given per-cell catch_unwind, but degrade
                // to a report rather than poisoning the aggregate).
                let detail = "worker terminated before completing this cell".to_owned();
                sweep.names(i).outcome(CellStatus::Failed, detail, 0, None)
            })
        })
        .collect();
    let study = aggregate(spec, &graphs, &cells, &outcomes);
    let reports_out: Vec<CellReport> = outcomes.into_iter().map(|o| o.report).collect();

    metrics.add("workloads_simulated", study.reports.len() as u64);

    Ok(StudyOutcome {
        study,
        cells: reports_out,
        store_report,
    })
}

impl Sweep<'_> {
    /// One worker: takes stream groups until none is left.
    fn work(&self, local: &MetricsRegistry) {
        while let Some(group) = self.groups.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            self.walk(group, local);
        }
    }

    /// Walks one stream group's cells in job order. The group's stream
    /// lives in this call only. `classes` maps each consistency class
    /// (the configuration with its consistency model replaced by the
    /// class representative) to the row and configuration code of its
    /// first `Ok` simulation, or to `None` once that simulation failed
    /// or timed out, after which each member runs on its own.
    fn walk(&self, group: &[usize], local: &MetricsRegistry) {
        let mut stream: Option<GroupStream> = None;
        let mut classes: HashMap<SystemConfig, Option<(ResultRow, String)>> = HashMap::new();
        for &i in group {
            let names = self.names(i);
            // Cells with an injected fault neither answer nor are answered.
            let faulted = self.options.faults.get(&names.key).is_some();
            let class = |stream: &Option<GroupStream>| {
                let (_, mix) = stream.as_ref().filter(|_| !faulted)?;
                let mut config = self.cells[i].config;
                config.consistency = config.consistency.class_representative(*mix);
                Some(config)
            };
            if let Some((row, by)) = class(&stream).and_then(|key| classes.get(&key)?.as_ref()) {
                self.record(i, self.answer(&names, row, by), true, local);
                continue;
            }
            let outcome = self.run(i, &names, &mut stream, local);
            // A store hit leaves the class to the next member.
            let settles = outcome.report.status != CellStatus::Skipped;
            if let (true, Some(key)) = (settles, class(&stream)) {
                let settled = || outcome.row.clone().map(|row| (row, names.config.clone()));
                classes.entry(key).or_insert_with(settled);
            }
            self.record(i, outcome, false, local);
        }
    }

    fn record(&self, i: usize, outcome: CellOutcome, answered: bool, local: &MetricsRegistry) {
        if outcome.report.status == CellStatus::Ok {
            let counter = if answered {
                "configs_answered"
            } else {
                "configs_simulated"
            };
            local.add(counter, 1);
            if let Some(row) = &outcome.row {
                local.observe("config_total_cycles", row.total_cycles);
            }
        }
        let mut slots = self.results.lock().unwrap_or_else(|e| e.into_inner());
        slots[i] = Some(outcome);
    }

    fn names(&self, i: usize) -> Names {
        let cell = self.cells[i];
        let app = cell.app.mnemonic();
        let graph = self.graphs[cell.graph_index].0.mnemonic();
        let config = cell.config.code();
        Names {
            key: cell_key(app, graph, &config),
            app,
            graph,
            config,
        }
    }

    /// Emits `cell_start`, runs `body`, then emits `cell_finish`.
    fn traced(&self, names: &Names, body: impl FnOnce() -> CellOutcome) -> CellOutcome {
        let start_us = self.epoch.elapsed().as_micros() as u64;
        let traced = self.sink.enabled();
        if traced {
            self.sink.emit(&TraceEvent::CellStart {
                app: names.app.to_owned(),
                graph: names.graph.to_owned(),
                config: names.config.clone(),
                start_us,
            });
        }
        let outcome = body();
        if traced {
            self.sink.emit(&TraceEvent::CellFinish {
                app: names.app.to_owned(),
                graph: names.graph.to_owned(),
                config: names.config.clone(),
                status: outcome.report.status.name(),
                attempts: outcome.report.attempts,
                start_us,
                dur_us: self.epoch.elapsed().as_micros() as u64 - start_us,
            });
        }
        outcome
    }

    /// Runs cell `i`: claimed from the store if one is attached (a store
    /// hit ends it as [`CellStatus::Skipped`]), then simulated on its
    /// group's `stream`, building it if no cell has yet, and published.
    fn run(
        &self,
        i: usize,
        names: &Names,
        stream: &mut Option<GroupStream>,
        local: &MetricsRegistry,
    ) -> CellOutcome {
        self.traced(names, || match &self.options.store {
            Some(store) => match self.claim(store, names) {
                Some(outcome) => outcome,
                None => {
                    let outcome = self.execute_with_retries(i, names, stream, local);
                    self.publish(store, names, outcome)
                }
            },
            None => self.execute_with_retries(i, names, stream, local),
        })
    }

    /// Answers a cell with its class's `row`, simulated by config `by`:
    /// claimed from the store first, so a store hit still wins, then
    /// published under the cell's own key.
    fn answer(&self, names: &Names, row: &ResultRow, by: &str) -> CellOutcome {
        self.traced(names, || {
            let row = ResultRow {
                config: names.config.clone(),
                ..row.clone()
            };
            let outcome =
                names.outcome(CellStatus::Ok, format!("answered from {by}"), 0, Some(row));
            match &self.options.store {
                Some(store) => match self.claim(store, names) {
                    Some(outcome) => outcome,
                    None => self.publish(store, names, outcome),
                },
                None => outcome,
            }
        })
    }

    /// Resolves a cell through [`Store::try_claim`], returning `None`
    /// once it is leased to this process (a *store miss*), else the
    /// cell's final outcome: an existing result ends it as
    /// [`CellStatus::Skipped`] (a *store hit*: zero simulation), and a
    /// claim that keeps failing ends it as [`CellStatus::Failed`]. A live
    /// foreign lease is polled until its owner publishes or it expires.
    fn claim(&self, store: &Store, names: &Names) -> Option<CellOutcome> {
        let key = &names.key;
        let wait_started = Instant::now();
        // A live foreign lease resolves itself: its owner either publishes
        // a result (Done) or the lease expires and becomes reclaimable.
        // Twice the TTL is the failsafe against pathological clocks.
        let wait_limit = self
            .options
            .lease_ttl
            .saturating_mul(2)
            .max(Duration::from_millis(100));
        let mut claim_attempts = 0u32;
        loop {
            match store.try_claim(&self.store_hash, key, self.options.lease_ttl) {
                Ok(Claim::Done(row)) => {
                    if self.sink.enabled() {
                        self.sink.emit(&TraceEvent::StoreHit {
                            key: key.clone(),
                            at_us: self.epoch.elapsed().as_micros() as u64,
                        });
                    }
                    return Some(names.outcome(
                        CellStatus::Skipped,
                        "store hit".to_owned(),
                        0,
                        Some(row),
                    ));
                }
                Ok(Claim::Claimed) => break,
                Ok(Claim::Busy(lease)) => {
                    if wait_started.elapsed() >= wait_limit {
                        return Some(names.outcome(
                            CellStatus::Failed,
                            format!(
                                "store lease on {key} held by pid {} beyond the {} ms failsafe",
                                lease.owner,
                                wait_limit.as_millis()
                            ),
                            claim_attempts,
                            None,
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(20).min(wait_limit));
                }
                Err(e) => {
                    claim_attempts += 1;
                    let retry = &self.options.retry;
                    if e.is_retryable() && claim_attempts < retry.max_attempts.max(1) {
                        std::thread::sleep(retry.backoff(claim_attempts));
                        continue;
                    }
                    return Some(names.outcome(
                        CellStatus::Failed,
                        e.to_string(),
                        claim_attempts,
                        None,
                    ));
                }
            }
        }
        if self.sink.enabled() {
            self.sink.emit(&TraceEvent::StoreMiss {
                key: key.clone(),
                at_us: self.epoch.elapsed().as_micros() as u64,
            });
        }
        None
    }

    /// Publishes a claimed cell's row, or releases its lease if it has
    /// none, so peers need not wait out the TTL.
    fn publish(&self, store: &Store, names: &Names, mut outcome: CellOutcome) -> CellOutcome {
        match (&outcome.report.status, &outcome.row) {
            (CellStatus::Ok, Some(row)) => {
                if let Err(e) = store.publish(&self.store_hash, names.app, names.graph, row) {
                    // The cell succeeded; only durability degraded. The
                    // lease stays until its TTL, keeping peers from
                    // double-publishing a possibly-torn record.
                    let detail = &mut outcome.report.detail;
                    if !detail.is_empty() {
                        detail.push_str("; ");
                    }
                    detail.push_str(&format!("result not persisted to store: {e}"));
                }
            }
            _ => {
                // Best effort: an unreleased lease merely delays peers.
                let _ = store.release(&self.store_hash, &names.key);
            }
        }
        outcome
    }

    fn execute_with_retries(
        &self,
        i: usize,
        names: &Names,
        stream: &mut Option<GroupStream>,
        local: &MetricsRegistry,
    ) -> CellOutcome {
        let fault = self.options.faults.get(&names.key);
        let max_attempts = self.options.retry.max_attempts.max(1);
        let mut attempts = 0u32;
        let result = loop {
            attempts += 1;
            let deadline = self.options.cell_deadline.map(|d| Instant::now() + d);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                self.execute_cell(i, names, fault, deadline, stream, local)
            }));
            match caught {
                Ok(Ok(stats)) => break Ok(stats),
                Ok(Err(e)) => {
                    if e.is_retryable() && attempts < max_attempts {
                        std::thread::sleep(self.options.retry.backoff(attempts));
                        continue;
                    }
                    break Err(e);
                }
                // Panics are deterministic: fail fast, no retry.
                Err(payload) => {
                    break Err(CellFailure::from_payload(
                        names.app,
                        names.graph,
                        &names.config,
                        payload,
                    )
                    .into())
                }
            }
        };
        match result {
            Ok(stats) => {
                let row = ResultRow {
                    config: names.config.clone(),
                    total_cycles: stats.total_cycles(),
                    fractions: [
                        stats.breakdown.fraction(StallClass::Busy),
                        stats.breakdown.fraction(StallClass::Comp),
                        stats.breakdown.fraction(StallClass::Data),
                        stats.breakdown.fraction(StallClass::Sync),
                        stats.breakdown.fraction(StallClass::Idle),
                    ],
                };
                names.outcome(CellStatus::Ok, String::new(), attempts, Some(row))
            }
            Err(e) => {
                let status = if e.is_timeout() {
                    CellStatus::Timeout
                } else {
                    CellStatus::Failed
                };
                names.outcome(status, e.to_string(), attempts, None)
            }
        }
    }

    fn execute_cell(
        &self,
        i: usize,
        names: &Names,
        fault: Option<&Fault>,
        deadline: Option<Instant>,
        stream: &mut Option<GroupStream>,
        local: &MetricsRegistry,
    ) -> Result<ggs_sim::ExecStats, GgsError> {
        let cell = self.cells[i];
        match fault {
            Some(Fault::Panic) => {
                let key = &names.key;
                panic!("injected fault: deliberate panic in {key}")
            }
            Some(Fault::Hang) => return run_hang(cell, self.spec, deadline),
            Some(Fault::TransientIo { remaining }) => {
                let took = remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok();
                if took {
                    return Err(GgsError::Io(std::io::Error::other(
                        "injected transient I/O failure",
                    )));
                }
            }
            None => {}
        }
        // Split run: the functional half once per stream group, the
        // timing half on a fresh engine per cell. The same kernels flow
        // through the same simulator in the same order, so the
        // statistics are bit-identical to the fused run that generates
        // kernels as it simulates.
        let (kernels, _) = match stream {
            Some(built) => built,
            None => {
                let graph = &self.graphs[cell.graph_index].1;
                let prop = cell.config.propagation;
                let kernels = produce_stream(cell.app, graph, prop, &self.spec.params)?;
                local.add("streams_built", 1);
                let mix = kernels.iter().map(|k| k.atomic_mix()).max();
                stream.insert((kernels, mix.unwrap_or_default()))
            }
        };
        run_stream_budgeted(
            kernels,
            cell.app,
            cell.config,
            self.spec,
            Tracer::off(),
            deadline,
        )
    }
}

/// The `Hang` fault: feed small compute kernels forever, exactly like a
/// non-converging workload would, so only the watchdogs stop it. A
/// failsafe kernel cap keeps tests honest when neither watchdog is
/// configured; it trips as a kernel-budget breach.
fn run_hang(
    cell: Cell,
    spec: &ExperimentSpec,
    deadline: Option<Instant>,
) -> Result<ggs_sim::ExecStats, GgsError> {
    const FAILSAFE_KERNELS: u64 = 4096;
    let mut spec = spec.clone();
    let cap = spec.budget.max_kernels.unwrap_or(FAILSAFE_KERNELS);
    spec.budget.max_kernels = Some(cap.min(FAILSAFE_KERNELS));
    let threads: Vec<Vec<MicroOp>> = (0..32).map(|_| vec![MicroOp::compute(64)]).collect();
    let kernel = KernelTrace::new(threads, spec.params.tb_size)?;
    let kernel = Arc::new(WarpTrace::pack(&kernel, &spec.params)?);
    // One kernel past the cap, so the cap always trips.
    let forever = vec![kernel; FAILSAFE_KERNELS as usize + 1];
    run_stream_budgeted(
        &forever,
        cell.app,
        cell.config,
        &spec,
        Tracer::off(),
        deadline,
    )
}

/// Builds the (possibly partial) study from per-cell outcomes: rows
/// come from `Ok` cells and store-answered `Skipped` cells; workloads
/// with no surviving row are dropped from `reports` (their cells remain
/// in the failure report).
fn aggregate(
    spec: &ExperimentSpec,
    graphs: &[(GraphPreset, ggs_graph::Csr, GraphProfile)],
    cells: &[Cell],
    outcomes: &[CellOutcome],
) -> Study {
    let mut workload_reports = Vec::new();
    let mut i = 0usize;
    while i < cells.len() {
        let gi = cells[i].graph_index;
        let app = cells[i].app;
        // Consume this workload's contiguous run of cells, keeping the
        // rows of cells that survived (Ok or answered from the store) in
        // configuration order.
        let mut rows: Vec<ResultRow> = Vec::new();
        while i < cells.len() && cells[i].graph_index == gi && cells[i].app == app {
            if let Some(row) = &outcomes[i].row {
                rows.push(row.clone());
            }
            i += 1;
        }
        if rows.is_empty() {
            // Every cell of this workload failed; it is represented in
            // the failure report only.
            continue;
        }
        let (preset, _, profile) = &graphs[gi];
        let algo = app.algo_profile();
        let best = rows
            .iter()
            .min_by_key(|r| r.total_cycles)
            .map(|r| r.config.clone())
            .unwrap_or_default();
        workload_reports.push(WorkloadReport {
            app: app.mnemonic().to_owned(),
            graph: preset.mnemonic().to_owned(),
            classes: profile.class_code(),
            predicted: predict_full(&algo, profile).code(),
            predicted_partial: predict_partial(&algo, profile).code(),
            best,
            baseline: baseline_config(app).code(),
            rows,
        });
    }

    Study {
        scale: spec.scale,
        reports: workload_reports,
        failures: outcomes
            .iter()
            .filter(|o| matches!(o.report.status, CellStatus::Failed | CellStatus::Timeout))
            .map(|o| o.report.clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_status_names_round_trip() {
        for status in [
            CellStatus::Ok,
            CellStatus::Failed,
            CellStatus::Timeout,
            CellStatus::Skipped,
        ] {
            assert_eq!(CellStatus::from_name(status.name()), Some(status));
        }
        assert_eq!(CellStatus::from_name("exploded"), None);
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        assert_eq!(policy.backoff(10), Duration::from_millis(200));
        assert_eq!(policy.backoff(u32::MAX), Duration::from_millis(200));
    }

    #[test]
    fn fault_plan_parses_cli_specs() {
        let plan = FaultPlan::new()
            .parse_spec("PR/AMZ/SGR")
            .and_then(|p| p.parse_spec("CC/RAJ/DGR=hang"))
            .and_then(|p| p.parse_spec("MIS/EML/SD1=io"))
            .expect("valid specs");
        assert!(matches!(plan.get("PR/AMZ/SGR"), Some(Fault::Panic)));
        assert!(matches!(plan.get("CC/RAJ/DGR"), Some(Fault::Hang)));
        assert!(matches!(
            plan.get("MIS/EML/SD1"),
            Some(Fault::TransientIo { .. })
        ));
        assert!(FaultPlan::new().parse_spec("PR/AMZ").is_err());
        assert!(FaultPlan::new().parse_spec("PR/AMZ/SGR=meteor").is_err());
    }

    #[test]
    fn cell_failure_downcasts_common_payloads() {
        let f = CellFailure::from_payload("PR", "AMZ", "SGR", Box::new("boom"));
        assert_eq!(f.payload, "boom");
        let f = CellFailure::from_payload("PR", "AMZ", "SGR", Box::new(String::from("heap boom")));
        assert_eq!(f.payload, "heap boom");
        let f = CellFailure::from_payload("PR", "AMZ", "SGR", Box::new(42u32));
        assert_eq!(f.payload, "non-string panic payload");
        assert!(f.to_string().contains("PR/AMZ/SGR"));
        let err: GgsError = f.into();
        assert!(matches!(err, GgsError::CellPanic { .. }));
        assert!(!err.is_retryable() && !err.is_timeout());
    }

    #[test]
    fn spec_hash_distinguishes_specs_and_config_sets() {
        let a = ExperimentSpec::at_scale(0.05);
        let b = ExperimentSpec::at_scale(0.1);
        assert_eq!(
            spec_hash(&a, ConfigSet::Figure5),
            spec_hash(&a, ConfigSet::Figure5)
        );
        assert_ne!(
            spec_hash(&a, ConfigSet::Figure5),
            spec_hash(&b, ConfigSet::Figure5)
        );
        assert_ne!(
            spec_hash(&a, ConfigSet::Figure5),
            spec_hash(&a, ConfigSet::Full)
        );
        let mut budgeted = a.clone();
        budgeted.budget.max_kernels = Some(5);
        assert_ne!(
            spec_hash(&a, ConfigSet::Figure5),
            spec_hash(&budgeted, ConfigSet::Figure5)
        );
    }

    #[test]
    fn zero_threads_is_an_invalid_spec_not_a_panic() {
        let spec = ExperimentSpec::at_scale(0.004);
        let options = StudyOptions {
            threads: 0,
            ..Default::default()
        };
        let err = run_study(&spec, &options, &MetricsRegistry::new(), &ggs_trace::NOOP)
            .expect_err("zero threads rejected");
        assert!(matches!(err, GgsError::InvalidSpec(_)));
    }
}
