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
//!   [`std::panic::catch_unwind`]; a panic becomes a
//!   [`GgsError::CellPanic`] recorded in the failure report instead of
//!   poisoning the pool.
//! * **Watchdog** — an optional wall-clock limit per cell
//!   ([`StudyOptions::cell_deadline`]), enforced by the engine and
//!   charged only with the cell's own simulation time; a breached cell
//!   is recorded as [`CellStatus::Timeout`] and the study continues.
//! * **One attempt** — a cell is deterministic, so it runs once and
//!   its failure is final: a retry would fail the same way.
//! * **Checkpoint/resume** — with a [`Store`] attached, completed cells
//!   are published as they finish; re-running the same study against
//!   the same store answers them from it ([`CellStatus::Skipped`]) and
//!   simulates only what is missing, reproducing the uninterrupted
//!   results byte for byte.
//!
//! The unit of work is a *stream group*: the cells of one graph ×
//! application × propagation, which share one kernel stream. A worker
//! takes the next group, answers its store hits, runs its faulted cells
//! alone, and simulates the rest in *lockstep*: the group's
//! producer runs once, each kernel is packed once, in windows of
//! consecutive thread blocks, and each window is run by every live
//! simulation of the group before the next is packed. So a worker holds
//! one window, the blocks still resident, and a few simulator states,
//! never a whole kernel, let alone a stream.
//!
//! Each *consistency class* is simulated once: cells that differ only
//! in a consistency model their kernel stream cannot observe (see
//! [`ConsistencyModel::class_representative`](ggs_sim::ConsistencyModel::class_representative))
//! share one lane of the lockstep, and the first of them in job order
//! is the one counted as simulated; the others are answered from it. A
//! lane is forked when a window raises the stream's atomic mix and
//! splits its class. Every lane runs behind its own `catch_unwind` and
//! is charged only with its own simulation time; one that panics or
//! breaches leaves with its typed error, failing the cells of its
//! class, and the others go on. A lockstep cell's
//! `cell_start`/`cell_finish` trace span covers its whole group. No
//! class spans two groups, so workers never wait on each other.
//!
//! The failure taxonomy, the store resume workflow and how answered
//! cells go through the store are documented in `docs/robustness.md`;
//! the class rule and its measured effect in `docs/performance.md`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ggs_apps::{AppKind, Workload, SSSP_MAX_WEIGHT};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_model::{predict_full, predict_partial, GraphProfile, SystemConfig};
use ggs_sim::trace::{KernelTrace, MicroOp, WarpTrace};
use ggs_sim::{ExecStats, Simulation, StallClass};
use ggs_trace::{MetricsRegistry, TraceEvent, TraceSink, Tracer};

use crate::error::GgsError;
use crate::experiment::ExperimentSpec;
use crate::lockstep::{panic_message, Lockstep, Settled};
use crate::store::{fnv1a64, versioned_spec_hash, Store, StoreLoadReport};
use crate::study::{ConfigSet, ResultRow, Study, WorkloadReport};
use crate::sweep::baseline_config;

/// Terminal state of one study cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell simulated successfully, or was answered from another
    /// cell of its consistency class that did.
    Ok,
    /// The cell panicked or failed with an error.
    Failed,
    /// The cell ran past its wall-clock deadline.
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
    /// deadline, the store provenance, or `answered from <CONFIG>` for a
    /// cell answered from the cell of its consistency class that
    /// simulated. Empty for cleanly simulated `Ok` cells.
    pub detail: String,
    /// Execution attempts made: 1 for a cell that ran, 0 for cells
    /// answered from the store or from their consistency class.
    pub attempts: u32,
}

impl CellReport {
    /// The `APP/GRAPH/CONFIG` key identifying this cell.
    pub fn key(&self) -> String {
        cell_key(&self.app, &self.graph, &self.config)
    }
}

/// A deliberately injected failure mode, for fault-injection tests and
/// the `repro --inject-fault` smoke job.
#[derive(Debug)]
pub enum Fault {
    /// The cell panics.
    Panic,
    /// The cell feeds kernels until its deadline stops it, so
    /// [`run_study`] refuses a plan with a hang unless
    /// [`StudyOptions::cell_deadline`] is set.
    Hang,
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

    /// Parses a CLI fault spec: `APP/GRAPH/CONFIG[=panic|hang]`
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
            other => {
                return Err(GgsError::InvalidSpec(format!(
                    "unknown fault kind {other:?} (expected panic or hang)"
                )))
            }
        };
        self.cells.insert(key.to_owned(), fault);
        Ok(self)
    }

    fn get(&self, key: &str) -> Option<&Fault> {
        self.cells.get(key)
    }

    fn has_hang(&self) -> bool {
        self.cells.values().any(|f| matches!(f, Fault::Hang))
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
    /// Wall-clock limit on each cell's simulation, if any. The engine
    /// enforces it, and a cell that runs past it ends as
    /// [`CellStatus::Timeout`] with [`GgsError::Deadline`].
    pub cell_deadline: Option<Duration>,
    /// Deliberate faults to inject (tests, smoke jobs).
    pub faults: FaultPlan,
    /// A crash-safe result store (see `crate::store`): each cell is
    /// looked up before simulating and published after, so a re-run
    /// simulates only the cells the store lacks.
    pub store: Option<Store>,
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
            cell_deadline: None,
            faults: FaultPlan::new(),
            store: None,
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

    /// Checks what [`run_study`] refuses before any work: zero worker
    /// threads, a fault keyed to no cell of [`StudyOptions::configs`], or
    /// a hang fault without a [`StudyOptions::cell_deadline`] that fits
    /// the clock. A caller that opens a store for the study
    /// calls this first, so a refused study leaves no store behind.
    ///
    /// # Errors
    ///
    /// [`GgsError::InvalidSpec`] naming the problem.
    pub fn validate(&self) -> Result<(), GgsError> {
        if self.threads == 0 {
            return Err(GgsError::InvalidSpec(
                "need at least one worker thread".to_owned(),
            ));
        }
        if let Some(key) = self.faults.cells.keys().find(|k| !self.has_cell(k)) {
            return Err(GgsError::InvalidSpec(format!(
                "fault cell {key:?} is not a cell of the study \
                 (APP/GRAPH/CONFIG, as in PR/AMZ/SGR)"
            )));
        }
        if self.faults.has_hang() && hang_deadline(self.cell_deadline).is_none() {
            return Err(GgsError::InvalidSpec(
                "a hang fault needs a cell deadline (--deadline-ms) to stop it".to_owned(),
            ));
        }
        Ok(())
    }

    /// Whether `key` names a cell this study runs.
    fn has_cell(&self, key: &str) -> bool {
        AppKind::ALL.into_iter().any(|app| {
            let configs = self.configs.configs_for(app);
            GraphPreset::ALL.into_iter().any(|graph| {
                configs
                    .iter()
                    .any(|c| cell_key(app.mnemonic(), graph.mnemonic(), &c.code()) == key)
            })
        })
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
    /// The outcome of a cell that ran once: `Ok` with its row, or its
    /// failure.
    fn ran(&self, ran: Ran) -> CellOutcome {
        match ran {
            Ok(stats) => {
                let row = ResultRow {
                    config: self.config.clone(),
                    total_cycles: stats.total_cycles(),
                    fractions: [
                        stats.breakdown.fraction(StallClass::Busy),
                        stats.breakdown.fraction(StallClass::Comp),
                        stats.breakdown.fraction(StallClass::Data),
                        stats.breakdown.fraction(StallClass::Sync),
                        stats.breakdown.fraction(StallClass::Idle),
                    ],
                };
                self.outcome(CellStatus::Ok, String::new(), 1, Some(row))
            }
            Err((status, detail)) => self.outcome(status, detail, 1, None),
        }
    }

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

/// How a cell that ran ended: its statistics, or its terminal status
/// ([`CellStatus::Failed`] or [`CellStatus::Timeout`]) and message.
type Ran = Result<ExecStats, (CellStatus, String)>;

fn ran(result: Result<ExecStats, GgsError>) -> Ran {
    result.map_err(|e| {
        let status = if e.is_timeout() {
            CellStatus::Timeout
        } else {
            CellStatus::Failed
        };
        (status, e.to_string())
    })
}

/// A cell of a stream group that the store did not answer and no fault
/// sabotages: it simulates in the group's lockstep.
struct Pending {
    i: usize,
    names: Names,
    /// Its `cell_start` time, in µs since the study epoch.
    start_us: u64,
}

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
}

/// Runs the study under `spec` with full fault tolerance: panics are
/// isolated per cell, watchdogs convert runaways into timeouts, and,
/// with a store attached, completed cells are published to (and
/// answered from) the store. Each cell that simulates runs once.
///
/// Each worker takes one *stream group* at a time: the cells of one
/// graph × application × propagation, which share one kernel stream,
/// and simulates the group's cells in lockstep (see the module docs),
/// producing the stream once and holding one kernel at a time. Each
/// consistency class is simulated once: cells whose configurations
/// differ only in a consistency model their stream cannot observe
/// ([`ConsistencyModel::class_representative`](ggs_sim::ConsistencyModel::class_representative))
/// are answered, as [`CellStatus::Ok`], from the first of them in job
/// order. Store hits and cells with an injected fault never answer a
/// class.
///
/// Returns `Err` only for setup failures (those of
/// [`StudyOptions::validate`], an unreadable or foreign store);
/// individual cell failures never abort the run — they are reported in
/// [`StudyOutcome::cells`] and `study.failures`. Only the simulations
/// and the group's producer run behind a `catch_unwind`; a panic in a
/// step around them (the store lookup or publish) propagates out of
/// `run_study`.
pub fn run_study(
    spec: &ExperimentSpec,
    options: &StudyOptions,
    metrics: &MetricsRegistry,
    sink: &dyn TraceSink,
) -> Result<StudyOutcome, GgsError> {
    options.validate()?;
    let epoch = Instant::now();
    let store_report = match &options.store {
        Some(store) => {
            // Surface pre-existing corruption up front. Opening the
            // store replayed it into the handle's index, so neither this
            // nor the per-cell lookups read the file.
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
                let configs = options.configs.configs_for(app);
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
    };
    let mut outcomes = {
        let _phase = metrics.phase("simulate");
        // The calling thread is one of the workers, so a one-thread
        // study simulates on it, where a profiler that samples only the
        // main thread can see the simulation.
        let worker = || {
            let local = MetricsRegistry::new();
            let done = sweep.work(&local);
            metrics.merge(&local);
            done
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..options.threads.min(sweep.groups.len()))
                .map(|_| scope.spawn(worker))
                .collect();
            let mut done = worker();
            for helper in helpers {
                done.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            done
        })
    };
    // Every group's cells were recorded once, by the worker that took
    // the group, so job order is a sort away.
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    let outcomes: Vec<CellOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();

    let _phase = metrics.phase("aggregate");
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
    /// One worker: takes stream groups until none is left, and returns
    /// the outcome of each of their cells with the cell's index.
    fn work(&self, local: &MetricsRegistry) -> Vec<(usize, CellOutcome)> {
        let mut done = Vec::new();
        while let Some(group) = self.groups.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            self.walk(group, local, &mut done);
        }
        done
    }

    /// Walks one stream group's cells in job order. Store hits are
    /// answered first and cells with an injected fault run alone; the
    /// rest simulate in the group's [`Lockstep`], which produces the
    /// stream once, one kernel at a time. Each final consistency class
    /// takes its statistics from its lane: the class's first cell in job
    /// order is counted as simulated and the others as answered from it,
    /// or, if the lane failed, every member carries its failure.
    fn walk(&self, group: &[usize], local: &MetricsRegistry, done: &mut Vec<(usize, CellOutcome)>) {
        let mut pending = Vec::new();
        for &i in group {
            let names = self.names(i);
            let start_us = self.cell_start(&names);
            let hit = self
                .options
                .store
                .as_ref()
                .and_then(|store| self.lookup(store, &names));
            let outcome = match (hit, self.options.faults.get(&names.key)) {
                (Some(hit), _) => hit,
                (None, Some(fault)) => self.publish(&names, self.run_faulted(i, &names, fault)),
                (None, None) => {
                    pending.push(Pending { i, names, start_us });
                    continue;
                }
            };
            self.cell_finish(&names, start_us, &outcome);
            count(&outcome, false, local);
            done.push((i, outcome));
        }
        if pending.is_empty() {
            return;
        }
        let mut settled: Vec<(usize, CellOutcome, bool)> = Vec::new();
        for (members, result) in self.lockstep(&pending, local) {
            let lead = &pending[members[0]].names;
            let first = lead.ran(result);
            for &m in &members[1..] {
                let names = &pending[m].names;
                let outcome = match &first.row {
                    Some(row) => {
                        let row = ResultRow {
                            config: names.config.clone(),
                            ..row.clone()
                        };
                        let detail = format!("answered from {}", lead.config);
                        names.outcome(CellStatus::Ok, detail, 0, Some(row))
                    }
                    None => {
                        let report = &first.report;
                        names.outcome(report.status, report.detail.clone(), 1, None)
                    }
                };
                settled.push((m, outcome, true));
            }
            settled.push((members[0], first, false));
        }
        settled.sort_unstable_by_key(|&(m, ..)| m);
        debug_assert!(
            settled.iter().enumerate().all(|(k, &(m, ..))| k == m),
            "every pending cell settles exactly once"
        );
        for (cell, (_, outcome, answered)) in pending.iter().zip(settled) {
            let outcome = self.publish(&cell.names, outcome);
            self.cell_finish(&cell.names, cell.start_us, &outcome);
            count(&outcome, answered, local);
            done.push((cell.i, outcome));
        }
    }

    /// Simulates a group's `pending` cells in a [`Lockstep`]: produces
    /// the group's stream once and delivers each kernel to every live
    /// lane window by window, recording the peak packed bytes the
    /// windows kept live. Returns each final class (positions into
    /// `pending`, in job order) with its result.
    fn lockstep(&self, pending: &[Pending], local: &MetricsRegistry) -> Vec<(Vec<usize>, Ran)> {
        let cell = self.cells[pending[0].i];
        let graph = cell.app.weighted(&self.graphs[cell.graph_index].1);
        let configs = pending.iter().map(|p| self.cells[p.i].config).collect();
        let limit = self.options.cell_deadline;
        let mut lockstep = Lockstep::new(&self.spec.params, configs, limit, Tracer::off());
        let failure = lockstep.produce(&Workload::new(cell.app, &graph), cell.config.propagation);
        if failure.is_none() {
            local.add("streams_built", 1);
            local.observe("window_peak_bytes", lockstep.peak_window_bytes());
        }
        settle(lockstep.finish(failure))
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

    /// Emits `cell_start` for a cell and returns its start time.
    fn cell_start(&self, names: &Names) -> u64 {
        let start_us = self.epoch.elapsed().as_micros() as u64;
        if self.sink.enabled() {
            self.sink.emit(&TraceEvent::CellStart {
                app: names.app.to_owned(),
                graph: names.graph.to_owned(),
                config: names.config.clone(),
                start_us,
            });
        }
        start_us
    }

    /// Emits `cell_finish` for a cell that started at `start_us`.
    fn cell_finish(&self, names: &Names, start_us: u64, outcome: &CellOutcome) {
        if self.sink.enabled() {
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
    }

    /// Looks a cell up in the store: `None` if it has no result (a
    /// *store miss*, to be simulated), else the cell's final outcome,
    /// [`CellStatus::Skipped`] with the stored row (a *store hit*: zero
    /// simulation).
    fn lookup(&self, store: &Store, names: &Names) -> Option<CellOutcome> {
        let key = &names.key;
        let row = store.lookup(&self.store_hash, key);
        if self.sink.enabled() {
            let at_us = self.epoch.elapsed().as_micros() as u64;
            self.sink.emit(&match row {
                Some(_) => TraceEvent::StoreHit {
                    key: key.clone(),
                    at_us,
                },
                None => TraceEvent::StoreMiss {
                    key: key.clone(),
                    at_us,
                },
            });
        }
        let row = row?;
        Some(names.outcome(CellStatus::Skipped, "store hit".to_owned(), 0, Some(row)))
    }

    /// Publishes a cell's row to the store, if one is attached and the
    /// cell is `Ok`. A failed publish leaves the cell's outcome, noted
    /// in its detail: only durability degraded.
    fn publish(&self, names: &Names, mut outcome: CellOutcome) -> CellOutcome {
        let Some(store) = &self.options.store else {
            return outcome;
        };
        if let (CellStatus::Ok, Some(row)) = (&outcome.report.status, &outcome.row) {
            if let Err(e) = store.publish(&self.store_hash, names.app, names.graph, row) {
                let detail = &mut outcome.report.detail;
                if !detail.is_empty() {
                    detail.push_str("; ");
                }
                detail.push_str(&format!("result not persisted to store: {e}"));
            }
        }
        outcome
    }

    /// Runs a cell with an injected `fault`, alone and once, behind
    /// `catch_unwind`.
    fn run_faulted(&self, i: usize, names: &Names, fault: &Fault) -> CellOutcome {
        let result = catch_unwind(AssertUnwindSafe(|| match fault {
            Fault::Panic => {
                let key = &names.key;
                panic!("injected fault: deliberate panic in {key}")
            }
            Fault::Hang => run_hang(self.cells[i], self.spec, self.options.cell_deadline),
        }))
        .unwrap_or_else(|payload| {
            Err(GgsError::CellPanic {
                payload: panic_message(payload),
            })
        });
        names.ran(ran(result))
    }
}

/// Counts an `Ok` cell as simulated or `answered` from its class, and
/// observes its cycles.
fn count(outcome: &CellOutcome, answered: bool, local: &MetricsRegistry) {
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
}

/// Each settled class of a lockstep with its cells' result: the final
/// statistics, or the failure the class left with.
fn settle(classes: Settled<'_>) -> Vec<(Vec<usize>, Ran)> {
    let ran_to_end = |sim: Simulation<'_>| sim.finish();
    classes
        .into_iter()
        .map(|(members, result)| (members, ran(result.map(ran_to_end))))
        .collect()
}

/// The deadline a hang started now runs to, if `limit` is set and fits
/// the clock.
fn hang_deadline(limit: Option<Duration>) -> Option<Instant> {
    limit.and_then(|l| Instant::now().checked_add(l))
}

/// The `Hang` fault: feed a one-warp compute kernel until the cell's
/// deadline trips, exactly like a non-converging workload would.
/// [`run_study`] refuses a hang without a deadline, so the loop ends.
fn run_hang(
    cell: Cell,
    spec: &ExperimentSpec,
    limit: Option<Duration>,
) -> Result<ExecStats, GgsError> {
    let (Some(limit), Some(deadline)) = (limit, hang_deadline(limit)) else {
        return Err(GgsError::InvalidSpec(
            "a hang needs a cell deadline".to_owned(),
        ));
    };
    let threads: Vec<Vec<MicroOp>> = (0..32).map(|_| vec![MicroOp::compute(64)]).collect();
    let kernel = KernelTrace::new(threads, spec.params.tb_size)?;
    let kernel = WarpTrace::pack(&kernel, &spec.params)?;
    let mut sim = Simulation::builder(spec.params.clone(), cell.config.hw())
        .deadline(Some(deadline))
        .build()?;
    while sim.deadline_breach().is_none() {
        sim.run_kernel(&kernel)?;
    }
    Err(GgsError::deadline(limit))
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
    fn fault_plan_parses_cli_specs() {
        let plan = FaultPlan::new()
            .parse_spec("PR/AMZ/SGR")
            .and_then(|p| p.parse_spec("CC/RAJ/DGR=hang"))
            .expect("valid specs");
        assert!(matches!(plan.get("PR/AMZ/SGR"), Some(Fault::Panic)));
        assert!(matches!(plan.get("CC/RAJ/DGR"), Some(Fault::Hang)));
        assert!(FaultPlan::new().parse_spec("PR/AMZ").is_err());
        assert!(FaultPlan::new().parse_spec("MIS/EML/SD1=io").is_err());
        assert!(FaultPlan::new().parse_spec("PR/AMZ/SGR=meteor").is_err());
    }

    /// A fault keyed to no cell of the study would inject nothing, and a
    /// mistyped hang would still force a deadline on every clean cell.
    #[test]
    fn validate_refuses_fault_keys_that_name_no_cell() {
        let with_fault = |configs, spec: &str| {
            let mut options = StudyOptions::new(configs, 1);
            options.faults = FaultPlan::new().parse_spec(spec).expect("well-formed spec");
            options.validate()
        };
        assert!(with_fault(ConfigSet::Figure5, "PR/AMZ/SGR").is_ok());
        assert!(with_fault(ConfigSet::Figure5, "CC/RAJ/DD1").is_ok());
        for spec in [
            "pr/amz/sgr",
            "PR/XYZ/SGR",
            "PR/AMZ/TD0",
            "CC/RAJ/SGR",
            "pr/raj/dgr=hang",
        ] {
            let refused = with_fault(ConfigSet::Figure5, spec);
            assert!(
                matches!(&refused, Err(GgsError::InvalidSpec(m)) if m.contains("not a cell")),
                "{spec}: {refused:?}"
            );
        }
        // TD0 is outside Figure 5 but a cell of the full grid.
        assert!(with_fault(ConfigSet::Full, "PR/AMZ/TD0").is_ok());
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(
            panic_message(Box::new(String::from("heap boom"))),
            "heap boom"
        );
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
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
    }

    #[test]
    fn a_lane_out_of_time_leaves_the_lockstep_and_the_others_go_on() {
        use crate::experiment::run_stream_budgeted;
        use ggs_trace::Tracer;
        use std::sync::Arc;
        let spec = ExperimentSpec::at_scale(0.004);
        let threads = (0..512u64)
            .map(|t| vec![MicroOp::load(t * 4), MicroOp::atomic(0x4000 + t % 32 * 4)])
            .collect();
        let kernel = KernelTrace::new(threads, spec.params.tb_size).unwrap();
        let kernel = WarpTrace::pack(&kernel, &spec.params).unwrap();
        let configs: Vec<SystemConfig> = ["SG1", "SGR", "SD1"]
            .iter()
            .map(|code| code.parse().unwrap())
            .collect();
        let limit = Duration::from_secs(3600);
        let mut lockstep = Lockstep::new(&spec.params, configs.clone(), Some(limit), Tracer::off());
        lockstep.step(&kernel);
        assert_eq!(
            lockstep.lanes.len(),
            3,
            "fire-and-forget atomics: three classes"
        );
        // SGR's lane has used up its limit, so its next kernel breaches.
        lockstep.lanes[1].spent = limit;
        lockstep.step(&kernel);
        assert_eq!(lockstep.lanes.len(), 2);
        let mut settled = settle(lockstep.finish(None));
        settled.sort_by_key(|(members, _)| members[0]);
        let stream = [Arc::new(kernel.clone()), Arc::new(kernel)];
        for (k, (members, result)) in settled.into_iter().enumerate() {
            assert_eq!(members, [k]);
            if k == 1 {
                let timeout = (CellStatus::Timeout, GgsError::deadline(limit).to_string());
                assert_eq!(result, Err(timeout));
                continue;
            }
            let alone =
                run_stream_budgeted(&stream, AppKind::Pr, configs[k], &spec, Tracer::off(), None);
            assert_eq!(result, Ok(alone.unwrap()), "{}", configs[k].code());
        }
    }

    #[test]
    fn a_window_that_raises_the_atomic_mix_splits_lanes_mid_kernel() {
        // 100 blocks, 30 a window: blocks 0..40 issue no atomics, 40..70
        // value-returning ones and 70..100 fire-and-forget ones, so the
        // kernel's second window splits DRF0 from the others and its
        // third splits DRF1 from DRFrlx, both while the kernel runs.
        use ggs_sim::trace::KernelSource;
        let spec = ExperimentSpec::at_scale(0.004);
        let params = &spec.params;
        let tb = params.tb_size;
        assert_eq!((params.window_blocks(), tb), (30, 256));
        let ops = |t: u32| {
            let (block, t) = (u64::from(t / tb), u64::from(t));
            let mut ops = vec![MicroOp::load(t * 4), MicroOp::compute(2)];
            match block {
                0..40 => ops.push(MicroOp::store(0x10_0000 + t * 4)),
                40..70 => ops.push(MicroOp::atomic_returning(0x20_0000 + t % 64 * 4)),
                _ => ops.extend([
                    MicroOp::atomic(0x20_0000 + t % 16 * 4),
                    MicroOp::atomic(0x30_0000 + t * 7 % 16 * 4),
                ]),
            }
            ops
        };
        let threads = 100 * tb;
        let configs: Vec<SystemConfig> = ["SG0", "SG1", "SGR", "SD0", "SD1", "SDR"]
            .iter()
            .map(|code| code.parse().unwrap())
            .collect();
        let mut lockstep = Lockstep::new(params, configs.clone(), None, Tracer::off());
        for _ in 0..2 {
            let mut emit = |t: u32, out: &mut Vec<MicroOp>| out.extend(ops(t));
            lockstep
                .run_kernel(KernelSource::new(threads, tb, &mut emit))
                .unwrap();
        }
        let mut settled = settle(lockstep.finish(None));
        settled.sort_by_key(|(members, _)| members[0]);
        let mut emit = |t: u32, out: &mut Vec<MicroOp>| out.extend(ops(t));
        let whole = KernelSource::new(threads, tb, &mut emit)
            .pack(params)
            .unwrap();
        let fresh: Vec<ExecStats> = configs
            .iter()
            .map(|config| {
                let mut sim = Simulation::new(params.clone(), config.hw()).unwrap();
                for _ in 0..2 {
                    sim.run_kernel(&whole).unwrap();
                }
                sim.finish()
            })
            .collect();
        assert!(
            fresh[0] != fresh[1] && fresh[1] != fresh[2],
            "the models part"
        );
        assert_eq!(settled.len(), configs.len(), "every class split");
        for (k, (members, result)) in settled.into_iter().enumerate() {
            assert_eq!(members, [k]);
            assert_eq!(result, Ok(fresh[k].clone()), "{}", configs[k].code());
        }
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
