//! Drives study cells through the same public calls `run_study` makes
//! for each cell: `Store::try_claim`, `TraceCache::get_or_build` (whose
//! build runs `produce_trace_stream`), `run_stream_budgeted`, and
//! `Store::publish`. With a [`Recorder`] each call gets a span, so a
//! cell's host time splits into store, trace-cache, apps and sim time.
//!
//! Workers form a closed loop: each takes the next cell only when its
//! current cell has finished. The trace cache has `run_study`'s default
//! budget.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ggs_apps::{AppKind, Workload};
use ggs_core::experiment::{produce_trace_stream, run_stream_budgeted, ExperimentSpec};
use ggs_core::study::{ConfigSet, ResultRow};
use ggs_core::sweep::figure5_configs;
use ggs_core::{Claim, Store, StreamKey, StudyOptions, TraceCache, TraceCacheStats};
use ggs_graph::Csr;
use ggs_model::SystemConfig;
use ggs_sim::{ExecStats, StallClass};
use ggs_trace::Tracer;

use crate::spans::{traced, Recorder};

/// Lease time-to-live for claims (the `StudyOptions` default).
pub const LEASE_TTL: Duration = Duration::from_secs(30);

/// One prepared input graph.
#[derive(Debug, Clone)]
pub struct Input {
    /// Graph mnemonic used in cell keys.
    pub name: String,
    /// The graph, shared by every cell that runs on it.
    pub graph: Arc<Csr>,
    /// Content fingerprint keying the trace cache.
    pub fingerprint: u64,
}

/// One schedulable cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into the input list.
    pub input: usize,
    /// Application.
    pub app: AppKind,
    /// Configuration point.
    pub config: SystemConfig,
}

/// The `APP/GRAPH/CONFIG` key of a cell.
pub fn cell_key(app: &str, graph: &str, config: &str) -> String {
    format!("{app}/{graph}/{config}")
}

/// The cells of a study over `inputs` graphs, in `run_study`'s order:
/// graph-major, then application, then configuration.
pub fn study_cells(inputs: usize, configs: ConfigSet) -> Vec<Cell> {
    let mut cells = Vec::new();
    for input in 0..inputs {
        for app in AppKind::ALL {
            let set = match configs {
                ConfigSet::Figure5 => figure5_configs(app),
                ConfigSet::Full => SystemConfig::all_for(app.algo_profile().traversal),
            };
            cells.extend(set.into_iter().map(|config| Cell { input, app, config }));
        }
    }
    cells
}

/// The study row a simulated cell yields, built as `run_study` builds it.
pub fn result_row(config: SystemConfig, stats: &ExecStats) -> ResultRow {
    ResultRow {
        config: config.code(),
        total_cycles: stats.total_cycles(),
        fractions: [
            stats.breakdown.fraction(StallClass::Busy),
            stats.breakdown.fraction(StallClass::Comp),
            stats.breakdown.fraction(StallClass::Data),
            stats.breakdown.fraction(StallClass::Sync),
            stats.breakdown.fraction(StallClass::Idle),
        ],
    }
}

/// A result store the cells claim from and publish to.
#[derive(Debug)]
pub struct StoreTarget<'a> {
    /// The open store.
    pub store: &'a Store,
    /// The versioned spec hash `run_study` would key the cells under.
    pub spec_hash: String,
}

/// How to drive a list of cells.
#[derive(Debug)]
pub struct Drive<'a> {
    /// Experiment settings shared by every cell.
    pub spec: &'a ExperimentSpec,
    /// Worker threads.
    pub workers: usize,
    /// Result store, if the cells go through one.
    pub store: Option<StoreTarget<'a>>,
    /// Span recorder for a traced run.
    pub recorder: Option<&'a Recorder>,
}

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    /// `APP/GRAPH/CONFIG`.
    pub key: String,
    /// The study row (simulated or loaded from the store).
    pub row: Option<ResultRow>,
    /// Full statistics when the cell was simulated (not a store hit).
    pub stats: Option<ExecStats>,
    /// Why the cell failed, if it did.
    pub error: Option<String>,
}

/// Work counts of one drive.
#[derive(Debug, Clone, Default)]
pub struct DriveReport {
    /// Per-cell results in cell order.
    pub cells: Vec<CellRun>,
    /// Wall time of the whole drive.
    pub wall: Duration,
    /// Trace-cache traffic.
    pub cache: TraceCacheStats,
    /// Micro-ops in the built streams.
    pub built_ops: u64,
    /// Heap bytes (capacity) of the built streams.
    pub built_bytes: u64,
    /// Built streams the cache handed back without keeping: on return
    /// from `get_or_build`, the building cell held the only reference.
    pub bypassed: u64,
    /// Micro-ops replayed through the simulator.
    pub sim_ops: u64,
    /// Store claims answered with an existing result.
    pub store_hits: u64,
    /// Store claims that leased the cell for simulation.
    pub store_misses: u64,
    /// Bytes the process read from files while the workers ran (the
    /// `rchar` of `/proc/self/io`). Only the store reads files then.
    pub store_bytes_read: u64,
    /// Records in the store once the drive is over.
    pub store_records: u64,
    /// Size of the store file once the drive is over.
    pub store_file_bytes: u64,
}

#[derive(Default)]
struct Tally {
    built_ops: AtomicU64,
    built_bytes: AtomicU64,
    bypassed: AtomicU64,
    sim_ops: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

fn add(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// Bytes this process has read through read-like system calls so far.
fn read_chars() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("rchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

impl Drive<'_> {
    /// Runs `cells` over `inputs` and reports what happened.
    pub fn run(&self, inputs: &[Input], cells: &[Cell]) -> DriveReport {
        let started = Instant::now();
        let cache = TraceCache::new(StudyOptions::default().trace_cache_bytes);
        let tally = Tally::default();
        if let Some(target) = &self.store {
            // `run_study` scans the store once up front.
            let _ = traced(self.recorder, "store.load", None, 0, |_| {
                target.store.load()
            });
        }
        let read_before = self.store.as_ref().map(|_| read_chars());
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<CellRun>>> = Mutex::new(vec![None; cells.len()]);
        std::thread::scope(|scope| {
            for worker in 0..self.workers.clamp(1, cells.len().max(1)) {
                let (cache, tally, next, slots) = (&cache, &tally, &next, &slots);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&cell) = cells.get(i) else { break };
                    let run = self.run_cell(worker, &inputs[cell.input], cell, cache, tally);
                    slots.lock().expect("result slots poisoned")[i] = Some(run);
                });
            }
        });
        let store_bytes_read = read_before.map_or(0, |b| read_chars().saturating_sub(b));
        let wall = started.elapsed();
        let (store_records, store_file_bytes) = self
            .store
            .as_ref()
            .and_then(|t| t.store.load().ok())
            .map_or((0, 0), |s| (s.report.records as u64, s.report.valid_end));
        let cells = slots
            .into_inner()
            .expect("result slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("every cell is taken by exactly one worker"))
            .collect();
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DriveReport {
            cells,
            wall,
            cache: cache.stats(),
            built_ops: get(&tally.built_ops),
            built_bytes: get(&tally.built_bytes),
            bypassed: get(&tally.bypassed),
            sim_ops: get(&tally.sim_ops),
            store_hits: get(&tally.store_hits),
            store_misses: get(&tally.store_misses),
            store_bytes_read,
            store_records,
            store_file_bytes,
        }
    }

    fn run_cell(
        &self,
        worker: usize,
        input: &Input,
        cell: Cell,
        cache: &TraceCache,
        tally: &Tally,
    ) -> CellRun {
        let rec = self.recorder;
        let app = cell.app;
        let config = cell.config;
        let mut run = CellRun {
            key: cell_key(app.mnemonic(), &input.name, &config.code()),
            ..CellRun::default()
        };
        traced(rec, "cell", None, worker, |root| {
            if let Some(target) = &self.store {
                let claim = traced(rec, "store.claim", root, worker, |_| {
                    target
                        .store
                        .try_claim(&target.spec_hash, &run.key, LEASE_TTL)
                });
                match claim {
                    Ok(Claim::Done(row)) => {
                        add(&tally.store_hits, 1);
                        run.row = Some(row);
                        return;
                    }
                    Ok(Claim::Claimed) => add(&tally.store_misses, 1),
                    Ok(Claim::Busy(lease)) => {
                        run.error = Some(format!("lease held by pid {}", lease.owner));
                        return;
                    }
                    Err(e) => {
                        run.error = Some(e.to_string());
                        return;
                    }
                }
            }
            let graph = input.graph.as_ref();
            let prop = config.propagation;
            let tb_size = self.spec.params.tb_size;
            let key = StreamKey {
                app,
                graph_fp: input.fingerprint,
                prop,
                tb_size,
                policy_fp: Workload::new(app, graph).policy_fingerprint(prop),
            };
            let mut built = false;
            let stream = traced(rec, "trace_cache.get_or_build", root, worker, |tc| {
                cache.get_or_build(
                    key,
                    &input.name,
                    &ggs_trace::NOOP,
                    || 0,
                    || {
                        built = true;
                        let stream = traced(rec, "apps.produce", tc, worker, |_| {
                            Arc::new(produce_trace_stream(app, graph, prop, tb_size))
                        });
                        add(&tally.built_ops, stream.iter().map(|k| k.total_ops()).sum());
                        add(
                            &tally.built_bytes,
                            stream.iter().map(|k| k.heap_bytes()).sum(),
                        );
                        stream
                    },
                )
            });
            if built && Arc::strong_count(&stream) == 1 {
                add(&tally.bypassed, 1);
            }
            add(&tally.sim_ops, stream.iter().map(|k| k.total_ops()).sum());
            let result = traced(rec, "sim.run", root, worker, |_| {
                run_stream_budgeted(&stream, app, config, self.spec, Tracer::off(), None)
            });
            drop(stream);
            let stats = match result {
                Ok(stats) => stats,
                Err(e) => {
                    if let Some(target) = &self.store {
                        let _ = target.store.release(&target.spec_hash, &run.key);
                    }
                    run.error = Some(e.to_string());
                    return;
                }
            };
            let row = result_row(config, &stats);
            if let Some(target) = &self.store {
                let published = traced(rec, "store.publish", root, worker, |_| {
                    target
                        .store
                        .publish(&target.spec_hash, app.mnemonic(), &input.name, &row)
                });
                if let Err(e) = published {
                    run.error = Some(format!("publish failed: {e}"));
                }
            }
            run.row = Some(row);
            run.stats = Some(stats);
        });
        run
    }
}
