//! Per-layer metrics of a traced run, derived from the recorded spans,
//! the re-drive's work counts, and `run_study`'s own phases and cell
//! events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ggs_trace::{MetricsRegistry, TraceEvent, TraceSink};

use crate::drive::DriveReport;
use crate::output::RunResult;
use crate::spans::{durations_ms, totals, Span};
use crate::stats::{percentile, tail_percentile};

/// A recording sink for `run_study`: keeps every cell's start, duration
/// and attempt count from its `cell_finish` event, and counts events.
#[derive(Debug, Default)]
pub struct CellEvents {
    cells: Mutex<Vec<(u64, u64, u32)>>,
    events: AtomicU64,
}

impl TraceSink for CellEvents {
    fn emit(&self, event: &TraceEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let TraceEvent::CellFinish {
            start_us,
            dur_us,
            attempts,
            ..
        } = event
        {
            self.cells
                .lock()
                .expect("cell event list poisoned")
                .push((*start_us, *dur_us, *attempts));
        }
    }
}

impl CellEvents {
    /// Events received.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

/// The runner's view of one pass: phase times and per-cell intervals.
#[derive(Debug, Clone, Default)]
pub struct RunnerView {
    /// Input generation phase.
    pub generate_inputs_ms: f64,
    /// Cell execution phase.
    pub simulate_ms: f64,
    /// Aggregation phase.
    pub aggregate_ms: f64,
    /// `(start_ms, duration_ms)` of every cell.
    pub cells: Vec<(f64, f64)>,
    /// Attempts beyond the first, summed over cells.
    pub retries: u64,
}

impl RunnerView {
    /// The view `run_study` reports through its registry and a
    /// [`CellEvents`] sink.
    pub fn from_study(registry: &MetricsRegistry, sink: &CellEvents) -> Self {
        let phase = |name: &str| {
            registry
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us as f64 / 1e3)
                .sum()
        };
        let cells = sink.cells.lock().expect("cell event list poisoned");
        Self {
            generate_inputs_ms: phase("generate_inputs"),
            simulate_ms: phase("simulate"),
            aggregate_ms: phase("aggregate"),
            cells: cells
                .iter()
                .map(|&(s, d, _)| (s as f64 / 1e3, d as f64 / 1e3))
                .collect(),
            retries: cells
                .iter()
                .map(|&(_, _, a)| u64::from(a.saturating_sub(1)))
                .sum(),
        }
    }
}

/// Time from the first worker running out of cells to the last cell
/// finishing: the closed loop's imbalance at the end of a pass. With one
/// worker it is 0. `cells` holds `(start, duration)` pairs.
pub fn tail(cells: &[(f64, f64)]) -> f64 {
    let last_start = cells.iter().map(|c| c.0).fold(f64::MIN, f64::max);
    let ends = cells.iter().map(|c| c.0 + c.1);
    let last_end = ends.clone().fold(f64::MIN, f64::max);
    let first_idle = ends.filter(|&e| e > last_start).fold(f64::MAX, f64::min);
    if cells.is_empty() || first_idle == f64::MAX {
        0.0
    } else {
        last_end - first_idle
    }
}

/// Everything the per-layer metrics are derived from.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// Every span of the traced run.
    pub spans: &'a [Span],
    /// The traced re-drive of the measured phase.
    pub drive: &'a DriveReport,
    /// Workers of the re-drive.
    pub workers: usize,
    /// The runner's phases and cells.
    pub runner: RunnerView,
    /// Edges of every input graph.
    pub graph_edges: u64,
    /// Wall time of the re-drive without span recording (the mean of
    /// untraced re-drives just before and after the traced one) and with
    /// it, in seconds.
    pub untraced_wall_s: f64,
    /// See `untraced_wall_s`.
    pub traced_wall_s: f64,
}

/// Span-name prefixes of the layers whose self time counts as busy.
const BUSY_LAYERS: [&str; 4] = ["store.", "trace_cache.", "apps.", "sim."];

/// Fills every per-layer metric into `result` and returns the
/// human-readable accounting lines.
pub fn per_layer(inp: &LayerInputs<'_>, result: &mut RunResult) -> Vec<String> {
    let t = totals(inp.spans);
    let total_ms = |name: &str| t.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    let self_ms = |name: &str| t.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e6);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let d = inp.drive;

    result.set("graph.gen_ms", total_ms("graph.generate"), "ms");
    result.set("graph.edges", inp.graph_edges as f64, "count");
    result.set("model.profile_ms", total_ms("model.profile"), "ms");
    result.set("model.predict_us", total_ms("model.predict") * 1e3, "us");

    let produce_ms = self_ms("apps.produce");
    result.set("apps.produce_ms", produce_ms, "ms");
    result.set("apps.ops", d.built_ops as f64, "count");
    result.set("apps.stream_mb", d.built_bytes as f64 / 1e6, "MB");
    result.set(
        "apps.ns_per_op",
        ratio(produce_ms * 1e6, d.built_ops as f64),
        "ns",
    );

    let lookups = (d.cache.hits + d.cache.misses) as f64;
    result.set("trace_cache.hits", d.cache.hits as f64, "count");
    result.set("trace_cache.misses", d.cache.misses as f64, "count");
    result.set(
        "trace_cache.hit_ratio",
        ratio(d.cache.hits as f64, lookups),
        "ratio",
    );
    result.set("trace_cache.bypassed", d.bypassed as f64, "count");
    result.set(
        "trace_cache.wait_ms",
        self_ms("trace_cache.get_or_build"),
        "ms",
    );
    result.set(
        "trace_cache.evicted_mb",
        d.cache.evicted_bytes as f64 / 1e6,
        "MB",
    );

    let sim_ms = total_ms("sim.run");
    result.set("sim.ms", sim_ms, "ms");
    result.set("sim.ns_per_op", ratio(sim_ms * 1e6, d.sim_ops as f64), "ns");
    let stats: Vec<_> = d.cells.iter().filter_map(|c| c.stats.as_ref()).collect();
    let sum =
        |f: &dyn Fn(&ggs_sim::ExecStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    result.set("sim.cycles", sum(&|s| s.total_cycles), "cycles");
    result.set("sim.kernels", sum(&|s| s.kernels), "count");
    result.set("sim.l1_hits", sum(&|s| s.mem.l1_hits), "count");
    result.set("sim.l1_misses", sum(&|s| s.mem.l1_misses), "count");
    result.set("sim.l2_hits", sum(&|s| s.mem.l2_hits), "count");
    result.set("sim.l2_misses", sum(&|s| s.mem.l2_misses), "count");
    result.set("sim.l1_atomics", sum(&|s| s.mem.l1_atomics), "count");
    result.set("sim.l2_atomics", sum(&|s| s.mem.l2_atomics), "count");
    result.set("sim.invalidations", sum(&|s| s.mem.invalidations), "count");
    result.set("sim.registrations", sum(&|s| s.mem.registrations), "count");
    result.set(
        "sim.remote_transfers",
        sum(&|s| s.mem.remote_transfers),
        "count",
    );
    result.set(
        "sim.noc_line_transfers",
        sum(&|s| s.mem.noc_line_transfers),
        "count",
    );
    result.set("sim.mshr_stalls", sum(&|s| s.mem.mshr_stalls), "count");

    let claims = durations_ms(inp.spans, "store.claim");
    let publishes = durations_ms(inp.spans, "store.publish");
    let claims_p = tail_percentile(claims.len());
    let publishes_p = tail_percentile(publishes.len());
    result.set("store.claim_ms_p50", percentile(&claims, 50.0), "ms");
    result.set("store.claim_ms_p90", percentile(&claims, claims_p), "ms");
    result.set("store.publish_ms_p50", percentile(&publishes, 50.0), "ms");
    result.set(
        "store.publish_ms_p90",
        percentile(&publishes, publishes_p),
        "ms",
    );
    result.set("store.load_ms", total_ms("store.load"), "ms");
    result.set("store.hits", d.store_hits as f64, "count");
    result.set("store.misses", d.store_misses as f64, "count");
    // Records scanned per claim: bytes read per claim over the store's
    // mean record size. A claim that finds its record without a full
    // scan reads less.
    let record_bytes = ratio(d.store_file_bytes as f64, d.store_records as f64);
    result.set("store.bytes_scanned", d.store_bytes_read as f64, "bytes");
    result.set(
        "store.scan_ratio",
        ratio(
            ratio(d.store_bytes_read as f64, record_bytes),
            claims.len() as f64,
        ),
        "ratio",
    );

    let r = &inp.runner;
    let cell_ms: Vec<f64> = r.cells.iter().map(|c| c.1).collect();
    let cells_p = tail_percentile(cell_ms.len());
    let wall_ms = d.wall.as_secs_f64() * 1e3;
    let busy_ms: f64 = t
        .iter()
        .filter(|(name, _)| BUSY_LAYERS.iter().any(|p| name.starts_with(p)))
        .map(|(_, s)| s.self_ns as f64 / 1e6)
        .sum();
    let workers = inp.workers.max(1) as f64;
    let overhead_ms = wall_ms - busy_ms / workers;
    result.set("runner.generate_inputs_ms", r.generate_inputs_ms, "ms");
    result.set("runner.simulate_ms", r.simulate_ms, "ms");
    result.set("runner.aggregate_ms", r.aggregate_ms, "ms");
    result.set("runner.cell_ms_p50", percentile(&cell_ms, 50.0), "ms");
    result.set("runner.cell_ms_p90", percentile(&cell_ms, cells_p), "ms");
    result.set("runner.tail_ms", tail(&r.cells), "ms");
    result.set("runner.retries", r.retries as f64, "count");
    result.set("runner.overhead_ms", overhead_ms, "ms");

    result.set(
        "trace.overhead_pct",
        ratio(inp.traced_wall_s - inp.untraced_wall_s, inp.untraced_wall_s) * 100.0,
        "%",
    );

    let mut lines = vec![format!(
        "percentiles: store.claim p{claims_p} of {} claims, store.publish p{publishes_p} of {} publishes, runner.cell p{cells_p} of {} cells",
        claims.len(),
        publishes.len(),
        cell_ms.len()
    )];
    lines.push(format!(
        "accounting: re-drive wall {wall_ms:.1} ms = layer busy {busy_ms:.1} ms / {workers} workers + runner.overhead_ms {overhead_ms:.1} ms"
    ));
    for (name, s) in &t {
        lines.push(format!(
            "  span {name:<26} n={:<6} total {:>10.1} ms  self {:>10.1} ms",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        ));
    }
    lines
}
