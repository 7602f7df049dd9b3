//! The `repro bench` performance baseline: wall-clock timing of a
//! fixed small study slice, serialized to `BENCH_sim.json`.
//!
//! The report has three arms (`ggs-bench-v2` schema):
//!
//! * **Slice** — nine (application, configuration) cells on a
//!   synthetic rmat14 graph at scale 0.125, chosen to exercise both
//!   coherence protocols, all three consistency models, and all three
//!   traversal directions. Each cell is timed cold (best of `--iters`
//!   runs): this is the per-cell simulation canary.
//! * **Grid** — the twelve static configurations of one application
//!   (PR) on the same graph, sharing one [`TraceCache`]: the
//!   sweep-path canary. Traces are built once per traversal direction
//!   and replayed for every coherence × consistency cell, so this arm
//!   regresses when cross-cell reuse stops paying (see
//!   docs/performance.md, "Sweep-level reuse").
//! * **Tiers** — one representative cell (PR under SGR) per graph
//!   scale tier (`rmat14`/`rmat16`/`rmat18`): the big-graph canary.
//!   A tier whose run fails fails the run, and one whose cycles or
//!   kernels drift from the baseline fails the gate.
//!
//! Simulated cycle counts are recorded alongside the wall-clock
//! numbers: cycles are deterministic, so a cycles mismatch against the
//! baseline means simulator *behavior* changed (intentionally or not)
//! and the baseline needs a refresh in the same change. Peak RSS is
//! recorded and gated too, so a memory blow-up in the sweep path is
//! caught even when throughput survives.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ggs_apps::AppKind;
use ggs_core::experiment::{
    produce_trace_stream, run_stream_budgeted, run_workload, ExperimentSpec,
};
use ggs_core::json::{self, Value};
use ggs_core::{graph_fingerprint, StreamKey, TraceCache};
use ggs_graph::synth::{DegreeModel, SynthConfig};
use ggs_graph::Csr;
use ggs_model::SystemConfig;
use ggs_trace::Tracer;

/// Scale factor of the benchmark slice (inputs and caches together,
/// matching the study default).
pub const BENCH_SCALE: f64 = 0.125;

/// Graph of the benchmark slice: `rmat14` (2^14 vertices before
/// scaling, average degree 16, hubbed power-law tail).
pub const BENCH_GRAPH: &str = "rmat14";

/// The ten benchmark cells: three applications, each under three
/// configurations spanning coherence × consistency × direction, plus
/// one frontier-adaptive hybrid cell (`H*`) so the per-iteration
/// direction-switching path is on the perf-regression radar.
/// CC is a dynamic (push+pull) traversal, so its cells use `D*` codes.
pub const SLICE: [(AppKind, &str); 10] = [
    (AppKind::Pr, "TD0"),
    (AppKind::Pr, "TDR"),
    (AppKind::Pr, "SGR"),
    (AppKind::Bfs, "TD0"),
    (AppKind::Bfs, "TDR"),
    (AppKind::Bfs, "SGR"),
    (AppKind::Bfs, "HDR"),
    (AppKind::Cc, "DG1"),
    (AppKind::Cc, "DD1"),
    (AppKind::Cc, "DGR"),
];

/// Application of the twelve-configuration grid arm.
pub const GRID_APP: AppKind = AppKind::Pr;

/// The full static configuration grid: two traversal directions ×
/// two coherence protocols × three consistency models. Six cells per
/// direction share one kernel-trace stream through the [`TraceCache`].
pub const GRID_CONFIGS: [&str; 12] = [
    "TG0", "TG1", "TGR", "TD0", "TD1", "TDR", "SG0", "SG1", "SGR", "SD0", "SD1", "SDR",
];

/// The graph scale tiers: each tier quadruples the vertex count of
/// the previous one (before `BENCH_SCALE` is applied).
pub const TIERS: [&str; 3] = ["rmat14", "rmat16", "rmat18"];

/// Generates an `rmat<exp>` synthetic power-law graph (2^exp vertices
/// before scaling, average degree 16), as used by `repro trace` and
/// the benchmark slice.
pub fn rmat_graph(exp: u32, scale: f64) -> Csr {
    let model = DegreeModel::log_normal(1.0).with_hubs(0.05, 256.0, 2048.0, 1.5);
    SynthConfig::custom(format!("rmat{exp}"), 1u32 << exp, 16.0, model, 0.5)
        .scale(scale)
        .generate()
}

/// Timing of one benchmark cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// Application mnemonic (`PR`, `BFS`, `CC`).
    pub app: String,
    /// Configuration code (`TD0`, `SGR`, …).
    pub config: String,
    /// Best wall-clock time over the measured iterations.
    pub wall: Duration,
    /// Simulated GPU cycles the cell produced (deterministic).
    pub cycles: u64,
    /// Kernels the cell launched (deterministic).
    pub kernels: u64,
}

/// Timing of the twelve-configuration grid arm: one application swept
/// across the full static grid, once rebuilding the kernel trace per
/// cell (the pre-reuse sweep path) and once through a shared
/// [`TraceCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridTiming {
    /// Application mnemonic (`PR`).
    pub app: String,
    /// Number of grid cells swept.
    pub configs: u32,
    /// Wall-clock time of the shared-cache sweep, trace builds
    /// included.
    pub wall: Duration,
    /// Wall-clock time of the same sweep rebuilding the trace for
    /// every cell.
    pub uncached_wall: Duration,
    /// Trace-cache hits over the cached sweep (expected: configs −
    /// builds).
    pub cache_hits: u64,
    /// Trace-cache misses over the cached sweep (one per traversal
    /// direction).
    pub cache_misses: u64,
}

impl GridTiming {
    /// Grid cells swept per second of wall-clock time (cached sweep)
    /// — the sweep-path throughput number gated against the baseline.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            f64::from(self.configs) / secs
        } else {
            0.0
        }
    }

    /// Sweep-level reuse factor: uncached wall over cached wall. The
    /// honest measure of what cross-cell trace memoization buys on
    /// this host (bounded by the trace producer's share of cell
    /// cost).
    pub fn speedup(&self) -> f64 {
        let cached = self.wall.as_secs_f64();
        if cached > 0.0 {
            self.uncached_wall.as_secs_f64() / cached
        } else {
            0.0
        }
    }
}

/// Timing of one scale-tier cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TierTiming {
    /// Tier name (`rmat14`, `rmat16`, `rmat18`).
    pub tier: String,
    /// Vertices of the generated graph (after `BENCH_SCALE`).
    pub vertices: u64,
    /// Edges of the generated graph (after `BENCH_SCALE`).
    pub edges: u64,
    /// Wall-clock time of the single measured run.
    pub wall: Duration,
    /// Simulated GPU cycles (deterministic).
    pub cycles: u64,
    /// Kernels launched (deterministic).
    pub kernels: u64,
}

/// One `repro bench` measurement: the slice, the grid, the tiers, and
/// the aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Scale factor of the run.
    pub scale: f64,
    /// Iterations measured per slice cell (the best is kept).
    pub iters: u32,
    /// Per-cell slice timings, in slice order.
    pub cells: Vec<CellTiming>,
    /// The shared-trace-cache grid sweep, when it was run.
    pub grid: Option<GridTiming>,
    /// Per-tier timings, in ascending tier order.
    pub tiers: Vec<TierTiming>,
    /// Peak resident set size in KiB, when the platform exposes it.
    pub peak_rss_kb: Option<u64>,
}

impl BenchReport {
    /// Sum of the per-cell best wall-clock times (slice only).
    pub fn total_wall(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }

    /// Slice cells simulated per second of wall-clock time — the
    /// per-cell perf-trajectory number.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.total_wall().as_secs_f64();
        if secs > 0.0 {
            self.cells.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Serializes the report as pretty-printed JSON (the
    /// `BENCH_sim.json` schema, `ggs-bench-v2`).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"ggs-bench-v2\",\n");
        out.push_str(&format!("  \"graph\": \"{BENCH_GRAPH}\",\n"));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"iters\": {},\n", self.iters));
        out.push_str(&format!(
            "  \"total_wall_ms\": {:.3},\n",
            self.total_wall().as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  \"cells_per_sec\": {:.4},\n",
            self.cells_per_sec()
        ));
        match self.peak_rss_kb {
            Some(kb) => out.push_str(&format!("  \"peak_rss_kb\": {kb},\n")),
            None => out.push_str("  \"peak_rss_kb\": null,\n"),
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"app\": \"{}\", \"config\": \"{}\", \"wall_ms\": {:.3}, \
                 \"cycles\": {}, \"kernels\": {}}}{}\n",
                c.app,
                c.config,
                c.wall.as_secs_f64() * 1e3,
                c.cycles,
                c.kernels,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        match &self.grid {
            Some(g) => out.push_str(&format!(
                "  \"grid\": {{\"app\": \"{}\", \"configs\": {}, \"wall_ms\": {:.3}, \
                 \"uncached_wall_ms\": {:.3}, \"cells_per_sec\": {:.4}, \
                 \"speedup\": {:.4}, \"cache_hits\": {}, \"cache_misses\": {}}},\n",
                g.app,
                g.configs,
                g.wall.as_secs_f64() * 1e3,
                g.uncached_wall.as_secs_f64() * 1e3,
                g.cells_per_sec(),
                g.speedup(),
                g.cache_hits,
                g.cache_misses,
            )),
            None => out.push_str("  \"grid\": null,\n"),
        }
        out.push_str("  \"tiers\": [\n");
        for (i, t) in self.tiers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"tier\": \"{}\", \"vertices\": {}, \"edges\": {}, \
                 \"wall_ms\": {:.3}, \"cycles\": {}, \"kernels\": {}}}{}\n",
                t.tier,
                t.vertices,
                t.edges,
                t.wall.as_secs_f64() * 1e3,
                t.cycles,
                t.kernels,
                if i + 1 < self.tiers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously written by
    /// [`BenchReport::to_json_pretty`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != "ggs-bench-v2" {
            return Err(format!("unsupported bench schema {schema:?}"));
        }
        let cells = v
            .get("cells")
            .and_then(Value::as_array)
            .ok_or("missing cells array")?
            .iter()
            .map(|c| -> Result<CellTiming, String> {
                let s = |k: &str| {
                    c.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("cell missing {k:?}"))
                };
                Ok(CellTiming {
                    app: s("app")?,
                    config: s("config")?,
                    wall: millis(c, "cell", "wall_ms")?,
                    cycles: count(c, "cell", "cycles")?,
                    kernels: count(c, "cell", "kernels")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let grid = match v.get("grid") {
            Some(g @ Value::Object(_)) => Some(GridTiming {
                app: g
                    .get("app")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or("grid missing \"app\"")?,
                configs: count32(g, "grid", "configs")?,
                wall: millis(g, "grid", "wall_ms")?,
                uncached_wall: millis(g, "grid", "uncached_wall_ms")?,
                cache_hits: count(g, "grid", "cache_hits")?,
                cache_misses: count(g, "grid", "cache_misses")?,
            }),
            _ => None,
        };
        let tiers = v
            .get("tiers")
            .and_then(Value::as_array)
            .map(|arr| {
                arr.iter()
                    .map(|t| -> Result<TierTiming, String> {
                        Ok(TierTiming {
                            tier: t
                                .get("tier")
                                .and_then(Value::as_str)
                                .map(str::to_owned)
                                .ok_or("tier missing \"tier\"")?,
                            vertices: count(t, "tier", "vertices")?,
                            edges: count(t, "tier", "edges")?,
                            wall: millis(t, "tier", "wall_ms")?,
                            cycles: count(t, "tier", "cycles")?,
                            kernels: count(t, "tier", "kernels")?,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?
            .unwrap_or_default();
        Ok(Self {
            scale: v
                .get("scale")
                .and_then(Value::as_f64)
                .ok_or("missing numeric field \"scale\"")?,
            iters: count32(&v, "report", "iters")?,
            cells,
            grid,
            tiers,
            peak_rss_kb: v.get("peak_rss_kb").and_then(Value::as_u64),
        })
    }
}

/// A report's millisecond field `k` of its `scope` object (a cell, the
/// grid, a tier) as a [`Duration`]: a negative, overflowing or non-finite
/// value is an error, not a panic.
fn millis(obj: &Value, scope: &str, k: &str) -> Result<Duration, String> {
    let ms = obj
        .get(k)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{scope} missing {k:?}"))?;
    Duration::try_from_secs_f64(ms / 1e3).map_err(|e| format!("bad duration {ms} ms: {e}"))
}

/// A report's count field: anything but a non-negative integer that
/// fits a `u64` is an error, never truncated or clamped.
fn count(obj: &Value, scope: &str, k: &str) -> Result<u64, String> {
    obj.get(k)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{scope} field {k:?} is missing or not a non-negative integer"))
}

/// [`count`] for a field that must also fit a `u32`.
fn count32(obj: &Value, scope: &str, k: &str) -> Result<u32, String> {
    u32::try_from(count(obj, scope, k)?).map_err(|_| format!("{scope} field {k:?} exceeds u32"))
}

/// Runs the benchmark slice: each cell is timed `iters` times and the
/// best iteration is kept.
/// `progress` receives one human-readable line per cell. The grid and
/// tier arms are separate ([`run_grid`], [`run_tier`]); the returned
/// report carries none until the caller fills them in.
pub fn run_slice(iters: u32, progress: &mut dyn FnMut(&str)) -> BenchReport {
    let graph = rmat_graph(14, BENCH_SCALE);
    let spec = ExperimentSpec::at_scale(BENCH_SCALE);
    let mut cells = Vec::with_capacity(SLICE.len());
    for (app, code) in SLICE {
        let config: SystemConfig = code.parse().expect("slice config codes are valid");
        let mut best = Duration::MAX;
        let mut stats = None;
        for _ in 0..iters.max(1) {
            let start = Instant::now();
            let s = run_workload(app, &graph, config, &spec, Tracer::off(), None)
                .expect("slice cells are supported app/config pairs");
            best = best.min(start.elapsed());
            stats = Some(s);
        }
        let stats = stats.expect("at least one iteration ran");
        progress(&format!(
            "{:4} {code}: {:8.1} ms  ({} cycles, {} kernels)",
            app.mnemonic(),
            best.as_secs_f64() * 1e3,
            stats.total_cycles(),
            stats.kernels
        ));
        cells.push(CellTiming {
            app: app.mnemonic().to_owned(),
            config: code.to_owned(),
            wall: best,
            cycles: stats.total_cycles(),
            kernels: stats.kernels,
        });
    }
    BenchReport {
        scale: BENCH_SCALE,
        iters: iters.max(1),
        cells,
        grid: None,
        tiers: Vec::new(),
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Sweeps [`GRID_APP`] across the full twelve-configuration static
/// grid with one shared [`TraceCache`]: the kernel-trace stream is
/// built once per traversal direction and replayed for every
/// coherence × consistency cell of that direction, as the study
/// runner's stream groups do (docs/performance.md, "Sweep-level
/// reuse").
pub fn run_grid(progress: &mut dyn FnMut(&str)) -> GridTiming {
    let graph = rmat_graph(14, BENCH_SCALE);
    let spec = ExperimentSpec::at_scale(BENCH_SCALE);
    let graph_fp = graph_fingerprint(&graph);
    let configs: Vec<SystemConfig> = GRID_CONFIGS
        .iter()
        .map(|code| code.parse().expect("grid config codes are valid"))
        .collect();
    let run_cell = |stream: &[Arc<ggs_sim::trace::WarpTrace>], config: SystemConfig| {
        run_stream_budgeted(stream, GRID_APP, config, &spec, Tracer::off(), None)
            .expect("grid cells are supported app/config pairs")
    };
    // Warm the allocator and page tables outside both measured passes.
    let warmup = produce_trace_stream(
        GRID_APP,
        &graph,
        configs[0].propagation,
        spec.params.tb_size,
    );
    run_cell(&warmup, configs[0]);
    drop(warmup);

    // Pass 1: the pre-reuse sweep path — every cell rebuilds its
    // kernel-trace stream.
    let start = Instant::now();
    for &config in &configs {
        let stream =
            produce_trace_stream(GRID_APP, &graph, config.propagation, spec.params.tb_size);
        run_cell(&stream, config);
    }
    let uncached_wall = start.elapsed();

    // Pass 2: the shared-cache sweep path — one build per direction.
    let cache = TraceCache::new(256 << 20);
    let start = Instant::now();
    for &config in &configs {
        let key = StreamKey {
            app: GRID_APP,
            graph_fp,
            prop: config.propagation,
            tb_size: spec.params.tb_size,
            // The grid sweeps static directions only; static props have
            // no direction policy, so the fingerprint is zero.
            policy_fp: 0,
        };
        let stream = cache.get_or_build(
            key,
            BENCH_GRAPH,
            &ggs_trace::NOOP,
            || 0,
            || {
                Arc::new(produce_trace_stream(
                    GRID_APP,
                    &graph,
                    config.propagation,
                    spec.params.tb_size,
                ))
            },
        );
        run_cell(&stream, config);
    }
    let wall = start.elapsed();
    let stats = cache.stats();
    let timing = GridTiming {
        app: GRID_APP.mnemonic().to_owned(),
        configs: GRID_CONFIGS.len() as u32,
        wall,
        uncached_wall,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
    };
    progress(&format!(
        "grid {}x{}: {:8.1} ms cached vs {:8.1} ms uncached  \
         ({:.1} cells/sec, {:.2}x reuse, {} trace builds, {} hits)",
        timing.app,
        timing.configs,
        wall.as_secs_f64() * 1e3,
        uncached_wall.as_secs_f64() * 1e3,
        timing.cells_per_sec(),
        timing.speedup(),
        stats.misses,
        stats.hits,
    ));
    timing
}

/// Runs one scale tier: PR under SGR on the named `rmat<N>` graph
/// (scaled by [`BENCH_SCALE`]). Returns an error for an unknown tier
/// name or a failed run.
pub fn run_tier(tier: &str, progress: &mut dyn FnMut(&str)) -> Result<TierTiming, String> {
    let exp: u32 = tier
        .strip_prefix("rmat")
        .and_then(|s| s.parse().ok())
        .filter(|e| (4..=28).contains(e))
        .ok_or_else(|| format!("unknown tier {tier:?} (expected rmat<N>, 4 <= N <= 28)"))?;
    let graph = rmat_graph(exp, BENCH_SCALE);
    let spec = ExperimentSpec::builder()
        .scale(BENCH_SCALE)
        .build()
        .map_err(|e| e.to_string())?;
    let config: SystemConfig = "SGR".parse().expect("tier config code is valid");
    let start = Instant::now();
    let stats = run_workload(AppKind::Pr, &graph, config, &spec, Tracer::off(), None)
        .map_err(|e| format!("tier {tier} failed: {e}"))?;
    let wall = start.elapsed();
    let timing = TierTiming {
        tier: tier.to_owned(),
        vertices: graph.num_vertices() as u64,
        edges: graph.num_edges(),
        wall,
        cycles: stats.total_cycles(),
        kernels: stats.kernels,
    };
    progress(&format!(
        "tier {:6}: {:8.1} ms  ({} vertices, {} edges, {} cycles, {} kernels)",
        timing.tier,
        wall.as_secs_f64() * 1e3,
        timing.vertices,
        timing.edges,
        timing.cycles,
        timing.kernels,
    ));
    Ok(timing)
}

/// Compares a fresh measurement against a committed baseline.
///
/// Returns the list of failures (empty when the gate passes):
/// * slice throughput (cells/sec) dropped more than `threshold_pct`
///   percent;
/// * grid (shared-trace-cache sweep) throughput dropped more than
///   `threshold_pct` percent, when both reports carry a grid arm;
/// * peak RSS grew more than `threshold_pct` percent, when both
///   reports carry one — the memory gate for the sweep path;
/// * any slice cell's simulated cycle count changed — cycles are
///   deterministic, so a mismatch means simulator behavior changed and
///   `BENCH_sim.json` must be refreshed in the same change
///   (`repro bench --out BENCH_sim.json`);
/// * any tier measured by both reports drifted in cycles or kernels
///   (tiers missing from one side are skipped, so `--tier`-restricted
///   runs can still gate against a full baseline).
pub fn regression_failures(
    current: &BenchReport,
    baseline: &BenchReport,
    threshold_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let base = baseline.cells_per_sec();
    let now = current.cells_per_sec();
    if base > 0.0 && now < base * (1.0 - threshold_pct / 100.0) {
        failures.push(format!(
            "throughput regressed more than {threshold_pct}%: {now:.3} cells/sec vs baseline {base:.3}"
        ));
    }
    if let (Some(g), Some(gb)) = (&current.grid, &baseline.grid) {
        let (now, base) = (g.cells_per_sec(), gb.cells_per_sec());
        if base > 0.0 && now < base * (1.0 - threshold_pct / 100.0) {
            failures.push(format!(
                "grid throughput regressed more than {threshold_pct}%: {now:.3} cells/sec \
                 vs baseline {base:.3}"
            ));
        }
    }
    if let (Some(now), Some(base)) = (current.peak_rss_kb, baseline.peak_rss_kb) {
        if now as f64 > base as f64 * (1.0 + threshold_pct / 100.0) {
            failures.push(format!(
                "peak RSS regressed more than {threshold_pct}%: {now} KiB vs baseline {base} KiB \
                 (refresh BENCH_sim.json if intentional)"
            ));
        }
    }
    for b in &baseline.cells {
        let Some(c) = current
            .cells
            .iter()
            .find(|c| c.app == b.app && c.config == b.config)
        else {
            failures.push(format!(
                "cell {}/{} missing from the current run",
                b.app, b.config
            ));
            continue;
        };
        if c.cycles != b.cycles || c.kernels != b.kernels {
            failures.push(format!(
                "cell {}/{} changed behavior: {} cycles / {} kernels vs baseline {} / {} \
                 (refresh BENCH_sim.json if intentional)",
                b.app, b.config, c.cycles, c.kernels, b.cycles, b.kernels
            ));
        }
    }
    for b in &baseline.tiers {
        let Some(t) = current.tiers.iter().find(|t| t.tier == b.tier) else {
            continue; // `--tier`-restricted run: absent tiers are not gated
        };
        if t.cycles != b.cycles || t.kernels != b.kernels {
            failures.push(format!(
                "tier {} changed behavior: {} cycles / {} kernels vs baseline {} / {} \
                 (refresh BENCH_sim.json if intentional)",
                b.tier, t.cycles, t.kernels, b.cycles, b.kernels
            ));
        }
    }
    failures
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`);
/// `None` on platforms without procfs.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall_ms: &[(u64, u64)]) -> BenchReport {
        // (wall_ms, cycles) pairs become synthetic cells.
        BenchReport {
            scale: BENCH_SCALE,
            iters: 1,
            cells: wall_ms
                .iter()
                .enumerate()
                .map(|(i, &(ms, cycles))| CellTiming {
                    app: format!("A{i}"),
                    config: "TD0".to_owned(),
                    wall: Duration::from_millis(ms),
                    cycles,
                    kernels: 3,
                })
                .collect(),
            grid: None,
            tiers: Vec::new(),
            peak_rss_kb: Some(1024),
        }
    }

    fn full_report() -> BenchReport {
        let mut r = report(&[(100, 5000), (250, 7000)]);
        r.grid = Some(GridTiming {
            app: "PR".to_owned(),
            configs: 12,
            wall: Duration::from_millis(60),
            uncached_wall: Duration::from_millis(90),
            cache_hits: 10,
            cache_misses: 2,
        });
        r.tiers = vec![
            TierTiming {
                tier: "rmat14".to_owned(),
                vertices: 2048,
                edges: 32768,
                wall: Duration::from_millis(40),
                cycles: 900_000,
                kernels: 12,
            },
            TierTiming {
                tier: "rmat16".to_owned(),
                vertices: 8192,
                edges: 131072,
                wall: Duration::from_millis(170),
                cycles: 3_600_000,
                kernels: 12,
            },
        ];
        r
    }

    #[test]
    fn json_round_trips() {
        let r = full_report();
        let parsed = BenchReport::from_json(&r.to_json_pretty()).unwrap();
        assert_eq!(parsed.cells.len(), 2);
        assert_eq!(parsed.cells[1].cycles, 7000);
        assert_eq!(parsed.peak_rss_kb, Some(1024));
        assert!((parsed.cells_per_sec() - r.cells_per_sec()).abs() < 1e-3);
        let grid = parsed.grid.as_ref().unwrap();
        assert_eq!(grid.configs, 12);
        assert_eq!(grid.cache_hits, 10);
        assert_eq!(grid.cache_misses, 2);
        assert!((grid.cells_per_sec() - 200.0).abs() < 1e-6);
        assert!((grid.speedup() - 1.5).abs() < 1e-6);
        assert_eq!(parsed.tiers.len(), 2);
        assert_eq!(parsed.tiers[1].tier, "rmat16");
        assert_eq!(parsed.tiers[1].cycles, 3_600_000);
        assert_eq!(parsed.tiers[1].edges, 131072);
    }

    #[test]
    fn json_round_trips_without_grid_or_tiers() {
        let r = report(&[(100, 5000)]);
        let parsed = BenchReport::from_json(&r.to_json_pretty()).unwrap();
        assert_eq!(parsed.grid, None);
        assert!(parsed.tiers.is_empty());
    }

    #[test]
    fn rejects_foreign_schema() {
        assert!(BenchReport::from_json("{\"schema\": \"other\"}").is_err());
        assert!(BenchReport::from_json("{\"schema\": \"ggs-bench-v1\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn rejects_durations_out_of_range_without_panicking() {
        let text = full_report().to_json_pretty();
        for bad in ["-5.0", "1e300"] {
            // Cells, grid and tiers: `wall_ms` #0 is a cell's, #2 the
            // grid's and #3 a tier's.
            for (field, nth) in [
                ("wall_ms", 0),
                ("wall_ms", 2),
                ("uncached_wall_ms", 0),
                ("wall_ms", 3),
            ] {
                let needle = format!("\"{field}\": ");
                let at = text.match_indices(&needle).nth(nth).unwrap().0 + needle.len();
                let end = at + text[at..].find([',', '}']).unwrap();
                let mutated = format!("{}{bad}{}", &text[..at], &text[end..]);
                let err = BenchReport::from_json(&mutated).unwrap_err();
                assert!(err.contains("bad duration"), "{field}#{nth}={bad}: {err}");
            }
        }
    }

    #[test]
    fn rejects_counts_that_are_not_non_negative_integers() {
        let text = full_report().to_json_pretty();
        // One site per count field: cells, grid and tiers share
        // `cycles`/`kernels`, so #0 is a cell's and #2 a tier's.
        let sites = [
            ("cycles", 0),
            ("kernels", 0),
            ("cycles", 2),
            ("kernels", 2),
            ("vertices", 0),
            ("edges", 0),
            ("configs", 0),
            ("cache_hits", 0),
            ("cache_misses", 0),
            ("iters", 0),
        ];
        for bad in ["-1", "2.7", "1e300"] {
            for (field, nth) in sites {
                let needle = format!("\"{field}\": ");
                let at = text.match_indices(&needle).nth(nth).unwrap().0 + needle.len();
                let end = at + text[at..].find([',', '}', '\n']).unwrap();
                let mutated = format!("{}{bad}{}", &text[..at], &text[end..]);
                let err = BenchReport::from_json(&mutated).unwrap_err();
                assert!(err.contains(field), "{field}#{nth}={bad}: {err}");
            }
        }
        // `u32` fields reject a valid `u64` past their range.
        let mutated = text.replacen("\"iters\": 1,", "\"iters\": 4294967296,", 1);
        assert_ne!(mutated, text);
        let err = BenchReport::from_json(&mutated).unwrap_err();
        assert!(err.contains("exceeds u32"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Mutating a valid report's numbers or bytes yields `Ok` or
        /// `Err`, never a panic.
        #[test]
        fn from_json_never_panics_on_mutated_reports(
            number in 0usize..64,
            replacement in 0usize..8,
            edits in proptest::collection::vec((0usize..4096, 0u8..=255), 0..4),
        ) {
            let text = full_report().to_json_pretty();
            // Replace one numeric field with an out-of-range value.
            let numbers: Vec<(usize, usize)> = text
                .match_indices(": ")
                .map(|(i, _)| i + 2)
                .filter(|&at| text[at..].starts_with(|c: char| c.is_ascii_digit()))
                .map(|at| (at, at + text[at..].find([',', '\n']).unwrap()))
                .collect();
            let (at, end) = numbers[number % numbers.len()];
            let values = [
                "-5.0", "1e300", "-1e300", "0", "1e-300", "18446744073709551616", "-0.0", "3.5",
            ];
            let value = values[replacement];
            let mut bytes = format!("{}{value}{}", &text[..at], &text[end..]).into_bytes();
            for (pos, byte) in edits {
                let len = bytes.len();
                bytes[pos % len] = byte;
            }
            let mutated = String::from_utf8_lossy(&bytes);
            let _ = BenchReport::from_json(&mutated);
        }
    }

    #[test]
    fn regression_gate_passes_when_no_worse() {
        let base = report(&[(100, 5000)]);
        let same = report(&[(110, 5000)]); // 10% slower: within 25%
        assert_eq!(
            regression_failures(&same, &base, 25.0),
            Vec::<String>::new()
        );
    }

    #[test]
    fn regression_gate_fails_on_big_slowdown() {
        let base = report(&[(100, 5000)]);
        let slow = report(&[(200, 5000)]); // 2x slower
        let failures = regression_failures(&slow, &base, 25.0);
        assert!(
            failures.iter().any(|f| f.contains("throughput regressed")),
            "{failures:?}"
        );
    }

    #[test]
    fn regression_gate_fails_on_cycle_drift() {
        let base = report(&[(100, 5000)]);
        let drifted = report(&[(100, 5001)]);
        let failures = regression_failures(&drifted, &base, 25.0);
        assert!(
            failures.iter().any(|f| f.contains("changed behavior")),
            "{failures:?}"
        );
    }

    #[test]
    fn regression_gate_fails_on_rss_growth() {
        let base = report(&[(100, 5000)]);
        let mut bloated = report(&[(100, 5000)]);
        bloated.peak_rss_kb = Some(2048); // 2x the baseline's 1024
        let failures = regression_failures(&bloated, &base, 25.0);
        assert!(
            failures.iter().any(|f| f.contains("peak RSS regressed")),
            "{failures:?}"
        );
        // Shrinking (or an unmeasurable platform) never fails.
        let mut slim = report(&[(100, 5000)]);
        slim.peak_rss_kb = Some(512);
        assert!(regression_failures(&slim, &base, 25.0).is_empty());
        slim.peak_rss_kb = None;
        assert!(regression_failures(&slim, &base, 25.0).is_empty());
    }

    #[test]
    fn regression_gate_fails_on_grid_slowdown() {
        let base = full_report();
        let mut slow = full_report();
        slow.grid.as_mut().unwrap().wall = Duration::from_millis(120); // 2x
        let failures = regression_failures(&slow, &base, 25.0);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("grid throughput regressed")),
            "{failures:?}"
        );
    }

    #[test]
    fn regression_gate_fails_on_tier_drift_but_skips_absent_tiers() {
        let base = full_report();
        let mut drifted = full_report();
        drifted.tiers[1].cycles += 1;
        let failures = regression_failures(&drifted, &base, 25.0);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("tier rmat16 changed behavior")),
            "{failures:?}"
        );
        // A `--tier`-restricted run gates only the tiers it measured.
        let mut restricted = full_report();
        restricted.tiers.truncate(1);
        assert!(regression_failures(&restricted, &base, 25.0).is_empty());
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }

    #[test]
    fn slice_cells_are_supported_pairings() {
        for (app, code) in SLICE {
            let config: SystemConfig = code.parse().expect("valid code");
            assert!(
                app.supported_propagations().contains(&config.propagation),
                "{app}/{code} is not a runnable cell"
            );
        }
    }

    #[test]
    fn grid_configs_cover_the_full_static_grid() {
        let mut seen = std::collections::BTreeSet::new();
        for code in GRID_CONFIGS {
            let config: SystemConfig = code.parse().expect("valid code");
            assert!(
                GRID_APP
                    .supported_propagations()
                    .contains(&config.propagation),
                "{code} is not runnable for {GRID_APP:?}"
            );
            assert!(seen.insert(code), "duplicate grid config {code}");
        }
        assert_eq!(seen.len(), 12);
    }
}
