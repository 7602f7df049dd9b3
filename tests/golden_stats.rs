//! Golden-file test pinning the full `ExecStats` of one simulated cell
//! per (direction x coherence x consistency) combination.
//!
//! The memory-hierarchy hot path is performance-tuned under a
//! bit-identical-stats contract: any refactor of `ggs-sim`'s caches,
//! ownership tracking, or queues must leave every counter and cycle
//! count in this file unchanged. A diff here means simulated *behavior*
//! changed, which must be a deliberate, reviewed act — regenerate with
//!
//! ```text
//! GGS_REGEN_GOLDEN=1 cargo test --test golden_stats
//! ```
//!
//! and explain the change in the commit. The workload is fully
//! deterministic: fixed synthetic-graph seed, fixed scale, and a
//! simulator with no randomness.

use std::fmt::Write as _;

use gpu_graph_spec::prelude::*;

const SCALE: f64 = 0.05;

/// PR is a static app (Pull `T*` / Push `S*` directions); CC is the
/// dynamic app covering PushPull (`D*`). Together the first 18 cells
/// span every paper-grid (direction, coherence, consistency)
/// combination. The `H*` cells pin the frontier-adaptive hybrid
/// extension for both frontier apps: the realized per-kernel push/pull
/// schedule is a pure function of the graph, so these are as
/// deterministic as the static cells.
const CELLS: [(AppKind, &str); 26] = [
    (AppKind::Pr, "TG0"),
    (AppKind::Pr, "TG1"),
    (AppKind::Pr, "TGR"),
    (AppKind::Pr, "TD0"),
    (AppKind::Pr, "TD1"),
    (AppKind::Pr, "TDR"),
    (AppKind::Pr, "SG0"),
    (AppKind::Pr, "SG1"),
    (AppKind::Pr, "SGR"),
    (AppKind::Pr, "SD0"),
    (AppKind::Pr, "SD1"),
    (AppKind::Pr, "SDR"),
    (AppKind::Cc, "DG0"),
    (AppKind::Cc, "DG1"),
    (AppKind::Cc, "DGR"),
    (AppKind::Cc, "DD0"),
    (AppKind::Cc, "DD1"),
    (AppKind::Cc, "DDR"),
    (AppKind::Bfs, "HG1"),
    (AppKind::Bfs, "HGR"),
    (AppKind::Bfs, "HD1"),
    (AppKind::Bfs, "HDR"),
    (AppKind::Sssp, "HG1"),
    (AppKind::Sssp, "HGR"),
    (AppKind::Sssp, "HD1"),
    (AppKind::Sssp, "HDR"),
];

fn render_cell(app: AppKind, code: &str, s: &ExecStats) -> String {
    let mut out = String::new();
    writeln!(out, "{app} {code}").unwrap();
    writeln!(
        out,
        "  total_cycles={} kernels={}",
        s.total_cycles, s.kernels
    )
    .unwrap();
    writeln!(out, "  breakdown: {}", s.breakdown).unwrap();
    let m = &s.mem;
    writeln!(
        out,
        "  l1: hits={} misses={} atomics={}",
        m.l1_hits, m.l1_misses, m.l1_atomics
    )
    .unwrap();
    writeln!(
        out,
        "  l2: hits={} misses={} atomics={}",
        m.l2_hits, m.l2_misses, m.l2_atomics
    )
    .unwrap();
    writeln!(
        out,
        "  ownership: registrations={} remote_transfers={}",
        m.registrations, m.remote_transfers
    )
    .unwrap();
    writeln!(
        out,
        "  writes: write_throughs={} invalidations={}",
        m.write_throughs, m.invalidations
    )
    .unwrap();
    writeln!(
        out,
        "  stalls: mshr={} store_buffer={}",
        m.mshr_stalls, m.store_buffer_stalls
    )
    .unwrap();
    writeln!(
        out,
        "  noc: line_transfers={} control_messages={}",
        m.noc_line_transfers, m.noc_control_messages
    )
    .unwrap();
    out
}

fn render_all() -> String {
    let graph = SynthConfig::preset(GraphPreset::Ols)
        .scale(SCALE)
        .generate();
    let spec = ExperimentSpec::builder().scale(SCALE).build().unwrap();
    let mut out =
        String::from("# Golden ExecStats (OLS preset, scale 0.05) — ggs-sim behavior pin\n");
    for (app, code) in CELLS {
        let config: SystemConfig = code.parse().unwrap();
        let stats = run_workload(app, &graph, config, &spec, Tracer::off(), None).unwrap();
        out.push_str(&render_cell(app, code, &stats));
    }
    out
}

#[test]
fn exec_stats_match_golden_file() {
    let rendered = render_all();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_stats.txt");
    if std::env::var_os("GGS_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert_eq!(
        rendered, golden,
        "simulated ExecStats drifted from tests/golden/sim_stats.txt.\n\
         If (and only if) a behavior change was intended, regenerate with\n\
         GGS_REGEN_GOLDEN=1 cargo test --test golden_stats"
    );
}
