//! GSI-style per-data-structure attribution: which arrays a workload's
//! memory accesses and latency actually go to, under each configuration.
//! (The paper's stall methodology builds on the GPU Stall Inspector of
//! Alsop et al., ISPASS 2016 — this is the data-structure view.)
//!
//! ```text
//! cargo run --release --example region_profile -- PR EML SGR
//! ```

use gpu_graph_spec::prelude::*;

fn main() -> Result<(), GgsError> {
    let mut args = std::env::args().skip(1);
    let app: AppKind = args.next().unwrap_or_else(|| "PR".into()).parse()?;
    let preset: GraphPreset = args.next().unwrap_or_else(|| "EML".into()).parse()?;
    let config: SystemConfig = args.next().unwrap_or_else(|| "SGR".into()).parse()?;
    let scale = 0.125;

    let graph = SynthConfig::preset(preset).scale(scale).generate();
    let spec = ExperimentSpec::builder().scale(scale).build()?;
    let (stats, regions) = run_workload_profiled(app, &graph, config, &spec, Tracer::off(), None)?;

    println!(
        "{app} on {preset} under {config}: {} cycles total",
        stats.total_cycles()
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "array", "loads", "stores", "atomics", "L1 hit%", "avg lat"
    );
    for (name, s) in &regions {
        if s.accesses() == 0 {
            continue;
        }
        let hit = if s.loads > 0 {
            100.0 * s.l1_hits as f64 / s.loads as f64
        } else {
            0.0
        };
        println!(
            "{name:>10} {:>10} {:>10} {:>10} {hit:>8.1} {:>9.1}",
            s.loads,
            s.stores,
            s.atomics,
            s.avg_latency()
        );
    }
    Ok(())
}
