//! Print the Figure 5 stall breakdown (Busy / Comp / Data / Sync /
//! Idle) for one workload across the Figure 5 configuration set —
//! useful for seeing *why* a configuration wins, not just that it does.
//!
//! ```text
//! cargo run --release --example stall_breakdown -- CC AMZ
//! ```

use gpu_graph_spec::prelude::*;

fn main() -> Result<(), GgsError> {
    let mut args = std::env::args().skip(1);
    let app: AppKind = args.next().unwrap_or_else(|| "CC".into()).parse()?;
    let preset: GraphPreset = args.next().unwrap_or_else(|| "AMZ".into()).parse()?;
    let scale = 0.125;

    let graph = SynthConfig::preset(preset).scale(scale).generate();
    let spec = ExperimentSpec::builder().scale(scale).build()?;

    println!("{app} on {preset} (scale {scale})");
    println!(
        "{:>6} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "config", "cycles", "busy%", "comp%", "data%", "sync%", "idle%"
    );
    for config in figure5_configs(app) {
        let stats = run_workload(app, &graph, config, &spec, Tracer::off(), None)?;
        let f = stats.stall_fractions();
        println!(
            "{:>6} {:>10} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            config.code(),
            stats.total_cycles(),
            f[0].1 * 100.0,
            f[1].1 * 100.0,
            f[2].1 * 100.0,
            f[3].1 * 100.0,
            f[4].1 * 100.0,
        );
    }
    Ok(())
}
