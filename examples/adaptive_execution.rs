//! Per-kernel adaptive hardware selection (the paper's §VIII outlook)
//! versus the static model's single choice.
//!
//! The propagation variant stays fixed (it is compiled into the
//! kernel); the coherence/consistency point is re-derived before every
//! launch from the kernel's actual footprint and warp-work imbalance,
//! then applied through the simulator's flexible-hardware hook.
//!
//! ```text
//! cargo run --release --example adaptive_execution -- SSSP EML
//! ```

use ggs_core::adaptive::run_adaptive;
use gpu_graph_spec::prelude::*;

fn main() -> Result<(), GgsError> {
    let mut args = std::env::args().skip(1);
    let app: AppKind = args.next().unwrap_or_else(|| "SSSP".into()).parse()?;
    let preset: GraphPreset = args.next().unwrap_or_else(|| "EML".into()).parse()?;
    let scale = 0.125;

    let graph = SynthConfig::preset(preset).scale(scale).generate();
    let spec = ExperimentSpec::builder().scale(scale).build()?;

    let adaptive = run_adaptive(app, &graph, &spec, Tracer::off(), None)?;
    let static_stats = run_workload(
        app,
        &graph,
        adaptive.static_config,
        &spec,
        Tracer::off(),
        None,
    )?;

    println!("{app} on {preset} (scale {scale})");
    println!(
        "static model choice: {} -> {} cycles",
        adaptive.static_config,
        static_stats.total_cycles()
    );
    println!(
        "adaptive (same propagation, per-kernel hardware) -> {} cycles",
        adaptive.stats.total_cycles()
    );
    let mut schedule = String::new();
    for hw in &adaptive.schedule {
        schedule.push_str(&hw.code());
        schedule.push(' ');
    }
    println!("per-kernel hardware schedule: {schedule}");
    let delta = 1.0 - adaptive.stats.total_cycles() as f64 / static_stats.total_cycles() as f64;
    println!("adaptation delta vs static choice: {:+.1}%", delta * 100.0);
    Ok(())
}
