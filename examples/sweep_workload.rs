//! Sweep one workload across the full design space and compare against
//! the model's prediction — one group of the paper's Figure 5, but over
//! all 12 configurations instead of the 5 shown.
//!
//! ```text
//! cargo run --release --example sweep_workload -- SSSP RAJ 0.125
//! ```

use gpu_graph_spec::prelude::*;

fn main() -> Result<(), GgsError> {
    let mut args = std::env::args().skip(1);
    let app: AppKind = args.next().unwrap_or_else(|| "SSSP".into()).parse()?;
    let preset: GraphPreset = args.next().unwrap_or_else(|| "RAJ".into()).parse()?;
    let scale: f64 = args
        .next()
        .map(|s| s.parse().unwrap_or_else(|_| die("scale must be a number")))
        .unwrap_or(0.125);

    let graph = SynthConfig::preset(preset).scale(scale).generate();
    let spec = ExperimentSpec::builder().scale(scale).build()?;
    let profile = GraphProfile::measure(&graph, &spec.metric_params());
    let predicted = predict_full(&app.algo_profile(), &profile);

    eprintln!(
        "sweeping {app} on {preset} (scale {scale}, classes {})…",
        profile.class_code()
    );
    let configs = SystemConfig::all_for(app.algo_profile().traversal);
    let sweep = WorkloadSweep::run(
        app,
        preset.mnemonic(),
        &graph,
        &configs,
        &spec,
        Tracer::off(),
    )?;

    let baseline = baseline_config(app);
    let best = sweep.best().unwrap_or_else(|| die("sweep is empty")).config;
    println!("{:>6} {:>12} {:>10}  ", "config", "cycles", "vs base");
    for (config, norm) in sweep.normalized_to(baseline)? {
        let cycles = sweep
            .result_for(config)
            .map(|r| r.stats.total_cycles())
            .unwrap_or(0);
        let mark = match config {
            c if c == best && c == predicted => "<= BEST, predicted",
            c if c == best => "<= BEST",
            c if c == predicted => "<= predicted",
            _ => "",
        };
        println!("{:>6} {cycles:>12} {norm:>9.3}  {mark}", config.code());
    }
    println!(
        "\nmodel prediction {} runs within {:.1}% of the empirical best",
        predicted.code(),
        sweep.slowdown_vs_best(predicted)? * 100.0
    );
    Ok(())
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
