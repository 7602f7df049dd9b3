//! Sweep one workload across the full design space and compare against
//! the model's prediction — one group of the paper's Figure 5, but over
//! all 12 configurations instead of the 5 shown.
//!
//! ```text
//! cargo run --release --example sweep_workload -- SSSP RAJ 0.125
//! ```

use gpu_graph_spec::core::experiment::{produce_stream, run_stream_budgeted};
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
    // Configurations come grouped by propagation, and the kernel stream
    // depends on nothing else: build it once per group.
    let configs = SystemConfig::all_for(app.algo_profile().traversal);
    let mut results = Vec::with_capacity(configs.len());
    let mut stream = (None, Vec::new());
    for config in configs {
        let prop = config.propagation;
        if stream.0 != Some(prop) {
            stream = (Some(prop), produce_stream(app, &graph, prop, &spec.params)?);
        }
        let stats = run_stream_budgeted(&stream.1, app, config, &spec, Tracer::off(), None)?;
        results.push((config, stats.total_cycles()));
    }
    let cycles_of = |config: SystemConfig| {
        results
            .iter()
            .find(|&&(c, _)| c == config)
            .map(|&(_, cycles)| cycles as f64)
            .unwrap_or_else(|| die(&format!("{config} was not swept")))
    };

    let base = cycles_of(baseline_config(app));
    let (best, best_cycles) = results
        .iter()
        .copied()
        .min_by_key(|&(_, cycles)| cycles)
        .unwrap_or_else(|| die("sweep is empty"));
    println!("{:>6} {:>12} {:>10}  ", "config", "cycles", "vs base");
    for &(config, cycles) in &results {
        let norm = cycles as f64 / base;
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
        (cycles_of(predicted) / best_cycles as f64 - 1.0) * 100.0
    );
    Ok(())
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
