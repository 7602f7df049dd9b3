//! Quickstart: build a graph, let the specialization model pick a
//! system configuration, and simulate the workload end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpu_graph_spec::prelude::*;

fn main() -> Result<(), GgsError> {
    // 1. Build an input graph (here: a ring plus random chords — any
    //    directed symmetric graph works; see `ggs_graph::synth` for
    //    stand-ins of the paper's SuiteSparse inputs and
    //    `ggs_graph::mtx` to load Matrix Market files).
    let n = 4096u32;
    let graph = GraphBuilder::new(n)
        .edges((0..n).map(|i| (i, (i + 1) % n)))
        .edges(
            (0..n)
                .map(|i| (i, (i * 131 + 7) % n))
                .filter(|&(a, b)| a != b),
        )
        .symmetric(true)
        .build()?;
    println!(
        "graph: {} vertices, {} directed edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Measure its structural profile (volume / reuse / imbalance) and
    //    ask the paper's decision tree for the best configuration.
    let spec = ExperimentSpec::builder().scale(0.05).build()?;
    let profile = GraphProfile::measure(&graph, &spec.metric_params());
    println!(
        "profile: volume {:.1} KB ({}), reuse {:.3} ({}), imbalance {:.3} ({})",
        profile.volume_kb,
        profile.volume.letter(),
        profile.reuse,
        profile.reuse_class.letter(),
        profile.imbalance,
        profile.imbalance_class.letter(),
    );

    let app = AppKind::Pr;
    let config = predict_full(&app.algo_profile(), &profile);
    println!("model recommends {config} for {app}");

    // 3. Simulate the workload under that configuration.
    let stats = run_workload(app, &graph, config, &spec, Tracer::off(), None)?;
    println!(
        "simulated {} kernels in {} GPU cycles",
        stats.kernels,
        stats.total_cycles()
    );
    for (class, frac) in stats.stall_fractions() {
        println!("  {class:>4}: {:5.1}%", frac * 100.0);
    }
    Ok(())
}
