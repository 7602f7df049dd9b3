//! Capture a full instrumentation trace of one workload and write it as
//! Chrome trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing`. See docs/observability.md for the event schema.
//!
//! ```text
//! cargo run --release --example trace_workload -- PR OLS SGR trace.json
//! ```

use std::io::BufWriter;

use gpu_graph_spec::prelude::*;

fn main() -> Result<(), GgsError> {
    let mut args = std::env::args().skip(1);
    let app: AppKind = args.next().unwrap_or_else(|| "PR".into()).parse()?;
    let preset: GraphPreset = args.next().unwrap_or_else(|| "OLS".into()).parse()?;
    let config: SystemConfig = args.next().unwrap_or_else(|| "SGR".into()).parse()?;
    let path = args.next().unwrap_or_else(|| "trace.json".into());
    let scale = 0.05;

    let graph = SynthConfig::preset(preset).scale(scale).generate();
    let spec = ExperimentSpec::builder().scale(scale).build()?;

    let sink = WriterSink::chrome(BufWriter::new(std::fs::File::create(&path)?));
    // Stride 500: at most one stall sample per SM per 500 cycles.
    let stats = run_workload(app, &graph, config, &spec, Tracer::new(&sink, 500), None)?;
    sink.finish()?;

    println!(
        "{app} on {preset} under {config}: {} cycles, trace written to {path}",
        stats.total_cycles()
    );
    Ok(())
}
