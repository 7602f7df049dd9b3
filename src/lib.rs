//! Umbrella crate re-exporting the GGS workspace.
//!
//! Most code should `use gpu_graph_spec::prelude::*;` and work with the
//! types re-exported there; the per-crate modules remain available for
//! everything else.

#![forbid(unsafe_code)]

pub use ggs_apps as apps;
pub use ggs_core as core;
pub use ggs_graph as graph;
pub use ggs_model as model;
pub use ggs_sim as sim;
pub use ggs_trace as trace;

/// One-stop imports for the common experiment workflow.
///
/// # Example
///
/// ```
/// use gpu_graph_spec::prelude::*;
///
/// let graph = GraphBuilder::new(512)
///     .edges((0..511).map(|i| (i, i + 1)))
///     .symmetric(true)
///     .build()?;
/// let spec = ExperimentSpec::builder().scale(0.05).build()?;
/// let config: SystemConfig = "SGR".parse()?;
/// let stats = run_workload(AppKind::Pr, &graph, config, &spec, Tracer::off(), None)?;
/// assert!(stats.total_cycles() > 0);
/// # Ok::<(), GgsError>(())
/// ```
pub mod prelude {
    pub use ggs_apps::{AppKind, Workload};
    pub use ggs_core::error::GgsError;
    pub use ggs_core::experiment::{
        run_workload, run_workload_profiled, ExperimentSpec, ExperimentSpecBuilder,
    };
    pub use ggs_core::runner::{run_study, StudyOptions};
    pub use ggs_core::study::{ConfigSet, Study, WorkloadReport};
    pub use ggs_core::sweep::{baseline_config, figure5_configs};
    pub use ggs_graph::synth::{GraphPreset, SynthConfig};
    pub use ggs_graph::{Csr, GraphBuilder, GraphError};
    pub use ggs_model::{predict_full, predict_partial, GraphProfile, SystemConfig};
    pub use ggs_sim::{
        ExecStats, HwConfig, Simulation, SimulationBuilder, StallClass, SystemParams,
    };
    pub use ggs_trace::{MetricsRegistry, NoopSink, TraceEvent, TraceSink, Tracer, WriterSink};
}
