//! Structured observability for the GGS simulator stack.
//!
//! The paper's argument rests on *attributing* cycles — its stall taxonomy
//! and per-configuration traffic metrics explain why a coherence /
//! consistency / propagation-direction choice wins on a given workload.
//! This crate makes that attribution inspectable while a simulation runs,
//! instead of only through end-of-run aggregates:
//!
//! * [`TraceEvent`] — typed events covering kernel begin/end, per-round
//!   iteration boundaries, sampled per-SM stall-class transitions, L1/L2
//!   hit–miss–ownership counter deltas, NoC flit totals, atomic
//!   acquire/release occurrences and DeNovo ownership transfers, plus the
//!   host-side phase spans, study-cell lifecycle, result-store
//!   hits/misses/evictions/corruption, graph builds and trace-cache
//!   hits/misses/evictions. Each event renders as one JSON line or one
//!   Chrome trace-event object.
//! * [`TraceSink`] — where events go. [`NoopSink`] is the zero-cost
//!   default; [`WriterSink`] streams events to any writer, as JSON Lines
//!   ([`WriterSink::jsonl`]) or as a `chrome://tracing` /
//!   Perfetto-loadable trace-event file ([`WriterSink::chrome`]).
//! * [`Tracer`] — a `Copy` handle (`&dyn TraceSink` + sampling stride)
//!   that instrumented code threads through the stack. There is no global
//!   sink: injection is explicit, and a disabled tracer costs one boolean
//!   load per potential event.
//! * [`MetricsRegistry`] — named counters, histograms, and wall-clock
//!   phase spans that the study/sweep driver aggregates across its worker
//!   pool.
//!
//! # Example
//!
//! ```
//! use ggs_trace::{TraceEvent, TraceSink, Tracer, WriterSink};
//!
//! let sink = WriterSink::chrome(Vec::new());
//! let tracer = Tracer::new(&sink, 1000);
//! tracer.emit(&TraceEvent::KernelBegin { kernel: 0, cycle: 2000, blocks: 4, threads: 1024 });
//! tracer.emit(&TraceEvent::KernelEnd { kernel: 0, cycle: 9000 });
//! sink.finish().expect("in-memory write cannot fail");
//! let bytes = sink.into_inner();
//! assert!(String::from_utf8(bytes).unwrap().starts_with("{\"traceEvents\":["));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;
mod tracer;

pub use event::TraceEvent;
pub use metrics::{Histogram, MetricsRegistry, PhaseGuard, PhaseSpan};
pub use sink::{NoopSink, TraceSink, WriterSink, NOOP};
pub use tracer::Tracer;
