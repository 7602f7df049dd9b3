//! The `Copy` handle that instrumented code threads through the stack.

use crate::event::TraceEvent;
use crate::sink::{TraceSink, NOOP};

/// A borrowed trace sink plus sampling configuration.
///
/// `Tracer` is `Copy` (a fat pointer and two words), so the engine can
/// hand one to every SM and the memory system without lifetime
/// gymnastics. The `enabled` answer is cached at construction: with a
/// [`crate::NoopSink`] the per-event cost in instrumented code is a
/// single boolean load, keeping the uninstrumented hot path within noise.
#[derive(Clone, Copy)]
pub struct Tracer<'t> {
    sink: &'t dyn TraceSink,
    stride: u64,
    on: bool,
}

impl<'t> Tracer<'t> {
    /// Attach to a sink with the given sampling stride (in simulated
    /// cycles) for high-frequency events. A stride of 0 is treated as 1
    /// (sample every window).
    pub fn new(sink: &'t dyn TraceSink, stride: u64) -> Self {
        Self {
            sink,
            stride: stride.max(1),
            on: sink.enabled(),
        }
    }

    /// The disabled tracer: borrows the shared [`NOOP`] sink.
    pub const fn off() -> Tracer<'static> {
        Tracer {
            sink: &NOOP,
            stride: 1,
            on: false,
        }
    }

    /// Whether events will be recorded. Instrumented code should guard
    /// event *construction* with this.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Sampling stride in cycles for high-frequency event classes
    /// (stall samples, ownership transfers). Always ≥ 1.
    #[inline]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, event: &TraceEvent) {
        if self.on {
            self.sink.emit(event);
        }
    }
}

impl std::fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.on)
            .field("stride", &self.stride)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::WriterSink;

    #[test]
    fn off_tracer_is_disabled_and_emits_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        t.emit(&TraceEvent::KernelEnd {
            kernel: 0,
            cycle: 1,
        });
    }

    #[test]
    fn tracer_forwards_to_sink() {
        let sink = WriterSink::jsonl(Vec::new());
        let t = Tracer::new(&sink, 0);
        assert!(t.enabled());
        assert_eq!(t.stride(), 1, "stride 0 clamps to 1");
        t.emit(&TraceEvent::KernelEnd {
            kernel: 0,
            cycle: 1,
        });
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn tracer_is_copy_and_coerces_lifetimes() {
        let sink = WriterSink::jsonl(Vec::new());
        let t = Tracer::new(&sink, 500);
        let t2 = t; // Copy
        t.emit(&TraceEvent::Iteration { round: 0, cycle: 0 });
        t2.emit(&TraceEvent::Iteration { round: 1, cycle: 0 });
        assert_eq!(sink.len(), 2);
    }
}
