//! Named counters, histograms, and wall-clock phase spans.

use crate::sink::TraceSink;
use crate::TraceEvent;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Summary statistics for an observed value stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// Record one value.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean of the observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A completed wall-clock phase, relative to the owning registry's
/// creation instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: String,
    /// Start offset in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<PhaseSpan>,
}

/// Thread-safe registry of named counters, histograms, and phase spans.
///
/// The study driver gives each worker thread its own registry and
/// [`MetricsRegistry::merge`]s them into a shared one when the pool
/// drains, so workers never contend on a lock in their inner loop.
pub struct MetricsRegistry {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Create an empty registry; phase spans are measured relative to
    /// this instant.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `by` to the named counter (created at 0 on first use).
    pub fn add(&self, name: &str, by: u64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Record one observation in the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Snapshot of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.lock()
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Snapshot of all completed phase spans, in completion order.
    pub fn spans(&self) -> Vec<PhaseSpan> {
        self.lock().spans.clone()
    }

    /// Start a named wall-clock phase; the span is recorded (and an
    /// `<name>_us` histogram observation made) when the guard drops.
    pub fn phase(&self, name: &str) -> PhaseGuard<'_> {
        PhaseGuard {
            registry: self,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Fold another registry into this one. Counters add, histograms
    /// merge, and phase spans are rebased onto this registry's origin.
    pub fn merge(&self, other: &MetricsRegistry) {
        let offset_us = other
            .origin
            .checked_duration_since(self.origin)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let theirs = other.lock();
        let mut ours = self.lock();
        for (k, v) in &theirs.counters {
            *ours.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &theirs.histograms {
            ours.histograms.entry(k.clone()).or_default().merge(h);
        }
        for span in &theirs.spans {
            ours.spans.push(PhaseSpan {
                name: span.name.clone(),
                start_us: span.start_us + offset_us,
                dur_us: span.dur_us,
            });
        }
    }

    /// Emit every completed phase span to a sink as
    /// [`TraceEvent::Phase`] events (a self-profile of the driver).
    pub fn emit_phases(&self, sink: &dyn TraceSink) {
        for span in self.spans() {
            sink.emit(&TraceEvent::Phase {
                name: span.name,
                start_us: span.start_us,
                dur_us: span.dur_us,
            });
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .field("spans", &inner.spans.len())
            .finish()
    }
}

/// Drop guard returned by [`MetricsRegistry::phase`].
pub struct PhaseGuard<'a> {
    registry: &'a MetricsRegistry,
    name: String,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let start_us = self
            .start
            .checked_duration_since(self.registry.origin)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let dur_us = self.start.elapsed().as_micros() as u64;
        let mut inner = self.registry.lock();
        inner.spans.push(PhaseSpan {
            name: self.name.clone(),
            start_us,
            dur_us,
        });
        inner
            .histograms
            .entry(format!("{}_us", self.name))
            .or_default()
            .observe(dur_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::WriterSink;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.add("jobs", 2);
        reg.add("jobs", 3);
        assert_eq!(reg.counter("jobs"), 5);
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.counters(), vec![("jobs".to_string(), 5)]);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::default();
        h.observe(10);
        h.observe(2);
        h.observe(6);
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 18, 2, 10));
        assert!((h.mean() - 6.0).abs() < 1e-12);

        let mut other = Histogram::default();
        other.observe(100);
        h.merge(&other);
        assert_eq!((h.count, h.max), (4, 100));
        let empty = Histogram::default();
        h.merge(&empty);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn phase_guard_records_span_and_histogram() {
        let reg = MetricsRegistry::new();
        {
            let _g = reg.phase("simulate");
        }
        let spans = reg.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "simulate");
        let hists = reg.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "simulate_us");
        assert_eq!(hists[0].1.count, 1);
    }

    #[test]
    fn merge_combines_worker_registries() {
        let shared = MetricsRegistry::new();
        let worker = MetricsRegistry::new();
        worker.add("workloads", 4);
        worker.observe("cycles", 1000);
        {
            let _g = worker.phase("job");
        }
        shared.add("workloads", 1);
        shared.merge(&worker);
        assert_eq!(shared.counter("workloads"), 5);
        let hists = shared.histograms();
        assert!(hists.iter().any(|(k, h)| k == "cycles" && h.count == 1));
        assert_eq!(shared.spans().len(), 1);
    }

    #[test]
    fn emit_phases_writes_phase_events() {
        let reg = MetricsRegistry::new();
        {
            let _g = reg.phase("generate-inputs");
        }
        let sink = WriterSink::jsonl(Vec::new());
        reg.emit_phases(&sink);
        assert_eq!(sink.len(), 1);
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert!(text.contains("\"type\":\"phase\""));
        assert!(text.contains("generate-inputs"));
    }
}
