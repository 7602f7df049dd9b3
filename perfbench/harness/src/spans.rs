//! Span recording for the traced run.
//!
//! The harness opens one span around each call it makes into a layer:
//! name, start, end, the span that caused it, and the worker that ran it.
//! Spans stay in memory until the run ends and are then written out as
//! JSON Lines. A layer's self time is its span's duration minus the time
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.call` name, e.g. `sim.run`.
    pub name: &'static str,
    /// Worker thread index (0 for set-up work).
    pub worker: usize,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every worker of a traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent nested spans.
    pub fn record<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        worker: usize,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking worker")
            .push(Span {
                id,
                parent,
                name,
                worker,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking worker")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.worker, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when `recorder` is set, and plainly otherwise.
/// `f` receives the span id to parent nested calls (`None` untraced).
pub fn traced<T>(
    recorder: Option<&Recorder>,
    name: &'static str,
    parent: Option<u64>,
    worker: usize,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match recorder {
        Some(r) => r.record(name, parent, worker, |id| f(Some(id))),
        None => f(None),
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus direct children's durations).
    pub self_ns: u64,
}

/// Per-name totals over `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}
