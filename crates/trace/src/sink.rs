//! Trace sinks: where events go.

use crate::event::TraceEvent;
use std::io::{self, Write};
use std::sync::Mutex;

/// A destination for trace events.
///
/// Sinks take `&self` and must be [`Sync`]: one sink may be shared by the
/// engine, every SM, and the memory system of a simulation, and study
/// workers may share a sink across threads. File-backed sinks use
/// interior mutability (a [`Mutex`] around the writer).
pub trait TraceSink: Sync {
    /// Whether this sink wants events at all. Instrumented code caches
    /// this once per simulation, so a `false` here reduces the hot path
    /// to a single boolean test per potential event.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Implementations must not panic on I/O errors;
    /// they latch the error for [`TraceSink::finish`] to report.
    fn emit(&self, event: &TraceEvent);

    /// Flush buffered output and close any container syntax, reporting
    /// the first latched I/O error. Idempotent; also invoked on drop for
    /// the file-backed sinks (where the error is then discarded).
    fn finish(&self) -> io::Result<()> {
        Ok(())
    }
}

/// The zero-cost sink: reports `enabled() == false` and drops events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &TraceEvent) {}
}

/// A shared no-op sink; [`crate::Tracer::off`] borrows this.
pub static NOOP: NoopSink = NoopSink;

/// Writer state of a [`WriterSink`].
struct WriterState<W> {
    writer: W,
    /// First I/O error observed, reported by `finish`.
    error: Option<io::Error>,
    /// Events written so far (drives comma placement in Chrome traces).
    count: u64,
    finished: bool,
}

impl<W: Write> WriterState<W> {
    fn write(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.writer.write_all(bytes) {
            self.error = Some(e);
        }
    }
}

/// The encoding a [`WriterSink`] writes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// One JSON object per line.
    Jsonl,
    /// A `{"traceEvents":[ ... ]}` document.
    Chrome,
}

/// Writes events to an [`io::Write`] as JSON Lines ([`WriterSink::jsonl`])
/// or as a Chrome trace-event file ([`WriterSink::chrome`]).
///
/// Events are streamed as they arrive; consider a `BufWriter` for file
/// targets. Call [`TraceSink::finish`] to close the document (the
/// Chrome footer), flush, and observe the first I/O error; drop also
/// finishes, but swallows the error. Events emitted after `finish` are
/// dropped, as are events after a failed write.
pub struct WriterSink<W: Write + Send> {
    format: Format,
    /// `Option` so `into_inner` can take the writer while the sink still
    /// has a `Drop` impl; `None` means the writer was moved out.
    state: Mutex<Option<WriterState<W>>>,
}

impl<W: Write + Send> WriterSink<W> {
    /// A sink writing one JSON object per line (JSON Lines). The schema
    /// is documented in `docs/observability.md`; every line has `type`
    /// and `cat` discriminators plus the event's own fields.
    pub fn jsonl(writer: W) -> Self {
        Self::new(Format::Jsonl, writer)
    }

    /// A sink writing a Chrome trace-event file, loadable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>. The header is
    /// written here; [`TraceSink::finish`] writes the closing bracket.
    pub fn chrome(writer: W) -> Self {
        Self::new(Format::Chrome, writer)
    }

    fn new(format: Format, writer: W) -> Self {
        let mut st = WriterState {
            writer,
            error: None,
            count: 0,
            finished: false,
        };
        if format == Format::Chrome {
            st.write(b"{\"traceEvents\":[");
        }
        Self {
            format,
            state: Mutex::new(Some(st)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<WriterState<W>>> {
        // A panic while holding the lock can only leave behind a partially
        // written event; the stream stays usable, so ignore poisoning.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of events written so far.
    pub fn len(&self) -> u64 {
        self.lock().as_ref().map_or(0, |st| st.count)
    }

    /// Whether no events have been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the sink and return the inner writer. Call
    /// [`TraceSink::finish`] first if a Chrome footer must be present.
    pub fn into_inner(self) -> W {
        self.lock()
            .take()
            .expect("writer present until into_inner")
            .writer
    }
}

impl<W: Write + Send> TraceSink for WriterSink<W> {
    fn emit(&self, event: &TraceEvent) {
        let mut guard = self.lock();
        // After `finish`, or once the writer has failed (the stream is
        // dead and `finish` reports the error), drop the event without
        // paying for its serialization.
        let Some(st) = guard
            .as_mut()
            .filter(|st| !st.finished && st.error.is_none())
        else {
            return;
        };
        let encoded = match self.format {
            Format::Jsonl => event.jsonl() + "\n",
            Format::Chrome => event.chrome(),
        };
        if self.format == Format::Chrome && st.count > 0 {
            st.write(b",\n");
        }
        st.write(encoded.as_bytes());
        if st.error.is_none() {
            st.count += 1;
        }
    }

    fn finish(&self) -> io::Result<()> {
        let mut guard = self.lock();
        let Some(st) = guard.as_mut() else {
            return Ok(());
        };
        if !st.finished {
            st.finished = true;
            if self.format == Format::Chrome {
                st.write(b"]}\n");
            }
        }
        match st.error.take() {
            Some(e) => Err(e),
            None => st.writer.flush(),
        }
    }
}

impl<W: Write + Send> Drop for WriterSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn sample() -> TraceEvent {
        TraceEvent::KernelEnd {
            kernel: 0,
            cycle: 10,
        }
    }

    type Make<W> = fn(W) -> WriterSink<W>;

    /// Each format's constructor and the exact bytes it writes for zero,
    /// one and two `sample()` events; every case below runs over both.
    fn formats<W: Write + Send>() -> [(Make<W>, [String; 3]); 2] {
        let (line, obj) = (sample().jsonl(), sample().chrome());
        [
            (
                WriterSink::jsonl,
                [
                    String::new(),
                    format!("{line}\n"),
                    format!("{line}\n{line}\n"),
                ],
            ),
            (
                WriterSink::chrome,
                [
                    "{\"traceEvents\":[]}\n".to_owned(),
                    format!("{{\"traceEvents\":[{obj}]}}\n"),
                    format!("{{\"traceEvents\":[{obj},\n{obj}]}}\n"),
                ],
            ),
        ]
    }

    /// A writer that fails every write once `broken` is set.
    struct Breakable(Arc<AtomicBool>);
    impl Write for Breakable {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0.load(Ordering::Relaxed) {
                return Err(io::Error::other("disk full"));
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        NoopSink.emit(&sample());
        assert!(NoopSink.finish().is_ok());
    }

    #[test]
    fn writes_each_event_in_its_format_and_an_empty_trace_is_valid() {
        for (make, expected) in formats() {
            for (n, want) in expected.iter().enumerate() {
                let sink = make(Vec::new());
                for _ in 0..n {
                    sink.emit(&sample());
                }
                assert_eq!(sink.len(), n as u64);
                sink.finish().expect("vec write");
                let text = String::from_utf8(sink.into_inner()).expect("utf8");
                assert_eq!(&text, want);
            }
        }
    }

    #[test]
    fn events_after_finish_are_dropped_and_finish_is_idempotent() {
        for (make, [_, one, _]) in formats() {
            let sink = make(Vec::new());
            sink.emit(&sample());
            sink.finish().expect("vec write");
            sink.emit(&sample());
            sink.finish().expect("vec write");
            assert_eq!(sink.len(), 1);
            assert_eq!(String::from_utf8(sink.into_inner()).expect("utf8"), one);
        }
    }

    #[test]
    fn first_io_error_is_reported_once_and_stops_the_count() {
        for (make, _) in formats() {
            let broken = Arc::new(AtomicBool::new(false));
            let sink = make(Breakable(Arc::clone(&broken)));
            sink.emit(&sample());
            broken.store(true, Ordering::Relaxed);
            // Neither emit panics; the first failure is latched and later
            // events are dropped without being serialized or counted.
            sink.emit(&sample());
            sink.emit(&sample());
            assert_eq!(sink.len(), 1, "events from the failure on are not counted");
            let err = sink.finish().expect_err("writer fails");
            assert_eq!(err.to_string(), "disk full");
            assert!(sink.finish().is_ok(), "error reported exactly once");
        }
    }
}
