//! Typed trace events and their JSONL / Chrome-trace serializations.

use std::fmt::Write as _;

/// A structured event emitted by an instrumented component.
///
/// The simulator's events (kernel, iteration, stall, cache, NoC, sync and
/// ownership) are timed in *simulated* GPU cycles (the engine clock). The
/// host-side events are timed in host wall-clock microseconds instead
/// (`*_us` fields): [`TraceEvent::Phase`] relative to the owning
/// [`crate::MetricsRegistry`]'s creation, and the cell, store,
/// graph-build and trace-cache events relative to the start of the run
/// that emits them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A kernel launch reached the SMs (after launch overhead).
    KernelBegin {
        /// Zero-based kernel sequence number within the run.
        kernel: u64,
        /// Simulated cycle at which the kernel starts executing.
        cycle: u64,
        /// Number of thread blocks in the launch.
        blocks: u64,
        /// Number of threads in the launch.
        threads: u64,
    },
    /// A kernel finished draining.
    KernelEnd {
        /// Zero-based kernel sequence number within the run.
        kernel: u64,
        /// Simulated cycle at which the kernel (incl. drain) completed.
        cycle: u64,
    },
    /// A per-round iteration boundary (one kernel launch per round in
    /// level-synchronous graph workloads).
    Iteration {
        /// Zero-based round number (equals the kernel sequence number).
        round: u64,
        /// Simulated cycle at which the round was submitted.
        cycle: u64,
    },
    /// A sampled stall interval on one SM. Emitted at most once per
    /// sampling stride per SM, so high-frequency stalls are represented
    /// rather than enumerated.
    StallSample {
        /// SM identifier.
        sm: u32,
        /// Simulated cycle at which the stall began.
        cycle: u64,
        /// Stall class name (`Busy`/`Comp`/`Data`/`Sync`/`Idle`).
        class: &'static str,
        /// Length of the stalled interval in cycles.
        cycles: u64,
    },
    /// Per-kernel delta of the L1/L2 hit–miss–ownership counters.
    CacheCounters {
        /// Kernel the delta belongs to.
        kernel: u64,
        /// Simulated cycle at which the snapshot was taken (kernel end).
        cycle: u64,
        /// L1 load/store hits.
        l1_hits: u64,
        /// L1 load/store misses.
        l1_misses: u64,
        /// L2 hits.
        l2_hits: u64,
        /// L2 misses (memory accesses).
        l2_misses: u64,
        /// Atomics performed in L1 (DeNovo ownership hits).
        l1_atomics: u64,
        /// Atomics performed at L2.
        l2_atomics: u64,
        /// DeNovo ownership registrations at L2.
        registrations: u64,
        /// Remote-L1 ownership transfers.
        remote_transfers: u64,
        /// Lines invalidated by acquires (GPU coherence flushes).
        invalidations: u64,
    },
    /// Per-kernel NoC traffic totals.
    NocTotals {
        /// Kernel the delta belongs to.
        kernel: u64,
        /// Simulated cycle at which the snapshot was taken (kernel end).
        cycle: u64,
        /// Full cache-line payload transfers across the mesh.
        line_transfers: u64,
        /// Single-flit control messages (ownership requests/acks).
        control_messages: u64,
        /// Total flits moved (payload + header + control).
        flits: u64,
    },
    /// An atomic executed as a fence: release drain + acquire
    /// self-invalidation (DRF0 semantics).
    AcquireRelease {
        /// SM that issued the fence.
        sm: u32,
        /// Simulated cycle at which the fence issued.
        cycle: u64,
        /// Cycle up to which the SM's prior writes must drain.
        drain_to: u64,
    },
    /// A DeNovo ownership registration observed at L2 (sampled at the
    /// tracer stride).
    OwnershipTransfer {
        /// SM acquiring ownership.
        sm: u32,
        /// Simulated cycle of the registration.
        cycle: u64,
        /// Line address (byte address >> line shift).
        line: u64,
        /// Whether the line was owned by a *different* SM (remote
        /// transfer) rather than unowned / already local.
        remote: bool,
    },
    /// A host wall-clock phase span (study/sweep self-profile).
    Phase {
        /// Phase name (e.g. `generate-inputs`, `simulate`).
        name: String,
        /// Start, in microseconds since the registry was created.
        start_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A study cell (one workload × configuration point) started
    /// executing on a worker. Timestamps are host wall-clock
    /// microseconds relative to the study run's start.
    CellStart {
        /// Application mnemonic.
        app: String,
        /// Graph mnemonic.
        graph: String,
        /// Configuration code (`SGR`, `TG0`, …).
        config: String,
        /// Start, in microseconds since the study began.
        start_us: u64,
    },
    /// A study cell finished (successfully or not).
    CellFinish {
        /// Application mnemonic.
        app: String,
        /// Graph mnemonic.
        graph: String,
        /// Configuration code.
        config: String,
        /// Final status (`ok`/`failed`/`timeout`/`skipped`).
        status: &'static str,
        /// Execution attempts: 1 when the cell ran, 0 when it was
        /// answered from the result store or its consistency class.
        attempts: u32,
        /// Start, in microseconds since the study began.
        start_us: u64,
        /// Wall-clock duration of the cell, in microseconds.
        dur_us: u64,
    },
    /// A study cell was answered from the result store without
    /// simulating (warm-store reuse). Timestamps are host wall-clock
    /// microseconds relative to the study run's start.
    StoreHit {
        /// `APP/GRAPH/CONFIG` cell key.
        key: String,
        /// When the hit resolved, in microseconds since the study began.
        at_us: u64,
    },
    /// A study cell was absent from the result store, so this run will
    /// simulate it (or answer it from its consistency class) and
    /// publish it.
    StoreMiss {
        /// `APP/GRAPH/CONFIG` cell key.
        key: String,
        /// When the lookup resolved, in microseconds since the study began.
        at_us: u64,
    },
    /// Store compaction dropped superseded results and corrupt data
    /// (atomic rewrite; see `ggs_core::store`).
    StoreEvict {
        /// Superseded result records dropped.
        records: u64,
        /// Bytes reclaimed by the rewrite.
        bytes: u64,
        /// When compaction finished, in microseconds since the run began.
        at_us: u64,
    },
    /// A corrupt span was detected (and skipped) while scanning the
    /// result store: a torn, truncated, or bit-flipped record.
    StoreCorruption {
        /// Byte offset of the corrupt span in the store file.
        offset: u64,
        /// Bytes skipped before the scanner resynchronized.
        bytes: u64,
        /// When the scan observed it, in microseconds since the run began.
        at_us: u64,
    },
    /// An input graph was synthesized/loaded for a study (once per
    /// graph per study; every configuration cell shares the build via
    /// `Arc<Csr>`).
    GraphBuild {
        /// Graph mnemonic.
        graph: String,
        /// Vertex count of the built graph.
        vertices: u64,
        /// Edge count of the built graph.
        edges: u64,
        /// When the build finished, in microseconds since the run began.
        at_us: u64,
    },
    /// A workload's kernel-trace stream was served from a `TraceCache`
    /// (another cell of the same app × graph × direction already built
    /// it).
    TraceCacheHit {
        /// `APP/GRAPH/PROP/TB` stream key.
        key: String,
        /// When the lookup resolved, in microseconds since the run began.
        at_us: u64,
    },
    /// A workload's kernel-trace stream was absent from a `TraceCache`;
    /// this cell runs the functional producer and inserts the stream for
    /// its siblings.
    TraceCacheMiss {
        /// `APP/GRAPH/PROP/TB` stream key.
        key: String,
        /// When the lookup resolved, in microseconds since the run began.
        at_us: u64,
    },
    /// A `TraceCache` evicted least-recently-used streams to stay under
    /// its byte budget.
    TraceCacheEvict {
        /// Cached streams dropped.
        streams: u64,
        /// Heap bytes released.
        bytes: u64,
        /// When the eviction ran, in microseconds since the run began.
        at_us: u64,
    },
}

/// One field value, rendered as a JSON number, boolean or string.
enum Field<'a> {
    Uint(u64),
    Bool(bool),
    Str(&'a str),
}

/// What every encoding of an event is derived from.
struct Schema<'a> {
    /// JSONL `type`.
    kind: &'static str,
    category: &'static str,
    /// Timestamp key (`cycle`, `start_us` or `at_us`) and value.
    ts: (&'static str, u64),
    /// The event's own fields, in JSONL order.
    fields: Vec<(&'static str, Field<'a>)>,
}

impl TraceEvent {
    /// The one description of each variant that `kind`, `category`,
    /// `timestamp`, `jsonl` and `chrome` read.
    fn schema(&self) -> Schema<'_> {
        use Field::{Bool, Str, Uint};
        match self {
            TraceEvent::KernelBegin {
                kernel,
                cycle,
                blocks,
                threads,
            } => Schema {
                kind: "kernel_begin",
                category: "kernel",
                ts: ("cycle", *cycle),
                fields: vec![
                    ("kernel", Uint(*kernel)),
                    ("blocks", Uint(*blocks)),
                    ("threads", Uint(*threads)),
                ],
            },
            TraceEvent::KernelEnd { kernel, cycle } => Schema {
                kind: "kernel_end",
                category: "kernel",
                ts: ("cycle", *cycle),
                fields: vec![("kernel", Uint(*kernel))],
            },
            TraceEvent::Iteration { round, cycle } => Schema {
                kind: "iteration",
                category: "iter",
                ts: ("cycle", *cycle),
                fields: vec![("round", Uint(*round))],
            },
            TraceEvent::StallSample {
                sm,
                cycle,
                class,
                cycles,
            } => Schema {
                kind: "stall_sample",
                category: "stall",
                ts: ("cycle", *cycle),
                fields: vec![
                    ("sm", Uint((*sm).into())),
                    ("class", Str(class)),
                    ("cycles", Uint(*cycles)),
                ],
            },
            TraceEvent::CacheCounters {
                kernel,
                cycle,
                l1_hits,
                l1_misses,
                l2_hits,
                l2_misses,
                l1_atomics,
                l2_atomics,
                registrations,
                remote_transfers,
                invalidations,
            } => Schema {
                kind: "cache_counters",
                category: "cache",
                ts: ("cycle", *cycle),
                fields: vec![
                    ("kernel", Uint(*kernel)),
                    ("l1_hits", Uint(*l1_hits)),
                    ("l1_misses", Uint(*l1_misses)),
                    ("l2_hits", Uint(*l2_hits)),
                    ("l2_misses", Uint(*l2_misses)),
                    ("l1_atomics", Uint(*l1_atomics)),
                    ("l2_atomics", Uint(*l2_atomics)),
                    ("registrations", Uint(*registrations)),
                    ("remote_transfers", Uint(*remote_transfers)),
                    ("invalidations", Uint(*invalidations)),
                ],
            },
            TraceEvent::NocTotals {
                kernel,
                cycle,
                line_transfers,
                control_messages,
                flits,
            } => Schema {
                kind: "noc_totals",
                category: "noc",
                ts: ("cycle", *cycle),
                fields: vec![
                    ("kernel", Uint(*kernel)),
                    ("line_transfers", Uint(*line_transfers)),
                    ("control_messages", Uint(*control_messages)),
                    ("flits", Uint(*flits)),
                ],
            },
            TraceEvent::AcquireRelease {
                sm,
                cycle,
                drain_to,
            } => Schema {
                kind: "acquire_release",
                category: "sync",
                ts: ("cycle", *cycle),
                fields: vec![("sm", Uint((*sm).into())), ("drain_to", Uint(*drain_to))],
            },
            TraceEvent::OwnershipTransfer {
                sm,
                cycle,
                line,
                remote,
            } => Schema {
                kind: "ownership_transfer",
                category: "cache",
                ts: ("cycle", *cycle),
                fields: vec![
                    ("sm", Uint((*sm).into())),
                    ("line", Uint(*line)),
                    ("remote", Bool(*remote)),
                ],
            },
            TraceEvent::Phase {
                name,
                start_us,
                dur_us,
            } => Schema {
                kind: "phase",
                category: "phase",
                ts: ("start_us", *start_us),
                fields: vec![("dur_us", Uint(*dur_us)), ("name", Str(name))],
            },
            TraceEvent::CellStart {
                app,
                graph,
                config,
                start_us,
            } => Schema {
                kind: "cell_start",
                category: "cell",
                ts: ("start_us", *start_us),
                fields: vec![
                    ("app", Str(app)),
                    ("graph", Str(graph)),
                    ("config", Str(config)),
                ],
            },
            TraceEvent::CellFinish {
                app,
                graph,
                config,
                status,
                attempts,
                start_us,
                dur_us,
            } => Schema {
                kind: "cell_finish",
                category: "cell",
                ts: ("start_us", *start_us),
                fields: vec![
                    ("dur_us", Uint(*dur_us)),
                    ("app", Str(app)),
                    ("graph", Str(graph)),
                    ("config", Str(config)),
                    ("status", Str(status)),
                    ("attempts", Uint((*attempts).into())),
                ],
            },
            TraceEvent::StoreHit { key, at_us } => Schema {
                kind: "store_hit",
                category: "store",
                ts: ("at_us", *at_us),
                fields: vec![("key", Str(key))],
            },
            TraceEvent::StoreMiss { key, at_us } => Schema {
                kind: "store_miss",
                category: "store",
                ts: ("at_us", *at_us),
                fields: vec![("key", Str(key))],
            },
            TraceEvent::StoreEvict {
                records,
                bytes,
                at_us,
            } => Schema {
                kind: "store_evict",
                category: "store",
                ts: ("at_us", *at_us),
                fields: vec![("records", Uint(*records)), ("bytes", Uint(*bytes))],
            },
            TraceEvent::StoreCorruption {
                offset,
                bytes,
                at_us,
            } => Schema {
                kind: "store_corruption",
                category: "store",
                ts: ("at_us", *at_us),
                fields: vec![("offset", Uint(*offset)), ("bytes", Uint(*bytes))],
            },
            TraceEvent::GraphBuild {
                graph,
                vertices,
                edges,
                at_us,
            } => Schema {
                kind: "graph_build",
                category: "reuse",
                ts: ("at_us", *at_us),
                fields: vec![
                    ("graph", Str(graph)),
                    ("vertices", Uint(*vertices)),
                    ("edges", Uint(*edges)),
                ],
            },
            TraceEvent::TraceCacheHit { key, at_us } => Schema {
                kind: "trace_cache_hit",
                category: "reuse",
                ts: ("at_us", *at_us),
                fields: vec![("key", Str(key))],
            },
            TraceEvent::TraceCacheMiss { key, at_us } => Schema {
                kind: "trace_cache_miss",
                category: "reuse",
                ts: ("at_us", *at_us),
                fields: vec![("key", Str(key))],
            },
            TraceEvent::TraceCacheEvict {
                streams,
                bytes,
                at_us,
            } => Schema {
                kind: "trace_cache_evict",
                category: "reuse",
                ts: ("at_us", *at_us),
                fields: vec![("streams", Uint(*streams)), ("bytes", Uint(*bytes))],
            },
        }
    }

    /// How the variant appears in a Chrome trace besides its category
    /// and timestamp: name, phase, tid, optional `dur`, and how many of
    /// its last schema fields go to `args`.
    fn chrome_shape(&self) -> (String, &'static str, u64, Option<u64>, usize) {
        match self {
            TraceEvent::KernelBegin { kernel, .. } => (format!("kernel-{kernel}"), "B", 0, None, 2),
            TraceEvent::KernelEnd { kernel, .. } => (format!("kernel-{kernel}"), "E", 0, None, 0),
            TraceEvent::Iteration { round, .. } => (format!("round-{round}"), "i", 0, None, 0),
            TraceEvent::StallSample {
                sm, class, cycles, ..
            } => ((*class).into(), "X", u64::from(*sm) + 1, Some(*cycles), 0),
            TraceEvent::CacheCounters { .. } => ("cache".into(), "C", 0, None, 9),
            TraceEvent::NocTotals { .. } => ("noc".into(), "C", 0, None, 3),
            TraceEvent::AcquireRelease { sm, .. } => {
                ("acq-rel".into(), "i", u64::from(*sm) + 1, None, 1)
            }
            TraceEvent::OwnershipTransfer { sm, .. } => {
                ("ownership".into(), "i", u64::from(*sm) + 1, None, 2)
            }
            TraceEvent::Phase { name, dur_us, .. } => (name.clone(), "X", 0, Some(*dur_us), 0),
            TraceEvent::CellStart {
                app, graph, config, ..
            } => (format!("{app}/{graph}/{config}"), "i", 0, None, 0),
            TraceEvent::CellFinish {
                app,
                graph,
                config,
                dur_us,
                ..
            } => (format!("{app}/{graph}/{config}"), "X", 0, Some(*dur_us), 2),
            TraceEvent::StoreHit { key, .. } => (format!("hit {key}"), "i", 0, None, 0),
            TraceEvent::StoreMiss { key, .. } => (format!("miss {key}"), "i", 0, None, 0),
            TraceEvent::StoreEvict { .. } => ("store-evict".into(), "i", 0, None, 2),
            TraceEvent::StoreCorruption { .. } => ("store-corruption".into(), "i", 0, None, 2),
            TraceEvent::GraphBuild { graph, .. } => (format!("build {graph}"), "i", 0, None, 2),
            TraceEvent::TraceCacheHit { key, .. } => (format!("trace-hit {key}"), "i", 0, None, 0),
            TraceEvent::TraceCacheMiss { key, .. } => {
                (format!("trace-miss {key}"), "i", 0, None, 0)
            }
            TraceEvent::TraceCacheEvict { .. } => ("trace-evict".into(), "i", 0, None, 2),
        }
    }

    /// Machine-readable event kind, used as the `type` field in JSONL.
    pub fn kind(&self) -> &'static str {
        self.schema().kind
    }

    /// Event category, used as the `cat` field in both encodings.
    pub fn category(&self) -> &'static str {
        self.schema().category
    }

    /// Timestamp of the event: simulated cycle, or microseconds for
    /// the host wall-clock events (phase, cell, store, graph-build and
    /// trace-cache events).
    pub fn timestamp(&self) -> u64 {
        self.schema().ts.1
    }

    /// Serialize as one JSONL line (no trailing newline).
    ///
    /// Every line carries `type`, `cat`, and its timestamp (`cycle`,
    /// `start_us` or `at_us`) plus the event's own fields.
    pub fn jsonl(&self) -> String {
        let Schema {
            kind,
            category,
            ts: (ts_key, ts),
            fields,
        } = self.schema();
        let mut s = String::with_capacity(128);
        s.push('{');
        let head = [
            ("type", Field::Str(kind)),
            ("cat", Field::Str(category)),
            (ts_key, Field::Uint(ts)),
        ];
        push_fields(&mut s, head.into_iter().chain(fields));
        s.push('}');
        s
    }

    /// Serialize as one Chrome trace-event object (no trailing comma).
    ///
    /// The mapping targets `chrome://tracing` / Perfetto conventions:
    /// kernels are `B`/`E` duration pairs on tid 0, stall samples are
    /// complete (`X`) events on per-SM tracks (tid = SM id + 1), counter
    /// snapshots are `C` events, and point occurrences are instants
    /// (`i`), scoped globally (`"s":"g"`) on tid 0 and to their thread
    /// (`"s":"t"`) on an SM track. Timestamps (`ts`) are simulated
    /// cycles interpreted as microseconds by the viewer.
    pub fn chrome(&self) -> String {
        let Schema {
            category,
            ts: (_, ts),
            fields,
            ..
        } = self.schema();
        let (name, ph, tid, dur, args) = self.chrome_shape();
        let mut head = vec![
            ("name", Field::Str(&name)),
            ("cat", Field::Str(category)),
            ("ph", Field::Str(ph)),
            ("ts", Field::Uint(ts)),
        ];
        head.extend(dur.map(|dur| ("dur", Field::Uint(dur))));
        head.extend([("pid", Field::Uint(0)), ("tid", Field::Uint(tid))]);
        if ph == "i" {
            head.push(("s", Field::Str(if tid == 0 { "g" } else { "t" })));
        }
        let mut s = String::with_capacity(160);
        s.push('{');
        push_fields(&mut s, head);
        if args > 0 {
            let first = fields.len().saturating_sub(args);
            s.push_str(",\"args\":{");
            push_fields(&mut s, fields.into_iter().skip(first));
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// Append `"key":value` pairs to a JSON object opened in `out`, with a
/// comma before each pair unless it is the object's first.
fn push_fields<'a>(out: &mut String, fields: impl IntoIterator<Item = (&'a str, Field<'a>)>) {
    for (key, value) in fields {
        if !out.ends_with('{') {
            out.push(',');
        }
        escape(out, key);
        out.push(':');
        let _ = match value {
            Field::Uint(n) => write!(out, "{n}"),
            Field::Bool(b) => write!(out, "{b}"),
            Field::Str(s) => {
                escape(out, s);
                Ok(())
            }
        };
    }
}

/// Append `s` to `out` as a JSON string literal, quotes included.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::KernelBegin {
                kernel: 1,
                cycle: 2000,
                blocks: 4,
                threads: 1024,
            },
            TraceEvent::KernelEnd {
                kernel: 1,
                cycle: 9000,
            },
            TraceEvent::Iteration {
                round: 1,
                cycle: 1999,
            },
            TraceEvent::StallSample {
                sm: 3,
                cycle: 2500,
                class: "Data",
                cycles: 88,
            },
            TraceEvent::CacheCounters {
                kernel: 1,
                cycle: 9000,
                l1_hits: 10,
                l1_misses: 5,
                l2_hits: 4,
                l2_misses: 1,
                l1_atomics: 2,
                l2_atomics: 3,
                registrations: 6,
                remote_transfers: 1,
                invalidations: 0,
            },
            TraceEvent::NocTotals {
                kernel: 1,
                cycle: 9000,
                line_transfers: 7,
                control_messages: 12,
                flits: 47,
            },
            TraceEvent::AcquireRelease {
                sm: 0,
                cycle: 3000,
                drain_to: 3100,
            },
            TraceEvent::OwnershipTransfer {
                sm: 2,
                cycle: 2750,
                line: 42,
                remote: true,
            },
            TraceEvent::Phase {
                name: "simulate".into(),
                start_us: 10,
                dur_us: 900,
            },
            TraceEvent::CellStart {
                app: "PR".into(),
                graph: "RMAT".into(),
                config: "SGR".into(),
                start_us: 15,
            },
            TraceEvent::CellFinish {
                app: "PR".into(),
                graph: "RMAT".into(),
                config: "SGR".into(),
                status: "ok",
                attempts: 1,
                start_us: 15,
                dur_us: 420,
            },
            TraceEvent::StoreHit {
                key: "PR/RMAT/SGR".into(),
                at_us: 18,
            },
            TraceEvent::StoreMiss {
                key: "PR/RMAT/TG0".into(),
                at_us: 19,
            },
            TraceEvent::StoreEvict {
                records: 12,
                bytes: 1536,
                at_us: 950,
            },
            TraceEvent::StoreCorruption {
                offset: 16,
                bytes: 44,
                at_us: 5,
            },
            TraceEvent::GraphBuild {
                graph: "RMAT".into(),
                vertices: 16384,
                edges: 262144,
                at_us: 7,
            },
            TraceEvent::TraceCacheHit {
                key: "PR/RMAT/push/256".into(),
                at_us: 21,
            },
            TraceEvent::TraceCacheMiss {
                key: "PR/RMAT/pull/256".into(),
                at_us: 22,
            },
            TraceEvent::TraceCacheEvict {
                streams: 2,
                bytes: 4096,
                at_us: 940,
            },
        ]
    }

    /// The exact JSONL line and Chrome object of each `all_variants()`
    /// entry, in the same order.
    const PINNED: [(&str, &str); 19] = [
        (
            r#"{"type":"kernel_begin","cat":"kernel","cycle":2000,"kernel":1,"blocks":4,"threads":1024}"#,
            r#"{"name":"kernel-1","cat":"kernel","ph":"B","ts":2000,"pid":0,"tid":0,"args":{"blocks":4,"threads":1024}}"#,
        ),
        (
            r#"{"type":"kernel_end","cat":"kernel","cycle":9000,"kernel":1}"#,
            r#"{"name":"kernel-1","cat":"kernel","ph":"E","ts":9000,"pid":0,"tid":0}"#,
        ),
        (
            r#"{"type":"iteration","cat":"iter","cycle":1999,"round":1}"#,
            r#"{"name":"round-1","cat":"iter","ph":"i","ts":1999,"pid":0,"tid":0,"s":"g"}"#,
        ),
        (
            r#"{"type":"stall_sample","cat":"stall","cycle":2500,"sm":3,"class":"Data","cycles":88}"#,
            r#"{"name":"Data","cat":"stall","ph":"X","ts":2500,"dur":88,"pid":0,"tid":4}"#,
        ),
        (
            r#"{"type":"cache_counters","cat":"cache","cycle":9000,"kernel":1,"l1_hits":10,"l1_misses":5,"l2_hits":4,"l2_misses":1,"l1_atomics":2,"l2_atomics":3,"registrations":6,"remote_transfers":1,"invalidations":0}"#,
            r#"{"name":"cache","cat":"cache","ph":"C","ts":9000,"pid":0,"tid":0,"args":{"l1_hits":10,"l1_misses":5,"l2_hits":4,"l2_misses":1,"l1_atomics":2,"l2_atomics":3,"registrations":6,"remote_transfers":1,"invalidations":0}}"#,
        ),
        (
            r#"{"type":"noc_totals","cat":"noc","cycle":9000,"kernel":1,"line_transfers":7,"control_messages":12,"flits":47}"#,
            r#"{"name":"noc","cat":"noc","ph":"C","ts":9000,"pid":0,"tid":0,"args":{"line_transfers":7,"control_messages":12,"flits":47}}"#,
        ),
        (
            r#"{"type":"acquire_release","cat":"sync","cycle":3000,"sm":0,"drain_to":3100}"#,
            r#"{"name":"acq-rel","cat":"sync","ph":"i","ts":3000,"pid":0,"tid":1,"s":"t","args":{"drain_to":3100}}"#,
        ),
        (
            r#"{"type":"ownership_transfer","cat":"cache","cycle":2750,"sm":2,"line":42,"remote":true}"#,
            r#"{"name":"ownership","cat":"cache","ph":"i","ts":2750,"pid":0,"tid":3,"s":"t","args":{"line":42,"remote":true}}"#,
        ),
        (
            r#"{"type":"phase","cat":"phase","start_us":10,"dur_us":900,"name":"simulate"}"#,
            r#"{"name":"simulate","cat":"phase","ph":"X","ts":10,"dur":900,"pid":0,"tid":0}"#,
        ),
        (
            r#"{"type":"cell_start","cat":"cell","start_us":15,"app":"PR","graph":"RMAT","config":"SGR"}"#,
            r#"{"name":"PR/RMAT/SGR","cat":"cell","ph":"i","ts":15,"pid":0,"tid":0,"s":"g"}"#,
        ),
        (
            r#"{"type":"cell_finish","cat":"cell","start_us":15,"dur_us":420,"app":"PR","graph":"RMAT","config":"SGR","status":"ok","attempts":1}"#,
            r#"{"name":"PR/RMAT/SGR","cat":"cell","ph":"X","ts":15,"dur":420,"pid":0,"tid":0,"args":{"status":"ok","attempts":1}}"#,
        ),
        (
            r#"{"type":"store_hit","cat":"store","at_us":18,"key":"PR/RMAT/SGR"}"#,
            r#"{"name":"hit PR/RMAT/SGR","cat":"store","ph":"i","ts":18,"pid":0,"tid":0,"s":"g"}"#,
        ),
        (
            r#"{"type":"store_miss","cat":"store","at_us":19,"key":"PR/RMAT/TG0"}"#,
            r#"{"name":"miss PR/RMAT/TG0","cat":"store","ph":"i","ts":19,"pid":0,"tid":0,"s":"g"}"#,
        ),
        (
            r#"{"type":"store_evict","cat":"store","at_us":950,"records":12,"bytes":1536}"#,
            r#"{"name":"store-evict","cat":"store","ph":"i","ts":950,"pid":0,"tid":0,"s":"g","args":{"records":12,"bytes":1536}}"#,
        ),
        (
            r#"{"type":"store_corruption","cat":"store","at_us":5,"offset":16,"bytes":44}"#,
            r#"{"name":"store-corruption","cat":"store","ph":"i","ts":5,"pid":0,"tid":0,"s":"g","args":{"offset":16,"bytes":44}}"#,
        ),
        (
            r#"{"type":"graph_build","cat":"reuse","at_us":7,"graph":"RMAT","vertices":16384,"edges":262144}"#,
            r#"{"name":"build RMAT","cat":"reuse","ph":"i","ts":7,"pid":0,"tid":0,"s":"g","args":{"vertices":16384,"edges":262144}}"#,
        ),
        (
            r#"{"type":"trace_cache_hit","cat":"reuse","at_us":21,"key":"PR/RMAT/push/256"}"#,
            r#"{"name":"trace-hit PR/RMAT/push/256","cat":"reuse","ph":"i","ts":21,"pid":0,"tid":0,"s":"g"}"#,
        ),
        (
            r#"{"type":"trace_cache_miss","cat":"reuse","at_us":22,"key":"PR/RMAT/pull/256"}"#,
            r#"{"name":"trace-miss PR/RMAT/pull/256","cat":"reuse","ph":"i","ts":22,"pid":0,"tid":0,"s":"g"}"#,
        ),
        (
            r#"{"type":"trace_cache_evict","cat":"reuse","at_us":940,"streams":2,"bytes":4096}"#,
            r#"{"name":"trace-evict","cat":"reuse","ph":"i","ts":940,"pid":0,"tid":0,"s":"g","args":{"streams":2,"bytes":4096}}"#,
        ),
    ];

    #[test]
    fn every_variant_encodes_to_its_pinned_bytes() {
        let events = all_variants();
        assert_eq!(events.len(), PINNED.len());
        for (ev, (jsonl, chrome)) in events.iter().zip(PINNED) {
            assert_eq!(ev.jsonl(), jsonl, "{}", ev.kind());
            assert_eq!(ev.chrome(), chrome, "{}", ev.kind());
        }
    }

    #[test]
    fn quotes_backslashes_and_control_characters_are_escaped() {
        let nasty = "q\"b\\s\nc\u{1}e";
        let phase = TraceEvent::Phase {
            name: nasty.into(),
            start_us: 3,
            dur_us: 4,
        };
        assert_eq!(
            phase.jsonl(),
            r#"{"type":"phase","cat":"phase","start_us":3,"dur_us":4,"name":"q\"b\\s\nc\u0001e"}"#
        );
        assert_eq!(
            phase.chrome(),
            r#"{"name":"q\"b\\s\nc\u0001e","cat":"phase","ph":"X","ts":3,"dur":4,"pid":0,"tid":0}"#
        );
        let hit = TraceEvent::StoreHit {
            key: nasty.into(),
            at_us: 5,
        };
        assert_eq!(
            hit.jsonl(),
            r#"{"type":"store_hit","cat":"store","at_us":5,"key":"q\"b\\s\nc\u0001e"}"#
        );
        assert_eq!(
            hit.chrome(),
            r#"{"name":"hit q\"b\\s\nc\u0001e","cat":"store","ph":"i","ts":5,"pid":0,"tid":0,"s":"g"}"#
        );
    }

    #[test]
    fn jsonl_lines_are_self_describing() {
        for ev in all_variants() {
            let line = ev.jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(
                line.contains(&format!("\"type\":\"{}\"", ev.kind())),
                "{line}"
            );
            assert!(
                line.contains(&format!("\"cat\":\"{}\"", ev.category())),
                "{line}"
            );
        }
    }

    #[test]
    fn chrome_objects_carry_phase_and_timestamp() {
        for ev in all_variants() {
            let obj = ev.chrome();
            assert!(obj.contains("\"ph\":\""), "{obj}");
            assert!(obj.contains(&format!("\"ts\":{}", ev.timestamp())), "{obj}");
            assert!(obj.contains("\"pid\":0"), "{obj}");
        }
    }

    #[test]
    fn categories_cover_the_acceptance_set() {
        let cats: std::collections::BTreeSet<&str> =
            all_variants().iter().map(|e| e.category()).collect();
        for needed in ["kernel", "stall", "cache", "noc"] {
            assert!(cats.contains(needed), "missing category {needed}");
        }
    }
}
