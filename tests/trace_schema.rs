//! Golden-file test for the ggs-trace event schema: the JSONL and
//! Chrome trace-event encodings of every event type are pinned so a
//! schema change is a deliberate, reviewed act (update
//! `tests/golden/trace_schema.txt` when extending the schema).
//!
//! The workload is deterministic (fixed synthetic-generator seed, fixed
//! scale), but the *timing values* inside events are not pinned — only
//! the per-event-type key sets and the category vocabulary, which is
//! what downstream consumers (Perfetto, scripts over JSONL) depend on.

use std::collections::{BTreeMap, BTreeSet};

use ggs_core::json::{self, Value};
use gpu_graph_spec::prelude::*;

const SCALE: f64 = 0.02;

/// Runs two PR configurations chosen to exercise every event type:
/// `SG0` (GPU coherence, DRF0 — acquire/release fences at every
/// atomic) and `SDR` (DeNovo — ownership registration), plus a
/// metrics-registry phase span.
fn emit_all_events(sink: &dyn TraceSink) {
    let graph = SynthConfig::preset(GraphPreset::Ols)
        .scale(SCALE)
        .generate();
    let spec = ExperimentSpec::builder().scale(SCALE).build().unwrap();
    let tracer = Tracer::new(sink, 50);
    for code in ["SG0", "SDR"] {
        let config: SystemConfig = code.parse().unwrap();
        run_workload(AppKind::Pr, &graph, config, &spec, tracer, None).unwrap();
    }
    let metrics = MetricsRegistry::new();
    drop(metrics.phase("golden_phase"));
    metrics.emit_phases(sink);
    // Cell-lifecycle events come from the fault-tolerant study runner
    // (docs/robustness.md), not from a single traced workload; pin
    // their schema by emitting one of each directly.
    sink.emit(&TraceEvent::CellStart {
        app: "PR".into(),
        graph: "OLS".into(),
        config: "SG0".into(),
        start_us: 1,
    });
    sink.emit(&TraceEvent::CellFinish {
        app: "PR".into(),
        graph: "OLS".into(),
        config: "SG0".into(),
        status: "ok",
        attempts: 1,
        start_us: 1,
        dur_us: 2,
    });
    // Result-store events likewise come from the study runner's store
    // integration and from compaction (ggs_core::store); pin their
    // schema the same way.
    sink.emit(&TraceEvent::StoreHit {
        key: "PR/OLS/SG0".into(),
        at_us: 3,
    });
    sink.emit(&TraceEvent::StoreMiss {
        key: "PR/OLS/SDR".into(),
        at_us: 4,
    });
    sink.emit(&TraceEvent::StoreEvict {
        records: 2,
        bytes: 256,
        at_us: 5,
    });
    sink.emit(&TraceEvent::StoreCorruption {
        offset: 16,
        bytes: 44,
        at_us: 6,
    });
    // Sweep-level reuse events come from the study runner's shared
    // graph builds and trace cache (docs/performance.md, "Sweep-level
    // reuse"); pin their schema the same way.
    sink.emit(&TraceEvent::GraphBuild {
        graph: "OLS".into(),
        vertices: 1024,
        edges: 16384,
        at_us: 7,
    });
    sink.emit(&TraceEvent::TraceCacheMiss {
        key: "PR/OLS/push/256".into(),
        at_us: 8,
    });
    sink.emit(&TraceEvent::TraceCacheHit {
        key: "PR/OLS/push/256".into(),
        at_us: 9,
    });
    sink.emit(&TraceEvent::TraceCacheEvict {
        streams: 1,
        bytes: 65536,
        at_us: 10,
    });
}

fn sorted_keys(v: &Value) -> Vec<String> {
    match v {
        Value::Object(map) => map.keys().cloned().collect(),
        _ => panic!("expected a JSON object, got {v:?}"),
    }
}

#[test]
fn jsonl_schema_matches_golden_file() {
    let sink = WriterSink::jsonl(Vec::new());
    emit_all_events(&sink);
    let text = String::from_utf8(sink.into_inner()).unwrap();

    let mut keys_by_type: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut cat_by_type: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        let v = json::parse(line).expect("every JSONL line is valid JSON");
        let ty = v.get("type").and_then(Value::as_str).unwrap().to_owned();
        let cat = v.get("cat").and_then(Value::as_str).unwrap().to_owned();
        let keys = sorted_keys(&v);
        if let Some(prev) = keys_by_type.get(&ty) {
            assert_eq!(prev, &keys, "inconsistent keys within type {ty}");
        }
        keys_by_type.insert(ty.clone(), keys);
        cat_by_type.insert(ty, cat);
    }

    let mut rendered = String::new();
    for (ty, keys) in &keys_by_type {
        rendered.push_str(&format!("{ty} [{}]: {}\n", cat_by_type[ty], keys.join(",")));
    }
    let cats: BTreeSet<&String> = cat_by_type.values().collect();
    rendered.push_str(&format!(
        "categories: {}\n",
        cats.iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(",")
    ));

    let golden = include_str!("golden/trace_schema.txt");
    assert_eq!(
        rendered, golden,
        "trace schema drifted from tests/golden/trace_schema.txt;\n\
         if the change is intentional, update the golden file to:\n{rendered}"
    );

    // The acceptance vocabulary must always be present.
    for cat in ["kernel", "stall", "cache", "noc"] {
        assert!(
            cats.iter().any(|c| c.as_str() == cat),
            "missing category {cat}"
        );
    }
}

#[test]
fn every_golden_event_type_is_documented() {
    // The schema table in docs/observability.md has one row per event
    // type: `| `type` | `cat` | fields | emitted from |`.
    let docs = include_str!("../docs/observability.md");
    let golden = include_str!("golden/trace_schema.txt");
    for line in golden.lines().filter(|l| !l.starts_with("categories:")) {
        let (head, keys) = line
            .split_once(": ")
            .expect("golden line is `type [cat]: keys`");
        let (ty, cat) = head
            .split_once(' ')
            .expect("golden line is `type [cat]: keys`");
        let cat = cat.trim_matches(['[', ']']);
        let prefix = format!("| `{ty}` | `{cat}` |");
        let row = docs
            .lines()
            .find(|row| row.starts_with(&prefix))
            .unwrap_or_else(|| panic!("docs/observability.md has no schema row `{prefix}`"));
        for key in keys.split(',').filter(|k| !matches!(*k, "type" | "cat")) {
            assert!(
                row.contains(&format!("`{key}`")),
                "docs/observability.md row for {ty} does not list field {key}"
            );
        }
    }
}

#[test]
fn chrome_trace_is_valid_json_with_all_categories() {
    let sink = WriterSink::chrome(Vec::new());
    emit_all_events(&sink);
    sink.finish().unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();

    let root = json::parse(&text).expect("chrome trace is one valid JSON document");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 100, "expected a dense trace");

    let mut cats = BTreeSet::new();
    let mut phs = BTreeSet::new();
    for e in events {
        // Every event carries the mandatory Chrome trace-event fields.
        for key in ["name", "ph", "ts", "pid", "tid", "cat"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
        cats.insert(e.get("cat").and_then(Value::as_str).unwrap().to_owned());
        phs.insert(e.get("ph").and_then(Value::as_str).unwrap().to_owned());
    }
    for cat in ["kernel", "iter", "stall", "cache", "noc", "sync", "phase"] {
        assert!(cats.contains(cat), "missing category {cat} in {cats:?}");
    }
    // Duration pairs, counters, complete events, and instants all used.
    for ph in ["B", "E", "C", "X", "i"] {
        assert!(phs.contains(ph), "missing phase type {ph} in {phs:?}");
    }
}

#[test]
fn kernel_begin_end_events_are_balanced() {
    let sink = WriterSink::jsonl(Vec::new());
    emit_all_events(&sink);
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let begins = text.lines().filter(|l| l.contains("kernel_begin")).count();
    let ends = text.lines().filter(|l| l.contains("kernel_end")).count();
    assert_eq!(begins, ends);
    assert!(begins > 0);
}
