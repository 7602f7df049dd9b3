//! End-to-end test of the `repro trace` subcommand: the emitted file
//! must be valid Chrome trace-event JSON (or, for a `.jsonl` path, valid
//! JSON lines) with the full category vocabulary.

use ggs_core::json::{self, Value};

fn repro() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// The parsed events of a trace file, selected by its extension.
fn parse_events(path: &std::path::Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("trace file written");
    if path.extension().is_some_and(|ext| ext == "jsonl") {
        return text
            .lines()
            .map(|line| {
                let event = json::parse(line).expect("every line is valid JSON");
                for key in ["type", "cat"] {
                    assert!(event.get(key).is_some(), "line missing {key}: {line}");
                }
                event
            })
            .collect();
    }
    let root = json::parse(&text).expect("trace is valid JSON");
    root.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .to_vec()
}

#[test]
fn trace_subcommand_writes_chrome_trace() {
    for name in ["ggs_repro_trace_cli.json", "ggs_repro_trace_cli.jsonl"] {
        let out = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&out);
        let status = repro()
            .args([
                "trace",
                "bfs",
                "rmat10",
                "SDR",
                "--scale",
                "1.0",
                "--trace-stride",
                "200",
                "--trace-out",
            ])
            .arg(&out)
            .status()
            .expect("repro binary runs");
        assert!(status.success(), "repro trace exited with {status}");

        let events = parse_events(&out);
        assert!(!events.is_empty(), "{name}");
        let cats: std::collections::BTreeSet<&str> = events
            .iter()
            .filter_map(|e| e.get("cat").and_then(Value::as_str))
            .collect();
        for cat in ["kernel", "stall", "cache", "noc"] {
            assert!(
                cats.contains(cat),
                "missing category {cat} in {name}: {cats:?}"
            );
        }
        let _ = std::fs::remove_file(&out);
    }
}

#[test]
fn trace_subcommand_rejects_bad_operands() {
    for args in [
        vec!["trace"],
        vec!["trace", "bfs", "rmat10"],
        vec!["trace", "nosuchapp", "rmat10", "SDR"],
        vec!["trace", "bfs", "nosuchgraph", "SDR"],
        vec!["trace", "bfs", "rmat10", "XYZ"],
        vec!["trace", "bfs", "rmat99", "SDR"],
    ] {
        let out = repro().args(&args).output().expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage error for {args:?}, got {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
