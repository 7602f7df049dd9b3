//! Tests of the harness's own logic: the percentile rule, metric names,
//! the result-line format, span self times, and digest stability.

use std::sync::Arc;

use ggs_apps::AppKind;
use ggs_core::experiment::ExperimentSpec;
use ggs_core::graph_fingerprint;
use ggs_graph::synth::{DegreeModel, SynthConfig};
use ggs_perfbench::digest::Digest;
use ggs_perfbench::drive::{Cell, Drive, Input};
use ggs_perfbench::layers::tail;
use ggs_perfbench::output::{valid_metric_name, RunResult};
use ggs_perfbench::spans::{totals, Recorder};
use ggs_perfbench::stats::{highest_percentile, median, percentile, tail_percentile};

#[test]
fn percentile_rule_keeps_ten_samples_beyond() {
    assert_eq!(highest_percentile(0), None);
    assert_eq!(highest_percentile(19), None);
    assert_eq!(highest_percentile(20), Some(50.0));
    assert_eq!(highest_percentile(39), Some(50.0));
    assert_eq!(highest_percentile(40), Some(75.0));
    assert_eq!(highest_percentile(99), Some(75.0));
    // Exactly ten beyond p90 at 100 samples (0.1 * 100 is not 10 in f64).
    assert_eq!(highest_percentile(100), Some(90.0));
    assert_eq!(highest_percentile(200), Some(95.0));
    assert_eq!(highest_percentile(1000), Some(99.0));
    assert_eq!(highest_percentile(10_000), Some(99.9));
    // `_p90` metrics never report above p90, and fall back to the median.
    assert_eq!(tail_percentile(396), 90.0);
    assert_eq!(tail_percentile(174), 90.0);
    assert_eq!(tail_percentile(50), 75.0);
    assert_eq!(tail_percentile(3), 50.0);
}

#[test]
fn percentiles_and_medians() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 90.0), 90.0);
    assert_eq!(percentile(&samples, 50.0), 50.0);
    assert_eq!(percentile(&samples, 100.0), 100.0);
    assert_eq!(percentile(&[], 90.0), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn metric_names_are_checked() {
    for good in [
        "setup_s",
        "sim.l1_hits",
        "trace.overhead_pct",
        "a-b",
        "9x",
        "A.B_c-D",
    ] {
        assert!(valid_metric_name(good), "{good}");
    }
    let too_long = "x".repeat(65);
    for bad in [
        "",
        "_x",
        ".x",
        "-x",
        "a b",
        "a/b",
        "é",
        "a\"b",
        too_long.as_str(),
    ] {
        assert!(!valid_metric_name(bad), "{bad:?}");
    }
    assert!(valid_metric_name(&"x".repeat(64)));
}

#[test]
fn result_line_round_trips() {
    let mut r = RunResult {
        correct: true,
        attempted: 174,
        failed: 0,
        ..RunResult::default()
    };
    r.set("setup_s", 0.123_456_789_012_345_6, "s");
    r.set("wall_s", 16.987_654_321, "s");
    r.set("peak_rss_mb", 123.0, "MB");
    r.set("trace.overhead_pct", -0.5, "%");
    r.set("store.bytes_scanned", 57_816_000.0, "bytes");
    let line = r.to_json().expect("valid result");
    assert!(!line.contains('\n'));
    assert_eq!(RunResult::from_json(&line).expect("parses"), r);

    let mut bad = r.clone();
    bad.set("bad name", 1.0, "s");
    assert!(bad.to_json().is_err());
    let mut nan = r.clone();
    nan.set("wall_s", f64::NAN, "s");
    assert!(nan.to_json().is_err());
    assert!(RunResult::from_json("{\"correct\":true}").is_err());
    assert!(RunResult::from_json("not json").is_err());
}

#[test]
fn self_time_subtracts_children() {
    let rec = Recorder::new();
    rec.record("trace_cache.get_or_build", None, 0, |id| {
        rec.record("apps.produce", Some(id), 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
    });
    let t = totals(&rec.spans());
    let cache = t["trace_cache.get_or_build"];
    let apps = t["apps.produce"];
    assert_eq!((cache.count, apps.count), (1, 1));
    assert_eq!(cache.self_ns, cache.total_ns - apps.total_ns);
    assert_eq!(apps.self_ns, apps.total_ns);
}

#[test]
fn tail_measures_end_of_pass_imbalance() {
    // One worker: back-to-back cells leave no tail.
    assert_eq!(tail(&[(0.0, 5.0), (5.0, 5.0), (10.0, 5.0)]), 0.0);
    // Two workers: the last cell starts at 6; worker A goes idle at 8,
    // worker B finishes at 20.
    assert_eq!(tail(&[(0.0, 6.0), (0.0, 8.0), (6.0, 14.0)]), 12.0);
    assert_eq!(tail(&[]), 0.0);
}

#[test]
fn digest_file_round_trips() {
    let text = "# header\nexact_predictions all 23\nPR/AMZ/SGR 123 3\nBFS/RAJ/TDR 456 4\n";
    let d = Digest::parse(text).expect("parses");
    assert_eq!(d.cells["PR/AMZ/SGR"], (123, 3));
    assert_eq!(d.exact["all"], 23);
    assert_eq!(Digest::parse(&d.render("header")).expect("re-parses"), d);
    assert!(Digest::parse("PR/AMZ/SGR 12x 3").is_err());
    assert!(Digest::parse("PR/AMZ/SGR 12").is_err());
}

#[test]
fn cell_digests_are_stable_across_in_process_runs() {
    let graph = SynthConfig::custom("tiny", 1 << 10, 8.0, DegreeModel::log_normal(1.0), 0.5)
        .seed(7)
        .generate();
    let input = Input {
        name: "tiny".to_owned(),
        fingerprint: graph_fingerprint(&graph),
        graph: Arc::new(graph),
    };
    let cells: Vec<Cell> = ["SGR", "TDR"]
        .iter()
        .map(|code| Cell {
            input: 0,
            app: AppKind::Pr,
            config: code.parse().expect("valid code"),
        })
        .collect();
    let spec = ExperimentSpec::at_scale(0.05);
    let digest = || {
        let drive = Drive {
            spec: &spec,
            workers: 1,
            store: None,
            recorder: None,
        };
        drive
            .run(std::slice::from_ref(&input), &cells)
            .cells
            .into_iter()
            .map(|c| {
                let s = c.stats.expect("simulated");
                (c.key, s.total_cycles, s.kernels)
            })
            .collect::<Vec<_>>()
    };
    let first = digest();
    assert_eq!(first.len(), 2);
    assert!(first
        .iter()
        .all(|&(_, cycles, kernels)| cycles > 0 && kernels > 0));
    assert_eq!(first, digest());
}
