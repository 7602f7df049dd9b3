//! End-to-end tests of the `repro` binary's CLI: the cheap, static
//! sections, flag handling, and small-scale study runs. The study's
//! numbers are covered by the library tests and the paper-claims
//! integration suite.

use std::process::Command;

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn table1_lists_all_three_dimensions() {
    let out = repro(&["table1"]);
    for needle in [
        "Push vs. Pull",
        "Coherence",
        "Consistency",
        "DeNovo (D)",
        "DRFrlx (R)",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn table2_reproduces_all_class_codes() {
    // Tiny scale keeps this fast; volume classes are scale-invariant by
    // construction, and reuse/imbalance presets are robust down to a few
    // thousand vertices.
    let out = repro(&["--scale", "0.125", "table2"]);
    for row in ["AMZ", "DCT", "EML", "OLS", "RAJ", "WNG"] {
        assert!(out.contains(row), "missing row {row}");
    }
    for class in ["HML", "MMM", "HLH", "MHL", "LHH", "MLL"] {
        assert!(out.contains(class), "missing class {class} in:\n{out}");
    }
}

#[test]
fn table3_matches_the_paper() {
    let out = repro(&["table3"]);
    assert!(out.contains("CC"));
    assert!(out.contains("Dynamic"));
    // SSSP row: Source control and information.
    let sssp = out.lines().find(|l| l.contains("SSSP")).expect("SSSP row");
    assert_eq!(sssp.matches("Source").count(), 2, "{sssp}");
}

#[test]
fn table5_matches_the_paper_cell_for_cell() {
    let out = repro(&["--scale", "0.125", "table5"]);
    let row = |g: &str| {
        out.lines()
            .find(|l| l.starts_with(g))
            .unwrap_or_else(|| panic!("row {g} missing:\n{out}"))
            .to_owned()
    };
    assert_eq!(
        row("OLS").split_whitespace().collect::<Vec<_>>(),
        ["OLS", "SDR", "SDR", "TG0", "TG0", "SDR", "DD1"]
    );
    assert_eq!(
        row("RAJ").split_whitespace().collect::<Vec<_>>(),
        ["RAJ", "SDR", "SDR", "SDR", "SDR", "SDR", "DD1"]
    );
    for g in ["AMZ", "DCT", "EML", "WNG"] {
        assert_eq!(
            row(g).split_whitespace().collect::<Vec<_>>(),
            [g, "SGR", "SGR", "SGR", "SGR", "SGR", "DD1"]
        );
    }
}

/// Runs `repro` expecting the usage-error exit (2) without a panic.
fn repro_rejects(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
}

#[test]
fn help_and_bad_flags() {
    let out = repro(&["--help"]);
    assert!(out.contains("usage"));
    let out = repro(&["study", "--help"]);
    assert!(out.contains("usage: repro study") && out.contains("--store PATH"));
    assert!(!out.contains("repro bench"), "{out}");
    repro_rejects(&["--scale"]);
    // A flag outside the chosen subcommand's table is a usage error,
    // not silently ignored.
    for args in [
        &["study", "--iters", "3"][..],
        &["bench", "--store", "x"],
        &["verify", "--threads", "2"],
        &["trace", "bfs", "rmat10", "SDR", "--store", "x"],
        &["study", "--journal", "x"],
        // Cells run once; there is no retry layer to configure, and no
        // transient-I/O fault to exercise one.
        &["study", "--retries", "3"],
        &["study", "--inject-fault", "PR/AMZ/SGR=io"],
        &["--trace-stride", "5", "table1"],
        // Zero workers is rejected at parse time, not by a panic in
        // the study runner.
        &["--threads", "0", "fig5"],
        &["study", "--threads", "0"],
    ] {
        repro_rejects(args);
    }

    // Exhaustively: every flag is rejected by each subcommand whose
    // table (as `--help` prints it) lacks it.
    let help = repro(&["--help"]);
    let tables: Vec<(Option<&str>, Vec<&str>)> = help
        .lines()
        .filter_map(|line| line.strip_prefix("usage: repro"))
        .map(|usage| {
            let words: Vec<&str> = usage.split_whitespace().collect();
            let command = words.first().copied().filter(|w| !w.starts_with('['));
            let flags = words
                .iter()
                .filter_map(|w| w.strip_prefix('['))
                .filter(|w| w.starts_with("--"))
                .map(|w| w.trim_end_matches("]...").trim_end_matches(']'))
                .collect();
            (command, flags)
        })
        .collect();
    assert_eq!(tables.len(), 5, "{help}");
    let every: std::collections::BTreeSet<&str> =
        tables.iter().flat_map(|(_, f)| f.iter().copied()).collect();
    assert_eq!(every.len(), 22, "{every:?}");
    for (command, flags) in &tables {
        for flag in every.iter().filter(|f| !flags.contains(f)) {
            let args: Vec<&str> = command.iter().copied().chain([*flag, "x"]).collect();
            let out = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(&args)
                .output()
                .expect("repro binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
            assert!(
                stderr.contains("is not a flag of"),
                "repro {args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn study_isolates_injected_faults_and_resumes_from_its_store() {
    let store = std::env::temp_dir().join(format!("ggs-cli-study-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let store = store.to_str().expect("utf8 temp path");

    // An injected panic must not take the study down: exit 0, the cell
    // reported, everything else completed and published to the store.
    let out = repro(&[
        "study",
        "--scale",
        "0.004",
        "--threads",
        "8",
        "--store",
        store,
        "--inject-fault",
        "PR/AMZ/SGR",
    ]);
    assert!(out.contains("FAILED  PR/AMZ/SGR"), "{out}");
    assert!(
        out.contains("study: 174 cells") && out.contains("173 ok, 1 failed, 0 timeout"),
        "{out}"
    );
    // The degraded Figure 5 still renders, minus the failed bar.
    assert!(out.contains("Figure 5"), "{out}");

    // Re-running the same command without the fault simulates only
    // the missing cell.
    let out = repro(&[
        "study",
        "--scale",
        "0.004",
        "--threads",
        "8",
        "--store",
        store,
    ]);
    assert!(
        out.contains("1 ok, 0 failed, 0 timeout, 173 skipped"),
        "{out}"
    );
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(format!("{store}.lock"));
}

#[test]
fn a_timed_out_cell_reports_its_configured_limit() {
    // The hung cell runs until the engine stops it at the limit given
    // with --deadline-ms; other cells may time out too.
    let out = repro(&[
        "study",
        "--scale",
        "0.004",
        "--deadline-ms",
        "1",
        "--inject-fault",
        "CC/RAJ/DGR=hang",
    ]);
    let line = "TIMEOUT CC/RAJ/DGR (attempt 1): wall-clock deadline exceeded (1 ms)";
    assert!(out.contains(line), "{out}");
}

#[test]
fn section_runner_and_study_print_the_same_figures() {
    // The section runner and `repro study` both run the study through
    // `run_study`; from the Figure 5 header on, their stdout must agree.
    let figures = |out: &str| -> String {
        let at = out.find("== Figure 5").expect("Figure 5 header");
        out[at..].to_owned()
    };
    let sections = repro(&["--scale", "0.02", "fig5", "fig6"]);
    let study = repro(&["--scale", "0.02", "study"]);
    assert_eq!(figures(&sections), figures(&study));
}

#[test]
fn check_certifies_every_workload_clean() {
    // Small scale keeps the full static + dynamic sweep fast; the
    // contracts are scale-invariant. `--all` adds the extended app set.
    let out = repro(&["--scale", "0.02", "check", "--all"]);
    assert!(
        out.contains("all contracts certified, all protocol invariants hold"),
        "{out}"
    );
    // Every app appears in the dynamic grid, both directions for the
    // static apps, and no hardware point failed.
    for app in ["PR", "SSSP", "MIS", "CLR", "BC", "CC", "BFS"] {
        assert!(out.contains(app), "missing {app} in:\n{out}");
    }
    assert!(out.contains("pull") && out.contains("push") && out.contains("push+pull"));
    assert!(!out.contains("FAIL") && !out.contains("VIOLATION"), "{out}");
    // The exit gate really is wired: a violation-free run exits 0 (the
    // `repro` helper asserts success), and the DRF0 section shows the
    // fence accounting that DRF1/DRFrlx sections must not.
    let drf0_push = out
        .lines()
        .find(|l| l.contains("PR   push      DRF0"))
        .expect("DRF0 PR push line");
    assert!(!drf0_push.contains("(0 fence"), "{drf0_push}");
}

#[test]
fn bench_rejects_a_malformed_baseline_before_benchmarking() {
    let path =
        std::env::temp_dir().join(format!("ggs-cli-bad-baseline-{}.json", std::process::id()));
    // A negative duration, a negative count and a fractional count.
    for (wall_ms, cycles, kernels) in [("-5.0", "1", "1"), ("1.0", "-1", "1"), ("1.0", "1", "2.7")]
    {
        let report = format!(
            "{{\"schema\": \"ggs-bench-v2\", \"scale\": 0.02, \"iters\": 1, \"cells\": [\
             {{\"app\": \"PR\", \"config\": \"TG0\", \"wall_ms\": {wall_ms}, \
             \"cycles\": {cycles}, \"kernels\": {kernels}}}]}}"
        );
        std::fs::write(&path, report).expect("baseline written");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["bench", "--baseline"])
            .arg(&path)
            .output()
            .expect("repro binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("cannot parse baseline"), "{stderr}");
        // Nothing ran: the slice's progress line never printed.
        assert!(!stderr.contains("benchmarking"), "{stderr}");
    }
    let _ = std::fs::remove_file(&path);
}
