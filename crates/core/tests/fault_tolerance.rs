//! Fault-injection integration tests for the study runner: a panicking
//! cell and a hung cell must leave the other workloads' results intact,
//! and the per-cell wall-clock limit reaches every cell's simulation.
//! Resuming a killed study from the result store is covered in
//! `store_crash.rs`.

use std::collections::BTreeMap;
use std::time::Duration;

use ggs_core::runner::{run_study, CellStatus, Fault, FaultPlan, StudyOptions};
use ggs_core::study::{ConfigSet, ResultRow};
use ggs_core::{ExperimentSpec, MetricsRegistry};
use ggs_trace::NOOP;

const SCALE: f64 = 0.004;
const THREADS: usize = 8;

fn options() -> StudyOptions {
    StudyOptions::new(ConfigSet::Figure5, THREADS)
}

#[test]
fn panicking_and_hanging_cells_leave_the_rest_intact() {
    let spec = ExperimentSpec::at_scale(SCALE);
    let clean = run_study(&spec, &options(), &MetricsRegistry::new(), &NOOP).expect("clean run");
    assert!(clean.study.failures.is_empty());
    assert_eq!(clean.study.reports.len(), 36);
    let answered = |key: &str| {
        clean
            .cells
            .iter()
            .any(|c| c.key() == key && c.detail.starts_with("answered from"))
    };
    assert!(
        answered("CC/RAJ/DG1") != answered("CC/RAJ/DGR"),
        "a clean run answers one of DG1 and DGR from the other"
    );

    // The hang feeds kernels until its deadline stops it; clean cells
    // take milliseconds at this scale, well inside the limit.
    let mut faulted_options = options();
    faulted_options.cell_deadline = Some(Duration::from_secs(1));
    faulted_options.faults = FaultPlan::new()
        .inject("PR", "AMZ", "SGR", Fault::Panic)
        .inject("CC", "RAJ", "DGR", Fault::Hang);
    let faulted = run_study(&spec, &faulted_options, &MetricsRegistry::new(), &NOOP)
        .expect("faulted run completes");

    // Exactly the two injected cells are reported, with the right taxonomy.
    let failures = &faulted.study.failures;
    assert_eq!(failures.len(), 2, "failures: {failures:?}");
    let panic_cell = failures
        .iter()
        .find(|c| c.key() == "PR/AMZ/SGR")
        .expect("panicking cell reported");
    assert_eq!(panic_cell.status, CellStatus::Failed);
    assert!(panic_cell.detail.contains("injected fault"));
    assert_eq!(panic_cell.attempts, 1, "a cell runs once");
    let hang_cell = failures
        .iter()
        .find(|c| c.key() == "CC/RAJ/DGR")
        .expect("hung cell reported");
    assert_eq!(hang_cell.status, CellStatus::Timeout);
    assert_eq!(hang_cell.detail, "wall-clock deadline exceeded (1000 ms)");

    // Faults never alias. CC's atomics all return values, so DGR is in
    // DG1's consistency class and a clean run answers one from the
    // other; with a hang injected into DGR, DG1 still simulates on its
    // own and DGR still runs (and times out) instead of taking DG1's row.
    let sibling = faulted
        .cells
        .iter()
        .find(|c| c.key() == "CC/RAJ/DG1")
        .expect("sibling cell reported");
    assert_eq!(sibling.status, CellStatus::Ok);
    assert_eq!(sibling.attempts, 1, "DG1 simulated, not answered");
    assert_eq!(hang_cell.attempts, 1, "the hung cell ran once");

    // All 36 workloads still report; only the sabotaged ones lose a row.
    assert_eq!(faulted.study.reports.len(), 36);
    for clean_report in &clean.study.reports {
        let report = faulted
            .study
            .report(&clean_report.graph, &clean_report.app)
            .expect("workload present despite faults");
        for row in &report.rows {
            let clean_row = clean_report
                .rows
                .iter()
                .find(|r| r.config == row.config)
                .expect("row present in clean run");
            assert_eq!(row, clean_row, "surviving cell diverged from clean run");
        }
        let workload = format!("{}/{}", clean_report.app, clean_report.graph);
        let lost = clean_report.rows.len() - report.rows.len();
        let expected = usize::from(workload == "PR/AMZ" || workload == "CC/RAJ");
        assert_eq!(lost, expected, "{workload} lost {lost} rows");
    }

    let (ok, failed, timeout, skipped) = faulted.counts();
    assert_eq!((failed, timeout, skipped), (1, 1, 0));
    assert_eq!(ok + 2, clean.cells.len());
}

/// Faulted cells leave their stream group's lockstep and run alone; the
/// group's other cells still simulate in lockstep and come out exactly
/// as in a clean run, and no other group's cells are answered
/// differently. PR/AMZ's push group loses a panicking and a hung cell.
#[test]
fn faults_inside_a_lockstep_group_leave_its_other_cells_intact() {
    let spec = ExperimentSpec::at_scale(SCALE);
    let clean_metrics = MetricsRegistry::new();
    let clean = run_study(&spec, &options(), &clean_metrics, &NOOP).expect("clean run");
    assert!(clean.study.failures.is_empty());

    // A deadline with headroom for clean cells on a loaded test host.
    let mut faulted_options = options();
    faulted_options.cell_deadline = Some(Duration::from_secs(2));
    faulted_options.faults = FaultPlan::new()
        .inject("PR", "AMZ", "SG1", Fault::Panic)
        .inject("PR", "AMZ", "SDR", Fault::Hang);
    let metrics = MetricsRegistry::new();
    let faulted =
        run_study(&spec, &faulted_options, &metrics, &NOOP).expect("faulted run completes");

    let status = |key: &str| {
        let cell = faulted.cells.iter().find(|c| c.key() == key);
        cell.map(|c| (c.status, c.attempts))
    };
    assert_eq!(status("PR/AMZ/SG1"), Some((CellStatus::Failed, 1)));
    assert_eq!(status("PR/AMZ/SDR"), Some((CellStatus::Timeout, 1)));
    for key in ["PR/AMZ/SGR", "PR/AMZ/SD1"] {
        assert_eq!(status(key), Some((CellStatus::Ok, 1)), "{key} simulated");
    }
    let (ok, failed, timeout, skipped) = faulted.counts();
    assert_eq!((failed, timeout, skipped), (1, 1, 0));
    assert_eq!(ok + 2, clean.cells.len());

    // Every other cell reports as in the clean run, row for row.
    let rows = |outcome: &ggs_core::StudyOutcome| -> BTreeMap<String, ResultRow> {
        let reports = outcome.study.reports.iter();
        reports
            .flat_map(|r| {
                let key = move |row: &ResultRow| format!("{}/{}/{}", r.app, r.graph, row.config);
                r.rows.iter().map(move |row| (key(row), row.clone()))
            })
            .collect()
    };
    let (clean_rows, faulted_rows) = (rows(&clean), rows(&faulted));
    assert_eq!(faulted_rows.len() + 2, clean_rows.len());
    for (clean_cell, cell) in clean.cells.iter().zip(&faulted.cells) {
        let key = cell.key();
        if key != "PR/AMZ/SG1" && key != "PR/AMZ/SDR" {
            assert_eq!(clean_cell, cell, "{key}");
            assert_eq!(clean_rows.get(&key), faulted_rows.get(&key), "{key}");
        }
    }
    // The faulted cells answered nobody, so only they are missing from
    // the simulated count, and the group still built its stream once.
    for (name, missing) in [
        ("configs_answered", 0),
        ("configs_simulated", 2),
        ("streams_built", 0),
    ] {
        assert_eq!(
            metrics.counter(name) + missing,
            clean_metrics.counter(name),
            "{name}"
        );
    }
}

/// A zero wall-clock limit times out every cell's simulation before its
/// first kernel, reporting the limit as given; like any timed-out
/// class, none answers another cell.
#[test]
fn a_zero_cell_deadline_times_out_every_cell() {
    let mut opts = options();
    opts.cell_deadline = Some(Duration::ZERO);
    let outcome = run_study(
        &ExperimentSpec::at_scale(SCALE),
        &opts,
        &MetricsRegistry::new(),
        &NOOP,
    )
    .expect("run completes");
    let (ok, failed, timeout, skipped) = outcome.counts();
    assert_eq!((ok, failed, skipped), (0, 0, 0));
    assert_eq!(timeout, outcome.cells.len());
    for cell in &outcome.cells {
        assert_eq!(cell.status, CellStatus::Timeout, "{}", cell.key());
        assert_eq!(cell.attempts, 1, "{} ran itself", cell.key());
        assert_eq!(
            cell.detail,
            "wall-clock deadline exceeded (0 ms)",
            "{}",
            cell.key()
        );
    }
}

/// A limit too large to add to the clock means no deadline: the study
/// completes with every cell `Ok` instead of panicking.
#[test]
fn an_unrepresentable_cell_deadline_means_none() {
    let mut opts = options();
    opts.cell_deadline = Some(Duration::MAX);
    let outcome = run_study(
        &ExperimentSpec::at_scale(SCALE),
        &opts,
        &MetricsRegistry::new(),
        &NOOP,
    )
    .expect("run completes");
    let (ok, failed, timeout, skipped) = outcome.counts();
    assert_eq!((failed, timeout, skipped), (0, 0, 0));
    assert_eq!(ok, outcome.cells.len());
    assert!(outcome.cells.iter().all(|c| c.status == CellStatus::Ok));
}
