//! Fault-injection integration tests for the study runner: a panicking
//! cell and a hung cell must leave the other workloads' results intact,
//! and transient I/O failures are retried within a bounded budget.
//! Resuming a killed study from the result store is covered in
//! `store_crash.rs`.

use ggs_core::runner::{run_study, CellStatus, Fault, FaultPlan, StudyOptions};
use ggs_core::study::ConfigSet;
use ggs_core::{ExperimentSpec, MetricsRegistry};
use ggs_trace::NOOP;

const SCALE: f64 = 0.004;
const THREADS: usize = 8;

/// A spec whose kernel budget no legitimate cell can breach at this
/// scale (the largest clean cell launches ~24 kernels) but that stops
/// the `Hang` fault's kernel feed quickly.
fn budgeted_spec() -> ExperimentSpec {
    ExperimentSpec::builder()
        .scale(SCALE)
        .max_kernels(256)
        .build()
        .expect("valid spec")
}

fn options() -> StudyOptions {
    StudyOptions::new(ConfigSet::Figure5, THREADS)
}

#[test]
fn panicking_and_hanging_cells_leave_the_rest_intact() {
    let spec = budgeted_spec();
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

    let mut faulted_options = options();
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
    assert_eq!(panic_cell.attempts, 1, "panics must fail fast, no retry");
    let hang_cell = failures
        .iter()
        .find(|c| c.key() == "CC/RAJ/DGR")
        .expect("hung cell reported");
    assert_eq!(hang_cell.status, CellStatus::Timeout);
    assert!(hang_cell.detail.contains("kernel budget exhausted"));

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
    assert!(hang_cell.attempts >= 1, "the hung cell ran");

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

#[test]
fn transient_io_failures_are_retried_to_success() {
    let spec = budgeted_spec();
    let mut opts = options();
    opts.faults = FaultPlan::new().inject(
        "MIS",
        "EML",
        "SD1",
        Fault::TransientIo {
            remaining: std::sync::atomic::AtomicU32::new(2),
        },
    );
    let outcome = run_study(&spec, &opts, &MetricsRegistry::new(), &NOOP).expect("run completes");
    assert!(outcome.study.failures.is_empty(), "retries must succeed");
    let cell = outcome
        .cells
        .iter()
        .find(|c| c.key() == "MIS/EML/SD1")
        .expect("cell reported");
    assert_eq!(cell.status, CellStatus::Ok);
    assert_eq!(cell.attempts, 3, "two injected failures, then success");
}

#[test]
fn exhausted_retries_report_the_transient_error() {
    let spec = budgeted_spec();
    let mut opts = options();
    opts.retry.max_attempts = 2;
    opts.retry.base_backoff = std::time::Duration::from_millis(1);
    opts.faults = FaultPlan::new().inject(
        "MIS",
        "EML",
        "SD1",
        Fault::TransientIo {
            remaining: std::sync::atomic::AtomicU32::new(10),
        },
    );
    let outcome = run_study(&spec, &opts, &MetricsRegistry::new(), &NOOP).expect("run completes");
    let cell = outcome
        .cells
        .iter()
        .find(|c| c.key() == "MIS/EML/SD1")
        .expect("cell reported");
    assert_eq!(cell.status, CellStatus::Failed);
    assert_eq!(cell.attempts, 2);
    assert!(cell.detail.contains("injected transient I/O failure"));
    // The workload still reports with its other four configurations.
    let report = outcome
        .study
        .report("EML", "MIS")
        .expect("workload present");
    assert_eq!(report.rows.len(), 4);
}

/// A consistency class whose simulating cell times out answers nobody:
/// under a cycle budget no cell can meet, every cell, CC's DGR and DDR
/// included, runs on its own and times out.
#[test]
fn a_timed_out_class_answers_nobody() {
    let mut spec = budgeted_spec();
    spec.budget.max_cycles = Some(10);
    let outcome =
        run_study(&spec, &options(), &MetricsRegistry::new(), &NOOP).expect("run completes");
    let (ok, failed, timeout, skipped) = outcome.counts();
    assert_eq!((ok, failed, skipped), (0, 0, 0));
    assert_eq!(timeout, outcome.cells.len());
    for cell in &outcome.cells {
        assert_eq!(cell.attempts, 1, "{} ran itself", cell.key());
        assert!(
            cell.detail.contains("budget"),
            "{}: {}",
            cell.key(),
            cell.detail
        );
    }
}
