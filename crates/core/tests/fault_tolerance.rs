//! Fault-injection integration tests for the study runner: a panicking
//! cell and a hung cell must leave the other workloads' results intact,
//! and the per-cell wall-clock limit reaches every cell's simulation.
//! Resuming a killed study from the result store is covered in
//! `store_crash.rs`.

use std::time::Duration;

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
    assert_eq!(panic_cell.attempts, 1, "a cell runs once");
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

/// A zero wall-clock limit times out every cell's simulation before its
/// first kernel, reporting the limit as given; like any timed-out
/// class, none answers another cell.
#[test]
fn a_zero_cell_deadline_times_out_every_cell() {
    let mut opts = options();
    opts.cell_deadline = Some(Duration::ZERO);
    let outcome =
        run_study(&budgeted_spec(), &opts, &MetricsRegistry::new(), &NOOP).expect("run completes");
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
    let outcome =
        run_study(&budgeted_spec(), &opts, &MetricsRegistry::new(), &NOOP).expect("run completes");
    let (ok, failed, timeout, skipped) = outcome.counts();
    assert_eq!((failed, timeout, skipped), (0, 0, 0));
    assert_eq!(ok, outcome.cells.len());
    assert!(outcome.cells.iter().all(|c| c.status == CellStatus::Ok));
}
