//! Crash-recovery harness for the content-addressed
//! result store (`ggs_core::store`, docs/robustness.md):
//!
//! * truncating a valid store at **every byte offset** never panics
//!   the loader and recovers exactly the records whose frames survived;
//! * a warm store answers a repeated study with **zero simulations**
//!   (asserted via trace events), byte-identical to the original run;
//! * a study sabotaged by injected panic + torn-write faults and then
//!   re-run from the store reproduces the uninterrupted results byte
//!   for byte, as does a re-run from a store truncated at adversarial
//!   offsets;
//! * a bit flip in one stored result surfaces as exactly one corrupt
//!   span on the study outcome and re-simulates only that cell.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ggs_core::runner::{run_study, spec_hash, Fault, FaultPlan, StudyOptions};
use ggs_core::store::{versioned_spec_hash, Store, StoreFaults};
use ggs_core::study::{ConfigSet, ResultRow};
use ggs_core::{ExperimentSpec, MetricsRegistry};
use ggs_trace::{WriterSink, NOOP};

const SCALE: f64 = 0.004;
const THREADS: usize = 8;

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

/// A directory of one test's own, removed when it drops. Tests run
/// in parallel, so none may remove a directory another one uses.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh path named `name`, in a directory that lives as long as the
/// returned guard.
fn temp_path(name: &str) -> (TempDir, PathBuf) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ggs-store-tests-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    (TempDir(dir), path)
}

fn store_options(path: &Path) -> StudyOptions {
    let mut o = options();
    o.store = Some(Store::open(path).expect("open store"));
    o
}

fn row(config: &str, cycles: u64) -> ResultRow {
    ResultRow {
        config: config.to_owned(),
        total_cycles: cycles,
        fractions: [0.5, 0.2, 0.1, 0.1, 0.1],
    }
}

/// Satellite: truncate a valid store at every byte offset. Loading must
/// never panic, and must recover exactly the records whose frames lie
/// entirely within the surviving prefix.
#[test]
fn truncation_at_every_byte_offset_never_panics_and_keeps_intact_records() {
    let (_dir, path) = temp_path("every-offset.store");
    let configs = ["SGR", "TG0", "SD1", "DGR", "SG0", "SDR", "TGR", "DG0"];
    let mut frame_ends: Vec<(u64, usize)> = Vec::new(); // (end offset, records so far)
    {
        let store = Store::open(&path).expect("create");
        for (i, cfg) in configs.iter().enumerate() {
            store
                .publish("hash", "PR", "AMZ", &row(cfg, 1000 + i as u64))
                .expect("publish");
            let len = std::fs::metadata(&path).expect("meta").len();
            frame_ends.push((len, i + 1));
        }
    }
    let bytes = std::fs::read(&path).expect("read full store");

    let (_cut_dir, cut_path) = temp_path("every-offset-cut.store");
    for cut in 0..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write truncation");
        // (a) open + load never panic, whatever the cut point.
        let store = Store::open(&cut_path).expect("truncations are tolerated, not fatal");
        let snapshot = store.load().expect("load never fails on a truncation");
        // (b) every record whose frame survived intact is recovered.
        let expect = frame_ends
            .iter()
            .take_while(|&&(end, _)| end <= cut as u64)
            .last()
            .map_or(0, |&(_, n)| n);
        assert_eq!(
            snapshot.completed_for("hash").len(),
            expect,
            "cut at byte {cut}"
        );
        assert!(snapshot.report.corrupt.is_empty(), "open repaired the tail");
    }
}

/// Acceptance: a completed study re-run against a warm store performs
/// zero simulations — every cell is a store hit — and the results are
/// byte-identical to the uninterrupted run.
#[test]
fn warm_store_rerun_simulates_nothing_and_is_byte_identical() {
    let spec = budgeted_spec();
    let clean = run_study(&spec, &options(), &MetricsRegistry::new(), &NOOP).expect("clean run");
    assert!(clean.study.failures.is_empty());

    let (_dir, path) = temp_path("warm.store");
    let cold = run_study(&spec, &store_options(&path), &MetricsRegistry::new(), &NOOP)
        .expect("cold store run");
    let (ok, failed, timeout, skipped) = cold.counts();
    assert_eq!((failed, timeout, skipped), (0, 0, 0));
    assert_eq!(ok, cold.cells.len());
    assert_eq!(cold.study, clean.study);

    // Warm re-run, traced: all hits, zero simulations, no stream built.
    let sink = WriterSink::jsonl(Vec::new());
    let metrics = MetricsRegistry::new();
    let warm = run_study(&spec, &store_options(&path), &metrics, &sink).expect("warm store run");
    assert_eq!(metrics.counter("streams_built"), 0);
    let trace = String::from_utf8(sink.into_inner()).expect("utf8 trace");
    let (ok, failed, timeout, skipped) = warm.counts();
    assert_eq!((ok, failed, timeout), (0, 0, 0), "zero simulations");
    assert_eq!(skipped, warm.cells.len());
    assert_eq!(warm.study, clean.study);
    assert_eq!(warm.study.to_json(), clean.study.to_json());

    let count = |needle: &str| trace.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count("\"type\":\"store_hit\""), warm.cells.len());
    assert_eq!(count("\"type\":\"store_miss\""), 0);
    assert_eq!(count("\"status\":\"ok\""), 0, "no cell actually simulated");
    assert_eq!(count("\"type\":\"cell_start\""), warm.cells.len());

    // A cold run writes one record per cell, so compaction has nothing
    // to drop until a result is superseded: publish one cell again.
    // Compaction drops the older record, reports what it freed as one
    // `store_evict` event, and the compacted store still answers every
    // cell.
    let store = Store::open(&path).expect("reopen store");
    let hash = versioned_spec_hash(&spec_hash(&spec, ConfigSet::Figure5));
    let completed = store.load().expect("load").completed_for(&hash);
    let (key, row) = completed.iter().next().expect("a stored cell");
    let mut names = key.split('/');
    let (app, graph) = (names.next().expect("app"), names.next().expect("graph"));
    store.publish(&hash, app, graph, row).expect("republish");
    let sink = WriterSink::jsonl(Vec::new());
    let report = store
        .compact(&sink, std::time::Instant::now())
        .expect("compact");
    assert_eq!(report.kept_records, warm.cells.len());
    assert_eq!(report.dropped_records, 1);
    assert!(report.reclaimed_bytes > 0);
    let trace = String::from_utf8(sink.into_inner()).expect("utf8 trace");
    let evicts: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"type\":\"store_evict\""))
        .collect();
    assert_eq!(evicts.len(), 1, "{trace}");
    assert!(
        evicts[0].contains(&format!(
            "\"records\":{},\"bytes\":{}",
            report.dropped_records, report.reclaimed_bytes
        )),
        "{}",
        evicts[0]
    );
    drop(store);
    let compacted = run_study(&spec, &store_options(&path), &MetricsRegistry::new(), &NOOP)
        .expect("run on the compacted store");
    assert_eq!(compacted.counts().3, compacted.cells.len());
    assert_eq!(compacted.study, clean.study);
}

/// Acceptance: a study sabotaged by an injected cell panic *and* an
/// injected torn store write, then re-run from the store, reproduces
/// the uninterrupted results byte for byte.
#[test]
fn faulted_run_resumed_from_store_is_byte_identical() {
    let spec = budgeted_spec();
    let clean = run_study(&spec, &options(), &MetricsRegistry::new(), &NOOP).expect("clean run");

    let (_dir, path) = temp_path("faulted.store");
    let faults = StoreFaults::none().torn_write(20);
    let mut sabotaged = options();
    sabotaged.store = Some(Store::open_with(&path, faults).expect("open store"));
    sabotaged.faults = FaultPlan::new().inject("PR", "AMZ", "SGR", Fault::Panic);
    let first =
        run_study(&spec, &sabotaged, &MetricsRegistry::new(), &NOOP).expect("sabotaged run");
    drop(sabotaged);
    let (_, failed, _, _) = first.counts();
    assert_eq!(failed, 1, "the injected panic fails exactly one cell");
    // The torn write left one simulated-but-unpersisted cell behind.
    let unpersisted: Vec<_> = first
        .cells
        .iter()
        .filter(|c| c.detail.contains("not persisted"))
        .collect();
    assert_eq!(unpersisted.len(), 1, "torn write degraded one publish");

    // Second run: reopening repairs the torn tail, the panicked and
    // unpersisted cells are re-simulated, everything else is a hit.
    let second = run_study(&spec, &store_options(&path), &MetricsRegistry::new(), &NOOP)
        .expect("recovery run");
    let (ok, failed, timeout, _) = second.counts();
    assert_eq!((failed, timeout), (0, 0));
    assert_eq!(ok, 2, "exactly the two damaged cells re-simulate");
    assert_eq!(second.study, clean.study);
    assert_eq!(second.study.to_json(), clean.study.to_json());
}

/// Satellite: resuming from a store truncated at adversarial offsets
/// (inside the header, mid-record, exactly on a frame boundary) still
/// reproduces the uninterrupted study byte for byte.
#[test]
fn truncated_store_resume_is_byte_identical() {
    let spec = budgeted_spec();
    let clean = run_study(&spec, &options(), &MetricsRegistry::new(), &NOOP).expect("clean run");

    let (_dir, path) = temp_path("truncate-resume.store");
    let warm = run_study(&spec, &store_options(&path), &MetricsRegistry::new(), &NOOP)
        .expect("warm-up run");
    assert!(warm.study.failures.is_empty());
    let bytes = std::fs::read(&path).expect("read store");

    // Offsets: inside the header, just past it, mid-file (mid-record
    // with near certainty), and one byte short of the full file.
    let cuts = [9usize, 17, bytes.len() / 2, bytes.len() - 1];
    for cut in cuts {
        let (_cut_dir, cut_path) = temp_path("truncate-resume-cut.store");
        std::fs::write(&cut_path, &bytes[..cut]).expect("write truncation");
        let resumed = run_study(
            &spec,
            &store_options(&cut_path),
            &MetricsRegistry::new(),
            &NOOP,
        )
        .expect("resumed run");
        let (_, failed, timeout, _) = resumed.counts();
        assert_eq!((failed, timeout), (0, 0), "cut at byte {cut}");
        assert_eq!(resumed.study, clean.study, "cut at byte {cut}");
        assert_eq!(
            resumed.study.to_json(),
            clean.study.to_json(),
            "cut at byte {cut}"
        );
    }
}

/// Store corruption is counted, not silent: a bit flip inside one
/// result record's payload surfaces as exactly one corrupt span on the
/// study outcome, and only the damaged cell re-simulates.
#[test]
fn corrupt_result_record_is_surfaced_and_resimulated() {
    let spec = budgeted_spec();
    let clean = run_study(&spec, &options(), &MetricsRegistry::new(), &NOOP).expect("clean run");

    let (_dir, path) = temp_path("corrupt-result.store");
    let warm = run_study(&spec, &store_options(&path), &MetricsRegistry::new(), &NOOP)
        .expect("warm-up run");
    assert!(warm.study.failures.is_empty());

    // Walk the frames (16-byte header; magic, len, crc, payload) to
    // the first result record and flip one byte in its payload.
    let mut bytes = std::fs::read(&path).expect("read store");
    let mut pos = 16;
    let marker: &[u8] = b"\"kind\":\"result\"";
    let payload = loop {
        let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let start = pos + 12;
        let end = start + len as usize;
        if bytes[start..end].windows(marker.len()).any(|w| w == marker) {
            break start..end;
        }
        pos = end;
    };
    bytes[(payload.start + payload.end) / 2] ^= 0xff;
    std::fs::write(&path, &bytes).expect("write flipped store");

    let rerun = run_study(&spec, &store_options(&path), &MetricsRegistry::new(), &NOOP)
        .expect("re-run on the damaged store");
    let report = rerun.store_report.as_ref().expect("store attached");
    assert_eq!(report.corrupt.len(), 1, "{report:?}");
    let (ok, failed, timeout, skipped) = rerun.counts();
    assert_eq!((ok, failed, timeout), (1, 0, 0));
    assert_eq!(skipped, rerun.cells.len() - 1);
    assert_eq!(rerun.study, clean.study);
}
