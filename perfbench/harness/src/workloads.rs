//! The two workloads, each with an untraced run (end-to-end metrics)
//! and a traced run (per-layer metrics).
//!
//! * `study`: the Figure 5 study at scale 0.125 (36 workloads, 174
//!   cells) through `run_study` with 2 workers, the default trace cache
//!   and a fresh result store.
//! * `store`: the full 12/6-configuration design space at scale 1/128
//!   (396 cells) through `run_study` with 2 workers: set-up fills an
//!   empty store, the measured phase re-runs it warm.
//!
//! `run_study` takes no seed, so both workloads ignore `--seed`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ggs_apps::AppKind;
use ggs_core::experiment::ExperimentSpec;
use ggs_core::runner::spec_hash;
use ggs_core::store::versioned_spec_hash;
use ggs_core::study::ConfigSet;
use ggs_core::{graph_fingerprint, run_study, CellStatus, Store, StudyOptions, StudyOutcome};
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_model::{predict_full, predict_partial, GraphProfile};
use ggs_sim::ExecStats;
use ggs_trace::{MetricsRegistry, TraceSink};

use crate::digest::Digest;
use crate::drive::{cell_key, study_cells, Drive, DriveReport, Input, StoreTarget};
use crate::layers::{per_layer, CellEvents, LayerInputs, RunnerView};
use crate::output::RunResult;
use crate::spans::{traced, Recorder};
use crate::stats::median;

/// Worker threads of `study` and `store`.
pub const WORKERS: usize = 2;
/// Input scale of `study`.
pub const STUDY_SCALE: f64 = 0.125;
/// Input scale of `store`.
pub const STORE_SCALE: f64 = 1.0 / 128.0;
/// Extra `study` set-up samples: warm-store re-runs, in which only
/// `run_study`'s input generation does real work. Set-up samples beyond
/// the first run after the measured phase, so they cannot move its peak
/// memory.
pub const STUDY_SETUP_REPEATS: usize = 10;
/// `store` set-up samples: cold passes, each into an empty store (the
/// first fills the store the measured phase reads).
pub const STORE_COLD_PASSES: usize = 3;

/// Nominal length of one measured unit: a `study` pass or a warm `store`
/// pass.
const STUDY_UNIT_S: f64 = 12.0;
/// See [`STUDY_UNIT_S`].
const STORE_UNIT_S: f64 = 2.5;

const STUDY_DIGEST: &str = include_str!("../../digests/study.txt");
const STORE_DIGEST: &str = include_str!("../../digests/store.txt");

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 5 study.
    Study,
    /// Warm re-runs against a filled result store.
    Store,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Study, Workload::Store];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Store => "store",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn digest_text(self) -> &'static str {
        match self {
            Workload::Study => STUDY_DIGEST,
            Workload::Store => STORE_DIGEST,
        }
    }

    /// Where `--write-digests` writes this workload's digest.
    pub fn digest_path(self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("digests")
            .join(format!("{}.txt", self.name()))
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed, printed with the run (`run_study` takes none).
    pub seed: u64,
    /// Seconds the measured phase is sized for (see `repeat_for`).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Directory for stores and span files.
    pub out_dir: PathBuf,
}

/// A finished run: the result line plus human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    /// The result line.
    pub result: RunResult,
    /// Notes printed before the result line.
    pub lines: Vec<String>,
}

/// Runs one workload.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let scratch = Scratch::new(&args.out_dir)?;
    let digest = Digest::parse(args.workload.digest_text())?;
    match (args.workload, args.trace) {
        (Workload::Study, false) => study(args, &scratch, &digest),
        (Workload::Study, true) => study_traced(args, &scratch, &digest),
        (Workload::Store, false) => store(args, &scratch, &digest),
        (Workload::Store, true) => store_traced(args, &scratch, &digest),
    }
}

/// A per-process directory for result stores, removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<out_dir>/run-<pid>`.
    pub fn new(out_dir: &Path) -> Result<Self, String> {
        let dir = out_dir.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Accumulates correctness verdicts.
#[derive(Debug, Default)]
pub struct Check {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Check {
    fn cell(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = verdict {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Every cell of a `run_study` outcome: not failed, and its row's
    /// cycles match the digest. `run_study` reports no kernel counts;
    /// those are checked by the traced run's re-drive.
    fn outcome(&mut self, outcome: &StudyOutcome, digest: &Digest) {
        let rows: BTreeMap<String, u64> = outcome
            .study
            .reports
            .iter()
            .flat_map(|r| {
                r.rows
                    .iter()
                    .map(move |row| (cell_key(&r.app, &r.graph, &row.config), row.total_cycles))
            })
            .collect();
        for cell in &outcome.cells {
            let key = cell.key();
            let verdict = match cell.status {
                CellStatus::Failed | CellStatus::Timeout => {
                    Err(format!("{key}: {} ({})", cell.status, cell.detail))
                }
                _ => match (rows.get(&key), digest.cells.get(&key)) {
                    (Some(got), Some((want, _))) if got == want => Ok(()),
                    (Some(got), Some((want, _))) => {
                        Err(format!("{key}: {got} cycles, digest says {want}"))
                    }
                    (None, _) => Err(format!("{key}: no result row")),
                    (_, None) => Err(format!("{key}: not in the digest")),
                },
            };
            self.cell(verdict);
        }
        self.invariant(outcome.cells.len() == digest.cells.len(), || {
            format!(
                "{} cells ran, digest has {}",
                outcome.cells.len(),
                digest.cells.len()
            )
        });
    }

    /// One simulated cell's `(total_cycles, kernels)` against the digest.
    fn stats(&mut self, key: &str, stats: Option<&ExecStats>, digest: &Digest) {
        let verdict = match (stats, digest.cells.get(key)) {
            (Some(s), Some(&want)) if (s.total_cycles, s.kernels) == want => Ok(()),
            (Some(s), Some(want)) => Err(format!(
                "{key}: ({}, {}) (cycles, kernels), digest says {want:?}",
                s.total_cycles, s.kernels
            )),
            (None, _) => Err(format!("{key}: not simulated")),
            (_, None) => Err(format!("{key}: not in the digest")),
        };
        self.cell(verdict);
    }

    /// Every cell of a drive, simulated, against the digest.
    fn drive(&mut self, report: &DriveReport, digest: &Digest) {
        for cell in &report.cells {
            match &cell.error {
                Some(e) => self.cell(Err(format!("{}: {e}", cell.key))),
                None => self.stats(&cell.key, cell.stats.as_ref(), digest),
            }
        }
    }

    fn exact(&mut self, got: usize, digest: &Digest) {
        let want = digest.exact.get("all").copied();
        self.invariant(want == Some(got as u64), || {
            format!("exact_predictions {got}, digest says {want:?}")
        });
    }

    /// The result line's verdict fields, plus the problems found.
    fn finish(self, report: &mut Report) {
        report.result.correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        report.result.attempted = self.attempted.max(1);
        report.result.failed = self.failed;
        report.lines.push(format!(
            "check: {} cells checked, {} failed, {} problems",
            self.attempted,
            self.failed,
            self.problems.len()
        ));
        for p in self.problems.iter().take(20) {
            report.lines.push(format!("  problem: {p}"));
        }
    }
}

/// One `run_study` pass against the store at `store_path`.
struct Pass {
    outcome: StudyOutcome,
    registry: MetricsRegistry,
    /// Whole `run_study` call.
    total_s: f64,
    /// Its `generate_inputs` phase.
    generate_s: f64,
}

fn study_pass(
    spec: &ExperimentSpec,
    configs: ConfigSet,
    threads: usize,
    store_path: &Path,
    sink: &dyn TraceSink,
) -> Result<Pass, String> {
    let store = Store::open(store_path).map_err(|e| e.to_string())?;
    let options = StudyOptions {
        store: Some(store),
        ..StudyOptions::new(configs, threads)
    };
    let registry = MetricsRegistry::new();
    let started = Instant::now();
    let outcome = run_study(spec, &options, &registry, sink).map_err(|e| e.to_string())?;
    let total_s = started.elapsed().as_secs_f64();
    let generate_s = registry
        .spans()
        .iter()
        .filter(|s| s.name == "generate_inputs")
        .map(|s| s.dur_us as f64 / 1e6)
        .sum();
    Ok(Pass {
        outcome,
        registry,
        total_s,
        generate_s,
    })
}

/// Runs `unit` (which returns its wall seconds) as many times as units
/// of about `unit_s` seconds fit in `seconds`, and at least once. The
/// count depends only on `--seconds`, so every run of a workload
/// measures the same work.
fn repeat_for(
    seconds: f64,
    unit_s: f64,
    mut unit: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let count = ((seconds / unit_s) as usize).max(1);
    (0..count).map(|_| unit()).collect()
}

/// Records the end-to-end metrics. `peak_mb` is read right after the
/// measured phase, before any extra set-up samples run.
fn end_to_end(report: &mut Report, setup: &[f64], walls: &[f64], peak_mb: f64, exact: usize) {
    report.lines.push(format!(
        "setup_s samples {setup:.4?}; wall_s samples {walls:.4?}"
    ));
    let r = &mut report.result;
    r.set("setup_s", median(setup), "s");
    r.set("wall_s", median(walls), "s");
    r.set("peak_rss_mb", peak_mb, "MB");
    r.set("exact_predictions", exact as f64, "count");
}

fn study(args: &RunArgs, scratch: &Scratch, digest: &Digest) -> Result<Report, String> {
    let spec = ExperimentSpec::at_scale(STUDY_SCALE);
    let mut check = Check::default();
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut exact = 0;
    let store_path = scratch.file("study.store");
    let walls = repeat_for(args.seconds, STUDY_UNIT_S, || {
        // Every measured pass starts from an empty store.
        let _ = std::fs::remove_file(&store_path);
        let p = study_pass(
            &spec,
            ConfigSet::Figure5,
            WORKERS,
            &store_path,
            &ggs_trace::NOOP,
        )?;
        setup.push(p.generate_s);
        check.outcome(&p.outcome, digest);
        exact = p.outcome.study.exact_predictions();
        Ok(p.total_s - p.generate_s)
    })?;
    check.exact(exact, digest);
    let peak_mb = peak_rss_mb()?;
    // More set-up samples: against the now-warm store nothing simulates,
    // so each re-run is `run_study`'s own input generation plus store hits.
    for _ in 0..STUDY_SETUP_REPEATS {
        let p = study_pass(&spec, ConfigSet::Figure5, 1, &store_path, &ggs_trace::NOOP)?;
        setup.push(p.generate_s);
        check.invariant(p.outcome.counts().0 == 0, || {
            "a warm-store re-run simulated cells".to_owned()
        });
    }
    end_to_end(&mut report, &setup, &walls, peak_mb, exact);
    check.finish(&mut report);
    Ok(report)
}

fn store(args: &RunArgs, scratch: &Scratch, digest: &Digest) -> Result<Report, String> {
    let spec = ExperimentSpec::at_scale(STORE_SCALE);
    let mut check = Check::default();
    let mut report = Report::default();
    let cold_pass = |pass: usize, check: &mut Check| {
        let path = scratch.file(&format!("cold-{pass}.store"));
        let p = study_pass(&spec, ConfigSet::Full, WORKERS, &path, &ggs_trace::NOOP)?;
        check.outcome(&p.outcome, digest);
        Ok::<_, String>((path, p))
    };
    let (store_path, cold) = cold_pass(0, &mut check)?;
    let mut setup = vec![cold.total_s];
    let cold = cold.outcome.study;
    let mut exact = 0;
    let walls = repeat_for(args.seconds, STORE_UNIT_S, || {
        let p = warm_pass(
            &spec,
            &store_path,
            &ggs_trace::NOOP,
            &cold,
            digest,
            &mut check,
        )?;
        exact = p.outcome.study.exact_predictions();
        Ok(p.total_s)
    })?;
    check.exact(exact, digest);
    let peak_mb = peak_rss_mb()?;
    // More set-up samples, after the peak is read: each extra cold pass
    // leaves the heap larger than one pass alone would.
    for pass in 1..STORE_COLD_PASSES {
        setup.push(cold_pass(pass, &mut check)?.1.total_s);
    }
    report.lines.push(format!("{} warm passes", walls.len()));
    end_to_end(&mut report, &setup, &walls, peak_mb, exact);
    check.finish(&mut report);
    Ok(report)
}

/// One warm `store` pass, checked: it simulates nothing and reproduces
/// the cold pass's study exactly.
fn warm_pass(
    spec: &ExperimentSpec,
    store_path: &Path,
    sink: &dyn TraceSink,
    cold: &ggs_core::Study,
    digest: &Digest,
    check: &mut Check,
) -> Result<Pass, String> {
    let p = study_pass(spec, ConfigSet::Full, WORKERS, store_path, sink)?;
    let (ok, failed, timeout, skipped) = p.outcome.counts();
    check.invariant(ok == 0 && failed == 0 && timeout == 0, || {
        format!("warm pass simulated {ok} cells ({failed} failed, {timeout} timed out)")
    });
    check.invariant(skipped == digest.cells.len(), || {
        format!(
            "warm pass answered {skipped} of {} cells from the store",
            digest.cells.len()
        )
    });
    check.invariant(&p.outcome.study == cold, || {
        "warm study differs from the cold study".to_owned()
    });
    check.outcome(&p.outcome, digest);
    Ok(p)
}

/// The six preset inputs at `scale`, generated and profiled as
/// `run_study` does, with a span around each layer call, plus the model's
/// predictions for every application on them.
pub fn prepare_presets(spec: &ExperimentSpec, recorder: Option<&Recorder>) -> Vec<Input> {
    let params = spec.metric_params();
    let mut inputs = Vec::new();
    for preset in GraphPreset::ALL {
        let graph = traced(recorder, "graph.generate", None, 0, |_| {
            SynthConfig::preset(preset)
                .scale(spec.scale)
                .generate()
                .with_hashed_weights(64)
        });
        let profile = traced(recorder, "model.profile", None, 0, |_| {
            GraphProfile::measure(&graph, &params)
        });
        for app in AppKind::ALL {
            traced(recorder, "model.predict", None, 0, |_| {
                let algo = app.algo_profile();
                (
                    predict_full(&algo, &profile),
                    predict_partial(&algo, &profile),
                )
            });
        }
        let fingerprint = graph_fingerprint(&graph);
        inputs.push(Input {
            name: preset.mnemonic().to_owned(),
            graph: Arc::new(graph),
            fingerprint,
        });
    }
    inputs
}

fn edges(inputs: &[Input]) -> u64 {
    inputs.iter().map(|i| i.graph.num_edges()).sum()
}

/// A re-drive of a `run_study` pass against `store_path`, traced when
/// `recorder` is given.
fn redrive(
    spec: &ExperimentSpec,
    configs: ConfigSet,
    inputs: &[Input],
    store_path: &Path,
    recorder: Option<&Recorder>,
) -> Result<DriveReport, String> {
    let store = Store::open(store_path).map_err(|e| e.to_string())?;
    let drive = Drive {
        spec,
        workers: WORKERS,
        store: Some(StoreTarget {
            store: &store,
            spec_hash: versioned_spec_hash(&spec_hash(spec, configs)),
        }),
        recorder,
    };
    Ok(drive.run(inputs, &study_cells(inputs.len(), configs)))
}

fn finish_traced(
    args: &RunArgs,
    report: &mut Report,
    recorder: &Recorder,
    inputs: LayerInputs<'_>,
) -> Result<(), String> {
    report.lines.extend(per_layer(&inputs, &mut report.result));
    let path = args
        .out_dir
        .join(format!("spans-{}.jsonl", args.workload.name()));
    recorder
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.lines.push(format!(
        "spans: {} written to {}",
        recorder.spans().len(),
        path.display()
    ));
    Ok(())
}

fn study_traced(args: &RunArgs, scratch: &Scratch, digest: &Digest) -> Result<Report, String> {
    let spec = ExperimentSpec::at_scale(STUDY_SCALE);
    let recorder = Recorder::new();
    let mut check = Check::default();
    let mut report = Report::default();
    let inputs = prepare_presets(&spec, Some(&recorder));
    let sink = CellEvents::default();
    let runner_pass = study_pass(
        &spec,
        ConfigSet::Figure5,
        WORKERS,
        &scratch.file("runner.store"),
        &sink,
    )?;
    check.outcome(&runner_pass.outcome, digest);
    // Each re-drive starts from an empty store. Untraced re-drives
    // bracket the traced one, so the overhead estimate does not inherit
    // the first re-drive's warm-up.
    let mut drive = |name: &str, recorder: Option<&Recorder>| {
        let d = redrive(
            &spec,
            ConfigSet::Figure5,
            &inputs,
            &scratch.file(name),
            recorder,
        )?;
        check.drive(&d, digest);
        Ok::<_, String>(d)
    };
    let before = drive("before.store", None)?.wall.as_secs_f64();
    let traced_drive = drive("traced.store", Some(&recorder))?;
    let after = drive("after.store", None)?.wall.as_secs_f64();
    report.lines.push(format!(
        "run_study with a recording sink: {} events",
        sink.events()
    ));
    let spans = recorder.spans();
    let layer_inputs = LayerInputs {
        spans: &spans,
        drive: &traced_drive,
        workers: WORKERS,
        runner: RunnerView::from_study(&runner_pass.registry, &sink),
        graph_edges: edges(&inputs),
        untraced_wall_s: (before + after) / 2.0,
        traced_wall_s: traced_drive.wall.as_secs_f64(),
    };
    finish_traced(args, &mut report, &recorder, layer_inputs)?;
    check.finish(&mut report);
    Ok(report)
}

/// Checks a re-drive against a warm store: every cell a store hit whose
/// row matches the digest, none simulated.
fn check_warm_drive(check: &mut Check, drive: &DriveReport, digest: &Digest) {
    for cell in &drive.cells {
        let verdict = match (&cell.error, &cell.row, &cell.stats) {
            (Some(e), _, _) => Err(format!("{}: {e}", cell.key)),
            (None, _, Some(_)) => Err(format!("{}: simulated on a warm store", cell.key)),
            (None, Some(row), None) => match digest.cells.get(&cell.key) {
                Some(&(cycles, _)) if cycles == row.total_cycles => Ok(()),
                _ => Err(format!("{}: store row differs from the digest", cell.key)),
            },
            (None, None, None) => Err(format!("{}: no row", cell.key)),
        };
        check.cell(verdict);
    }
}

fn store_traced(args: &RunArgs, scratch: &Scratch, digest: &Digest) -> Result<Report, String> {
    let spec = ExperimentSpec::at_scale(STORE_SCALE);
    let recorder = Recorder::new();
    let mut check = Check::default();
    let mut report = Report::default();
    let inputs = prepare_presets(&spec, Some(&recorder));
    let store_path = scratch.file("cold.store");
    let cold = study_pass(
        &spec,
        ConfigSet::Full,
        WORKERS,
        &store_path,
        &ggs_trace::NOOP,
    )?;
    check.outcome(&cold.outcome, digest);
    let cold = cold.outcome.study;
    let two_workers = warm_pass(
        &spec,
        &store_path,
        &ggs_trace::NOOP,
        &cold,
        digest,
        &mut check,
    )?
    .total_s;
    let one_worker = study_pass(&spec, ConfigSet::Full, 1, &store_path, &ggs_trace::NOOP)?;
    report.lines.push(format!(
        "warm pass: {:.3} s with 1 worker, {two_workers:.3} s with {WORKERS}",
        one_worker.total_s
    ));
    let sink = CellEvents::default();
    let runner_pass = warm_pass(&spec, &store_path, &sink, &cold, digest, &mut check)?;
    // Untraced re-drives bracket the traced one, as in `study`.
    let mut drive = |recorder: Option<&Recorder>| {
        let d = redrive(&spec, ConfigSet::Full, &inputs, &store_path, recorder)?;
        check_warm_drive(&mut check, &d, digest);
        Ok::<_, String>(d)
    };
    let before = drive(None)?.wall.as_secs_f64();
    let traced_drive = drive(Some(&recorder))?;
    let after = drive(None)?.wall.as_secs_f64();
    let spans = recorder.spans();
    let layer_inputs = LayerInputs {
        spans: &spans,
        drive: &traced_drive,
        workers: WORKERS,
        runner: RunnerView::from_study(&runner_pass.registry, &sink),
        graph_edges: edges(&inputs),
        untraced_wall_s: (before + after) / 2.0,
        traced_wall_s: traced_drive.wall.as_secs_f64(),
    };
    finish_traced(args, &mut report, &recorder, layer_inputs)?;
    check.finish(&mut report);
    Ok(report)
}

/// Regenerates `workload`'s digest from the current code and returns the
/// file text. The cells are re-driven through the public calls (which
/// yields kernel counts) and cross-checked against `run_study`.
pub fn write_digest(workload: Workload) -> Result<String, String> {
    let (scale, configs) = match workload {
        Workload::Study => (STUDY_SCALE, ConfigSet::Figure5),
        Workload::Store => (STORE_SCALE, ConfigSet::Full),
    };
    let spec = ExperimentSpec::at_scale(scale);
    let inputs = prepare_presets(&spec, None);
    let drive = Drive {
        spec: &spec,
        workers: WORKERS,
        store: None,
        recorder: None,
    }
    .run(&inputs, &study_cells(inputs.len(), configs));
    let mut digest = Digest::default();
    digest_cells(&mut digest, &drive)?;
    let outcome = run_study(
        &spec,
        &StudyOptions::new(configs, WORKERS),
        &MetricsRegistry::new(),
        &ggs_trace::NOOP,
    )
    .map_err(|e| e.to_string())?;
    let mut check = Check::default();
    check.outcome(&outcome, &digest);
    if check.failed > 0 || !check.problems.is_empty() {
        return Err(format!(
            "re-drive and run_study disagree: {:?}",
            check.problems
        ));
    }
    digest
        .exact
        .insert("all".to_owned(), outcome.study.exact_predictions() as u64);
    Ok(digest.render(&format!(
        "{}: run_study at scale {scale} over {configs:?} ({} cells)\nper cell: APP/GRAPH/CONFIG total_cycles kernels (simulated, deterministic)\nrefresh only together with tests/golden and BENCH_sim.json: perfbench/README.md",
        workload.name(),
        drive.cells.len()
    )))
}

fn digest_cells(digest: &mut Digest, drive: &DriveReport) -> Result<(), String> {
    for cell in &drive.cells {
        let stats = match (&cell.error, &cell.stats) {
            (None, Some(stats)) => stats,
            _ => return Err(format!("{}: {:?}", cell.key, cell.error)),
        };
        digest
            .cells
            .insert(cell.key.clone(), (stats.total_cycles, stats.kernels));
    }
    Ok(())
}
