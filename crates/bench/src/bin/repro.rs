//! `repro` — regenerates every table and figure of *Specializing
//! Coherence, Consistency, and Push/Pull for GPU Graph Analytics*
//! (ISPASS 2020).
//!
//! Usage (each subcommand accepts only the flags in its own table,
//! before or after the subcommand word; `repro <subcommand> --help`
//! prints that table):
//!
//! ```text
//! repro [--scale S] [--threads N] [--json PATH] [--svg PATH] [--trace-out PATH] [--all]
//!       [--deadline-ms N] [--inject-fault APP/GRAPH/CFG[=panic|hang]]...
//!       [--store PATH] [--store-compact] [--inject-store-fault torn[:BYTES]|short|crc]...
//!       [table1|table2|table3|table4|table5|cells|fig5|fig6|partial|flexible|traffic|gsi|summary|check|hybrid|all]...
//! repro trace [--scale S] [--trace-out PATH] [--trace-stride N] <app> <graph> <config>
//! repro bench [--iters N] [--smoke] [--out PATH]
//!             [--baseline PATH] [--threshold PCT] [--tier NAME]...
//! repro verify [--cell CODE]... [--smoke] [--mutations]
//! ```
//!
//! A flag outside the chosen subcommand's table, a missing or
//! non-positive numeric value, or a stray operand exits 2.
//!
//! `repro bench` times the fixed ten-cell benchmark slice, the
//! twelve-configuration grid sweep through a shared trace cache, and
//! the `rmat14`/`rmat16`/`rmat18` scale tiers (see `ggs_bench::bench`
//! and docs/performance.md), then writes the `BENCH_sim.json`
//! perf-trajectory point. `--tier NAME` (repeatable) restricts the
//! tier arm. `--smoke` is the CI mode: best of five iterations per
//! cell, compared against `--baseline` with a throughput-regression
//! threshold (`--threshold`, default 25%; CI passes 20); the process
//! exits 1 when the gate fails. Simulated cycles, tier behavior, and
//! peak RSS are part of the baseline, so behavior drift and memory
//! blow-ups are also caught.
//!
//! The study sections (`cells`, `fig5`, `fig6`, `partial`, `flexible`,
//! `summary`, or `--json`/`--svg`) share one run of the 36-workload
//! study through the fault-tolerant runner (see docs/robustness.md):
//! per-cell panic isolation, a watchdog (`--deadline-ms`, a wall-clock
//! limit on each cell's simulation), and checkpoint/resume via the
//! crash-safe result store (`--store PATH`: re-running the same command
//! after a kill simulates only the cells the store lacks, and on a warm
//! store it simulates nothing and only renders). A store has one writer:
//! while one process has it open, a second exits 2 with `result store
//! lock unavailable`. Failed or timed-out cells are listed by the
//! `cells` section and the figures are rendered from the surviving
//! cells; the exit status is 0 as long as the study itself completes.
//! `--inject-fault` sabotages named cells for testing the machinery; a
//! `hang` fault needs `--deadline-ms` to stop it, and exits 2 without
//! one. `--trace-out` writes the study's trace events and phase spans.
//! The study's flags exit 2 when no named section runs the study.
//!
//! `repro trace` simulates one (application, graph, configuration)
//! point with full instrumentation and writes the event stream to
//! `--trace-out` (default `trace.json`): Chrome trace-event JSON
//! loadable in Perfetto / `chrome://tracing`, or JSON-lines if the path
//! ends in `.jsonl`. `<graph>` is a preset mnemonic (`OLS`, `EML`, …)
//! or `rmat<N>` for a synthetic power-law graph with 2^N vertices
//! (scaled by `--scale`). `--trace-stride` (default 1000 cycles)
//! bounds the per-SM stall-sample and ownership-event rate.
//!
//! Default scale is 0.125 (inputs and cache capacities scaled together,
//! preserving every Table II class — see DESIGN.md).
//!
//! `repro verify` is the static companion to `check`: it model-checks
//! the coherence × consistency grid exhaustively (see `ggs-verify` and
//! the "Model checking" section of docs/checking.md). Every reachable
//! state of a small bounded configuration is enumerated per cell and the
//! protocol invariants are checked on each; the litmus suite enumerates
//! every interleaving of the classic message-passing / store-buffering /
//! CoRR / RMW-chain / release-acquire programs against per-model
//! forbidden and required outcome sets. `--cell G0` (repeatable)
//! restricts the grid, `--smoke` uses the smaller CI bounds, and
//! `--mutations` runs the self-test: ≥ 6 seeded protocol bugs that must
//! each be caught with a minimized, bridge-replayed counterexample.
//! Exits 1 on any violation, missed mutation, or truncated run.
//!
//! The `check` section is the CI gate (see `docs/checking.md`): it runs
//! the `ggs-check` static DRF/Table I certification over every
//! application × direction × consistency model, then the dynamic
//! coherence-protocol invariant checker over the coherence × consistency
//! hardware grid, and exits nonzero if anything is violated. `--all`
//! additionally certifies the extended application set (BFS). Like
//! `cells` and `hybrid`, it is not part of the `all` section (which
//! reproduces the paper's artifacts).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::str::FromStr;

use ggs_apps::AppKind;
use ggs_bench::render::TextTable;
use ggs_core::runner::{run_study, StudyOptions, StudyOutcome};
use ggs_core::study::{ConfigSet, Study};
use ggs_core::ExperimentSpec;
use ggs_graph::synth::{GraphPreset, SynthConfig};
use ggs_model::taxonomy::Traversal;
use ggs_model::{predict_full, GraphProfile};
use ggs_sim::SystemParams;

/// How a flag consumes command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// A boolean switch; takes no value.
    Switch,
    /// Takes one value; the last occurrence wins.
    Value,
    /// Takes one value per occurrence and may repeat.
    Repeated,
}

/// One entry of a subcommand's flag table.
struct Flag {
    name: &'static str,
    arity: Arity,
    /// Value placeholder in the usage line (empty for switches). `N`
    /// marks a positive integer, `S` and `PCT` a positive number.
    metavar: &'static str,
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        arity: Arity::Switch,
        metavar: "",
    }
}

const fn value(name: &'static str, metavar: &'static str) -> Flag {
    Flag {
        name,
        arity: Arity::Value,
        metavar,
    }
}

const fn repeated(name: &'static str, metavar: &'static str) -> Flag {
    Flag {
        name,
        arity: Arity::Repeated,
        metavar,
    }
}

/// A `repro` subcommand: its flag table, operand grammar, and help.
struct Command {
    /// Subcommand word; empty for the section runner.
    name: &'static str,
    /// Operand grammar for the usage line (the section runner's is
    /// generated from [`SECTIONS`]).
    operands: &'static str,
    flags: &'static [Flag],
    about: &'static str,
}

/// Section names the section runner accepts as operands.
const SECTIONS: [&str; 16] = [
    "table1", "table2", "table3", "table4", "table5", "cells", "fig5", "fig6", "partial",
    "flexible", "traffic", "gsi", "summary", "check", "hybrid", "all",
];

/// Section-runner flags that only the study reads: refused, not
/// ignored, when no named section runs the study.
const STUDY_FLAGS: [&str; 6] = [
    "--trace-out",
    "--deadline-ms",
    "--inject-fault",
    "--store",
    "--store-compact",
    "--inject-store-fault",
];

/// Every subcommand; the section runner (first) is the default.
const COMMANDS: [Command; 4] = [
    Command {
        name: "",
        operands: "",
        flags: &[
            value("--scale", "S"),
            value("--threads", "N"),
            value("--json", "PATH"),
            value("--svg", "PATH"),
            value("--trace-out", "PATH"),
            switch("--all"),
            value("--deadline-ms", "N"),
            repeated("--inject-fault", "APP/GRAPH/CFG[=panic|hang]"),
            value("--store", "PATH"),
            switch("--store-compact"),
            repeated("--inject-store-fault", "torn[:BYTES]|short|crc"),
        ],
        about: "regenerate the paper's tables and figures (default: all). cells, fig5, \
                fig6, partial, flexible, summary, --json and --svg share one run of the \
                36-workload study: failed cells are isolated, reported by cells and left \
                out of the figures; --deadline-ms limits each cell's simulation in \
                wall-clock time (a hang fault needs it); --store keeps results in a \
                crash-safe result store, so re-running the same command resumes a killed \
                study or renders from a warm store without simulating, and \
                --store-compact rewrites it after the run; one process at a time may open \
                a store, and a second exits 2 (docs/robustness.md); --trace-out writes the \
                study's events and phase spans. The study flags are refused when no \
                section runs the study. check certifies Table I contracts (static DRF) and \
                protocol invariants (dynamic), --all includes the extended app set; \
                hybrid sweeps the frontier-adaptive hybrid push/pull cells (H*) against \
                the 12 static configurations. cells, check and hybrid run only when named.",
    },
    Command {
        name: "trace",
        operands: "<app> <graph> <config>",
        flags: &[
            value("--scale", "S"),
            value("--trace-out", "PATH"),
            value("--trace-stride", "N"),
        ],
        about: "simulate one workload with instrumentation; <graph> is a preset \
                mnemonic or rmat<N> (2^N vertices, scaled by --scale); the trace is \
                Chrome trace-event JSON (.jsonl for JSON lines)",
    },
    Command {
        name: "bench",
        operands: "",
        flags: &[
            value("--iters", "N"),
            switch("--smoke"),
            value("--out", "PATH"),
            value("--baseline", "PATH"),
            value("--threshold", "PCT"),
            repeated("--tier", "NAME"),
        ],
        about: "time the ten-cell slice, the 12-config shared-trace-cache grid, \
                and the rmat14/16/18 scale tiers, then write the BENCH_sim.json \
                perf baseline; --tier restricts the tier arm, --smoke (CI) runs \
                best-of-5 per cell, and --baseline gates throughput, RSS, and \
                behavior regressions beyond --threshold percent \
                (docs/performance.md)",
    },
    Command {
        name: "verify",
        operands: "",
        flags: &[
            repeated("--cell", "CODE"),
            switch("--smoke"),
            switch("--mutations"),
        ],
        about: "exhaustively model-check the coherence x consistency grid \
                (ggs-verify): per-cell reachability with protocol invariants plus \
                the all-interleavings litmus suite; --cell restricts to named \
                cells (G0, D1, GR, ...), --smoke uses the CI bounds, --mutations \
                runs the seeded-bug self-test with bridge-replayed \
                counterexamples (docs/checking.md)",
    },
];

impl Command {
    /// The usage line, generated from the flag table.
    fn usage(&self) -> String {
        let mut line = String::from("repro");
        if !self.name.is_empty() {
            line.push(' ');
            line.push_str(self.name);
        }
        for flag in self.flags {
            line.push_str(&match flag.arity {
                Arity::Switch => format!(" [{}]", flag.name),
                Arity::Value => format!(" [{} {}]", flag.name, flag.metavar),
                Arity::Repeated => format!(" [{} {}]...", flag.name, flag.metavar),
            });
        }
        if self.name.is_empty() {
            line.push_str(&format!(" [{}]...", SECTIONS.join("|")));
        } else if !self.operands.is_empty() {
            line.push(' ');
            line.push_str(self.operands);
        }
        line
    }

    fn help(&self) -> String {
        format!("usage: {}\n  {}\n", self.usage(), self.about)
    }
}

/// What a command line asks for.
enum Parsed {
    /// Run the chosen subcommand.
    Run(Args),
    /// Print this help text and exit 0.
    Help(String),
}

/// The command line split by the flag tables: the chosen subcommand,
/// its flags in order (with values), and its operands.
struct Args {
    command: &'static Command,
    flags: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// Splits `raw` into flags and operands (flags may precede or
    /// follow the subcommand word), picks the subcommand from the first
    /// operand, and rejects any flag outside that subcommand's table.
    /// `--help` asks for the chosen subcommand's usage (every usage for
    /// the section runner).
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Parsed, String> {
        let mut flags = Vec::new();
        let mut operands = Vec::new();
        let mut help = false;
        while let Some(arg) = raw.next() {
            if arg == "--help" || arg == "-h" {
                help = true;
            } else if arg.len() > 1 && arg.starts_with('-') {
                // Flag arity is the same in every table that lists a
                // flag, so the union decides what consumes a value.
                let flag = COMMANDS
                    .iter()
                    .flat_map(|c| c.flags)
                    .find(|f| f.name == arg)
                    .ok_or_else(|| format!("unknown flag {arg} (see repro --help)"))?;
                let value = match flag.arity {
                    Arity::Switch => String::new(),
                    Arity::Value | Arity::Repeated => raw
                        .next()
                        .ok_or_else(|| format!("{arg} needs a value ({arg} {})", flag.metavar))?,
                };
                flags.push((flag.name, value));
            } else {
                operands.push(arg);
            }
        }
        let command = COMMANDS[1..]
            .iter()
            .find(|c| operands.first().is_some_and(|w| w == c.name))
            .unwrap_or(&COMMANDS[0]);
        if !command.name.is_empty() {
            operands.remove(0);
        }
        if help {
            return Ok(Parsed::Help(if command.name.is_empty() {
                COMMANDS.iter().map(Command::help).collect()
            } else {
                command.help()
            }));
        }
        for (name, _) in &flags {
            if !command.flags.iter().any(|f| f.name == *name) {
                let scope = if command.name.is_empty() {
                    "the table/figure sections".to_owned()
                } else {
                    format!("`repro {}`", command.name)
                };
                return Err(format!(
                    "{name} is not a flag of {scope}; usage: {}",
                    command.usage()
                ));
            }
        }
        Ok(Parsed::Run(Self {
            command,
            flags,
            operands,
        }))
    }

    /// Every value given for `name`, in command-line order.
    fn values(&self, name: &str) -> Vec<String> {
        self.flags
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// The last value given for `name`.
    fn value(&self, name: &str) -> Option<String> {
        self.values(name).pop()
    }

    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The last value of numeric flag `name`, if given, which must
    /// parse as `T` and be finite and positive.
    fn positive<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        let is_positive = v.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0);
        match v.parse::<T>() {
            Ok(parsed) if is_positive => Ok(Some(parsed)),
            _ => {
                let integer = self
                    .command
                    .flags
                    .iter()
                    .any(|f| f.name == name && f.metavar == "N");
                let what = if integer { "integer" } else { "number" };
                Err(format!("{name} needs a positive {what}"))
            }
        }
    }

    fn scale(&self) -> Result<f64, String> {
        Ok(self.positive("--scale")?.unwrap_or(0.125))
    }

    fn threads(&self) -> Result<usize, String> {
        Ok(self
            .positive("--threads")?
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get())))
    }
}

fn main() {
    if let Err(msg) = run(std::env::args().skip(1)) {
        die(&msg);
    }
}

/// Parses the command line and runs the subcommand it chose; `Err` is
/// a usage or setup error.
fn run(raw: impl Iterator<Item = String>) -> Result<(), String> {
    let args = match Args::parse(raw)? {
        Parsed::Run(args) => args,
        Parsed::Help(text) => {
            print!("{text}");
            return Ok(());
        }
    };
    let name = args.command.name;
    if !args.operands.is_empty() && !["", "trace"].contains(&name) {
        return Err(format!("{name} takes no operands, only flags"));
    }
    match name {
        "trace" => trace_cmd(&args),
        "bench" => bench_cmd(&args),
        "verify" => verify_cmd(&args),
        _ => sections_cmd(&args),
    }
}

/// `repro [SECTION]...`: the paper's tables and figures, plus the
/// `check` and `hybrid` sections when named.
fn sections_cmd(args: &Args) -> Result<(), String> {
    let mut sections = args.operands.clone();
    if sections.is_empty() {
        sections.push("all".to_owned());
    }
    if let Some(s) = sections.iter().find(|s| !SECTIONS.contains(&s.as_str())) {
        return Err(format!(
            "unknown section {s:?} (expected one of {})",
            SECTIONS.join("|")
        ));
    }
    let (scale, threads) = (args.scale()?, args.threads()?);
    let (json_path, svg_path) = (args.value("--json"), args.value("--svg"));
    let named = |name: &str| -> bool { sections.iter().any(|s| s == name) };
    let want = |name: &str| -> bool { named(name) || named("all") };
    let runs_study = named("cells")
        || ["fig5", "fig6", "summary", "partial", "flexible"]
            .iter()
            .any(|s| want(s))
        || json_path.is_some()
        || svg_path.is_some();
    // The study is set up before any section prints, so a refused one
    // exits 2 at once.
    let options = if runs_study {
        Some(study_options(args, threads)?)
    } else if let Some((flag, _)) = args.flags.iter().find(|(f, _)| STUDY_FLAGS.contains(f)) {
        return Err(format!(
            "{flag} applies to the study, which no named section runs \
             (cells, fig5, fig6, partial, flexible, summary)"
        ));
    } else {
        None
    };

    // `check` is a gate, not a paper artifact: it runs only when named
    // explicitly, never as part of `all`.
    if named("check") {
        check(scale, args.switch("--all"))?;
    }
    // `hybrid` is this repo's extension beyond the paper's 12-point
    // grid; like `check`, it runs only when named explicitly.
    if named("hybrid") {
        hybrid(scale)?;
    }

    if want("traffic") {
        traffic(scale)?;
    }
    if want("gsi") {
        gsi(scale)?;
    }

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2(scale);
    }
    if want("table3") {
        table3();
    }
    if want("table4") {
        table4(scale)?;
    }
    if want("table5") {
        table5(scale);
    }

    let Some(options) = options else {
        return Ok(());
    };
    let spec = ExperimentSpec::builder()
        .scale(scale)
        .build()
        .map_err(|e| e.to_string())?;
    // Cell panics are caught and reported by the runner; replace the
    // default hook so each one costs a single stderr line instead of a
    // full backtrace. Set RUST_BACKTRACE=1 to keep the default hook.
    if std::env::var_os("RUST_BACKTRACE").is_none() {
        std::panic::set_hook(Box::new(|info| {
            eprintln!("[repro] cell worker panicked: {info}");
        }));
    }
    eprintln!("[repro] running the 36-workload study at scale {scale} on {threads} threads…");
    let start = std::time::Instant::now();
    let metrics = ggs_trace::MetricsRegistry::new();
    // The study, then any compaction, both into the trace if one is
    // written (compaction emits `store_evict`).
    let run = |sink: &dyn ggs_trace::TraceSink| {
        let outcome = run_study(&spec, &options, &metrics, sink);
        let compaction = match (&options.store, &outcome) {
            (Some(store), Ok(_)) if args.switch("--store-compact") => {
                Some(store.compact(sink, start))
            }
            _ => None,
        };
        (outcome, compaction)
    };
    let (outcome, compaction) = if let Some(path) = &args.value("--trace-out") {
        let sink = open_sink(path)?;
        let ran = run(sink.as_ref());
        metrics.emit_phases(sink.as_ref());
        close_sink(path, sink)?;
        ran
    } else {
        run(&ggs_trace::NOOP)
    };
    let outcome = outcome.map_err(|e| e.to_string())?;
    eprintln!(
        "[repro] study finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    let study = &outcome.study;
    if !study.failures.is_empty() {
        eprintln!(
            "[repro] warning: {} cell(s) failed; figures are rendered from the \
             surviving cells (name the `cells` section for the per-cell report)",
            study.failures.len()
        );
        for cell in &study.failures {
            eprintln!("[repro]   {} {}: {}", cell.status, cell.key(), cell.detail);
        }
    }
    if let Some(Err(e)) = &compaction {
        eprintln!("[repro] warning: store compaction failed: {e}");
    }
    if let Some(path) = &json_path {
        write_file(path, study.to_json_pretty())?;
    }
    if named("cells") {
        cells(&outcome, compaction.and_then(Result::ok));
    }
    if want("fig5") {
        fig5(study);
    }
    if let Some(path) = &svg_path {
        write_file(path, fig5_svg(study))?;
    }
    if want("fig6") {
        fig6(study);
    }
    if want("partial") {
        partial(study);
    }
    if want("flexible") {
        flexible(study);
    }
    if want("summary") {
        summary(study);
    }
    Ok(())
}

/// The study's options from the command line, validated and with the
/// store (if any) open. Everything is checked before the store opens,
/// so a refused study leaves no files behind.
fn study_options(args: &Args, threads: usize) -> Result<StudyOptions, String> {
    let mut options = StudyOptions::new(ConfigSet::Figure5, threads);
    options.cell_deadline = args
        .positive("--deadline-ms")?
        .map(std::time::Duration::from_millis);
    let mut faults = ggs_core::FaultPlan::new();
    for spec in &args.values("--inject-fault") {
        faults = faults.parse_spec(spec).map_err(|e| e.to_string())?;
    }
    options.faults = faults;
    options.validate().map_err(|e| e.to_string())?;

    let store_path = args.value("--store");
    let inject_store_faults = args.values("--inject-store-fault");
    if store_path.is_none() && (args.switch("--store-compact") || !inject_store_faults.is_empty()) {
        return Err("--store-compact and --inject-store-fault require --store".to_owned());
    }
    // Store faults fire only on appends, so arming them before the open
    // still sabotages the run, and a bad spec leaves no store behind.
    let mut store_faults = ggs_core::StoreFaults::none();
    for spec in &inject_store_faults {
        store_faults = store_faults.parse_spec(spec).map_err(|e| e.to_string())?;
    }
    if let Some(path) = &store_path {
        let store = ggs_core::Store::open_with(std::path::Path::new(path), store_faults)
            .map_err(|e| format!("cannot open store {path}: {e}"))?;
        options.store = Some(store);
    }
    Ok(options)
}

/// The `cells` section: each failed or timed-out cell, the cell totals,
/// the store's load report and any compaction.
fn cells(outcome: &StudyOutcome, compaction: Option<ggs_core::CompactReport>) {
    for cell in &outcome.study.failures {
        println!(
            "  {:7} {} (attempt {}): {}",
            cell.status.to_string().to_uppercase(),
            cell.key(),
            cell.attempts,
            cell.detail
        );
    }
    let (ok, failed, timeout, skipped) = outcome.counts();
    println!(
        "study: {} cells — {ok} ok, {failed} failed, {timeout} timeout, {skipped} skipped",
        outcome.cells.len()
    );
    if let Some(report) = &outcome.store_report {
        println!(
            "store: {} records, {} corrupt span(s) ({} bytes skipped)",
            report.records,
            report.corrupt.len(),
            report.corrupt_bytes()
        );
    }
    if let Some(report) = compaction {
        println!("store compacted: {report}");
    }
    println!();
}

/// Reports a usage or setup error and exits 2; only `main` calls it.
fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Writes `contents` to `path` and says so on stderr.
fn write_file(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("[repro] wrote {path}");
    Ok(())
}

type BoxedSink = Box<dyn ggs_trace::TraceSink>;

/// Opens `path` as a trace sink: JSON lines when the path ends in
/// `.jsonl`, Chrome trace-event JSON otherwise.
fn open_sink(path: &str) -> Result<BoxedSink, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let file = std::io::BufWriter::new(file);
    Ok(Box::new(if path.ends_with(".jsonl") {
        ggs_trace::WriterSink::jsonl(file)
    } else {
        ggs_trace::WriterSink::chrome(file)
    }))
}

fn close_sink(path: &str, sink: BoxedSink) -> Result<(), String> {
    sink.finish()
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("[repro] wrote {path}");
    Ok(())
}

/// `repro trace <app> <graph> <config>`: one fully-instrumented
/// simulation, streamed to a trace file.
fn trace_cmd(args: &Args) -> Result<(), String> {
    use ggs_core::experiment::run_workload;
    use ggs_trace::Tracer;

    let [app, graph_name, config] = args.operands.as_slice() else {
        return Err(
            "trace needs exactly three operands: repro trace <app> <graph> <config>".to_owned(),
        );
    };
    let (scale, stride) = (args.scale()?, args.positive("--trace-stride")?);
    let stride = stride.unwrap_or(1000);
    let app: AppKind = app.parse().map_err(|e| format!("{e}"))?;
    let config: ggs_model::SystemConfig = config.parse().map_err(|e| format!("{e}"))?;
    let graph = trace_graph(graph_name, scale)?;
    let spec = ExperimentSpec::builder()
        .scale(scale)
        .build()
        .map_err(|e| e.to_string())?;
    let path = args.value("--trace-out");
    let path = path.as_deref().unwrap_or("trace.json");
    eprintln!(
        "[repro] tracing {app} on {graph_name} ({} vertices, {} edges) under {config}, \
         stride {stride}…",
        graph.num_vertices(),
        graph.num_edges()
    );
    let sink = open_sink(path)?;
    let tracer = Tracer::new(sink.as_ref(), stride);
    let stats =
        run_workload(app, &graph, config, &spec, tracer, None).map_err(|e| e.to_string())?;
    close_sink(path, sink)?;
    println!(
        "{app} on {graph_name} under {config}: {} cycles over {} kernels",
        stats.total_cycles(),
        stats.kernels
    );
    Ok(())
}

/// `repro bench`: times the fixed benchmark slice, the shared-cache
/// grid sweep, and the scale tiers; writes/prints the
/// `BENCH_sim.json` report, and optionally gates against a committed
/// baseline (exit 1 on regression). See docs/performance.md.
fn bench_cmd(args: &Args) -> Result<(), String> {
    use ggs_bench::bench::{
        peak_rss_kb, run_grid, run_slice, run_tier, BenchReport, BENCH_GRAPH, BENCH_SCALE, SLICE,
        TIERS,
    };

    // Smoke pins best-of-5: one iteration is too exposed to a busy
    // CI runner for the throughput arm of the gate, and five keep the
    // per-cell minima stable enough for a 20% backstop while holding
    // the slice under a second of wall clock.
    let iters = args.positive("--iters")?.unwrap_or(3);
    let threshold_pct = args.positive("--threshold")?.unwrap_or(25.0);
    let iters = if args.switch("--smoke") { 5 } else { iters };
    // Read the baseline before benchmarking, so a bad one fails at once.
    let baseline = match args.value("--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let base = BenchReport::from_json(&text)
                .map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
            Some((path, base))
        }
        None => None,
    };
    eprintln!(
        "[repro] benchmarking the {}-cell slice ({BENCH_GRAPH}, scale {BENCH_SCALE}), \
         best of {iters} iteration(s) per cell…",
        SLICE.len()
    );
    let mut progress = |line: &str| eprintln!("[repro]   {line}");
    let mut report = run_slice(iters, &mut progress);
    eprintln!("[repro] sweeping the 12-configuration grid with a shared trace cache…");
    report.grid = Some(run_grid(&mut progress));
    let tiers = args.values("--tier");
    let tier_names: Vec<&str> = if tiers.is_empty() {
        TIERS.to_vec()
    } else {
        tiers.iter().map(String::as_str).collect()
    };
    eprintln!(
        "[repro] running {} scale tier(s): {}…",
        tier_names.len(),
        tier_names.join(", ")
    );
    for tier in tier_names {
        report.tiers.push(run_tier(tier, &mut progress)?);
    }
    // Re-sample the RSS high-water mark now that the big tiers ran —
    // the sweep path's memory footprint is the point of the gate.
    report.peak_rss_kb = peak_rss_kb();
    let grid_line = report
        .grid
        .as_ref()
        .map(|g| format!(", grid {:.3} cells/sec", g.cells_per_sec()))
        .unwrap_or_default();
    println!(
        "bench: {} cells in {:.2} s wall — {:.3} cells/sec{}, {} tier(s){}",
        report.cells.len(),
        report.total_wall().as_secs_f64(),
        report.cells_per_sec(),
        grid_line,
        report.tiers.len(),
        match report.peak_rss_kb {
            Some(kb) => format!(", peak RSS {kb} KiB"),
            None => String::new(),
        }
    );
    if let Some(path) = &args.value("--out") {
        write_file(path, report.to_json_pretty())?;
    }
    if let Some((path, base)) = &baseline {
        let failures = ggs_bench::bench::regression_failures(&report, base, threshold_pct);
        if failures.is_empty() {
            println!(
                "bench: within {threshold_pct}% of the {path} baseline ({:.3} cells/sec)",
                base.cells_per_sec()
            );
        } else {
            for f in &failures {
                eprintln!("repro: bench regression: {f}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `repro verify`: exhaustive explicit-state model checking of the
/// coherence × consistency grid (see `ggs-verify` and the "Model
/// checking" section of docs/checking.md). Exits 1 on any invariant
/// violation, forbidden litmus outcome, missing required outcome,
/// truncated run, or missed mutation.
fn verify_cmd(args: &Args) -> Result<(), String> {
    use ggs_sim::config::HwConfig;

    let (smoke, mutations) = (args.switch("--smoke"), args.switch("--mutations"));
    let cells = args
        .values("--cell")
        .iter()
        .map(|c| c.parse::<HwConfig>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{e} (expected a cell code like G0 or DR)"))?;
    eprintln!(
        "[repro] model-checking {} with {} bounds{}…",
        if cells.is_empty() {
            "the full coherence x consistency grid".to_owned()
        } else {
            format!("{} cell(s)", cells.len())
        },
        if smoke { "smoke" } else { "full" },
        if mutations {
            ", then hunting the seeded mutations"
        } else {
            ""
        },
    );
    let start = std::time::Instant::now();
    let report = ggs_verify::run_verify(&ggs_verify::VerifyOptions {
        cells,
        smoke,
        mutations,
    });
    eprintln!(
        "[repro] model check finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    print!("{report}");
    if !report.passed() {
        std::process::exit(1);
    }
    Ok(())
}

/// Resolves a `repro trace` graph operand: a preset mnemonic, or
/// `rmat<N>` for a power-law graph with 2^N vertices (before `--scale`
/// is applied) and average degree 16.
fn trace_graph(name: &str, scale: f64) -> Result<ggs_graph::Csr, String> {
    if let Some(exp) = name
        .strip_prefix("rmat")
        .and_then(|s| s.parse::<u32>().ok())
    {
        if !(4..=28).contains(&exp) {
            return Err("rmat exponent must be between 4 and 28".to_owned());
        }
        return Ok(ggs_bench::bench::rmat_graph(exp, scale));
    }
    let preset = name
        .parse::<GraphPreset>()
        .map_err(|e| format!("{e} (expected a preset mnemonic or rmat<N>)"))?;
    Ok(SynthConfig::preset(preset).scale(scale).generate())
}

/// The `ggs-check` certification sweep (the CI gate; `docs/checking.md`):
///
/// 1. **Static** — every application × supported direction is traced on
///    the most irregular input family (EML) and run through the DRF race
///    detector and Table I contract checker, once per consistency model
///    (the race verdict is model-independent; the synchronization
///    counts are not).
/// 2. **Dynamic** — every workload is simulated with the
///    coherence-protocol invariant checker enabled, across the full
///    coherence × consistency hardware grid.
///
/// Exits with status 1 if any race, contract violation, or protocol
/// invariant violation is found.
fn check(scale: f64, extended: bool) -> Result<(), String> {
    use ggs_check::certify::{certify_matrix, run_protocol_checked};
    use ggs_sim::config::{ConsistencyModel, HwConfig};

    let mut dirty = false;
    let graph = SynthConfig::preset(GraphPreset::Eml)
        .scale(scale)
        .generate();

    println!("== Check: static DRF + Table I contract certification (EML, scale {scale}) ==");
    for model in ConsistencyModel::ALL {
        let reports = certify_matrix(&graph, model, extended).map_err(|e| e.to_string())?;
        for report in reports {
            println!("{}", report.summary_line());
            if !report.is_clean() {
                dirty = true;
                for v in &report.violations {
                    println!("    {v}");
                }
            }
        }
    }

    println!();
    println!("== Check: dynamic protocol invariants (coherence x consistency grid) ==");
    let params = SystemParams::default()
        .scaled_caches(scale)
        .map_err(|e| e.to_string())?;
    let apps = AppKind::ALL
        .into_iter()
        .chain(extended.then_some(AppKind::EXTENDED).into_iter().flatten());
    for app in apps {
        for &prop in app.supported_propagations() {
            let mut line = format!("{:4} {:9}:", app.mnemonic(), prop.to_string());
            for hw in HwConfig::all() {
                let violations = run_protocol_checked(app, &graph, prop, hw, &params)
                    .map_err(|e| e.to_string())?;
                if violations.is_empty() {
                    line.push_str(&format!(" {}=ok", hw.code()));
                } else {
                    dirty = true;
                    line.push_str(&format!(" {}=FAIL({})", hw.code(), violations.len()));
                    for v in violations.iter().take(5) {
                        eprintln!("    {v}");
                    }
                }
            }
            println!("{line}");
        }
    }

    if dirty {
        eprintln!("repro: check FAILED — violations listed above");
        std::process::exit(1);
    }
    println!();
    println!("check: all contracts certified, all protocol invariants hold");
    Ok(())
}

/// The hybrid extension sweep: for every frontier app × graph preset,
/// simulate the four frontier-adaptive `H*` cells alongside the full
/// 12-point static grid and report where dynamic direction switching
/// beats the best static configuration (EXPERIMENTS.md, "Dynamic vs.
/// best-static direction"). Each workload's push, pull and hybrid
/// streams are built once and shared by the configurations that run
/// them.
fn hybrid(scale: f64) -> Result<(), String> {
    use ggs_core::experiment::{produce_stream, run_stream_budgeted};
    use ggs_core::sweep::hybrid_configs;
    use ggs_core::{GgsError, Tracer};
    use ggs_model::SystemConfig;

    println!("== Hybrid: frontier-adaptive push/pull vs best static (scale {scale}) ==");
    let spec = ExperimentSpec::at_scale(scale);
    let mut t = TextTable::new([
        "Workload",
        "best static",
        "cycles",
        "best hybrid",
        "cycles",
        "hybrid/static",
        "winner",
    ]);
    let mut wins = 0usize;
    let mut total = 0usize;
    for app in [AppKind::Sssp, AppKind::Bfs] {
        let hybrid_cells = hybrid_configs(app);
        let static_cells = SystemConfig::all_for(app.algo_profile().traversal);
        for preset in GraphPreset::ALL {
            let graph = SynthConfig::preset(preset).scale(scale).generate();
            // Both config lists are propagation-major, so holding the
            // current direction's stream builds each stream once.
            let mut stream = (None, Vec::new());
            let mut cycles = |config: SystemConfig| -> Result<_, GgsError> {
                let prop = config.propagation;
                if stream.0 != Some(prop) {
                    stream = (Some(prop), produce_stream(app, &graph, prop, &spec.params)?);
                }
                let stats =
                    run_stream_budgeted(&stream.1, app, config, &spec, Tracer::off(), None)?;
                Ok((config, stats.total_cycles()))
            };
            let mut best = |configs: &[SystemConfig]| {
                let runs = configs.iter().map(|&c| cycles(c));
                let runs = runs
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                runs.into_iter()
                    .min_by_key(|&(_, cycles)| cycles)
                    .ok_or_else(|| "hybrid sweep is empty".to_owned())
            };
            let (s_cfg, s_cycles) = best(&static_cells)?;
            let (h_cfg, h_cycles) = best(&hybrid_cells)?;
            total += 1;
            let won = h_cycles < s_cycles;
            if won {
                wins += 1;
            }
            t.row([
                format!("{}-{}", app.mnemonic(), preset.mnemonic()),
                s_cfg.code(),
                s_cycles.to_string(),
                h_cfg.code(),
                h_cycles.to_string(),
                format!("{:.3}", h_cycles as f64 / s_cycles as f64),
                if won { "HYBRID".into() } else { String::new() },
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "dynamic direction switching beats the best static configuration on \
         {wins} of {total} frontier workloads (threshold {}, push below / pull above)\n",
        ggs_model::Propagation::HYBRID_DENSITY_THRESHOLD
    );
    Ok(())
}

/// Table I: the design space (static text; the code itself is the
/// artifact).
fn table1() {
    println!("== Table I: implementation design space ==");
    let mut t = TextTable::new(["Dimension", "Option", "Salient features"]);
    t.row([
        "Push vs. Pull",
        "Pull (T)",
        "target outer loop; dense local updates; sparse remote reads; no atomics",
    ]);
    t.row([
        "",
        "Push (S)",
        "source outer loop; dense local reads; sparse remote atomics",
    ]);
    t.row([
        "",
        "Push+Pull (D)",
        "dynamic source/target; racy remote reads and updates",
    ]);
    t.row([
        "Coherence",
        "GPU (G)",
        "write-through + self-invalidate at sync; atomics at L2",
    ]);
    t.row([
        "",
        "DeNovo (D)",
        "ownership at L1; atomics at L1; good with update reuse",
    ]);
    t.row([
        "Consistency",
        "DRF0 (0)",
        "every atomic paired acquire/release; simplest to program",
    ]);
    t.row(["", "DRF1 (1)", "unpaired atomics overlap data accesses"]);
    t.row([
        "",
        "DRFrlx (R)",
        "relaxed atomics overlap each other; MLP hides imbalance",
    ]);
    println!("{}", t.render());
}

/// Table II: input graph statistics and taxonomy classes.
fn table2(scale: f64) {
    println!("== Table II: graph inputs at scale {scale} (classes must match the paper) ==");
    let params = ggs_model::MetricParams::default().scaled_caches(scale);
    let mut t = TextTable::new([
        "Graph",
        "Vertices",
        "Edges",
        "MaxDeg",
        "AvgDeg",
        "StdDev",
        "Volume(KB)",
        "ANL",
        "ANR",
        "Reuse",
        "Imbalance",
        "Classes",
    ]);
    for p in GraphPreset::ALL {
        let g = SynthConfig::preset(p).scale(scale).generate();
        let prof = GraphProfile::measure(&g, &params);
        t.row([
            p.mnemonic().to_owned(),
            prof.vertices.to_string(),
            prof.edges.to_string(),
            prof.degrees.max.to_string(),
            format!("{:.3}", prof.degrees.avg),
            format!("{:.3}", prof.degrees.std_dev),
            format!("{:.3} ({})", prof.volume_kb, prof.volume.letter()),
            format!("{:.3}", prof.anl),
            format!("{:.3}", prof.anr),
            format!("{:.3} ({})", prof.reuse, prof.reuse_class.letter()),
            format!("{:.3} ({})", prof.imbalance, prof.imbalance_class.letter()),
            prof.class_code(),
        ]);
    }
    println!("{}", t.render());
}

/// Table III: algorithmic properties.
fn table3() {
    println!("== Table III: algorithmic properties ==");
    let mut t = TextTable::new(["App", "Traversal", "Control", "Information"]);
    for app in AppKind::ALL {
        let p = app.algo_profile();
        let bias = |b: Option<ggs_model::AlgoBias>| match b {
            Some(ggs_model::AlgoBias::Source) => "Source",
            Some(ggs_model::AlgoBias::Target) => "Target",
            Some(ggs_model::AlgoBias::Symmetric) => "Symmetric",
            None => "-",
        };
        t.row([
            app.mnemonic(),
            match p.traversal {
                Traversal::Static => "Static",
                Traversal::Dynamic => "Dynamic",
            },
            bias(p.control),
            bias(p.information),
        ]);
    }
    println!("{}", t.render());
}

/// Table IV: simulated system parameters.
fn table4(scale: f64) -> Result<(), String> {
    println!("== Table IV: simulated system parameters (scale {scale}) ==");
    let p = SystemParams::default()
        .scaled_caches(scale)
        .map_err(|e| e.to_string())?;
    let mut t = TextTable::new(["Parameter", "Value"]);
    t.row(["GPU CUs (SMs)", &p.num_sms.to_string()]);
    t.row([
        "L1 size (8-way)",
        &format!("{} KB per SM", p.l1_bytes / 1024),
    ]);
    t.row([
        "L2 size (16 banks, NUCA)",
        &format!("{} KB shared", p.l2_bytes / 1024),
    ]);
    t.row([
        "Store buffer",
        &format!("{} entries", p.store_buffer_entries),
    ]);
    t.row(["L1 MSHRs", &format!("{} entries", p.mshr_entries)]);
    t.row(["L1 hit latency", "1 cycle"]);
    t.row(["Remote L1 latency", "35-83 cycles"]);
    t.row(["L2 hit latency", "29-59 cycles"]);
    t.row(["Memory latency", "197-255 cycles"]);
    println!("{}", t.render());
    Ok(())
}

/// Table V: model predictions for every workload.
fn table5(scale: f64) {
    println!("== Table V: model-predicted best configuration per workload ==");
    let params = ggs_model::MetricParams::default().scaled_caches(scale);
    let mut rows: BTreeMap<GraphPreset, Vec<String>> = BTreeMap::new();
    for p in GraphPreset::ALL {
        let g = SynthConfig::preset(p).scale(scale).generate();
        let prof = GraphProfile::measure(&g, &params);
        let row: Vec<String> = AppKind::ALL
            .iter()
            .map(|a| predict_full(&a.algo_profile(), &prof).code())
            .collect();
        rows.insert(p, row);
    }
    let mut t = TextTable::new(["", "PR", "SSSP", "MIS", "CLR", "BC", "CC"]);
    for (p, row) in rows {
        let mut cells = vec![p.mnemonic().to_owned()];
        cells.extend(row);
        t.row(cells);
    }
    println!("{}", t.render());
}

/// Figure 5: normalized execution-time breakdown per workload.
fn fig5(study: &Study) {
    println!("== Figure 5: normalized execution time (to TG0; DG1 for CC) ==");
    println!("   columns: config = normalized execution time; BEST = fastest config, PRED = model's pick");
    for report in &study.reports {
        let mut line = format!("{:4} {:4} |", report.app, report.graph);
        for row in &report.rows {
            // A degraded study can lose the baseline row; fall back to
            // raw cycles rather than panicking (docs/robustness.md).
            match report.normalized(&row.config) {
                Some(norm) => line.push_str(&format!(" {}={:.2}", row.config, norm)),
                None => line.push_str(&format!(" {}={}cyc", row.config, row.total_cycles)),
            }
        }
        let best = report.best.clone();
        let pred = report.predicted.clone();
        line.push_str(&format!("  BEST={best} PRED={pred}"));
        println!("{line}");
    }
    println!();
    // Geomean BEST and PRED per app, as the extra Figure 5 bars.
    let mut t = TextTable::new(["App", "geomean BEST/base", "geomean PRED/base"]);
    for app in AppKind::ALL {
        let reports: Vec<_> = study
            .reports
            .iter()
            .filter(|r| r.app == app.mnemonic())
            .collect();
        let geo = |f: &dyn Fn(&ggs_core::WorkloadReport) -> Option<f64>| -> f64 {
            let norms: Vec<f64> = reports.iter().filter_map(|r| f(r)).collect();
            (norms.iter().map(|v| v.ln()).sum::<f64>() / norms.len() as f64).exp()
        };
        let best = geo(&|r| r.normalized(&r.best));
        let pred = geo(&|r| r.normalized(&r.predicted));
        t.row([
            app.mnemonic().to_owned(),
            format!("{best:.3}"),
            format!("{pred:.3}"),
        ]);
    }
    println!("{}", t.render());
}

/// Renders Figure 5 as a standalone SVG: one group per workload, one
/// stacked bar per configuration (normalized to TG0/DG1), stacked by
/// the five stall classes.
fn fig5_svg(study: &Study) -> String {
    use ggs_bench::svg::{Bar, BarGroup, GroupedBarChart};
    let groups = study
        .reports
        .iter()
        .map(|r| BarGroup {
            label: format!("{}-{}", r.app, r.graph),
            bars: r
                .rows
                .iter()
                .filter_map(|row| {
                    let norm = r.normalized(&row.config)?;
                    Some(Bar {
                        label: row.config.clone(),
                        segments: row.fractions.iter().map(|f| f * norm).collect(),
                    })
                })
                .collect(),
        })
        .collect();
    GroupedBarChart {
        title: format!(
            "Figure 5: GPU execution time, normalized to TG0 (DG1 for CC) — scale {}",
            study.scale
        ),
        legend: ["Busy", "Comp", "Data", "Sync", "Idle"]
            .into_iter()
            .map(str::to_owned)
            .collect(),
        groups,
    }
    .render()
}

/// Figure 6: workloads where the default (SGR / DGR) is not best.
fn fig6(study: &Study) {
    println!("== Figure 6: SGR (DGR for CC) vs BEST vs PRED ==");
    let mut t = TextTable::new([
        "Workload",
        "Default",
        "BEST",
        "PRED",
        "reduction(BEST vs default)",
        "PRED within",
    ]);
    for (r, reduction) in study.figure6_rows() {
        let pred_within = match r.prediction_slowdown() {
            Some(s) => format!("{:.1}%", s * 100.0),
            None => "n/a".to_owned(),
        };
        t.row([
            format!("{}-{}", r.app, r.graph),
            r.default_config().to_owned(),
            r.best.clone(),
            r.predicted.clone(),
            format!("{:.0}%", reduction * 100.0),
            pred_within,
        ]);
    }
    println!("{}", t.render());
}

/// NoC traffic analysis: line payloads and control messages per
/// configuration — the communication-volume view of the coherence
/// tradeoff (DeNovo trades L2 atomic round-trips for registrations and
/// ownership transfers).
fn traffic(scale: f64) -> Result<(), String> {
    use ggs_apps::AppKind;
    use ggs_core::experiment::run_workload;
    use ggs_sim::noc::{Mesh, FLIT_BYTES};
    use ggs_trace::Tracer;

    println!("== NoC traffic per configuration (PR on OLS and EML) ==");
    let spec = ExperimentSpec::at_scale(scale);
    // The flits the mesh moves (and the `noc_totals` trace event
    // reports): a head flit plus payload flits per line, one flit per
    // control message.
    let mesh = Mesh::new(&spec.params);
    let mut t = TextTable::new([
        "Workload",
        "Config",
        "line transfers",
        "control msgs",
        "~KB moved",
    ]);
    for preset in [GraphPreset::Ols, GraphPreset::Eml] {
        let graph = SynthConfig::preset(preset).scale(scale).generate();
        for code in ["TG0", "SGR", "SDR"] {
            let cfg = code.parse().expect("valid config");
            let stats = run_workload(AppKind::Pr, &graph, cfg, &spec, Tracer::off(), None)
                .map_err(|e| e.to_string())?;
            let flits =
                mesh.flit_total(stats.mem.noc_line_transfers, stats.mem.noc_control_messages);
            let kb = flits * u64::from(FLIT_BYTES) / 1024;
            t.row([
                format!("PR-{preset}"),
                code.to_owned(),
                stats.mem.noc_line_transfers.to_string(),
                stats.mem.noc_control_messages.to_string(),
                kb.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    Ok(())
}

/// GSI-style per-data-structure attribution for two contrasting
/// workloads: where each array's accesses execute and what they cost
/// under the model-predicted configuration.
fn gsi(scale: f64) -> Result<(), String> {
    use ggs_apps::AppKind;
    use ggs_core::experiment::run_workload_profiled;
    use ggs_trace::Tracer;

    println!("== Per-data-structure attribution (GSI-style) ==");
    let spec = ExperimentSpec::at_scale(scale);
    for (app, preset, code) in [
        (AppKind::Pr, GraphPreset::Eml, "SGR"),
        (AppKind::Cc, GraphPreset::Raj, "DD1"),
    ] {
        let graph = SynthConfig::preset(preset).scale(scale).generate();
        let cfg = code.parse().expect("valid config");
        let (stats, regions) = run_workload_profiled(app, &graph, cfg, &spec, Tracer::off(), None)
            .map_err(|e| e.to_string())?;
        println!(
            "{app}-{preset} under {code}: {} cycles",
            stats.total_cycles()
        );
        let mut t = TextTable::new(["array", "loads", "stores", "atomics", "L1 hit%", "avg lat"]);
        for (name, s) in &regions {
            if s.accesses() == 0 {
                continue;
            }
            let hit = if s.loads > 0 {
                100.0 * s.l1_hits as f64 / s.loads as f64
            } else {
                0.0
            };
            t.row([
                name.clone(),
                s.loads.to_string(),
                s.stores.to_string(),
                s.atomics.to_string(),
                format!("{hit:.1}"),
                format!("{:.1}", s.avg_latency()),
            ]);
        }
        println!("{}", t.render());
    }
    Ok(())
}

/// §IV-B / §VI: the partial design space (hardware without DRFrlx).
///
/// For each static workload: the empirically best configuration when
/// DRFrlx is unavailable, whether the push/pull choice *flips* relative
/// to the full design space, and whether the partial model (Figure 4
/// extension) predicts the restricted best.
fn partial(study: &Study) {
    println!("== Partial design space (no DRFrlx hardware, §IV-B) ==");
    let mut t = TextTable::new([
        "Workload",
        "BEST(full)",
        "BEST(no-rlx)",
        "PRED(partial)",
        "flip?",
        "pred ok?",
    ]);
    let mut flips_predicted = 0;
    let mut exact = 0;
    let mut total = 0;
    for r in &study.reports {
        if r.app == "CC" {
            continue; // CC's recommendation (DD1) never uses DRFrlx
        }
        // A degraded study can lose every non-rlx row of a workload;
        // skip it rather than panicking.
        let Some(best_norlx) = r.best_without_drfrlx() else {
            continue;
        };
        total += 1;
        let flip = r.flips_to_pull_without_drfrlx();
        if flip && r.predicted_partial.starts_with('T') {
            flips_predicted += 1;
        }
        let ok = r.predicted_partial == best_norlx;
        if ok {
            exact += 1;
        }
        t.row([
            format!("{}-{}", r.app, r.graph),
            r.best.clone(),
            best_norlx.to_owned(),
            r.predicted_partial.clone(),
            if flip { "PULL".into() } else { String::new() },
            if ok { "yes".into() } else { "no".into() },
        ]);
    }
    println!("{}", t.render());
    let flips = study.pull_flips_without_drfrlx();
    println!(
        "workloads flipping to pull without DRFrlx: {flips} (paper: 7);          partial model predicts the flip for {flips_predicted} of them (paper: 4 of 7)"
    );
    println!("partial model exact on {exact}/{total} static workloads\n");
}

/// Quantifies the paper's flexibility motivation: how much a system
/// locked to one configuration loses versus per-workload BEST and
/// versus following the model's per-workload prediction.
fn flexible(study: &Study) {
    println!("== Flexibility: fixed configurations vs adaptive selection ==");
    let geomean = |norms: &[f64]| -> f64 {
        (norms.iter().map(|v| v.ln()).sum::<f64>() / norms.len() as f64).exp()
    };
    let static_reports: Vec<_> = study.reports.iter().filter(|r| r.app != "CC").collect();
    let mut t = TextTable::new(["Strategy", "geomean time / BEST (static workloads)"]);
    for code in ["TG0", "SG1", "SGR", "SD1", "SDR"] {
        let norms: Vec<f64> = static_reports
            .iter()
            .filter_map(|r| Some(r.cycles_of(code)? as f64 / r.cycles_of(&r.best)? as f64))
            .collect();
        t.row([format!("always {code}"), format!("{:.3}", geomean(&norms))]);
    }
    let pred_norms: Vec<f64> = static_reports
        .iter()
        .filter_map(|r| Some(r.cycles_of(&r.predicted)? as f64 / r.cycles_of(&r.best)? as f64))
        .collect();
    t.row([
        "model-predicted per workload".to_owned(),
        format!("{:.3}", geomean(&pred_norms)),
    ]);
    t.row(["oracle BEST per workload".to_owned(), "1.000".to_owned()]);
    println!("{}", t.render());
}

/// §VI headline numbers.
fn summary(study: &Study) {
    println!("== Summary (paper §VI headline claims vs this reproduction) ==");
    let fig6 = study.figure6_rows();
    let reductions: Vec<f64> = fig6.iter().map(|(_, r)| *r).collect();
    let avg = if reductions.is_empty() {
        0.0
    } else {
        reductions.iter().sum::<f64>() / reductions.len() as f64
    };
    let max = reductions.iter().copied().fold(0.0, f64::max);
    println!(
        "workloads where the default config (SGR/DGR) is not best: {} (paper: 12)",
        fig6.len()
    );
    println!(
        "execution-time reduction of BEST vs default on those: avg {:.0}%, max {:.0}% (paper: avg 44%, max 87%)",
        avg * 100.0,
        max * 100.0
    );
    println!(
        "model picks the exact best configuration for {}/36 workloads (paper: 28/36)",
        study.exact_predictions()
    );
    println!(
        "worst model misprediction costs {:.1}% over best (paper: <= 3.5%)",
        study.worst_prediction_slowdown() * 100.0
    );
    // Interdependence: workloads whose best flips to pull without DRFrlx.
    println!(
        "workloads preferring push with DRFrlx but pull without it: {} (paper: 7)",
        study.pull_flips_without_drfrlx()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The parser splits arguments by the union of every table, so a
    /// flag must take a value (with the same metavar) in every table
    /// that lists it or in none.
    #[test]
    fn each_flag_has_one_arity_across_tables() {
        let all: Vec<&Flag> = COMMANDS.iter().flat_map(|c| c.flags).collect();
        for a in &all {
            for b in all.iter().filter(|b| b.name == a.name) {
                assert_eq!((a.arity, a.metavar), (b.arity, b.metavar), "{}", a.name);
            }
        }
        let mut names: Vec<&str> = all.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "{names:?}");
    }

    /// The words the parser gives a meaning to (subcommand words,
    /// section names and flags, as the tables list them), and numeric
    /// values at and past the edges of what `positive` accepts.
    fn vocabulary() -> [Vec<&'static str>; 2] {
        let words = COMMANDS
            .iter()
            .flat_map(|c| std::iter::once(c.name).chain(c.flags.iter().map(|f| f.name)))
            .chain(SECTIONS)
            .chain(["--help"]);
        let values = ["0", "-1", "1e400", "NaN", "inf", "0.5", ""];
        [words.collect(), values.to_vec()]
    }

    /// Numeric flags: `N` takes a positive integer, `S` and `PCT` a
    /// positive number.
    fn checks_positive(flag: &Flag, args: &Args) -> Result<(), String> {
        let value = match flag.metavar {
            "N" => args.positive::<u64>(flag.name).map(|v| v.map(|v| v as f64)),
            "S" | "PCT" => args.positive::<f64>(flag.name),
            _ => return Ok(()),
        };
        match value {
            Ok(Some(v)) => prop_assert!(v.is_finite() && v > 0.0, "{}: {v}", flag.name),
            Ok(None) => prop_assert!(false, "{} given but read as absent", flag.name),
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Fuzz: argument vectors of 1–8 known words, each byte-mutated
        /// or not, never panic the parser. An error carries a message,
        /// a parsed command holds only flags of its own table, and each
        /// numeric flag given reads as finite and positive or errs.
        #[test]
        fn parser_survives_mutated_arguments(
            picks in prop::collection::vec(
                (0usize..2, 0usize..1 << 16, 0u8..8, 0usize..64, 0u8..=255),
                1..9,
            )
        ) {
            // Words and values are drawn equally often, and three in four
            // tokens stay intact, so flags meet the edge values often.
            let pools = vocabulary();
            let argv: Vec<String> = picks
                .iter()
                .map(|&(pool, pick, edit, at, byte)| {
                    let pool = &pools[pool];
                    let mut bytes = pool[pick % pool.len()].as_bytes().to_vec();
                    let i = at % (bytes.len() + 1);
                    match edit {
                        0 => bytes.insert(i, byte),
                        _ if edit > 2 || i == bytes.len() => {}
                        1 => bytes[i] = byte,
                        _ => {
                            bytes.remove(i);
                        }
                    }
                    String::from_utf8_lossy(&bytes).into_owned()
                })
                .collect();
            match Args::parse(argv.clone().into_iter()) {
                Err(msg) => prop_assert!(!msg.is_empty(), "{argv:?}"),
                Ok(Parsed::Help(text)) => prop_assert!(text.starts_with("usage: repro"), "{argv:?}"),
                Ok(Parsed::Run(args)) => {
                    for (name, _) in &args.flags {
                        prop_assert!(
                            args.command.flags.iter().any(|f| f.name == *name),
                            "{argv:?}: {name} is not a flag of {:?}", args.command.name
                        );
                    }
                    for flag in args.command.flags.iter().filter(|f| args.value(f.name).is_some()) {
                        checks_positive(flag, &args).map_err(|e| format!("{argv:?}: {e}"))?;
                    }
                }
            }
        }
    }
}
