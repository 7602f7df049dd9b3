//! `ggs-perfbench --workload <study|store> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then the result line as the last line of standard
//! output. `--write-digests` regenerates the workload's committed digest
//! instead. Exits 2 on a usage error and 1 when the run cannot complete;
//! neither prints a result line.

use std::path::PathBuf;
use std::process::ExitCode;

use ggs_perfbench::workloads::{run, write_digest, RunArgs, Workload};

/// Stores and span files go here, inside the directory the benchmark
/// runs from.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: ggs-perfbench --workload <study|store> --seed <n> --seconds <s> --trace <0|1> [--write-digests]";

fn parse(args: &[String]) -> Result<(RunArgs, bool), String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut write_digests = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            write_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok((
        RunArgs {
            workload,
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from(OUT_DIR),
        },
        write_digests,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run_args, write_digests) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ggs-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if write_digests {
        let path = run_args.workload.digest_path();
        return match write_digest(run_args.workload).and_then(|text| {
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        }) {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ggs-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&run_args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ggs-perfbench: {} failed: {e}", run_args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = match report.result.to_json() {
        Ok(line) => line,
        Err(e) => {
            eprintln!("ggs-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed={} trace={}",
        run_args.workload.name(),
        run_args.seed,
        u8::from(run_args.trace)
    );
    for note in &report.lines {
        println!("{note}");
    }
    for (name, m) in &report.result.metrics {
        println!("  {name:<28} {:>16.6} {}", m.value, m.unit);
    }
    println!("{line}");
    ExitCode::SUCCESS
}
