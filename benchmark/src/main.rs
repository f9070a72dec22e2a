//! `ncc-benchmark --workload <name> [--seed <n>] [--seconds <n>]
//! [--trace <0|1>]` runs one workload in this process and prints its
//! metrics, the result object last. A traced run writes
//! `benchmark/out/trace-<workload>.json`.
//! `ncc-benchmark summarize <file>...` is `repeat.sh`'s table.
//! `run.sh` is the entry point for people and for the driver.

use std::process::ExitCode;

use ncc_benchmark::alloc::CountingAlloc;
use ncc_benchmark::manifest::Manifest;
use ncc_benchmark::{run, summarize, workloads};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: ncc-benchmark --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
       ncc-benchmark summarize <run output>...";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where traces go, relative to the checkout `run.sh` changes into.
const OUT_DIR: &str = "benchmark/out";

fn parse(args: &[String], manifest: &Manifest) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 20190622,
        seconds: manifest.run_seconds as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad("within (0, 60]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = Manifest::load();
    if args.first().map(String::as_str) == Some("summarize") {
        return summarize::main(&args[1..], &manifest);
    }
    let args = match parse(&args, &manifest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::find(&args.workload) else {
        eprintln!(
            "unknown workload `{}`; the workloads are {}",
            args.workload,
            manifest.workloads.join(", ")
        );
        return ExitCode::from(2);
    };

    let outcome = if args.trace {
        run::traced(w, args.seed, args.seconds)
    } else {
        run::end_to_end(w, args.seed, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace) = &outcome.trace {
        let path = format!("{OUT_DIR}/trace-{}.json", w.name);
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, trace));
        if let Err(e) = written {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("# trace written to {path}");
    }
    for f in &outcome.failures {
        println!("# FAILED {f}");
    }
    for n in &outcome.notes {
        println!("{n}");
    }
    let defs = if args.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let failed = (outcome.failures.len() as u64).min(outcome.attempted);
    println!(
        "# {} seed={} seconds={} trace={} ops attempted={} failed={failed}",
        w.name, args.seed, args.seconds, args.trace as u8, outcome.attempted
    );
    for line in outcome.metrics.lines(w.name, defs) {
        println!("{line}");
    }
    println!(
        "{}",
        outcome.metrics.result_json(defs, outcome.attempted, failed)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
