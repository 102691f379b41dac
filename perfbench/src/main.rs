//! perfbench: the repository's benchmark. One process runs one workload
//! in a closed loop (one cell in flight, one replay worker) and ends its
//! output with a one-line JSON result. See README.md for the workloads,
//! the metrics, and what each layer figure should move.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```

mod grid;
mod layers;
mod report;
mod run;
mod sampled;
mod solve;
mod stats;
mod store;
mod trace;

use run::Run;
use std::path::Path;
use std::process::ExitCode;

/// Where runs keep their scratch stores and span files, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["grid-replay", "abft-solve"];

/// Environment variables that would change what the campaign client
/// measures behind the benchmark's back.
const FORBIDDEN_ENV: [&str; 2] = [abft_coop_core::SIMPOINT_ENV, abft_coop_core::STORE_ENV];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: unset {var}; it changes what the campaign client runs");
        return ExitCode::from(2);
    }
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut run = Run::new(args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "grid-replay" => grid::run(&mut run, out),
        _ => solve::run(&mut run),
    }

    for note in &run.notes {
        println!("{note}");
    }
    if run.traced {
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, run.tracer.to_jsonl(&args.workload, args.seed)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans: {} written to {}", run.tracer.len(), path.display());
    }
    let metrics = report::metrics(&run);
    if run.traced {
        report::check_exercised(&mut run.checks, &args.workload, &metrics);
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks: {} attempted, {} failed (seed {})",
        run.checks.attempted, run.checks.failed, args.seed
    );
    match stats::result_json(run.checks.attempted, run.checks.failed, &metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot report: {e:?}");
            ExitCode::from(1)
        }
    }
}
