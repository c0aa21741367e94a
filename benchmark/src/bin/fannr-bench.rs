//! `fannr-bench`: the end-to-end run.
//!
//! ```text
//! fannr-bench --workload W --seed S [--seconds N] [--fannr PATH] [--out-dir DIR]
//! fannr-bench --smoke [--seed S] [--fannr PATH]
//! fannr-bench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! A workload run prints every end-to-end metric by name and unit, then
//! one JSON result line, and exits non-zero on a wrong answer.

use fannr_bench::run::{self, RunOptions};
use fannr_bench::workloads::{self, Workload, WORKLOADS};
use fannr_bench::{compare, opt, parse_args, proc};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A run that is still going after this long is killed, children and
/// all: the contract allows 180 s, the slowest workload takes about 25.
const HARD_TIMEOUT: Duration = Duration::from_secs(150);

fn main() -> ExitCode {
    let (positional, opts) = parse_args(std::env::args().skip(1));
    let outcome = match positional.first().map(String::as_str) {
        Some("compare") => cmd_compare(&positional[1..], &opts),
        Some(other) => Err(format!("unknown command '{other}'")),
        None if opts.contains_key("smoke") => cmd_smoke(&opts),
        None => cmd_run(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fannr-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_options(opts: &HashMap<String, String>) -> Result<RunOptions, String> {
    let fannr = PathBuf::from(opt(opts, "fannr", "target/release/fannr".to_string())?);
    if !fannr.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release --bin fannr`, or pass --fannr",
            fannr.display()
        ));
    }
    Ok(RunOptions {
        fannr,
        out_dir: PathBuf::from(opt(opts, "out-dir", "benchmark/out".to_string())?),
        seed: opt(opts, "seed", 1)?,
        seconds: opt(opts, "seconds", 16.0)?,
        open_s: 0.0,
        warmup_s: 1.0,
        setups: 3,
        cheap_setup_budget: Duration::from_millis(1500),
    })
}

fn cmd_run(opts: &HashMap<String, String>) -> Result<bool, String> {
    if opt(opts, "trace", 0u8)? != 0 {
        return Err(
            "the traced run is `fannr-bench-trace` (benchmark/bench.sh picks it for --trace 1)"
                .to_string(),
        );
    }
    let name = opts
        .get("workload")
        .ok_or("missing --workload (or --smoke, or `compare`)")?;
    let w = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; one of {}", names.join(", "))
    })?;
    let options = run_options(opts)?;
    if !(options.seconds >= 1.0 && options.seconds <= 60.0) {
        return Err("--seconds must lie in 1..=60".to_string());
    }
    proc::arm_watchdog(HARD_TIMEOUT);
    one(w, &options)
}

/// Run one workload, print its table and result line.
fn one(w: &Workload, options: &RunOptions) -> Result<bool, String> {
    let began = Instant::now();
    let report = run::run(w, options).map_err(|e| format!("{}: {e}", w.name))?;
    run::print_table(
        &format!(
            "{} (seed {}, {:.1} s wall)",
            w.name,
            report.seed,
            began.elapsed().as_secs_f64()
        ),
        &report.metrics,
    );
    run::print_table("  on the way:", &report.extras);
    println!(
        "  {} attempted, {} failed, {} wrong answers",
        report.attempted, report.failed, report.wrong
    );
    println!(
        "{}",
        run::result_json(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    Ok(report.correct)
}

/// All five workloads on a 2k-node graph with a 1 s closed and a 1 s open
/// phase: the row a CI job can call. Fails on any wrong answer *and* on any failed request.
fn cmd_smoke(opts: &HashMap<String, String>) -> Result<bool, String> {
    let mut options = run_options(opts)?;
    options.seconds = 1.0;
    options.open_s = 1.0;
    options.warmup_s = 0.3;
    options.setups = 1;
    options.cheap_setup_budget = Duration::ZERO;
    proc::arm_watchdog(Duration::from_secs(60));
    let began = Instant::now();
    let mut ok = true;
    for w in &WORKLOADS {
        let report = run::run(&w.smoke(), &options).map_err(|e| format!("{}: {e}", w.name))?;
        let pass = report.correct && report.failed == 0;
        println!(
            "smoke {:<17} {} | {} attempted, {} failed, {} wrong | qps {:.0}",
            w.name,
            if pass { "PASS" } else { "FAIL" },
            report.attempted,
            report.failed,
            report.wrong,
            report
                .metrics
                .iter()
                .find(|m| m.name == "qps")
                .map_or(0.0, |m| m.value)
        );
        ok &= pass;
    }
    println!(
        "SMOKE {} in {:.1} s",
        if ok { "PASS" } else { "FAIL" },
        began.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn cmd_compare(files: &[String], opts: &HashMap<String, String>) -> Result<bool, String> {
    let [a, b] = files else {
        return Err(
            "usage: fannr-bench compare A.json B.json [--benchmark BENCHMARK.json]".to_string(),
        );
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark = read(&opt(opts, "benchmark", "BENCHMARK.json".to_string())?)?;
    let regressed = compare::compare(&benchmark, &read(a)?, &read(b)?);
    println!("{regressed} regressed");
    Ok(regressed == 0)
}
