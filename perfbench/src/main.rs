//! `perfbench --workload <serve-bo|serve-churn|tune-cli> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Builds the `mlconf` release binary,
//! runs one workload, checks the program's outputs, and prints one line
//! per check and per metric, then the result as one JSON line. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones from the traced replay. Exits 1 when a check
//! fails and 2 on bad arguments.

use std::process::ExitCode;

use mlconf_perfbench::report::HostFacts;
use mlconf_perfbench::{nproc, proc, serve_bo, serve_churn, tune_cli, Env};

const WORKLOADS: [&str; 3] = ["serve-bo", "serve-churn", "tune-cli"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let repo = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let mlconf = proc::build_mlconf(&repo)?;
    let work = proc::target_dir()?.join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let env = Env {
        mlconf,
        workload: args.workload.clone(),
        work: work.clone(),
        workers: nproc(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let host = HostFacts::gather(&work);
    let result = match args.workload.as_str() {
        "serve-bo" => serve_bo::run(&env),
        "serve-churn" => serve_churn::run(&env),
        _ => tune_cli::run(&env),
    };
    // Commit the deletions now, so their writeback cannot stall the
    // timed phases of whatever runs next on this filesystem.
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
    }
    let outcome = result?;
    println!("host {}", host.json());
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict}: {}", c.name, c.detail);
    }
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.info {
        println!(
            "info {} {} {} (not in the result: no bound)",
            m.name, m.value, m.unit
        );
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
