//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1 --mvrobust PATH`
//!
//! Prints report lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 (after printing the result) if an output check fails, and 2
//! on a usage or set-up error.

use e2ebench::gen::Workload;
use e2ebench::run::{run, Opts};
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload svc_churn|svc_churn_wide|svc_template \
         --seed N --seconds S --trace 0|1 --mvrobust PATH"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = opt("--workload").and_then(Workload::parse) else {
        return usage("--workload names no workload");
    };
    let Some(seed) = opt("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed needs a whole number");
    };
    let Some(seconds) = opt("--seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("--seconds needs a number");
    };
    let trace = match opt("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace is 0 or 1"),
    };
    let Some(bin) = opt("--mvrobust").map(PathBuf::from) else {
        return usage("--mvrobust names the release mvrobust binary");
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        bin,
        work: PathBuf::from(".bench_runs"),
        threads,
    };
    let repro = format!(
        "bash e2ebench/run.sh --workload {} --seed {seed} --seconds {seconds} --trace {}",
        workload.name(),
        u8::from(trace)
    );

    let mut env = mvbench::bench_env(Some(threads as u64));
    env["connections"] = json!(1);
    env["engine_threads"] = json!(threads);
    env["durability"] = json!("batch");
    env["codec"] = json!("binary");
    env["commit"] = json!(std::env::var("E2EBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()));
    println!("bench_env {env}");

    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}\nrepro: {repro}", workload.name());
            return ExitCode::from(2);
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    let mut metrics = Map::new();
    for &(name, value, unit) in &outcome.metrics {
        println!("{name:<34} {value:>16.4} {unit}");
        metrics.insert(name.to_string(), json!({ "value": value, "unit": unit }));
    }
    for p in &outcome.problems {
        let p: String = p.chars().take(400).collect();
        eprintln!("CHECK FAILED ({}): {p}\nrepro: {repro}", workload.name());
    }
    let correct = outcome.problems.is_empty();
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
