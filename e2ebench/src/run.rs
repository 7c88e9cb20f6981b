//! One benchmark run: set up, drive the service, crash and recover it,
//! check its outputs, execute the served allocation, and (traced)
//! break the time down by layer.

use crate::exec;
use crate::gen::{self, parse_lines, Inputs, Op, Workload, TEMPLATE_POOL};
use crate::layers;
use crate::serve::{fresh_dir, Pinned, SNAPSHOT_EVERY};
use crate::stats::{cpu_ticks, median, quantile, window_rates};
use crate::svc::{self, list_levels};
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{TransactionSet, TxnId};
use mvrobustness::Allocator;
use mvtemplates::{optimal_template_allocation, smallbank_templates, TemplateCatalog};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Crash-restarts per run; `recovery_s` is the fastest, since process
/// start-up noise only ever adds time. Restarts go on until they have
/// taken `RESTART_BUDGET`, at least `MIN_RESTARTS` and at most
/// `RESTARTS` of them, so fast recoveries get more samples.
const MIN_RESTARTS: usize = 3;
const RESTARTS: usize = 64;
const RESTART_BUDGET: Duration = Duration::from_secs(4);
/// Time windows the service stream is cut into; `ops_per_s` is the
/// median window's completion rate.
const WINDOWS: usize = 20;
/// The checkpoint comes `WAL_TAIL` mutations after the first snapshot
/// the server cuts at least `CHECKPOINT_AFTER` stream mutations into the
/// run. Recovery then restores a snapshot and replays a WAL tail of the
/// same length on every workload and seed; replaying a tail of a few
/// hundred records instead made `recovery_s` follow the seed's
/// population by 15%.
const CHECKPOINT_AFTER: u64 = 1024;
const WAL_TAIL: u64 = 128;
/// Share of `--seconds` the service phase takes; the execution phase
/// gets the rest.
const SERVICE_SHARE: f64 = 0.6;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `mvrobust` binary.
    pub bin: PathBuf,
    /// Working directory for data dirs and span files.
    pub work: PathBuf,
    /// `ParEngine` worker threads.
    pub threads: usize,
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed output checks; empty means correct.
    pub problems: Vec<String>,
    pub report: Vec<String>,
}

/// Stream steps and job-list length for a run of `seconds`, generous
/// enough that no run exhausts its stream.
fn sizes(w: Workload, seconds: f64) -> (usize, usize) {
    let s = seconds.max(1.0);
    match w.churn_live() {
        Some(live) => ((s * 1_000.0) as usize, live * 64),
        None => ((s * 12_000.0) as usize, TEMPLATE_POOL * 512),
    }
}

fn served_allocation(levels: &BTreeMap<u32, String>) -> Result<Allocation, String> {
    levels
        .iter()
        .map(|(&id, l)| {
            l.parse::<IsolationLevel>()
                .map(|level| (TxnId(id), level))
                .map_err(|_| format!("served level {l:?} of T{id} does not parse"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Allocation::from_pairs)
}

/// Compares served levels with the from-scratch optimum of `set`.
fn check_optimal(
    set: &TransactionSet,
    served: &BTreeMap<u32, String>,
    problems: &mut Vec<String>,
) -> f64 {
    let t0 = Instant::now();
    let (reference, _) = Allocator::new(set).optimal();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let ids: Vec<u32> = set.ids().map(|id| id.0).collect();
    if ids != served.keys().copied().collect::<Vec<_>>() {
        problems.push(format!(
            "served set has {} transactions, expected {}",
            served.len(),
            ids.len()
        ));
        return ms;
    }
    let wrong: Vec<String> = set
        .ids()
        .filter(|id| served[&id.0] != reference.level(*id).as_str())
        .map(|id| {
            format!(
                "T{}: served {} optimal {}",
                id.0,
                served[&id.0],
                reference.level(id).as_str()
            )
        })
        .collect();
    if !wrong.is_empty() {
        problems.push(format!(
            "{} served levels differ from Allocator::optimal, e.g. {}",
            wrong.len(),
            wrong[0]
        ));
    }
    ms
}

/// The live set after `steps` whole steps of a churn stream.
fn churn_live(inputs: &Inputs, steps: usize) -> TransactionSet {
    let mut live: BTreeMap<u32, String> = inputs.preload.iter().cloned().collect();
    for op in inputs.stream[..steps].iter().flatten() {
        match op {
            Op::Register { id, line } => {
                live.insert(*id, line.clone());
            }
            Op::Deregister(id) => {
                live.remove(id);
            }
            _ => {}
        }
    }
    parse_lines(live.values())
}

/// Template levels the server reports must equal the offline audit,
/// and every instance must have been admitted at its template's level.
fn check_templates(listed: &Value, instantiated: &[(u64, String)], problems: &mut Vec<String>) {
    let want: Vec<&str> = optimal_template_allocation(
        &smallbank_templates(),
        TemplateCatalog::DEFAULT_COPIES,
        TemplateCatalog::DEFAULT_DOMAIN,
    )
    .into_iter()
    .map(IsolationLevel::as_str)
    .collect();
    let got: Vec<&str> = listed["templates"]
        .as_array()
        .map(|ts| {
            ts.iter()
                .map(|t| t["level"].as_str().unwrap_or("?"))
                .collect()
        })
        .unwrap_or_default();
    if got != want {
        problems.push(format!(
            "template levels {got:?} differ from optimal_template_allocation {want:?}"
        ));
        return;
    }
    if let Some((t, l)) = instantiated.iter().find(|(t, l)| want[*t as usize] != l) {
        problems.push(format!(
            "an instance of template {t} was admitted at {l}, not {}",
            want[*t as usize]
        ));
    }
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let w = o.workload;
    let (steps, job_count) = sizes(w, o.seconds);
    let mut problems = Vec::new();
    let mut report = Vec::new();
    let cpu_at_start = cpu_ticks();
    let inputs = Inputs::new(w, o.seed, steps, job_count);

    // The client thread shares the server's CPU while it drives it; the
    // execution phase gets every CPU back.
    let pinned = Pinned::to_service_cpu();
    // Set-up, several times over: a fresh durable server with the
    // workload's templates and preload registered.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = fresh_dir(o.work.join(format!("data-{k}")))?;
        let t0 = Instant::now();
        let loaded = svc::load(&o.bin, dir, &inputs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            let dir = loaded.dir.clone();
            drop(loaded);
            let _ = std::fs::remove_dir_all(dir);
        } else {
            kept = Some(loaded);
        }
    }
    let mut loaded = kept.expect("at least one set-up");
    let setup_writes = loaded.acked;
    let checkpoint_at =
        (setup_writes + CHECKPOINT_AFTER).next_multiple_of(SNAPSHOT_EVERY) + WAL_TAIL;

    // Service phase.
    let budget = Duration::from_secs_f64(o.seconds * SERVICE_SHARE);
    let mut obs = svc::drive(&mut loaded, &inputs, budget, checkpoint_at)?;
    if obs.steps == inputs.stream.len() {
        report.push(format!(
            "note: the stream ran out after {} steps",
            obs.steps
        ));
    }
    let stats = loaded.client.stats().map_err(|e| format!("stats: {e}"))?;
    let served = list_levels(&mut loaded.client)?;
    if w == Workload::SvcTemplate {
        let listed = loaded
            .client
            .template_list()
            .map_err(|e| format!("template_list: {e}"))?;
        check_templates(&listed, &obs.instantiated, &mut problems);
    }
    let dir = loaded.dir.clone();
    let acked = loaded.acked;
    loaded.server.kill();
    let Some(cp) = obs.checkpoint.take() else {
        return Err(format!(
            "the run ended after {acked} mutations, before its checkpoint at {checkpoint_at}"
        ));
    };

    // Crash recovery: restart on the checkpoint's copy of the data dir.
    let mut recovery_s = Vec::new();
    let restarts = Instant::now();
    while recovery_s.len() < MIN_RESTARTS
        || (recovery_s.len() < RESTARTS && restarts.elapsed() < RESTART_BUDGET)
    {
        let r = svc::restart(&o.bin, &cp.dir)?;
        if r.levels != cp.levels {
            problems.push(
                "the recovered allocation differs from the one served before the crash".into(),
            );
        }
        recovery_s.push(r.seconds);
    }

    drop(pinned);

    // Output checks, then the execution phase on the served levels.
    let set = match w {
        Workload::SvcTemplate => parse_lines(inputs.preload.iter().map(|(_, l)| l)),
        _ => churn_live(&inputs, obs.steps),
    };
    let jobs = gen::jobs(&set, &served_allocation(&served)?, &inputs.job_order);
    let optimal_ms = check_optimal(&set, &served, &mut problems);
    // The allocation is robust for the transaction set, not for copies
    // of it, so validation runs each transaction once: the job list's
    // first permutation.
    if let Err(e) = exec::validate(&jobs[..set.len()], o.threads, o.seed) {
        problems.push(e);
    }
    let exec_budget = Duration::from_secs_f64(o.seconds * (1.0 - SERVICE_SHARE));
    let timed = exec::timed(&jobs, o.threads, o.seed, exec_budget, 3);

    let write_p50_us = quantile(&obs.write_us, 0.5);
    let read_p50_us = quantile(&obs.read_us, 0.5);
    let e2e = vec![
        ("setup_s", median(&setup_s), "s"),
        (
            "ops_per_s",
            median(&window_rates(&obs.done_at, obs.elapsed_s, WINDOWS)),
            "1/s",
        ),
        ("write_p50_us", write_p50_us, "us"),
        ("read_p50_us", read_p50_us, "us"),
        ("recovery_s", quantile(&recovery_s, 0.0), "s"),
        (
            "disk_bytes_per_write",
            cp.disk_bytes as f64 / cp.writes.max(1) as f64,
            "bytes",
        ),
        ("txns_per_s", median(&timed.rates), "1/s"),
        ("peak_rss_mb", cp.peak_rss_mb, "MiB"),
    ];
    // Tail latencies are reported but are not end-to-end metrics: on a
    // shared 2-CPU host their run-to-run spread is 30-100%.
    report.push(format!(
        "latency: writes n={} p50 {write_p50_us:.1} us p99 {:.1} us; \
         reads n={} p50 {read_p50_us:.1} us p99 {:.1} us",
        obs.write_us.len(),
        quantile(&obs.write_us, 0.99),
        obs.read_us.len(),
        quantile(&obs.read_us, 0.99),
    ));
    report.push(format!(
        "engine runs: {} at {} threads, txns/s q25 {:.0} q50 {:.0} q75 {:.0} max {:.0}",
        timed.rates.len(),
        o.threads,
        quantile(&timed.rates, 0.25),
        quantile(&timed.rates, 0.5),
        quantile(&timed.rates, 0.75),
        quantile(&timed.rates, 1.0)
    ));
    report.push(format!(
        "{}: {} stream steps, {} requests, {acked} writes acknowledged, {} jobs executed",
        w.name(),
        obs.steps,
        obs.attempted,
        timed.jobs
    ));

    let metrics = if o.trace {
        let layers = layers::measure(&layers::Ctx {
            inputs: &inputs,
            steps: obs.steps,
            replies: &obs.replies,
            server_stats: &stats,
            server_cpu_per_request_s: obs.server_cpu_s / obs.attempted.max(1) as f64,
            read_p50_us,
            write_p50_us,
            optimal_ms,
            jobs: &jobs,
            threads: o.threads,
            engine_budget: Duration::from_secs_f64(o.seconds * 0.3),
            store_dir: o.work.join("replay-store"),
            spans_file: o.work.join(format!("spans-{}.jsonl", w.name())),
        })?;
        report.extend(layers.report);
        layers.metrics
    } else {
        e2e
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cp.dir);
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_at_start, cpu_ticks()) {
        report.push(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            (steal1 - steal0) as f64 * 100.0 / (total1 - total0).max(1) as f64
        ));
    }

    Ok(Outcome {
        attempted: setup_writes * SETUPS as u64 + obs.attempted + timed.jobs,
        failed: obs.failed + timed.metrics.gave_up,
        metrics,
        problems,
        report,
    })
}
