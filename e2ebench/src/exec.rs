//! The execution phase: `ParEngine` runs a job list at the levels the
//! service returned.

use mvrobustness::check_trace;
use mvsim::{run_parallel_jobs_with, Job, Metrics, ParOptions, SimConfig, SsiMode};
use std::time::{Duration, Instant};

fn config(threads: usize, seed: u64, trace: bool) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_threads(threads)
        .with_ssi_mode(SsiMode::Conservative)
        .with_trace(trace)
}

/// Repeated timed runs of one job list.
#[derive(Default)]
pub struct Timed {
    /// Committed transactions per wall-clock second, one per run.
    pub rates: Vec<f64>,
    /// Counters summed over every run.
    pub metrics: Metrics,
    /// Logical clock ticks summed over every run (`Metrics::absorb`
    /// keeps only the largest).
    pub ticks: u64,
    pub jobs: u64,
}

impl Timed {
    fn push(&mut self, jobs: &[Job], threads: usize, seed: u64) {
        let run = run_parallel_jobs_with(
            jobs,
            config(threads, seed, false),
            ParOptions { jitter: false },
        );
        self.rates.push(run.txns_per_sec());
        self.metrics.absorb(&run.metrics);
        self.ticks += run.metrics.ticks;
        self.jobs += jobs.len() as u64;
    }
}

/// Untraced, unjittered runs of `jobs` on `threads` workers until
/// `budget` is spent (at least `min_runs`).
pub fn timed(jobs: &[Job], threads: usize, seed: u64, budget: Duration, min_runs: usize) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    while out.rates.len() < min_runs || start.elapsed() < budget {
        out.push(jobs, threads, seed.wrapping_add(out.rates.len() as u64));
    }
    out
}

/// Alternating 1-thread / `threads`-thread runs, so both sides of the
/// scaling pair see the same interference.
pub fn paired(jobs: &[Job], threads: usize, seed: u64, budget: Duration) -> (Timed, Timed) {
    let (mut one, mut many) = (Timed::default(), Timed::default());
    let start = Instant::now();
    while one.rates.len() < 3 || start.elapsed() < budget {
        let s = seed.wrapping_add(one.rates.len() as u64);
        one.push(jobs, 1, s);
        many.push(jobs, threads, s);
    }
    (one, many)
}

/// One traced, jittered run that must pass `check_trace`: allowed
/// under its allocation and conflict serializable.
pub fn validate(jobs: &[Job], threads: usize, seed: u64) -> Result<(), String> {
    let run = run_parallel_jobs_with(
        jobs,
        config(threads, seed, true),
        ParOptions { jitter: true },
    );
    let exported = run
        .trace
        .export()
        .ok_or("the validation run recorded no trace")?;
    check_trace(&exported.schedule, &exported.allocation, true)
        .map(|_| ())
        .map_err(|e| format!("validation trace fails check_trace: {e}"))
}
