//! The parallel MVCC engine: N OS worker threads drive partitions of a
//! job list to completion against shared state — a stripe-sharded
//! version store ([`crate::pstore`]), a sharded lock table with global
//! waits-for deadlock detection ([`crate::plock`]) and a concurrent SSI
//! tracker ([`crate::pssi`]) — with the same per-transaction semantics
//! as the sequential [`crate::engine::Engine`], which remains the
//! unchanged oracle.
//!
//! # Correctness protocol
//!
//! - The logical clock is one `AtomicU64`; every read, recorded write
//!   and commit draws a unique tick via `fetch_add`.
//! - Reads draw their tick inside the stripe read lock; commits draw
//!   theirs inside all written-stripe write locks and install before
//!   releasing (see `pstore`). Sorting the per-attempt event buffers by
//!   tick therefore reproduces the order the store actually served, and
//!   the replayed [`TraceRecorder`] export passes the conformance
//!   oracle — an *empirical race check on every run*, on top of Rust's
//!   static guarantees.
//! - An attempt's snapshot is the tick of its first recorded event —
//!   `first(T)` in the exported trace — whether that event is a read,
//!   a granted write or a blocked snapshot-level write (recorded at its
//!   enqueue). A snapshot taken from a bare clock read instead would
//!   miss a commit landing between that read and the first event.
//! - First-committer-wins is pre-checked before locking (cheap early
//!   abort, once a snapshot exists) and **re-checked after the lock
//!   grant while holding the object lock** — the authoritative test,
//!   since installs require that lock. The sequential engine gets this
//!   for free from `&mut self`; here the re-check closes the
//!   pre-check→grant window.
//! - The commit mutex serializes exactly the commits a detector reads:
//!   every commit in `SsiMode::Exact` (the exact check reads all
//!   footprints), only SSI commits in `SsiMode::Conservative` (its
//!   checks read SSI footprints alone). Under it the sequence stripe
//!   locks → tick → SSI decision → install → admit runs one at a time,
//!   as the sequential engine presents commits to its detectors. An
//!   unguarded RC/SI commit runs stripe locks → tick → install →
//!   release; the stripe locks alone give it its place in the
//!   publication order, and no footprint is built for it.
//! - GC watermarks come from per-worker begin slots: a worker stores the
//!   clock in its slot *before* drawing any operation tick, and a GC
//!   reads the clock before it scans the slots. A begin the scan missed
//!   stored its slot after the scan, so every tick it draws lies above
//!   the GC's clock read and thus at or above the horizon; no version a
//!   live snapshot can read is pruned.

use crate::config::{SimConfig, SsiMode};
use crate::driver::{jobs_from_workload, Job};
use crate::engine::AbortReason;
use crate::metrics::{level_index, LatencyStats, Metrics};
use crate::plock::{ParLockOutcome, SharedLockTable};
use crate::pssi::SharedSsiTracker;
use crate::pstore::SharedVersionStore;
use crate::ssi::TxnFootprint;
use crate::trace::TraceRecorder;
use crate::version::{AttemptId, Observed, Version};
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{Object, OpKind, TransactionSet};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Knobs of the parallel driver that are not engine semantics.
#[derive(Clone, Copy, Debug)]
pub struct ParOptions {
    /// Seeded `yield_now` jitter between operations. On few-core hosts
    /// OS time slices are far coarser than transaction attempts, so
    /// without jitter most interleavings degenerate to serial; the
    /// conformance suites keep it on for interleaving diversity. Timed
    /// benchmark runs turn it off.
    pub jitter: bool,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions { jitter: true }
    }
}

/// A timestamped event buffered per attempt, replayed globally sorted
/// into the [`TraceRecorder`] after the run.
enum PEvent {
    Read { object: Object, observed: Observed },
    Write { object: Object },
    Commit,
}

struct AttemptLog {
    id: AttemptId,
    level: IsolationLevel,
    committed: bool,
    events: Vec<(u64, PEvent)>,
}

/// Worker-local state of one in-flight attempt (the parallel analogue
/// of the sequential engine's `Active`).
struct Attempt {
    id: AttemptId,
    level: IsolationLevel,
    start_ts: Option<u64>,
    reads: Vec<(Object, Observed)>,
    writes: Vec<Object>,
    held: Vec<Object>,
    doomed: bool,
    /// Program counter of a snapshot-level write already recorded at
    /// its first (blocked) attempt — cf. `Engine::write`.
    recorded_pc: Option<usize>,
    record: bool,
    events: Vec<(u64, PEvent)>,
}

impl Attempt {
    fn new(id: AttemptId, level: IsolationLevel, record: bool) -> Self {
        Attempt {
            id,
            level,
            start_ts: None,
            reads: Vec::new(),
            writes: Vec::new(),
            held: Vec::new(),
            doomed: false,
            recorded_pc: None,
            record,
            events: Vec::new(),
        }
    }

    /// Buffers an event. The first event's tick becomes the attempt's
    /// snapshot (see the module docs).
    fn push_event(&mut self, ts: u64, ev: PEvent) {
        self.start_ts.get_or_insert(ts);
        if self.record {
            self.events.push((ts, ev));
        }
    }
}

/// Result of a parallel run: aggregated metrics and latencies, the
/// replayed trace, and the wall-clock measurement the logical-tick
/// goodput proxy cannot provide.
pub struct ParRun {
    pub metrics: Metrics,
    pub latency: LatencyStats,
    pub latency_by_level: [LatencyStats; 3],
    pub trace: TraceRecorder,
    pub elapsed: Duration,
    pub threads: usize,
}

impl ParRun {
    /// Committed transactions per wall-clock second.
    pub fn txns_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.metrics.commits as f64 / secs
        }
    }
}

struct WorkerOut {
    metrics: Metrics,
    latency: LatencyStats,
    latency_by_level: [LatencyStats; 3],
    logs: Vec<AttemptLog>,
}

/// A worker's begin slot: the clock value at its in-flight attempt's
/// begin, or [`IDLE`]. Aligned to its own cache lines so the workers'
/// per-attempt stores do not contend.
#[repr(align(128))]
struct BeginSlot(AtomicU64);

const IDLE: u64 = u64::MAX;

struct ParEngine {
    config: SimConfig,
    clock: AtomicU64,
    store: SharedVersionStore,
    locks: SharedLockTable,
    ssi: SharedSsiTracker,
    /// Serializes tick-draw → SSI decision → install → admit for the
    /// commits a detector reads (see the module docs).
    commit_lock: Mutex<()>,
    next_attempt: AtomicU64,
    /// One begin slot per worker, for the GC watermark.
    begins: Vec<BeginSlot>,
    commits: AtomicU64,
    versions_pruned: AtomicU64,
}

impl ParEngine {
    fn new(config: SimConfig) -> Self {
        ParEngine {
            begins: (0..config.threads)
                .map(|_| BeginSlot(AtomicU64::new(IDLE)))
                .collect(),
            config,
            clock: AtomicU64::new(0),
            store: SharedVersionStore::new(),
            locks: SharedLockTable::new(),
            ssi: SharedSsiTracker::new(),
            commit_lock: Mutex::new(()),
            next_attempt: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            versions_pruned: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Marks worker `w` busy from the current clock on, before its
    /// attempt draws any tick, so the GC watermark never overtakes a
    /// snapshot the attempt may still draw (see [`ParEngine::horizon`]).
    fn begin(&self, w: usize) {
        self.begins[w]
            .0
            .store(self.clock.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    fn end(&self, w: usize) {
        self.begins[w].0.store(IDLE, Ordering::SeqCst);
    }

    fn execute(
        &self,
        a: &mut Attempt,
        ops: &[mvmodel::Op],
        metrics: &mut Metrics,
        jitter: &mut Option<SmallRng>,
    ) -> Result<u64, AbortReason> {
        for (pc, op) in ops.iter().enumerate() {
            if a.doomed {
                return Err(AbortReason::SsiDangerous);
            }
            maybe_yield(jitter);
            match op.kind {
                OpKind::Read => self.read(a, op.object, metrics),
                OpKind::Write => self.write(a, pc, op.object, metrics)?,
            }
        }
        if a.doomed {
            return Err(AbortReason::SsiDangerous);
        }
        maybe_yield(jitter);
        self.commit(a, metrics)
    }

    fn read(&self, a: &mut Attempt, object: Object, metrics: &mut Metrics) {
        let snapshot = match a.level {
            IsolationLevel::ReadCommitted => None, // latest committed, now
            _ => a.start_ts,                       // None on the first op: the
                                                    // fresh tick becomes the snapshot
        };
        let (ts, observed, latest) = self.store.read(object, snapshot, &self.clock);
        let start = *a.start_ts.get_or_insert(ts);
        // Conservative SSI read-path rule, as in `Engine::read`: the
        // observed-over committed SSI writer gains an incoming edge; if
        // it already has an outgoing one the structure is complete and
        // the reader is doomed.
        if self.config.ssi_mode == SsiMode::Conservative
            && a.level == IsolationLevel::SerializableSnapshotIsolation
        {
            if let Observed::Version(latest) = latest {
                if latest.commit_ts > observed.ts()
                    && latest.commit_ts > start
                    && self.ssi.is_committed_ssi(latest.writer)
                {
                    self.ssi.record_rw_edge(a.id, latest.writer);
                    if self.ssi.has_out(latest.writer) {
                        a.doomed = true;
                    }
                }
            }
        }
        a.reads.push((object, observed));
        metrics.reads += 1;
        a.push_event(ts, PEvent::Read { object, observed });
    }

    fn write(
        &self,
        a: &mut Attempt,
        pc: usize,
        object: Object,
        metrics: &mut Metrics,
    ) -> Result<(), AbortReason> {
        let snapshot_level = a.level.snapshot_at_start();
        // Advisory first-committer-wins pre-check: abort before paying
        // for the lock when a newer version is already visible. Before
        // the first event there is no snapshot to be newer than.
        if snapshot_level && self.committed_since_snapshot(a, object) {
            return Err(AbortReason::FirstCommitterWins);
        }
        match self.locks.acquire(a.id, object) {
            ParLockOutcome::Deadlock => return Err(AbortReason::Deadlock),
            ParLockOutcome::Granted => {}
            ParLockOutcome::Enqueued => {
                metrics.blocked_events += 1;
                // Snapshot transactions record blocked writes at their
                // first attempt — the faithful formal position; see the
                // dirty-write argument in `Engine::write`.
                if snapshot_level && a.recorded_pc != Some(pc) {
                    a.recorded_pc = Some(pc);
                    let ts = self.tick();
                    a.push_event(ts, PEvent::Write { object });
                }
                self.locks.await_grant(a.id, object);
            }
        }
        if !a.held.contains(&object) {
            a.held.push(object);
        }
        // Authoritative first-committer-wins re-check *under the held
        // lock*: a competitor can commit between the pre-check and the
        // grant, but not while we hold the object lock (installs
        // require it). Parallel-only requirement. A write-first attempt
        // granted at once takes its snapshot from the tick drawn below,
        // after every commit to `object`.
        if snapshot_level && self.committed_since_snapshot(a, object) {
            return Err(AbortReason::FirstCommitterWins);
        }
        if a.recorded_pc == Some(pc) {
            a.recorded_pc = None;
        } else {
            let ts = self.tick();
            a.push_event(ts, PEvent::Write { object });
        }
        if !a.writes.contains(&object) {
            a.writes.push(object);
        }
        metrics.writes += 1;
        Ok(())
    }

    fn committed_since_snapshot(&self, a: &Attempt, object: Object) -> bool {
        a.start_ts
            .is_some_and(|start| self.store.committed_after(object, start))
    }

    fn commit(&self, a: &mut Attempt, metrics: &mut Metrics) -> Result<u64, AbortReason> {
        let ssi = a.level == IsolationLevel::SerializableSnapshotIsolation;
        // Only commits some detector reads take the commit mutex and
        // leave a footprint: all of them for the exact check, SSI ones
        // for the conservative checks.
        let certify = ssi || self.config.ssi_mode == SsiMode::Exact;
        let commit_guard = certify.then(|| self.commit_lock.lock().expect("not poisoned"));
        let mut guards = self.store.lock_for_commit(&a.writes);
        let commit_ts = self.tick();
        let footprint = certify.then(|| TxnFootprint {
            attempt: a.id,
            ssi,
            start_ts: a.start_ts.unwrap_or(commit_ts - 1),
            commit_ts,
            reads: a.reads.iter().map(|&(o, obs)| (o, obs.ts())).collect(),
            writes: a.writes.iter().map(|&o| (o, commit_ts)).collect(),
        });
        if let Some(footprint) = &footprint {
            let dangerous = match self.config.ssi_mode {
                SsiMode::Exact => self.ssi.exact_check(footprint),
                SsiMode::Conservative => self.conservative_commit_check(footprint),
            };
            if dangerous {
                return Err(AbortReason::SsiDangerous);
            }
        }
        for &object in &a.writes {
            #[cfg(debug_assertions)]
            debug_assert!(self.locks.holds(a.id, object));
            guards.install(
                object,
                Version {
                    commit_ts,
                    writer: a.id,
                },
            );
        }
        drop(guards);
        if let Some(footprint) = footprint {
            self.ssi.admit(footprint);
        }
        drop(commit_guard);
        self.locks.release_all(a.id, &a.held);
        metrics.record_commit(a.level);
        a.push_event(commit_ts, PEvent::Commit);
        self.maybe_gc();
        Ok(commit_ts)
    }

    /// Steps (1) and (3) of the sequential conservative protocol (see
    /// `Engine::conservative_commit_check` and the safety argument in
    /// `crate::pssi`): edges with committed concurrent SSI footprints,
    /// doom on a flagged pivot, then the own-flags test. Flag reads for
    /// the doom decision happen before this commit's edges are applied,
    /// matching the sequential order exactly.
    fn conservative_commit_check(&self, t: &TxnFootprint) -> bool {
        let who = t.attempt;
        let mut edges: Vec<(AttemptId, AttemptId)> = Vec::new();
        let mut doom_self = false;
        self.ssi.with_committed(|committed| {
            for f in committed {
                if !f.ssi || !f.concurrent(t) {
                    continue;
                }
                if t.rw_antidep_to(f) {
                    edges.push((who, f.attempt));
                    if self.ssi.has_out(f.attempt) {
                        doom_self = true;
                    }
                }
                if f.rw_antidep_to(t) {
                    edges.push((f.attempt, who));
                    if self.ssi.has_in(f.attempt) {
                        doom_self = true;
                    }
                }
            }
        });
        for (from, to) in edges {
            self.ssi.record_rw_edge(from, to);
        }
        doom_self || self.ssi.conservative_flags(who)
    }

    fn maybe_gc(&self) {
        let commits = self.commits.fetch_add(1, Ordering::SeqCst) + 1;
        if commits.is_multiple_of(64) {
            self.gc();
        }
    }

    /// The GC watermark: the clock, read *first*, capped by every
    /// occupied begin slot. A slot store the scan misses is ordered
    /// after the scan, so that attempt's ticks all exceed the clock
    /// read; a slot it sees is at or below all of its attempt's ticks.
    fn horizon(&self) -> u64 {
        let clock = self.clock.load(Ordering::SeqCst);
        self.begins
            .iter()
            .map(|slot| slot.0.load(Ordering::SeqCst))
            .fold(clock, u64::min)
    }

    fn gc(&self) {
        let horizon = self.horizon();
        self.ssi.gc(horizon);
        self.versions_pruned
            .fetch_add(self.store.gc(horizon), Ordering::SeqCst);
    }

    fn abort_attempt(&self, a: &Attempt) {
        self.ssi.forget(a.id);
        self.locks.release_all(a.id, &a.held);
    }

    /// One worker: drives jobs `w, w+stride, w+2·stride, …` to
    /// completion, retrying aborted attempts with fresh attempt ids.
    fn worker(&self, jobs: &[Job], w: usize, stride: usize, opts: ParOptions) -> WorkerOut {
        let mut out = WorkerOut {
            metrics: Metrics::default(),
            latency: LatencyStats::default(),
            latency_by_level: Default::default(),
            logs: Vec::new(),
        };
        let mut jitter = opts.jitter.then(|| {
            SmallRng::seed_from_u64(
                self.config
                    .seed
                    .wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        });
        let mut job_idx = w;
        while job_idx < jobs.len() {
            let job = &jobs[job_idx];
            let first_begin = self.clock.load(Ordering::SeqCst);
            let mut retries = 0u32;
            loop {
                let id = AttemptId(self.next_attempt.fetch_add(1, Ordering::SeqCst) + 1);
                self.begin(w);
                let mut a = Attempt::new(id, job.level, self.config.record_trace);
                let result = self.execute(&mut a, &job.ops, &mut out.metrics, &mut jitter);
                match result {
                    Ok(ct) => {
                        self.end(w);
                        let ticks = ct.saturating_sub(first_begin);
                        out.latency.record(ticks);
                        out.latency_by_level[level_index(job.level)].record(ticks);
                        if self.config.record_trace {
                            out.logs.push(AttemptLog {
                                id,
                                level: job.level,
                                committed: true,
                                events: a.events,
                            });
                        }
                        break;
                    }
                    Err(reason) => {
                        self.abort_attempt(&a);
                        self.end(w);
                        out.metrics.record_abort(reason, job.level);
                        if self.config.record_trace {
                            out.logs.push(AttemptLog {
                                id,
                                level: job.level,
                                committed: false,
                                events: a.events,
                            });
                        }
                        if self.config.max_retries.is_some_and(|m| retries >= m) {
                            out.metrics.gave_up += 1;
                            break;
                        }
                        retries += 1;
                        // Back off a beat so the competitor that killed
                        // us can finish.
                        std::thread::yield_now();
                    }
                }
            }
            job_idx += stride;
        }
        out
    }
}

fn maybe_yield(jitter: &mut Option<SmallRng>) {
    if let Some(rng) = jitter {
        if rng.next_u64() % 2 == 0 {
            std::thread::yield_now();
        }
    }
}

/// Runs `jobs` on `config.threads` worker threads and returns the
/// aggregated [`ParRun`]. Parallel runs are wall-clock nondeterministic
/// by nature; what is guaranteed — and what the test suites assert — is
/// that every exported trace passes the conformance oracle and the
/// abort/commit sets stay within the sequential envelope.
pub fn run_parallel_jobs(jobs: &[Job], config: SimConfig) -> ParRun {
    run_parallel_jobs_with(jobs, config, ParOptions::default())
}

/// [`run_parallel_jobs`] with explicit [`ParOptions`].
pub fn run_parallel_jobs_with(jobs: &[Job], config: SimConfig, opts: ParOptions) -> ParRun {
    let threads = config.threads;
    assert!(threads > 0, "need at least one worker thread");
    let engine = ParEngine::new(config.clone());
    let start = Instant::now();
    let mut outs: Vec<WorkerOut> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let engine = &engine;
                scope.spawn(move || engine.worker(jobs, w, threads, opts))
            })
            .collect();
        for h in handles {
            outs.push(h.join().expect("worker panicked"));
        }
    });
    let elapsed = start.elapsed();

    let mut metrics = Metrics::default();
    let mut latency = LatencyStats::default();
    let mut latency_by_level: [LatencyStats; 3] = Default::default();
    for out in &outs {
        metrics.absorb(&out.metrics);
        latency.merge(&out.latency);
        for (mine, theirs) in latency_by_level.iter_mut().zip(out.latency_by_level.iter()) {
            mine.merge(theirs);
        }
    }
    metrics.ticks = engine.clock.load(Ordering::SeqCst);
    metrics.versions_pruned = engine.versions_pruned.load(Ordering::SeqCst);

    // Replay the per-attempt event buffers, globally sorted by tick,
    // into a TraceRecorder — the tick order is the publication order
    // (see `pstore`), so this is the linearization the store served.
    let mut trace = TraceRecorder::new(config.record_trace);
    if config.record_trace {
        let mut all: Vec<(u64, AttemptId, PEvent)> = Vec::new();
        for out in &mut outs {
            for log in out.logs.drain(..) {
                trace.record_level(log.id, log.level);
                if !log.committed {
                    trace.record_abort(log.id);
                }
                for (ts, ev) in log.events {
                    all.push((ts, log.id, ev));
                }
            }
        }
        all.sort_by_key(|&(ts, _, _)| ts);
        for (ts, who, ev) in all {
            match ev {
                PEvent::Read { object, observed } => trace.record_read(who, object, observed, ts),
                PEvent::Write { object } => trace.record_write(who, object, ts),
                PEvent::Commit => trace.record_commit(who, ts),
            }
        }
    }

    ParRun {
        metrics,
        latency,
        latency_by_level,
        trace,
        elapsed,
        threads,
    }
}

/// Runs a transaction set under an allocation on the parallel engine
/// (one job per transaction, in id order).
pub fn run_parallel_workload(
    txns: &TransactionSet,
    alloc: &Allocation,
    config: SimConfig,
) -> ParRun {
    run_parallel_workload_with(txns, alloc, config, ParOptions::default())
}

/// [`run_parallel_workload`] with explicit [`ParOptions`].
pub fn run_parallel_workload_with(
    txns: &TransactionSet,
    alloc: &Allocation,
    config: SimConfig,
    opts: ParOptions,
) -> ParRun {
    let jobs = jobs_from_workload(txns, alloc);
    let mut run = run_parallel_jobs_with(&jobs, config, opts);
    run.trace.set_object_names(txns.object_names().to_vec());
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn engine(threads: usize) -> ParEngine {
        ParEngine::new(SimConfig::default().with_threads(threads).with_trace(true))
    }

    fn first_tick(a: &Attempt) -> u64 {
        a.events.first().expect("an event was recorded").0
    }

    #[test]
    fn snapshot_is_the_tick_of_the_first_recorded_event() {
        let e = engine(2);
        let mut m = Metrics::default();
        let mut id = 0;
        let mut next = |level| {
            id += 1;
            Attempt::new(AttemptId(id), level, true)
        };
        for level in [
            IsolationLevel::RC,
            IsolationLevel::SI,
            IsolationLevel::SerializableSnapshotIsolation,
        ] {
            let mut r = next(level);
            e.read(&mut r, Object(1), &mut m);
            assert_eq!(r.start_ts, Some(first_tick(&r)), "read first, {level:?}");

            let mut w = next(level);
            e.write(&mut w, 0, Object(2), &mut m).expect("granted");
            assert_eq!(w.start_ts, Some(first_tick(&w)), "granted write, {level:?}");
            e.abort_attempt(&w);

            // Enqueued write: a holder keeps the lock until the waiter
            // has blocked, and a tick is drawn while it waits. Snapshot
            // levels record the write at its enqueue, below that tick;
            // RC records it after the grant, above it.
            let mut holder = next(level);
            e.write(&mut holder, 0, Object(3), &mut m).expect("granted");
            let mut waiter = next(level);
            let waiter_id = waiter.id;
            let mut during_wait = 0;
            std::thread::scope(|sc| {
                let blocked = sc.spawn(|| {
                    e.write(&mut waiter, 0, Object(3), &mut m)
                        .expect("holder aborts, no first-committer conflict");
                });
                while e.locks.waits_for(waiter_id).is_none() {
                    std::thread::yield_now();
                }
                during_wait = e.tick();
                e.abort_attempt(&holder);
                blocked.join().expect("waiter granted");
            });
            let start = waiter.start_ts.expect("snapshot taken");
            assert_eq!(start, first_tick(&waiter), "enqueued write, {level:?}");
            assert_eq!(
                start < during_wait,
                level.snapshot_at_start(),
                "{level:?} write recorded at the wrong point"
            );
            e.abort_attempt(&waiter);
        }
    }

    #[test]
    fn horizon_is_at_most_the_clock_and_every_occupied_slot() {
        let e = engine(3);
        let advance = |n| {
            for _ in 0..n {
                e.tick();
            }
        };
        advance(10);
        assert_eq!(e.horizon(), 10, "all idle: the clock");
        e.begin(1);
        advance(5);
        e.begin(2);
        advance(5);
        assert_eq!(e.horizon(), 10, "the oldest occupied slot");
        e.end(1);
        assert_eq!(e.horizon(), 15);
        e.end(2);
        assert_eq!(e.horizon(), 20);
    }

    #[test]
    fn a_begin_racing_gc_never_reads_a_pruned_version() {
        let e = engine(1);
        let x = Object(7);
        let done = AtomicBool::new(false);
        std::thread::scope(|sc| {
            // Blind RC writers commit `x` back to back, until some GC
            // pass has pruned. They read nothing, so they hold no begin
            // slot and never cap the horizon.
            sc.spawn(|| {
                let mut m = Metrics::default();
                let mut n = 0;
                while n < 4000 || (e.versions_pruned.load(Ordering::SeqCst) == 0 && n < 1 << 20) {
                    n += 1;
                    let mut a = Attempt::new(AttemptId((1 << 32) + n), IsolationLevel::RC, false);
                    e.write(&mut a, 0, x, &mut m).expect("sole writer");
                    e.commit(&mut a, &mut m).expect("RC commits");
                }
                done.store(true, Ordering::SeqCst);
            });
            // A collector runs GC passes while commits and begins race it.
            sc.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    e.gc();
                }
            });
            // SI readers in worker slot 0 re-read `x` at their snapshot;
            // a pruned snapshot version would read back as something else.
            let mut m = Metrics::default();
            let mut n = 0;
            while !done.load(Ordering::SeqCst) {
                n += 1;
                e.begin(0);
                let mut a = Attempt::new(AttemptId(n), IsolationLevel::SI, false);
                e.read(&mut a, x, &mut m);
                std::thread::yield_now();
                e.read(&mut a, x, &mut m);
                assert_eq!(a.reads[0].1, a.reads[1].1, "snapshot version pruned");
                e.end(0);
                // Idle between attempts, so GC scans also find the
                // slot empty and race the next begin.
                std::thread::yield_now();
            }
        });
        assert!(e.versions_pruned.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn only_commits_a_detector_reads_leave_footprints() {
        for (mode, footprints) in [(SsiMode::Conservative, 1), (SsiMode::Exact, 3)] {
            let e = ParEngine::new(SimConfig::default().with_ssi_mode(mode));
            let mut m = Metrics::default();
            for (n, level) in [
                IsolationLevel::RC,
                IsolationLevel::SI,
                IsolationLevel::SerializableSnapshotIsolation,
            ]
            .into_iter()
            .enumerate()
            {
                let mut a = Attempt::new(AttemptId(n as u64 + 1), level, false);
                e.write(&mut a, 0, Object(n as u32), &mut m)
                    .expect("granted");
                e.commit(&mut a, &mut m).expect("no conflicts");
            }
            assert_eq!(e.ssi.retained(), footprints, "{mode:?}");
        }
    }
}
