//! Concurrent SSI tracker for the parallel engine.
//!
//! Committed footprints live behind one mutex. Only the commits a
//! detector reads leave a footprint — every commit in exact mode, SSI
//! commits alone in conservative mode, whose checks skip non-SSI
//! footprints — and the engine checks and admits those one at a time
//! under its commit lock, so the set is stable for each check. RC/SI
//! commits in conservative mode never reach this tracker. The Cahill
//! `inConflict`/`outConflict` flags are atomics behind a read-mostly
//! map, so the *read path* can record rw-antidependency edges (reader
//! observed a version a committed SSI transaction overwrote) without
//! blocking committers.
//!
//! The parallel conservative commit check runs steps (1) and (3) of the
//! sequential protocol (edges with committed footprints + own flags)
//! but not step (2), dooming of *active* readers — a worker cannot
//! safely reach into another worker's in-flight attempt. That step is
//! an early-abort optimization, not a safety requirement: for any real
//! dangerous structure `T₁ →rw T₂ →rw T₃` (C₃ earliest), whichever of
//! the three commits **last** sees the other two in the committed set
//! and the persistent flags their edges raised, and steps (1)+(3) abort
//! it — in every commit order. The reader that step (2) would have
//! doomed early instead runs to its own commit and aborts there (or at
//! its next read, via the read-path rule). Fewer early aborts, same
//! committed-history guarantee; the conformance suite checks the
//! resulting traces end to end.

use crate::ssi::{exact_check_against, TxnFootprint};
use crate::version::AttemptId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

#[derive(Default)]
struct Flags {
    incoming: AtomicBool,
    outgoing: AtomicBool,
}

/// Shared dangerous-structure state for one parallel run.
pub(crate) struct SharedSsiTracker {
    committed: Mutex<Vec<TxnFootprint>>,
    flags: RwLock<HashMap<AttemptId, Arc<Flags>>>,
}

impl SharedSsiTracker {
    pub fn new() -> Self {
        SharedSsiTracker {
            committed: Mutex::new(Vec::new()),
            flags: RwLock::new(HashMap::new()),
        }
    }

    fn cell(&self, who: AttemptId) -> Arc<Flags> {
        if let Some(f) = self.flags.read().expect("not poisoned").get(&who) {
            return f.clone();
        }
        self.flags
            .write()
            .expect("not poisoned")
            .entry(who)
            .or_default()
            .clone()
    }

    /// Records the rw-antidependency `from →rw to` between concurrent
    /// transactions. Lock-free once both flag cells exist.
    pub fn record_rw_edge(&self, from: AttemptId, to: AttemptId) {
        self.cell(from).outgoing.store(true, Ordering::SeqCst);
        self.cell(to).incoming.store(true, Ordering::SeqCst);
    }

    pub fn has_in(&self, who: AttemptId) -> bool {
        self.flags
            .read()
            .expect("not poisoned")
            .get(&who)
            .is_some_and(|f| f.incoming.load(Ordering::SeqCst))
    }

    pub fn has_out(&self, who: AttemptId) -> bool {
        self.flags
            .read()
            .expect("not poisoned")
            .get(&who)
            .is_some_and(|f| f.outgoing.load(Ordering::SeqCst))
    }

    /// Conservative commit test: both flags set.
    pub fn conservative_flags(&self, who: AttemptId) -> bool {
        self.flags
            .read()
            .expect("not poisoned")
            .get(&who)
            .is_some_and(|f| f.incoming.load(Ordering::SeqCst) && f.outgoing.load(Ordering::SeqCst))
    }

    /// Drops flag state for an aborted attempt. Edges other attempts
    /// already recorded *to* it keep their own flags — same as the
    /// sequential tracker.
    pub fn forget(&self, who: AttemptId) {
        self.flags.write().expect("not poisoned").remove(&who);
    }

    /// The exact detector against the committed set (called under the
    /// engine's commit lock, so the set is stable for the check).
    pub fn exact_check(&self, cand: &TxnFootprint) -> bool {
        exact_check_against(&self.committed.lock().expect("not poisoned"), cand)
    }

    /// Runs `f` over the committed footprints (conservative step (1)).
    pub fn with_committed<R>(&self, f: impl FnOnce(&[TxnFootprint]) -> R) -> R {
        f(&self.committed.lock().expect("not poisoned"))
    }

    /// Whether `who` committed as an SSI transaction — the read-path
    /// check needs to know the observed-over writer's level.
    pub fn is_committed_ssi(&self, who: AttemptId) -> bool {
        self.committed
            .lock()
            .expect("not poisoned")
            .iter()
            .any(|f| f.attempt == who && f.ssi)
    }

    /// Records a committed footprint (after the detector admitted it).
    pub fn admit(&self, footprint: TxnFootprint) {
        self.committed.lock().expect("not poisoned").push(footprint);
    }

    /// Drops footprints no future transaction can be concurrent with.
    pub fn gc(&self, horizon: u64) {
        self.committed
            .lock()
            .expect("not poisoned")
            .retain(|f| f.commit_ts >= horizon);
    }

    /// Number of retained committed footprints (diagnostics).
    #[cfg(test)]
    pub fn retained(&self) -> usize {
        self.committed.lock().expect("not poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmodel::Object;

    fn fp(attempt: u64, start: u64, commit: u64, reads: &[u32], writes: &[u32]) -> TxnFootprint {
        TxnFootprint {
            attempt: AttemptId(attempt),
            ssi: true,
            start_ts: start,
            commit_ts: commit,
            reads: reads.iter().map(|&o| (Object(o), 0)).collect(),
            writes: writes.iter().map(|&o| (Object(o), commit)).collect(),
        }
    }

    #[test]
    fn flags_are_shared_across_threads() {
        let t = SharedSsiTracker::new();
        let (a, b, c) = (AttemptId(1), AttemptId(2), AttemptId(3));
        std::thread::scope(|sc| {
            sc.spawn(|| t.record_rw_edge(a, b));
            sc.spawn(|| t.record_rw_edge(b, c));
        });
        assert!(t.conservative_flags(b), "b has in + out");
        assert!(!t.conservative_flags(a));
        assert!(t.has_out(a) && t.has_in(c));
        t.forget(b);
        assert!(!t.conservative_flags(b));
    }

    #[test]
    fn exact_check_matches_sequential_tracker() {
        // The same write-skew the sequential unit test pins.
        let shared = SharedSsiTracker::new();
        let mut seq = crate::ssi::SsiTracker::new();
        let t2 = fp(2, 1, 5, &[2], &[1]);
        assert_eq!(shared.exact_check(&t2), seq.exact_check(&t2));
        shared.admit(t2.clone());
        seq.admit(t2);
        let t1 = fp(1, 0, 8, &[1], &[2]);
        assert!(shared.exact_check(&t1));
        assert_eq!(shared.exact_check(&t1), seq.exact_check(&t1));
    }

    #[test]
    fn gc_and_committed_queries() {
        let t = SharedSsiTracker::new();
        t.admit(fp(1, 0, 5, &[], &[]));
        t.admit(fp(2, 6, 9, &[], &[]));
        assert!(t.is_committed_ssi(AttemptId(1)));
        assert!(!t.is_committed_ssi(AttemptId(99)));
        assert_eq!(t.with_committed(|c| c.len()), 2);
        t.gc(6);
        assert_eq!(t.retained(), 1);
    }
}
