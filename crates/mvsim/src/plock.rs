//! Sharded exclusive lock table with cross-shard waits-for deadlock
//! detection, for the parallel engine.
//!
//! Lock state lives in shards (mutex + condvar per shard) so disjoint
//! partitions never contend. The waits-for graph is global — a cycle can
//! thread through objects in different shards, so the cycle test must
//! see one consistent picture — but it is touched only when a request
//! *blocks*: an uncontended grant or release stays inside its shard.
//!
//! The graph holds one waiter → holder edge per blocked attempt (an
//! attempt waits on at most one object). Edges change only in two
//! places, both under the object's shard lock and then the graph mutex
//! (lock order shard → graph; no thread ever holds two shard locks):
//!
//! - an enqueue runs the cycle test and adds `waiter → holder`
//!   atomically, which rules out the race where two attempts
//!   concurrently block on each other and neither sees the half-formed
//!   cycle;
//! - a handoff to the first waiter removes the new holder's edge and
//!   re-points every remaining waiter at it.
//!
//! A lock without waiters has no edges pointing at its holder, so
//! granting or freeing it needs no graph update.
//!
//! Victim policy matches the sequential [`crate::locks::LockTable`]:
//! *die-self* — the requester whose enqueue would close a cycle is
//! denied and aborts itself. Waiting attempts are never aborted from
//! outside, so a parked worker only ever needs the condvar signal from
//! the handoff that grants it the lock.

use crate::version::AttemptId;
use mvmodel::Object;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Number of lock shards; like the store stripes, comfortably above
/// typical worker counts.
const SHARDS: usize = 16;

fn shard_of(object: Object) -> usize {
    ((object.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
}

/// Outcome of a parallel lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ParLockOutcome {
    /// Lock acquired (or already held by the requester).
    Granted,
    /// Enqueued behind the holder; the caller must block in
    /// [`SharedLockTable::await_grant`] until the handoff.
    Enqueued,
    /// Enqueueing would close a waits-for cycle; the requester aborts.
    Deadlock,
}

#[derive(Default)]
struct LockState {
    holder: Option<AttemptId>,
    waiters: VecDeque<AttemptId>,
}

#[derive(Default)]
struct Shard {
    locks: HashMap<Object, LockState>,
}

/// The global waits-for graph: blocked attempt → the holder it waits
/// behind, so the cycle walk never touches shard state.
#[derive(Default)]
struct WaitGraph {
    waits_for: HashMap<AttemptId, AttemptId>,
}

impl WaitGraph {
    /// Whether a waits-for path leads from `from` to `to`. Chains only
    /// (each attempt waits on at most one object), so the walk is
    /// linear; the step bound guards against cycles not through `to`.
    fn path_to(&self, mut from: AttemptId, to: AttemptId) -> bool {
        let mut steps = 0;
        loop {
            if from == to {
                return true;
            }
            let Some(&holder) = self.waits_for.get(&from) else {
                return false;
            };
            from = holder;
            steps += 1;
            if steps > self.waits_for.len() {
                return false;
            }
        }
    }
}

/// The shared lock table. Writers take exclusive per-object locks held
/// until commit or abort; reads never lock (MVCC).
pub(crate) struct SharedLockTable {
    shards: Vec<(Mutex<Shard>, Condvar)>,
    graph: Mutex<WaitGraph>,
}

impl SharedLockTable {
    pub fn new() -> Self {
        SharedLockTable {
            shards: (0..SHARDS)
                .map(|_| (Mutex::new(Shard::default()), Condvar::new()))
                .collect(),
            graph: Mutex::new(WaitGraph::default()),
        }
    }

    /// Requests the exclusive lock on `object` for `who`. Never blocks:
    /// on [`ParLockOutcome::Enqueued`] the caller parks in
    /// [`SharedLockTable::await_grant`]. Only a request that would block
    /// takes the graph mutex; there the cycle test and the enqueue are
    /// atomic, so concurrent blockers cannot slip an undetected cycle
    /// past each other.
    pub fn acquire(&self, who: AttemptId, object: Object) -> ParLockOutcome {
        let (shard, _) = &self.shards[shard_of(object)];
        let mut s = shard.lock().expect("not poisoned");
        let state = s.locks.entry(object).or_default();
        match state.holder {
            None => {
                state.holder = Some(who);
                ParLockOutcome::Granted
            }
            Some(h) if h == who => ParLockOutcome::Granted,
            Some(h) => {
                let mut g = self.graph.lock().expect("not poisoned");
                if g.path_to(h, who) {
                    return ParLockOutcome::Deadlock;
                }
                g.waits_for.insert(who, h);
                drop(g);
                if !state.waiters.contains(&who) {
                    state.waiters.push_back(who);
                }
                ParLockOutcome::Enqueued
            }
        }
    }

    /// Parks until the FIFO handoff makes `who` the holder of `object`.
    /// Must only be called right after [`ParLockOutcome::Enqueued`].
    pub fn await_grant(&self, who: AttemptId, object: Object) {
        let (shard, cv) = &self.shards[shard_of(object)];
        let mut s = shard.lock().expect("not poisoned");
        while s.locks.get(&object).and_then(|st| st.holder) != Some(who) {
            s = cv.wait(s).expect("not poisoned");
        }
    }

    /// Releases every lock in `held` (commit or abort), handing each to
    /// its first waiter (FIFO) and signalling that shard. `held` is the
    /// caller's thread-local held list — the parallel analogue of the
    /// sequential table's `held` map. A lock nobody waits for is freed
    /// inside its shard alone.
    pub fn release_all(&self, who: AttemptId, held: &[Object]) {
        for &object in held {
            let (shard, cv) = &self.shards[shard_of(object)];
            let mut s = shard.lock().expect("not poisoned");
            let state = s.locks.get_mut(&object).expect("held lock exists");
            debug_assert_eq!(state.holder, Some(who));
            let Some(next) = state.waiters.pop_front() else {
                state.holder = None;
                continue;
            };
            state.holder = Some(next);
            let mut g = self.graph.lock().expect("not poisoned");
            g.waits_for.remove(&next);
            for &w in &state.waiters {
                g.waits_for.insert(w, next);
            }
            drop(g);
            drop(s);
            cv.notify_all();
        }
    }

    /// Whether `who` currently holds the lock on `object` (debug
    /// assertions).
    #[cfg(debug_assertions)]
    pub fn holds(&self, who: AttemptId, object: Object) -> bool {
        self.shards[shard_of(object)]
            .0
            .lock()
            .expect("not poisoned")
            .locks
            .get(&object)
            .is_some_and(|s| s.holder == Some(who))
    }

    /// The holder `who` is recorded as waiting behind, if any.
    #[cfg(test)]
    pub fn waits_for(&self, who: AttemptId) -> Option<AttemptId> {
        self.graph
            .lock()
            .expect("not poisoned")
            .waits_for
            .get(&who)
            .copied()
    }

    /// Number of waits-for edges.
    #[cfg(test)]
    fn graph_edges(&self) -> usize {
        self.graph.lock().expect("not poisoned").waits_for.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> AttemptId {
        AttemptId(n)
    }

    fn o(n: u32) -> Object {
        Object(n)
    }

    #[test]
    fn grant_enqueue_handoff() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(9)), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(1), o(9)), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), o(9)), ParLockOutcome::Enqueued);
        // Handoff: releasing hands the lock to the first waiter, and a
        // parked thread observes the grant.
        std::thread::scope(|sc| {
            let waiter = sc.spawn(|| lt.await_grant(a(2), o(9)));
            lt.release_all(a(1), &[o(9)]);
            waiter.join().expect("waiter woke");
        });
        #[cfg(debug_assertions)]
        assert!(lt.holds(a(2), o(9)));
    }

    #[test]
    fn cross_shard_cycle_detected() {
        let lt = SharedLockTable::new();
        // Objects chosen so the chain spans multiple shards.
        let (x, y, z) = (o(0), o(1), o(2));
        assert!(shard_of(x) != shard_of(y) || shard_of(y) != shard_of(z));
        assert_eq!(lt.acquire(a(1), x), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), y), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(3), z), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(1), y), ParLockOutcome::Enqueued);
        assert_eq!(lt.acquire(a(2), z), ParLockOutcome::Enqueued);
        // a3 requesting x closes the 3-cycle through three shards.
        assert_eq!(lt.acquire(a(3), x), ParLockOutcome::Deadlock);
        // The victim was never enqueued: releasing its own lock hands z
        // to a2, unwinding the chain.
        lt.release_all(a(3), &[z]);
        lt.release_all(a(2), &[y, z]);
        lt.release_all(a(1), &[x, y]);
    }

    #[test]
    fn victim_is_always_the_cycle_closer() {
        // Same structure, roles swapped: whoever requests last dies,
        // independent of attempt id order.
        for &(first, second) in &[(1u64, 2u64), (2, 1)] {
            let lt = SharedLockTable::new();
            assert_eq!(lt.acquire(a(first), o(1)), ParLockOutcome::Granted);
            assert_eq!(lt.acquire(a(second), o(2)), ParLockOutcome::Granted);
            assert_eq!(lt.acquire(a(first), o(2)), ParLockOutcome::Enqueued);
            assert_eq!(
                lt.acquire(a(second), o(1)),
                ParLockOutcome::Deadlock,
                "the closer dies, whichever id it has"
            );
        }
    }

    #[test]
    fn handoff_clears_wait_edge_before_requeue() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(1)), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), o(1)), ParLockOutcome::Enqueued);
        assert_eq!(lt.acquire(a(3), o(2)), ParLockOutcome::Granted);
        lt.release_all(a(1), &[o(1)]);
        // a2 now holds o(1); its old wait edge must be gone, so a fresh
        // enqueue on another object is not misread as a cycle.
        assert_eq!(lt.acquire(a(2), o(2)), ParLockOutcome::Enqueued);
        // And a3 → o(1) now waits on a2: a genuine 2-cycle, detected.
        assert_eq!(lt.acquire(a(3), o(1)), ParLockOutcome::Deadlock);
    }

    #[test]
    fn uncontended_acquire_and_release_leave_the_graph_empty() {
        let lt = SharedLockTable::new();
        for n in 0..8 {
            assert_eq!(lt.acquire(a(1), o(n)), ParLockOutcome::Granted);
        }
        assert_eq!(lt.acquire(a(1), o(3)), ParLockOutcome::Granted);
        assert_eq!(lt.graph_edges(), 0, "grants without waiters add no edge");
        lt.release_all(a(1), &(0..8).map(o).collect::<Vec<_>>());
        assert_eq!(lt.graph_edges(), 0);
        assert_eq!(lt.acquire(a(2), o(3)), ParLockOutcome::Granted);
        assert_eq!(lt.graph_edges(), 0, "a freed lock is re-granted in-shard");
    }

    #[test]
    fn handoff_repoints_remaining_waiters_at_the_new_holder() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(5)), ParLockOutcome::Granted);
        for w in 2..=4 {
            assert_eq!(lt.acquire(a(w), o(5)), ParLockOutcome::Enqueued);
            assert_eq!(lt.waits_for(a(w)), Some(a(1)));
        }
        lt.release_all(a(1), &[o(5)]);
        #[cfg(debug_assertions)]
        assert!(lt.holds(a(2), o(5)), "FIFO handoff to the first waiter");
        assert_eq!(lt.waits_for(a(2)), None, "the new holder waits no more");
        assert_eq!(lt.waits_for(a(3)), Some(a(2)));
        assert_eq!(lt.waits_for(a(4)), Some(a(2)));
        assert_eq!(lt.graph_edges(), 2);
        lt.release_all(a(2), &[o(5)]);
        assert_eq!(lt.waits_for(a(4)), Some(a(3)));
        lt.release_all(a(3), &[o(5)]);
        lt.release_all(a(4), &[o(5)]);
        assert_eq!(lt.graph_edges(), 0);
    }

    #[test]
    fn cycle_through_the_new_holder_is_detected() {
        let lt = SharedLockTable::new();
        assert_eq!(lt.acquire(a(1), o(1)), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(3), o(3)), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(4), o(2)), ParLockOutcome::Granted);
        assert_eq!(lt.acquire(a(2), o(1)), ParLockOutcome::Enqueued);
        assert_eq!(lt.acquire(a(3), o(1)), ParLockOutcome::Enqueued);
        // Handoff: a2 holds o(1), a3 now waits behind a2.
        lt.release_all(a(1), &[o(1)]);
        assert_eq!(lt.acquire(a(2), o(2)), ParLockOutcome::Enqueued);
        // a4 → a2 → a4 closes through the new holder.
        assert_eq!(lt.acquire(a(4), o(1)), ParLockOutcome::Deadlock);
        // a4 → a3 → a2 → a4 closes only through the re-pointed edge
        // a3 → a2; the stale a3 → a1 would have hidden it.
        assert_eq!(lt.acquire(a(4), o(3)), ParLockOutcome::Deadlock);
        assert_eq!(lt.graph_edges(), 2, "victims add no edge");
    }
}
