//! Workload analysis: structural statistics that explain robustness
//! verdicts and guide tuning (used by the CLI's `analyze` command and
//! the evaluation harness), plus [`EngineStats`] — the work counters
//! the allocation engine reports per run.

use crate::algorithm1::is_robust;
use crate::allocate::optimal_allocation;
use crate::conflict_index::ConflictIndex;
use crate::rc_si::optimal_allocation_rc_si;
use crate::sdg::{static_si_robust, StaticVerdict};
use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{TransactionSet, TxnId};
use std::time::Duration;

/// Work performed by one [`crate::allocate::Allocator`] run: how many
/// full Algorithm 1 probes ran, how many were answered by the
/// counterexample cache instead, how many iso-graph constructions the
/// per-`T₁` cache paid for, and the wall time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Full Algorithm 1 searches executed.
    pub probes: u64,
    /// Lowering attempts rejected by re-validating a cached
    /// counterexample (`SplitSpec::check`) — each one is a probe that
    /// never ran.
    pub cache_hits: u64,
    /// Distinct counterexamples held by the cache at the end of the run
    /// (summed over the component solves of a sharded run).
    pub cached_specs: u64,
    /// `IsoReach` structures built; without the per-`T₁` cache this
    /// would be ~`probes × |T|` on conflict-heavy workloads.
    pub iso_builds: u64,
    /// Conflict-graph components actually searched or solved by the
    /// sharded engine (0 on unsharded runs).
    pub components_checked: u64,
    /// Components answered from the content-addressed component cache
    /// without any search — the near-O(1) delta path.
    pub components_cached: u64,
    /// `u64` words processed by the bit-parallel closure kernels
    /// (iso-graph construction plus reachability queries).
    pub kernel_row_ops: u64,
    /// Delta events (adds + removes) applied by
    /// [`crate::allocate::Allocator::apply_batch`]; 0 on every other
    /// path, including the single-event delta API.
    pub batch_events: u64,
    /// Conflict-graph components resolved by actual work (fingerprint
    /// cache misses and singletons) while answering a batch — the solve
    /// cost the group-commit coalescing pays once instead of once per
    /// event. 0 outside the batch path.
    pub batched_components_solved: u64,
    /// Worker threads configured for the outer search.
    pub threads: usize,
    /// End-to-end wall time of the engine run.
    pub wall: Duration,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "probes={} cache_hits={} cached_specs={} iso_builds={} comps_checked={} \
             comps_cached={} kernel_row_ops={} batch_events={} batched_solved={} \
             threads={} wall={:.3}ms",
            self.probes,
            self.cache_hits,
            self.cached_specs,
            self.iso_builds,
            self.components_checked,
            self.components_cached,
            self.kernel_row_ops,
            self.batch_events,
            self.batched_components_solved,
            self.threads,
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

/// A structural + robustness report for a workload.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    pub transactions: usize,
    pub total_ops: usize,
    pub max_ops: usize,
    pub objects: usize,
    /// Number of unordered transaction pairs with at least one conflict.
    pub conflicting_pairs: usize,
    /// Conflicting pairs / all pairs.
    pub conflict_density: f64,
    /// Pairs with a ww conflict (protected under SI's
    /// first-committer-wins).
    pub ww_pairs: usize,
    /// Directed pairs with a vulnerable rw edge (rw conflict, no shared
    /// ww) — the raw material of counterexamples.
    pub vulnerable_edges: usize,
    /// Connected components of the conflict graph — the sharded engine's
    /// unit of work (counterexamples never cross components).
    pub components: usize,
    /// Size of the largest conflict component (the sharded engine's
    /// critical path).
    pub largest_component: usize,
    pub robust_rc: bool,
    pub robust_si: bool,
    pub static_si: StaticVerdict,
    pub optimal: Allocation,
    pub optimal_rc_si: Option<Allocation>,
}

impl WorkloadReport {
    /// Computes the full report (runs Algorithm 1 four times plus
    /// Algorithm 2, all polynomial).
    pub fn analyze(txns: &TransactionSet) -> WorkloadReport {
        let n = txns.len();
        let index = ConflictIndex::new(txns);
        let mut conflicting_pairs = 0;
        let mut ww_pairs = 0;
        let mut vulnerable_edges = 0;
        for i in 0..n {
            for j in 0..n {
                if i < j {
                    if index.any(i, j) {
                        conflicting_pairs += 1;
                    }
                    if index.ww(i, j) {
                        ww_pairs += 1;
                    }
                }
                if i != j && index.wr(j, i) && !index.ww(i, j) {
                    vulnerable_edges += 1;
                }
            }
        }
        let all_pairs = n * n.saturating_sub(1) / 2;
        let comps = crate::components::Components::new(txns, &index);
        WorkloadReport {
            transactions: n,
            total_ops: txns.total_ops(),
            max_ops: txns.max_ops(),
            objects: txns.objects().len(),
            conflicting_pairs,
            conflict_density: if all_pairs == 0 {
                0.0
            } else {
                conflicting_pairs as f64 / all_pairs as f64
            },
            ww_pairs,
            vulnerable_edges,
            components: comps.count(),
            largest_component: comps.largest(),
            robust_rc: is_robust(txns, &Allocation::uniform_rc(txns)).robust(),
            robust_si: is_robust(txns, &Allocation::uniform_si(txns)).robust(),
            static_si: static_si_robust(txns),
            optimal: optimal_allocation(txns),
            optimal_rc_si: optimal_allocation_rc_si(txns),
        }
    }

    /// `(#RC, #SI, #SSI)` of the optimal allocation.
    pub fn optimal_counts(&self) -> (usize, usize, usize) {
        self.optimal.counts()
    }

    /// Transactions forced above RC by the optimum, with their levels —
    /// the "watch list" a DBA would review.
    pub fn above_rc(&self) -> Vec<(TxnId, IsolationLevel)> {
        self.optimal
            .iter()
            .filter(|&(_, l)| l > IsolationLevel::RC)
            .collect()
    }
}

impl std::fmt::Display for WorkloadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "workload: {} transactions, {} ops (max {}/txn), {} objects",
            self.transactions, self.total_ops, self.max_ops, self.objects
        )?;
        writeln!(
            f,
            "conflicts: {} pairs ({:.0}% density), {} ww-protected pairs, {} vulnerable rw edges",
            self.conflicting_pairs,
            self.conflict_density * 100.0,
            self.ww_pairs,
            self.vulnerable_edges
        )?;
        writeln!(
            f,
            "components: {} (largest {})",
            self.components, self.largest_component
        )?;
        writeln!(
            f,
            "robust against: RC = {}, SI = {} (static SDG test: {})",
            self.robust_rc,
            self.robust_si,
            if self.static_si.certified() {
                "certified"
            } else {
                "flagged"
            }
        )?;
        let (rc, si, ssi) = self.optimal_counts();
        writeln!(
            f,
            "optimal allocation: {} ({rc} RC / {si} SI / {ssi} SSI)",
            self.optimal
        )?;
        match &self.optimal_rc_si {
            Some(a) => write!(f, "optimal {{RC, SI}} allocation: {a}"),
            None => write!(f, "no {{RC, SI}} allocation exists (SSI required)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmodel::TxnSetBuilder;

    fn mixed_workload() -> TransactionSet {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        let z = b.object("z");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(z).write(z).finish();
        b.txn(4).read(z).write(z).finish();
        b.build().unwrap()
    }

    #[test]
    fn report_fields() {
        let txns = mixed_workload();
        let r = WorkloadReport::analyze(&txns);
        assert_eq!(r.transactions, 4);
        assert_eq!(r.total_ops, 8);
        assert_eq!(r.max_ops, 2);
        assert_eq!(r.objects, 3);
        // Conflicting pairs: (1,2) and (3,4).
        assert_eq!(r.conflicting_pairs, 2);
        assert!((r.conflict_density - 2.0 / 6.0).abs() < 1e-9);
        // ww pairs: (3,4) on z.
        assert_eq!(r.ww_pairs, 1);
        // Vulnerable: 1→2 and 2→1 (skew); 3→4/4→3 are ww-protected.
        assert_eq!(r.vulnerable_edges, 2);
        // Two conflict clusters: {1,2} and {3,4}.
        assert_eq!(r.components, 2);
        assert_eq!(r.largest_component, 2);
        assert!(!r.robust_rc);
        assert!(!r.robust_si);
        assert!(!r.static_si.certified());
        let (rc, si, ssi) = r.optimal_counts();
        assert_eq!((rc, si, ssi), (0, 2, 2));
        assert_eq!(r.optimal_rc_si, None);
        assert_eq!(r.above_rc().len(), 4);
    }

    #[test]
    fn report_displays() {
        let txns = mixed_workload();
        let shown = WorkloadReport::analyze(&txns).to_string();
        assert!(shown.contains("4 transactions"));
        assert!(shown.contains("vulnerable"));
        assert!(shown.contains("no {RC, SI} allocation"));
    }

    #[test]
    fn empty_pairs_density_zero() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).finish();
        let txns = b.build().unwrap();
        let r = WorkloadReport::analyze(&txns);
        assert_eq!(r.conflict_density, 0.0);
        assert!(r.robust_rc && r.robust_si);
        assert!(r.static_si.certified());
        assert!(r.above_rc().is_empty());
    }
}
