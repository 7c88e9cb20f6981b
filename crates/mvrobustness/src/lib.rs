//! Robustness and optimal isolation-level allocation — the core
//! contribution of *Allocating Isolation Levels to Transactions in a
//! Multiversion Setting* (Vandevoort, Ketsman & Neven, PODS 2023).
//!
//! - [`algorithm1`]: the polynomial-time robustness decision procedure
//!   (paper Algorithm 1 / Theorems 3.2–3.3). [`is_robust`] answers the
//!   decision problem; when the answer is *no* it also returns the
//!   [`SplitSpec`] describing a counterexample multiversion split schedule
//!   (Definition 3.1).
//! - [`witness`]: materializes a [`SplitSpec`] into a concrete
//!   [`mvmodel::Schedule`] — complete with version order and version
//!   function — and machine-checks that it is allowed under the allocation
//!   yet not conflict-serializable (the constructive (2)→(1) direction of
//!   Theorem 3.2).
//! - [`allocate`]: Algorithm 2 — the unique optimal robust allocation over
//!   `{RC, SI, SSI}` (Propositions 4.1–4.2, Theorem 4.3).
//! - [`rc_si`]: the Oracle-style restriction to `{RC, SI}` (Propositions
//!   5.1/5.4, Theorem 5.5).
//! - [`oracle`]: a brute-force ground-truth decision procedure that
//!   enumerates every schedule allowed under the allocation — exponential,
//!   for validating Algorithm 1 on small workloads.
//! - [`conflict_index`]: precomputed transaction-level conflict matrices
//!   (bit-packed) and the `mixed-iso-graph` reachability structure
//!   Algorithm 1 uses.
//! - [`mod@reference`]: the pre-engine single-threaded implementation, kept
//!   as the ground truth for the equivalence suite and the baseline for
//!   the engine benchmarks.
//!
//! The engine entry points are [`RobustnessChecker`] (Algorithm 1 with
//! per-`T₁` iso-graph caching, bitset candidate iteration, and an
//! optional parallel outer search) and [`Allocator`] (Algorithm 2 with a
//! counterexample cache); both report their work through
//! [`SearchStats`] / [`EngineStats`]. An [`Allocator`] built with
//! [`Allocator::from_owned`] additionally maintains the optimum *online*
//! as transactions register and deregister ([`Allocator::add_txn`] /
//! [`Allocator::remove_txn`]), re-solving only the conflict components a
//! change touches, warm from the previous optimum — the substrate of the
//! `mvservice` daemon.

pub mod algorithm1;
pub mod allocate;
pub mod components;
pub mod conflict_index;
pub mod oracle;
pub mod rc_si;
pub mod reference;
pub mod sdg;
pub mod split_schedule;
pub mod stats;
pub mod witness;

pub use algorithm1::{
    find_counterexample, is_robust, RobustnessChecker, RobustnessReport, SearchStats,
};
pub use allocate::{
    optimal_allocation, optimal_allocation_explained, optimal_allocation_in_box,
    optimal_allocation_with_floor, AllocError, Allocator, BatchRealloc, DeltaEvent, LevelSet,
    ParseLevelSetError, Realloc,
};
pub use components::{CompEntry, Components, SharedCompCache};
pub use conflict_index::ConflictIndex;
pub use oracle::{
    check_trace, corroborate_anomaly, oracle_counterexample, oracle_is_robust, validate_trace,
    AnomalyMismatch, TraceError, TraceVerdict,
};
pub use rc_si::{optimal_allocation_rc_si, robustly_allocatable_rc_si};
pub use reference::{optimal_allocation_reference, ReferenceChecker};
pub use sdg::{static_si_robust, StaticVerdict};
pub use split_schedule::SplitSpec;
pub use stats::EngineStats;
pub use witness::{materialize, verify_witness, WitnessError};

/// Audit re-verify hook: re-runs Algorithm 1 over a concrete workload and
/// returns the counterexample split schedule when the allocation is not
/// robust. Used by `mvtemplates`' catalog registration (randomized
/// re-verification of the precomputed template allocation) and by the
/// equivalence suites — one canonical way to ask "does this allocation
/// still hold?" without touching an [`Allocator`].
pub fn reverify(
    txns: &mvmodel::TransactionSet,
    alloc: &mvisolation::Allocation,
) -> Result<(), SplitSpec> {
    let report = is_robust(txns, alloc);
    if report.robust() {
        Ok(())
    } else {
        Err(report
            .into_counterexample()
            .expect("non-robust reports carry a counterexample"))
    }
}
