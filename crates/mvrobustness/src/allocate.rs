//! Algorithm 2: computing the unique optimal robust allocation over
//! `{RC, SI, SSI}`.
//!
//! [`Allocator`] is the engine-backed entry point. It decomposes the
//! workload into conflict components (DESIGN.md §S14), answers each
//! component it has solved before from a content-addressed cache, and
//! solves the rest with one [`RobustnessChecker`] per component
//! (conflict matrices, per-`T₁` iso-graph cache, optional search
//! threads). Each solve keeps a **counterexample cache** that answers
//! most failing probes without a search at all. A [`crate::SplitSpec`]
//! that defeated one lowering usually defeats the next: before each full
//! probe, cached specs are re-validated against the candidate allocation
//! with [`crate::SplitSpec::check`] — sound because a spec that checks
//! *is* a multiversion split schedule for the candidate (Theorem 3.2),
//! so the candidate is certainly not robust. Cache misses fall through
//! to the full search, so the refinement's decisions — and therefore the
//! computed optimum — are bit-for-bit those of the uncached algorithm.
//! [`Allocator::with_components`]`(false)` runs the one-shot methods
//! over the whole set instead: the monolithic reference engine.
//!
//! The free functions ([`optimal_allocation`] &c.) keep their original
//! signatures and delegate to a single-threaded [`Allocator`].
//!
//! # Online deltas
//!
//! [`Allocator::add_txn`], [`Allocator::remove_txn`] and
//! [`Allocator::apply_batch`] maintain the optimum *incrementally* as
//! the workload changes (the access pattern of a long-running
//! allocation service). All three run one step: apply the events to the
//! membership, then re-solve through the component solver. Components
//! the events left untouched are cache hits; each touched component is
//! solved warm from the previous optimum, using the monotonicity of the
//! unique optimum (Proposition 4.1(2) / Theorem 4.3):
//!
//! - **Adding** a transaction can only *raise* levels: any robust
//!   allocation of the grown set restricts to a robust allocation of the
//!   old set, so the new optimum dominates the old one pointwise. The
//!   solve probes the previous optimum restricted to the component, with
//!   newcomers at the ceiling — when that is robust, refinement starts
//!   there instead of from the uniform ceiling — and, when nothing was
//!   removed, uses the old levels as a *floor*, skipping every lowering
//!   the old optimum already ruled out.
//! - **Removing** a transaction can only *lower* levels: the old optimum
//!   restricted to the survivors is still robust, so refinement starts
//!   from that restriction without a probe and only lowers.
//!
//! Acceptances always come from a full probe and the optimum is unique
//! (Proposition 4.2), so whatever the start, the result is bit-for-bit
//! the from-scratch optimum — which is also why the fingerprint caches
//! may hold it. `tests/delta_equivalence.rs` and
//! `tests/batch_equivalence.rs` assert exactly that on randomized
//! workloads.

use crate::algorithm1::RobustnessChecker;
use crate::components::{CompCache, CompEntry, Components, SharedCompCache, COMP_CACHE_CAP};
use crate::conflict_index::ConflictIndex;
use crate::split_schedule::SplitSpec;
use crate::stats::EngineStats;
use mvisolation::{Allocation, IsolationLevel, LevelChange};
use mvmodel::{Object, Transaction, TransactionSet, TxnId};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A failed lowering attempt: the transaction, the level that was
/// tried, and the counterexample that rejected it.
pub type Reason = (TxnId, IsolationLevel, SplitSpec);

/// The isolation-level menu an allocation may draw from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LevelSet {
    /// `{RC, SI}` — the Oracle-style restriction of §5, where no robust
    /// allocation may exist (Proposition 5.4).
    RcSi,
    /// `{RC, SI, SSI}` — the full ladder of §4; the uniform-SSI ceiling
    /// is always robust, so an optimum always exists.
    #[default]
    RcSiSsi,
}

impl LevelSet {
    pub const ALL: [LevelSet; 2] = [LevelSet::RcSi, LevelSet::RcSiSsi];

    /// The canonical spelling, accepted by the [`FromStr`](std::str::FromStr) impl.
    pub fn label(self) -> &'static str {
        match self {
            LevelSet::RcSi => "rc-si",
            LevelSet::RcSiSsi => "rc-si-ssi",
        }
    }

    /// The highest level of the menu — the refinement's starting point.
    pub fn ceiling(self) -> IsolationLevel {
        match self {
            LevelSet::RcSi => IsolationLevel::SI,
            LevelSet::RcSiSsi => IsolationLevel::SSI,
        }
    }
}

impl std::fmt::Display for LevelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error from parsing a [`LevelSet`]; lists the accepted spellings.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseLevelSetError(pub String);

impl std::fmt::Display for ParseLevelSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let accepted: Vec<&str> = LevelSet::ALL.iter().map(|l| l.label()).collect();
        write!(
            f,
            "unknown level set `{}` (accepted: {})",
            self.0,
            accepted.join(", ")
        )
    }
}

impl std::error::Error for ParseLevelSetError {}

impl std::str::FromStr for LevelSet {
    type Err = ParseLevelSetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LevelSet::ALL
            .into_iter()
            .find(|l| l.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseLevelSetError(s.to_string()))
    }
}

/// Why a registry mutation was rejected. The [`Allocator`]'s transaction
/// set and optimum are unchanged after an error: unallocatable or
/// timed-out mutations are rolled back (a timed-out removal re-inserts
/// the transaction), so the cached optimum always matches the set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// [`Allocator::add_txn`] with an id already registered.
    Duplicate(TxnId),
    /// [`Allocator::remove_txn`] with an id not registered.
    Unknown(TxnId),
    /// No robust allocation exists over the level set (only possible for
    /// [`LevelSet::RcSi`], by Proposition 5.4).
    NotAllocatable(LevelSet),
    /// The reallocation's deadline expired before refinement finished
    /// (see [`Allocator::with_op_timeout`]); the mutation was rolled
    /// back and the previous optimum still stands.
    Timeout,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Duplicate(t) => write!(f, "transaction {t} is already registered"),
            AllocError::Unknown(t) => write!(f, "transaction {t} is not registered"),
            AllocError::NotAllocatable(l) => {
                write!(f, "no robust {l} allocation exists for the workload")
            }
            AllocError::Timeout => {
                write!(f, "reallocation timed out and was rolled back")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The outcome of one (incremental) reallocation: the new optimum, the
/// transactions whose level changed relative to the previous optimum
/// ([`Allocation::diff`]), and the engine work counters.
#[derive(Clone, Debug)]
pub struct Realloc {
    pub allocation: Allocation,
    pub changed: Vec<LevelChange>,
    pub stats: EngineStats,
}

/// One membership mutation inside a coalesced batch
/// ([`Allocator::apply_batch`]).
#[derive(Clone, Debug)]
pub enum DeltaEvent {
    /// Register a transaction (see [`Allocator::add_txn`]).
    Add(Transaction),
    /// Deregister a transaction (see [`Allocator::remove_txn`]).
    Remove(TxnId),
}

impl DeltaEvent {
    /// The transaction the event concerns.
    pub fn id(&self) -> TxnId {
        match self {
            DeltaEvent::Add(t) => t.id(),
            DeltaEvent::Remove(id) => *id,
        }
    }
}

/// The outcome of one coalesced batch of membership mutations
/// ([`Allocator::apply_batch`]): the new optimum, one verdict per
/// event, and the changed-levels diff versus the *pre-batch* optimum.
#[derive(Clone, Debug)]
pub struct BatchRealloc {
    pub allocation: Allocation,
    /// Per-event verdicts, in input order. `Err` events were rolled
    /// back individually (a rejected add is not in the set; a duplicate
    /// add or unknown remove never touched it); all `Ok` events become
    /// visible in `allocation` atomically.
    pub outcomes: Vec<Result<(), AllocError>>,
    /// `prev.diff(new)` of the pre-batch and post-batch optima — the
    /// net level movement of the whole batch, not per event.
    pub changed: Vec<LevelChange>,
    pub stats: EngineStats,
}

impl BatchRealloc {
    /// How many events were applied (the `Ok` verdicts).
    pub fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// A one-event step as the single-event API reports it.
    fn into_single(mut self) -> Result<Realloc, AllocError> {
        self.outcomes
            .pop()
            .expect("a one-event step has one verdict")?;
        Ok(Realloc {
            allocation: self.allocation,
            changed: self.changed,
            stats: self.stats,
        })
    }
}

/// Engine-backed Algorithm 2 runner over one transaction set.
///
/// ```text
/// let (alloc, stats) = Allocator::new(&txns).with_threads(4).optimal();
/// ```
///
/// Constructed with [`Allocator::new`] it borrows the set; constructed
/// with [`Allocator::from_owned`] it owns it and additionally supports
/// the online delta API ([`Allocator::add_txn`],
/// [`Allocator::remove_txn`], [`Allocator::current`]).
pub struct Allocator<'a> {
    txns: Cow<'a, TransactionSet>,
    threads: usize,
    levels: LevelSet,
    /// Per-mutation deadline budget for the delta API (None = unbounded).
    op_timeout: Option<Duration>,
    /// The optimum of the current set, when known (delta API state).
    last: Option<Allocation>,
    /// Work counters of the most recent reallocation.
    last_stats: Option<EngineStats>,
    /// Component sharding for the one-shot methods (on by default;
    /// `with_components(false)` selects the monolithic engine).
    components: bool,
    /// Solved components keyed by content fingerprint, persisted across
    /// reallocations: a delta that leaves a component untouched answers
    /// it from here without any search.
    comp_cache: CompCache,
    /// Optional second-level component cache shared across allocators
    /// (cross-tenant in `mvservice`). Consulted after a local miss;
    /// solved components are published to both.
    shared_cache: Option<Arc<SharedCompCache>>,
}

impl<'a> Allocator<'a> {
    pub fn new(txns: &'a TransactionSet) -> Self {
        Allocator {
            txns: Cow::Borrowed(txns),
            threads: 1,
            levels: LevelSet::default(),
            op_timeout: None,
            last: None,
            last_stats: None,
            components: true,
            comp_cache: CompCache::new(COMP_CACHE_CAP),
            shared_cache: None,
        }
    }

    /// An allocator owning its transaction set — the form the online
    /// delta API mutates. Start from `TransactionSet::default()` for an
    /// initially empty registry.
    pub fn from_owned(txns: TransactionSet) -> Allocator<'static> {
        Allocator {
            txns: Cow::Owned(txns),
            threads: 1,
            levels: LevelSet::default(),
            op_timeout: None,
            last: None,
            last_stats: None,
            components: true,
            comp_cache: CompCache::new(COMP_CACHE_CAP),
            shared_cache: None,
        }
    }

    /// Worker threads for each probe's outer search (clamped to ≥ 1).
    /// Results are identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects the engine of the one-shot [`Allocator::optimal`] and
    /// [`Allocator::optimal_rc_si`]: component-sharded (the default) or
    /// monolithic. Sharding decomposes the workload into conflict
    /// components, solves each independently (in parallel with
    /// [`Allocator::with_threads`] > 1), and unions the per-component
    /// optima — bit-identical to the monolithic result by the uniqueness
    /// of the optimum (Prop. 4.2) and component locality of split
    /// schedules. `false` runs the monolithic engine over the whole set
    /// (`--no-components`), the independent reference the equivalence
    /// suites check against. The delta API ([`Allocator::current`],
    /// [`Allocator::add_txn`], [`Allocator::remove_txn`],
    /// [`Allocator::apply_batch`]) always shards and ignores this
    /// setting.
    pub fn with_components(mut self, on: bool) -> Self {
        self.components = on;
        self
    }

    /// Attaches a [`SharedCompCache`] consulted after local-cache misses
    /// and fed by every solve. Sharing one handle across allocators
    /// makes identical component shapes pure hits for all of them; the
    /// results stay bit-identical because entries are content-addressed
    /// unique optima (Proposition 4.2). Unlike the local cache, the
    /// shared cache survives [`Allocator::with_levels`] — the menu is
    /// part of its key.
    pub fn with_shared_cache(mut self, cache: Arc<SharedCompCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// The attached shared component cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCompCache>> {
        self.shared_cache.as_ref()
    }

    /// The level menu used by the delta API ([`Allocator::current`],
    /// [`Allocator::add_txn`], [`Allocator::remove_txn`]). The one-shot
    /// methods ([`Allocator::optimal`], [`Allocator::optimal_rc_si`])
    /// select their menu by name instead and ignore this setting.
    ///
    /// Changing the menu drops the cached optimum and clears the
    /// component cache: both are optima *for a menu*, and the menu is
    /// deliberately not part of the content-addressed key. The next
    /// delta call recomputes the optimum over the new menu.
    pub fn with_levels(mut self, levels: LevelSet) -> Self {
        if levels != self.levels {
            self.comp_cache.clear();
            self.last = None;
            self.last_stats = None;
        }
        self.levels = levels;
        self
    }

    /// The configured level menu.
    pub fn levels(&self) -> LevelSet {
        self.levels
    }

    /// Caps how long each delta mutation ([`Allocator::add_txn`],
    /// [`Allocator::remove_txn`], the first [`Allocator::current`]) may
    /// spend refining. The deadline is checked between probes (a single
    /// probe is never interrupted); on expiry the mutation is **rolled
    /// back** — an add reverts the insertion, a remove re-inserts the
    /// transaction — and [`AllocError::Timeout`] is returned, so the
    /// cached optimum keeps matching the set exactly. The one-shot
    /// methods ([`Allocator::optimal`] &c.) ignore this setting.
    pub fn with_op_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// The configured per-mutation timeout.
    pub fn op_timeout(&self) -> Option<Duration> {
        self.op_timeout
    }

    /// The deadline for a delta mutation starting now.
    fn op_deadline(&self) -> Option<Instant> {
        self.op_timeout.map(|t| Instant::now() + t)
    }

    /// The transaction set the allocator currently covers.
    pub fn txns(&self) -> &TransactionSet {
        self.txns.as_ref()
    }

    /// Interns an object name against the owned set (see
    /// [`TransactionSet::intern_object`]) so transactions registered
    /// later share object identities. Interning never alters conflicts,
    /// so the cached optimum stays valid.
    pub fn intern_object(&mut self, name: &str) -> Object {
        self.txns.to_mut().intern_object(name)
    }

    fn checker(&self) -> RobustnessChecker<'_> {
        RobustnessChecker::new(self.txns.as_ref())
            .with_threads(self.threads)
            .with_components(self.components)
    }

    fn finish(
        &self,
        checker: &RobustnessChecker<'_>,
        cache: &CacheStats,
        start: Instant,
    ) -> EngineStats {
        EngineStats {
            probes: checker.stats().probes(),
            cache_hits: cache.hits,
            cached_specs: cache.specs,
            iso_builds: checker.stats().iso_builds(),
            components_checked: checker.stats().components_checked(),
            components_cached: checker.stats().components_cached(),
            kernel_row_ops: checker.stats().kernel_row_ops(),
            batch_events: 0,
            batched_components_solved: 0,
            threads: self.threads,
            wall: start.elapsed(),
        }
    }

    /// The sharded one-shot optimum over `levels` (`None`: not
    /// allocatable), solved cold into a fresh component cache.
    fn optimal_sharded(&self, levels: LevelSet) -> (Option<Allocation>, EngineStats) {
        let start = Instant::now();
        let job = Solve {
            txns: self.txns(),
            levels,
            threads: self.threads,
            deadline: None,
            warm: None,
        };
        let mut cache = CompCache::new(COMP_CACHE_CAP);
        let mut s = ShardStats::default();
        // Without a deadline the only possible error is NotAllocatable.
        let alloc = shard_optimal(&job, &mut cache, self.shared_cache.as_deref(), &mut s).ok();
        (alloc, s.engine_stats(self.threads, start))
    }

    /// The unique optimal robust allocation over `{RC, SI, SSI}`
    /// (Theorem 4.3), plus the work counters.
    pub fn optimal(&self) -> (Allocation, EngineStats) {
        if self.components {
            let (alloc, stats) = self.optimal_sharded(LevelSet::RcSiSsi);
            return (alloc.expect("the all-SSI ceiling is always robust"), stats);
        }
        let start = Instant::now();
        let checker = self.checker();
        let (alloc, cache) = refine_cached(
            self.txns(),
            &checker,
            Allocation::uniform_ssi(self.txns()),
            None,
            &mut |_, _, _| {},
        );
        let stats = self.finish(&checker, &cache, start);
        (alloc, stats)
    }

    /// [`Allocator::optimal`] that also reports, for each lowering
    /// attempt that failed, the counterexample that rejected it.
    pub fn optimal_explained(&self) -> (Allocation, Vec<Reason>, EngineStats) {
        let start = Instant::now();
        let checker = self.checker();
        let mut reasons = Vec::new();
        let (alloc, cache) = refine_cached(
            self.txns(),
            &checker,
            Allocation::uniform_ssi(self.txns()),
            None,
            &mut |t, lvl, spec| reasons.push((t, lvl, spec.clone())),
        );
        let stats = self.finish(&checker, &cache, start);
        (alloc, reasons, stats)
    }

    /// The least robust allocation inside the box `lo ≤ 𝒜 ≤ hi`
    /// (pointwise), or `None` when no robust allocation exists in the
    /// box. See [`optimal_allocation_in_box`] for the correctness
    /// argument and use cases.
    ///
    /// Panics when `lo`/`hi` do not cover every transaction or `lo ≰ hi`.
    pub fn optimal_in_box(
        &self,
        lo: &Allocation,
        hi: &Allocation,
    ) -> (Option<Allocation>, EngineStats) {
        assert!(
            lo.covers(self.txns()) && hi.covers(self.txns()),
            "bounds must cover every transaction"
        );
        assert!(lo.le(hi), "need lo ≤ hi pointwise");
        let start = Instant::now();
        let checker = self.checker();
        if !checker.is_robust(hi).robust() {
            let stats = self.finish(&checker, &CacheStats::default(), start);
            return (None, stats);
        }
        let (alloc, cache) = refine_cached(
            self.txns(),
            &checker,
            hi.clone(),
            Some(lo),
            &mut |_, _, _| {},
        );
        let stats = self.finish(&checker, &cache, start);
        (Some(alloc), stats)
    }

    /// [`Allocator::optimal_in_box`] with only a lower bound
    /// (`hi = 𝒜_SSI`). Always succeeds, since `𝒜_SSI` is robust.
    pub fn optimal_with_floor(&self, floor: &Allocation) -> (Allocation, EngineStats) {
        let (alloc, stats) = self.optimal_in_box(floor, &Allocation::uniform_ssi(self.txns()));
        (alloc.expect("the all-SSI ceiling is always robust"), stats)
    }

    /// The unique optimal robust `{RC, SI}`-allocation (Theorem 5.5),
    /// or `None` when none exists — i.e. when `𝒜_SI` itself is not
    /// robust (Proposition 5.4).
    pub fn optimal_rc_si(&self) -> (Option<Allocation>, EngineStats) {
        if self.components {
            return self.optimal_sharded(LevelSet::RcSi);
        }
        let start = Instant::now();
        let checker = self.checker();
        let si = Allocation::uniform_si(self.txns());
        if !checker.is_robust(&si).robust() {
            let stats = self.finish(&checker, &CacheStats::default(), start);
            return (None, stats);
        }
        let (alloc, cache) = refine_cached(self.txns(), &checker, si, None, &mut |_, _, _| {});
        let stats = self.finish(&checker, &cache, start);
        (Some(alloc), stats)
    }

    // ---- Online delta API -------------------------------------------

    /// The optimum of the current set over the configured
    /// [`LevelSet`], computing (and caching) it on first use.
    pub fn current(&mut self) -> Result<&Allocation, AllocError> {
        self.ensure_current(self.op_deadline())?;
        Ok(self.last.as_ref().expect("ensure_current fills the cache"))
    }

    /// Work counters of the most recent delta-API (re)allocation.
    pub fn last_stats(&self) -> Option<&EngineStats> {
        self.last_stats.as_ref()
    }

    /// Registers `txn` and incrementally recomputes the optimum.
    ///
    /// Adding a transaction can only raise levels (any robust allocation
    /// of the grown set restricts to a robust one of the old set), so the
    /// previous optimum is a valid *floor* for every surviving
    /// transaction. The touched component's solve probes the previous
    /// optimum extended with the newcomer at the ceiling; since the
    /// optimum is the pointwise-least robust allocation, refining from
    /// that candidate (when robust) or from the uniform ceiling
    /// (otherwise) reaches the exact from-scratch optimum.
    ///
    /// Over [`LevelSet::RcSi`] the grown workload may not be
    /// allocatable; the insertion is then rolled back and the previous
    /// optimum kept.
    pub fn add_txn(&mut self, txn: Transaction) -> Result<Realloc, AllocError> {
        self.add_txn_by(txn, self.op_deadline())
    }

    /// [`Allocator::add_txn`] against an explicit deadline (`None` =
    /// unbounded), overriding the configured
    /// [`Allocator::with_op_timeout`] budget for this one mutation. On
    /// expiry the insertion is rolled back and the previous optimum
    /// stands ([`AllocError::Timeout`]).
    pub fn add_txn_by(
        &mut self,
        txn: Transaction,
        deadline: Option<Instant>,
    ) -> Result<Realloc, AllocError> {
        if self.txns.contains(txn.id()) {
            return Err(AllocError::Duplicate(txn.id()));
        }
        self.step(vec![DeltaEvent::Add(txn)], deadline, false)?
            .into_single()
    }

    /// Deregisters `id` and incrementally recomputes the optimum.
    ///
    /// Removing a transaction can only lower levels: the previous
    /// optimum restricted to the survivors is still robust (allowed
    /// schedules of a subset are allowed schedules of the full set), so
    /// refinement starts from that restriction. Shrinking a workload
    /// cannot make it less allocatable, so the removal persists — unless
    /// the refinement deadline expires, in which case the transaction is
    /// re-inserted and the previous optimum stands.
    pub fn remove_txn(&mut self, id: TxnId) -> Result<Realloc, AllocError> {
        self.remove_txn_by(id, self.op_deadline())
    }

    /// [`Allocator::remove_txn`] against an explicit deadline (`None` =
    /// unbounded). On expiry the removal is rolled back (the transaction
    /// is re-inserted) and [`AllocError::Timeout`] is returned.
    pub fn remove_txn_by(
        &mut self,
        id: TxnId,
        deadline: Option<Instant>,
    ) -> Result<Realloc, AllocError> {
        if !self.txns.contains(id) {
            return Err(AllocError::Unknown(id));
        }
        self.step(vec![DeltaEvent::Remove(id)], deadline, false)?
            .into_single()
    }

    /// Applies a coalesced batch of membership mutations with **one**
    /// reallocation.
    ///
    /// Semantics are defined by equivalence: the final membership, the
    /// final optimum, and the per-event verdicts are bit-for-bit those
    /// of applying the events one at a time through
    /// [`Allocator::add_txn`] / [`Allocator::remove_txn`] in input
    /// order (`tests/batch_equivalence.rs` asserts exactly that on
    /// randomized sequences). The engine work is *not* sequential:
    ///
    /// - Over `{RC, SI, SSI}` an add can never be rejected (the SSI
    ///   ceiling is always robust), so per-event verdicts reduce to
    ///   membership bookkeeping (duplicate adds, unknown removes). The
    ///   batch applies every valid event to the membership first and
    ///   solves the final set **once**: untouched conflict components
    ///   are answered by the persistent fingerprint cache, and only the
    ///   union of touched components is solved (largest-first,
    ///   work-stealing under [`Allocator::with_threads`]). By
    ///   uniqueness of the optimum (Proposition 4.2) this single solve
    ///   equals the sequential fold.
    /// - Over `{RC, SI}` an add may be rejected, and acceptance is
    ///   decided against the membership *at that point in the
    ///   sequence* — an optimistic whole-batch solve would accept
    ///   interleavings sequential processing rejects (an unallocatable
    ///   add followed by the remove that would have made it
    ///   allocatable). The batch therefore solves after every add (and
    ///   once more after trailing removes), still sharing the
    ///   persistent component fingerprint cache across events.
    ///
    /// A deadline expiry rolls back the **whole batch** — membership
    /// and optimum revert to the pre-batch state — and returns
    /// [`AllocError::Timeout`], so a caller's last-known-good
    /// degradation story is the same as for single events. A batch
    /// that changes no membership runs no solve.
    pub fn apply_batch(&mut self, events: Vec<DeltaEvent>) -> Result<BatchRealloc, AllocError> {
        self.apply_batch_by(events, self.op_deadline())
    }

    /// [`Allocator::apply_batch`] against an explicit deadline (`None`
    /// = unbounded), overriding the configured
    /// [`Allocator::with_op_timeout`] budget for this one batch.
    pub fn apply_batch_by(
        &mut self,
        events: Vec<DeltaEvent>,
        deadline: Option<Instant>,
    ) -> Result<BatchRealloc, AllocError> {
        self.step(events, deadline, true)
    }

    /// The one delta step behind [`Allocator::add_txn`],
    /// [`Allocator::remove_txn`] and [`Allocator::apply_batch`]: applies
    /// `events` to the membership in input order and re-solves through
    /// the component solver, warm-started from the optimum of the
    /// previous solve. Over `{RC, SI, SSI}` it solves once, after the
    /// last event; over `{RC, SI}` also after each add, whose
    /// acceptance depends on the membership at that point (a rejected
    /// add reverts alone). A deadline expiry undoes every event of the
    /// call. `batch` fills the batch counters of the stats.
    fn step(
        &mut self,
        events: Vec<DeltaEvent>,
        deadline: Option<Instant>,
        batch: bool,
    ) -> Result<BatchRealloc, AllocError> {
        // The pre-call optimum is both the diff baseline and the first
        // warm start; make sure it exists before mutating.
        self.ensure_current(deadline)?;
        let prev = self.last.clone().expect("ensure_current fills the cache");
        let start = Instant::now();
        let n_events = events.len() as u64;
        let mut s = ShardStats::default();
        let mut outcomes = Vec::with_capacity(events.len());
        // The inverse of every applied event, replayed newest-first if
        // the deadline expires.
        let mut undo: Vec<DeltaEvent> = Vec::new();
        // The optimum as of the last solve, and whether the membership
        // gained or lost transactions since.
        let mut cur = prev.clone();
        let (mut added, mut removed, mut solved) = (false, false, false);
        for ev in events {
            match ev {
                DeltaEvent::Add(txn) => {
                    let id = txn.id();
                    if self.txns.contains(id) {
                        outcomes.push(Err(AllocError::Duplicate(id)));
                        continue;
                    }
                    self.txns
                        .to_mut()
                        .insert(txn)
                        .expect("contains(id) checked above");
                    undo.push(DeltaEvent::Remove(id));
                    added = true;
                    if self.levels == LevelSet::RcSi {
                        let warm = Some(Warm {
                            prev: &cur,
                            added,
                            removed,
                        });
                        match self.solve(warm, deadline, &mut s) {
                            Ok(alloc) => {
                                (cur, added, removed, solved) = (alloc, false, false, true);
                            }
                            Err(AllocError::NotAllocatable(l)) => {
                                self.txns.to_mut().remove(id);
                                undo.pop();
                                added = false;
                                outcomes.push(Err(AllocError::NotAllocatable(l)));
                                continue;
                            }
                            Err(e) => return Err(self.rollback(undo, e)),
                        }
                    }
                    outcomes.push(Ok(()));
                }
                DeltaEvent::Remove(id) => match self.txns.to_mut().remove(id) {
                    Some(txn) => {
                        undo.push(DeltaEvent::Add(txn));
                        removed = true;
                        outcomes.push(Ok(()));
                    }
                    None => outcomes.push(Err(AllocError::Unknown(id))),
                },
            }
        }
        if added || removed {
            let warm = Some(Warm {
                prev: &cur,
                added,
                removed,
            });
            match self.solve(warm, deadline, &mut s) {
                Ok(alloc) => (cur, solved) = (alloc, true),
                Err(e) => return Err(self.rollback(undo, e)),
            }
        }
        let mut stats = s.engine_stats(self.threads, start);
        if batch {
            stats.batch_events = n_events;
            stats.batched_components_solved = stats.components_checked;
        }
        if solved {
            self.last = Some(cur.clone());
            self.last_stats = Some(stats.clone());
        }
        Ok(BatchRealloc {
            changed: prev.diff(&cur),
            allocation: cur,
            outcomes,
            stats,
        })
    }

    /// Reverts a failed step's membership changes (`undo` holds the
    /// inverse events, oldest first) and passes its error through. The
    /// cached optimum was never updated, so it matches the restored set.
    fn rollback(&mut self, undo: Vec<DeltaEvent>, err: AllocError) -> AllocError {
        let set = self.txns.to_mut();
        for ev in undo.into_iter().rev() {
            match ev {
                DeltaEvent::Add(txn) => set
                    .insert(txn)
                    .expect("re-inserting a transaction this step removed"),
                DeltaEvent::Remove(id) => {
                    set.remove(id);
                }
            }
        }
        err
    }

    /// Solves the current set over the configured menu through the
    /// component solver and the allocator's component caches, warm from
    /// `warm` when given.
    fn solve(
        &mut self,
        warm: Option<Warm<'_>>,
        deadline: Option<Instant>,
        stats: &mut ShardStats,
    ) -> Result<Allocation, AllocError> {
        let job = Solve {
            txns: self.txns.as_ref(),
            levels: self.levels,
            threads: self.threads,
            deadline,
            warm,
        };
        shard_optimal(
            &job,
            &mut self.comp_cache,
            self.shared_cache.as_deref(),
            stats,
        )
    }

    /// Computes the optimum of the current set from scratch into the
    /// delta cache. Only [`LevelSet::RcSi`] can fail to allocate; a
    /// passed deadline can expire (the cache is then left unfilled).
    fn ensure_current(&mut self, deadline: Option<Instant>) -> Result<(), AllocError> {
        if self.last.is_none() {
            let start = Instant::now();
            let mut s = ShardStats::default();
            let alloc = self.solve(None, deadline, &mut s)?;
            self.last_stats = Some(s.engine_stats(self.threads, start));
            self.last = Some(alloc);
        }
        Ok(())
    }
}

/// Work counters of a sharded allocation run (summed over components).
#[derive(Default)]
struct ShardStats {
    /// Components resolved by actual work this run (singletons included).
    checked: u64,
    /// Components answered from the fingerprint cache without any work.
    cached: u64,
    probes: u64,
    /// Lowerings rejected by a solve's counterexample cache.
    hits: u64,
    /// Counterexamples the solves' caches held when they finished.
    specs: u64,
    iso_builds: u64,
    row_ops: u64,
}

impl ShardStats {
    fn absorb(&mut self, s: &CompSolved) {
        self.checked += 1;
        self.probes += s.probes;
        self.hits += s.hits;
        self.specs += s.specs;
        self.iso_builds += s.iso_builds;
        self.row_ops += s.row_ops;
    }

    fn engine_stats(&self, threads: usize, start: Instant) -> EngineStats {
        EngineStats {
            probes: self.probes,
            cache_hits: self.hits,
            cached_specs: self.specs,
            iso_builds: self.iso_builds,
            components_checked: self.checked,
            components_cached: self.cached,
            kernel_row_ops: self.row_ops,
            batch_events: 0,
            batched_components_solved: 0,
            threads,
            wall: start.elapsed(),
        }
    }
}

/// What one sharded solve runs against.
struct Solve<'a> {
    txns: &'a TransactionSet,
    levels: LevelSet,
    threads: usize,
    deadline: Option<Instant>,
    /// The warm start of a delta solve; `None` solves cold.
    warm: Option<Warm<'a>>,
}

/// A delta solve's starting point: the optimum before the mutation and
/// which way the membership moved since.
#[derive(Clone, Copy)]
struct Warm<'a> {
    prev: &'a Allocation,
    /// Some transaction was added since `prev`.
    added: bool,
    /// Some transaction was removed since `prev`.
    removed: bool,
}

/// One component solved from scratch, with the work it cost.
struct CompSolved {
    entry: CompEntry,
    probes: u64,
    hits: u64,
    specs: u64,
    iso_builds: u64,
    row_ops: u64,
}

/// Algorithm 2 restricted to one conflict component, run on a standalone
/// sub-set of its member transactions. Any split schedule is a cycle of
/// conflicting transactions and therefore lies inside one component, so
/// robustness verdicts — and by uniqueness (Proposition 4.2) the
/// component's optimum — are those of the full workload restricted to
/// the component.
///
/// A delta solve starts from the previous optimum restricted to the
/// component, newcomers at the ceiling. Without an add that start is a
/// restriction of a robust allocation to a subset of its set, hence
/// robust; after an add it is probed and, when not robust, replaced by
/// the uniform ceiling. Without a removal the previous levels (newcomers
/// at RC) are a floor: adds only raise levels (Proposition 4.1).
fn solve_component(
    job: &Solve<'_>,
    members: &[usize],
    threads: usize,
) -> Result<CompSolved, Expired> {
    let sub: Vec<Transaction> = members
        .iter()
        .map(|&i| job.txns.by_index(i).clone())
        .collect();
    let sub = TransactionSet::new(sub).expect("component members have distinct ids");
    let checker = RobustnessChecker::new(&sub)
        .with_threads(threads)
        .with_components(false);
    if expired(job.deadline) {
        return Err(Expired);
    }
    // A counterexample cache local to this component: its specs mention
    // only the component's transactions, which the candidates cover.
    let mut specs: Vec<SplitSpec> = Vec::new();
    let robust =
        |alloc: &Allocation, specs: &mut Vec<SplitSpec>| match checker.find_counterexample(alloc) {
            None => true,
            Some(spec) => {
                specs.push(spec);
                false
            }
        };
    let ceiling = job.levels.ceiling();
    let (mut start, mut floor) = (None, None);
    if let Some(w) = job.warm {
        // Survivors keep their previous level; newcomers get `entry`.
        let with_prev =
            |entry| Allocation::from_pairs(sub.ids().map(|t| (t, w.prev.get(t).unwrap_or(entry))));
        if !w.removed {
            floor = Some(with_prev(IsolationLevel::RC));
        }
        let warm = with_prev(ceiling);
        if !w.added || robust(&warm, &mut specs) {
            start = Some(warm);
        }
    }
    let start = match start {
        Some(warm) => warm,
        None => {
            // The uniform ceiling: always robust over {RC, SI, SSI}, but
            // probed over {RC, SI}, where it may fail (Proposition 5.4).
            let uniform = Allocation::uniform(&sub, ceiling);
            if job.levels == LevelSet::RcSi && !robust(&uniform, &mut specs) {
                let n_specs = specs.len() as u64;
                return Ok(solved(&checker, CompEntry::Unallocatable, 0, n_specs));
            }
            uniform
        }
    };
    let (alloc, hits) = refine_with(
        &sub,
        &checker,
        &mut specs,
        start,
        floor.as_ref(),
        job.deadline,
        &mut |_, _, _| {},
    )?;
    let entry = CompEntry::Robust(alloc.iter().collect());
    Ok(solved(&checker, entry, hits, specs.len() as u64))
}

/// A [`CompSolved`] carrying `checker`'s work counters.
fn solved(checker: &RobustnessChecker<'_>, entry: CompEntry, hits: u64, specs: u64) -> CompSolved {
    CompSolved {
        entry,
        probes: checker.stats().probes(),
        hits,
        specs,
        iso_builds: checker.stats().iso_builds(),
        row_ops: checker.stats().kernel_row_ops(),
    }
}

/// The component-sharded Algorithm 2: decomposes the workload into
/// conflict components, answers each from the fingerprint `cache` when
/// possible (falling back to the cross-allocator `shared` cache and
/// warming the local one on a hit), solves the misses (largest-first,
/// in parallel when `threads > 1`), and unions the per-component
/// optima. Completed components are cached — locally and into `shared`
/// — even when the deadline expires mid-run, so a retry pays only for
/// what is still missing.
///
/// Fails with [`AllocError::NotAllocatable`] when some component has no
/// robust allocation over the menu (only possible for
/// [`LevelSet::RcSi`], Proposition 5.4), and with
/// [`AllocError::Timeout`] when the deadline expires.
fn shard_optimal(
    job: &Solve<'_>,
    cache: &mut CompCache,
    shared: Option<&SharedCompCache>,
    stats: &mut ShardStats,
) -> Result<Allocation, AllocError> {
    if expired(job.deadline) {
        return Err(AllocError::Timeout);
    }
    let (txns, levels) = (job.txns, job.levels);
    let index = ConflictIndex::new(txns);
    let comps = Components::new(txns, &index);
    let mut pairs: Vec<(TxnId, IsolationLevel)> = Vec::with_capacity(txns.len());
    let mut misses: Vec<usize> = Vec::new();
    let mut unallocatable = false;
    for (c, members) in comps.iter() {
        if members.len() < 2 {
            // A conflict-free transaction appears in no split schedule:
            // RC is its optimum under either menu.
            stats.checked += 1;
            pairs.push((txns.by_index(members[0]).id(), IsolationLevel::RC));
            continue;
        }
        let fp = comps.fingerprint(c);
        let entry = match cache.get(fp) {
            Some(e) => Some(e.clone()),
            // Local miss: consult the shared cache (this ordering makes
            // its hit rate the cross-allocator first-encounter rate)
            // and warm the local cache with any hit.
            None => match shared.and_then(|sc| sc.get(levels, fp)) {
                Some(e) => {
                    cache.insert(fp, e.clone());
                    Some(e)
                }
                None => None,
            },
        };
        match entry {
            Some(CompEntry::Robust(lvls)) => {
                stats.cached += 1;
                pairs.extend(lvls.iter().copied());
            }
            Some(CompEntry::Unallocatable) => {
                stats.cached += 1;
                unallocatable = true;
            }
            None => misses.push(c),
        }
    }
    if unallocatable {
        return Err(AllocError::NotAllocatable(levels));
    }
    // Largest components first: they dominate the critical path when the
    // misses are solved in parallel.
    misses.sort_by_key(|&c| (std::cmp::Reverse(comps.members(c).len()), c));
    let workers = job.threads.min(misses.len()).max(1);
    let (mut solved, hit_deadline): (Vec<(usize, CompSolved)>, bool) = if workers == 1 {
        // One worker: a lone miss gets the full thread budget for its
        // inner T₁ search; otherwise run the misses one by one.
        let sub_threads = if misses.len() == 1 { job.threads } else { 1 };
        let mut acc = Vec::with_capacity(misses.len());
        let mut expired_flag = false;
        for &c in &misses {
            match solve_component(job, comps.members(c), sub_threads) {
                Ok(s) => acc.push((c, s)),
                Err(Expired) => {
                    expired_flag = true;
                    break;
                }
            }
        }
        (acc, expired_flag)
    } else {
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let results: Mutex<Vec<(usize, CompSolved)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&c) = misses.get(k) else { break };
                    match solve_component(job, comps.members(c), 1) {
                        Ok(s) => results.lock().unwrap().push((c, s)),
                        Err(Expired) => {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        let expired_flag = stop.load(Ordering::Relaxed);
        (results.into_inner().unwrap(), expired_flag)
    };
    // Deterministic cache-insertion (FIFO eviction) order regardless of
    // worker scheduling.
    solved.sort_by_key(|&(c, _)| c);
    for (c, s) in &solved {
        let fp = comps.fingerprint(*c);
        cache.insert(fp, s.entry.clone());
        if let Some(sc) = shared {
            sc.insert(levels, fp, s.entry.clone());
        }
        stats.absorb(s);
    }
    if hit_deadline {
        return Err(AllocError::Timeout);
    }
    for (_, s) in &solved {
        match &s.entry {
            CompEntry::Robust(lvls) => pairs.extend(lvls.iter().copied()),
            CompEntry::Unallocatable => unallocatable = true,
        }
    }
    if unallocatable {
        return Err(AllocError::NotAllocatable(levels));
    }
    Ok(Allocation::from_pairs(pairs))
}

/// Marker: a refinement deadline expired mid-loop.
struct Expired;

/// Has `deadline` passed? `None` never expires.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[derive(Default)]
struct CacheStats {
    hits: u64,
    specs: u64,
}

/// The refinement loop shared by Algorithm 2, its box-constrained
/// variant, and the `{RC, SI}` variant (Theorem 5.5): lowers each
/// transaction of a *robust* starting allocation to its least robust
/// level (skipping levels below `floor`, when given).
///
/// `on_failure` observes every rejected lowering with the spec that
/// rejected it (cached or fresh).
///
/// The counterexample cache only ever *rejects* candidates, and only
/// with a spec that [`SplitSpec::check`]-validates against that exact
/// candidate — a certificate of non-robustness. Acceptances always come
/// from a full probe, so the refinement path is identical to the
/// uncached loop.
fn refine_cached(
    txns: &TransactionSet,
    checker: &RobustnessChecker<'_>,
    start: Allocation,
    floor: Option<&Allocation>,
    on_failure: &mut dyn FnMut(TxnId, IsolationLevel, &SplitSpec),
) -> (Allocation, CacheStats) {
    let mut cache: Vec<SplitSpec> = Vec::new();
    let (alloc, hits) = refine_with(txns, checker, &mut cache, start, floor, None, on_failure)
        .unwrap_or_else(|Expired| unreachable!("no deadline was set"));
    let specs = cache.len() as u64;
    (alloc, CacheStats { hits, specs })
}

/// [`refine_cached`] against a caller-owned counterexample cache — the
/// form a component solve uses, so the specs of its start probes serve
/// the refinement too. Returns the refined allocation and the number of
/// cache hits, or [`Expired`] when `deadline` passes between lowering
/// attempts (callers then roll back the mutation; the partially-refined
/// allocation is discarded because only a *completed* refinement is the
/// optimum).
fn refine_with(
    txns: &TransactionSet,
    checker: &RobustnessChecker<'_>,
    cache: &mut Vec<SplitSpec>,
    start: Allocation,
    floor: Option<&Allocation>,
    deadline: Option<Instant>,
    on_failure: &mut dyn FnMut(TxnId, IsolationLevel, &SplitSpec),
) -> Result<(Allocation, u64), Expired> {
    debug_assert!(
        checker.is_robust(&start).robust(),
        "refine requires a robust start"
    );
    // Checked on entry too, so a refinement with nothing to lower
    // (e.g. removing the last transaction) still honours an expired
    // deadline — forced timeouts fail every mutation uniformly.
    if expired(deadline) {
        return Err(Expired);
    }
    let mut hits = 0u64;
    let mut alloc = start;
    for t in txns.iter() {
        for &lvl in alloc.level(t.id()).lower_levels() {
            if let Some(floor) = floor {
                if lvl < floor.level(t.id()) {
                    continue;
                }
            }
            if expired(deadline) {
                return Err(Expired);
            }
            let candidate = alloc.with(t.id(), lvl);
            if let Some(spec) = cache.iter().find(|s| s.check(txns, &candidate).is_ok()) {
                hits += 1;
                on_failure(t.id(), lvl, spec);
                continue;
            }
            match checker.find_counterexample(&candidate) {
                None => {
                    alloc = candidate;
                    break;
                }
                Some(spec) => {
                    on_failure(t.id(), lvl, &spec);
                    cache.push(spec);
                }
            }
        }
    }
    Ok((alloc, hits))
}

/// Computes the unique optimal robust allocation for `txns` over
/// `{RC, SI, SSI}` (Theorem 4.3).
///
/// Starting from `𝒜_SSI` (always robust), each transaction is lowered to
/// the least level that keeps the allocation robust. Correctness rests on
/// Proposition 4.1(2): if some robust allocation maps `T` lower, the
/// current one may adopt that level as well — so greedy, order-independent
/// refinement reaches the unique optimum (Proposition 4.2).
pub fn optimal_allocation(txns: &TransactionSet) -> Allocation {
    Allocator::new(txns).optimal().0
}

/// Computes the least robust allocation inside the box `lo ≤ 𝒜 ≤ hi`
/// (pointwise), or `None` when no robust allocation exists in the box.
///
/// Practical use: constraints from the deployment — a legacy driver
/// hard-codes `READ COMMITTED` (pin with `lo = hi = RC`), an auditor
/// demands at least SI for a reporting transaction (`lo = SI`), a hot
/// path must not pay SSI's SIREAD overhead (`hi = SI`).
///
/// Correctness: robustness is upward closed (Proposition 4.1(1)), so if
/// any robust allocation lies in the box then `hi` itself is robust; the
/// refinement then mirrors Algorithm 2 restricted to the box, and the
/// exchange argument of Proposition 4.1(2) gives uniqueness of the
/// box-minimum exactly as in Proposition 4.2.
///
/// Panics when `lo`/`hi` do not cover every transaction or `lo ≰ hi`.
pub fn optimal_allocation_in_box(
    txns: &TransactionSet,
    lo: &Allocation,
    hi: &Allocation,
) -> Option<Allocation> {
    Allocator::new(txns).optimal_in_box(lo, hi).0
}

/// [`optimal_allocation_in_box`] with only a lower bound (`hi = 𝒜_SSI`).
/// Always succeeds, since `𝒜_SSI` is robust.
pub fn optimal_allocation_with_floor(txns: &TransactionSet, floor: &Allocation) -> Allocation {
    Allocator::new(txns).optimal_with_floor(floor).0
}

/// Diagnostic variant of [`optimal_allocation`] that also reports, for
/// each lowering attempt that failed, the counterexample found — useful
/// for explaining *why* a transaction needs its level.
pub fn optimal_allocation_explained(txns: &TransactionSet) -> (Allocation, Vec<Reason>) {
    let (alloc, reasons, _) = Allocator::new(txns).optimal_explained();
    (alloc, reasons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::is_robust;
    use mvmodel::{TxnId, TxnSetBuilder};

    #[test]
    fn disjoint_workload_all_rc() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(x).finish();
        b.txn(2).read(y).write(y).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert_eq!(a, Allocation::uniform_rc(&txns));
    }

    #[test]
    fn write_skew_needs_ssi_pair() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert!(is_robust(&txns, &a).robust());
        // Write skew requires SSI for… at least two of the transactions
        // (the dangerous-structure filter needs all three participants
        // SSI; with two transactions both must be SSI).
        assert_eq!(a.level(TxnId(1)), IsolationLevel::SSI);
        assert_eq!(a.level(TxnId(2)), IsolationLevel::SSI);
    }

    #[test]
    fn lost_update_gets_si() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).write(x).finish();
        b.txn(2).read(x).write(x).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert!(is_robust(&txns, &a).robust());
        assert_eq!(
            a.counts(),
            (0, 2, 0),
            "lost-update pair is robust at SI but not RC: {a}"
        );
    }

    #[test]
    fn optimality_lowering_any_txn_breaks_robustness() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(x).write(x).finish();
        let txns = b.build().unwrap();
        let a = optimal_allocation(&txns);
        assert!(is_robust(&txns, &a).robust());
        for t in txns.ids() {
            for &lower in a.level(t).lower_levels() {
                let lowered = a.with(t, lower);
                assert!(
                    !is_robust(&txns, &lowered).robust(),
                    "lowering {t} to {lower} should break robustness ({a})"
                );
            }
        }
    }

    #[test]
    fn explained_variant_agrees_and_reports_reasons() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        let txns = b.build().unwrap();
        let (a, reasons) = optimal_allocation_explained(&txns);
        assert_eq!(a, optimal_allocation(&txns));
        // Both transactions failed both lowering attempts: 4 reasons.
        assert_eq!(reasons.len(), 4);
        for (t, lvl, spec) in &reasons {
            assert!(!spec.chain.is_empty());
            // Every reported spec certifies non-robustness of the exact
            // candidate it rejected.
            let candidate_base = if *t == TxnId(2) {
                a.clone()
            } else {
                Allocation::uniform_ssi(&txns)
            };
            let _ = (candidate_base, lvl);
        }
    }

    #[test]
    fn engine_stats_account_for_cache() {
        // Write-skew pair: 4 lowering attempts all fail. The first
        // failure (T1→RC) caches a spec; whether later attempts hit the
        // cache depends on spec validity under each candidate, but
        // probes + cache_hits must cover all 4 attempts.
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        let txns = b.build().unwrap();
        let (a, stats) = Allocator::new(&txns).optimal();
        assert_eq!(a, optimal_allocation(&txns));
        assert_eq!(stats.probes + stats.cache_hits, 4 + dbg_probe_overhead());
        assert!(
            stats.cache_hits >= 1,
            "repeat rejections should hit the cache: {stats}"
        );
        assert!(stats.cached_specs >= 1);
        assert_eq!(stats.threads, 1);
        assert!(stats.wall.as_nanos() > 0);
        let shown = stats.to_string();
        assert!(shown.contains("probes=") && shown.contains("cache_hits="));
    }

    /// `refine_cached` opens with a `debug_assert` probe of the start
    /// allocation; it runs only in debug builds.
    fn dbg_probe_overhead() -> u64 {
        if cfg!(debug_assertions) {
            1
        } else {
            0
        }
    }

    #[test]
    fn box_allocation_respects_bounds() {
        // Write skew pair + an independent reader.
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        let z = b.object("z");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(z).finish();
        let txns = b.build().unwrap();

        // Unconstrained optimum: T1, T2 → SSI; T3 → RC.
        let free = optimal_allocation(&txns);
        assert_eq!(free.to_string(), "T1=SSI T2=SSI T3=RC");

        // Floor: T3 must run at least at SI.
        let floor = Allocation::parse("T1=RC T2=RC T3=SI").unwrap();
        let a = super::optimal_allocation_with_floor(&txns, &floor);
        assert_eq!(a.to_string(), "T1=SSI T2=SSI T3=SI");
        assert!(is_robust(&txns, &a).robust());

        // Ceiling: T1 must not exceed SI → no robust allocation in the box
        // (the skew pair needs both at SSI).
        let lo = Allocation::uniform_rc(&txns);
        let hi = Allocation::parse("T1=SI T2=SSI T3=SSI").unwrap();
        assert_eq!(super::optimal_allocation_in_box(&txns, &lo, &hi), None);

        // Exact pin: T3 = RC is compatible.
        let lo = Allocation::parse("T1=RC T2=RC T3=RC").unwrap();
        let hi = Allocation::parse("T1=SSI T2=SSI T3=RC").unwrap();
        let a = super::optimal_allocation_in_box(&txns, &lo, &hi).unwrap();
        assert_eq!(a, free);
    }

    #[test]
    #[should_panic(expected = "lo ≤ hi")]
    fn box_rejects_inverted_bounds() {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).finish();
        let txns = b.build().unwrap();
        let _ = super::optimal_allocation_in_box(
            &txns,
            &Allocation::uniform_ssi(&txns),
            &Allocation::uniform_rc(&txns),
        );
    }

    #[test]
    fn level_set_parses_and_rejects() {
        assert_eq!("rc-si".parse::<LevelSet>().unwrap(), LevelSet::RcSi);
        assert_eq!("RC-SI-SSI".parse::<LevelSet>().unwrap(), LevelSet::RcSiSsi);
        let err = "serializable".parse::<LevelSet>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rc-si") && msg.contains("rc-si-ssi"), "{msg}");
        assert_eq!(LevelSet::RcSi.ceiling(), IsolationLevel::SI);
        assert_eq!(LevelSet::RcSiSsi.to_string(), "rc-si-ssi");
    }

    /// Builds the write-skew pair plus a private-object reader as three
    /// standalone transactions sharing one interned object table.
    fn skew_txn(set: &mut TransactionSet, id: u32, r: &str, w: &str) -> Transaction {
        let read = set.intern_object(r);
        let write = set.intern_object(w);
        Transaction::new(
            TxnId(id),
            vec![mvmodel::Op::read(read), mvmodel::Op::write(write)],
        )
        .unwrap()
    }

    #[test]
    fn delta_add_and_remove_track_full_recompute() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        assert!(alloc.current().unwrap().is_empty());

        // T1 alone: RC.
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let r = alloc.add_txn(t1).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=RC");
        assert_eq!(r.changed.len(), 1);
        assert_eq!(r.changed[0].after, Some(IsolationLevel::RC));

        // T2 closes the write-skew cycle: both jump to SSI.
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        let r = alloc.add_txn(t2).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI");
        // Both T1 (raised) and T2 (entered) appear in the diff.
        assert_eq!(r.changed.len(), 2);

        // An unrelated reader registers at RC without disturbing the pair.
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "z", "w");
        let r = alloc.add_txn(t3).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI T3=RC");
        assert_eq!(r.changed.len(), 1, "only T3 changed: {:?}", r.changed);

        // Removing T2 breaks the cycle: T1 falls back to RC.
        let r = alloc.remove_txn(TxnId(2)).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
        assert_eq!(r.allocation.to_string(), "T1=RC T3=RC");
        let stats = alloc.last_stats().unwrap();
        // The survivors {T1} and {T3} are both singleton components: the
        // sharded engine answers without a single Algorithm 1 probe.
        assert_eq!(stats.probes + stats.cache_hits, 0);
        assert_eq!(stats.components_checked, 2);

        // Duplicate / unknown ids are structured errors, state unchanged.
        let dup = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        assert_eq!(
            alloc.add_txn(dup).unwrap_err(),
            AllocError::Duplicate(TxnId(1))
        );
        assert_eq!(
            alloc.remove_txn(TxnId(9)).unwrap_err(),
            AllocError::Unknown(TxnId(9))
        );
        assert_eq!(alloc.current().unwrap().to_string(), "T1=RC T3=RC");
    }

    #[test]
    fn delta_rc_si_rolls_back_unallocatable_add() {
        let mut alloc =
            Allocator::from_owned(TransactionSet::default()).with_levels(LevelSet::RcSi);
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        alloc.add_txn(t1).unwrap();
        // Write skew is not {RC, SI}-allocatable: the add is rejected
        // and rolled back.
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        assert_eq!(
            alloc.add_txn(t2).unwrap_err(),
            AllocError::NotAllocatable(LevelSet::RcSi)
        );
        assert_eq!(alloc.txns().len(), 1);
        assert_eq!(alloc.current().unwrap().to_string(), "T1=RC");
        // A compatible transaction still registers afterwards.
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "z", "w");
        let r = alloc.add_txn(t3).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=RC T3=RC");
    }

    #[test]
    fn expired_deadline_rolls_back_add_and_remove() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        alloc.add_txn(t1).unwrap();
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.add_txn(t2).unwrap();
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");

        // An already-expired deadline: the add is rolled back, the set
        // and optimum are untouched.
        let past = Some(Instant::now());
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "x", "z");
        assert_eq!(alloc.add_txn_by(t3, past).unwrap_err(), AllocError::Timeout);
        assert_eq!(alloc.txns().len(), 2);
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");

        // Same for a remove: T2 is re-inserted, the optimum stands.
        assert_eq!(
            alloc.remove_txn_by(TxnId(2), past).unwrap_err(),
            AllocError::Timeout
        );
        assert_eq!(alloc.txns().len(), 2);
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");

        // After the failures, unbounded mutations still work and agree
        // with a from-scratch recomputation.
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "x", "z");
        let r = alloc.add_txn(t3).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
        let r = alloc.remove_txn(TxnId(2)).unwrap();
        assert_eq!(r.allocation, optimal_allocation(alloc.txns()));
    }

    #[test]
    fn generous_timeout_never_fires() {
        let mut alloc = Allocator::from_owned(TransactionSet::default())
            .with_op_timeout(Some(Duration::from_secs(60)));
        assert_eq!(alloc.op_timeout(), Some(Duration::from_secs(60)));
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.add_txn(t1).unwrap();
        alloc.add_txn(t2).unwrap();
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");
        alloc.remove_txn(TxnId(1)).unwrap();
        assert_eq!(alloc.current().unwrap().to_string(), "T2=RC");
    }

    #[test]
    fn expired_deadline_on_first_current_leaves_cache_unfilled() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.txns.to_mut().insert(t1).unwrap();
        alloc.txns.to_mut().insert(t2).unwrap();
        // Force the initial computation to time out via an expired
        // per-op budget, then clear it and observe a clean recompute.
        let mut timed = alloc.with_op_timeout(Some(Duration::ZERO));
        assert_eq!(timed.current().unwrap_err(), AllocError::Timeout);
        let mut freed = timed.with_op_timeout(None);
        assert_eq!(freed.current().unwrap().to_string(), "T1=SSI T2=SSI");
    }

    /// Three conflict clusters plus a singleton: write skew on (x, y),
    /// lost update on z, and a lone reader of w.
    fn clustered() -> TransactionSet {
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        let z = b.object("z");
        let w = b.object("w");
        b.txn(1).read(x).write(y).finish();
        b.txn(2).read(y).write(x).finish();
        b.txn(3).read(z).write(z).finish();
        b.txn(4).read(z).write(z).finish();
        b.txn(5).read(w).finish();
        b.build().unwrap()
    }

    #[test]
    fn sharded_one_shot_matches_unsharded() {
        let txns = clustered();
        let (unsharded, _) = Allocator::new(&txns).with_components(false).optimal();
        for threads in [1, 2, 4] {
            let (sharded, stats) = Allocator::new(&txns).with_threads(threads).optimal();
            assert_eq!(sharded, unsharded, "threads={threads}");
            // Two multi-member clusters searched + one singleton resolved.
            assert_eq!(stats.components_checked, 3, "threads={threads}: {stats}");
            assert_eq!(stats.components_cached, 0);
            assert!(stats.probes > 0 && stats.kernel_row_ops > 0, "{stats}");
        }
        assert_eq!(unsharded.to_string(), "T1=SSI T2=SSI T3=SI T4=SI T5=RC");
    }

    #[test]
    fn sharded_rc_si_detects_unallocatable_component() {
        // The skew cluster is not {RC, SI}-allocatable; verdicts agree.
        let txns = clustered();
        let (sharded, stats) = Allocator::new(&txns).optimal_rc_si();
        let (unsharded, _) = Allocator::new(&txns).with_components(false).optimal_rc_si();
        assert_eq!(sharded, None);
        assert_eq!(unsharded, None);
        assert!(stats.components_checked >= 1, "{stats}");
    }

    #[test]
    fn delta_reuses_cached_components() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        for t in clustered().iter() {
            alloc.add_txn(t.clone()).unwrap();
        }
        assert_eq!(
            alloc.current().unwrap().to_string(),
            "T1=SSI T2=SSI T3=SI T4=SI T5=RC"
        );

        // T6 writes w (raw object id 3 in `clustered()`'s table), merging
        // with the singleton T5. The skew and lost-update clusters are
        // untouched: their fingerprints match the cache and no search
        // runs for them.
        let t6 = Transaction::new(TxnId(6), vec![mvmodel::Op::write(Object(3))]).unwrap();
        let r = alloc.add_txn(t6).unwrap();
        let (expect, _) = Allocator::new(alloc.txns())
            .with_components(false)
            .optimal();
        assert_eq!(r.allocation, expect);
        assert_eq!(r.stats.components_cached, 2, "{}", r.stats);
        assert_eq!(r.stats.components_checked, 1, "{}", r.stats);

        // Removing T6 splits {T5, T6} back into the singleton {T5};
        // the two big clusters are again pure cache hits.
        let r = alloc.remove_txn(TxnId(6)).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI T3=SI T4=SI T5=RC");
        assert_eq!(r.stats.components_cached, 2, "{}", r.stats);
        assert_eq!(r.stats.components_checked, 1, "{}", r.stats);
        assert_eq!(r.stats.probes, 0, "untouched clusters cost no probes");

        // End-state equals an unsharded from-scratch recomputation.
        let (unsharded, _) = Allocator::new(alloc.txns())
            .with_components(false)
            .optimal();
        assert_eq!(*alloc.current().unwrap(), unsharded);
    }

    #[test]
    fn with_levels_clears_component_cache() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        for t in clustered().iter() {
            if t.id() != TxnId(1) && t.id() != TxnId(2) {
                alloc.add_txn(t.clone()).unwrap();
            }
        }
        alloc.current().unwrap();
        // Switching menus invalidates cached entries (they are optima
        // *for a menu*); the {RC, SI} optimum is recomputed, not served
        // from the {RC, SI, SSI} cache.
        let mut alloc = alloc.with_levels(LevelSet::RcSi);
        assert!(
            alloc.last_stats().is_none(),
            "the old menu's stats are gone"
        );
        let a = alloc.current().unwrap().clone();
        let (expect, _) = Allocator::new(alloc.txns())
            .with_components(false)
            .optimal_rc_si();
        assert_eq!(Some(a), expect);
        // The stats are those of the recomputation: the lost-update pair
        // solved afresh and the singleton resolved, nothing cached.
        let stats = alloc.last_stats().unwrap();
        assert_eq!(stats.components_checked, 2, "{stats}");
        assert_eq!(stats.components_cached, 0, "{stats}");
    }

    #[test]
    fn with_levels_drops_the_stale_optimum() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.add_txn(t1).unwrap();
        alloc.add_txn(t2).unwrap();
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");
        // Write skew has no {RC, SI} allocation: the narrowed allocator
        // must say so, not keep serving the {RC, SI, SSI} optimum.
        let mut alloc = alloc.with_levels(LevelSet::RcSi);
        assert_eq!(
            alloc.current().unwrap_err(),
            AllocError::NotAllocatable(LevelSet::RcSi)
        );
        assert_eq!(
            Allocator::from_owned(alloc.txns().clone())
                .with_levels(LevelSet::RcSi)
                .current()
                .unwrap_err(),
            AllocError::NotAllocatable(LevelSet::RcSi)
        );
        // Widening the menu again recomputes the full-ladder optimum.
        let mut alloc = alloc.with_levels(LevelSet::RcSiSsi);
        assert_eq!(alloc.current().unwrap().to_string(), "T1=SSI T2=SSI");
    }

    #[test]
    fn single_component_add_starts_from_the_old_optimum() {
        let mut alloc = Allocator::from_owned(TransactionSet::default());
        let t1 = skew_txn(alloc.txns.to_mut(), 1, "x", "y");
        let t2 = skew_txn(alloc.txns.to_mut(), 2, "y", "x");
        alloc.add_txn(t1).unwrap();
        alloc.add_txn(t2).unwrap();
        // T3 reads x, which T2 writes: the set stays one component. The
        // old optimum (T1, T2 at SSI) is a floor, so only T3's lowerings
        // are tried, after one probe of the warm start.
        let t3 = skew_txn(alloc.txns.to_mut(), 3, "x", "z");
        let r = alloc.add_txn(t3).unwrap();
        let (expect, _) = Allocator::new(alloc.txns())
            .with_components(false)
            .optimal();
        assert_eq!(r.allocation, expect);
        assert_eq!(r.stats.components_checked, 1, "{}", r.stats);
        let attempts = r.stats.probes + r.stats.cache_hits;
        assert!(attempts <= 3 + dbg_probe_overhead(), "{}", r.stats);
        // A removal starts from the restricted old optimum unprobed.
        let r = alloc.remove_txn(TxnId(3)).unwrap();
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI");
    }

    #[test]
    fn empty_and_singleton_sets() {
        let txns = TxnSetBuilder::new().build().unwrap();
        assert!(optimal_allocation(&txns).is_empty());
        let mut b = TxnSetBuilder::new();
        let x = b.object("x");
        b.txn(1).read(x).write(x).finish();
        let txns = b.build().unwrap();
        assert_eq!(optimal_allocation(&txns).counts(), (1, 0, 0));
    }

    #[test]
    fn shared_cache_answers_identical_shapes_across_allocators() {
        let shared = Arc::new(SharedCompCache::default());
        let txns = clustered();
        // First allocator solves from scratch and publishes.
        let (a1, _) = Allocator::new(&txns)
            .with_shared_cache(shared.clone())
            .optimal();
        let published = shared.inserts();
        assert!(published >= 2, "multi-member components published");
        // Second allocator (a different "tenant", same shapes): every
        // non-singleton component is a pure shared hit, and the result
        // is bit-identical.
        let (a2, stats) = Allocator::new(&txns)
            .with_shared_cache(shared.clone())
            .optimal();
        assert_eq!(a1, a2);
        assert_eq!(shared.inserts(), published, "nothing re-solved");
        assert!(shared.hits() >= 2, "hits: {}", shared.hits());
        assert!(stats.components_cached >= 2, "{stats}");
        // And identical to a share-nothing allocator.
        assert_eq!(a1, optimal_allocation(&txns));
    }

    #[test]
    fn shared_cache_survives_menu_changes_without_cross_talk() {
        let shared = Arc::new(SharedCompCache::default());
        let txns = clustered();
        let base = Allocator::new(&txns).with_shared_cache(shared.clone());
        let (full, _) = base.optimal();
        let (rc_si, _) = base.optimal_rc_si();
        // The menus key disjoint entries: each result matches its
        // uncached ground truth even though both ran over one handle.
        assert_eq!(full, optimal_allocation(&txns));
        assert_eq!(
            rc_si,
            Allocator::new(&txns)
                .with_components(false)
                .optimal_rc_si()
                .0
        );
    }
}
