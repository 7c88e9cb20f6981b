//! The online workload registry: a thin, parsing-aware wrapper around
//! the incremental [`Allocator`] delta API.
//!
//! Transactions register and deregister at runtime; the registry keeps
//! the unique optimal robust allocation of the *current* set
//! continuously available ([`Registry::assign`] is an O(1) lookup into
//! the cached optimum — no probe runs unless the workload changed).
//!
//! # Degradation semantics
//!
//! A reallocation can fail to *complete* — it exceeds the configured
//! [`Registry::with_realloc_timeout`] budget, or an installed
//! [`FaultHook`] forces a failure. The registry then degrades
//! gracefully instead of wedging: the mutation is **not applied** (the
//! allocator rolls its set back), the last-known-good allocation keeps
//! being served, and the failure is reported both in the structured
//! error ([`RegistryError::Degraded`]) and in the staleness accessors
//! ([`Registry::degraded`], [`Registry::failed_reallocs`]) that the
//! server surfaces as `"stale"` / `"failed_reallocs"` fields. The next
//! successful reallocation clears the degraded flag. Because rejected
//! mutations roll back completely, the served allocation is at every
//! moment bit-identical to a batch [`Allocator::optimal`] run over the
//! currently-registered set — the invariant the chaos harness verifies.

use crate::fault::{FaultHook, ReallocFault};
use mvisolation::{Allocation, IsolationLevel, LevelChange};
use mvmodel::{parse_transaction_line, Op, ParseError, Transaction, TransactionSet, TxnId};
use mvrobustness::{
    AllocError, Allocator, DeltaEvent, EngineStats, LevelSet, Realloc, SharedCompCache,
};
use mvtemplates::{CatalogEntry, TemplateCatalog, TemplateError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a registry operation failed. Mirrors the layers beneath it: the
/// textual transaction format, the allocation engine, and the service's
/// own degradation state.
#[derive(Debug)]
pub enum RegistryError {
    /// The transaction line did not parse.
    Parse(ParseError),
    /// The allocator rejected the mutation (duplicate id, unknown id, or
    /// an unallocatable `{RC, SI}` workload — rolled back).
    Alloc(AllocError),
    /// The reallocation failed to complete (timeout or injected fault).
    /// The mutation was rolled back; the last-known-good allocation is
    /// still served.
    Degraded {
        /// What went wrong (`"reallocation timed out"`, …).
        cause: String,
        /// Total reallocation failures so far, including this one.
        failures: u64,
    },
    /// A template catalog operation failed (bad template line, unknown
    /// template id, short parameter vector).
    Template(TemplateError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Parse(e) => write!(f, "parse error: {e}"),
            RegistryError::Alloc(e) => write!(f, "{e}"),
            RegistryError::Degraded { cause, failures } => write!(
                f,
                "{cause}; the change was not applied and the last-known-good allocation \
                 is still served ({failures} reallocation failure{} so far) — retry later",
                if *failures == 1 { "" } else { "s" }
            ),
            RegistryError::Template(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One membership mutation inside a coalesced batch
/// ([`Registry::apply_events`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryEvent {
    /// Register the transaction described by the wire-format line
    /// (`T7: R[x] W[y]`).
    Register(String),
    /// Deregister the given transaction.
    Deregister(TxnId),
    /// Register the template described by the wire-format line
    /// (`Balance: R[sav:$0] R[chk:$0]`) in the tenant's catalog.
    /// Never coalesced: the server runs catalog ops inline.
    TemplateRegister(String),
    /// Admit one instance of a registered template on the fast path.
    /// Never coalesced.
    Instantiate {
        template_id: usize,
        params: Vec<u32>,
    },
}

/// The outcome of one coalesced batch of registry mutations: per-event
/// verdicts plus the batch-level changed-levels diff and engine work.
#[derive(Debug)]
pub struct BatchReply {
    /// Per-event verdicts, in input order. `Ok` carries the affected
    /// transaction id; `Err` events were rejected individually (parse
    /// error, duplicate/unknown id, unallocatable add) and rolled back
    /// without disturbing the rest of the batch.
    pub outcomes: Vec<Result<TxnId, RegistryError>>,
    /// Net level movement of the whole batch versus the pre-batch
    /// optimum.
    pub changed: Vec<LevelChange>,
    /// Engine work of the single coalesced reallocation.
    pub stats: EngineStats,
}

/// A registered transaction as reported by [`Registry::list`].
#[derive(Clone, Debug)]
pub struct RegisteredTxn {
    pub id: TxnId,
    /// Canonical text rendering (`T1: R[x] W[y] C`).
    pub text: String,
    /// The transaction's level under the current optimum.
    pub level: IsolationLevel,
}

/// A catalog template as reported by [`Registry::templates`].
#[derive(Clone, Debug)]
pub struct TemplateInfo {
    /// Dense 0-based template id (admission key).
    pub id: usize,
    pub name: String,
    /// Canonical wire rendering (`Balance: R[sav:$0] R[chk:$0]`).
    pub text: String,
    /// The audited per-template level every instance is admitted at.
    pub level: IsolationLevel,
    pub param_count: usize,
    /// Instances admitted through the fast path so far.
    pub instances: u64,
}

/// An online transaction registry with a continuously maintained
/// optimal robust allocation.
pub struct Registry {
    alloc: Allocator<'static>,
    /// The tenant's template catalog: the admission fast path. Catalog
    /// instances never touch `alloc`.
    catalog: TemplateCatalog,
    /// Fast-path admissions per template, indexed by template id.
    instances: Vec<u64>,
    /// Injection seam; `None` (the default) costs one branch.
    faults: Option<Arc<dyn FaultHook>>,
    /// Reallocation failures (timeouts + injected) so far.
    failed_reallocs: u64,
    /// Did the most recent reallocation attempt fail? Cleared by the
    /// next success.
    degraded: bool,
}

impl Registry {
    /// An empty registry over the given level menu; `threads` workers
    /// serve each reallocation probe.
    pub fn new(levels: LevelSet, threads: usize) -> Self {
        Registry {
            alloc: Allocator::from_owned(TransactionSet::default())
                .with_levels(levels)
                .with_threads(threads),
            catalog: TemplateCatalog::new(
                TemplateCatalog::DEFAULT_COPIES,
                TemplateCatalog::DEFAULT_DOMAIN,
            ),
            instances: Vec::new(),
            faults: None,
            failed_reallocs: 0,
            degraded: false,
        }
    }

    /// Caps how long each reallocation may run before it is abandoned
    /// and rolled back (the degradation path). `None` = unbounded.
    pub fn with_realloc_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.alloc = self.alloc.with_op_timeout(timeout);
        self
    }

    /// Installs a fault-injection hook (chaos testing). Production
    /// registries never call this.
    pub fn with_fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.faults = Some(hook);
        self
    }

    /// Installs a fault hook on an already-built registry — how
    /// recovered tenants (rebuilt fault-free) get the chaos seam armed
    /// before the server starts serving.
    pub fn set_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Attaches a cross-tenant shared component-fingerprint cache:
    /// components this registry solves become pure hits for every other
    /// registry sharing the handle (and vice versa). Purely an
    /// acceleration — optima are bit-identical with or without it.
    pub fn with_shared_cache(mut self, cache: Arc<SharedCompCache>) -> Self {
        self.alloc = self.alloc.with_shared_cache(cache);
        self
    }

    pub fn levels(&self) -> LevelSet {
        self.alloc.levels()
    }

    /// Did the most recent reallocation attempt fail? While `true`, the
    /// served allocation is the last-known-good one and some recent
    /// mutation was rejected.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Total reallocation failures (timeouts and injected faults).
    pub fn failed_reallocs(&self) -> u64 {
        self.failed_reallocs
    }

    /// Number of registered transactions.
    pub fn len(&self) -> usize {
        self.alloc.txns().len()
    }

    pub fn is_empty(&self) -> bool {
        self.alloc.txns().len() == 0
    }

    /// Registers the transaction described by `line` (`T7: R[x] W[y]`)
    /// and incrementally reallocates. Object names resolve against the
    /// names already interned by earlier registrations, so `x` in one
    /// transaction conflicts with `x` in another.
    pub fn register(&mut self, line: &str) -> Result<Realloc, RegistryError> {
        // Parse against a scratch set, then re-intern the object names
        // into the allocator's own table: the allocator deliberately
        // never hands out `&mut TransactionSet` (a raw mutation would
        // bypass delta-state invalidation).
        let mut scratch = TransactionSet::default();
        let parsed = parse_transaction_line(line, &mut scratch).map_err(RegistryError::Parse)?;
        let ops = parsed
            .ops()
            .iter()
            .map(|op| Op {
                kind: op.kind,
                object: self.alloc.intern_object(&scratch.object_name(op.object)),
            })
            .collect();
        let txn = Transaction::new(parsed.id(), ops).expect("parser enforces the op invariants");
        match self.pre_realloc()? {
            ReallocFault::Timeout => {
                let expired = Some(Instant::now());
                let res = self.alloc.add_txn_by(txn, expired);
                self.post_realloc(res)
            }
            _ => {
                let res = self.alloc.add_txn(txn);
                self.post_realloc(res)
            }
        }
    }

    /// Deregisters transaction `id` and incrementally reallocates.
    pub fn deregister(&mut self, id: TxnId) -> Result<Realloc, RegistryError> {
        match self.pre_realloc()? {
            ReallocFault::Timeout => {
                let expired = Some(Instant::now());
                let res = self.alloc.remove_txn_by(id, expired);
                self.post_realloc(res)
            }
            _ => {
                let res = self.alloc.remove_txn(id);
                self.post_realloc(res)
            }
        }
    }

    /// Applies a coalesced batch of mutations with **one** reallocation
    /// (group commit; see [`mvrobustness::Allocator::apply_batch`]).
    ///
    /// Per-event verdicts — parse errors, duplicate/unknown ids, and
    /// (over `{RC, SI}`) unallocatable adds — are bit-identical to
    /// feeding the events one at a time through [`Registry::register`]
    /// / [`Registry::deregister`]; rejected events roll back
    /// individually while the rest of the batch lands atomically.
    ///
    /// Degradation semantics match the single-event path, with the
    /// fault hook consulted **once** per batch (a batch is one
    /// reallocation attempt): a timeout or injected fault rolls back
    /// the *whole* batch, records one failure, and the last-known-good
    /// allocation keeps being served — the caller maps the returned
    /// `Err` onto every event of the batch.
    pub fn apply_events(&mut self, events: &[RegistryEvent]) -> Result<BatchReply, RegistryError> {
        // Parse every register line up front: parse errors are
        // per-event and never reach the engine (exactly as in
        // `register`, where parsing precedes the reallocation).
        let mut outcomes: Vec<Option<Result<TxnId, RegistryError>>> =
            Vec::with_capacity(events.len());
        let mut deltas: Vec<DeltaEvent> = Vec::new();
        // (input index, affected id) of each event that reaches the
        // engine, in engine order.
        let mut slots: Vec<(usize, TxnId)> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            match ev {
                RegistryEvent::Register(line) => {
                    let mut scratch = TransactionSet::default();
                    match parse_transaction_line(line, &mut scratch) {
                        Err(e) => outcomes.push(Some(Err(RegistryError::Parse(e)))),
                        Ok(parsed) => {
                            let ops = parsed
                                .ops()
                                .iter()
                                .map(|op| Op {
                                    kind: op.kind,
                                    object: self
                                        .alloc
                                        .intern_object(&scratch.object_name(op.object)),
                                })
                                .collect();
                            let txn = Transaction::new(parsed.id(), ops)
                                .expect("parser enforces the op invariants");
                            slots.push((i, txn.id()));
                            deltas.push(DeltaEvent::Add(txn));
                            outcomes.push(None);
                        }
                    }
                }
                RegistryEvent::Deregister(id) => {
                    slots.push((i, *id));
                    deltas.push(DeltaEvent::Remove(*id));
                    outcomes.push(None);
                }
                // Template ops are never parked into the group-commit
                // batcher: the fast path must stay inline (and catalog
                // registration is not an engine delta at all).
                RegistryEvent::TemplateRegister(_) | RegistryEvent::Instantiate { .. } => {
                    unreachable!("template events are never coalesced")
                }
            }
        }
        // One fault-hook consultation and one engine pass per batch.
        let res = match self.pre_realloc()? {
            ReallocFault::Timeout => self.alloc.apply_batch_by(deltas, Some(Instant::now())),
            _ => self.alloc.apply_batch(deltas),
        };
        let batch = match res {
            Ok(b) => {
                self.degraded = false;
                b
            }
            Err(AllocError::Timeout) => return Err(self.note_failure("reallocation timed out")),
            Err(e) => return Err(RegistryError::Alloc(e)),
        };
        for ((i, id), outcome) in slots.into_iter().zip(batch.outcomes) {
            outcomes[i] = Some(outcome.map(|()| id).map_err(RegistryError::Alloc));
        }
        Ok(BatchReply {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every event slot is filled exactly once"))
                .collect(),
            changed: batch.changed,
            stats: batch.stats,
        })
    }

    /// Consults the fault hook before a reallocation. A forced `Fail`
    /// short-circuits into degradation before the engine even runs; a
    /// forced `Timeout` is returned so the caller runs the engine
    /// against an expired deadline (exercising the rollback path).
    fn pre_realloc(&mut self) -> Result<ReallocFault, RegistryError> {
        let fault = match &self.faults {
            None => ReallocFault::None,
            Some(hook) => hook.on_realloc(),
        };
        if fault == ReallocFault::Fail {
            return Err(self.note_failure("reallocation failed (injected fault)"));
        }
        Ok(fault)
    }

    /// Folds an allocator outcome into the degradation state: successes
    /// clear the degraded flag, timeouts record a failure, and client
    /// errors (duplicate id, unallocatable workload, …) pass through
    /// without touching it — they are the client's problem, not a
    /// service failure.
    fn post_realloc(&mut self, res: Result<Realloc, AllocError>) -> Result<Realloc, RegistryError> {
        match res {
            Ok(realloc) => {
                self.degraded = false;
                Ok(realloc)
            }
            Err(AllocError::Timeout) => Err(self.note_failure("reallocation timed out")),
            Err(e) => Err(RegistryError::Alloc(e)),
        }
    }

    fn note_failure(&mut self, cause: &str) -> RegistryError {
        self.failed_reallocs += 1;
        self.degraded = true;
        RegistryError::Degraded {
            cause: cause.to_string(),
            failures: self.failed_reallocs,
        }
    }

    /// The current optimal level of `id` — an O(1) lookup into the
    /// cached allocation. `None` when `id` is not registered.
    pub fn assign(&mut self, id: TxnId) -> Option<IsolationLevel> {
        self.alloc.current().ok()?.get(id)
    }

    /// The full current optimum.
    pub fn current(&mut self) -> Result<&Allocation, RegistryError> {
        self.alloc.current().map_err(RegistryError::Alloc)
    }

    /// The registered transactions with their current levels, in id
    /// order.
    pub fn list(&mut self) -> Vec<RegisteredTxn> {
        let levels: Vec<(TxnId, IsolationLevel)> = match self.alloc.current() {
            Ok(a) => a.iter().collect(),
            Err(_) => return Vec::new(),
        };
        let txns = self.alloc.txns();
        levels
            .into_iter()
            .map(|(id, level)| RegisteredTxn {
                id,
                text: mvmodel::fmt::transaction(txns, txns.txn(id)),
                level,
            })
            .collect()
    }

    /// Work counters of the most recent reallocation, if any ran.
    pub fn last_stats(&self) -> Option<&EngineStats> {
        self.alloc.last_stats()
    }

    // --- The template admission fast path ---------------------------

    /// Registers a template line (`Balance: R[sav:$0] R[chk:$0]`) in the
    /// tenant's catalog: parse, grow the set, recompute + re-verify the
    /// audited per-template allocation. The slow path, paid once per
    /// template — never per instance.
    pub fn register_template(&mut self, line: &str) -> Result<CatalogEntry, RegistryError> {
        let entry = self
            .catalog
            .register_line(line)
            .map_err(RegistryError::Template)?;
        self.instances.push(0);
        Ok(entry)
    }

    /// Admits one instance of a registered template: a pure O(1) catalog
    /// lookup plus parameter-count validation. Never touches the
    /// allocator — the engine does not know the instance exists. Returns
    /// the audited level and the template's new live-instance count.
    pub fn admit_instance(
        &mut self,
        template_id: usize,
        params: &[u32],
    ) -> Result<(IsolationLevel, u64), RegistryError> {
        let level = self
            .catalog
            .admit(template_id, params)
            .map_err(RegistryError::Template)?;
        self.instances[template_id] += 1;
        Ok((level, self.instances[template_id]))
    }

    /// The catalog contents with live instance counts, in template-id
    /// order.
    pub fn templates(&self) -> Vec<TemplateInfo> {
        (0..self.catalog.len())
            .map(|id| {
                let t = self.catalog.templates().get(id).expect("id < len");
                TemplateInfo {
                    id,
                    name: t.name().to_string(),
                    text: t.render(),
                    level: self.catalog.level(id).expect("id < len"),
                    param_count: t.param_count(),
                    instances: self.instances[id],
                }
            })
            .collect()
    }

    /// Number of registered templates.
    pub fn template_count(&self) -> usize {
        self.catalog.len()
    }

    /// Total fast-path instances admitted across all templates.
    pub fn instance_total(&self) -> u64 {
        self.instances.iter().sum()
    }

    /// Restores per-template instance counts from a snapshot. Must be
    /// called after the snapshot's templates were re-registered in
    /// order; panics on a length mismatch (a corrupt snapshot is
    /// detected before this point).
    pub fn restore_instances(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.len(),
            self.instances.len(),
            "one instance count per registered template"
        );
        self.instances.copy_from_slice(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assign_deregister_round_trip() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        assert!(reg.is_empty());
        let r = reg.register("T1: R[x] W[y]").unwrap();
        assert_eq!(r.allocation.to_string(), "T1=RC");
        let r = reg.register("T2: R[y] W[x]").unwrap();
        assert_eq!(r.allocation.to_string(), "T1=SSI T2=SSI");
        // The write-skew partner raised T1: both changes are reported.
        assert_eq!(r.changed.len(), 2);
        assert_eq!(reg.assign(TxnId(1)), Some(IsolationLevel::SSI));
        assert_eq!(reg.assign(TxnId(9)), None);
        assert_eq!(reg.len(), 2);

        let list = reg.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].text, "T1: R[x] W[y] C");
        assert_eq!(list[0].level, IsolationLevel::SSI);

        reg.deregister(TxnId(2)).unwrap();
        assert_eq!(reg.assign(TxnId(1)), Some(IsolationLevel::RC));
    }

    #[test]
    fn shared_object_names_conflict_across_registrations() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        reg.register("T1: R[acct] W[acct]").unwrap();
        let r = reg.register("T2: R[acct] W[acct]").unwrap();
        // A lost-update pair: both need SI — proof the second `acct`
        // resolved to the first one's object.
        assert_eq!(r.allocation.to_string(), "T1=SI T2=SI");
    }

    #[test]
    fn structured_errors() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        assert!(matches!(
            reg.register("garbage"),
            Err(RegistryError::Parse(_))
        ));
        reg.register("T1: R[x]").unwrap();
        assert!(matches!(
            reg.register("T1: W[x]"),
            Err(RegistryError::Alloc(AllocError::Duplicate(TxnId(1))))
        ));
        assert!(matches!(
            reg.deregister(TxnId(5)),
            Err(RegistryError::Alloc(AllocError::Unknown(TxnId(5))))
        ));
        assert_eq!(reg.len(), 1);
    }

    /// A hook that returns a scripted sequence of realloc faults.
    struct Scripted(std::sync::Mutex<Vec<ReallocFault>>);

    impl FaultHook for Scripted {
        fn on_realloc(&self) -> ReallocFault {
            self.0.lock().unwrap().pop().unwrap_or(ReallocFault::None)
        }
    }

    #[test]
    fn injected_failure_degrades_then_recovers() {
        // Script (popped back-to-front): Fail, Timeout, then clean.
        let script = Scripted(std::sync::Mutex::new(vec![
            ReallocFault::None,
            ReallocFault::Timeout,
            ReallocFault::Fail,
        ]));
        let mut reg =
            Registry::new(LevelSet::RcSiSsi, 1).with_fault_hook(std::sync::Arc::new(script));

        // First registration hits the injected Fail: not applied.
        let err = reg.register("T1: R[x] W[y]").unwrap_err();
        assert!(matches!(err, RegistryError::Degraded { failures: 1, .. }));
        let msg = err.to_string();
        assert!(msg.contains("last-known-good"), "{msg}");
        assert!(reg.degraded());
        assert_eq!(reg.failed_reallocs(), 1);
        assert!(reg.is_empty(), "failed registration must not apply");

        // Second hits the injected Timeout: the engine runs against an
        // expired deadline and rolls back.
        let err = reg.register("T1: R[x] W[y]").unwrap_err();
        assert!(matches!(err, RegistryError::Degraded { failures: 2, .. }));
        assert!(reg.is_empty());

        // Third runs clean: applied, degradation cleared.
        reg.register("T1: R[x] W[y]").unwrap();
        assert!(!reg.degraded());
        assert_eq!(reg.failed_reallocs(), 2, "history is retained");
        assert_eq!(reg.assign(TxnId(1)), Some(IsolationLevel::RC));
    }

    #[test]
    fn degraded_deregister_keeps_the_transaction() {
        let script = Scripted(std::sync::Mutex::new(vec![
            ReallocFault::Timeout,
            ReallocFault::None,
        ]));
        let mut reg =
            Registry::new(LevelSet::RcSiSsi, 1).with_fault_hook(std::sync::Arc::new(script));
        reg.register("T1: R[x] W[y]").unwrap();
        // The timed-out deregister rolls back: T1 is still served.
        let err = reg.deregister(TxnId(1)).unwrap_err();
        assert!(matches!(err, RegistryError::Degraded { .. }));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.assign(TxnId(1)), Some(IsolationLevel::RC));
        assert!(reg.degraded());
    }

    #[test]
    fn registry_agrees_with_the_monolithic_engine() {
        // Two independent conflict clusters plus a singleton, grown and
        // shrunk online: at every step the registry must serve the
        // monolithic one-shot optimum of its live set and report exactly
        // the levels that moved.
        let lines = [
            "T1: R[x] W[y]",
            "T2: R[y] W[x]",
            "T3: R[z] W[z]",
            "T4: R[z] W[z]",
            "T5: R[w]",
        ];
        let mono = |live: &[&str]| {
            let set = mvmodel::parse_transactions(&live.join("\n")).unwrap();
            Allocator::new(&set).with_components(false).optimal().0
        };
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        let mut prev = Allocation::from_pairs(std::iter::empty());
        for k in 1..=lines.len() {
            let r = reg.register(lines[k - 1]).unwrap();
            let expect = mono(&lines[..k]);
            assert_eq!(r.allocation, expect, "{}", lines[k - 1]);
            assert_eq!(r.changed, prev.diff(&expect), "{}", lines[k - 1]);
            prev = expect;
        }
        // Deregistering T4 touches only the z-cluster; the skew pair is
        // answered from the component cache without a single probe.
        let r = reg.deregister(TxnId(4)).unwrap();
        let expect = mono(&[lines[0], lines[1], lines[2], lines[4]]);
        assert_eq!(r.allocation, expect);
        assert_eq!(r.changed, prev.diff(&expect));
        assert!(r.stats.components_cached >= 1, "{}", r.stats);
    }

    #[test]
    fn client_errors_do_not_count_as_degradation() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        reg.register("T1: R[x]").unwrap();
        assert!(reg.register("T1: W[x]").is_err());
        assert!(!reg.degraded());
        assert_eq!(reg.failed_reallocs(), 0);
    }

    #[test]
    fn generous_realloc_timeout_is_invisible() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1)
            .with_realloc_timeout(Some(std::time::Duration::from_secs(30)));
        reg.register("T1: R[x] W[y]").unwrap();
        reg.register("T2: R[y] W[x]").unwrap();
        assert_eq!(reg.assign(TxnId(1)), Some(IsolationLevel::SSI));
        assert!(!reg.degraded());
    }

    #[test]
    fn batch_verdicts_match_single_event_semantics() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        reg.register("T1: R[x] W[y]").unwrap();
        let events = [
            RegistryEvent::Register("T2: R[y] W[x]".to_string()),
            RegistryEvent::Register("garbage".to_string()),
            RegistryEvent::Register("T1: W[x]".to_string()),
            RegistryEvent::Deregister(TxnId(1)),
            RegistryEvent::Deregister(TxnId(9)),
            RegistryEvent::Register("T3: R[x] W[x]".to_string()),
        ];
        let reply = reg.apply_events(&events).unwrap();
        assert_eq!(reply.outcomes.len(), 6);
        assert!(matches!(reply.outcomes[0], Ok(TxnId(2))));
        assert!(matches!(reply.outcomes[1], Err(RegistryError::Parse(_))));
        assert!(matches!(
            reply.outcomes[2],
            Err(RegistryError::Alloc(AllocError::Duplicate(TxnId(1))))
        ));
        assert!(matches!(reply.outcomes[3], Ok(TxnId(1))));
        assert!(matches!(
            reply.outcomes[4],
            Err(RegistryError::Alloc(AllocError::Unknown(TxnId(9))))
        ));
        assert!(matches!(reply.outcomes[5], Ok(TxnId(3))));
        // Survivors: T2 (write-skew partner gone → RC alone) and T3.
        assert_eq!(reg.len(), 2);
        // The parse error never reached the engine: 5 of 6 events did.
        assert_eq!(reply.stats.batch_events, 5);
        // The served optimum equals a from-scratch recomputation — the
        // same invariant the single-event paths maintain.
        let mut fresh = Registry::new(LevelSet::RcSiSsi, 1);
        fresh.register("T2: R[y] W[x]").unwrap();
        fresh.register("T3: R[x] W[x]").unwrap();
        assert_eq!(
            reg.current().unwrap().to_string(),
            fresh.current().unwrap().to_string()
        );
    }

    #[test]
    fn batch_object_names_conflict_with_earlier_registrations() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        reg.register("T1: R[acct] W[acct]").unwrap();
        let reply = reg
            .apply_events(&[RegistryEvent::Register("T2: R[acct] W[acct]".to_string())])
            .unwrap();
        assert!(reply.outcomes[0].is_ok());
        // Lost-update pair: both at SI — the batched `acct` resolved to
        // the previously interned object.
        assert_eq!(reg.current().unwrap().to_string(), "T1=SI T2=SI");
    }

    #[test]
    fn injected_fault_degrades_the_whole_batch() {
        // Script (popped back-to-front): Fail, then Timeout, then clean.
        let script = Scripted(std::sync::Mutex::new(vec![
            ReallocFault::None,
            ReallocFault::Timeout,
            ReallocFault::Fail,
        ]));
        let mut reg =
            Registry::new(LevelSet::RcSiSsi, 1).with_fault_hook(std::sync::Arc::new(script));
        let events = [
            RegistryEvent::Register("T1: R[x] W[y]".to_string()),
            RegistryEvent::Register("T2: R[y] W[x]".to_string()),
        ];
        // Injected Fail: one failure recorded for the whole batch,
        // nothing applied.
        let err = reg.apply_events(&events).unwrap_err();
        assert!(matches!(err, RegistryError::Degraded { failures: 1, .. }));
        assert!(reg.degraded());
        assert!(reg.is_empty());
        // Injected Timeout: the engine runs against an expired deadline
        // and rolls the whole batch back.
        let err = reg.apply_events(&events).unwrap_err();
        assert!(matches!(err, RegistryError::Degraded { failures: 2, .. }));
        assert!(reg.is_empty());
        // Clean run: both events land, degradation clears, history stays.
        let reply = reg.apply_events(&events).unwrap();
        assert!(reply.outcomes.iter().all(|o| o.is_ok()));
        assert!(!reg.degraded());
        assert_eq!(reg.failed_reallocs(), 2);
        assert_eq!(reg.assign(TxnId(1)), Some(IsolationLevel::SSI));
    }

    #[test]
    fn rc_si_batch_rejects_unallocatable_adds_individually() {
        let mut reg = Registry::new(LevelSet::RcSi, 1);
        reg.register("T1: R[x] W[y]").unwrap();
        let reply = reg
            .apply_events(&[
                RegistryEvent::Register("T2: R[y] W[x]".to_string()),
                RegistryEvent::Register("T3: R[w]".to_string()),
            ])
            .unwrap();
        assert!(matches!(
            reply.outcomes[0],
            Err(RegistryError::Alloc(AllocError::NotAllocatable(
                LevelSet::RcSi
            )))
        ));
        assert!(reply.outcomes[1].is_ok());
        assert_eq!(reg.len(), 2, "T1 and T3 are served; T2 rolled back");
        assert_eq!(reg.assign(TxnId(2)), None);
    }

    #[test]
    fn template_fast_path_never_touches_the_allocator() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        let e = reg
            .register_template("Increment: R[counter:$0] W[counter:$0]")
            .unwrap();
        assert_eq!(e.template_id, 0);
        assert_eq!(e.level, IsolationLevel::SI);
        // Admissions are catalog lookups: the engine's transaction set
        // stays empty no matter how many instances are admitted.
        for c in 0..100u32 {
            let (level, count) = reg.admit_instance(0, &[c]).unwrap();
            assert_eq!(level, IsolationLevel::SI);
            assert_eq!(count, c as u64 + 1);
        }
        assert!(reg.is_empty(), "fast-path instances must not reach alloc");
        assert_eq!(reg.instance_total(), 100);
        assert_eq!(reg.template_count(), 1);
        let info = reg.templates();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].name, "Increment");
        assert_eq!(info[0].text, "Increment: R[counter:$0] W[counter:$0]");
        assert_eq!(info[0].instances, 100);
        assert_eq!(info[0].param_count, 1);
        // Delta-path registrations still work side by side.
        reg.register("T1: R[x] W[y]").unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.instance_total(), 100);
    }

    #[test]
    fn template_errors_are_structured() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        assert!(matches!(
            reg.register_template("garbage"),
            Err(RegistryError::Template(TemplateError::Parse { .. }))
        ));
        assert!(matches!(
            reg.admit_instance(0, &[1]),
            Err(RegistryError::Template(TemplateError::UnknownTemplate {
                idx: 0,
                len: 0
            }))
        ));
        reg.register_template("Pay: R[a:$0] W[a:$0] W[b:$1]")
            .unwrap();
        assert!(matches!(
            reg.admit_instance(0, &[1]),
            Err(RegistryError::Template(
                TemplateError::MissingArguments { .. }
            ))
        ));
        // Failed admissions don't bump the count.
        assert_eq!(reg.instance_total(), 0);
    }

    #[test]
    fn restored_instance_counts_round_trip() {
        let mut reg = Registry::new(LevelSet::RcSiSsi, 1);
        reg.register_template("A: R[x:$0]").unwrap();
        reg.register_template("B: W[y:$0]").unwrap();
        reg.restore_instances(&[7, 9]);
        assert_eq!(reg.instance_total(), 16);
        let info = reg.templates();
        assert_eq!((info[0].instances, info[1].instances), (7, 9));
    }

    #[test]
    fn rc_si_registry_rejects_unallocatable_and_keeps_serving() {
        let mut reg = Registry::new(LevelSet::RcSi, 1);
        reg.register("T1: R[x] W[y]").unwrap();
        let err = reg.register("T2: R[y] W[x]").unwrap_err();
        assert!(matches!(
            err,
            RegistryError::Alloc(AllocError::NotAllocatable(LevelSet::RcSi))
        ));
        // Rolled back: T1 still served.
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.assign(TxnId(1)), Some(IsolationLevel::RC));
    }
}
