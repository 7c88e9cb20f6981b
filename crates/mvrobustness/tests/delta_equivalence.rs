//! Bit-for-bit equivalence of the online delta API
//! ([`Allocator::add_txn`] / [`Allocator::remove_txn`]) with full
//! recomputation, on randomized mutation sequences:
//!
//! - after every successful mutation, the incrementally maintained
//!   optimum equals a fresh `Allocator::new(set).optimal()` (or
//!   `optimal_rc_si`) of the current set — the delta paths reuse cached
//!   counterexamples and refinement floors, but acceptances always come
//!   from a full probe, so the result is the identical allocation;
//! - over `{RC, SI}` a rejected add rolls the set back and the fresh
//!   recomputation of the attempted set indeed has no robust allocation;
//! - the reported `changed` list is exactly the diff of the previous and
//!   new optimum;
//! - the thread count of the delta allocator does not affect results.
//!
//! `DELTA_SEED=<u64>` replaces every test's pinned seeds; a failing
//! seed prints a `repro:` line with the command that replays it.

mod seeds;

use mvisolation::Allocation;
use mvmodel::{Op, Transaction, TransactionSet, TxnId};
use mvrobustness::{AllocError, Allocator, Components, ConflictIndex, LevelSet, Realloc};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use seeds::{seeds, Repro};

/// Guards one seed's run: a panic prints the command that replays it.
fn repro(seed: u64) -> Repro {
    Repro {
        seed,
        suite: "delta_equivalence",
    }
}

/// Whether `txns` has at least two transactions, all in one conflict
/// component — a set the component solver handles as a whole.
fn one_component(txns: &TransactionSet) -> bool {
    txns.len() >= 2 && Components::new(txns, &ConflictIndex::new(txns)).count() == 1
}

/// A random transaction of 1..=`max_ops` distinct operations over
/// `n_objects` shared objects, interned against `set`.
fn random_txn(
    rng: &mut SmallRng,
    set: &mut TransactionSet,
    id: u32,
    n_objects: u32,
) -> Transaction {
    let len = rng.random_range(1..=4usize);
    let mut used: Vec<(bool, u32)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..len {
        let obj = rng.random_range(0..n_objects);
        let write = rng.random_bool(0.5);
        if used.contains(&(write, obj)) {
            continue;
        }
        used.push((write, obj));
        let object = set.intern_object(&format!("o{obj}"));
        ops.push(if write {
            Op::write(object)
        } else {
            Op::read(object)
        });
    }
    Transaction::new(TxnId(id), ops).expect("generator avoids duplicate operations")
}

/// The from-scratch optimum of `txns` over `levels` — computed by the
/// *monolithic* engine, so the component-sharded delta paths are always
/// checked against an independent implementation.
fn full_recompute(txns: &TransactionSet, levels: LevelSet) -> Option<Allocation> {
    let full = Allocator::new(txns).with_components(false);
    match levels {
        LevelSet::RcSiSsi => Some(full.optimal().0),
        LevelSet::RcSi => full.optimal_rc_si().0,
    }
}

/// Checks one successful delta result against the previous optimum and a
/// fresh recomputation.
fn assert_delta_matches(
    r: &Realloc,
    prev: &Allocation,
    txns: &TransactionSet,
    levels: LevelSet,
    step: usize,
) {
    let expected = full_recompute(txns, levels)
        .expect("delta reported success, so the set must be allocatable");
    assert_eq!(
        r.allocation,
        expected,
        "step {step}: delta optimum diverged from full recomputation\n{}",
        mvmodel::fmt::transaction_set(txns)
    );
    assert_eq!(
        r.changed,
        prev.diff(&r.allocation),
        "step {step}: changed list is not the diff of prev and new optimum"
    );
}

fn run_sequence(seed: u64, levels: LevelSet, threads: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut alloc = Allocator::from_owned(TransactionSet::default())
        .with_levels(levels)
        .with_threads(threads);
    let mut prev = alloc.current().expect("empty set is allocatable").clone();
    let mut present: Vec<u32> = Vec::new();
    let mut next_id = 1u32;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    // Steps that left the whole set one conflict component.
    let mut single = 0usize;

    for step in 0..40 {
        let add = present.len() < 12 && (present.is_empty() || rng.random_bool(0.65));
        if add {
            let id = next_id;
            next_id += 1;
            // Build the transaction against a scratch copy first so a
            // rejected add can be compared with the attempted set.
            let mut attempted = alloc.txns().clone();
            let txn = random_txn(&mut rng, &mut attempted, id, 5);
            attempted.insert(txn.clone()).unwrap();
            match alloc.add_txn(txn) {
                Ok(r) => {
                    assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
                    prev = r.allocation;
                    present.push(id);
                    accepted += 1;
                    single += one_component(alloc.txns()) as usize;
                }
                Err(AllocError::NotAllocatable(l)) => {
                    assert_eq!(l, levels);
                    assert_eq!(
                        full_recompute(&attempted, levels),
                        None,
                        "step {step}: delta rejected an allocatable set\n{}",
                        mvmodel::fmt::transaction_set(&attempted)
                    );
                    // The insertion rolled back; the old optimum stands.
                    assert_eq!(alloc.txns().len(), present.len());
                    assert!(!alloc.txns().contains(TxnId(id)));
                    assert_eq!(alloc.current().unwrap(), &prev);
                    rejected += 1;
                }
                Err(e) => panic!("step {step}: unexpected delta error {e}"),
            }
        } else {
            let idx = rng.random_range(0..present.len());
            let victim = present.remove(idx);
            let r = alloc
                .remove_txn(TxnId(victim))
                .expect("removal never fails");
            assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
            prev = r.allocation;
            single += one_component(alloc.txns()) as usize;
        }
    }
    assert!(accepted > 0, "seed {seed:#x}: no add ever accepted");
    assert!(
        single > 0,
        "seed {seed:#x}: no step left the set one conflict component — tune the generator"
    );
    if levels == LevelSet::RcSi {
        assert!(
            rejected > 0,
            "seed {seed:#x}: no {{RC, SI}} rejection exercised — tune the generator"
        );
    }
}

/// A random transaction whose operations are confined to the private
/// object pools of the given `clusters` (3 objects per pool, addressed
/// by raw id — conflicts derive from ids, names are cosmetic, and
/// interning against a throwaway clone would alias the pools). A single
/// cluster yields a component-local transaction; two clusters yield a
/// *bridge* that merges their conflict components for as long as it is
/// present.
fn pooled_txn(rng: &mut SmallRng, id: u32, clusters: &[u32]) -> Transaction {
    let mut used: Vec<(bool, u32)> = Vec::new();
    let mut ops = Vec::new();
    for &c in clusters {
        // At least one op per listed cluster, so a bridge really spans.
        let per = if clusters.len() > 1 {
            1
        } else {
            rng.random_range(2..=3usize)
        };
        let mut placed = 0;
        while placed < per {
            let raw = c * 3 + rng.random_range(0..3u32);
            let write = rng.random_bool(0.5);
            if used.contains(&(write, raw)) {
                continue;
            }
            used.push((write, raw));
            let object = mvmodel::Object(raw);
            ops.push(if write {
                Op::write(object)
            } else {
                Op::read(object)
            });
            placed += 1;
        }
    }
    Transaction::new(TxnId(id), ops).expect("generator avoids duplicate operations")
}

/// Component-heavy mutation sequence: cluster-local transactions keep
/// several independent conflict components alive, while occasional
/// bridge transactions merge two of them (and their removal splits them
/// again). Every accepted delta must equal the monolithic from-scratch
/// optimum; returns the allocation trace so callers can compare thread
/// counts bit-for-bit.
fn run_clustered_sequence(seed: u64, levels: LevelSet, threads: usize) -> Vec<String> {
    const CLUSTERS: u32 = 4;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut alloc = Allocator::from_owned(TransactionSet::default())
        .with_levels(levels)
        .with_threads(threads);
    let mut prev = alloc.current().expect("empty set is allocatable").clone();
    let mut present: Vec<u32> = Vec::new();
    let mut next_id = 1u32;
    let mut trace = Vec::new();
    let mut saw_cached = false;
    let mut saw_bridge = false;

    for step in 0..36 {
        let add = present.len() < 14 && (present.len() < 4 || rng.random_bool(0.6));
        if add {
            let id = next_id;
            next_id += 1;
            let bridge = rng.random_bool(0.3);
            let clusters: Vec<u32> = if bridge {
                let a = rng.random_range(0..CLUSTERS);
                let b = (a + 1 + rng.random_range(0..CLUSTERS - 1)) % CLUSTERS;
                vec![a, b]
            } else {
                vec![rng.random_range(0..CLUSTERS)]
            };
            let mut attempted = alloc.txns().clone();
            let txn = pooled_txn(&mut rng, id, &clusters);
            attempted.insert(txn.clone()).unwrap();
            match alloc.add_txn(txn) {
                Ok(r) => {
                    assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
                    if let Some(s) = alloc.last_stats() {
                        saw_cached |= s.components_cached > 0;
                    }
                    prev = r.allocation;
                    present.push(id);
                    saw_bridge |= bridge;
                }
                Err(AllocError::NotAllocatable(l)) => {
                    assert_eq!(l, levels);
                    assert_eq!(
                        full_recompute(&attempted, levels),
                        None,
                        "step {step}: delta rejected an allocatable set\n{}",
                        mvmodel::fmt::transaction_set(&attempted)
                    );
                    assert_eq!(alloc.txns().len(), present.len());
                    assert_eq!(alloc.current().unwrap(), &prev);
                }
                Err(e) => panic!("step {step}: unexpected delta error {e}"),
            }
        } else {
            let idx = rng.random_range(0..present.len());
            let victim = present.remove(idx);
            let r = alloc
                .remove_txn(TxnId(victim))
                .expect("removal never fails");
            assert_delta_matches(&r, &prev, alloc.txns(), levels, step);
            if let Some(s) = alloc.last_stats() {
                saw_cached |= s.components_cached > 0;
            }
            prev = r.allocation;
        }
        trace.push(prev.to_string());
    }
    assert!(
        saw_cached,
        "seed {seed:#x}: no delta ever reused a cached component — tune the generator"
    );
    assert!(saw_bridge, "seed {seed:#x}: no bridge accepted");
    trace
}

/// Bridges merge components on add and split them on remove; every
/// intermediate optimum must equal the monolithic recomputation, and the
/// whole trace must be bit-identical at every thread count.
#[test]
fn clustered_delta_equals_full_recompute_across_threads() {
    for seed in seeds(&[0xDE17A0031, 0xDE17A0032]) {
        let _repro = repro(seed);
        let reference = run_clustered_sequence(seed, LevelSet::RcSiSsi, 1);
        for threads in [2, 4] {
            assert_eq!(
                run_clustered_sequence(seed, LevelSet::RcSiSsi, threads),
                reference,
                "seed {seed:#x}: trace diverged at {threads} threads"
            );
        }
    }
}

/// The same component-heavy sequence over `{RC, SI}` exercises the
/// per-component Unallocatable detection path.
#[test]
fn clustered_delta_equals_full_recompute_rc_si() {
    for seed in seeds(&[0xDE17A0041]) {
        let _repro = repro(seed);
        run_clustered_sequence(seed, LevelSet::RcSi, 1);
    }
}

#[test]
fn delta_equals_full_recompute_rc_si_ssi() {
    for seed in seeds(&[0xDE17A0001, 0xDE17A0002, 0xDE17A0003]) {
        let _repro = repro(seed);
        run_sequence(seed, LevelSet::RcSiSsi, 1);
    }
}

#[test]
fn delta_equals_full_recompute_rc_si() {
    for seed in seeds(&[0xDE17A0011, 0xDE17A0012, 0xDE17A0013]) {
        let _repro = repro(seed);
        run_sequence(seed, LevelSet::RcSi, 1);
    }
}

#[test]
fn delta_results_independent_of_thread_count() {
    for seed in seeds(&[0xDE17A0021]) {
        let _repro = repro(seed);
        run_sequence(seed, LevelSet::RcSiSsi, 4);
    }
    for seed in seeds(&[0xDE17A0022]) {
        let _repro = repro(seed);
        run_sequence(seed, LevelSet::RcSi, 2);
    }
}
