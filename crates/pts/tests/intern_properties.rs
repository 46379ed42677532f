//! Randomized property tests for interned, copy-on-write [`PtsHandle`]s
//! against two oracles: a plain (never-interned) `PtsSet` mirroring
//! every mutation, and a `BTreeSet` mirroring contents.
//!
//! Driven by the in-tree SplitMix64 PRNG (`obs::rng`) so runs are
//! deterministic and reproducible. Each trial interleaves inserts,
//! unions, and difference-then-union steps through `make_mut` with
//! seal sweeps at a random cadence — every mutate-a-while-then-seal
//! lifecycle a handle can live through — and asserts that sealing never changes
//! content, that handle equality coincides with content equality, and
//! that the handle fast paths (`intersects`, `is_subset`) agree with
//! the structural answers.

use obs::rng::SplitMix64;
use pts::{PtsHandle, PtsSet, SetInterner, SMALL_MAX};
use std::collections::BTreeSet;

const UNIVERSE: u64 = 700;

fn assert_matches(set: &PtsSet<u32>, oracle: &BTreeSet<u32>, ctx: &str) {
    assert_eq!(set.len(), oracle.len(), "len mismatch: {ctx}");
    let got: Vec<u32> = set.iter().collect();
    let want: Vec<u32> = oracle.iter().copied().collect();
    assert_eq!(got, want, "iter/order mismatch: {ctx}");
}

fn random_set(rng: &mut SplitMix64, max_len: u64) -> (PtsSet<u32>, BTreeSet<u32>) {
    let n = rng.below(max_len);
    let mut set = PtsSet::new();
    let mut oracle = BTreeSet::new();
    for _ in 0..n {
        let v = rng.below(UNIVERSE) as u32;
        set.insert(v);
        oracle.insert(v);
    }
    (set, oracle)
}

/// A solver-row stand-in: the interned handle under test plus its two
/// oracles.
struct Row {
    handle: PtsHandle<u32>,
    plain: PtsSet<u32>,
    oracle: BTreeSet<u32>,
}

#[test]
fn interned_rows_match_plain_sets_under_mutation_and_sealing() {
    let mut rng = SplitMix64::new(0x517cc1b727220a95);
    let interner = SetInterner::new();
    for trial in 0..60 {
        let mut rows: Vec<Row> = (0..8)
            .map(|_| Row {
                handle: interner.empty_handle(),
                plain: PtsSet::new(),
                oracle: BTreeSet::new(),
            })
            .collect();
        let ops = 40 + rng.below(80);
        for op in 0..ops {
            let i = rng.below(rows.len() as u64) as usize;
            match rng.below(4) {
                0 => {
                    let v = rng.below(UNIVERSE) as u32;
                    rows[i].handle.make_mut().insert(v);
                    rows[i].plain.insert(v);
                    rows[i].oracle.insert(v);
                }
                1 => {
                    let (src, src_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
                    rows[i].handle.make_mut().union_with(&src);
                    rows[i].plain.union_with(&src);
                    rows[i].oracle.extend(src_o);
                }
                // The solver's propagation step: the read-only
                // contribution first, then a word-wise OR into the row.
                2 => {
                    let (src, src_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
                    let d = src.difference(&rows[i].handle);
                    assert_eq!(d, src.difference(&rows[i].plain), "contribution");
                    rows[i].handle.make_mut().union_with(&d);
                    rows[i].plain.union_with(&d);
                    rows[i].oracle.extend(src_o);
                }
                // Copy another row wholesale — the solver's
                // handle-sharing move (collapsed-cache fast path).
                _ => {
                    let j = rng.below(rows.len() as u64) as usize;
                    let (handle, plain, oracle) =
                        (rows[j].handle.clone(), rows[j].plain.clone(), rows[j].oracle.clone());
                    rows[i] = Row { handle, plain, oracle };
                }
            }
            // Seal sweeps at a random cadence, mid-mutation: sealing
            // must never change content, only allocation identity.
            if rng.below(7) == 0 {
                for row in &mut rows {
                    row.handle.seal(&interner);
                    assert!(row.handle.is_sealed());
                }
                interner.evict_dead();
            }
            let ctx = format!("trial {trial}, op {op}");
            for (k, row) in rows.iter().enumerate() {
                assert_matches(&row.handle, &row.oracle, &format!("row {k}, {ctx}"));
                assert_eq!(*row.handle.as_set(), row.plain, "plain oracle, row {k}, {ctx}");
            }
        }
        // Final sweep, then the global invariants over all row pairs.
        for row in &mut rows {
            row.handle.seal(&interner);
        }
        for a in 0..rows.len() {
            for b in 0..rows.len() {
                let ctx = format!("rows {a}/{b}, trial {trial}");
                // Handle equality ⇔ content equality, sealed or not.
                assert_eq!(
                    rows[a].handle == rows[b].handle,
                    rows[a].oracle == rows[b].oracle,
                    "handle equality: {ctx}"
                );
                // Fast-pathed queries agree with the oracles.
                assert_eq!(
                    rows[a].handle.intersects(&rows[b].handle),
                    !rows[a].oracle.is_disjoint(&rows[b].oracle),
                    "intersects: {ctx}"
                );
                assert_eq!(
                    rows[a].handle.is_subset(&rows[b].handle),
                    rows[a].oracle.is_subset(&rows[b].oracle),
                    "is_subset: {ctx}"
                );
            }
        }
    }
    assert!(interner.dedup_hits() > 0, "trials never shared a sealed allocation");
}

/// Content-equal sets sealed against one interner share one allocation;
/// diverging a shared handle through `make_mut` never disturbs the
/// other owners (copy-on-write).
#[test]
fn sealing_shares_and_make_mut_unshares() {
    let mut rng = SplitMix64::new(0x6a09e667f3bcc909);
    let interner = SetInterner::new();
    for trial in 0..100 {
        let (set, oracle) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let mut a = PtsHandle::from_set(set.clone());
        // Rebuild b independently (different allocation, same content).
        let mut b = PtsHandle::from_set(oracle.iter().copied().collect::<PtsSet<u32>>());
        assert_ne!(a.addr(), b.addr(), "pre-seal sharing is impossible, trial {trial}");
        a.seal(&interner);
        b.seal(&interner);
        assert_eq!(a.addr(), b.addr(), "seal did not dedup, trial {trial}");
        assert_eq!(a, b, "handles disagree after seal, trial {trial}");

        let probe = rng.below(UNIVERSE) as u32;
        let b_before = b.as_set().clone();
        let changed = a.make_mut().insert(probe);
        assert!(!a.is_sealed(), "make_mut must mark the handle dirty, trial {trial}");
        assert_eq!(*b.as_set(), b_before, "CoW leaked into the shared owner, trial {trial}");
        assert_eq!(a == b, !changed, "equality after divergence, trial {trial}");
    }
}

/// Representation twins — a small set, its forced-dense copy, and a
/// dense copy with trailing zero words — seal onto one interned id and
/// one allocation.
#[test]
fn interner_dedups_representation_twins() {
    let mut rng = SplitMix64::new(0xa4093822299f31d0);
    for trial in 0..100 {
        let interner = SetInterner::new();
        let (canonical, oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        let mut dense: PtsSet<u32> = (0u32..=SMALL_MAX as u32).collect();
        dense.clear();
        dense.extend(oracle.iter().copied());
        let mut trailing = dense.clone();
        let high = UNIVERSE as u32 + 640;
        trailing.insert(high);
        trailing.remove(high);
        let mut handles: Vec<PtsHandle<u32>> = [canonical, dense, trailing]
            .into_iter()
            .map(PtsHandle::from_set)
            .collect();
        for h in &mut handles {
            h.seal(&interner);
        }
        for h in &handles[1..] {
            assert_eq!(h.addr(), handles[0].addr(), "twin kept its own allocation, trial {trial}");
            assert_eq!(*h, handles[0], "twins compare unequal, trial {trial}");
        }
        // The empty set is pre-interned; any other content adds one.
        let want = if oracle.is_empty() { 1 } else { 2 };
        assert_eq!(interner.interned(), want, "interned count, trial {trial}");
        assert_matches(&handles[0], &oracle, &format!("trial {trial}"));
    }
}
