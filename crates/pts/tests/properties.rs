//! Randomized property tests for `PtsSet` against a `BTreeSet` oracle.
//!
//! Driven by the in-tree SplitMix64 PRNG (`obs::rng`) so runs are
//! deterministic and reproducible from the printed seed. Each trial
//! mirrors a random operation sequence onto both a `PtsSet<u32>` and a
//! `BTreeSet<u32>` and asserts they agree on membership, cardinality,
//! iteration order, union deltas, masked unions, and intersection —
//! deliberately crossing the small→dense promotion boundary.

use obs::rng::SplitMix64;
use pts::{IdRanges, PtsSet, SMALL_MAX};
use std::collections::BTreeSet;

/// Universe large enough to exercise multi-word bitmaps, small enough
/// for collisions (re-inserts, overlapping unions) to be common.
const UNIVERSE: u64 = 700;

fn assert_matches(set: &PtsSet<u32>, oracle: &BTreeSet<u32>, ctx: &str) {
    assert_eq!(set.len(), oracle.len(), "len mismatch: {ctx}");
    assert_eq!(set.is_empty(), oracle.is_empty(), "is_empty mismatch: {ctx}");
    // Iteration must be ascending and exactly the oracle's contents.
    let got: Vec<u32> = set.iter().collect();
    let want: Vec<u32> = oracle.iter().copied().collect();
    assert_eq!(got, want, "iter/order mismatch: {ctx}");
    assert_eq!(set.to_vec(), want, "to_vec mismatch: {ctx}");
}

fn random_set(rng: &mut SplitMix64, max_len: u64) -> (PtsSet<u32>, BTreeSet<u32>) {
    let n = rng.below(max_len);
    let mut set = PtsSet::new();
    let mut oracle = BTreeSet::new();
    for _ in 0..n {
        let v = rng.below(UNIVERSE) as u32;
        assert_eq!(set.insert(v), oracle.insert(v), "insert return value");
    }
    (set, oracle)
}

#[test]
fn insert_contains_iter_match_oracle() {
    let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
    for trial in 0..200 {
        let (set, oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        assert_matches(&set, &oracle, &format!("trial {trial}"));
        for _ in 0..32 {
            let probe = rng.below(UNIVERSE) as u32;
            assert_eq!(
                set.contains(probe),
                oracle.contains(&probe),
                "contains({probe}) mismatch, trial {trial}"
            );
        }
    }
}

#[test]
fn union_into_delta_matches_oracle() {
    let mut rng = SplitMix64::new(0xdeadbeefcafef00d);
    for trial in 0..200 {
        let (src, src_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let (mut dst, mut dst_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);

        let delta = src.union_into(&mut dst);
        let delta_o: BTreeSet<u32> = src_o.difference(&dst_o).copied().collect();
        dst_o.extend(src_o.iter().copied());

        assert_matches(&delta, &delta_o, &format!("delta, trial {trial}"));
        assert_matches(&dst, &dst_o, &format!("union target, trial {trial}"));
        // Unioning again must be quiescent: empty delta, unchanged target.
        assert!(src.union_into(&mut dst).is_empty(), "requiescence, trial {trial}");
        assert_matches(&dst, &dst_o, &format!("post-requiescence, trial {trial}"));
    }
}

#[test]
fn masked_union_matches_oracle() {
    let mut rng = SplitMix64::new(0x1234567812345678);
    for trial in 0..200 {
        let (src, src_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let (mask, mask_o) = random_set(&mut rng, 6 * SMALL_MAX as u64);
        let (mut dst, mut dst_o) = random_set(&mut rng, 2 * SMALL_MAX as u64);

        let delta = src.union_into_masked(&mask, &mut dst);
        let masked: BTreeSet<u32> = src_o.intersection(&mask_o).copied().collect();
        let delta_o: BTreeSet<u32> = masked.difference(&dst_o).copied().collect();
        dst_o.extend(masked.iter().copied());

        assert_matches(&delta, &delta_o, &format!("masked delta, trial {trial}"));
        assert_matches(&dst, &dst_o, &format!("masked target, trial {trial}"));
    }
}

#[test]
fn intersects_matches_oracle() {
    let mut rng = SplitMix64::new(0x0123456789abcdef);
    for trial in 0..300 {
        let (a, a_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let (b, b_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let want = !a_o.is_disjoint(&b_o);
        assert_eq!(a.intersects(&b), want, "a∩b, trial {trial}");
        assert_eq!(b.intersects(&a), want, "b∩a (symmetry), trial {trial}");
    }
}

#[test]
fn equality_is_representation_independent() {
    let mut rng = SplitMix64::new(0xfeedface00000001);
    for trial in 0..100 {
        let (set, oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        // Rebuild through a forced-dense detour: over-fill, then compare
        // a straight FromIterator rebuild against the original.
        let rebuilt: PtsSet<u32> = oracle.iter().copied().collect();
        assert_eq!(set, rebuilt, "rebuild equality, trial {trial}");
        let mut detour: PtsSet<u32> = (0u32..(SMALL_MAX as u32 + 8)).collect();
        detour.clear();
        for &v in &oracle {
            detour.insert(v);
        }
        // `detour` went through a dense promotion; contents decide.
        assert_eq!(detour.to_vec(), set.to_vec(), "dense detour, trial {trial}");
    }
}

/// A random coalesced run list plus the equivalent materialized mask
/// set and oracle — so every range op can be checked against the
/// masked-set operation it replaces.
fn random_ranges(rng: &mut SplitMix64) -> (IdRanges, PtsSet<u32>, BTreeSet<u32>) {
    let mut ids: BTreeSet<u32> = BTreeSet::new();
    for _ in 0..rng.below(6) {
        let lo = rng.below(UNIVERSE) as u32;
        let len = 1 + rng.below(96) as u32;
        ids.extend(lo..(lo + len).min(UNIVERSE as u32));
    }
    let ranges = IdRanges::from_sorted_ids(ids.iter().copied());
    let mask: PtsSet<u32> = ids.iter().copied().collect();
    (ranges, mask, ids)
}

#[test]
fn id_ranges_coalesce_and_answer_membership() {
    let mut rng = SplitMix64::new(0x5eed5eed5eed5eed);
    for trial in 0..200 {
        let (ranges, _, ids) = random_ranges(&mut rng);
        // Runs must be ascending, disjoint, non-adjacent, and cover
        // exactly the oracle ids.
        for w in ranges.runs().windows(2) {
            assert!(w[0].1 < w[1].0, "runs not coalesced/sorted, trial {trial}");
        }
        assert_eq!(ranges.covered(), ids.len() as u64, "coverage, trial {trial}");
        for _ in 0..64 {
            let probe = rng.below(UNIVERSE) as u32;
            assert_eq!(
                ranges.contains(probe),
                ids.contains(&probe),
                "contains({probe}), trial {trial}"
            );
        }
        // Incremental insertion reaches the same runs as bulk build.
        let mut incremental = IdRanges::new();
        let mut shuffled: Vec<u32> = ids.iter().copied().collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for id in shuffled {
            incremental.insert_id(id);
        }
        assert_eq!(incremental, ranges, "incremental vs bulk, trial {trial}");
    }
}

#[test]
fn difference_in_ranges_matches_masked_set_oracle() {
    let mut rng = SplitMix64::new(0xc0ffee00c0ffee00);
    for trial in 0..300 {
        let (src, src_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (ranges, mask, mask_o) = random_ranges(&mut rng);
        let (other, other_o) = random_set(&mut rng, 3 * SMALL_MAX as u64);

        let got = src.difference_in_ranges(&ranges, &other);
        let want = src.difference_masked(&mask, &other);
        assert_eq!(got, want, "range vs mask difference, trial {trial}");
        let want_o: BTreeSet<u32> = src_o
            .iter()
            .filter(|e| mask_o.contains(e) && !other_o.contains(e))
            .copied()
            .collect();
        assert_matches(&got, &want_o, &format!("range difference, trial {trial}"));
    }
}

#[test]
fn union_masked_ranges_matches_masked_union_oracle() {
    let mut rng = SplitMix64::new(0xbadc0de5badc0de5);
    for trial in 0..300 {
        let (src, src_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (ranges, mask, mask_o) = random_ranges(&mut rng);
        let (mut dst_r, dst_o0) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        let mut dst_m = dst_r.clone();

        let got = src.union_masked_ranges(&ranges, &mut dst_r);
        let want = src.union_into_masked(&mask, &mut dst_m);
        assert_eq!(got, want, "range vs mask union delta, trial {trial}");
        assert_eq!(dst_r, dst_m, "range vs mask union target, trial {trial}");
        let masked: BTreeSet<u32> = src_o.intersection(&mask_o).copied().collect();
        let mut dst_o = dst_o0.clone();
        dst_o.extend(masked.iter().copied());
        assert_matches(&dst_r, &dst_o, &format!("range union target, trial {trial}"));
    }
}

#[test]
fn iter_in_ranges_matches_filtered_iteration() {
    let mut rng = SplitMix64::new(0x1ce1ce1ce1ce1ce1);
    for trial in 0..200 {
        let (set, set_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (ranges, _, mask_o) = random_ranges(&mut rng);
        let got: Vec<u32> = set.iter_in_ranges(&ranges).collect();
        let want: Vec<u32> = set_o.iter().filter(|e| mask_o.contains(e)).copied().collect();
        assert_eq!(got, want, "range-bounded iteration, trial {trial}");
    }
}

#[test]
fn union_with_matches_extend() {
    let mut rng = SplitMix64::new(0xabcdef0123456789);
    for trial in 0..100 {
        let (a, a_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (mut b, b_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        b.union_with(&a);
        let union_o: BTreeSet<u32> = a_o.union(&b_o).copied().collect();
        assert_matches(&b, &union_o, &format!("union_with, trial {trial}"));
    }
}

/// Three representations of `oracle`'s contents: the canonical build
/// (small up to `SMALL_MAX` elements, dense past it), a forced-dense
/// bitmap, and a dense bitmap that keeps trailing zero words after a
/// high element is inserted and removed again.
fn representations(oracle: &BTreeSet<u32>) -> [(&'static str, PtsSet<u32>); 3] {
    let canonical: PtsSet<u32> = oracle.iter().copied().collect();
    let mut dense: PtsSet<u32> = (0u32..=SMALL_MAX as u32).collect();
    dense.clear();
    dense.extend(oracle.iter().copied());
    let mut trailing = dense.clone();
    let high = UNIVERSE as u32 + 640;
    assert!(trailing.insert(high));
    assert!(trailing.remove(high));
    assert!(!trailing.remove(high), "second remove of {high}");
    [("canonical", canonical), ("dense", dense), ("trailing-zero", trailing)]
}

#[test]
fn remove_matches_oracle() {
    let mut rng = SplitMix64::new(0x243f6a8885a308d3);
    for trial in 0..200 {
        let (mut set, mut oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        for _ in 0..16 {
            let v = rng.below(UNIVERSE) as u32;
            assert_eq!(set.remove(v), oracle.remove(&v), "remove({v}), trial {trial}");
            assert_matches(&set, &oracle, &format!("after remove({v}), trial {trial}"));
        }
    }
}

/// `PtsSet` equality agrees with the oracle's for every pair of
/// representations: small vs small compares slices, dense vs dense
/// compares words (trailing zero words included), mixed pairs walk.
#[test]
fn equality_matches_oracle_across_representations() {
    let mut rng = SplitMix64::new(0x13198a2e03707344);
    for trial in 0..300 {
        let (_, a) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        // Equal contents, a one-element difference, or an unrelated set.
        let b = match rng.below(3) {
            0 => a.clone(),
            1 => {
                let mut b = a.clone();
                let v = rng.below(UNIVERSE) as u32;
                if !b.remove(&v) {
                    b.insert(v);
                }
                b
            }
            _ => random_set(&mut rng, 3 * SMALL_MAX as u64).1,
        };
        let want = a == b;
        for (ka, ra) in &representations(&a) {
            assert_matches(ra, &a, &format!("{ka} build, trial {trial}"));
            for (kb, rb) in &representations(&b) {
                assert_eq!(ra == rb, want, "{ka} == {kb}, trial {trial}");
                assert_eq!(rb == ra, want, "{kb} == {ka} (symmetry), trial {trial}");
            }
        }
    }
}
