//! Randomized property tests for `PtsSet` against a `BTreeSet` oracle.
//!
//! Driven by the in-tree SplitMix64 PRNG (`obs::rng`) so runs are
//! deterministic and reproducible from the printed seed. Each trial
//! mirrors a random operation sequence onto both a `PtsSet<u32>` and a
//! `BTreeSet<u32>` and asserts they agree on membership, cardinality,
//! iteration order, unions, differences, range-filtered
//! differences, fingerprints and intersection — deliberately crossing
//! both representation boundaries: inline→heap at 6 → 7 elements and
//! sorted→dense at 16 → 17. The word-wise kernels must also leave their
//! outputs in the representation an element-by-element build would
//! have (`mem_words` feeds the `pts_peak_words` metric).

use obs::rng::SplitMix64;
use pts::{IdRanges, PtsSet, UnionScratch, SMALL_MAX};
use std::collections::BTreeSet;

/// Universe large enough to exercise multi-word bitmaps, small enough
/// for collisions (re-inserts, overlapping unions) to be common.
const UNIVERSE: u64 = 700;

/// The most elements a set stores inline (the unit tests pin the
/// 32-byte layout this capacity comes from).
const INLINE: usize = 6;

/// Set sizes on either side of the two representation boundaries.
const BOUNDARY_SIZES: [usize; 8] = [
    INLINE - 1,
    INLINE,
    INLINE + 1,
    INLINE + 2,
    SMALL_MAX - 1,
    SMALL_MAX,
    SMALL_MAX + 1,
    SMALL_MAX + 2,
];

fn assert_matches(set: &PtsSet<u32>, oracle: &BTreeSet<u32>, ctx: &str) {
    assert_eq!(set.len(), oracle.len(), "len mismatch: {ctx}");
    assert_eq!(set.is_empty(), oracle.is_empty(), "is_empty mismatch: {ctx}");
    // Iteration must be ascending and exactly the oracle's contents.
    let got: Vec<u32> = set.iter().collect();
    let want: Vec<u32> = oracle.iter().copied().collect();
    assert_eq!(got, want, "iter/order mismatch: {ctx}");
    assert_eq!(set.to_vec(), want, "to_vec mismatch: {ctx}");
}

/// A random set built by insertion, next to its oracle. Half the
/// time its size sits right at a representation boundary (when
/// `max_len` allows it); otherwise it takes up to `max_len - 1`
/// insertions.
fn random_set(rng: &mut SplitMix64, max_len: u64) -> (PtsSet<u32>, BTreeSet<u32>) {
    let mut set = PtsSet::new();
    let mut oracle = BTreeSet::new();
    let near: Vec<usize> = BOUNDARY_SIZES
        .into_iter()
        .filter(|&n| (n as u64) < max_len)
        .collect();
    if !near.is_empty() && rng.below(2) == 0 {
        let n = near[rng.below(near.len() as u64) as usize];
        while oracle.len() < n {
            let v = rng.below(UNIVERSE) as u32;
            assert_eq!(set.insert(v), oracle.insert(v), "insert return value");
        }
    } else {
        for _ in 0..rng.below(max_len) {
            let v = rng.below(UNIVERSE) as u32;
            assert_eq!(set.insert(v), oracle.insert(v), "insert return value");
        }
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

/// A random coalesced run list plus the oracle set of ids it covers.
fn random_ranges(rng: &mut SplitMix64) -> (IdRanges, BTreeSet<u32>) {
    let mut ids: BTreeSet<u32> = BTreeSet::new();
    for _ in 0..rng.below(6) {
        let lo = rng.below(UNIVERSE) as u32;
        let len = 1 + rng.below(96) as u32;
        ids.extend(lo..(lo + len).min(UNIVERSE as u32));
    }
    let ranges = IdRanges::from_sorted_ids(ids.iter().copied());
    (ranges, ids)
}

#[test]
fn id_ranges_coalesce_and_answer_membership() {
    let mut rng = SplitMix64::new(0x5eed5eed5eed5eed);
    for trial in 0..200 {
        let (ranges, ids) = random_ranges(&mut rng);
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

/// `difference_in_ranges` returns the oracle's elements in an
/// element-by-element representation, whatever the representations of
/// its operands.
#[test]
fn difference_in_ranges_matches_masked_set_oracle() {
    let mut rng = SplitMix64::new(0xc0ffee00c0ffee00);
    for trial in 0..300 {
        let (_, src_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (ranges, mask_o) = random_ranges(&mut rng);
        let (_, other_o) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        let want_o: BTreeSet<u32> = src_o
            .iter()
            .filter(|e| mask_o.contains(e) && !other_o.contains(e))
            .copied()
            .collect();
        for (ks, src) in &representations(&src_o) {
            for (ko, other) in &representations(&other_o) {
                let got = src.difference_in_ranges(&ranges, other);
                let ctx = format!("range difference {ks} \\ {ko}, trial {trial}");
                assert_built_like_elements(&got, &want_o, &ctx);
            }
        }
    }
}

#[test]
fn iter_in_ranges_matches_filtered_iteration() {
    let mut rng = SplitMix64::new(0x1ce1ce1ce1ce1ce1);
    for trial in 0..200 {
        let (set, set_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (ranges, mask_o) = random_ranges(&mut rng);
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
        assert_built_like_elements(&b, &union_o, &format!("union_with, trial {trial}"));
    }
}

/// Five representations of `oracle`'s contents: the canonical build
/// (inline up to six elements, a heap vec up to `SMALL_MAX`, dense past
/// it), a heap twin of an inline set (grown past six elements, then
/// shrunk back with `remove`), a forced-dense bitmap, a dense bitmap
/// that keeps trailing zero words after a high element is inserted and
/// removed again, and a sorted set of any length.
fn representations(oracle: &BTreeSet<u32>) -> [(&'static str, PtsSet<u32>); 5] {
    let canonical: PtsSet<u32> = oracle.iter().copied().collect();
    let mut heap = canonical.clone();
    let fillers: Vec<u32> = (UNIVERSE as u32..)
        .take((INLINE + 1).saturating_sub(oracle.len()))
        .collect();
    heap.extend(fillers.iter().copied());
    for &f in &fillers {
        assert!(heap.remove(f), "filler {f}");
    }
    let mut dense: PtsSet<u32> = (0u32..=SMALL_MAX as u32).collect();
    dense.clear();
    dense.extend(oracle.iter().copied());
    let mut trailing = dense.clone();
    let high = UNIVERSE as u32 + 640;
    assert!(trailing.insert(high));
    assert!(trailing.remove(high));
    assert!(!trailing.remove(high), "second remove of {high}");
    let sorted =
        PtsSet::sorted_from_ascending(oracle.iter().copied().collect()).expect("ascending");
    [
        ("canonical", canonical),
        ("heap-small", heap),
        ("dense", dense),
        ("trailing-zero", trailing),
        ("sorted", sorted),
    ]
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

/// An element-by-element build of `oracle`: the representation every
/// kernel output must match.
fn element_build(oracle: &BTreeSet<u32>) -> PtsSet<u32> {
    let mut set = PtsSet::new();
    for &v in oracle {
        set.insert(v);
    }
    set
}

/// `set` holds exactly `oracle` and has the footprint of an
/// element-by-element build.
fn assert_built_like_elements(set: &PtsSet<u32>, oracle: &BTreeSet<u32>, ctx: &str) {
    assert_matches(set, oracle, ctx);
    assert_eq!(
        set.mem_words(),
        element_build(oracle).mem_words(),
        "mem_words differs from an element-by-element build: {ctx}"
    );
}

/// Small sets, their promoted dense twins, and dense twins with
/// trailing zero words all fingerprint alike; a one-element change
/// moves the fingerprint.
#[test]
fn fingerprint_is_representation_independent() {
    let mut rng = SplitMix64::new(0xa0761d6478bd642f);
    for trial in 0..300 {
        let (_, oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        let reps = representations(&oracle);
        let fp = reps[0].1.fingerprint();
        for (kind, set) in &reps[1..] {
            assert_eq!(set.fingerprint(), fp, "{kind} twin, trial {trial}");
        }
        let mut other = oracle.clone();
        let v = rng.below(UNIVERSE) as u32;
        if !other.remove(&v) {
            other.insert(v);
        }
        for (kind, set) in &representations(&other) {
            assert_ne!(set.fingerprint(), fp, "{kind} one-element change, trial {trial}");
        }
    }
}

/// `difference` returns the oracle's elements in an element-by-element
/// representation, whatever the representations of its operands.
#[test]
fn difference_matches_oracle_and_element_build() {
    let mut rng = SplitMix64::new(0xe7037ed1a0b428db);
    for trial in 0..200 {
        let (_, src_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (_, other_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let want_o: BTreeSet<u32> = src_o.difference(&other_o).copied().collect();
        for (ks, src) in &representations(&src_o) {
            for (ko, other) in &representations(&other_o) {
                let ctx = format!("{ks} \\ {ko}, trial {trial}");
                assert_built_like_elements(&src.difference(other), &want_o, &ctx);
            }
        }
    }
}

/// A kernel output's change of representation at 6 → 7 (inline to
/// heap) and at 16 → 17 elements (sorted to dense), including when the
/// boundary falls inside one bitmap word (one push, or two pushes of
/// the same word from two ranges) and when it falls on a later word.
#[test]
fn kernel_outputs_promote_at_the_element_boundary() {
    for n in BOUNDARY_SIZES.map(|n| n as u32) {
        // All `n` survivors in word 0, in one push.
        let src: PtsSet<u32> = (0u32..64).collect();
        let other: PtsSet<u32> = (n..64).collect();
        let want: BTreeSet<u32> = (0..n).collect();
        assert_built_like_elements(&src.difference(&other), &want, &format!("one word, n={n}"));

        // Two ranges in word 0: the same word pushed twice.
        let ranges = IdRanges::from_sorted_ids((0..n / 2).chain(n / 2 + 1..n + 1));
        let want: BTreeSet<u32> = (0..n / 2).chain(n / 2 + 1..n + 1).collect();
        let empty = PtsSet::new();
        assert_built_like_elements(
            &src.difference_in_ranges(&ranges, &empty),
            &want,
            &format!("two ranges, one word, n={n}"),
        );

        // Half the survivors in word 0, the rest in word 1.
        let src: PtsSet<u32> = (0u32..n / 2).chain(64..64 + n - n / 2).collect();
        let want: BTreeSet<u32> = src.iter().collect();
        assert_built_like_elements(&src.difference(&empty), &want, &format!("two words, n={n}"));
        let mut target = PtsSet::new();
        target.union_with(&src);
        assert_built_like_elements(&target, &want, &format!("union_with, n={n}"));
    }
}

/// `from_ascending` rebuilds any set from its sorted ids with the
/// representation of an element-by-element build, and rejects ids that
/// are not strictly ascending.
#[test]
fn from_ascending_matches_element_build() {
    let mut rng = SplitMix64::new(0x452821e638d01377);
    for trial in 0..300 {
        let (_, oracle) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let ids: Vec<u32> = oracle.iter().copied().collect();
        let set = PtsSet::<u32>::from_ascending(ids.clone()).expect("ascending");
        assert_built_like_elements(&set, &oracle, &format!("from_ascending, trial {trial}"));
        if ids.len() >= 2 {
            let mut swapped = ids.clone();
            swapped.swap(0, 1);
            assert!(PtsSet::<u32>::from_ascending(swapped).is_none(), "trial {trial}");
            let mut repeated = ids;
            repeated[1] = repeated[0];
            assert!(PtsSet::<u32>::from_ascending(repeated).is_none(), "trial {trial}");
        }
    }
}

/// A sorted-vec set of any length answers every read like the oracle,
/// sizes nothing by its largest id, and promotes on insertion.
#[test]
fn sorted_sets_read_like_the_oracle_and_size_nothing_by_an_id() {
    let mut rng = SplitMix64::new(0x082efa98ec4e6c89);
    for trial in 0..200 {
        let (_, a) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let (b, b_oracle) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let sorted = PtsSet::<u32>::sorted_from_ascending(a.iter().copied().collect())
            .expect("ascending");
        let ctx = format!("trial {trial}");
        assert_matches(&sorted, &a, &ctx);
        assert_eq!(sorted.mem_words(), a.len().div_ceil(2), "{ctx}");
        for v in 0..UNIVERSE as u32 {
            assert_eq!(sorted.contains(v), a.contains(&v), "contains({v}), {ctx}");
        }
        assert_eq!(sorted.intersects(&b), !a.is_disjoint(&b_oracle), "intersects, {ctx}");
        assert_eq!(b.intersects(&sorted), !a.is_disjoint(&b_oracle), "intersects, {ctx}");
        let mut grown = sorted.clone();
        let mut want = a.clone();
        grown.union_with(&b);
        want.extend(&b_oracle);
        assert_matches(&grown, &want, &format!("union_with, {ctx}"));
    }
    let high: Vec<u32> = (u32::MAX - SMALL_MAX as u32..=u32::MAX).collect();
    let top = PtsSet::<u32>::sorted_from_ascending(high).expect("ascending");
    assert_eq!(top.mem_words(), (SMALL_MAX + 1).div_ceil(2), "ids near u32::MAX stay a vec");
    assert!(top.contains(u32::MAX) && !top.contains(0));
    assert!(PtsSet::<u32>::sorted_from_ascending(vec![3, 3]).is_none());
    assert!(PtsSet::<u32>::sorted_from_ascending(vec![4, 3]).is_none());
}

/// One scratch reused across many unions yields each union with the
/// representation of an element-by-element build, whatever mix of small
/// and dense sets went in.
#[test]
fn union_scratch_matches_oracle_across_reuse() {
    let mut rng = SplitMix64::new(0xbe5466cf34e90c6c);
    let mut scratch = UnionScratch::new();
    for trial in 0..300 {
        let mut union_o = BTreeSet::new();
        for _ in 0..rng.below(5) {
            let (set, oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
            scratch.add(&set);
            union_o.extend(oracle);
        }
        let got: PtsSet<u32> = scratch.take();
        assert_built_like_elements(&got, &union_o, &format!("union scratch, trial {trial}"));
    }
    assert!(
        scratch.take::<u32>().is_empty(),
        "take leaves the scratch empty"
    );
}

/// Random insert/remove/clear walks that hover around both
/// representation boundaries track the oracle after every step. While
/// a set has never outgrown `SMALL_MAX` it is sorted (inline or on the
/// heap), and its footprint is that of an element-by-element build.
#[test]
fn insert_remove_clear_track_the_oracle_across_boundaries() {
    let mut rng = SplitMix64::new(0x3c6ef372fe94f82b);
    for trial in 0..200 {
        // A small universe keeps the walk near its target size.
        let target = BOUNDARY_SIZES[trial % BOUNDARY_SIZES.len()];
        let span = 2 * target as u64 + 2;
        let (mut set, mut oracle) = (PtsSet::<u32>::new(), BTreeSet::new());
        let mut peak = 0;
        for step in 0..64 {
            let v = rng.below(span) as u32 * 37;
            let ctx = format!("trial {trial} step {step} (target {target})");
            match rng.below(16) {
                0 => {
                    set.clear();
                    oracle.clear();
                }
                1..=8 => assert_eq!(set.insert(v), oracle.insert(v), "insert({v}), {ctx}"),
                _ => assert_eq!(set.remove(v), oracle.remove(&v), "remove({v}), {ctx}"),
            }
            peak = peak.max(oracle.len());
            if peak <= SMALL_MAX {
                assert_built_like_elements(&set, &oracle, &ctx);
            } else {
                assert_matches(&set, &oracle, &ctx);
            }
        }
    }
}

/// `union_with` into every representation of the target, from every
/// representation of the source, matches the oracle. When neither side
/// is a bitmap built some other way (a forced-dense source ORs in its
/// whole bitmap), the result keeps the representation of an
/// element-by-element build.
#[test]
fn union_with_matches_oracle_across_representations() {
    let mut rng = SplitMix64::new(0xbb67ae8584caa73b);
    for trial in 0..150 {
        let (_, a) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        let (_, b) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        let want: BTreeSet<u32> = a.union(&b).copied().collect();
        for (ks, src) in &representations(&a) {
            for (kt, target) in &representations(&b) {
                let mut got = target.clone();
                got.union_with(src);
                let ctx = format!("{kt} ∪= {ks}, trial {trial}");
                let built = matches!(*kt, "canonical" | "heap-small")
                    && matches!(*ks, "canonical" | "heap-small" | "sorted");
                if built {
                    assert_built_like_elements(&got, &want, &ctx);
                } else {
                    assert_matches(&got, &want, &ctx);
                }
            }
        }
    }
}

/// `from_ascending` and `sorted_from_ascending` at every size around
/// both boundaries: the former builds like elements, the latter stays
/// sorted (two ids per word) at any size.
#[test]
fn ascending_builds_at_the_boundaries() {
    for n in 0..=SMALL_MAX + 3 {
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 37).collect();
        let oracle: BTreeSet<u32> = ids.iter().copied().collect();
        let ctx = format!("n={n}");
        let built = PtsSet::<u32>::from_ascending(ids.clone()).expect("ascending");
        assert_built_like_elements(&built, &oracle, &ctx);
        let sorted = PtsSet::<u32>::sorted_from_ascending(ids).expect("ascending");
        assert_matches(&sorted, &oracle, &ctx);
        assert_eq!(sorted.mem_words(), n.div_ceil(2), "{ctx}");
        assert_eq!(sorted, built, "{ctx}");
        assert_eq!(sorted.fingerprint(), built.fingerprint(), "{ctx}");
    }
}
