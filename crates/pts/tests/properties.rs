//! Randomized property tests for `PtsSet` against a `BTreeSet` oracle.
//!
//! Driven by the in-tree SplitMix64 PRNG (`obs::rng`) so runs are
//! deterministic and reproducible from the printed seed. Each trial
//! mirrors a random operation sequence onto both a `PtsSet<u32>` and a
//! `BTreeSet<u32>` and asserts they agree on membership, cardinality,
//! iteration order, unions, differences, range-filtered
//! differences, fingerprints and intersection — deliberately crossing
//! both representation boundaries: inline→heap at 6 → 7 elements and
//! sorted→sparse at 16 → 17. The chunk-wise kernels must also leave
//! their outputs in the representation an element-by-element build
//! would have (`mem_words` feeds the `pts_peak_words` metric). The
//! sparse form's own edges get targeted cases: ids on chunk
//! boundaries, chunks interleaved with gaps, unions that add chunks
//! before, between and after a target's, range runs that split a
//! chunk, and ids near `u32::MAX`.

use obs::rng::SplitMix64;
use pts::{IdRanges, PtsSet, SMALL_MAX};
use std::collections::BTreeSet;

/// Universe large enough to exercise multi-chunk sets, small enough
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
        // Rebuild through a forced-sparse detour: over-fill, then compare
        // a straight FromIterator rebuild against the original.
        let rebuilt: PtsSet<u32> = oracle.iter().copied().collect();
        assert_eq!(set, rebuilt, "rebuild equality, trial {trial}");
        let mut detour: PtsSet<u32> = (0u32..(SMALL_MAX as u32 + 8)).collect();
        detour.clear();
        for &v in &oracle {
            detour.insert(v);
        }
        // `detour` went through a sparse promotion; contents decide.
        assert_eq!(detour.to_vec(), set.to_vec(), "sparse detour, trial {trial}");
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

/// Four representations of `oracle`'s contents: the canonical build
/// (inline up to six elements, a heap vec up to `SMALL_MAX`, sparse
/// past it), a heap twin of an inline set (grown past six elements,
/// then shrunk back with `remove`), a forced-sparse set of any size,
/// and a forced-sparse set that gained and lost a chunk of its own
/// (a high element inserted and removed again).
fn representations(oracle: &BTreeSet<u32>) -> [(&'static str, PtsSet<u32>); 4] {
    let canonical: PtsSet<u32> = oracle.iter().copied().collect();
    let mut heap = canonical.clone();
    let fillers: Vec<u32> = (UNIVERSE as u32..)
        .filter(|f| !oracle.contains(f))
        .take((INLINE + 1).saturating_sub(oracle.len()))
        .collect();
    heap.extend(fillers.iter().copied());
    for &f in &fillers {
        assert!(heap.remove(f), "filler {f}");
    }
    let mut sparse: PtsSet<u32> = (0u32..=SMALL_MAX as u32).collect();
    sparse.clear();
    sparse.extend(oracle.iter().copied());
    let mut removed = sparse.clone();
    // The first id of a word past the universe that `oracle` leaves empty.
    let high = (UNIVERSE as u32 / 64 + 10..)
        .map(|w| w * 64)
        .find(|&h| oracle.range(h..h + 64).next().is_none())
        .expect("an empty word");
    assert!(removed.insert(high));
    assert!(removed.remove(high));
    assert!(!removed.remove(high), "second remove of {high}");
    [
        ("canonical", canonical),
        ("heap-small", heap),
        ("sparse", sparse),
        ("sparse-removed", removed),
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
/// representations: small vs small compares slices, sparse vs sparse
/// compares chunks, mixed pairs walk.
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

/// Small sets and their sparse twins, whatever chunks those gained
/// and lost, all fingerprint alike; a one-element change moves the
/// fingerprint.
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
/// heap) and at 16 → 17 elements (sorted to sparse), including when the
/// boundary falls inside one word (one push, or two pushes of the same
/// word from two ranges) and when it falls on a later word.
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
/// representation of the source, matches the oracle. Unless the target
/// is a forced-sparse set (which stays sparse however few elements it
/// holds), the result keeps the representation of an element-by-element
/// build.
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
                if matches!(*kt, "canonical" | "heap-small") {
                    assert_built_like_elements(&got, &want, &ctx);
                } else {
                    assert_matches(&got, &want, &ctx);
                }
            }
        }
    }
}

/// `from_ascending` at every size around both boundaries builds like
/// elements and agrees with an element-by-element build on equality
/// and fingerprint.
#[test]
fn ascending_builds_at_the_boundaries() {
    for n in 0..=SMALL_MAX + 3 {
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 37).collect();
        let oracle: BTreeSet<u32> = ids.iter().copied().collect();
        let ctx = format!("n={n}");
        let built = PtsSet::<u32>::from_ascending(ids).expect("ascending");
        assert_built_like_elements(&built, &oracle, &ctx);
        let element = element_build(&oracle);
        assert_eq!(built, element, "{ctx}");
        assert_eq!(built.fingerprint(), element.fingerprint(), "{ctx}");
    }
}

/// `set` is sparse and holds exactly one chunk per distinct 64-id word
/// of `oracle`: two words each, nothing for the gaps.
fn assert_one_chunk_per_word(set: &PtsSet<u32>, oracle: &BTreeSet<u32>, ctx: &str) {
    let words: BTreeSet<u32> = oracle.iter().map(|&i| i / 64).collect();
    assert_eq!(set.mem_words(), 2 * words.len(), "chunk footprint: {ctx}");
}

/// Every operation against the oracle for one pair of contents: each
/// built in every representation, then compared, intersected, merged
/// and differenced both ways.
fn assert_pair_matches(a: &BTreeSet<u32>, b: &BTreeSet<u32>, ctx: &str) {
    let union: BTreeSet<u32> = a.union(b).copied().collect();
    let a_minus_b: BTreeSet<u32> = a.difference(b).copied().collect();
    for (ka, ra) in &representations(a) {
        assert_matches(ra, a, &format!("{ka} build, {ctx}"));
        for (kb, rb) in &representations(b) {
            let ctx = format!("{ka} vs {kb}, {ctx}");
            assert_eq!(ra == rb, a == b, "eq, {ctx}");
            assert_eq!(ra.intersects(rb), !a.is_disjoint(b), "intersects, {ctx}");
            assert_built_like_elements(&ra.difference(rb), &a_minus_b, &format!("diff, {ctx}"));
            let mut merged = ra.clone();
            merged.union_with(rb);
            assert_matches(&merged, &union, &format!("union, {ctx}"));
        }
    }
}

/// Ids on either side of a chunk boundary — 63/64/65, 127/128, 191/192
/// — land in the right chunk: membership, removal, unions and
/// differences that split or join them match the oracle.
#[test]
fn ids_on_chunk_boundaries_match_oracle() {
    let edges: [u32; 9] = [0, 63, 64, 65, 127, 128, 191, 192, 255];
    let mut rng = SplitMix64::new(0x6a09e667f3bcc908);
    for trial in 0..200 {
        // A random subset of the edge ids, padded past `SMALL_MAX` half
        // the time with ids of one more word.
        let mut a: BTreeSet<u32> = edges.iter().copied().filter(|_| rng.below(2) == 0).collect();
        if rng.below(2) == 0 {
            a.extend(320..320 + SMALL_MAX as u32);
        }
        let b: BTreeSet<u32> = edges.iter().copied().filter(|_| rng.below(2) == 0).collect();
        let ctx = format!("trial {trial}");
        assert_pair_matches(&a, &b, &ctx);
        let mut set: PtsSet<u32> = a.iter().copied().collect();
        for v in 0..400 {
            assert_eq!(set.contains(v), a.contains(&v), "contains({v}), {ctx}");
        }
        let mut oracle = a.clone();
        for &e in &edges {
            assert_eq!(set.remove(e), oracle.remove(&e), "remove({e}), {ctx}");
            assert_matches(&set, &oracle, &format!("after remove({e}), {ctx}"));
            if oracle.len() > SMALL_MAX {
                assert_one_chunk_per_word(&set, &oracle, &format!("remove({e}), {ctx}"));
            }
        }
    }
}

/// Up to `chunks` chunks at random words below `span`, each with a
/// random nonzero handful of bits: a sparse set with gaps between its
/// clusters.
fn clustered(rng: &mut SplitMix64, chunks: u64, span: u64) -> BTreeSet<u32> {
    let mut ids = BTreeSet::new();
    for _ in 0..1 + rng.below(chunks) {
        let word = rng.below(span) as u32;
        for _ in 0..1 + rng.below(8) {
            ids.insert(word * 64 + rng.below(64) as u32);
        }
    }
    ids
}

/// Sets whose chunks interleave with gaps — every other word, or
/// random clusters over a wide span — merge, difference, intersect and
/// compare like the oracle, and a sparse build stores only its nonzero
/// words.
#[test]
fn interleaved_chunks_with_gaps_match_oracle() {
    let mut rng = SplitMix64::new(0xbb67ae8584caa73c);
    for trial in 0..150 {
        let (a, b) = if trial % 3 == 0 {
            // Even words against odd ones, with a shared word now and then.
            let a: BTreeSet<u32> = (0..24u32).map(|k| 128 * k + k % 64).collect();
            let mut b: BTreeSet<u32> = (0..24u32).map(|k| 128 * k + 64 + k).collect();
            b.insert(128 * rng.below(24) as u32 + rng.below(64) as u32);
            (a, b)
        } else {
            (clustered(&mut rng, 12, 1 << 12), clustered(&mut rng, 12, 1 << 12))
        };
        let ctx = format!("trial {trial}");
        assert_pair_matches(&a, &b, &ctx);
        for oracle in [&a, &b] {
            if oracle.len() > SMALL_MAX {
                let set: PtsSet<u32> = oracle.iter().copied().collect();
                assert_one_chunk_per_word(&set, oracle, &ctx);
            }
        }
    }
}

/// `union_with` into a sparse target adds chunks before, between and
/// after the target's, and ORs into the ones they share, in one merge:
/// the result matches the oracle with one chunk per word.
#[test]
fn union_with_adds_chunks_before_between_and_after() {
    // The target: a full word at each of 10, 20 and 30.
    let target_o: BTreeSet<u32> = [10u32, 20, 30].iter().flat_map(|w| w * 64..w * 64 + 64).collect();
    let words_cases: [&[u32]; 8] = [
        &[5],
        &[15, 25],
        &[40],
        &[20],
        &[5, 15, 25, 40],
        &[0, 10, 11, 19, 21, 29, 31, 1000],
        &[9, 10, 30, 31],
        &[1 << 20],
    ];
    for words in words_cases {
        for per_word in [1u32, 3, 17] {
            let src_o: BTreeSet<u32> = words
                .iter()
                .flat_map(|w| (0..per_word).map(move |b| w * 64 + (b * 5) % 64))
                .collect();
            let want: BTreeSet<u32> = target_o.union(&src_o).copied().collect();
            for (ks, src) in &representations(&src_o) {
                let mut got: PtsSet<u32> = target_o.iter().copied().collect();
                got.union_with(src);
                let ctx = format!("words {words:?}, {per_word} per word, {ks} source");
                assert_built_like_elements(&got, &want, &ctx);
                assert_one_chunk_per_word(&got, &want, &ctx);
            }
        }
    }
}

/// `difference_in_ranges` with runs that start, end or lie wholly
/// inside a chunk, or share one chunk between two runs, keeps exactly
/// the masked ids.
#[test]
fn difference_in_ranges_splits_chunks() {
    let src_o: BTreeSet<u32> = (0..320u32).filter(|i| i % 3 != 1).collect();
    let run_cases: [&[(u32, u32)]; 6] = [
        &[(3, 70)],
        &[(100, 101)],
        &[(127, 129)],
        &[(10, 20), (30, 40), (50, 60)],
        &[(60, 68), (120, 136), (200, 320)],
        &[(1, 63), (65, 127), (129, 191), (193, 255)],
    ];
    let mut rng = SplitMix64::new(0x3c6ef372fe94f82c);
    for runs in run_cases {
        let mask_o: BTreeSet<u32> = runs.iter().flat_map(|&(lo, hi)| lo..hi).collect();
        let ranges = IdRanges::from_sorted_ids(mask_o.iter().copied());
        for trial in 0..20 {
            let other_o: BTreeSet<u32> = (0..rng.below(40)).map(|_| rng.below(320) as u32).collect();
            let want: BTreeSet<u32> = src_o
                .iter()
                .filter(|e| mask_o.contains(e) && !other_o.contains(e))
                .copied()
                .collect();
            for (ko, other) in &representations(&other_o) {
                let src: PtsSet<u32> = src_o.iter().copied().collect();
                let got = src.difference_in_ranges(&ranges, other);
                let ctx = format!("runs {runs:?}, {ko} other, trial {trial}");
                assert_built_like_elements(&got, &want, &ctx);
            }
        }
    }
}

/// Inline, heap-sorted and sparse twins of the same small contents
/// agree on `intersects`, `eq` and `fingerprint` across every pair.
#[test]
fn inline_heap_and_sparse_twins_agree() {
    let mut rng = SplitMix64::new(0xa54ff53a5f1d36f1);
    for trial in 0..200 {
        let draw = |rng: &mut SplitMix64| -> BTreeSet<u32> {
            (0..rng.below(INLINE as u64 + 1)).map(|_| rng.below(200) as u32).collect()
        };
        let (a, b) = (draw(&mut rng), draw(&mut rng));
        let twins = |o: &BTreeSet<u32>| {
            let [(_, inline), (_, heap), (_, sparse), _] = representations(o);
            [("inline", inline), ("heap-sorted", heap), ("sparse", sparse)]
        };
        for (ka, ra) in &twins(&a) {
            for (kb, rb) in &twins(&b) {
                let ctx = format!("{ka} vs {kb}, trial {trial}");
                assert_eq!(ra == rb, a == b, "eq, {ctx}");
                assert_eq!(ra.fingerprint() == rb.fingerprint(), a == b, "fingerprint, {ctx}");
                assert_eq!(ra.intersects(rb), !a.is_disjoint(&b), "intersects, {ctx}");
            }
        }
    }
}

/// A set of ids near `u32::MAX` costs its nonzero words, not its
/// largest id: at most two words per element, whether built by
/// insertion or `from_ascending`, and every read and kernel still
/// answers like the oracle.
#[test]
fn ids_near_u32_max_cost_their_words_not_their_value() {
    for n in [SMALL_MAX + 1, SMALL_MAX + 2, 70, 200] {
        let high: BTreeSet<u32> = (0..n as u32).map(|k| u32::MAX - 3 * k).collect();
        let ctx = format!("n={n}");
        let built = PtsSet::<u32>::from_ascending(high.iter().copied().collect()).expect("ascending");
        let inserted: PtsSet<u32> = high.iter().copied().collect();
        for set in [&built, &inserted] {
            assert_built_like_elements(set, &high, &ctx);
            assert!(set.mem_words() <= 2 * set.len(), "{} words for {} ids, {ctx}", set.mem_words(), set.len());
            assert_one_chunk_per_word(set, &high, &ctx);
            assert!(set.contains(u32::MAX) && !set.contains(0) && !set.contains(u32::MAX - 1), "{ctx}");
        }
        assert_eq!(built, inserted, "{ctx}");
        assert_eq!(built.fingerprint(), inserted.fingerprint(), "{ctx}");
        // Mixed with low ids: a union and a difference span the whole range.
        let low: BTreeSet<u32> = (0..40).collect();
        assert_pair_matches(&high, &low, &ctx);
        let ranges = IdRanges::from_sorted_ids((0..1).chain(u32::MAX - 100..u32::MAX - 1));
        let want: BTreeSet<u32> = high.iter().copied().filter(|&i| ranges.contains(i)).collect();
        let got = built.difference_in_ranges(&ranges, &PtsSet::new());
        assert_matches(&got, &want, &format!("ranges, {ctx}"));
    }
    assert!(PtsSet::<u32>::from_ascending(vec![3, 3]).is_none());
    assert!(PtsSet::<u32>::from_ascending(vec![4, 3]).is_none());
}

/// Folding any mix of sorted and sparse sets — none, one, or many,
/// overlapping or not — into one accumulator with `union_with` (how a
/// variable's rows collapse into one set) equals the oracle union and
/// builds like elements.
#[test]
fn union_with_folds_many_sets_like_the_oracle() {
    let mut rng = SplitMix64::new(0xbe5466cf34e90c6c);
    for trial in 0..300 {
        let mut union_o = BTreeSet::new();
        let mut union = PtsSet::new();
        for _ in 0..rng.below(6) {
            let (set, oracle) = if rng.below(3) == 0 {
                let o = clustered(&mut rng, 6, 1 << 10);
                (o.iter().copied().collect(), o)
            } else {
                random_set(&mut rng, 3 * SMALL_MAX as u64)
            };
            union.union_with(&set);
            union_o.extend(oracle);
        }
        assert_built_like_elements(&union, &union_o, &format!("fold, trial {trial}"));
    }
}
