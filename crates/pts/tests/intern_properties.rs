//! Randomized property tests for [`SetInterner`] against a map from
//! `BTreeSet` contents to the id each content was first given.
//!
//! Driven by the in-tree SplitMix64 PRNG (`obs::rng`) so runs are
//! deterministic and reproducible. Each trial interns owned sets drawn
//! from a small pool of contents, each built in a random
//! representation — small, forced sparse, forced sparse after gaining
//! and losing a chunk, or `from_ascending` — and asserts that ids are equal
//! exactly when contents are, that ids follow first occurrence after
//! the empty set's id 0, that `get` returns the content interned, and
//! that every call is either one new content or one dedup hit.

use obs::rng::SplitMix64;
use pts::{PtsSet, SetInterner, SMALL_MAX};
use std::collections::{BTreeMap, BTreeSet};

const UNIVERSE: u64 = 700;

fn random_content(rng: &mut SplitMix64) -> BTreeSet<u32> {
    let n = rng.below(4 * SMALL_MAX as u64);
    (0..n).map(|_| rng.below(UNIVERSE) as u32).collect()
}

/// `content` built in representation `kind` (0..4): element by
/// element, a cleared sparse set refilled, the same after a high
/// element's chunk came and went, or in one go by `from_ascending`.
fn build(content: &BTreeSet<u32>, kind: u64) -> PtsSet<u32> {
    let ids = content.iter().copied();
    match kind {
        0 => ids.collect(),
        1 | 2 => {
            let mut sparse: PtsSet<u32> = (0u32..=SMALL_MAX as u32).collect();
            sparse.clear();
            sparse.extend(ids);
            if kind == 2 {
                let high = UNIVERSE as u32 + 640;
                sparse.insert(high);
                sparse.remove(high);
            }
            sparse
        }
        _ => PtsSet::from_ascending(ids.collect()).expect("ascending"),
    }
}

#[test]
fn interner_dedups_representation_twins() {
    let mut rng = SplitMix64::new(0x517cc1b727220a95);
    for trial in 0..100 {
        let mut interner = SetInterner::new();
        let pool: Vec<BTreeSet<u32>> = (0..12)
            .map(|i| if i == 0 { BTreeSet::new() } else { random_content(&mut rng) })
            .collect();
        // Content → the id it must get: the empty set's is 0, every
        // other content's the next id at its first occurrence.
        let mut want: BTreeMap<&BTreeSet<u32>, u32> = BTreeMap::new();
        want.insert(&pool[0], SetInterner::<u32>::EMPTY);
        let mut seen: Vec<(&BTreeSet<u32>, u32)> = Vec::new();
        let calls = 40 + rng.below(40);
        for call in 0..calls {
            let content = &pool[rng.below(pool.len() as u64) as usize];
            let kind = rng.below(4);
            let ctx = format!("trial {trial}, call {call}, representation {kind}");
            let next = want.len() as u32;
            let first = !want.contains_key(content);
            let expected = *want.entry(content).or_insert(next);
            let (id, fresh) = interner.intern(build(content, kind));
            assert_eq!(id, expected, "id, {ctx}");
            assert_eq!(fresh, first, "fresh, {ctx}");
            let got: BTreeSet<u32> = interner.get(id).iter().collect();
            assert_eq!(&got, content, "get, {ctx}");
            seen.push((content, id));
        }
        for &(a, id_a) in &seen {
            for &(b, id_b) in &seen {
                assert_eq!(id_a == id_b, a == b, "ids equal iff contents equal, trial {trial}");
            }
        }
        assert_eq!(interner.interned(), want.len() as u64, "trial {trial}");
        assert_eq!(
            interner.interned() - 1 + interner.dedup_hits(),
            calls,
            "every call is one miss or one hit, trial {trial}"
        );
        let mut by_id: Vec<(u32, &BTreeSet<u32>)> = want.iter().map(|(c, &id)| (id, *c)).collect();
        by_id.sort();
        let sets = interner.into_sets();
        assert_eq!(sets.len(), by_id.len(), "trial {trial}");
        for (set, (id, content)) in sets.iter().zip(by_id) {
            let got: BTreeSet<u32> = set.iter().collect();
            assert_eq!(&got, content, "set {id} of into_sets, trial {trial}");
        }
    }
}
