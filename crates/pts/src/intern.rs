//! One table of unique points-to sets.
//!
//! Context-sensitive analysis produces massively repetitive sets: the
//! same receiver objects flow to the same variable under dozens of
//! calling contexts, so a finished analysis holds many bit-identical
//! rows. [`SetInterner`] stores each distinct content once and names it
//! by a dense `u32` set id; a row then is just its set id.
//!
//! A set is looked up by its 128-bit content fingerprint
//! ([`PtsSet::fingerprint`]), computed over the ascending `(word index,
//! nonzero bits)` pairs of its elements plus its length — never over
//! the in-memory representation — so a small-vec set and its sparse
//! twin get the same id, as `PtsSet`'s representation-independent
//! `PartialEq` says they should.
//! A fingerprint hit counts only after an exact content comparison
//! (`PtsSet::eq`); sets whose fingerprints collide are chained. Ids are
//! therefore equal exactly when contents are, and interning never
//! changes what a row holds.

use std::collections::hash_map::Entry;

use fxhash::FxHashMap;

use crate::{Elem, PtsSet};

/// End of a fingerprint chain.
const NO_NEXT: u32 = u32::MAX;

/// A content-addressed table of unique points-to sets, indexed by set
/// id.
///
/// The empty set is pre-interned as [`SetInterner::EMPTY`]; every other
/// content takes the next id the first time it is interned, so ids
/// follow first occurrence.
#[derive(Debug)]
pub struct SetInterner<T: Elem> {
    /// Fingerprint → the first set id with that fingerprint.
    by_fp: FxHashMap<u128, u32>,
    /// The unique sets, indexed by id.
    sets: Vec<PtsSet<T>>,
    /// `next[id]`: the next id whose set shares `id`'s fingerprint, or
    /// [`NO_NEXT`]. Only a genuine 128-bit collision makes a chain.
    next: Vec<u32>,
    dedup_hits: u64,
}

impl<T: Elem> Default for SetInterner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Elem> SetInterner<T> {
    /// Id of the pre-interned empty set.
    pub const EMPTY: u32 = 0;

    /// Creates a table holding only the empty set, as id
    /// [`Self::EMPTY`].
    pub fn new() -> Self {
        let empty = PtsSet::new();
        let mut by_fp = FxHashMap::default();
        by_fp.insert(empty.fingerprint(), Self::EMPTY);
        SetInterner { by_fp, sets: vec![empty], next: vec![NO_NEXT], dedup_hits: 0 }
    }

    /// Interns `set`: returns its id and whether the content was new to
    /// the table. A content already present is dropped (one dedup hit);
    /// only a miss keeps the set, under the next id, with its heap
    /// buffer shrunk to its length (a kept set never grows again).
    pub fn intern(&mut self, mut set: PtsSet<T>) -> (u32, bool) {
        let id = u32::try_from(self.sets.len())
            .ok()
            .filter(|&id| id != NO_NEXT)
            .expect("set id space exhausted");
        match self.by_fp.entry(set.fingerprint()) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(first) => {
                let mut at = *first.get();
                loop {
                    if self.sets[at as usize] == set {
                        self.dedup_hits += 1;
                        return (at, false);
                    }
                    match self.next[at as usize] {
                        NO_NEXT => break,
                        next => at = next,
                    }
                }
                self.next[at as usize] = id;
            }
        }
        set.shrink_to_fit();
        self.sets.push(set);
        self.next.push(NO_NEXT);
        (id, true)
    }

    /// The set interned under `id`.
    ///
    /// # Panics
    ///
    /// If `id` was not returned by this table.
    pub fn get(&self, id: u32) -> &PtsSet<T> {
        &self.sets[id as usize]
    }

    /// Distinct contents in the table, the pre-interned empty set
    /// included.
    pub fn interned(&self) -> u64 {
        self.sets.len() as u64
    }

    /// Calls to [`Self::intern`] that found their content already in
    /// the table — each one a duplicate set not kept.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// The unique sets, indexed by id.
    pub fn into_sets(self) -> Vec<PtsSet<T>> {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(elems: &[u32]) -> PtsSet<u32> {
        elems.iter().copied().collect()
    }

    #[test]
    fn seal_dedups_identical_content() {
        let mut interner = SetInterner::<u32>::new();
        let (a, _) = interner.intern(set(&[1, 2, 3]));
        let (b, _) = interner.intern(set(&[1, 2, 3]));
        assert_eq!(a, b);
        assert_eq!(interner.dedup_hits(), 1);
        assert_eq!(interner.interned(), 2, "empty plus one content");
    }

    #[test]
    fn representation_does_not_affect_identity() {
        // A small set and a sparse twin intern to the same id.
        let mut interner = SetInterner::<u32>::new();
        // Forced-sparse detour: over-fill to turn sparse, clear (keeps
        // the sparse representation), then insert the twin's content.
        let mut sparse = set(&(0..=crate::SMALL_MAX as u32).collect::<Vec<_>>());
        sparse.clear();
        sparse.insert(4);
        sparse.insert(9);
        assert!(matches!(sparse.repr, crate::Repr::Sparse { .. }), "precondition: a sparse twin");
        let (small, _) = interner.intern(set(&[4, 9]));
        assert_eq!(interner.intern(sparse), (small, false));
    }

    #[test]
    fn intern_keeps_a_set_only_on_a_miss() {
        let mut interner = SetInterner::<u32>::new();
        assert_eq!(interner.intern(set(&[1, 2, 3])), (1, true));
        assert_eq!(interner.intern(set(&[4])), (2, true));
        assert_eq!(interner.intern(set(&[3, 2, 1])), (1, false));
        assert_eq!(interner.intern(set(&[])), (SetInterner::<u32>::EMPTY, false));
        assert_eq!(interner.interned(), 3, "empty, {{1, 2, 3}} and {{4}}");
        assert_eq!(interner.dedup_hits(), 2);
        assert_eq!(interner.get(1).to_vec(), vec![1, 2, 3]);
        assert!(interner.get(SetInterner::<u32>::EMPTY).is_empty());
        let sets = interner.into_sets();
        assert_eq!(sets, vec![set(&[]), set(&[1, 2, 3]), set(&[4])]);
    }

    /// A kept set holds no room to grow: neither the slots a spilled
    /// sorted set reserves nor chunks past its length.
    #[test]
    fn a_kept_set_holds_no_spare_capacity() {
        let mut interner = SetInterner::<u32>::new();
        let mut small = PtsSet::new();
        for i in 0..7 {
            small.insert(i);
        }
        assert!(
            matches!(&small.repr, crate::Repr::Small(v) if v.capacity() > 7),
            "precondition: a spilled set with room to grow"
        );
        let mut sparse: PtsSet<u32> = (0..=crate::SMALL_MAX as u32).map(|i| i * 64).collect();
        sparse.remove(0);
        assert!(
            matches!(&sparse.repr, crate::Repr::Sparse { chunks, .. } if chunks.capacity() > 16),
            "precondition: a sparse set with room to grow"
        );
        let (s, _) = interner.intern(small);
        let (d, _) = interner.intern(sparse);
        assert!(matches!(&interner.get(s).repr, crate::Repr::Small(v) if v.capacity() == 7));
        assert!(
            matches!(&interner.get(d).repr, crate::Repr::Sparse { chunks, .. } if chunks.capacity() == 16)
        );
        assert_eq!(interner.get(d).len(), 16);
    }

    /// Two contents on one fingerprint stay apart on the chain, and a
    /// later lookup of either walks the chain to its own id.
    #[test]
    fn fingerprint_collisions_chain() {
        let mut interner = SetInterner::<u32>::new();
        let (a, b) = (set(&[7]), set(&[8]));
        interner.intern(a.clone());
        // Forge the collision: file `b`'s fingerprint under `a`'s id.
        let fp_b = b.fingerprint();
        interner.by_fp.insert(fp_b, 1);
        assert_eq!(interner.intern(b.clone()), (2, true));
        assert_eq!(interner.next[1], 2, "the second content is chained after the first");
        assert_eq!(interner.intern(b), (2, false));
        assert_eq!(interner.by_fp[&fp_b], 1);
        assert_eq!(interner.intern(a), (1, false));
    }
}
