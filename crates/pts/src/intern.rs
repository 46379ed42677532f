//! Hash-consed points-to sets behind copy-on-write handles.
//!
//! Context-sensitive analysis produces massively repetitive sets: the
//! same receiver objects flow to the same variable under dozens of
//! calling contexts, so the solver's row store ends up holding many
//! bit-identical allocations. This module deduplicates them the same
//! way the `automata` crate deduplicates DFAs — by content fingerprint
//! — while keeping mutation cheap through copy-on-write:
//!
//! - [`SetInterner`] is a sharded content-addressed table mapping a
//!   128-bit content fingerprint ([`PtsSet::fingerprint`]) to the
//!   canonical `Arc<PtsSet>` holding that content.
//! - [`PtsHandle`] is what callers hold: an `Arc` to the set plus the
//!   interned id the content was registered under. Reads go through
//!   `Deref`; mutation goes through an explicit [`PtsHandle::make_mut`]
//!   which marks the handle *dirty* (un-interned) and clones the
//!   allocation only if it is shared; [`PtsHandle::seal`] re-interns a
//!   dirty handle, adopting the canonical allocation when an identical
//!   set already exists.
//!
//! # Why handle equality is sound
//!
//! Fingerprints are computed over the ascending `(word index, nonzero
//! bits)` pairs of the set's bitmap plus its length — a small set's ids
//! are folded into the same pairs and zero words are skipped — never
//! over the in-memory representation, so a small-vec set, its promoted
//! dense twin and a bitmap with trailing zero words intern to the same
//! entry, mirroring `PtsSet`'s representation-independent `PartialEq`. A
//! fingerprint hit is additionally verified by exact content
//! comparison (`PtsSet::eq`: slices or bitmap words where the
//! representations match) before two sets are merged (collisions park
//! in a bucket list), so adopting the canonical `Arc` never changes
//! observable contents: every solver result is bit-identical to the
//! un-interned run, which is what keeps the golden parity fingerprints
//! stable.
//!
//! Within one interner generation, two *live sealed* handles are
//! content-equal if and only if their ids are equal: a table entry is
//! only evicted once no outside handle still references its `Arc`
//! ([`SetInterner::evict_dead`]), and ids are never reused. Handle
//! comparison therefore fast-paths — pointer equality, then
//! `(generation, id)` — before falling back to element comparison for
//! dirty handles.

use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fxhash::FxHashMap;

use crate::{Elem, PtsSet};

/// Sentinel id for a handle whose content is not (or no longer)
/// registered in an interner.
const DIRTY: u32 = u32::MAX;

/// Number of lock shards; fingerprint low bits pick the shard. A small
/// power of two: sealing happens in batched sweeps from the solver's
/// sequential sections, so the shards bound worst-case contention from
/// concurrent analyses rather than chasing single-run parallelism.
const SHARDS: usize = 16;

/// Process-wide generation allocator: every interner gets a distinct
/// generation, so handles sealed by different interners (different
/// solver runs, different element types) can never alias by id.
static NEXT_GENERATION: AtomicU32 = AtomicU32::new(1);

/// One lock shard: fingerprint → bucket of `(id, canonical set)`.
/// Buckets are almost always singletons; a genuine 128-bit collision
/// parks the second set behind an exact-content check.
type Shard<T> = FxHashMap<u128, Vec<(u32, Arc<PtsSet<T>>)>>;

/// A sharded, content-addressed store of canonical points-to sets.
///
/// One interner serves one solver run (plus the [`AnalysisResult`]
/// built from it); its generation number is process-unique, so ids
/// from unrelated interners never compare equal through [`PtsHandle`].
///
/// [`AnalysisResult`]: ../pta/struct.AnalysisResult.html
#[derive(Debug)]
pub struct SetInterner<T: Elem> {
    generation: u32,
    shards: Vec<Mutex<Shard<T>>>,
    next_id: AtomicU32,
    interned: AtomicU64,
    dedup_hits: AtomicU64,
    empty: Arc<PtsSet<T>>,
}

impl<T: Elem> Default for SetInterner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Elem> SetInterner<T> {
    /// Creates an interner with a fresh process-unique generation. The
    /// empty set is pre-interned as id 0, so [`Self::empty_handle`]
    /// never allocates per call site.
    pub fn new() -> Self {
        let empty = Arc::new(PtsSet::new());
        let shards: Vec<Mutex<Shard<T>>> =
            (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
        let fp = empty.fingerprint();
        shards[shard_of(fp)].lock().unwrap().insert(fp, vec![(0, empty.clone())]);
        SetInterner {
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            shards,
            next_id: AtomicU32::new(1),
            interned: AtomicU64::new(1),
            dedup_hits: AtomicU64::new(0),
            empty,
        }
    }

    /// A sealed handle to the canonical empty set (id 0). Cloning the
    /// returned handle is the cheap way to materialize fresh rows.
    pub fn empty_handle(&self) -> PtsHandle<T> {
        PtsHandle {
            set: self.empty.clone(),
            id: 0,
            generation: self.generation,
            fp: Some(self.empty.fingerprint()),
        }
    }

    /// Distinct set contents ever registered (the pre-interned empty
    /// set counts as one). Monotonic: eviction does not decrement it.
    pub fn interned(&self) -> u64 {
        self.interned.load(Ordering::Relaxed)
    }

    /// Seals that adopted an already-registered allocation instead of
    /// keeping their own — each hit is one duplicate allocation freed.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Registers `set`'s content, returning the canonical `(id, Arc)`.
    /// `fp` must be [`PtsSet::fingerprint`] of `set` — passed in
    /// so a handle that already knows it (cached at a previous seal)
    /// skips the re-hash.
    fn intern(&self, set: &Arc<PtsSet<T>>, fp: u128) -> (u32, Arc<PtsSet<T>>) {
        let mut shard = self.shards[shard_of(fp)].lock().unwrap();
        let bucket = shard.entry(fp).or_default();
        for (id, canon) in bucket.iter() {
            if **canon == **set {
                if !Arc::ptr_eq(canon, set) {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                }
                return (*id, canon.clone());
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(id != DIRTY, "interner id space exhausted");
        bucket.push((id, set.clone()));
        self.interned.fetch_add(1, Ordering::Relaxed);
        (id, set.clone())
    }

    /// Drops table entries no live handle references anymore (their
    /// `Arc` strong count is 1 — ours). Ids are never reused, so a
    /// re-interned twin of an evicted content gets a fresh id and the
    /// live-handle id-equality invariant holds. Call between solver
    /// waves, after re-sealing mutated rows.
    pub fn evict_dead(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            shard.retain(|_, bucket| {
                bucket.retain(|(id, canon)| *id == 0 || Arc::strong_count(canon) > 1);
                !bucket.is_empty()
            });
        }
    }
}

fn shard_of(fp: u128) -> usize {
    fp as usize & (SHARDS - 1)
}

/// A copy-on-write handle to a (possibly interned) [`PtsSet`].
///
/// Reads deref straight to the set. Mutation is explicit: call
/// [`PtsHandle::make_mut`], which un-interns the handle and clones the
/// underlying allocation only if someone else shares it. Handles start
/// *dirty* ([`PtsHandle::from_set`]) or *sealed*
/// ([`SetInterner::empty_handle`], [`PtsHandle::seal`]).
#[derive(Clone, Debug)]
pub struct PtsHandle<T: Elem> {
    set: Arc<PtsSet<T>>,
    /// Interned id, or [`DIRTY`] while unsealed.
    id: u32,
    /// Generation of the interner that assigned `id` (0 while dirty).
    generation: u32,
    /// Cached [`PtsSet::fingerprint`] of `set`, computed at most
    /// once per content: a seal stores it, [`PtsHandle::make_mut`]
    /// invalidates it, so re-sealing an unchanged row (e.g. into a
    /// different interner, or after a no-op mutation cycle ended in
    /// `seal`) never re-hashes the set.
    fp: Option<u128>,
}

impl<T: Elem> PtsHandle<T> {
    /// Wraps an owned set in a dirty (unsealed) handle.
    pub fn from_set(set: PtsSet<T>) -> Self {
        PtsHandle { set: Arc::new(set), id: DIRTY, generation: 0, fp: None }
    }

    /// Whether this handle currently carries an interned id.
    pub fn is_sealed(&self) -> bool {
        self.id != DIRTY
    }

    /// The `(interner generation, id)` this handle is sealed under, or
    /// `None` while dirty. Within one generation, live sealed handles
    /// with equal ids hold equal contents (see the module docs), so the
    /// pair keys deduplication without touching any element.
    pub fn interned_id(&self) -> Option<(u32, u32)> {
        self.is_sealed().then_some((self.generation, self.id))
    }

    /// Borrows the underlying set (same as `Deref`, spelled out for
    /// call sites that want the lifetime of `&self` to be explicit).
    pub fn as_set(&self) -> &PtsSet<T> {
        &self.set
    }

    /// Shares the underlying allocation: a cheap `Arc` clone, for
    /// callers that need to read the set while mutating other rows.
    pub fn share(&self) -> Arc<PtsSet<T>> {
        self.set.clone()
    }

    /// Unwraps into an owned set — without copying when this handle is
    /// the sole owner (the common case for pending deltas).
    pub fn into_set(self) -> PtsSet<T> {
        Arc::try_unwrap(self.set).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Stable address of the underlying allocation; physical-memory
    /// accounting dedups on it.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.set) as usize
    }

    /// Mutable access to the set. Marks the handle dirty and clones
    /// the allocation if it is shared (copy-on-write). Callers should
    /// check that they actually have something to write first —
    /// `difference` / `difference_in_ranges` against the target — so
    /// quiescent edges never trigger the copy.
    pub fn make_mut(&mut self) -> &mut PtsSet<T> {
        self.id = DIRTY;
        self.generation = 0;
        self.fp = None;
        Arc::make_mut(&mut self.set)
    }

    /// Re-interns a dirty handle, adopting the canonical allocation if
    /// the content is already registered. Sealed handles are left
    /// untouched, so sweeping a mostly-clean row store is cheap; a
    /// handle whose fingerprint survived (cloned from a sealed handle,
    /// or sealed before into another interner) reuses it instead of
    /// re-hashing the set.
    pub fn seal(&mut self, interner: &SetInterner<T>) {
        if self.is_sealed() {
            return;
        }
        let fp = *self.fp.get_or_insert_with(|| self.set.fingerprint());
        let (id, canon) = interner.intern(&self.set, fp);
        self.set = canon;
        self.id = id;
        self.generation = interner.generation;
    }

    /// `self ∩ other ≠ ∅`, fast-pathing on handle identity: equal
    /// non-empty handles intersect without touching elements.
    pub fn intersects(&self, other: &PtsHandle<T>) -> bool {
        if self.same_content(other) {
            return !self.set.is_empty();
        }
        self.set.intersects(&other.set)
    }

    /// `self ⊆ other`, fast-pathing on handle identity.
    pub fn is_subset(&self, other: &PtsHandle<T>) -> bool {
        self.same_content(other) || self.set.is_subset(&other.set)
    }

    /// Identity fast path shared by the comparison operators: pointer
    /// equality, then same-generation id equality (sound per the
    /// module docs — within a generation, live sealed handles are
    /// content-equal iff their ids match).
    fn same_content(&self, other: &PtsHandle<T>) -> bool {
        Arc::ptr_eq(&self.set, &other.set)
            || (self.is_sealed() && self.generation == other.generation && self.id == other.id)
    }
}

impl<T: Elem> Deref for PtsHandle<T> {
    type Target = PtsSet<T>;

    fn deref(&self) -> &PtsSet<T> {
        &self.set
    }
}

impl<T: Elem> PartialEq for PtsHandle<T> {
    fn eq(&self, other: &Self) -> bool {
        if self.same_content(other) {
            return true;
        }
        // Same generation, both sealed, different ids: definitively
        // different contents — skip the element walk.
        if self.is_sealed() && other.is_sealed() && self.generation == other.generation {
            return false;
        }
        *self.set == *other.set
    }
}

impl<T: Elem> Eq for PtsHandle<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(elems: &[u32]) -> PtsHandle<u32> {
        PtsHandle::from_set(elems.iter().copied().collect())
    }

    #[test]
    fn seal_dedups_identical_content() {
        let interner = SetInterner::<u32>::new();
        let mut a = handle(&[1, 2, 3]);
        let mut b = handle(&[1, 2, 3]);
        assert_ne!(a.addr(), b.addr());
        a.seal(&interner);
        b.seal(&interner);
        assert_eq!(a.addr(), b.addr(), "sealing adopts the canonical allocation");
        assert_eq!(a, b);
        assert_eq!(interner.dedup_hits(), 1);
        assert_eq!(interner.interned(), 2, "empty plus one content");
    }

    #[test]
    fn representation_does_not_affect_identity() {
        // A small set and a promoted twin intern to the same entry.
        let interner = SetInterner::<u32>::new();
        let mut small = handle(&[4, 9]);
        // Forced-dense detour: over-fill to promote, clear (keeps the
        // dense representation), then insert the twin's content.
        let mut dense = handle(&(0..=crate::SMALL_MAX as u32).collect::<Vec<_>>());
        let set = dense.make_mut();
        set.clear();
        set.insert(4);
        set.insert(9);
        assert!(*small == *dense, "precondition: structural set equality");
        small.seal(&interner);
        dense.seal(&interner);
        assert_eq!(small.addr(), dense.addr());
    }

    #[test]
    fn make_mut_unseals_and_copies_only_when_shared() {
        let interner = SetInterner::<u32>::new();
        let mut a = handle(&[7]);
        a.seal(&interner);
        assert!(a.is_sealed());
        let before = a.addr();
        a.make_mut().insert(8);
        assert!(!a.is_sealed());
        assert_ne!(a.addr(), before, "interner still holds the old content");
        // Once unique, further mutation is in place.
        let solo = a.addr();
        a.make_mut().insert(9);
        assert_eq!(a.addr(), solo);
    }

    #[test]
    fn empty_handle_is_shared_and_sealed() {
        let interner = SetInterner::<u32>::new();
        let a = interner.empty_handle();
        let b = interner.empty_handle();
        assert!(a.is_sealed() && b.is_sealed());
        assert_eq!(a.addr(), b.addr());
        assert!(a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn eviction_drops_only_dead_entries() {
        let interner = SetInterner::<u32>::new();
        let mut live = handle(&[1]);
        live.seal(&interner);
        {
            let mut dead = handle(&[2]);
            dead.seal(&interner);
        }
        interner.evict_dead();
        assert_eq!(interner.interned(), 3, "interned count is monotonic");
        // Re-sealing the live content must still find the old entry.
        let mut twin = handle(&[1]);
        twin.seal(&interner);
        assert_eq!(twin.addr(), live.addr());
        assert_eq!(interner.dedup_hits(), 1);
    }

    #[test]
    fn cross_generation_ids_never_alias() {
        let i1 = SetInterner::<u32>::new();
        let i2 = SetInterner::<u32>::new();
        let mut a = handle(&[1]);
        let mut b = handle(&[2]);
        a.seal(&i1);
        b.seal(&i2);
        // Both got id 1 in their own interner; contents differ.
        assert_ne!(a, b);
    }

    #[test]
    fn handle_fast_paths_match_set_semantics() {
        let interner = SetInterner::<u32>::new();
        let mut a = handle(&[1, 2]);
        let mut b = handle(&[1, 2]);
        let mut c = handle(&[3]);
        a.seal(&interner);
        b.seal(&interner);
        c.seal(&interner);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.is_subset(&b));
        assert!(!c.is_subset(&a));
        let empty = interner.empty_handle();
        assert!(!empty.intersects(&empty));
        assert!(empty.is_subset(&a));
    }
}
