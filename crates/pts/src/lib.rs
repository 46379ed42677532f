//! # pts — hybrid points-to sets
//!
//! The set representation under the `pta` solver's fixpoint: a points-to
//! set is a set of small dense integer ids (abstract objects). Profiles
//! of the worklist solver show two regimes: the overwhelming majority of
//! sets hold a handful of objects (the median delta is a single object),
//! while a few hub pointers accumulate thousands. [`PtsSet`] serves both
//! with one type:
//!
//! - **small**: a sorted, deduplicated `Vec<u32>` — cache-friendly,
//!   four ids per cache word, cheap to scan;
//! - **dense**: a `u64`-word bitmap once the set outgrows
//!   [`SMALL_MAX`] elements — membership, union, and intersection
//!   become word-wise operations, O(universe / 64) regardless of how
//!   many objects the set holds.
//!
//! The two operations the solver lives on:
//!
//! - [`PtsSet::union_into`] — unions `self` into a target and returns
//!   the **delta** (the elements genuinely new to the target) as a
//!   fresh set. Difference propagation falls out: the returned delta is
//!   exactly what must be forwarded to the target's consumers, and an
//!   empty delta means the edge is quiescent.
//! - [`PtsSet::union_into_masked`] — the same, but elements must also
//!   be present in a *mask* set. Type-filtered (cast) edges AND the
//!   mask word-wise instead of walking objects and querying a type
//!   hierarchy per element.
//!
//! Iteration ([`PtsSet::iter`]) is always in ascending id order, borrows
//! the set, and allocates nothing; [`PtsSet::to_vec`] is the escape
//! hatch for callers that need an owned `Vec`.
//!
//! The element type is anything implementing [`Elem`] — an infallible
//! bijection with `usize`. The `pta` crate implements it for `ObjId`;
//! tests use `u32`.
//!
//! Sets that live long enough to repeat — the solver's representative
//! rows, per-type masks, and result storage — go behind the
//! hash-consing layer in [`intern`]: a sharded [`intern::SetInterner`]
//! deduplicates identical contents and hands out copy-on-write
//! [`intern::PtsHandle`]s whose equality fast-paths on the interned
//! id.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod intern;

pub use intern::{PtsHandle, SetInterner};

use std::marker::PhantomData;

/// A set element: a cheap bijection with a dense `usize` index.
///
/// Implementations must be consistent (`from_index(into_index(x)) ==
/// x`) and dense-ish: memory for dense sets scales with the largest
/// index ever inserted, not with the element count.
pub trait Elem: Copy + Eq + Ord {
    /// Returns this element's dense index.
    fn into_index(self) -> usize;
    /// Reconstructs an element from its dense index.
    fn from_index(i: usize) -> Self;
}

impl Elem for u32 {
    fn into_index(self) -> usize {
        self as usize
    }
    fn from_index(i: usize) -> Self {
        u32::try_from(i).expect("index fits u32")
    }
}

impl Elem for usize {
    fn into_index(self) -> usize {
        self
    }
    fn from_index(i: usize) -> Self {
        i
    }
}

/// Sets with at most this many elements stay in the sorted-vec
/// representation; the next insertion promotes them to a bitmap.
pub const SMALL_MAX: usize = 16;

const WORD_BITS: usize = 64;

/// A sorted, disjoint, coalesced list of half-open index ranges
/// `[lo, hi)` — the compiled form of a membership mask whose members
/// cluster into contiguous id runs.
///
/// The `pta` solver numbers heap objects in class-hierarchy preorder,
/// so the subtype cone behind each cast filter is a handful of runs;
/// storing the runs instead of a materialized mask set turns cast
/// filtering into range-bounded word arithmetic
/// ([`PtsSet::difference_in_ranges`], [`PtsSet::union_masked_ranges`])
/// and shrinks the mask footprint from bitmap words to one word per
/// run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdRanges {
    /// Ascending, pairwise-disjoint, non-adjacent (coalesced) runs.
    runs: Vec<(u32, u32)>,
}

impl IdRanges {
    /// Creates an empty range list.
    pub const fn new() -> Self {
        IdRanges { runs: Vec::new() }
    }

    /// Builds the coalesced runs covering exactly `ids`, which must be
    /// sorted ascending and deduplicated.
    pub fn from_sorted_ids(ids: impl IntoIterator<Item = u32>) -> Self {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for id in ids {
            match runs.last_mut() {
                Some(last) if last.1 == id => last.1 = id + 1,
                _ => {
                    debug_assert!(runs.last().is_none_or(|&(_, hi)| hi < id), "ids not sorted");
                    runs.push((id, id + 1));
                }
            }
        }
        IdRanges { runs }
    }

    /// Inserts a single id, coalescing with adjacent runs. O(log runs)
    /// to locate, O(runs) worst case to splice — runs lists stay short
    /// by construction.
    pub fn insert_id(&mut self, id: u32) {
        let pos = self.runs.partition_point(|&(_, hi)| hi <= id);
        if self.runs.get(pos).is_some_and(|&(lo, _)| lo <= id) {
            return; // already covered
        }
        let touches_prev = pos > 0 && self.runs[pos - 1].1 == id;
        let touches_next = self.runs.get(pos).is_some_and(|&(lo, _)| lo == id + 1);
        match (touches_prev, touches_next) {
            (true, true) => {
                self.runs[pos - 1].1 = self.runs[pos].1;
                self.runs.remove(pos);
            }
            (true, false) => self.runs[pos - 1].1 = id + 1,
            (false, true) => self.runs[pos].0 = id,
            (false, false) => self.runs.insert(pos, (id, id + 1)),
        }
    }

    /// Returns `true` if some run covers `id`.
    pub fn contains(&self, id: u32) -> bool {
        let pos = self.runs.partition_point(|&(_, hi)| hi <= id);
        self.runs.get(pos).is_some_and(|&(lo, _)| lo <= id)
    }

    /// The coalesced runs, ascending and disjoint.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// Number of runs (the `pta.mask_ranges` unit).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Returns `true` if no run exists.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total ids covered across all runs.
    pub fn covered(&self) -> u64 {
        self.runs.iter().map(|&(lo, hi)| u64::from(hi - lo)).sum()
    }

    /// Memory footprint in 64-bit words: one word per `(lo, hi)` run.
    pub fn mem_words(&self) -> usize {
        self.runs.len()
    }
}

impl FromIterator<u32> for IdRanges {
    /// Collects from an iterator of **sorted ascending, deduplicated**
    /// ids (see [`IdRanges::from_sorted_ids`]).
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        IdRanges::from_sorted_ids(iter)
    }
}

#[derive(Clone)]
enum Repr {
    /// Sorted ascending, deduplicated element indices.
    Small(Vec<u32>),
    /// Dense bitmap; `len` caches the population count.
    Dense { words: Vec<u64>, len: u32 },
}

/// A points-to set: hybrid sorted-vec / dense-bitmap over the indices
/// of an [`Elem`] type.
///
/// # Examples
///
/// ```
/// let mut a: pts::PtsSet<u32> = [1u32, 5, 3].into_iter().collect();
/// let mut target = pts::PtsSet::new();
/// target.insert(3u32);
/// let delta = a.union_into(&mut target);
/// assert_eq!(delta.to_vec(), vec![1, 5]); // 3 was already present
/// assert_eq!(target.len(), 3);
/// ```
#[derive(Clone)]
pub struct PtsSet<T> {
    repr: Repr,
    _elem: PhantomData<T>,
}

impl<T: Elem> Default for PtsSet<T> {
    fn default() -> Self {
        PtsSet::new()
    }
}

impl<T: Elem> PtsSet<T> {
    /// Creates an empty set (no allocation until the first insert).
    pub const fn new() -> Self {
        PtsSet {
            repr: Repr::Small(Vec::new()),
            _elem: PhantomData,
        }
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.len(),
            Repr::Dense { len, .. } => *len as usize,
        }
    }

    /// Returns `true` if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `elem` is a member.
    pub fn contains(&self, elem: T) -> bool {
        let i = elem.into_index();
        match &self.repr {
            Repr::Small(v) => v.binary_search(&(i as u32)).is_ok(),
            Repr::Dense { words, .. } => words
                .get(i / WORD_BITS)
                .is_some_and(|w| w & (1u64 << (i % WORD_BITS)) != 0),
        }
    }

    /// Inserts `elem`; returns `true` if it was not already present.
    pub fn insert(&mut self, elem: T) -> bool {
        let i = elem.into_index();
        match &mut self.repr {
            Repr::Small(v) => {
                let key = u32::try_from(i).expect("element index fits u32");
                match v.binary_search(&key) {
                    Ok(_) => false,
                    Err(pos) => {
                        if v.len() < SMALL_MAX {
                            v.insert(pos, key);
                        } else {
                            self.promote();
                            return self.insert(elem);
                        }
                        true
                    }
                }
            }
            Repr::Dense { words, len } => {
                let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
                if words.len() <= w {
                    words.resize(w + 1, 0);
                }
                if words[w] & b != 0 {
                    false
                } else {
                    words[w] |= b;
                    *len += 1;
                    true
                }
            }
        }
    }

    /// Removes `elem`; returns `true` if it was present. A dense set
    /// keeps its representation and its word count, so the bitmap may
    /// end in zero words.
    pub fn remove(&mut self, elem: T) -> bool {
        let i = elem.into_index();
        match &mut self.repr {
            Repr::Small(v) => match u32::try_from(i).map(|key| v.binary_search(&key)) {
                Ok(Ok(pos)) => {
                    v.remove(pos);
                    true
                }
                _ => false,
            },
            Repr::Dense { words, len } => {
                let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
                match words.get_mut(w) {
                    Some(word) if *word & b != 0 => {
                        *word &= !b;
                        *len -= 1;
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    /// Converts the small representation to a bitmap.
    fn promote(&mut self) {
        if let Repr::Small(v) = &self.repr {
            let top = v.last().copied().unwrap_or(0) as usize;
            let mut words = vec![0u64; top / WORD_BITS + 1];
            for &i in v {
                words[i as usize / WORD_BITS] |= 1u64 << (i as usize % WORD_BITS);
            }
            self.repr = Repr::Dense {
                len: v.len() as u32,
                words,
            };
        }
    }

    /// Removes every element (keeps the representation's capacity).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Small(v) => v.clear(),
            Repr::Dense { words, len } => {
                words.clear();
                *len = 0;
            }
        }
    }

    /// Iterates over the elements in ascending index order. Borrows the
    /// set; allocates nothing.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: match &self.repr {
                Repr::Small(v) => IterRepr::Small(v.iter()),
                Repr::Dense { words, .. } => IterRepr::Dense {
                    words,
                    word_ix: 0,
                    cur: words.first().copied().unwrap_or(0),
                },
            },
            _elem: PhantomData,
        }
    }

    /// Collects the elements into a sorted `Vec` — the escape hatch for
    /// callers that need owned data.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// Unions `self` into `target`; returns the delta (elements of
    /// `self` that were new to `target`). O(words) when both sides are
    /// dense.
    pub fn union_into(&self, target: &mut PtsSet<T>) -> PtsSet<T> {
        self.union_impl(None, target)
    }

    /// Unions `self ∩ mask` into `target`; returns the delta. The mask
    /// intersection is a word-wise AND when the representations allow.
    pub fn union_into_masked(&self, mask: &PtsSet<T>, target: &mut PtsSet<T>) -> PtsSet<T> {
        self.union_impl(Some(mask), target)
    }

    fn union_impl(&self, mask: Option<&PtsSet<T>>, target: &mut PtsSet<T>) -> PtsSet<T> {
        let mut delta = PtsSet::new();
        match (&self.repr, mask) {
            // Word-wise path: self dense, mask (if any) dense, and the
            // target promoted to dense (an unmasked union makes it a
            // superset of self, so promotion is not premature; a masked
            // union from a dense source promotes too — the source being
            // dense means heavy traffic flows through this pointer).
            (Repr::Dense { words, .. }, None) => {
                target.promote();
                let Repr::Dense {
                    words: tw,
                    len: tlen,
                } = &mut target.repr
                else {
                    unreachable!("just promoted")
                };
                if tw.len() < words.len() {
                    tw.resize(words.len(), 0);
                }
                for (w, (t, &s)) in tw.iter_mut().zip(words.iter()).enumerate() {
                    let add = s & !*t;
                    if add != 0 {
                        *t |= add;
                        *tlen += add.count_ones();
                        delta.push_word(w, add);
                    }
                }
            }
            (
                Repr::Dense { words, .. },
                Some(PtsSet {
                    repr: Repr::Dense { words: mw, .. },
                    ..
                }),
            ) => {
                target.promote();
                let Repr::Dense {
                    words: tw,
                    len: tlen,
                } = &mut target.repr
                else {
                    unreachable!("just promoted")
                };
                let n = words.len().min(mw.len());
                if tw.len() < n {
                    tw.resize(n, 0);
                }
                for (w, ((t, &s), &m)) in tw.iter_mut().zip(words.iter()).zip(mw.iter()).enumerate()
                {
                    let add = s & m & !*t;
                    if add != 0 {
                        *t |= add;
                        *tlen += add.count_ones();
                        delta.push_word(w, add);
                    }
                }
            }
            // Element-wise path: some participant is small, so walking
            // the (short) source is cheaper than promoting anyone.
            _ => {
                for e in self.iter() {
                    if mask.is_some_and(|m| !m.contains(e)) {
                        continue;
                    }
                    if target.insert(e) {
                        delta.insert(e);
                    }
                }
            }
        }
        delta
    }

    /// Appends the set bits of `add` at word position `w`. Internal to
    /// the word-wise union paths: words arrive in ascending order.
    fn push_word(&mut self, w: usize, add: u64) {
        let base = w * WORD_BITS;
        let mut bits = add;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // Ascending arrival order makes small inserts O(1) pushes.
            self.insert(T::from_index(base + b));
        }
    }

    /// Returns `(self ∩ mask) \ other` as a fresh set, without touching
    /// `other`. Fully word-wise when all three sets are dense.
    ///
    /// This is the read-only probe of the solver's **parallel wave
    /// shards**: worker threads compute each copy edge's contribution
    /// against a frozen view of the target sets (no `&mut` anywhere),
    /// and the sequential merge applies the contributions afterwards
    /// with [`PtsSet::union_into_from_shards`].
    pub fn difference_masked(&self, mask: &PtsSet<T>, other: &PtsSet<T>) -> PtsSet<T> {
        let mut out = PtsSet::new();
        match (&self.repr, &mask.repr, &other.repr) {
            (
                Repr::Dense { words, .. },
                Repr::Dense { words: mw, .. },
                Repr::Dense { words: ow, .. },
            ) => {
                for (w, &s) in words.iter().enumerate() {
                    let keep = s
                        & mw.get(w).copied().unwrap_or(0)
                        & !ow.get(w).copied().unwrap_or(0);
                    if keep != 0 {
                        out.push_word(w, keep);
                    }
                }
            }
            _ => {
                for e in self.iter() {
                    if mask.contains(e) && !other.contains(e) {
                        out.insert(e);
                    }
                }
            }
        }
        out
    }

    /// Returns `(self ∩ ranges) \ other` as a fresh set — the
    /// range-compiled twin of [`PtsSet::difference_masked`], reading
    /// the mask as coalesced id runs instead of a materialized set.
    ///
    /// Dense/dense pairs do range-bounded word arithmetic: only the
    /// words each run overlaps are touched, with partial boundary
    /// words masked off. Anything else walks `self`'s elements through
    /// a run cursor ([`PtsSet::iter_in_ranges`]).
    pub fn difference_in_ranges(&self, ranges: &IdRanges, other: &PtsSet<T>) -> PtsSet<T> {
        let mut out = PtsSet::new();
        match (&self.repr, &other.repr) {
            (Repr::Dense { words, .. }, Repr::Dense { words: ow, .. }) => {
                for_range_words(ranges, words.len(), |w, m| {
                    let keep = words[w] & m & !ow.get(w).copied().unwrap_or(0);
                    if keep != 0 {
                        out.push_word(w, keep);
                    }
                });
            }
            _ => {
                for e in self.iter_in_ranges(ranges) {
                    if !other.contains(e) {
                        out.insert(e);
                    }
                }
            }
        }
        out
    }

    /// Unions `self ∩ ranges` into `target`; returns the delta — the
    /// range-compiled twin of [`PtsSet::union_into_masked`].
    pub fn union_masked_ranges(&self, ranges: &IdRanges, target: &mut PtsSet<T>) -> PtsSet<T> {
        let mut delta = PtsSet::new();
        match &self.repr {
            Repr::Dense { words, .. } => {
                target.promote();
                let Repr::Dense {
                    words: tw,
                    len: tlen,
                } = &mut target.repr
                else {
                    unreachable!("just promoted")
                };
                if tw.len() < words.len() {
                    tw.resize(words.len(), 0);
                }
                for_range_words(ranges, words.len(), |w, m| {
                    let add = words[w] & m & !tw[w];
                    if add != 0 {
                        tw[w] |= add;
                        *tlen += add.count_ones();
                        delta.push_word(w, add);
                    }
                });
            }
            Repr::Small(_) => {
                for e in self.iter_in_ranges(ranges) {
                    if target.insert(e) {
                        delta.insert(e);
                    }
                }
            }
        }
        delta
    }

    /// Range-bounded iteration: the elements of `self ∩ ranges` in
    /// ascending index order. Both the set and the runs are ascending,
    /// so one monotone run cursor filters the stream without any
    /// per-element search.
    pub fn iter_in_ranges<'a>(&'a self, ranges: &'a IdRanges) -> impl Iterator<Item = T> + 'a {
        let runs = ranges.runs();
        let mut ri = 0usize;
        self.iter().filter(move |e| {
            let i = e.into_index() as u32;
            while ri < runs.len() && runs[ri].1 <= i {
                ri += 1;
            }
            ri < runs.len() && runs[ri].0 <= i
        })
    }

    /// Unions every shard set into `target`, returning the combined
    /// delta (elements genuinely new to `target`) as one fresh set.
    ///
    /// This is the deterministic merge half of the solver's parallel
    /// wave propagation: per-thread scratch contributions for one target
    /// pointer are applied *in slice order*, so the result — and the
    /// returned delta — depends only on the order of `shards`, never on
    /// how many threads produced them.
    pub fn union_into_from_shards<'a>(
        shards: impl IntoIterator<Item = &'a PtsSet<T>>,
        target: &mut PtsSet<T>,
    ) -> PtsSet<T>
    where
        T: 'a,
    {
        let mut delta = PtsSet::new();
        for shard in shards {
            let d = shard.union_into(target);
            if delta.is_empty() {
                delta = d;
            } else {
                delta.union_with(&d);
            }
        }
        delta
    }

    /// Returns `self \ other` as a fresh set. Word-wise when both sides
    /// are dense; otherwise walks `self`.
    ///
    /// This is the collapse-time primitive of the solver's cycle
    /// elimination: when a strongly connected component's members are
    /// merged ("take and merge"), the representative's pending delta
    /// must cover everything some member's consumers have not seen yet —
    /// exactly `merged \ member` for each member.
    pub fn difference(&self, other: &PtsSet<T>) -> PtsSet<T> {
        let mut out = PtsSet::new();
        match (&self.repr, &other.repr) {
            (Repr::Dense { words, .. }, Repr::Dense { words: ow, .. }) => {
                for (w, &s) in words.iter().enumerate() {
                    let keep = s & !ow.get(w).copied().unwrap_or(0);
                    if keep != 0 {
                        out.push_word(w, keep);
                    }
                }
            }
            _ => {
                for e in self.iter() {
                    if !other.contains(e) {
                        out.insert(e);
                    }
                }
            }
        }
        out
    }

    /// Unions `other` into `self` without computing a delta.
    pub fn union_with(&mut self, other: &PtsSet<T>) {
        match &other.repr {
            Repr::Dense { .. } => {
                let _ = other.union_into(self);
            }
            Repr::Small(v) => {
                for &i in v {
                    self.insert(T::from_index(i as usize));
                }
            }
        }
    }

    /// Returns `true` if the sets share an element. Word-wise AND when
    /// both are dense; otherwise scans the smaller side.
    pub fn intersects(&self, other: &PtsSet<T>) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Dense { words: a, .. }, Repr::Dense { words: b, .. }) => {
                a.iter().zip(b.iter()).any(|(&x, &y)| x & y != 0)
            }
            _ => {
                let (probe, scan) = if self.len() <= other.len() {
                    (other, self)
                } else {
                    (self, other)
                };
                scan.iter().any(|e| probe.contains(e))
            }
        }
    }

    /// Whether every element of `self` is also in `other`. Dense
    /// pairs compare word-wise; mixed pairs walk the (smaller) left
    /// side.
    pub fn is_subset(&self, other: &PtsSet<T>) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Dense { words: a, .. }, Repr::Dense { words: b, .. }) => a
                .iter()
                .enumerate()
                .all(|(i, &x)| x & !b.get(i).copied().unwrap_or(0) == 0),
            _ => self.iter().all(|e| other.contains(e)),
        }
    }

    /// Memory footprint in 64-bit words (the `peak set words` metric):
    /// bitmap words, or the small vec's occupancy at two ids per word.
    pub fn mem_words(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.len().div_ceil(2),
            Repr::Dense { words, .. } => words.len(),
        }
    }
}

/// Visits every bitmap word a run list overlaps, at most once per
/// `(run, word)` pair, as `(word index, member-bit mask)`. Words arrive
/// in ascending order overall (runs are sorted and disjoint; only a
/// boundary word shared by two runs repeats, with disjoint masks).
fn for_range_words(ranges: &IdRanges, n_words: usize, mut f: impl FnMut(usize, u64)) {
    let limit = n_words * WORD_BITS;
    for &(lo, hi) in ranges.runs() {
        let (lo, hi) = (lo as usize, (hi as usize).min(limit));
        if lo >= hi {
            continue;
        }
        let (w0, w1) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        for w in w0..=w1 {
            let mut m = !0u64;
            if w == w0 {
                m &= !0u64 << (lo % WORD_BITS);
            }
            if w == w1 {
                let top = hi - w * WORD_BITS;
                if top < WORD_BITS {
                    m &= (1u64 << top) - 1;
                }
            }
            f(w, m);
        }
    }
}

impl<T: Elem> PartialEq for PtsSet<T> {
    /// Structural equality over the *elements*, independent of
    /// representation: a promoted set equals its small twin.
    ///
    /// Every interner fingerprint hit runs this comparison, so it works
    /// on the representation where it can: two small sets compare as
    /// slices, two dense sets word by word over their common prefix,
    /// with any words past the shorter bitmap required to be zero (a
    /// bitmap may keep trailing zero words after [`PtsSet::remove`] or
    /// a masked union). Only mixed pairs walk the elements.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a == b,
            (Repr::Dense { words: a, .. }, Repr::Dense { words: b, .. }) => {
                let n = a.len().min(b.len());
                a[..n] == b[..n]
                    && a[n..].iter().all(|&w| w == 0)
                    && b[n..].iter().all(|&w| w == 0)
            }
            _ => self.iter().eq(other.iter()),
        }
    }
}

impl<T: Elem> Eq for PtsSet<T> {}

impl<T: Elem + std::fmt::Debug> std::fmt::Debug for PtsSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Elem> FromIterator<T> for PtsSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = PtsSet::new();
        s.extend(iter);
        s
    }
}

impl<T: Elem> Extend<T> for PtsSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl<'a, T: Elem> IntoIterator for &'a PtsSet<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Ascending-order borrowing iterator over a [`PtsSet`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    inner: IterRepr<'a>,
    _elem: PhantomData<T>,
}

#[derive(Debug)]
enum IterRepr<'a> {
    Small(std::slice::Iter<'a, u32>),
    Dense {
        words: &'a [u64],
        word_ix: usize,
        cur: u64,
    },
}

impl<T: Elem> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.inner {
            IterRepr::Small(it) => it.next().map(|&i| T::from_index(i as usize)),
            IterRepr::Dense {
                words,
                word_ix,
                cur,
            } => loop {
                if *cur != 0 {
                    let b = cur.trailing_zeros() as usize;
                    *cur &= *cur - 1;
                    return Some(T::from_index(*word_ix * WORD_BITS + b));
                }
                *word_ix += 1;
                if *word_ix >= words.len() {
                    return None;
                }
                *cur = words[*word_ix];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_basics() {
        let s: PtsSet<u32> = PtsSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.mem_words(), 0);
    }

    #[test]
    fn insert_dedups_and_sorts() {
        let mut s: PtsSet<u32> = PtsSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert_eq!(s.to_vec(), vec![1, 5]);
    }

    #[test]
    fn promotion_preserves_contents() {
        let mut s: PtsSet<u32> = PtsSet::new();
        for i in 0..(SMALL_MAX as u32 + 10) {
            s.insert(i * 7);
        }
        let expected: Vec<u32> = (0..(SMALL_MAX as u32 + 10)).map(|i| i * 7).collect();
        assert_eq!(s.to_vec(), expected);
        assert!(s.contains(7));
        assert!(!s.contains(8));
    }

    #[test]
    fn union_into_returns_exact_delta() {
        let src: PtsSet<u32> = [1u32, 2, 3, 200].into_iter().collect();
        let mut target: PtsSet<u32> = [2u32, 100].into_iter().collect();
        let delta = src.union_into(&mut target);
        assert_eq!(delta.to_vec(), vec![1, 3, 200]);
        assert_eq!(target.to_vec(), vec![1, 2, 3, 100, 200]);
        // Second union is quiescent.
        assert!(src.union_into(&mut target).is_empty());
    }

    #[test]
    fn masked_union_filters() {
        let src: PtsSet<u32> = (0u32..40).collect();
        let mask: PtsSet<u32> = (0u32..40).filter(|i| i % 2 == 0).collect();
        let mut target = PtsSet::new();
        let delta = src.union_into_masked(&mask, &mut target);
        assert_eq!(delta.len(), 20);
        assert!(target.iter().all(|i: u32| i.is_multiple_of(2)));
    }

    #[test]
    fn equality_crosses_representations() {
        let small: PtsSet<u32> = [3u32, 9].into_iter().collect();
        let mut dense: PtsSet<u32> = (0u32..200).collect();
        dense.clear();
        // `dense` is an emptied bitmap; refill with the same elements.
        let mut dense: PtsSet<u32> = (0u32..200).collect();
        let small_copy: PtsSet<u32> = (0u32..200).collect();
        assert_eq!(dense, small_copy);
        dense.insert(1000);
        assert_ne!(dense, small_copy);
        assert_eq!(small, [9u32, 3].into_iter().collect::<PtsSet<u32>>());
    }

    #[test]
    fn difference_all_paths() {
        // small \ small
        let a: PtsSet<u32> = [1u32, 2, 3].into_iter().collect();
        let b: PtsSet<u32> = [2u32, 4].into_iter().collect();
        assert_eq!(a.difference(&b).to_vec(), vec![1, 3]);
        // dense \ dense, including words past the other's end
        let big_a: PtsSet<u32> = (0u32..200).collect();
        let big_b: PtsSet<u32> = (0u32..100).collect();
        assert_eq!(
            big_a.difference(&big_b).to_vec(),
            (100u32..200).collect::<Vec<_>>()
        );
        // dense \ small and small \ dense
        assert_eq!(big_b.difference(&a).len(), 97);
        assert_eq!(a.difference(&big_b), PtsSet::new());
        // difference against self / empty
        assert!(big_a.difference(&big_a).is_empty());
        assert_eq!(a.difference(&PtsSet::new()), a);
    }

    #[test]
    fn difference_masked_all_paths() {
        // Small everything.
        let src: PtsSet<u32> = [1u32, 2, 3, 4].into_iter().collect();
        let mask: PtsSet<u32> = [2u32, 3, 9].into_iter().collect();
        let other: PtsSet<u32> = [3u32].into_iter().collect();
        assert_eq!(src.difference_masked(&mask, &other).to_vec(), vec![2]);
        // Dense everything, including words past the shorter operands.
        let big_src: PtsSet<u32> = (0u32..300).collect();
        let big_mask: PtsSet<u32> = (0u32..300).filter(|i| i % 3 == 0).collect();
        let big_other: PtsSet<u32> = (0u32..150).collect();
        let got = big_src.difference_masked(&big_mask, &big_other);
        let want: Vec<u32> = (150u32..300).filter(|i| i % 3 == 0).collect();
        assert_eq!(got.to_vec(), want);
        // Mixed representations agree with the dense path.
        assert_eq!(
            big_src.difference_masked(&mask, &other).to_vec(),
            vec![2, 9]
        );
        // Empty mask yields an empty result.
        assert!(src
            .difference_masked(&PtsSet::new(), &PtsSet::new())
            .is_empty());
    }

    #[test]
    fn union_into_from_shards_merges_in_order() {
        let a: PtsSet<u32> = [1u32, 2].into_iter().collect();
        let b: PtsSet<u32> = [2u32, 3, 100].into_iter().collect();
        let c: PtsSet<u32> = (200u32..280).collect(); // dense shard
        let mut target: PtsSet<u32> = [1u32, 250].into_iter().collect();
        let delta = PtsSet::union_into_from_shards([&a, &b, &c], &mut target);
        let mut want: Vec<u32> = vec![2, 3, 100];
        want.extend((200u32..280).filter(|&i| i != 250));
        assert_eq!(delta.to_vec(), want);
        // {1, 2, 3, 100} plus the dense 200..280 run.
        assert_eq!(target.len(), 4 + 80);
        // Quiescent second application: every shard already applied.
        assert!(PtsSet::union_into_from_shards([&a, &b, &c], &mut target).is_empty());
        // No shards: no delta, target untouched.
        let before = target.to_vec();
        let no_shards: [&PtsSet<u32>; 0] = [];
        assert!(PtsSet::union_into_from_shards(no_shards, &mut target).is_empty());
        assert_eq!(target.to_vec(), before);
    }

    #[test]
    fn intersects_all_paths() {
        let a: PtsSet<u32> = [1u32, 2].into_iter().collect();
        let b: PtsSet<u32> = [2u32, 3].into_iter().collect();
        let c: PtsSet<u32> = [4u32].into_iter().collect();
        let big_a: PtsSet<u32> = (0u32..100).collect();
        let big_b: PtsSet<u32> = (99u32..200).collect();
        let big_c: PtsSet<u32> = (200u32..300).collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(big_a.intersects(&big_b));
        assert!(!big_a.intersects(&big_c));
        assert!(a.intersects(&big_a));
        assert!(!c.intersects(&big_b));
    }
}
