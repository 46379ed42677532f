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
//! A bitmap is sized by the set's largest id. Where that id is
//! untrusted (a restored snapshot), [`PtsSet::sorted_from_ascending`]
//! keeps a set of any size in the small representation instead.
//!
//! The solver's kernels work on whole 64-bit words wherever the
//! source operand is dense:
//!
//! - [`PtsSet::difference`] / [`PtsSet::difference_in_ranges`] — the
//!   contribution of a delta to a copy edge's target (`self \ other`,
//!   optionally restricted to a cast's id runs), computed read-only;
//! - [`PtsSet::union_with`] — ORs a contribution into the target row
//!   (or a pending delta) without building a delta;
//! - [`PtsSet::union_into`] — unions `self` into a target and returns
//!   the **delta** (the elements genuinely new to the target) as a
//!   fresh set. An empty delta means the edge is quiescent.
//!
//! Each reads the other operand a word at a time, whatever its
//! representation, and builds its output a word at a time: a small
//! output takes the word's ids, and a dense output ORs the word in.
//! An output promotes exactly where inserting its elements one by one
//! would, so kernel outputs have the representation (and
//! [`PtsSet::mem_words`]) of an element-by-element build. Only a small
//! source — at most [`SMALL_MAX`] elements — is walked element by
//! element.
//!
//! Iteration ([`PtsSet::iter`]) is always in ascending id order, borrows
//! the set, and allocates nothing; [`PtsSet::to_vec`] is the escape
//! hatch for callers that need an owned `Vec`.
//!
//! The element type is anything implementing [`Elem`] — an infallible
//! bijection with `usize`. The `pta` crate implements it for `ObjId`;
//! tests use `u32`.
//!
//! Sets that live long enough to repeat — the rows of a finished
//! analysis result — go behind the
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
/// ([`PtsSet::difference_in_ranges`]) and shrinks the mask footprint
/// from bitmap words to one word per run.
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
    /// Sorted ascending, deduplicated element indices: at most
    /// [`SMALL_MAX`] of them, except in a set built by
    /// [`PtsSet::sorted_from_ascending`].
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
    /// `self` that were new to `target`). A dense source promotes the
    /// target and runs one word-wise pass that ORs each word into the
    /// target and appends its new bits to the delta a word at a time; a
    /// small source (at most [`SMALL_MAX`] elements) inserts element by
    /// element.
    pub fn union_into(&self, target: &mut PtsSet<T>) -> PtsSet<T> {
        let mut delta = PtsSet::new();
        match &self.repr {
            // The union makes the target a superset of a dense source,
            // so promoting it is never premature.
            Repr::Dense { words, .. } => {
                let (tw, tlen) = target.dense_mut(words.len());
                for (w, (t, &s)) in tw.iter_mut().zip(words.iter()).enumerate() {
                    let add = s & !*t;
                    if add != 0 {
                        *t |= add;
                        *tlen += add.count_ones();
                        delta.push_word(w, add);
                    }
                }
            }
            Repr::Small(v) => {
                for &i in v {
                    let e = T::from_index(i as usize);
                    if target.insert(e) {
                        delta.insert(e);
                    }
                }
            }
        }
        delta
    }

    /// Promotes `self` to a bitmap of at least `n_words` words and
    /// borrows its words and population count.
    fn dense_mut(&mut self, n_words: usize) -> (&mut Vec<u64>, &mut u32) {
        self.promote();
        let Repr::Dense { words, len } = &mut self.repr else {
            unreachable!("just promoted")
        };
        if words.len() < n_words {
            words.resize(n_words, 0);
        }
        (words, len)
    }

    /// Appends the bits of `add` at word position `w` to an output
    /// under construction. Words arrive in ascending order (a word may
    /// repeat with disjoint, higher bits), so a small output appends
    /// its ids in order, and a dense one ORs the whole word in.
    ///
    /// The small output promotes exactly when inserting the bits one
    /// at a time would: once it would exceed [`SMALL_MAX`] elements.
    /// Either way the bitmap ends at the word of the largest element,
    /// so the representation and [`PtsSet::mem_words`] match an
    /// element-by-element build.
    fn push_word(&mut self, w: usize, add: u64) {
        if let Repr::Small(v) = &mut self.repr {
            if v.len() + add.count_ones() as usize <= SMALL_MAX {
                let base = (w * WORD_BITS) as u32;
                debug_assert!(v.last().is_none_or(|&l| l < base + add.trailing_zeros()));
                let mut bits = add;
                while bits != 0 {
                    v.push(base + bits.trailing_zeros());
                    bits &= bits - 1;
                }
                return;
            }
        }
        let (words, len) = self.dense_mut(w + 1);
        debug_assert_eq!(words[w] & add, 0, "pushed bits already present");
        words[w] |= add;
        *len += add.count_ones();
    }

    /// Returns `(self ∩ ranges) \ other` as a fresh set: a cast-filtered
    /// copy edge's contribution to its target, reading the filter as
    /// coalesced id runs.
    ///
    /// A dense `self` does range-bounded word arithmetic: only the
    /// words each run overlaps are touched, with partial boundary
    /// words masked off, and `other` is read a word at a time whatever
    /// its representation. A small `self` walks its elements through a
    /// run cursor ([`PtsSet::iter_in_ranges`]).
    pub fn difference_in_ranges(&self, ranges: &IdRanges, other: &PtsSet<T>) -> PtsSet<T> {
        let mut out = PtsSet::new();
        match &self.repr {
            Repr::Dense { words, .. } => {
                let mut ow = other.word_reader();
                for_range_words(ranges, words.len(), |w, m| {
                    let keep = words[w] & m & !ow.word(w);
                    if keep != 0 {
                        out.push_word(w, keep);
                    }
                });
            }
            Repr::Small(_) => {
                for e in self.iter_in_ranges(ranges) {
                    if !other.contains(e) {
                        out.insert(e);
                    }
                }
            }
        }
        out
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

    /// Returns `self \ other` as a fresh set. A dense `self` runs one
    /// word-wise pass (`other` read a word at a time whatever its
    /// representation); a small `self` walks its elements.
    ///
    /// This is the solver's propagation primitive: the contribution of
    /// a delta to a copy edge's target, computed read-only so that an
    /// empty contribution never un-shares the target row; and, when a
    /// strongly connected component's members are merged, the part of
    /// the merged set some member's consumers have not seen yet.
    pub fn difference(&self, other: &PtsSet<T>) -> PtsSet<T> {
        let mut out = PtsSet::new();
        match &self.repr {
            Repr::Dense { words, .. } => {
                let mut ow = other.word_reader();
                for (w, &s) in words.iter().enumerate() {
                    let keep = s & !ow.word(w);
                    if keep != 0 {
                        out.push_word(w, keep);
                    }
                }
            }
            Repr::Small(v) => {
                for &i in v {
                    let e = T::from_index(i as usize);
                    if !other.contains(e) {
                        out.insert(e);
                    }
                }
            }
        }
        out
    }

    /// Unions `other` into `self` without computing a delta. A dense
    /// `other` promotes `self` and ORs the words in; a small `other`
    /// inserts element by element.
    pub fn union_with(&mut self, other: &PtsSet<T>) {
        match &other.repr {
            Repr::Dense { words, .. } => {
                let (tw, tlen) = self.dense_mut(words.len());
                for (t, &s) in tw.iter_mut().zip(words.iter()) {
                    *tlen += (s & !*t).count_ones();
                    *t |= s;
                }
            }
            Repr::Small(v) => {
                for &i in v {
                    self.insert(T::from_index(i as usize));
                }
            }
        }
    }

    /// A bitmap-word view of `self` for the word-wise kernels, which
    /// read a second operand one word at a time in ascending word
    /// order.
    fn word_reader(&self) -> WordReader<'_> {
        match &self.repr {
            Repr::Small(v) => WordReader::Small { ids: v, pos: 0 },
            Repr::Dense { words, .. } => WordReader::Dense(words),
        }
    }

    /// The content fingerprint the interner keys its table with: a
    /// 128-bit hash of the ascending `(word index, nonzero bits)` pairs
    /// of the set's bitmap, then its length.
    ///
    /// A small set is folded into the same stream (its ids grouped by
    /// word), and zero words are skipped, so the value depends only on
    /// the elements: a small set, its promoted twin and a bitmap with
    /// trailing zero words all fingerprint alike, matching
    /// representation-independent equality. A dense set hashes one pair
    /// per nonzero word instead of one value per element.
    pub fn fingerprint(&self) -> u128 {
        let mut f = fxhash::Fingerprint128::new();
        let mut pair = |w: usize, bits: u64| {
            f.write_u64(w as u64);
            f.write_u64(bits);
        };
        match &self.repr {
            Repr::Small(v) => {
                // The pair being filled; emitted once an id lands in a
                // later word.
                let mut cur = (0usize, 0u64);
                for &i in v {
                    let w = i as usize / WORD_BITS;
                    if w != cur.0 && cur.1 != 0 {
                        pair(cur.0, cur.1);
                        cur.1 = 0;
                    }
                    cur.0 = w;
                    cur.1 |= 1u64 << (i as usize % WORD_BITS);
                }
                if cur.1 != 0 {
                    pair(cur.0, cur.1);
                }
            }
            Repr::Dense { words, .. } => {
                for (w, &bits) in words.iter().enumerate() {
                    if bits != 0 {
                        pair(w, bits);
                    }
                }
            }
        }
        f.write_u64(self.len() as u64);
        f.finish()
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

    /// Builds a set from strictly ascending element indices in one go,
    /// in the representation an element-by-element build would have.
    /// A small result keeps `ids` as its storage; a dense one sets its
    /// bits in a single pass. Returns `None` unless `ids` is strictly
    /// ascending.
    pub fn from_ascending(ids: Vec<u32>) -> Option<Self> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let repr = match ids.last() {
            Some(&top) if ids.len() > SMALL_MAX => {
                let mut words = vec![0u64; top as usize / WORD_BITS + 1];
                for &i in &ids {
                    words[i as usize / WORD_BITS] |= 1u64 << (i as usize % WORD_BITS);
                }
                Repr::Dense { words, len: ids.len() as u32 }
            }
            _ => Repr::Small(ids),
        };
        Some(PtsSet { repr, _elem: PhantomData })
    }

    /// Builds a set from strictly ascending element indices that stays
    /// a sorted vec however many there are, so no bitmap is sized by
    /// its largest id: the form for a read-only set over ids that are
    /// untrusted or spread over a universe far wider than the set.
    /// Every operation stays correct; membership is a binary search,
    /// and an insertion promotes to a bitmap as usual. Returns `None`
    /// unless `ids` is strictly ascending.
    pub fn sorted_from_ascending(ids: Vec<u32>) -> Option<Self> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(PtsSet { repr: Repr::Small(ids), _elem: PhantomData })
    }
}

/// A reusable bitmap accumulator for unions of many sets: OR sets in
/// with [`UnionScratch::add`], then [`UnionScratch::take`] the union.
///
/// Only the span of words the added sets touched is scanned and
/// cleared, so one scratch serves many small unions over a large
/// universe without re-zeroing it.
#[derive(Debug, Default)]
pub struct UnionScratch {
    words: Vec<u64>,
    /// Touched span `[lo, hi)` of `words`; `lo == hi` while empty.
    lo: usize,
    hi: usize,
}

impl UnionScratch {
    /// Creates an empty accumulator (no allocation until the first add).
    pub fn new() -> Self {
        Self::default()
    }

    /// ORs `set` into the accumulator: word-wise for a dense set, a bit
    /// per element for a small one.
    pub fn add<T: Elem>(&mut self, set: &PtsSet<T>) {
        let (first, end) = match &set.repr {
            Repr::Small(v) => match (v.first(), v.last()) {
                (Some(&a), Some(&b)) => (a as usize / WORD_BITS, b as usize / WORD_BITS + 1),
                _ => return,
            },
            Repr::Dense { words, .. } => (0, words.len()),
        };
        if self.words.len() < end {
            self.words.resize(end, 0);
        }
        match &set.repr {
            Repr::Small(v) => {
                for &i in v {
                    self.words[i as usize / WORD_BITS] |= 1u64 << (i as usize % WORD_BITS);
                }
            }
            Repr::Dense { words, .. } => {
                for (t, &s) in self.words.iter_mut().zip(words) {
                    *t |= s;
                }
            }
        }
        if self.lo < self.hi {
            (self.lo, self.hi) = (self.lo.min(first), self.hi.max(end));
        } else {
            (self.lo, self.hi) = (first, end);
        }
    }

    /// Returns the union of everything added since the last `take`, in
    /// the representation an element-by-element build would have, and
    /// leaves the accumulator empty.
    pub fn take<T: Elem>(&mut self) -> PtsSet<T> {
        let mut out = PtsSet::new();
        for (w, word) in self.words[self.lo..self.hi].iter_mut().enumerate() {
            if *word != 0 {
                out.push_word(self.lo + w, *word);
                *word = 0;
            }
        }
        (self.lo, self.hi) = (0, 0);
        out
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

/// One operand of a word-wise kernel, read a bitmap word at a time.
/// Word indices must be non-decreasing across calls (a repeat is
/// allowed, for the boundary word two ranges share).
enum WordReader<'a> {
    Dense(&'a [u64]),
    /// A small set's sorted ids; `pos` is the first id not in an
    /// earlier word than the last one read.
    Small { ids: &'a [u32], pos: usize },
}

impl WordReader<'_> {
    /// The operand's bitmap word `w` (zero past its end).
    fn word(&mut self, w: usize) -> u64 {
        match self {
            WordReader::Dense(words) => words.get(w).copied().unwrap_or(0),
            WordReader::Small { ids, pos } => {
                while *pos < ids.len() && (ids[*pos] as usize) / WORD_BITS < w {
                    *pos += 1;
                }
                let mut bits = 0u64;
                for &i in &ids[*pos..] {
                    if i as usize / WORD_BITS != w {
                        break;
                    }
                    bits |= 1u64 << (i as usize % WORD_BITS);
                }
                bits
            }
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
    /// bitmap may keep trailing zero words after [`PtsSet::remove`]).
    /// Only mixed pairs walk the elements.
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
    fn fingerprint_is_length_disambiguated() {
        // A set and a strict prefix of it must not collide, and the
        // fingerprint is a pure function of the elements, not of the
        // insertion order or the representation.
        let fp = |ids: &[u32]| ids.iter().copied().collect::<PtsSet<u32>>().fingerprint();
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 2]));
        assert_ne!(fp(&[]), fp(&[0]));
        assert_ne!(fp(&[5]), fp(&[69]), "same bit, different word");
        assert_eq!(fp(&[5, 9]), fp(&[9, 5]));
        let many: Vec<u32> = (0..40).map(|i| i * 3).collect();
        let mut dense: PtsSet<u32> = many.iter().copied().collect();
        assert_eq!(dense.fingerprint(), fp(&many));
        dense.remove(0);
        assert_eq!(dense.fingerprint(), fp(&many[1..]));
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
