//! # pts — hybrid points-to sets
//!
//! The set representation under the `pta` solver's fixpoint: a points-to
//! set is a set of small dense integer ids (abstract objects). Profiles
//! of the worklist solver show two regimes: the overwhelming majority of
//! sets hold a handful of objects (the median delta is a single object),
//! while a few hub pointers accumulate thousands. [`PtsSet`] serves both
//! with one 32-byte type:
//!
//! - **inline**: up to six sorted ids stored in the `PtsSet` itself —
//!   no allocation to create, fill, clone or drop, which is what most
//!   rows and deltas are;
//! - **small**: a sorted, deduplicated heap `Vec<u32>` of up to
//!   [`SMALL_MAX`] ids — cache-friendly and cheap to scan. An inline
//!   set spills into it once, with room for all [`SMALL_MAX`];
//! - **sparse**: once the set outgrows [`SMALL_MAX`] elements, a sorted
//!   `Vec` of 16-byte chunks `(word index, bits)`, one per *nonzero*
//!   64-bit word of the set's bitmap. Union, difference and
//!   intersection become chunk-wise merge walks that gallop through
//!   the longer operand, and a set's memory grows with its nonzero
//!   words, not with its largest id: the zero words before, between
//!   and after an object's clusters are never stored.
//!
//! Inline and small sets read alike, as one sorted slice, so the
//! kernels below have a sorted and a sparse case; where a kernel needs
//! chunks from a sorted operand, its at most [`SMALL_MAX`] ids are
//! grouped by word on the stack.
//!
//! The solver's kernels work on whole 64-bit words wherever the
//! source operand is sparse:
//!
//! - [`PtsSet::difference`] / [`PtsSet::difference_in_ranges`] — the
//!   contribution of a delta to a copy edge's target (`self \ other`,
//!   optionally restricted to a cast's id runs), computed read-only;
//! - [`PtsSet::union_with`] — ORs a contribution into the target row
//!   (or a pending delta) in place, without building a delta. An empty
//!   contribution means the edge is quiescent.
//!
//! Each reads the other operand a word at a time, whatever its
//! representation, and builds its output a word at a time: a sorted
//! output takes the word's ids, and a sparse output appends the chunk.
//! An output spills and turns sparse exactly where inserting its
//! elements one by one would, so kernel outputs have the representation
//! (and [`PtsSet::mem_words`]) of an element-by-element build. Only a
//! sorted source — at most [`SMALL_MAX`] elements — is walked element
//! by element.
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
//! analysis result — are stored once each in an
//! [`intern::SetInterner`], a table of unique sets that names each
//! distinct content by a dense set id.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod intern;

pub use intern::SetInterner;

use std::cmp::Ordering;
use std::marker::PhantomData;

/// A set element: a cheap bijection with a dense `usize` index.
///
/// Implementations must be consistent (`from_index(into_index(x)) ==
/// x`), and indices must fit in a `u32`. Ids need not be dense: a
/// sparse set's memory grows with the number of distinct 64-id words
/// its elements fall in, not with the largest index, so ids that
/// cluster cost least.
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

/// Sets with at most this many elements stay sorted (inline up to six,
/// then in a heap vec); the next insertion makes them sparse.
pub const SMALL_MAX: usize = 16;

const WORD_BITS: u32 = 64;

/// A sorted, disjoint, coalesced list of half-open index ranges
/// `[lo, hi)` — the compiled form of a membership mask whose members
/// cluster into contiguous id runs.
///
/// The `pta` solver numbers heap objects in class-hierarchy preorder,
/// so the subtype cone behind each cast filter is a handful of runs;
/// storing the runs instead of a materialized mask set turns cast
/// filtering into range-bounded word arithmetic
/// ([`PtsSet::difference_in_ranges`]) and shrinks the mask footprint
/// to one word per run.
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

/// The most ids a set stores in place: as many as fit beside the
/// length byte in the 32 bytes a heap vec or chunk list handle takes
/// anyway (the unit tests pin that size).
const INLINE_CAP: usize = 6;

/// One nonzero 64-bit word of a sparse set: the ids `64 * word ..
/// 64 * word + 64` that `bits` marks. 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Chunk {
    word: u32,
    bits: u64,
}

impl Chunk {
    /// The chunk of the word holding id `i`, with only `i`'s bit set.
    fn of(i: u32) -> Chunk {
        Chunk { word: i / WORD_BITS, bits: 1u64 << (i % WORD_BITS) }
    }

    /// The id of this chunk's bit `b`.
    fn id(self, b: u32) -> u32 {
        self.word * WORD_BITS + b
    }
}

#[derive(Clone)]
enum Repr {
    /// Sorted ascending, deduplicated element indices stored in place:
    /// the first `len` of `ids`.
    Inline { len: u8, ids: [u32; INLINE_CAP] },
    /// Sorted ascending, deduplicated element indices on the heap: at
    /// most [`SMALL_MAX`] of them.
    Small(Vec<u32>),
    /// The set's nonzero words as chunks, strictly ascending by word
    /// index; no chunk is zero. `len` caches the population count.
    Sparse { chunks: Vec<Chunk>, len: u32 },
}

impl Repr {
    /// A sorted set over the strictly ascending `ids`: in place if they
    /// fit, else in `ids` itself.
    fn sorted(ids: Vec<u32>) -> Repr {
        if ids.len() <= INLINE_CAP {
            let mut inline = [0; INLINE_CAP];
            inline[..ids.len()].copy_from_slice(&ids);
            Repr::Inline { len: ids.len() as u8, ids: inline }
        } else {
            Repr::Small(ids)
        }
    }

    /// A sparse set over the strictly ascending `ids`, with room for
    /// `extra` more chunks.
    fn sparse(ids: &[u32], extra: usize) -> Repr {
        let words = ids.windows(2).filter(|w| w[0] / WORD_BITS != w[1] / WORD_BITS).count() + 1;
        let mut chunks: Vec<Chunk> = Vec::with_capacity(words + extra);
        for &i in ids {
            let c = Chunk::of(i);
            match chunks.last_mut() {
                Some(last) if last.word == c.word => last.bits |= c.bits,
                _ => chunks.push(c),
            }
        }
        Repr::Sparse { chunks, len: ids.len() as u32 }
    }
}

/// A set as the read paths see it: the inline and heap sorted
/// representations are one sorted slice.
#[derive(Clone, Copy)]
enum View<'a> {
    Sorted(&'a [u32]),
    Sparse(&'a [Chunk]),
}

/// The ids of the set bits of `bits`, the word whose first id is
/// `base`, in ascending order.
fn bit_ids(base: u32, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            base + b
        })
    })
}

/// The first position at or after `from` whose chunk's word is at least
/// `word` (`chunks.len()` if none). Gallops — probes `from`, `from + 1`,
/// `from + 3`, `from + 7`, … — then binary-searches the last gap, so a
/// merge walk pays O(log distance) per step and a walk of a short
/// operand over a long one never scans the long one.
fn seek(chunks: &[Chunk], from: usize, word: u32) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < chunks.len() && chunks[hi].word < word {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(chunks.len());
    lo + chunks[lo..hi].partition_point(|c| c.word < word)
}

/// The position after the last chunk before `end` whose word is at most
/// `word` (0 if none): [`seek`] galloping down from `end`.
fn seek_back(chunks: &[Chunk], end: usize, word: u32) -> usize {
    let (mut hi, mut step) = (end, 1);
    loop {
        let lo = hi.saturating_sub(step);
        if lo == hi {
            return hi;
        }
        if chunks[lo].word <= word {
            return lo + 1 + chunks[lo + 1..hi].partition_point(|c| c.word <= word);
        }
        hi = lo;
        step *= 2;
    }
}

/// The bits of word `w` that the run `[lo, hi)` covers; the run must
/// overlap the word.
fn run_mask(lo: u32, hi: u32, w: u32) -> u64 {
    let base = u64::from(w) * u64::from(WORD_BITS);
    let from = u64::from(lo).max(base) - base;
    let to = (u64::from(hi) - base).min(u64::from(WORD_BITS));
    (!0u64 >> (u64::from(WORD_BITS) - (to - from))) << from
}

/// A sorted set's ids grouped into chunks on the stack, so that the
/// chunk kernels read every representation alike. A sorted set holds
/// at most [`SMALL_MAX`] ids, so it has at most that many chunks.
struct Grouped {
    chunks: [Chunk; SMALL_MAX],
    n: usize,
}

impl Grouped {
    fn new(ids: &[u32]) -> Grouped {
        debug_assert!(ids.len() <= SMALL_MAX, "a sorted set holds at most SMALL_MAX ids");
        let mut g = Grouped { chunks: [Chunk { word: 0, bits: 0 }; SMALL_MAX], n: 0 };
        for &i in ids {
            let c = Chunk::of(i);
            if g.n > 0 && g.chunks[g.n - 1].word == c.word {
                g.chunks[g.n - 1].bits |= c.bits;
            } else {
                g.chunks[g.n] = c;
                g.n += 1;
            }
        }
        g
    }

    fn as_slice(&self) -> &[Chunk] {
        &self.chunks[..self.n]
    }
}

/// ORs the strictly ascending chunks `src` into the sparse set `dst`
/// (population count `len`) in place, with at most one reallocation.
///
/// A forward walk ORs each source word the target already has into it
/// and counts the ones it lacks; the target then grows by exactly that
/// many chunks, and a walk from the back slides each run of target
/// chunks up to its final slot and drops the missing chunk in front
/// of it. Chunks below the first missing one never move.
fn merge_into(dst: &mut Vec<Chunk>, len: &mut u32, src: &[Chunk]) {
    let mut missing = 0;
    let mut pos = 0;
    for c in src {
        pos = seek(dst, pos, c.word);
        match dst.get_mut(pos) {
            Some(d) if d.word == c.word => {
                *len += (c.bits & !d.bits).count_ones();
                d.bits |= c.bits;
            }
            _ => {
                *len += c.bits.count_ones();
                missing += 1;
            }
        }
    }
    if missing == 0 {
        return;
    }
    // `dst[..end]` holds the target chunks not yet moved, `dst[out..]`
    // the merged tail.
    let (mut end, mut out) = (dst.len(), dst.len() + missing);
    dst.reserve_exact(missing);
    dst.resize(out, Chunk { word: 0, bits: 0 });
    for c in src.iter().rev() {
        let at = seek_back(dst, end, c.word);
        dst.copy_within(at..end, out - (end - at));
        out -= end - at;
        end = at;
        if at > 0 && dst[at - 1].word == c.word {
            continue; // present: ORed in by the forward walk
        }
        out -= 1;
        dst[out] = *c;
        if out == end {
            break; // every missing chunk placed; the rest is in place
        }
    }
}

/// Calls `sink` with the `(word, bits)` pairs of the union of two
/// strictly ascending chunk lists, in ascending word order.
fn merge_or(a: &[Chunk], b: &[Chunk], sink: &mut dyn FnMut(u32, u64)) {
    let (mut i, mut j) = (0, 0);
    loop {
        let c = match (a.get(i), b.get(j)) {
            (None, None) => return,
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), Some(&y)) => match x.word.cmp(&y.word) {
                Ordering::Less => {
                    i += 1;
                    x
                }
                Ordering::Greater => {
                    j += 1;
                    y
                }
                Ordering::Equal => {
                    (i, j) = (i + 1, j + 1);
                    Chunk { word: x.word, bits: x.bits | y.bits }
                }
            },
        };
        sink(c.word, c.bits);
    }
}

/// A points-to set: hybrid inline / sorted-vec / sparse-chunk over the
/// indices of an [`Elem`] type.
///
/// # Examples
///
/// ```
/// let a: pts::PtsSet<u32> = [1u32, 5, 3].into_iter().collect();
/// let mut target = pts::PtsSet::new();
/// target.insert(3u32);
/// let delta = a.difference(&target);
/// assert_eq!(delta.to_vec(), vec![1, 5]); // 3 was already present
/// target.union_with(&delta);
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
    /// Creates an empty set. A set allocates nothing until it outgrows
    /// its inline capacity of six elements.
    pub const fn new() -> Self {
        PtsSet {
            repr: Repr::Inline { len: 0, ids: [0; INLINE_CAP] },
            _elem: PhantomData,
        }
    }

    fn view(&self) -> View<'_> {
        match &self.repr {
            Repr::Inline { len, ids } => View::Sorted(&ids[..usize::from(*len)]),
            Repr::Small(v) => View::Sorted(v),
            Repr::Sparse { chunks, .. } => View::Sparse(chunks),
        }
    }

    /// Runs `f` on the set's chunks: a sparse set's own, or a sorted
    /// set's ids grouped by word on the stack.
    fn chunked<R>(&self, f: impl FnOnce(&[Chunk]) -> R) -> R {
        match self.view() {
            View::Sparse(chunks) => f(chunks),
            View::Sorted(ids) => f(Grouped::new(ids).as_slice()),
        }
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Small(v) => v.len(),
            Repr::Sparse { len, .. } => *len as usize,
        }
    }

    /// Returns `true` if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `elem` is a member.
    pub fn contains(&self, elem: T) -> bool {
        let Ok(i) = u32::try_from(elem.into_index()) else {
            return false;
        };
        match self.view() {
            View::Sorted(ids) => ids.binary_search(&i).is_ok(),
            View::Sparse(chunks) => {
                let c = Chunk::of(i);
                chunks
                    .binary_search_by_key(&c.word, |x| x.word)
                    .is_ok_and(|pos| chunks[pos].bits & c.bits != 0)
            }
        }
    }

    /// Inserts `elem`; returns `true` if it was not already present.
    pub fn insert(&mut self, elem: T) -> bool {
        let key = u32::try_from(elem.into_index()).expect("element index fits u32");
        let pos = match self.view() {
            View::Sorted(ids) => match ids.binary_search(&key) {
                Ok(_) => return false,
                Err(pos) => pos,
            },
            View::Sparse(_) => 0,
        };
        match &mut self.repr {
            Repr::Inline { len, ids } if usize::from(*len) < INLINE_CAP => {
                ids.copy_within(pos..usize::from(*len), pos + 1);
                ids[pos] = key;
                *len += 1;
            }
            Repr::Inline { .. } => self.spill().insert(pos, key),
            Repr::Small(v) if v.len() < SMALL_MAX => v.insert(pos, key),
            Repr::Small(v) => {
                self.repr = Repr::sparse(v, 1);
                return self.insert(elem);
            }
            Repr::Sparse { chunks, len } => {
                let c = Chunk::of(key);
                match chunks.binary_search_by_key(&c.word, |x| x.word) {
                    Ok(at) if chunks[at].bits & c.bits != 0 => return false,
                    Ok(at) => chunks[at].bits |= c.bits,
                    Err(at) => chunks.insert(at, c),
                }
                *len += 1;
            }
        }
        true
    }

    /// Removes `elem`; returns `true` if it was present. A set keeps
    /// its representation: a heap vec stays on the heap, and a sparse
    /// set stays sparse, however few elements remain. A sparse set
    /// drops a chunk its last element leaves, so it never holds a
    /// zero word.
    pub fn remove(&mut self, elem: T) -> bool {
        let Ok(key) = u32::try_from(elem.into_index()) else {
            return false;
        };
        match &mut self.repr {
            Repr::Inline { len, ids } => match ids[..usize::from(*len)].binary_search(&key) {
                Ok(pos) => {
                    ids.copy_within(pos + 1..usize::from(*len), pos);
                    *len -= 1;
                    true
                }
                Err(_) => false,
            },
            Repr::Small(v) => match v.binary_search(&key) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Repr::Sparse { chunks, len } => {
                let c = Chunk::of(key);
                match chunks.binary_search_by_key(&c.word, |x| x.word) {
                    Ok(at) if chunks[at].bits & c.bits != 0 => {
                        chunks[at].bits &= !c.bits;
                        if chunks[at].bits == 0 {
                            chunks.remove(at);
                        }
                        *len -= 1;
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    /// Moves an inline set's ids to a heap vec with room for
    /// [`SMALL_MAX`], so it never reallocates before it promotes, and
    /// borrows the vec.
    fn spill(&mut self) -> &mut Vec<u32> {
        if let Repr::Inline { len, ids } = &self.repr {
            let mut v = Vec::with_capacity(SMALL_MAX);
            v.extend_from_slice(&ids[..usize::from(*len)]);
            self.repr = Repr::Small(v);
        }
        let Repr::Small(v) = &mut self.repr else {
            unreachable!("only a sorted set spills")
        };
        v
    }

    /// Drops the spare capacity of a heap representation: the slots a
    /// spilled set keeps for growing to [`SMALL_MAX`], or chunks
    /// reserved past the last one. For a set that will not grow again.
    pub(crate) fn shrink_to_fit(&mut self) {
        match &mut self.repr {
            Repr::Inline { .. } => {}
            Repr::Small(v) => v.shrink_to_fit(),
            Repr::Sparse { chunks, .. } => chunks.shrink_to_fit(),
        }
    }

    /// Removes every element (a heap representation keeps its
    /// capacity).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Small(v) => v.clear(),
            Repr::Sparse { chunks, len } => {
                chunks.clear();
                *len = 0;
            }
        }
    }

    /// Iterates over the elements in ascending index order. Borrows the
    /// set; allocates nothing.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: match self.view() {
                View::Sorted(ids) => IterRepr::Sorted(ids.iter()),
                View::Sparse(chunks) => IterRepr::Sparse {
                    chunks: chunks.iter(),
                    cur: Chunk { word: 0, bits: 0 },
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

    /// Appends the bits of `add` at word `w` to an output under
    /// construction. Words arrive in ascending order (a word may
    /// repeat with disjoint, higher bits), so a sorted output appends
    /// its ids in order, and a sparse one appends a chunk or ORs into
    /// its last.
    ///
    /// The output changes representation exactly when inserting the
    /// bits one at a time would: it spills to the heap past
    /// `INLINE_CAP` elements and turns sparse past [`SMALL_MAX`], so the
    /// representation and [`PtsSet::mem_words`] match an
    /// element-by-element build.
    fn push_word(&mut self, w: u32, add: u64) {
        let n = self.len() + add.count_ones() as usize;
        let base = w * WORD_BITS;
        if let View::Sorted(ids) = self.view() {
            debug_assert!(ids.last().is_none_or(|&l| l < base + add.trailing_zeros()));
        }
        match &mut self.repr {
            Repr::Inline { len, ids } if n <= INLINE_CAP => {
                for (slot, id) in ids[usize::from(*len)..n].iter_mut().zip(bit_ids(base, add)) {
                    *slot = id;
                }
                *len = n as u8;
            }
            Repr::Inline { .. } if n <= SMALL_MAX => self.spill().extend(bit_ids(base, add)),
            Repr::Small(v) if n <= SMALL_MAX => v.extend(bit_ids(base, add)),
            Repr::Sparse { chunks, len } => {
                match chunks.last_mut() {
                    Some(last) if last.word == w => {
                        debug_assert_eq!(last.bits & add, 0, "pushed bits already present");
                        last.bits |= add;
                    }
                    last => {
                        debug_assert!(last.is_none_or(|l| l.word < w), "words not ascending");
                        chunks.push(Chunk { word: w, bits: add });
                    }
                }
                *len += add.count_ones();
            }
            _ => {
                let View::Sorted(ids) = self.view() else {
                    unreachable!("sparse handled above")
                };
                self.repr = Repr::sparse(ids, 1);
                self.push_word(w, add);
            }
        }
    }

    /// Builds a kernel output from the nonzero words `each` hands its
    /// sink, in the order [`PtsSet::push_word`] takes them. `each` runs
    /// twice: a counting pass, so that a sparse output is allocated
    /// once at its final chunk count instead of growing chunk by chunk,
    /// and the pass that fills it. An empty output, the common case,
    /// stops after the count.
    fn from_words(each: impl Fn(&mut dyn FnMut(u32, u64))) -> Self {
        let (mut n, mut chunks, mut last) = (0, 0, None);
        each(&mut |w, bits| {
            n += bits.count_ones() as usize;
            if last != Some(w) {
                chunks += 1;
                last = Some(w);
            }
        });
        let mut out = PtsSet::new();
        if n > SMALL_MAX {
            out.repr = Repr::Sparse { chunks: Vec::with_capacity(chunks), len: 0 };
        }
        if n > 0 {
            each(&mut |w, bits| out.push_word(w, bits));
        }
        debug_assert_eq!(out.len(), n, "the two passes disagree");
        out
    }

    /// Returns `(self ∩ ranges) \ other` as a fresh set: a cast-filtered
    /// copy edge's contribution to its target, reading the filter as
    /// coalesced id runs.
    ///
    /// A sparse `self` gallops to the first chunk of each run and masks
    /// only the chunks the run overlaps, with partial boundary words
    /// masked off; `other` is read a word at a time whatever its
    /// representation. A sorted `self` walks its elements through a
    /// run cursor ([`PtsSet::iter_in_ranges`], [`PtsSet::missing`]).
    pub fn difference_in_ranges(&self, ranges: &IdRanges, other: &PtsSet<T>) -> PtsSet<T> {
        match self.view() {
            View::Sparse(chunks) => PtsSet::from_words(|sink| {
                let mut ow = other.word_reader();
                let mut pos = 0;
                for &(lo, hi) in ranges.runs() {
                    let (w0, w1) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
                    pos = seek(chunks, pos, w0);
                    for c in chunks[pos..].iter().take_while(|c| c.word <= w1) {
                        let keep = c.bits & run_mask(lo, hi, c.word) & !ow.word(c.word);
                        if keep != 0 {
                            sink(c.word, keep);
                        }
                    }
                }
            }),
            View::Sorted(_) => other.missing(self.iter_in_ranges(ranges)),
        }
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

    /// Returns `self \ other` as a fresh set. A sparse `self` runs one
    /// chunk-wise pass (`other` read a word at a time, galloping
    /// through a sparse `other`); a sorted `self` walks its elements
    /// ([`PtsSet::missing`]).
    ///
    /// This is the solver's propagation primitive: the contribution of
    /// a delta to a copy edge's target, computed read-only so that an
    /// empty contribution never un-shares the target row; and, when a
    /// strongly connected component's members are merged, the part of
    /// the merged set some member's consumers have not seen yet.
    pub fn difference(&self, other: &PtsSet<T>) -> PtsSet<T> {
        match self.view() {
            View::Sparse(chunks) => PtsSet::from_words(|sink| {
                let mut ow = other.word_reader();
                for c in chunks {
                    let keep = c.bits & !ow.word(c.word);
                    if keep != 0 {
                        sink(c.word, keep);
                    }
                }
            }),
            View::Sorted(_) => other.missing(self),
        }
    }

    /// Returns the elements of `elems`, which must be strictly
    /// ascending, that `self` lacks, as a fresh set with the
    /// representation of an element-by-element build. `self` is read a
    /// word at a time through one forward cursor, galloping through a
    /// sparse `self`, so a run of elements costs one walk rather than
    /// one search each.
    pub fn missing(&self, elems: impl IntoIterator<Item = T>) -> PtsSet<T> {
        let mut have = self.word_reader();
        let mut out = PtsSet::new();
        for e in elems {
            let c = Chunk::of(u32::try_from(e.into_index()).expect("element index fits u32"));
            if have.word(c.word) & c.bits == 0 {
                out.push_word(c.word, c.bits);
            }
        }
        out
    }

    /// Unions `other` into `self` without computing a delta, in the
    /// representation an element-by-element build would have.
    ///
    /// A sparse `self` merges `other`'s chunks in place
    /// (`merge_into`): one forward walk and, if `other` brings new
    /// words, one reallocation and one walk from the back. A sorted
    /// `self` inserts element by element while the union surely fits
    /// [`SMALL_MAX`], and is otherwise rebuilt from a merge of both
    /// sets' chunks, in one allocation.
    pub fn union_with(&mut self, other: &PtsSet<T>) {
        if other.is_empty() {
            return;
        }
        if let Repr::Sparse { chunks, len } = &mut self.repr {
            other.chunked(|src| merge_into(chunks, len, src));
        } else if self.len() + other.len() <= SMALL_MAX {
            for e in other {
                self.insert(e);
            }
        } else {
            *self = self.chunked(|a| {
                other.chunked(|b| PtsSet::from_words(|sink| merge_or(a, b, sink)))
            });
        }
    }

    /// A word view of `self` for the chunk-wise kernels, which read a
    /// second operand one word at a time in ascending word order.
    fn word_reader(&self) -> WordReader<'_> {
        match self.view() {
            View::Sorted(ids) => WordReader::Sorted { ids, pos: 0 },
            View::Sparse(chunks) => WordReader::Sparse { chunks, pos: 0 },
        }
    }

    /// The content fingerprint the interner keys its table with: a
    /// 128-bit hash of the ascending `(word index, nonzero bits)` pairs
    /// of the set, then its length.
    ///
    /// A sparse set's chunks are that stream; a sorted set's ids are
    /// grouped into it by word. So the value depends only on the
    /// elements: an inline set, its heap twin and its sparse twin all
    /// fingerprint alike, matching representation-independent
    /// equality, and a sparse set hashes one pair per chunk instead of
    /// one value per element.
    pub fn fingerprint(&self) -> u128 {
        let mut f = fxhash::Fingerprint128::new();
        self.chunked(|chunks| {
            for c in chunks {
                f.write_u64(u64::from(c.word));
                f.write_u64(c.bits);
            }
        });
        f.write_u64(self.len() as u64);
        f.finish()
    }

    /// Returns `true` if the sets share an element. Two sparse sets
    /// merge their chunk lists, each side galloping past the other's
    /// gaps; otherwise the sorted side's elements probe the other
    /// through one forward cursor.
    pub fn intersects(&self, other: &PtsSet<T>) -> bool {
        let (a, b) = match (self.view(), other.view()) {
            (View::Sparse(a), View::Sparse(b)) => (a, b),
            (View::Sorted(ids), _) => return other.has_any(ids),
            (_, View::Sorted(ids)) => return self.has_any(ids),
        };
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].word.cmp(&b[j].word) {
                Ordering::Less => i = seek(a, i + 1, b[j].word),
                Ordering::Greater => j = seek(b, j + 1, a[i].word),
                Ordering::Equal if a[i].bits & b[j].bits != 0 => return true,
                Ordering::Equal => (i, j) = (i + 1, j + 1),
            }
        }
        false
    }

    /// Returns `true` if `self` holds one of the strictly ascending
    /// `ids`.
    fn has_any(&self, ids: &[u32]) -> bool {
        ids.iter().any(|&i| self.contains(T::from_index(i as usize)))
    }

    /// Memory footprint in 64-bit words (the `peak set words` metric):
    /// two per chunk of a sparse set (a word index and a word of bits),
    /// or a sorted set's occupancy at two ids per word, whether it is
    /// stored inline or on the heap.
    pub fn mem_words(&self) -> usize {
        match self.view() {
            View::Sorted(ids) => ids.len().div_ceil(2),
            View::Sparse(chunks) => 2 * chunks.len(),
        }
    }

    /// Builds a set from strictly ascending element indices in one go,
    /// in the representation an element-by-element build would have.
    /// Up to six ids are copied inline; a heap sorted result keeps
    /// `ids` as its storage; a sparse one takes one chunk per word the
    /// ids touch, allocated once, so no id however large sizes it.
    /// Returns `None` unless `ids` is strictly ascending.
    pub fn from_ascending(ids: Vec<u32>) -> Option<Self> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let repr = if ids.len() > SMALL_MAX {
            Repr::sparse(&ids, 0)
        } else {
            Repr::sorted(ids)
        };
        Some(PtsSet {
            repr,
            _elem: PhantomData,
        })
    }
}

/// One operand of a chunk-wise kernel, read a word at a time. Word
/// indices must be non-decreasing across calls (a repeat is allowed,
/// for the boundary word two ranges share).
enum WordReader<'a> {
    /// A sparse set's chunks; `pos` is the first chunk not below the
    /// last word read.
    Sparse { chunks: &'a [Chunk], pos: usize },
    /// A sorted set's ids; `pos` is the first id not in an earlier
    /// word than the last one read.
    Sorted { ids: &'a [u32], pos: usize },
}

impl WordReader<'_> {
    /// The operand's word `w` (zero where it has no element).
    fn word(&mut self, w: u32) -> u64 {
        match self {
            WordReader::Sparse { chunks, pos } => {
                *pos = seek(chunks, *pos, w);
                chunks.get(*pos).filter(|c| c.word == w).map_or(0, |c| c.bits)
            }
            WordReader::Sorted { ids, pos } => {
                while *pos < ids.len() && ids[*pos] / (WORD_BITS) < w {
                    *pos += 1;
                }
                let mut bits = 0u64;
                for &i in &ids[*pos..] {
                    let c = Chunk::of(i);
                    if c.word != w {
                        break;
                    }
                    bits |= c.bits;
                }
                bits
            }
        }
    }
}

impl<T: Elem> PartialEq for PtsSet<T> {
    /// Structural equality over the *elements*, independent of
    /// representation: a sparse set equals its sorted twin.
    ///
    /// Every interner fingerprint hit runs this comparison, so it works
    /// on the representation where it can: two sorted sets (inline or
    /// heap) compare as slices, two sparse sets chunk by chunk (a
    /// sparse set holds no zero chunk, so equal contents have equal
    /// chunks). Only sorted–sparse pairs walk the elements.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self.view(), other.view()) {
            (View::Sorted(a), View::Sorted(b)) => a == b,
            (View::Sparse(a), View::Sparse(b)) => a == b,
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
    Sorted(std::slice::Iter<'a, u32>),
    /// The chunks not yet started, and the rest of the current one.
    Sparse {
        chunks: std::slice::Iter<'a, Chunk>,
        cur: Chunk,
    },
}

impl<T: Elem> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.inner {
            IterRepr::Sorted(it) => it.next().map(|&i| T::from_index(i as usize)),
            IterRepr::Sparse { chunks, cur } => {
                while cur.bits == 0 {
                    *cur = *chunks.next()?;
                }
                let b = cur.bits.trailing_zeros();
                cur.bits &= cur.bits - 1;
                Some(T::from_index(cur.id(b) as usize))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_is_32_bytes() {
        // The inline capacity is what fits in this size; a bigger set
        // would cost every row and every delta more memory.
        assert_eq!(std::mem::size_of::<PtsSet<u32>>(), 32);
    }

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
    fn equality_crosses_representations() {
        let small: PtsSet<u32> = [3u32, 9].into_iter().collect();
        // An emptied sparse set refilled with a small set's elements.
        let mut sparse: PtsSet<u32> = (0u32..200).collect();
        sparse.clear();
        sparse.extend([9u32, 3]);
        assert!(matches!(sparse.repr, Repr::Sparse { .. }));
        assert_eq!(sparse, small);
        let mut big: PtsSet<u32> = (0u32..200).collect();
        let big_copy: PtsSet<u32> = (0u32..200).collect();
        assert_eq!(big, big_copy);
        big.insert(1000);
        assert_ne!(big, big_copy);
        assert_eq!(small, [9u32, 3].into_iter().collect::<PtsSet<u32>>());
    }

    #[test]
    fn difference_all_paths() {
        // small \ small
        let a: PtsSet<u32> = [1u32, 2, 3].into_iter().collect();
        let b: PtsSet<u32> = [2u32, 4].into_iter().collect();
        assert_eq!(a.difference(&b).to_vec(), vec![1, 3]);
        // sparse \ sparse, including words past the other's end
        let big_a: PtsSet<u32> = (0u32..200).collect();
        let big_b: PtsSet<u32> = (0u32..100).collect();
        assert_eq!(
            big_a.difference(&big_b).to_vec(),
            (100u32..200).collect::<Vec<_>>()
        );
        // sparse \ small and small \ sparse
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
        let mut sparse: PtsSet<u32> = many.iter().copied().collect();
        assert_eq!(sparse.fingerprint(), fp(&many));
        sparse.remove(0);
        assert_eq!(sparse.fingerprint(), fp(&many[1..]));
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

    fn chunks(words: &[u32]) -> Vec<Chunk> {
        words.iter().map(|&word| Chunk { word, bits: 1 << (word % 64) }).collect()
    }

    #[test]
    fn seek_and_seek_back_find_the_partition_points() {
        let c = chunks(&[2, 3, 5, 8, 13, 21, 34, 55, 89]);
        for from in 0..=c.len() {
            for word in 0..100 {
                let want = from.max(c.partition_point(|x| x.word < word));
                assert_eq!(seek(&c, from, word), want, "seek from {from} to {word}");
            }
        }
        for end in 0..=c.len() {
            for word in 0..100 {
                let want = c[..end].partition_point(|x| x.word <= word);
                assert_eq!(seek_back(&c, end, word), want, "seek_back below {end} to {word}");
            }
        }
    }

    /// The merge places chunks before, between and after the target's,
    /// ORs into the ones it shares, and grows the target exactly.
    #[test]
    fn merge_into_places_and_ors() {
        let mut dst = chunks(&[3, 7, 9]);
        dst.shrink_to_fit();
        let mut len = 3;
        let src = [
            Chunk { word: 1, bits: 1 },
            Chunk { word: 7, bits: 0b11 },
            Chunk { word: 8, bits: 1 },
            Chunk { word: 12, bits: 0b101 },
        ];
        merge_into(&mut dst, &mut len, &src);
        let words: Vec<u32> = dst.iter().map(|c| c.word).collect();
        assert_eq!(words, vec![1, 3, 7, 8, 9, 12]);
        assert_eq!(dst[2].bits, 0b11 | 1 << 7);
        assert_eq!(len, 3 + 1 + 2 + 1 + 2);
        assert_eq!(dst.capacity(), 6, "one exact reallocation");
    }

    #[test]
    fn run_mask_covers_the_run_within_the_word() {
        assert_eq!(run_mask(0, 64, 0), !0);
        assert_eq!(run_mask(3, 5, 0), 0b11000);
        assert_eq!(run_mask(60, 70, 0), 0xf << 60);
        assert_eq!(run_mask(60, 70, 1), 0b11_1111);
        assert_eq!(run_mask(0, u32::MAX, u32::MAX / 64), !0 >> 1);
    }
}
