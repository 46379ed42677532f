//! Solver introspection timeline: a fixed-capacity ring buffer of
//! per-wave propagation records.
//!
//! The counter/gauge layer answers *how much* — pops, words, peak
//! footprint. This module answers *where*: which topological levels
//! and pointer populations the fixpoint spends its time and
//! memory on. The solver pushes one [`WaveRecord`] per level batch
//! (small batches coalesce, see below), at most one retained
//! [`MemoryBreakdown`] (the peak run's), and one retained top-K
//! [`HotPointer`] table.
//!
//! # Ring-buffer semantics
//!
//! The record ring has a fixed capacity chosen at construction
//! ([`Timeline::new`]; the process-global instance uses
//! [`DEFAULT_RECORD_CAP`]). Pushing into a full
//! ring overwrites the oldest entry and increments a `dropped`
//! counter, so a runaway run degrades to "most recent window" instead
//! of unbounded memory. Recording is one short mutex hold per push —
//! no allocation beyond the record itself — and is fully inert while
//! [`crate::enabled`] is `false`.
//!
//! # Arming
//!
//! The timeline costs the solver a clock read per pop, per-pointer
//! tallies and a memory scan at finalize, and only a profile reads it.
//! So a solver run records into it only while it is *armed*
//! ([`Timeline::arm`]); registry counters and gauges record whenever
//! [`crate::enabled`] is on, armed or not. `repro --profile` and the
//! `--heartbeat` pulse arm the global timeline; nothing else does.
//!
//! # Level sentinels
//!
//! `WaveRecord::level` is a position in the solver's topological order
//! of the condensed copy graph (the label gap its pointers sit in), or
//! one of three sentinels for work that has no single level:
//! [`LEVEL_SEED`] (statement processing / call-graph discovery),
//! [`LEVEL_MIXED`] (coalesced small batches), and [`LEVEL_OVERHEAD`]
//! (cycle collapse, wave scheduling, solver init/finalize). Real
//! levels are clamped below the sentinels. The JSON export maps them
//! to `-1`, `-2`, and `-3`.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

use crate::json::escape;

/// `WaveRecord::level` sentinel: statement processing (seeding new
/// objects, edges, and call-graph reachability), not propagation at
/// any one level. Exported to JSON as `-1`.
pub const LEVEL_SEED: u32 = u32::MAX;

/// `WaveRecord::level` sentinel: a coalesced run of batches too small
/// to warrant standalone records. Exported to JSON as `-2`.
pub const LEVEL_MIXED: u32 = u32::MAX - 1;

/// `WaveRecord::level` sentinel: solver bookkeeping — cycle collapse,
/// wave heap construction, init and finalize. Exported as `-3`.
pub const LEVEL_OVERHEAD: u32 = u32::MAX - 2;

/// Ring capacity of the global wave-record ring (~6 MiB worst case).
pub const DEFAULT_RECORD_CAP: usize = 65_536;

/// One timeline entry: the cost and volume of one level batch (or one
/// coalesced run of small batches) of the solver's fixpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaveRecord {
    /// 1-based solver-run id within the process (several runs share
    /// the global timeline; 0 only in hand-built records).
    pub run: u32,
    /// 1-based wave number within the run.
    pub wave: u32,
    /// Topological position of the batch, or a `LEVEL_*` sentinel.
    pub level: u32,
    /// Worklist pops consumed (= representatives resolved; one
    /// coalesced delta per representative).
    pub pops: u32,
    /// Total objects across the popped deltas.
    pub objects: u64,
    /// Total 64-bit words of the popped deltas — the "words
    /// propagated" volume the top-K table ranks by.
    pub words: u64,
    /// Sequential resolve phase (DSU row normalization, cast-mask
    /// materialization) — also carries init/finalize/bookkeeping time
    /// on `LEVEL_OVERHEAD` records.
    pub resolve_ns: u64,
    /// Propagate phase: processing the popped deltas (copy edges, field
    /// loads/stores, call dispatch).
    pub propagate_ns: u64,
    /// Merge phase: statement processing, whether triggered by the
    /// popped deltas or (on `LEVEL_SEED` records) the seed drain.
    pub merge_ns: u64,
}

impl WaveRecord {
    /// Total attributed solver time of this record.
    pub fn total_ns(&self) -> u64 {
        self.resolve_ns + self.propagate_ns + self.merge_ns
    }

    /// Folds `other` into `self` (used when coalescing small batches):
    /// volumes and times add.
    pub fn absorb(&mut self, other: &WaveRecord) {
        self.pops += other.pops;
        self.objects += other.objects;
        self.words += other.words;
        self.resolve_ns += other.resolve_ns;
        self.propagate_ns += other.propagate_ns;
        self.merge_ns += other.merge_ns;
    }
}

/// A point-in-time attribution of points-to memory by population. The
/// timeline retains the sample with the largest `rep_words` — a run
/// takes its one sample right after its seal deduplicates the rows, so
/// the retained sample's `rep_words` equals the peak run's
/// `pts_peak_words` exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Solver-run id the sample came from.
    pub run: u32,
    /// Wave at which the sample was taken (0 = finalize).
    pub wave: u32,
    /// **Physical** words held by representative points-to sets: rows
    /// sharing one interned allocation count it once (the population
    /// `pts_peak_words` measures).
    pub rep_words: u64,
    /// **Logical** words across representative rows: every row counts
    /// its full set, shared or not. `logical_words - rep_words` is the
    /// footprint hash-consing saved; always `>= rep_words`.
    pub logical_words: u64,
    /// Words held by pending (coalesced, not yet popped) delta sets.
    pub pending_words: u64,
    /// Words held by per-type cast masks (not part of
    /// `pts_peak_words`; reported as an extra category).
    pub mask_words: u64,
}

/// One row of the hottest-pointer table: a representative pointer (or
/// collapsed SCC) ranked by total delta words popped through it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotPointer {
    /// 1-based rank (1 = hottest).
    pub rank: u32,
    /// Human-readable pointer identity (solver `PtrKey` debug form).
    pub key: String,
    /// Total 64-bit words of deltas popped at this representative.
    pub words: u64,
    /// Worklist pops consumed by this representative.
    pub pops: u64,
    /// Final points-to set size (objects).
    pub set_len: u64,
    /// Pointers collapsed into this representative (1 = no cycle).
    pub scc_size: u32,
}

/// Fixed-capacity overwrite-oldest ring.
#[derive(Debug)]
struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index the next push lands at once the ring is full.
    next: usize,
    dropped: u64,
}

impl<T: Clone> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring { buf: Vec::new(), cap: cap.max(1), next: 0, dropped: 0 }
    }

    fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Entries in chronological order (oldest surviving entry first).
    fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }
}

/// The timeline store. One process-global instance lives behind
/// [`crate::timeline()`]; tests may create private instances with
/// [`Timeline::new`]. Every recording entry point is a no-op while
/// [`crate::enabled`] is `false`.
#[derive(Debug)]
pub struct Timeline {
    records: Mutex<Ring<WaveRecord>>,
    /// Retained breakdown (largest `rep_words` wins).
    memory: Mutex<Option<MemoryBreakdown>>,
    /// Retained top-K table and the score (total words popped by its
    /// run) that won it the slot.
    top: Mutex<(u64, Vec<HotPointer>)>,
    next_run: AtomicU32,
    armed: AtomicBool,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new(DEFAULT_RECORD_CAP)
    }
}

impl Timeline {
    /// Creates an empty timeline with the given record-ring capacity
    /// (clamped to at least 1).
    pub fn new(record_cap: usize) -> Self {
        Timeline {
            records: Mutex::new(Ring::new(record_cap)),
            memory: Mutex::new(None),
            top: Mutex::new((0, Vec::new())),
            next_run: AtomicU32::new(0),
            armed: AtomicBool::new(false),
        }
    }

    /// Arms (or disarms) the timeline: solver runs that start while it
    /// is armed record their waves, memory sample and hottest pointers
    /// into it (see the module docs). [`Timeline::reset`] leaves the
    /// setting alone.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Whether a solver run starting now should record: armed, and
    /// recording enabled.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed) && crate::enabled()
    }

    /// Allocates the next 1-based solver-run id (0 while recording is
    /// disabled, so disabled runs leave no trace of having happened).
    pub fn begin_run(&self) -> u32 {
        if !crate::enabled() {
            return 0;
        }
        self.next_run.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Appends one wave record (no-op while recording is disabled).
    pub fn record_wave(&self, rec: WaveRecord) {
        if !crate::enabled() {
            return;
        }
        self.records.lock().unwrap().push(rec);
    }

    /// Offers a memory sample; the timeline keeps the one with the
    /// largest `rep_words`. Returns `true` when the offered sample was
    /// retained (callers mirror retained samples into gauges).
    pub fn offer_memory(&self, sample: MemoryBreakdown) -> bool {
        if !crate::enabled() {
            return false;
        }
        let mut slot = self.memory.lock().unwrap();
        let retain = slot.as_ref().is_none_or(|cur| sample.rep_words >= cur.rep_words);
        if retain {
            *slot = Some(sample);
        }
        retain
    }

    /// Offers a hottest-pointer table scored by its run's total popped
    /// words; the highest-scoring table is retained. Returns `true`
    /// when the offered table was retained.
    pub fn offer_top_pointers(&self, score: u64, rows: Vec<HotPointer>) -> bool {
        if !crate::enabled() {
            return false;
        }
        let mut slot = self.top.lock().unwrap();
        let retain = slot.1.is_empty() || score >= slot.0;
        if retain {
            *slot = (score, rows);
        }
        retain
    }

    /// Wave records in chronological order (oldest surviving first).
    pub fn records(&self) -> Vec<WaveRecord> {
        self.records.lock().unwrap().snapshot()
    }

    /// Wave records overwritten because the ring was full.
    pub fn records_dropped(&self) -> u64 {
        self.records.lock().unwrap().dropped
    }

    /// The retained memory breakdown, if any run sampled one.
    pub fn memory(&self) -> Option<MemoryBreakdown> {
        self.memory.lock().unwrap().clone()
    }

    /// The retained hottest-pointer table (empty if never offered).
    pub fn top_pointers(&self) -> Vec<HotPointer> {
        self.top.lock().unwrap().1.clone()
    }

    /// Clears everything: the record ring, the retained memory sample
    /// and top-K table, and the run-id counter.
    pub fn reset(&self) {
        self.records.lock().unwrap().clear();
        *self.memory.lock().unwrap() = None;
        *self.top.lock().unwrap() = (0, Vec::new());
        self.next_run.store(0, Ordering::Relaxed);
    }

    /// Renders the timeline as one JSON object:
    /// `{"records": [...], "records_dropped": N, "memory": {...}|null,
    /// "top_pointers": [...]}`. Level sentinels export as negative
    /// numbers (seed `-1`, mixed `-2`, overhead `-3`).
    pub fn export_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"records\":[");
        for (i, r) in self.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"run\":{},\"wave\":{},\"level\":{},\"pops\":{},\"objects\":{},\
                 \"words\":{},\"resolve_ns\":{},\"propagate_ns\":{},\"merge_ns\":{}}}",
                r.run,
                r.wave,
                level_json(r.level),
                r.pops,
                r.objects,
                r.words,
                r.resolve_ns,
                r.propagate_ns,
                r.merge_ns,
            );
        }
        let _ = write!(out, "],\"records_dropped\":{},", self.records_dropped());
        match self.memory() {
            Some(m) => {
                let _ = write!(
                    out,
                    "\"memory\":{{\"run\":{},\"wave\":{},\"rep_words\":{},\
                     \"logical_words\":{},\"pending_words\":{},\"mask_words\":{}}},",
                    m.run, m.wave, m.rep_words, m.logical_words, m.pending_words, m.mask_words,
                );
            }
            None => out.push_str("\"memory\":null,"),
        }
        out.push_str("\"top_pointers\":[");
        for (i, p) in self.top_pointers().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rank\":{},\"key\":\"{}\",\"words\":{},\"pops\":{},\
                 \"set_len\":{},\"scc_size\":{}}}",
                p.rank,
                escape(&p.key),
                p.words,
                p.pops,
                p.set_len,
                p.scc_size,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Maps a level (or sentinel) to its JSON representation.
fn level_json(level: u32) -> i64 {
    match level {
        LEVEL_SEED => -1,
        LEVEL_MIXED => -2,
        LEVEL_OVERHEAD => -3,
        l => l as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(wave: u32) -> WaveRecord {
        WaveRecord { run: 1, wave, level: 3, pops: 1, ..WaveRecord::default() }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let t = Timeline::new(4);
        for w in 0..10 {
            t.record_wave(rec(w));
        }
        let got = t.records();
        assert_eq!(got.len(), 4);
        assert_eq!(got.iter().map(|r| r.wave).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(t.records_dropped(), 6);
        t.reset();
        assert!(t.records().is_empty());
        assert_eq!(t.records_dropped(), 0);
    }

    #[test]
    fn disabled_timeline_is_inert() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(false);
        let t = Timeline::new(4);
        t.record_wave(rec(1));
        assert!(!t.offer_memory(MemoryBreakdown { rep_words: 10, ..Default::default() }));
        assert!(!t.offer_top_pointers(5, vec![]));
        assert_eq!(t.begin_run(), 0);
        crate::set_enabled(true);
        assert!(t.records().is_empty());
        assert!(t.memory().is_none());
        assert!(t.top_pointers().is_empty());
    }

    #[test]
    fn armed_needs_arming_and_recording() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let t = Timeline::new(4);
        assert!(!t.armed(), "a new timeline starts unarmed");
        t.arm(true);
        assert!(t.armed());
        t.reset();
        assert!(t.armed(), "reset keeps the arming");
        crate::set_enabled(false);
        assert!(!t.armed(), "disabled recording disarms");
        crate::set_enabled(true);
        t.arm(false);
        assert!(!t.armed());
    }

    #[test]
    fn memory_retains_largest_rep_words() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let t = Timeline::new(4);
        assert!(t.offer_memory(MemoryBreakdown { run: 1, rep_words: 100, ..Default::default() }));
        assert!(!t.offer_memory(MemoryBreakdown { run: 2, rep_words: 50, ..Default::default() }));
        assert!(t.offer_memory(MemoryBreakdown {
            run: 3,
            rep_words: 100,
            logical_words: 240,
            ..Default::default()
        }));
        let kept = t.memory().unwrap();
        assert_eq!(kept.run, 3);
        assert_eq!(kept.logical_words, 240);
        let doc = crate::json::parse(&t.export_json()).expect("export parses");
        let mem = doc.get("memory").unwrap();
        assert_eq!(mem.get("rep_words").unwrap().as_f64(), Some(100.0));
        assert_eq!(mem.get("logical_words").unwrap().as_f64(), Some(240.0));
    }

    #[test]
    fn export_json_parses_and_maps_sentinels() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let t = Timeline::new(8);
        t.record_wave(WaveRecord { run: 1, wave: 1, level: LEVEL_SEED, ..Default::default() });
        t.record_wave(WaveRecord { run: 1, wave: 1, level: 7, pops: 2, ..Default::default() });
        t.offer_top_pointers(
            9,
            vec![HotPointer {
                rank: 1,
                key: "Var(\"quoted\")".to_owned(),
                words: 9,
                pops: 2,
                set_len: 4,
                scc_size: 1,
            }],
        );
        let doc = crate::json::parse(&t.export_json()).expect("export parses");
        let records = doc.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("level").unwrap().as_f64(), Some(-1.0));
        assert_eq!(records[1].get("level").unwrap().as_f64(), Some(7.0));
        let top = doc.get("top_pointers").unwrap().as_array().unwrap();
        assert_eq!(top[0].get("key").unwrap().as_str(), Some("Var(\"quoted\")"));
    }
}
