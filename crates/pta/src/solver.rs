//! The worklist-based Andersen-style points-to solver with on-the-fly
//! call-graph construction.
//!
//! Semantics follow the standard subset-constraint formulation used by
//! Doop/Wala: flow-insensitive, field-sensitive, with a call graph
//! discovered during the fixpoint. Context sensitivity and heap
//! abstraction are pluggable ([`ContextSelector`], [`HeapAbstraction`]).
//!
//! # Difference propagation
//!
//! Points-to sets are [`pts::PtsSet`]s (hybrid sorted-vec / bitmap).
//! The worklist holds dirty *pointers*, not `(pointer, objects)` pairs:
//! each pointer carries one pending delta set into which all incoming
//! news is coalesced until the pointer is popped. Popping forwards only
//! that delta — never the full set — along copy edges: the edge's
//! contribution is [`pts::PtsSet::difference`] against the target,
//! ORed into the target with [`pts::PtsSet::union_with`], and it seeds
//! the next hop. Type-filtered (cast) edges restrict the contribution
//! to the cast's compiled id runs
//! ([`pts::PtsSet::difference_in_ranges`]) instead of walking objects
//! through a subtype test. All three kernels work a 64-bit word at a
//! time on a dense delta.
//!
//! # One wave driver over an incremental topological order
//!
//! Dirty pointers are processed in *waves*: the worklist is drained
//! into a priority queue keyed by each representative's label in an
//! incrementally maintained topological order of the condensed copy
//! graph (unfiltered edges between representatives; sources first),
//! so a delta crosses the acyclic core once per wave instead of
//! re-enqueueing downstream pointers over and over. A pointer dirtied
//! at or downstream of the wave's cursor joins the running wave; one
//! dirtied upstream waits for the next wave. `pta.wave_rounds` counts
//! the waves.
//!
//! The order lives in [`crate::order`]. A fresh pointer takes the next
//! label; a copy edge that arrives against the order is queued, and the
//! driver repairs the queue *between* pops — never while a consumer row
//! is being iterated — by a bidirectional search that moves only the
//! side that finished first. A repair that finds the new edge closing a
//! copy cycle hands the cycle back for collapse. So the order is exact
//! at every pop, every copy cycle is collapsed as soon as it closes,
//! and no pass ever walks the whole graph (bar the rare renumber of an
//! exhausted label gap, counted in `pta.collapse_sweeps`). Queue
//! entries whose label moved are re-queued under the new label when
//! popped.
//!
//! There is exactly one driver: [`AnalysisConfig::threads`] is
//! accepted and ignored, so every thread count runs the same solver
//! trace (enforced by `tests/thread_parity.rs`).
//!
//! # Cycle collapse
//!
//! Copy-edge cycles (mutually recursive parameter passing, `x = y; y =
//! x` chains) force every member pointer to converge to the same
//! points-to set — one delta hop per worklist pop, around and around.
//! Collapsed pointers are unioned in a [`dsu::DisjointSets`]. The
//! *representative* owns the single shared points-to set, the single
//! pending-delta slot, the merged consumer rows (copy edges, loads,
//! stores, calls) and the merged predecessor list; non-representatives
//! keep empty slots. Every solver entry point normalizes pointers
//! through `find()` before touching per-pointer state, and the final
//! [`AnalysisResult`] carries the redirect table so queries against
//! collapsed pointers resolve to the representative's set — collapse
//! is invisible in analysis results (members of an unfiltered copy
//! cycle provably converge to identical sets by mutual subset
//! inclusion).
//!
//! # Receiver-batched dispatch
//!
//! A call fires for every object that reaches its receiver variable —
//! per popped delta, and for the whole existing set when the call
//! registers. Both go through `dispatch_batch`, which walks the
//! receivers in ascending id order, resolves the target once per run of
//! same-type ids (contiguous under hierarchy numbering), and groups
//! consecutive receivers sharing `(target, callee context)`. Each group
//! seeds the callee's `this` with one `add_objects` and binds once.
//! Binding is bind-once: argument and return edges are a function of
//! the context-sensitive call edge alone, and edges are never removed,
//! so `bind_call` wires them only when `cs_cg_edges` reports the edge
//! as new. Callee contexts are probed without allocating
//! ([`ContextArena::append_truncated`]), and a selector that does not
//! read the receiver ([`ContextSelector::reads_receiver`]: k-CFA and
//! context-insensitive) is asked once per call and target rather than
//! once per receiver. `pta.dispatch_groups` counts the groups bound.
//!
//! # Hash-consed rows
//!
//! Representative points-to sets and pending deltas live behind
//! copy-on-write [`pts::PtsHandle`]s backed by one per-run
//! [`pts::SetInterner`]. (Cast filters are *not* sets at all: under the
//! hierarchy numbering each filter type's subtype cone compiles to a
//! [`pts::IdRanges`] list of a few `[lo, hi)` runs — see
//! [`crate::numbering`].) Context-sensitive runs produce thousands of
//! bit-identical rows (the same receiver objects under many calling
//! contexts); every [`SEAL_SWEEP_WAVES`] waves the solver *seals*
//! dirty rows — re-interning their content, keyed by a fingerprint of
//! the set's nonzero bitmap words ([`pts::PtsSet::fingerprint`]), so
//! identical rows collapse onto one shared allocation — and evicts
//! interner entries no live row references. Each sweep is recorded in
//! the timeline as solver overhead. Mutation is check-before-write: a
//! propagation step first computes the contribution (`difference` /
//! `difference_in_ranges`) against the target read-only, and only a
//! non-empty contribution touches `make_mut`, so quiescent edges never
//! break sharing. Sealing changes allocation identity, never content,
//! which is why every golden parity fingerprint is preserved
//! bit-for-bit. `pta.pts_interned` / `pta.pts_dedup_hits` /
//! `pta.intern_probe_ns` report the interner's work;
//! `pta.pts_peak_words` becomes the peak *physical* footprint
//! (deduplicated by allocation), with the logical (per-row) footprint
//! reported through the timeline's memory breakdown.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu::DisjointSets;
use jir::{
    AllocId, CallKind, CallSiteId, CallTarget, FieldId, MethodId, Program, Stmt, TypeId, VarId,
};
use obs::timeline::{
    HotPointer, MemoryBreakdown, WaveRecord, LEVEL_MIXED, LEVEL_OVERHEAD, LEVEL_SEED,
    LEVEL_UNRANKED,
};
use pts::{IdRanges, PtsHandle, PtsSet, SetInterner};

use crate::context::{ContextArena, ContextSelector, CtxId};
use crate::heap::HeapAbstraction;
use crate::object::{Numbering, ObjId, ObjTable};
use crate::order::{TopoOrder, GAP};
use crate::result::{AnalysisResult, AnalysisStats};
use crate::util::{FastMap, FastSet};

/// An interned pointer node in the constraint graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PtrId(pub(crate) u32);

impl PtrId {
    /// Returns the arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for PtrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ptr#{}", self.0)
    }
}

/// The identity of a pointer node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PtrKey {
    /// A context-qualified local variable.
    Var(CtxId, VarId),
    /// An instance field of an abstract object.
    Field(ObjId, FieldId),
    /// A static field.
    Static(FieldId),
}

/// Resource limits for one analysis run.
///
/// The paper gives every configuration a 5-hour budget on a server;
/// workloads here are laptop-scale, so the default is 60 seconds.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Wall-clock limit.
    pub time_limit: Duration,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            time_limit: Duration::from_secs(60),
        }
    }
}

impl Budget {
    /// A budget with the given wall-clock limit in seconds.
    pub fn seconds(s: u64) -> Self {
        Budget {
            time_limit: Duration::from_secs(s),
        }
    }
}

/// Returned when an analysis exceeds its [`Budget`] — the analogue of the
/// paper's "unscalable within 5 hours" entries.
#[derive(Clone, Debug)]
pub struct Unscalable {
    /// Time spent before giving up.
    pub elapsed: Duration,
    /// Reachable `(context, method)` pairs processed before giving up.
    pub methods_processed: usize,
    /// Phase timings and counters accumulated up to the overrun, so an
    /// aborted run still reports where the time went (the paper's
    /// "unscalable within 5h" rows carry partial data too). Boxed to
    /// keep the error variant small on the `Result` hot path.
    pub stats: Box<AnalysisStats>,
}

impl std::fmt::Display for Unscalable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "analysis exceeded its budget after {:.1}s ({} method contexts processed)",
            self.elapsed.as_secs_f64(),
            self.methods_processed
        )
    }
}

impl std::error::Error for Unscalable {}

/// One fully specified analysis run: context selector, heap
/// abstraction, resource budget, and observability — the single
/// construction path shared by the CLIs, the bench harness, and tests.
///
/// # Examples
///
/// ```
/// use pta::{AnalysisConfig, Budget, ContextInsensitive, AllocSiteAbstraction};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = jir::parse(
///     "class A {
///        entry static method main() { x = new A; return; }
///      }",
/// )?;
/// let result = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
///     .budget(Budget::seconds(30))
///     .run(&program)?;
/// assert_eq!(result.object_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnalysisConfig<S, H> {
    selector: S,
    heap: H,
    budget: Budget,
    observability: Option<bool>,
    numbering: Numbering,
}

impl<S: ContextSelector, H: HeapAbstraction> AnalysisConfig<S, H> {
    /// Creates a configuration with the default [`Budget`] and the
    /// process-wide observability setting.
    pub fn new(selector: S, heap: H) -> Self {
        AnalysisConfig {
            selector,
            heap,
            budget: Budget::default(),
            observability: None,
            numbering: Numbering::default(),
        }
    }

    /// Sets the object-id numbering scheme. The default,
    /// [`Numbering::Hierarchy`], lays object ids out in class-hierarchy
    /// preorder lanes so cast masks compile to short range lists;
    /// [`Numbering::Discovery`] is the dense historical numbering.
    /// Results are bit-identical modulo the id permutation (exposed
    /// through [`AnalysisResult::obj_canonical_index`]).
    ///
    /// [`AnalysisResult::obj_canonical_index`]:
    ///     crate::AnalysisResult::obj_canonical_index
    pub fn numbering(mut self, numbering: Numbering) -> Self {
        self.numbering = numbering;
        self
    }

    /// Accepts a worker-thread count and ignores it: the solver runs
    /// one sequential wave driver (see the module docs), so every value
    /// — `0` ("auto") included — produces the same run, counters and
    /// all. Kept so callers that size Mahjong's threads and the
    /// solver's from one setting need no special case.
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Replaces the resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Shorthand for [`AnalysisConfig::budget`] with a wall-clock limit
    /// in seconds.
    pub fn time_limit_secs(self, s: u64) -> Self {
        self.budget(Budget::seconds(s))
    }

    /// Forces telemetry on or off for this run only (the process-wide
    /// [`obs::set_enabled`] state is restored afterwards). Useful for
    /// timing runs that must not pay recording overhead, or for
    /// recording a single run inside an otherwise quiet batch.
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = Some(enabled);
        self
    }

    /// Runs the analysis to its fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Unscalable`] if the budget is exhausted first.
    pub fn run(&self, program: &Program) -> Result<AnalysisResult, Unscalable> {
        let solver = || {
            Solver::new(
                program,
                &self.selector,
                &self.heap,
                self.budget,
                self.numbering,
            )
        };
        match self.observability {
            None => solver().solve(),
            Some(on) => {
                let prev = obs::enabled();
                obs::set_enabled(on);
                let r = solver().solve();
                obs::set_enabled(prev);
                r
            }
        }
    }
}

/// A statically resolved call waiting for receiver objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PendingCall {
    site: CallSiteId,
    caller_ctx: CtxId,
    /// For special calls the target is fixed; virtual calls dispatch on
    /// the receiver type.
    fixed_target: Option<MethodId>,
}

/// A level batch (or coalesced run of batches) at least this expensive
/// always gets its own timeline record; cheaper work coalesces into a
/// `LEVEL_MIXED` residual so the record ring tracks where the time
/// went without one entry per micro-batch.
const TL_FLUSH_NS: u64 = 4_000_000;

/// Per-run budget of standalone records for level batches below
/// [`TL_FLUSH_NS`], so short runs (tests, tiny programs) still produce
/// per-level records instead of one coalesced blob.
const TL_FREE_RECORDS: u32 = 256;

/// Memory-attribution sampling period in waves (each sample scans
/// every points-to and pending set, so it must stay off the per-wave
/// hot path).
const TL_MEM_SAMPLE_WAVES: u64 = 64;

/// Rows in the hottest-pointer table published at finalize.
const TL_TOP_K: usize = 24;

/// Seal-sweep period in waves: dirty representative rows and masks are
/// re-interned (deduplicating identical contents onto one shared
/// allocation) and dead interner entries evicted every this many
/// waves, and once more at finalize. Sealing hashes every dirty row's
/// bitmap words, so it stays off the per-wave hot path; between sweeps
/// mutated rows simply stay dirty and unique.
const SEAL_SWEEP_WAVES: u64 = 64;

/// Copy-row length at which `add_edge` membership switches from a
/// linear scan of the row to a mirrored hash set. Short rows stay
/// scan-only (cheaper and allocation-free); hub rows — field pointers
/// replayed once per load/store-site × object — get the set.
const EDGE_SET_MIN: usize = 48;

/// A copy edge as stored in `succ` rows: target pointer plus the
/// optional declared-type filter carried by cast edges.
type Edge = (PtrId, Option<TypeId>);

/// Per-run funnel from the solver's hot loops into [`obs::timeline`].
///
/// Batches worth at least [`TL_FLUSH_NS`] become standalone
/// [`WaveRecord`]s; real level batches below that spend the per-run
/// [`TL_FREE_RECORDS`] budget; everything else is absorbed into a
/// `LEVEL_MIXED` residual flushed once it accumulates [`TL_FLUSH_NS`]
/// or at a wave boundary. When observability was off at run start
/// (`on == false`) every method returns immediately and no `Instant`
/// is ever read — the profiler is fully inert.
struct TimelineSink {
    on: bool,
    run: u32,
    wave: u32,
    free_left: u32,
    residual: WaveRecord,
}

impl TimelineSink {
    fn new() -> Self {
        let on = obs::enabled();
        TimelineSink {
            on,
            run: if on { obs::timeline().begin_run() } else { 0 },
            wave: 0,
            free_left: TL_FREE_RECORDS,
            residual: WaveRecord::default(),
        }
    }

    /// `Instant::now()` when recording, `None` otherwise — the hot
    /// loops thread these marks through so disabled runs never touch
    /// the clock.
    fn now(&self) -> Option<Instant> {
        if self.on {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Routes one measured batch record (run/wave stamped here).
    fn batch(&mut self, mut rec: WaveRecord) {
        if !self.on {
            return;
        }
        rec.run = self.run;
        rec.wave = self.wave;
        if rec.total_ns() >= TL_FLUSH_NS {
            obs::timeline().record_wave(rec);
            return;
        }
        // The free budget is reserved for real level batches (pops >
        // 0): tiny runs still get per-level records, while cheap
        // seed/overhead slivers always coalesce.
        if rec.pops > 0 && self.free_left > 0 {
            self.free_left -= 1;
            obs::timeline().record_wave(rec);
            return;
        }
        if self.residual.pops == 0 && self.residual.total_ns() == 0 {
            self.residual.wave = rec.wave;
        }
        self.residual.absorb(&rec);
        if self.residual.total_ns() >= TL_FLUSH_NS {
            self.flush_residual();
        }
    }

    /// Emits the coalesced residual as one `LEVEL_MIXED` record.
    fn flush_residual(&mut self) {
        if !self.on {
            return;
        }
        let rec = std::mem::take(&mut self.residual);
        if rec.pops == 0 && rec.total_ns() == 0 {
            return;
        }
        obs::timeline().record_wave(WaveRecord {
            run: self.run,
            level: LEVEL_MIXED,
            ..rec
        });
    }

    /// Records solver bookkeeping (collapse, wave scheduling, init and
    /// finalize) elapsed since `t0`; no-op on disabled runs.
    fn overhead_since(&mut self, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        self.batch(WaveRecord {
            level: LEVEL_OVERHEAD,
            resolve_ns: t0.elapsed().as_nanos() as u64,
            ..WaveRecord::default()
        });
    }

    /// Records a statement-processing (seed) drain elapsed since `t0`.
    fn seed_since(&mut self, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        self.batch(WaveRecord {
            level: LEVEL_SEED,
            merge_ns: t0.elapsed().as_nanos() as u64,
            ..WaveRecord::default()
        });
    }
}

struct Solver<'a, S, H> {
    program: &'a Program,
    selector: &'a S,
    heap: &'a H,
    budget: Budget,
    start: Instant,

    arena: ContextArena,
    objs: ObjTable,

    ptr_map: FastMap<PtrKey, PtrId>,
    ptr_keys: Vec<PtrKey>,
    pts: Vec<PtsHandle<ObjId>>,
    /// Pending (coalesced) delta per pointer; non-empty only on
    /// representatives, and only while the pointer awaits processing.
    /// Pending handles are transient (drained every wave) and are
    /// never sealed — only the long-lived `pts` rows and masks are.
    pending: Vec<PtsHandle<ObjId>>,
    /// Copy edges with an optional declared-type filter (cast edges).
    /// Rows live on representatives; targets are normalized lazily at
    /// processing time and eagerly when a cycle collapses onto the row.
    succ: Vec<Vec<Edge>>,
    /// Exact membership mirror of `succ` rows past [`EDGE_SET_MIN`]
    /// entries. `add_edge` is called once per (edge site, replayed
    /// object); on hub rows the linear `contains` scan is the solver's
    /// dominant cost, so long rows carry a hash set that must always
    /// reflect the row's exact (possibly unnormalized) contents.
    succ_set: Vec<Option<Box<FastSet<Edge>>>>,
    loads: Vec<Vec<(FieldId, PtrId)>>,
    stores: Vec<Vec<(FieldId, PtrId)>>,
    calls: Vec<Vec<PendingCall>>,
    /// Range-compiled cast masks: `ranges[ty]` covers every interned
    /// object whose type is a subtype of `ty`, as coalesced id runs
    /// (short under hierarchy numbering — that is the point of the
    /// numbering). Built lazily on the first cast against `ty`,
    /// maintained per newly interned object; never materialized as a
    /// set, so the old `pta.mem_mask_words` bitmap cost is gone.
    ranges: FastMap<TypeId, IdRanges>,

    /// The per-run hash-consing store behind every `pts` row and mask;
    /// shared with the [`AnalysisResult`] so query-surface caches
    /// deduplicate against the same table.
    interner: Arc<SetInterner<ObjId>>,
    /// The canonical sealed empty handle (interner id 0); cloned to
    /// materialize fresh rows and to drain pending slots without
    /// allocating.
    empty: PtsHandle<ObjId>,

    /// The cycle-collapse partition over pointer ids. A pointer's
    /// per-index solver state is authoritative only on `find(p) == p`.
    dsu: DisjointSets,
    /// Incremental topological order of the condensed copy graph: the
    /// wave key, the predecessor lists, and the repair queue.
    order: TopoOrder,

    reachable: FastSet<(CtxId, MethodId)>,
    reachable_methods: FastSet<MethodId>,
    /// Context-insensitive call-graph edges.
    cg_edges: FastSet<(CallSiteId, MethodId)>,
    /// Context-sensitive call-graph edge count.
    cs_cg_edges: FastSet<(CtxId, CallSiteId, CtxId, MethodId)>,
    /// Virtual-dispatch memo: `(site, receiver type) → target`.
    /// [`Program::dispatch`] hashes an owned `(String, usize)` key per
    /// call; resolving each pair once makes repeat dispatches
    /// allocation-free.
    dispatch_cache: FastMap<(CallSiteId, TypeId), Option<MethodId>>,
    /// Per-method return variables (cached).
    return_vars: Vec<Vec<VarId>>,
    /// Receiver buffer of the current dispatch group, reused across
    /// [`Solver::dispatch_batch`] calls.
    dispatch_group: Vec<ObjId>,

    worklist: VecDeque<PtrId>,
    /// Newly reachable `(context, method)` pairs awaiting statement
    /// processing (kept iterative to bound stack depth on deep call
    /// chains).
    pending_methods: VecDeque<(CtxId, MethodId)>,
    stats: AnalysisStats,

    /// Timeline funnel for this run (inert when observability was off
    /// at run start).
    tl: TimelineSink,
    /// Per-pointer popped-delta words, feeding the hottest-pointer
    /// table; grown alongside `pts` only while profiling.
    hot_words: Vec<u64>,
    /// Per-pointer worklist pops, feeding the hottest-pointer table.
    hot_pops: Vec<u32>,
    /// Largest pending-delta footprint seen at a wave boundary, where
    /// every dirty pointer still holds its delta.
    pending_peak_words: u64,
    /// `worklist_pops` already mirrored into `pta.live_worklist_pops`.
    live_pops_published: u64,
}

impl<'a, S: ContextSelector, H: HeapAbstraction> Solver<'a, S, H> {
    fn new(
        program: &'a Program,
        selector: &'a S,
        heap: &'a H,
        budget: Budget,
        numbering: Numbering,
    ) -> Self {
        let return_vars = program
            .method_ids()
            .map(|m| {
                program
                    .method(m)
                    .body()
                    .iter()
                    .filter_map(|s| match *s {
                        Stmt::Return { value } => value,
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let interner = Arc::new(SetInterner::new());
        let empty = interner.empty_handle();
        Solver {
            program,
            selector,
            heap,
            budget,
            start: Instant::now(),
            arena: ContextArena::new(),
            objs: ObjTable::with_numbering(program, numbering),
            ptr_map: FastMap::default(),
            ptr_keys: Vec::new(),
            pts: Vec::new(),
            pending: Vec::new(),
            succ: Vec::new(),
            succ_set: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            calls: Vec::new(),
            ranges: FastMap::default(),
            interner,
            empty,
            dsu: DisjointSets::new(0),
            order: TopoOrder::default(),
            reachable: FastSet::default(),
            reachable_methods: FastSet::default(),
            cg_edges: FastSet::default(),
            cs_cg_edges: FastSet::default(),
            dispatch_cache: FastMap::default(),
            return_vars,
            dispatch_group: Vec::new(),
            worklist: VecDeque::new(),
            pending_methods: VecDeque::new(),
            stats: AnalysisStats::default(),
            tl: TimelineSink::new(),
            hot_words: Vec::new(),
            hot_pops: Vec::new(),
            pending_peak_words: 0,
            live_pops_published: 0,
        }
    }

    fn solve(mut self) -> Result<AnalysisResult, Unscalable> {
        {
            let _init = obs::span("solver.init");
            let t0 = self.tl.now();
            let empty = self.arena.empty();
            self.mark_reachable(empty, self.program.entry());
            self.stats.init_time = self.start.elapsed();
            self.tl.overhead_since(t0);
        }

        let fixpoint_start = Instant::now();
        let fixpoint_span = obs::span("solver.fixpoint");
        let delta_hist = obs::histogram("pta.worklist_delta_size");
        let mut since_check = 0usize;
        'fixpoint: loop {
            // Statement processing first: it seeds objects and edges the
            // wave below will propagate.
            let t_seed = if self.pending_methods.is_empty() {
                None
            } else {
                self.tl.now()
            };
            while let Some((ctx, method)) = self.pending_methods.pop_front() {
                self.process_method(ctx, method);
            }
            self.tl.seed_since(t_seed);
            if self.worklist.is_empty() {
                break 'fixpoint;
            }

            // Wave boundary: repair the order for the edges statement
            // processing added, then queue every dirty pointer by label.
            let t_over = self.tl.now();
            self.repair_order();
            self.stats.wave_rounds += 1;
            self.tl.wave = self.stats.wave_rounds as u32;
            if self.tl.on {
                // Every dirty pointer still holds its delta here; a
                // collapsed cycle's representative may be queued twice.
                let mut ids: Vec<u32> = self.worklist.iter().map(|p| p.0).collect();
                ids.sort_unstable();
                ids.dedup();
                let live: u64 = ids
                    .iter()
                    .map(|&i| self.pending[i as usize].mem_words() as u64)
                    .sum();
                self.pending_peak_words = self.pending_peak_words.max(live);
            }
            let dirty: Vec<PtrId> = self.worklist.drain(..).collect();
            let mut wave: BinaryHeap<Reverse<(u64, u32)>> = dirty
                .into_iter()
                .map(|p| Reverse((self.label(p), p.0)))
                .collect();
            let mut next_wave: Vec<PtrId> = Vec::new();
            self.tl.overhead_since(t_over);

            if self.run_wave(&mut wave, &mut next_wave, &delta_hist, &mut since_check) {
                drop(fixpoint_span);
                return Err(self.overrun(fixpoint_start));
            }
            self.worklist.extend(next_wave);
            // Seal before any memory sample so the sample sees the
            // deduplicated footprint the sweep just established.
            if self.stats.wave_rounds.is_multiple_of(SEAL_SWEEP_WAVES) {
                let t0 = self.tl.now();
                self.seal_dirty();
                self.tl.overhead_since(t0);
            }
            if self.tl.on {
                obs::counter("pta.live_wave_rounds").inc();
                let pops = self.stats.worklist_pops;
                obs::counter("pta.live_worklist_pops").add(pops - self.live_pops_published);
                self.live_pops_published = pops;
                if self.stats.wave_rounds.is_multiple_of(TL_MEM_SAMPLE_WAVES) {
                    self.sample_memory(self.stats.wave_rounds as u32);
                }
            }
        }
        drop(fixpoint_span);
        self.stats.fixpoint_time = fixpoint_start.elapsed();

        let finalize_start = Instant::now();
        let finalize_span = obs::span("solver.finalize");
        self.stats.context_count = self.arena.len();
        self.stats.call_graph_edges = self.cg_edges.len() as u64;
        // One last seal sweep deduplicates whatever mutated since the
        // previous one; `seal_dirty` folds the post-seal physical
        // footprint into the running `pts_peak_words` maximum.
        self.seal_dirty();
        self.stats.pts_interned = self.interner.interned();
        self.stats.pts_dedup_hits = self.interner.dedup_hits();
        self.stats.dsu_ops = self.dsu.ops();
        self.stats.collapse_sweeps = self.order.renumbers;
        self.stats.order_search_edges = self.order.edges_scanned;
        self.stats.mask_ranges = self.ranges.values().map(|r| r.run_count() as u64).sum();
        if obs::enabled() {
            let pts_hist = obs::histogram("pta.points_to_set_size");
            for set in &self.pts {
                pts_hist.record(set.len() as u64);
            }
            obs::gauge("pta.pointer_nodes").set(self.pts.len() as i64);
        }
        if self.tl.on {
            // Final memory attribution. Every sample is taken right
            // after a seal sweep, so the retained (largest-`rep_words`)
            // sample's physical footprint is exactly the
            // `pts_peak_words` running maximum this run reports.
            self.sample_memory(0);
            self.publish_top_pointers();
            obs::gauge("pta.pending_peak_words").set(self.pending_peak_words as i64);
        }
        // The order and the consumer rows are dead past the fixpoint;
        // free them before the result builds its caches.
        self.order = TopoOrder::default();
        self.succ = Vec::new();
        self.succ_set = Vec::new();
        self.loads = Vec::new();
        self.stores = Vec::new();
        self.calls = Vec::new();
        let result = AnalysisResult::from_parts(
            self.arena,
            self.objs,
            self.ptr_keys,
            self.ptr_map,
            self.pts,
            self.interner,
            self.dsu.snapshot(),
            self.reachable,
            self.reachable_methods,
            self.cg_edges,
            self.cs_cg_edges.len(),
            AnalysisStats::default(), // placeholder, replaced below
        );
        drop(finalize_span);
        self.stats.finalize_time = finalize_start.elapsed();
        self.tl.batch(WaveRecord {
            level: LEVEL_OVERHEAD,
            resolve_ns: self.stats.finalize_time.as_nanos() as u64,
            ..WaveRecord::default()
        });
        self.tl.flush_residual();
        self.stats.elapsed = self.start.elapsed();
        self.stats.publish();
        Ok(result.with_stats(self.stats))
    }

    /// Final bookkeeping of a budget-overrun exit.
    fn overrun(&mut self, fixpoint_start: Instant) -> Unscalable {
        self.stats.fixpoint_time = fixpoint_start.elapsed();
        self.stats.elapsed = self.start.elapsed();
        self.stats.context_count = self.arena.len();
        self.stats.call_graph_edges = self.cg_edges.len() as u64;
        self.seal_dirty();
        self.stats.pts_interned = self.interner.interned();
        self.stats.pts_dedup_hits = self.interner.dedup_hits();
        self.stats.dsu_ops = self.dsu.ops();
        self.stats.collapse_sweeps = self.order.renumbers;
        self.stats.order_search_edges = self.order.edges_scanned;
        self.stats.mask_ranges = self.ranges.values().map(|r| r.run_count() as u64).sum();
        if self.tl.on {
            // An aborted run may still be the process peak: sample it
            // so the memory categories cover whatever `pts_peak_words`
            // the bench record ends up reporting.
            self.sample_memory(self.stats.wave_rounds as u32);
            self.publish_top_pointers();
            obs::gauge("pta.pending_peak_words").set(self.pending_peak_words as i64);
            self.tl.flush_residual();
        }
        self.stats.publish();
        Unscalable {
            elapsed: self.start.elapsed(),
            methods_processed: self.reachable.len(),
            stats: Box::new(self.stats.clone()),
        }
    }

    /// Points-to row footprint as `(physical, logical)` words:
    /// physical counts each allocation once (rows sealed onto the same
    /// interned set share one), logical counts every row as if it were
    /// unshared — the pre-interning number, and the dedup win is their
    /// ratio.
    fn pts_words(&self) -> (u64, u64) {
        let mut seen: FastSet<usize> = FastSet::default();
        let mut physical = 0u64;
        let mut logical = 0u64;
        for h in &self.pts {
            let w = h.mem_words() as u64;
            logical += w;
            if seen.insert(h.addr()) {
                physical += w;
            }
        }
        (physical, logical)
    }

    /// Re-interns every dirty points-to row, evicts interner entries
    /// nothing references anymore, and folds the post-seal physical
    /// footprint into the `pts_peak_words` running maximum. Probe time
    /// lands in `intern_probe_ns`. (Cast masks used to be sealed here
    /// too; as compiled range tables they are never interned at all.)
    fn seal_dirty(&mut self) {
        let t0 = Instant::now();
        for h in &mut self.pts {
            h.seal(&self.interner);
        }
        self.interner.evict_dead();
        self.stats.intern_probe_ns += t0.elapsed().as_nanos() as u64;
        let (physical, _) = self.pts_words();
        self.stats.pts_peak_words = self.stats.pts_peak_words.max(physical);
    }

    /// Takes one memory-attribution sample (`wave` 0 = finalize) and
    /// mirrors it into the `pta.mem_*` gauges when it becomes the
    /// retained (largest-`rep_words`) sample. Scans every set, so
    /// callers keep it off the per-wave hot path.
    fn sample_memory(&mut self, wave: u32) {
        let (rep_words, logical_words) = self.pts_words();
        let pending_words: u64 = self.pending.iter().map(|s| s.mem_words() as u64).sum();
        // Compiled range tables cost one word per run — the whole
        // point of the compilation; this attribution used to be the
        // mask bitmaps' footprint.
        let mask_words: u64 = self.ranges.values().map(|r| r.mem_words() as u64).sum();
        self.pending_peak_words = self.pending_peak_words.max(pending_words);
        self.stats.pts_peak_words = self.stats.pts_peak_words.max(rep_words);
        obs::gauge("pta.live_pts_words").set(rep_words as i64);
        let retained = obs::timeline().offer_memory(MemoryBreakdown {
            run: self.tl.run,
            wave,
            rep_words,
            logical_words,
            pending_words,
            mask_words,
        });
        if retained {
            obs::gauge("pta.mem_rep_words").set(rep_words as i64);
            obs::gauge("pta.mem_logical_words").set(logical_words as i64);
            obs::gauge("pta.mem_pending_words").set(pending_words as i64);
            obs::gauge("pta.mem_mask_words").set(mask_words as i64);
        }
    }

    /// Builds the hottest-pointer table (top [`TL_TOP_K`] popped-delta
    /// word totals) and offers it to the timeline, scored by this
    /// run's total popped words.
    fn publish_top_pointers(&self) {
        let total: u64 = self.hot_words.iter().sum();
        if total == 0 {
            return;
        }
        let mut idx: Vec<u32> = (0..self.hot_words.len() as u32)
            .filter(|&i| self.hot_words[i as usize] > 0)
            .collect();
        idx.sort_unstable_by_key(|&i| (Reverse(self.hot_words[i as usize]), i));
        idx.truncate(TL_TOP_K);
        // Count collapsed-SCC members for just the selected reps.
        let mut scc_size: FastMap<u32, u32> = idx.iter().map(|&i| (i, 0)).collect();
        for p in 0..self.pts.len() {
            if let Some(c) = scc_size.get_mut(&(self.dsu.find(p) as u32)) {
                *c += 1;
            }
        }
        let rows: Vec<HotPointer> = idx
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let ii = i as usize;
                HotPointer {
                    rank: k as u32 + 1,
                    key: format!("{:?}", self.ptr_keys[ii]),
                    words: self.hot_words[ii],
                    pops: u64::from(self.hot_pops[ii]),
                    set_len: self.pts[self.dsu.find(ii)].len() as u64,
                    scc_size: scc_size.get(&i).copied().unwrap_or(1).max(1),
                }
            })
            .collect();
        obs::timeline().offer_top_pointers(total, rows);
    }

    // --- Order maintenance and cycle collapse ------------------------------

    /// Returns the representative of `p` in the collapse partition.
    fn rep(&self, p: PtrId) -> PtrId {
        PtrId(self.dsu.find(p.index()) as u32)
    }

    /// Topological label of `p`'s representative (low = upstream).
    fn label(&self, p: PtrId) -> u64 {
        self.order.label(self.dsu.find(p.index()))
    }

    /// Repairs every queued out-of-order copy edge, collapsing the
    /// cycles the repairs uncover. Runs only between pops: collapse
    /// merges consumer rows, so no row may be under iteration.
    fn repair_order(&mut self) {
        for (x, y) in self.order.take_repairs() {
            let (x, y) = (self.rep(x), self.rep(y));
            if let Some(cycle) = self.order.repair(x, y, &self.succ, &self.dsu) {
                self.collapse_scc(&cycle);
            }
        }
    }

    /// Routes pointers dirtied since the last routing step: downstream
    /// of the wave cursor joins the running wave, upstream waits for
    /// the next one.
    fn route_dirty(
        &mut self,
        wave: &mut BinaryHeap<Reverse<(u64, u32)>>,
        next_wave: &mut Vec<PtrId>,
        cursor: u64,
    ) {
        while let Some(q) = self.worklist.pop_front() {
            let l = self.label(q);
            if l >= cursor {
                wave.push(Reverse((l, q.0)));
            } else {
                next_wave.push(q);
            }
        }
    }

    /// Processes one wave: pops dirty pointers in label order,
    /// repairing the order between pops. Returns `true` on budget
    /// overrun.
    fn run_wave(
        &mut self,
        wave: &mut BinaryHeap<Reverse<(u64, u32)>>,
        next_wave: &mut Vec<PtrId>,
        delta_hist: &obs::Histogram,
        since_check: &mut usize,
    ) -> bool {
        // Consecutive pops within one label gap coalesce into one
        // timeline record.
        let mut cur = WaveRecord::default();
        let mut cur_any = false;
        while let Some(Reverse((cursor, pi))) = wave.pop() {
            if self.order.has_repairs() {
                let t0 = self.tl.now();
                self.repair_order();
                self.route_dirty(wave, next_wave, cursor);
                self.tl.overhead_since(t0);
            }

            let ptr = PtrId(pi);
            // A stale entry (pointer collapsed into a representative
            // or already drained by an earlier duplicate) carries no
            // pending delta; skip it without counting a pop. An entry
            // whose label moved since it was queued goes back under
            // its current label.
            if self.pending[ptr.index()].is_empty() {
                continue;
            }
            let label = self.label(ptr);
            if label != cursor {
                wave.push(Reverse((label, pi)));
                continue;
            }

            *since_check += 1;
            if *since_check >= 4096 {
                *since_check = 0;
                if self.start.elapsed() > self.budget.time_limit {
                    if cur_any {
                        self.tl.batch(std::mem::take(&mut cur));
                    }
                    self.tl.flush_residual();
                    return true;
                }
            }

            // Draining swaps in the shared empty handle and unwraps the
            // taken handle in place (pending handles are uniquely owned).
            let delta = self.take_pending(ptr).into_set();
            self.stats.worklist_pops += 1;
            delta_hist.record(delta.len() as u64);
            if self.tl.on {
                let level = (label / GAP).min(u64::from(LEVEL_UNRANKED - 1)) as u32;
                if cur_any && cur.level != level {
                    self.tl.batch(std::mem::take(&mut cur));
                }
                cur.level = level;
                cur_any = true;
                cur.pops += 1;
                cur.objects += delta.len() as u64;
                cur.words += delta.mem_words() as u64;
                self.hot_words[ptr.index()] += delta.mem_words() as u64;
                self.hot_pops[ptr.index()] += 1;
            }
            let t0 = self.tl.now();
            self.process(ptr, &delta);
            let t1 = self.tl.now();
            while let Some((ctx, method)) = self.pending_methods.pop_front() {
                self.process_method(ctx, method);
            }
            if let (Some(t0), Some(t1)) = (t0, t1) {
                cur.propagate_ns += t1.duration_since(t0).as_nanos() as u64;
                cur.merge_ns += t1.elapsed().as_nanos() as u64;
            }
            self.route_dirty(wave, next_wave, cursor);
        }
        if cur_any {
            self.tl.batch(std::mem::take(&mut cur));
        }
        self.tl.flush_residual();
        false
    }

    /// Collapses one strongly connected component (all members must be
    /// current representatives): unions the members, moves every
    /// member's points-to set, pending delta, and consumer rows onto
    /// the surviving representative, and queues whatever some member's
    /// consumers have not seen yet.
    fn collapse_scc(&mut self, members: &[u32]) {
        debug_assert!(members.len() > 1);
        for w in members.windows(2) {
            self.dsu.union(w[0] as usize, w[1] as usize);
        }
        let r = self.dsu.find(members[0] as usize);

        let mut merged: PtsSet<ObjId> = PtsSet::new();
        let mut pend: PtsSet<ObjId> = PtsSet::new();
        let mut olds: Vec<(PtsHandle<ObjId>, bool)> = Vec::with_capacity(members.len());
        for &m in members {
            let mi = m as usize;
            let pts_m = std::mem::replace(&mut self.pts[mi], self.empty.clone());
            let pend_m = self.take_pending(PtrId(m));
            pend.union_with(&pend_m);
            merged.union_with(&pts_m);
            olds.push((pts_m, self.has_consumers(mi)));
        }
        // A member's consumers have seen `pts \ pending`; after the
        // merge they hang off the representative, so the pending delta
        // must cover `merged \ (pts \ pending) = (merged \ pts) ∪
        // pending` for every consumer-carrying member. Replaying an
        // object a consumer already saw is idempotent, so the union
        // over members is sound.
        for (old, has_consumers) in &olds {
            if *has_consumers && old.len() != merged.len() {
                pend.union_with(&merged.difference(old));
            }
        }

        let mut succ_r: Vec<(PtrId, Option<TypeId>)> = Vec::new();
        let mut loads_r: Vec<(FieldId, PtrId)> = Vec::new();
        let mut stores_r: Vec<(FieldId, PtrId)> = Vec::new();
        let mut calls_r: Vec<PendingCall> = Vec::new();
        for &m in members {
            let mi = m as usize;
            succ_r.append(&mut self.succ[mi]);
            self.succ_set[mi] = None;
            loads_r.append(&mut self.loads[mi]);
            stores_r.append(&mut self.stores[mi]);
            calls_r.append(&mut self.calls[mi]);
        }
        // Normalize the merged copy row; intra-SCC unfiltered edges
        // became self-loops and can never contribute again. (Filtered
        // self-loops are kept but skipped at processing time.)
        for e in &mut succ_r {
            e.0 = PtrId(self.dsu.find(e.0.index()) as u32);
        }
        succ_r.retain(|&(to, f)| !(to.index() == r && f.is_none()));
        succ_r.sort_unstable();
        succ_r.dedup();
        loads_r.sort_unstable();
        loads_r.dedup();
        stores_r.sort_unstable();
        stores_r.dedup();
        calls_r.sort_unstable();
        calls_r.dedup();
        self.succ[r] = succ_r;
        self.rebuild_succ_set(r);
        self.order.absorb(members, r);
        self.loads[r] = loads_r;
        self.stores[r] = stores_r;
        self.calls[r] = calls_r;

        self.stats.scc_collapsed_ptrs += (members.len() - 1) as u64;
        self.pts[r] = PtsHandle::from_set(merged);
        if !pend.is_empty() {
            self.pending[r] = PtsHandle::from_set(pend);
            self.worklist.push_back(PtrId(r as u32));
        }
    }

    // --- Pointer graph primitives ----------------------------------------

    /// Re-derives the membership mirror of `succ[i]` after the row was
    /// mutated in place (normalization, collapse merge, tidy). Keeps
    /// the invariant: a mirror exists iff the row is long, and answers
    /// membership over exactly the row's current contents.
    fn rebuild_succ_set(&mut self, i: usize) {
        if self.succ[i].len() >= EDGE_SET_MIN {
            self.succ_set[i] = Some(Box::new(self.succ[i].iter().copied().collect()));
        } else {
            self.succ_set[i] = None;
        }
    }

    fn ptr(&mut self, key: PtrKey) -> PtrId {
        if let Some(&p) = self.ptr_map.get(&key) {
            return p;
        }
        let p = PtrId(u32::try_from(self.ptr_keys.len()).expect("too many pointers"));
        self.ptr_map.insert(key, p);
        self.ptr_keys.push(key);
        self.pts.push(self.empty.clone());
        self.pending.push(self.empty.clone());
        self.succ.push(Vec::new());
        self.succ_set.push(None);
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        self.calls.push(Vec::new());
        self.dsu.push();
        self.order.push();
        if self.tl.on {
            self.hot_words.push(0);
            self.hot_pops.push(0);
        }
        p
    }

    fn var_ptr(&mut self, ctx: CtxId, var: VarId) -> PtrId {
        self.ptr(PtrKey::Var(ctx, var))
    }

    /// Interns an abstract object and keeps the lazily compiled range
    /// tables consistent: a table must cover every object whose type
    /// passes its cast, including objects interned after it was built.
    /// Under hierarchy numbering same-type ids are consecutive, so the
    /// insert almost always extends an existing run in place.
    fn intern_obj(&mut self, hctx: CtxId, alloc: AllocId) -> ObjId {
        let before = self.objs.len();
        let obj = self.objs.intern(hctx, alloc, self.program);
        if self.objs.len() > before && !self.ranges.is_empty() {
            let oty = self.objs.ty(obj);
            for (&ty, runs) in self.ranges.iter_mut() {
                if self.program.is_subtype(oty, ty) {
                    runs.insert_id(obj.0);
                }
            }
        }
        obj
    }

    /// Compiles the range table for `ty` if this is the first cast
    /// against it: the sorted ids of every object in `ty`'s subtype
    /// cone, coalesced into runs.
    fn ensure_ranges(&mut self, ty: TypeId) {
        if self.ranges.contains_key(&ty) {
            return;
        }
        let mut ids: Vec<u32> = self
            .objs
            .iter()
            .filter(|&o| self.program.is_subtype(self.objs.ty(o), ty))
            .map(|o| o.0)
            .collect();
        ids.sort_unstable();
        self.ranges.insert(ty, IdRanges::from_sorted_ids(ids));
    }

    /// Returns `true` if anything observes the pointer's points-to set:
    /// an outgoing copy edge, a registered load/store, or a call
    /// dispatching on it.
    fn has_consumers(&self, i: usize) -> bool {
        !self.succ[i].is_empty()
            || !self.loads[i].is_empty()
            || !self.stores[i].is_empty()
            || !self.calls[i].is_empty()
    }

    /// Merges `delta` into the pointer's pending set, enqueueing the
    /// pointer on the empty→non-empty transition. `ptr` must already be
    /// a representative whose points-to set absorbed the delta.
    ///
    /// A delta arriving at a pointer with no consumers is dropped, not
    /// queued: the objects already live in `pts(ptr)`, and every
    /// consumer-registration path (`add_edge`, load/store registration,
    /// receiver-call registration) replays the full existing set when a
    /// consumer appears later — so popping a sink pointer can never do
    /// work. This skips the single useless pop most pointers would
    /// otherwise get.
    fn queue_delta(&mut self, ptr: PtrId, delta: PtsSet<ObjId>) {
        debug_assert_eq!(self.dsu.find(ptr.index()), ptr.index());
        if delta.is_empty() || !self.has_consumers(ptr.index()) {
            return;
        }
        let i = ptr.index();
        if self.pending[i].is_empty() {
            // Empty slots hold the shared empty handle; adopt the delta
            // wholesale instead of copying into it.
            self.pending[i] = PtsHandle::from_set(delta);
            self.worklist.push_back(ptr);
        } else {
            // A non-empty pending handle is uniquely owned (built by
            // `from_set` above), so `make_mut` mutates in place.
            self.pending[i].make_mut().union_with(&delta);
        }
    }

    /// Drains the pointer's pending handle, leaving the shared empty
    /// handle behind.
    fn take_pending(&mut self, ptr: PtrId) -> PtsHandle<ObjId> {
        std::mem::replace(&mut self.pending[ptr.index()], self.empty.clone())
    }

    /// Seeds `objs` into `pts(ptr)`, enqueueing the genuinely new part.
    /// Check-before-mutate: membership is probed read-only first, so a
    /// fully redundant seed never un-shares the row.
    fn add_objects(&mut self, ptr: PtrId, objs: impl IntoIterator<Item = ObjId>) {
        let ptr = self.rep(ptr);
        let mut delta = PtsSet::new();
        {
            let set = &self.pts[ptr.index()];
            for o in objs {
                if !set.contains(o) {
                    delta.insert(o);
                }
            }
        }
        if delta.is_empty() {
            return;
        }
        self.pts[ptr.index()].make_mut().union_with(&delta);
        self.queue_delta(ptr, delta);
    }

    /// Adds the copy edge `from → to` (optionally type-filtered) and
    /// replays the existing points-to set of `from`. Both endpoints are
    /// normalized to their representatives; an unfiltered edge that
    /// collapses to a self-loop is dropped (it can never contribute).
    fn add_edge(&mut self, from: PtrId, to: PtrId, filter: Option<TypeId>) {
        let (from, to) = (self.rep(from), self.rep(to));
        if from == to && filter.is_none() {
            return;
        }
        let fi = from.index();
        let entry = (to, filter);
        let present = match &self.succ_set[fi] {
            Some(set) => set.contains(&entry),
            None => self.succ[fi].contains(&entry),
        };
        if present {
            return;
        }
        self.succ[fi].push(entry);
        match &mut self.succ_set[fi] {
            Some(set) => {
                set.insert(entry);
            }
            None if self.succ[fi].len() >= EDGE_SET_MIN => {
                self.succ_set[fi] = Some(Box::new(self.succ[fi].iter().copied().collect()));
            }
            None => {}
        }
        self.stats.copy_edges += 1;
        if filter.is_none() {
            self.order.add_edge(from, to);
        }
        // A filtered self-edge stays in the graph (for edge-count
        // parity) but can never contribute: filtering a set into itself
        // adds nothing.
        if from == to || self.pts[from.index()].is_empty() {
            return;
        }
        if let Some(ty) = filter {
            self.ensure_ranges(ty);
        }
        // Share the source allocation (cheap `Arc` clone) so the replay
        // can mutate the target row; only a non-empty contribution
        // touches the target's copy-on-write path.
        let src = self.pts[from.index()].share();
        let delta = match filter {
            None => src.difference(&self.pts[to.index()]),
            Some(ty) => {
                self.stats.range_union_hits += 1;
                src.difference_in_ranges(&self.ranges[&ty], &self.pts[to.index()])
            }
        };
        if delta.is_empty() {
            return;
        }
        self.pts[to.index()].make_mut().union_with(&delta);
        self.queue_delta(to, delta);
    }

    // --- Delta processing --------------------------------------------------

    fn process(&mut self, ptr: PtrId, delta: &PtsSet<ObjId>) {
        let i = ptr.index();
        self.stats.delta_objects += delta.len() as u64;
        // "Propagated" counts only deltas that actually flow somewhere:
        // a pointer with no outgoing edges, loads, stores, or calls is a
        // sink and its delta dies here. (Sink deltas are no longer even
        // queued, so the guard is belt-and-braces.)
        if self.has_consumers(i) {
            self.stats.propagated_objects += delta.len() as u64;
        }

        // Rows are append-only between collapse points; iterate a
        // snapshot of the length. An entry appended mid-processing
        // replays the full source set at add time, which already covers
        // this delta.
        let n_succ = self.succ[i].len();
        for k in 0..n_succ {
            let (to_raw, filter) = self.succ[i][k];
            let to = self.rep(to_raw);
            if to == ptr {
                continue; // self-edge: never contributes
            }
            if let Some(ty) = filter {
                self.ensure_ranges(ty);
            }
            // Contribution first (read-only), copy-on-write only when
            // it is non-empty: quiescent edges leave sharing intact.
            let d = match filter {
                None => delta.difference(&self.pts[to.index()]),
                Some(ty) => {
                    self.stats.range_union_hits += 1;
                    delta.difference_in_ranges(&self.ranges[&ty], &self.pts[to.index()])
                }
            };
            if !d.is_empty() {
                self.pts[to.index()].make_mut().union_with(&d);
                self.queue_delta(to, d);
            }
        }

        // Non-copy consumers: field loads and stores materialize field
        // pointers and edges, calls dispatch on the new receiver
        // objects. They hang off variable pointers only.
        let n_loads = self.loads[i].len();
        for k in 0..n_loads {
            let (field, lhs) = self.loads[i][k];
            for obj in delta.iter() {
                let fp = self.ptr(PtrKey::Field(obj, field));
                self.add_edge(fp, lhs, None);
            }
        }
        let n_stores = self.stores[i].len();
        for k in 0..n_stores {
            let (field, rhs) = self.stores[i][k];
            for obj in delta.iter() {
                let fp = self.ptr(PtrKey::Field(obj, field));
                self.add_edge(rhs, fp, None);
            }
        }
        let n_calls = self.calls[i].len();
        for k in 0..n_calls {
            let call = self.calls[i][k];
            self.dispatch_batch(call, delta);
        }
    }

    // --- Statements --------------------------------------------------------

    fn mark_reachable(&mut self, ctx: CtxId, method: MethodId) {
        if !self.reachable.insert((ctx, method)) {
            return;
        }
        self.reachable_methods.insert(method);
        self.stats.reachable_method_contexts += 1;
        self.pending_methods.push_back((ctx, method));
    }

    fn process_method(&mut self, ctx: CtxId, method: MethodId) {
        // Copy the program reference out of `self` so the body borrow
        // does not pin `self` (statement processing needs `&mut`).
        let program = self.program;
        for &stmt in program.method(method).body() {
            self.process_stmt(ctx, stmt);
        }
    }

    fn process_stmt(&mut self, ctx: CtxId, stmt: Stmt) {
        match stmt {
            Stmt::New { lhs, site } => {
                let repr = self.heap.repr(site);
                // Merged objects are modeled context-insensitively
                // (paper Section 3.6.1).
                let hctx = if self.heap.is_merged(repr) {
                    self.arena.empty()
                } else {
                    self.selector.heap_context(&mut self.arena, ctx, repr)
                };
                let obj = self.intern_obj(hctx, repr);
                let lp = self.var_ptr(ctx, lhs);
                self.add_objects(lp, [obj]);
            }
            Stmt::Assign { lhs, rhs } => {
                let (rp, lp) = (self.var_ptr(ctx, rhs), self.var_ptr(ctx, lhs));
                self.add_edge(rp, lp, None);
            }
            Stmt::Load { lhs, base, field } => {
                let bp = self.var_ptr(ctx, base);
                let lp = self.var_ptr(ctx, lhs);
                let bp = self.rep(bp);
                self.loads[bp.index()].push((field, lp));
                // Replay objects already known for the base. The clone
                // is O(words); interning field pointers below may grow
                // `self.pts`, so the base set cannot stay borrowed.
                let existing = self.pts[bp.index()].clone();
                for obj in existing.iter() {
                    let fp = self.ptr(PtrKey::Field(obj, field));
                    self.add_edge(fp, lp, None);
                }
            }
            Stmt::Store { base, field, rhs } => {
                let bp = self.var_ptr(ctx, base);
                let rp = self.var_ptr(ctx, rhs);
                let bp = self.rep(bp);
                self.stores[bp.index()].push((field, rp));
                let existing = self.pts[bp.index()].clone();
                for obj in existing.iter() {
                    let fp = self.ptr(PtrKey::Field(obj, field));
                    self.add_edge(rp, fp, None);
                }
            }
            Stmt::StaticLoad { lhs, field } => {
                let sp = self.ptr(PtrKey::Static(field));
                let lp = self.var_ptr(ctx, lhs);
                self.add_edge(sp, lp, None);
            }
            Stmt::StaticStore { field, rhs } => {
                let rp = self.var_ptr(ctx, rhs);
                let sp = self.ptr(PtrKey::Static(field));
                self.add_edge(rp, sp, None);
            }
            Stmt::Cast { lhs, rhs, site } => {
                let target = self.program.cast(site).target_ty();
                let (rp, lp) = (self.var_ptr(ctx, rhs), self.var_ptr(ctx, lhs));
                // Cast edges filter: only objects that can pass the cast
                // flow onward (failing objects raise at runtime).
                self.add_edge(rp, lp, Some(target));
            }
            Stmt::Call(site_id) => {
                let program = self.program;
                let site = program.call_site(site_id);
                match (site.kind(), site.target()) {
                    (CallKind::Static, &CallTarget::Exact(target)) => {
                        let callee_ctx = self.selector.static_callee_context(
                            &mut self.arena,
                            ctx,
                            site_id,
                            target,
                        );
                        self.bind_call(ctx, site_id, callee_ctx, target);
                    }
                    (&CallKind::Special { recv }, &CallTarget::Exact(target)) => {
                        self.register_receiver_call(ctx, recv, site_id, Some(target));
                    }
                    (&CallKind::Virtual { recv }, CallTarget::Signature { .. }) => {
                        self.register_receiver_call(ctx, recv, site_id, None);
                    }
                    (kind, target) => {
                        unreachable!("malformed call site {site_id:?}: {kind:?} {target:?}")
                    }
                }
            }
            Stmt::Return { .. } => {
                // Handled at call-binding time via `return_vars`.
            }
        }
    }

    fn register_receiver_call(
        &mut self,
        ctx: CtxId,
        recv: VarId,
        site: CallSiteId,
        fixed_target: Option<MethodId>,
    ) {
        let rp = self.var_ptr(ctx, recv);
        let rp = self.rep(rp);
        let call = PendingCall {
            site,
            caller_ctx: ctx,
            fixed_target,
        };
        self.calls[rp.index()].push(call);
        let existing = self.pts[rp.index()].clone();
        self.dispatch_batch(call, &existing);
    }

    /// The dispatch target of `call` on a receiver of type `ty`, or
    /// `None` when the call cannot resolve: no implementation for the
    /// type (e.g. an abstract class leak) or an abstract target.
    fn resolve_target(&mut self, call: PendingCall, ty: TypeId) -> Option<MethodId> {
        let target = match call.fixed_target {
            Some(t) => Some(t),
            None => match self.program.call_site(call.site).target() {
                CallTarget::Signature { name, arity } => {
                    match self.dispatch_cache.get(&(call.site, ty)) {
                        Some(&t) => t,
                        None => {
                            let t = self.program.dispatch(ty, name, *arity);
                            self.dispatch_cache.insert((call.site, ty), t);
                            t
                        }
                    }
                }
                CallTarget::Exact(t) => Some(*t),
            },
        };
        target.filter(|&t| !self.program.method(t).is_abstract())
    }

    /// Dispatches `call` on every receiver in `objs` — a popped delta
    /// or, at registration, the receiver's whole existing set — with
    /// one bind per group of consecutive receivers sharing `(target,
    /// callee context)`.
    ///
    /// Receivers arrive in ascending id order; under hierarchy
    /// numbering same-type objects are contiguous, so the target is
    /// resolved once per run of same-type ids. A receiver the call
    /// cannot resolve for is skipped without closing the open group.
    /// Each group seeds the callee's `this` with one `add_objects` and
    /// then binds once.
    /// Groups are emitted in first-receiver order, so pointers are
    /// created in the same order as binding receiver by receiver would.
    ///
    /// A selector that does not read the receiver
    /// ([`ContextSelector::reads_receiver`]) is asked for the callee
    /// context only when the target changes, at the first receiver that
    /// resolves to the new target — once per call when every receiver
    /// resolves to one method. The selector is pure, so reusing its
    /// answer creates the same contexts in the same order, with the
    /// same ids, as asking per receiver.
    fn dispatch_batch(&mut self, call: PendingCall, objs: &PtsSet<ObjId>) {
        let mut group = std::mem::take(&mut self.dispatch_group);
        group.clear();
        let per_receiver = self.selector.reads_receiver();
        let mut cur: Option<(MethodId, CtxId)> = None;
        let mut resolved: Option<(TypeId, Option<MethodId>)> = None;
        for obj in objs.iter() {
            let ty = self.objs.ty(obj);
            let target = match resolved {
                Some((rty, t)) if rty == ty => t,
                _ => {
                    let t = self.resolve_target(call, ty);
                    resolved = Some((ty, t));
                    t
                }
            };
            let Some(target) = target else {
                continue;
            };
            let callee_ctx = match cur {
                Some((t, c)) if t == target && !per_receiver => c,
                _ => self.selector.callee_context(
                    &mut self.arena,
                    &self.objs,
                    self.program,
                    call.caller_ctx,
                    call.site,
                    obj,
                    target,
                ),
            };
            if cur != Some((target, callee_ctx)) {
                if let Some((t, c)) = cur {
                    self.bind_group(call, t, c, &group);
                }
                group.clear();
                cur = Some((target, callee_ctx));
            }
            group.push(obj);
        }
        if let Some((t, c)) = cur {
            self.bind_group(call, t, c, &group);
        }
        self.dispatch_group = group;
    }

    /// Binds one dispatch group: `this` of `target` under `callee_ctx`
    /// receives exactly the group's receivers, then the call edge is
    /// bound.
    fn bind_group(
        &mut self,
        call: PendingCall,
        target: MethodId,
        callee_ctx: CtxId,
        group: &[ObjId],
    ) {
        self.stats.dispatch_groups += 1;
        if let Some(this) = self.program.method(target).this() {
            let tp = self.var_ptr(callee_ctx, this);
            self.add_objects(tp, group.iter().copied());
        }
        self.bind_call(call.caller_ctx, call.site, callee_ctx, target);
    }

    /// Binds the context-sensitive call edge `(caller_ctx, site) →
    /// (callee_ctx, target)`: marks the callee reachable and wires
    /// arguments to parameters and returns to the result variable.
    ///
    /// That wiring is a function of the edge alone, and edges are never
    /// removed, so it runs only the first time the edge is inserted; a
    /// repeat bind is a no-op.
    fn bind_call(
        &mut self,
        caller_ctx: CtxId,
        site_id: CallSiteId,
        callee_ctx: CtxId,
        target: MethodId,
    ) {
        if !self
            .cs_cg_edges
            .insert((caller_ctx, site_id, callee_ctx, target))
        {
            return;
        }
        self.cg_edges.insert((site_id, target));
        self.mark_reachable(callee_ctx, target);

        // Borrow the callee and site through a copied-out program
        // reference: the borrows outlive `&mut self` calls below, and
        // binding stays allocation-free.
        let program = self.program;
        let callee = program.method(target);
        // Arguments to parameters.
        let site = program.call_site(site_id);
        for (&arg, &param) in site.args().iter().zip(callee.params().iter()) {
            let ap = self.var_ptr(caller_ctx, arg);
            let pp = self.var_ptr(callee_ctx, param);
            self.add_edge(ap, pp, None);
        }
        // Returns to the result variable.
        if let Some(result) = site.result() {
            let rp = self.var_ptr(caller_ctx, result);
            for k in 0..self.return_vars[target.index()].len() {
                let rv = self.return_vars[target.index()][k];
                let rvp = self.var_ptr(callee_ctx, rv);
                self.add_edge(rvp, rp, None);
            }
        }
    }
}

/// Convenience: runs the context-insensitive allocation-site pre-analysis
/// the Mahjong pipeline starts from (paper Section 3.1, "ci").
///
/// # Errors
///
/// Returns [`Unscalable`] if the budget is exhausted (the pre-analysis is
/// given the same default budget as any other run).
pub fn pre_analysis(program: &Program) -> Result<AnalysisResult, Unscalable> {
    let _phase = obs::span("pre_analysis");
    AnalysisConfig::new(
        crate::context::ContextInsensitive,
        crate::heap::AllocSiteAbstraction,
    )
    .run(program)
}
