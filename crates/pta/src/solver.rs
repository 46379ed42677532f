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
//! Points-to sets are [`pts::PtsSet`]s (hybrid sorted-vec / sparse chunks).
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
//! dirtied upstream waits for the next wave.
//! [`AnalysisStats::wave_rounds`] counts the waves.
//!
//! The order lives in [`crate::order`]. A fresh pointer takes the next
//! label; a copy edge that arrives against the order is queued, and the
//! driver repairs the queue *between* pops — never while a consumer row
//! is being iterated — by a bidirectional search that moves only the
//! side that finished first. A repair that finds the new edge closing a
//! copy cycle hands the cycle back for collapse. So the order is exact
//! at every pop, every copy cycle is collapsed as soon as it closes,
//! and no pass ever walks the whole graph (bar the rare renumber of an
//! exhausted label gap, counted in `collapse_sweeps`). Queue
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
//! pending-delta slot, the merged consumer row (copy edges, loads,
//! stores and calls in one sorted row) and the merged predecessor
//! list; non-representatives keep empty slots. Every solver entry
//! point normalizes pointers through `find()` before touching
//! per-pointer state, and the final [`AnalysisResult`] carries the
//! redirect table so queries against collapsed pointers resolve to the
//! representative's set — collapse is invisible in analysis results
//! (members of an unfiltered copy cycle provably converge to identical
//! sets by mutual subset inclusion).
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
//! once per receiver. `dispatch_groups` counts the groups bound.
//!
//! # Plain rows, one seal
//!
//! Points-to rows and pending deltas are plain [`pts::PtsSet`]s owned
//! by the solver; a new pointer pushes two empty sets and one empty
//! consumer row, which allocate nothing. (Cast filters are *not* sets
//! at all: under the hierarchy numbering each filter type's subtype
//! cone compiles to a [`pts::IdRanges`] list of a few `[lo, hi)` runs
//! — see [`crate::numbering`].) Context-sensitive runs end with
//! thousands of bit-identical rows (the same receiver objects under
//! many calling contexts): on pmd@4 2cs the 217,171 rows hold
//! 1,814,383 words when the fixpoint ends (a sparse set pays two words
//! per nonzero 64-id word, so none for the gaps between its objects)
//! and 30,085 distinct words, 60× less. Finalize
//! therefore *seals* every non-empty row exactly once, in row order,
//! into one [`pts::SetInterner`], a table of unique sets
//! keyed by a fingerprint of the set's nonzero words
//! ([`pts::PtsSet::fingerprint`]): a row becomes the set id of its
//! content, and only a content not seen before is kept
//! ([`pts::SetInterner::intern`]). The result holds that table and one
//! set id per row. Sealing drops duplicate copies, never changes
//! content, so every golden parity fingerprint is preserved bit for
//! bit.
//!
//! Sealing only at finalize gives nothing up: a sweep every 64 waves
//! during the fixpoint would never fire on a measured run, since the
//! most waves any takes is 47 (every Table 2 cell and ci of all twelve
//! programs at scale 6). [`AnalysisStats::pts_interned`],
//! `pts_dedup_hits` and `intern_probe_ns` report the seal's work;
//! `pts_peak_words` is the *physical* footprint of the sealed rows
//! (each distinct content counted once), and
//! [`AnalysisStats::pts_logical_words`] the logical (per-row) one.
//!
//! # Phase clocks
//!
//! Every run times the driver's phases into its [`AnalysisStats`], at
//! drain grain rather than per pop. `methods_time` covers statement
//! processing: the seed drain that opens each wave and every drain of
//! methods a popped delta made reachable; the clock is read only when
//! a method is pending. `order_time` covers the order's upkeep: the
//! wave-boundary repair and heap build, and every repair batch between
//! pops, cycle collapse included. Propagation is what the fixpoint
//! spends outside those two, and the seal is `intern_probe_ns`. A
//! table2-shaped pass (ci and the 20 cells of pmd@4 and lusearch@4)
//! reads 163,869 clock pairs this way against 404,385 pops, roughly 1%
//! of its solver time; splitting propagation into copy, consumer and
//! dispatch work would need a clock read per pop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dsu::DisjointSets;
use jir::{
    AllocId, CallKind, CallSiteId, CallTarget, FieldId, MethodId, Program, Stmt, TypeId, VarId,
};
use pts::{IdRanges, PtsSet, SetInterner};

use crate::context::{ContextArena, ContextSelector, CtxId};
use crate::heap::HeapAbstraction;
use crate::object::{Numbering, ObjId, ObjTable};
use crate::order::TopoOrder;
use crate::result::{AnalysisResult, AnalysisStats};
use crate::util::{FastMap, FastSet};

/// Waves completed by every solver run in the process so far, bumped
/// once per wave. A progress pulse (`--heartbeat`) reads it while a run
/// is still going; a run's own count is [`AnalysisStats::wave_rounds`].
pub static LIVE_WAVE_ROUNDS: AtomicU64 = AtomicU64::new(0);

/// Worklist pops of every solver run in the process so far, added once
/// per wave, like [`LIVE_WAVE_ROUNDS`].
pub static LIVE_WORKLIST_POPS: AtomicU64 = AtomicU64::new(0);

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
/// abstraction and resource budget — the single construction path shared by the CLIs, the bench harness, and tests.
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
    numbering: Numbering,
}

impl<S: ContextSelector, H: HeapAbstraction> AnalysisConfig<S, H> {
    /// Creates a configuration with the default [`Budget`].
    pub fn new(selector: S, heap: H) -> Self {
        AnalysisConfig {
            selector,
            heap,
            budget: Budget::default(),
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
    /// all. Kept only for the repository benchmark harness
    /// (`perfbench`), which passes its thread count here; nothing else
    /// in the workspace calls it outside `tests/thread_parity.rs`.
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

    /// Runs the analysis to its fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Unscalable`] if the budget is exhausted first.
    pub fn run(&self, program: &Program) -> Result<AnalysisResult, Unscalable> {
        Solver::new(program, &self.selector, &self.heap, self.budget, self.numbering).solve()
    }
}

/// A statically resolved call waiting for receiver objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PendingCall {
    pub(crate) site: CallSiteId,
    pub(crate) caller_ctx: CtxId,
    /// For special calls the target is fixed; virtual calls dispatch on
    /// the receiver type.
    pub(crate) fixed_target: Option<MethodId>,
}

/// One observer of a pointer's points-to set, as stored in the
/// pointer's consumer row. Every kind shares the one row, so a pointer
/// costs one `Vec` however many kinds observe it, and an entry is 16
/// bytes (the tag lives in a niche; a unit test pins the size).
///
/// The derived order ranks kinds `Copy < Load < Store < Call`, so a
/// sorted row holds its copy edges first, then the loads, stores and
/// calls, each kind sorted by its fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Consumer {
    /// A copy edge to the target, with the optional declared-type
    /// filter carried by cast edges. Targets are normalized lazily at
    /// processing time and eagerly when a cycle collapses onto the row.
    Copy(PtrId, Option<TypeId>),
    /// `lhs = base.field` on the row's pointer as `base`: each new base
    /// object's field pointer gets a copy edge to `lhs`.
    Load(FieldId, PtrId),
    /// `base.field = rhs` on the row's pointer as `base`: `rhs` gets a
    /// copy edge to each new base object's field pointer.
    Store(FieldId, PtrId),
    /// A call dispatching on the row's pointer as receiver.
    Call(PendingCall),
}

/// Consumer-row length at which `add_edge` membership switches from a
/// linear scan of the row to the row's mirrored hash set of copy edges.
/// Short rows stay scan-only (cheaper and allocation-free); hub rows —
/// field pointers replayed once per load/store-site × object — get the
/// set.
const EDGE_SET_MIN: usize = 48;

/// A copy edge as mirrored for hub rows: target pointer plus the
/// optional declared-type filter carried by cast edges.
type Edge = (PtrId, Option<TypeId>);

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
    pts: Vec<PtsSet<ObjId>>,
    /// Pending (coalesced) delta per pointer; non-empty only on
    /// representatives, and only while the pointer awaits processing.
    pending: Vec<PtsSet<ObjId>>,
    /// Everything that observes a pointer's points-to set — copy
    /// edges, loads, stores and calls — in one row per pointer, in
    /// arrival order until a cycle collapse sorts it. Rows live on
    /// representatives.
    cons: Vec<Vec<Consumer>>,
    /// Exact membership mirror of the copy edges of consumer rows of at
    /// least [`EDGE_SET_MIN`] entries, keyed by pointer. `add_edge` is
    /// called once per (edge site, replayed object); on hub rows the
    /// linear `contains` scan is the solver's dominant cost, so a long
    /// row may carry a hash set, which must always hold exactly the
    /// row's (possibly unnormalized) copy edges. Few rows are long, so
    /// the mirrors live in a sparse map, probed only for long rows.
    hub_edges: FastMap<u32, FastSet<Edge>>,
    /// Range-compiled cast masks: `ranges[ty]` covers every interned
    /// object whose type is a subtype of `ty`, as coalesced id runs
    /// (short under hierarchy numbering — that is the point of the
    /// numbering). Built lazily on the first cast against `ty`,
    /// maintained per newly interned object; never materialized as a
    /// set, so the old `pta.mem_mask_words` bitmap cost is gone.
    ranges: FastMap<TypeId, IdRanges>,

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
    /// Base objects of a load, store or call being registered, reused
    /// across registrations (the replay creates pointers, so it cannot
    /// walk the base row in place).
    replay_ids: Vec<ObjId>,

    worklist: VecDeque<PtrId>,
    /// Newly reachable `(context, method)` pairs awaiting statement
    /// processing (kept iterative to bound stack depth on deep call
    /// chains).
    pending_methods: VecDeque<(CtxId, MethodId)>,
    stats: AnalysisStats,
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
            cons: Vec::new(),
            hub_edges: FastMap::default(),
            ranges: FastMap::default(),
            dsu: DisjointSets::new(0),
            order: TopoOrder::default(),
            reachable: FastSet::default(),
            reachable_methods: FastSet::default(),
            cg_edges: FastSet::default(),
            cs_cg_edges: FastSet::default(),
            dispatch_cache: FastMap::default(),
            return_vars,
            dispatch_group: Vec::new(),
            replay_ids: Vec::new(),
            worklist: VecDeque::new(),
            pending_methods: VecDeque::new(),
            stats: AnalysisStats::default(),
        }
    }

    fn solve(mut self) -> Result<AnalysisResult, Unscalable> {
        {
            let _init = obs::span("solver.init");
            let empty = self.arena.empty();
            self.mark_reachable(empty, self.program.entry());
            self.stats.init_time = self.start.elapsed();
        }

        let fixpoint_start = Instant::now();
        let fixpoint_span = obs::span("solver.fixpoint");
        let mut since_check = 0usize;
        'fixpoint: loop {
            // Statement processing first: it seeds objects and edges the
            // wave below will propagate.
            self.drain_methods();
            if self.worklist.is_empty() {
                break 'fixpoint;
            }

            // Wave boundary: repair the order for the edges statement
            // processing added, then queue every dirty pointer by label.
            let t0 = Instant::now();
            self.repair_order();
            self.stats.wave_rounds += 1;
            let dirty: Vec<PtrId> = self.worklist.drain(..).collect();
            let mut wave: BinaryHeap<Reverse<(u64, u32)>> = dirty
                .into_iter()
                .map(|p| Reverse((self.label(p), p.0)))
                .collect();
            let mut next_wave: Vec<PtrId> = Vec::new();
            self.stats.order_time += t0.elapsed();

            let pops_before = self.stats.worklist_pops;
            if self.run_wave(&mut wave, &mut next_wave, &mut since_check) {
                drop(fixpoint_span);
                return Err(self.overrun(fixpoint_start));
            }
            self.worklist.extend(next_wave);
            LIVE_WAVE_ROUNDS.fetch_add(1, Ordering::Relaxed);
            LIVE_WORKLIST_POPS.fetch_add(self.stats.worklist_pops - pops_before, Ordering::Relaxed);
        }
        drop(fixpoint_span);
        self.stats.fixpoint_time = fixpoint_start.elapsed();

        let finalize_start = Instant::now();
        let finalize_span = obs::span("solver.finalize");
        self.count_structures();
        // The order, the consumer rows and the drained pending slots
        // are dead past the fixpoint; free them before the rows are
        // sealed.
        self.order = TopoOrder::default();
        self.pending = Vec::new();
        self.cons = Vec::new();
        self.hub_edges = FastMap::default();
        let mut interner = SetInterner::new();
        let row_set = self.seal_rows(&mut interner);
        let result = AnalysisResult::from_parts(
            self.arena,
            self.objs,
            self.ptr_keys,
            self.ptr_map,
            row_set,
            interner,
            self.dsu.snapshot(),
            self.reachable,
            self.reachable_methods,
            self.cg_edges,
            self.cs_cg_edges.len(),
            AnalysisStats::default(), // placeholder, replaced below
        );
        drop(finalize_span);
        self.stats.finalize_time = finalize_start.elapsed();
        self.stats.elapsed = self.start.elapsed();
        Ok(result.with_stats(self.stats))
    }

    /// Final bookkeeping of a budget-overrun exit. The rows are sealed
    /// like a finished run's, so the partial stats report the same
    /// interner counts and footprints.
    fn overrun(&mut self, fixpoint_start: Instant) -> Unscalable {
        self.stats.fixpoint_time = fixpoint_start.elapsed();
        self.count_structures();
        self.seal_rows(&mut SetInterner::new());
        self.stats.elapsed = self.start.elapsed();
        Unscalable {
            elapsed: self.start.elapsed(),
            methods_processed: self.reachable.len(),
            stats: Box::new(self.stats.clone()),
        }
    }

    /// Copies the end-of-run sizes of the arena, call graph, partition,
    /// order and range tables into the stats.
    fn count_structures(&mut self) {
        self.stats.context_count = self.arena.len();
        self.stats.call_graph_edges = self.cg_edges.len() as u64;
        self.stats.dsu_ops = self.dsu.ops();
        self.stats.collapse_sweeps = self.order.renumbers;
        self.stats.order_search_edges = self.order.edges_scanned;
        self.stats.mask_ranges = self.ranges.values().map(|r| r.run_count() as u64).sum();
    }

    /// Seals every row once, in row order, into `interner` and returns
    /// each row's set id: an empty row takes the pre-interned empty
    /// set, a non-empty one goes through [`SetInterner::intern`], which
    /// keeps only a content it has not seen. The misses' words are the
    /// physical footprint (`pts_peak_words`), every row's words the
    /// logical one (`pts_logical_words`).
    fn seal_rows(&mut self, interner: &mut SetInterner<ObjId>) -> Vec<u32> {
        let t0 = Instant::now();
        let (mut physical, mut logical) = (0u64, 0u64);
        let rows = std::mem::take(&mut self.pts)
            .into_iter()
            .map(|set| {
                if set.is_empty() {
                    return SetInterner::<ObjId>::EMPTY;
                }
                let words = set.mem_words() as u64;
                let (id, fresh) = interner.intern(set);
                logical += words;
                if fresh {
                    physical += words;
                }
                id
            })
            .collect();
        self.stats.intern_probe_ns += t0.elapsed().as_nanos() as u64;
        self.stats.pts_interned = interner.interned();
        self.stats.pts_dedup_hits = interner.dedup_hits();
        self.stats.pts_peak_words = physical;
        self.stats.pts_logical_words = logical;
        rows
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
        let batch = self.order.take_repairs();
        for &(x, y) in &batch {
            let (x, y) = (self.rep(x), self.rep(y));
            if let Some(cycle) = self.order.repair(x, y, &self.cons, &self.dsu) {
                self.collapse_scc(&cycle);
            }
        }
        self.order.recycle_repairs(batch);
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
        since_check: &mut usize,
    ) -> bool {
        while let Some(Reverse((cursor, pi))) = wave.pop() {
            if self.order.has_repairs() {
                let t0 = Instant::now();
                self.repair_order();
                self.route_dirty(wave, next_wave, cursor);
                self.stats.order_time += t0.elapsed();
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
                    return true;
                }
            }

            let delta = self.take_pending(ptr);
            self.stats.worklist_pops += 1;
            self.process(ptr, &delta);
            self.drain_methods();
            self.route_dirty(wave, next_wave, cursor);
        }
        false
    }

    /// Collapses one strongly connected component (all members must be
    /// current representatives): unions the members, moves every
    /// member's points-to set, pending delta, and consumer row onto
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
        let mut olds: Vec<(PtsSet<ObjId>, bool)> = Vec::with_capacity(members.len());
        for &m in members {
            let mi = m as usize;
            let pts_m = std::mem::take(&mut self.pts[mi]);
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

        let mut row: Vec<Consumer> = Vec::new();
        for &m in members {
            row.extend(std::mem::take(&mut self.cons[m as usize]));
            self.hub_edges.remove(&m);
        }
        // Normalize the merged copy edges; intra-SCC unfiltered edges
        // became self-loops and can never contribute again. (Filtered
        // self-loops are kept but skipped at processing time.) Sorting
        // groups the row by kind, copy edges first.
        for c in &mut row {
            if let Consumer::Copy(to, _) = c {
                *to = self.rep(*to);
            }
        }
        let self_loop = Consumer::Copy(PtrId(r as u32), None);
        row.retain(|&c| c != self_loop);
        row.sort_unstable();
        row.dedup();
        self.cons[r] = row;
        self.rebuild_hub_edges(r);
        self.order.absorb(members, r);

        self.stats.scc_collapsed_ptrs += (members.len() - 1) as u64;
        self.pts[r] = merged;
        self.queue_delta(PtrId(r as u32), pend);
    }

    // --- Pointer graph primitives ----------------------------------------

    /// Re-derives the copy-edge mirror of `cons[i]` after a collapse
    /// merged and normalized the row. Keeps the invariant: only a long
    /// row has a mirror, and a mirror holds exactly the row's current
    /// copy edges.
    fn rebuild_hub_edges(&mut self, i: usize) {
        if self.cons[i].len() >= EDGE_SET_MIN {
            self.hub_edges
                .insert(i as u32, copy_edges(&self.cons[i]).collect());
        } else {
            self.hub_edges.remove(&(i as u32));
        }
    }

    fn ptr(&mut self, key: PtrKey) -> PtrId {
        if let Some(&p) = self.ptr_map.get(&key) {
            return p;
        }
        let p = PtrId(u32::try_from(self.ptr_keys.len()).expect("too many pointers"));
        self.ptr_map.insert(key, p);
        self.ptr_keys.push(key);
        self.pts.push(PtsSet::new());
        self.pending.push(PtsSet::new());
        self.cons.push(Vec::new());
        self.dsu.push();
        self.order.push();
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
        !self.cons[i].is_empty()
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
            // Adopt the delta wholesale instead of copying into the
            // empty slot.
            self.pending[i] = delta;
            self.worklist.push_back(ptr);
        } else {
            self.pending[i].union_with(&delta);
        }
    }

    /// Drains the pointer's pending delta, leaving an empty set behind.
    fn take_pending(&mut self, ptr: PtrId) -> PtsSet<ObjId> {
        std::mem::take(&mut self.pending[ptr.index()])
    }

    /// Seeds `objs`, strictly ascending, into `pts(ptr)`, enqueueing
    /// the genuinely new part.
    fn add_objects(&mut self, ptr: PtrId, objs: impl IntoIterator<Item = ObjId>) {
        let ptr = self.rep(ptr);
        let delta = self.pts[ptr.index()].missing(objs);
        if delta.is_empty() {
            return;
        }
        self.pts[ptr.index()].union_with(&delta);
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
        let (edge, entry) = ((to, filter), Consumer::Copy(to, filter));
        let row = &self.cons[fi];
        let mirror = if row.len() >= EDGE_SET_MIN {
            self.hub_edges.get(&from.0)
        } else {
            None
        };
        let present = match mirror {
            Some(set) => set.contains(&edge),
            None => row.contains(&entry),
        };
        if present {
            return;
        }
        let row = &mut self.cons[fi];
        row.push(entry);
        if row.len() >= EDGE_SET_MIN {
            self.hub_edges
                .entry(from.0)
                .or_insert_with(|| copy_edges(row).collect())
                .insert(edge);
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
        let (src, dst) = (&self.pts[from.index()], &self.pts[to.index()]);
        let delta = match filter {
            None => src.difference(dst),
            Some(ty) => {
                self.stats.range_union_hits += 1;
                src.difference_in_ranges(&self.ranges[&ty], dst)
            }
        };
        if delta.is_empty() {
            return;
        }
        self.pts[to.index()].union_with(&delta);
        self.queue_delta(to, delta);
    }

    // --- Delta processing --------------------------------------------------

    fn process(&mut self, ptr: PtrId, delta: &PtsSet<ObjId>) {
        let i = ptr.index();
        // Only pointers with consumers are queued (`queue_delta`, also
        // after a collapse), so every popped object flows on.
        self.stats.propagated_objects += delta.len() as u64;

        // Rows are append-only between collapse points; walk a snapshot
        // of the length, once per kind: copy edges, then loads, stores
        // and calls. An entry appended mid-processing replays the full
        // source set at add time, which already covers this delta, and
        // the passes append only copy edges (a load, store or call
        // joins a row only when a method body is processed).
        let n = self.cons[i].len();
        for k in 0..n {
            let Consumer::Copy(to_raw, filter) = self.cons[i][k] else {
                continue;
            };
            let to = self.rep(to_raw);
            if to == ptr {
                continue; // self-edge: never contributes
            }
            if let Some(ty) = filter {
                self.ensure_ranges(ty);
            }
            let d = match filter {
                None => delta.difference(&self.pts[to.index()]),
                Some(ty) => {
                    self.stats.range_union_hits += 1;
                    delta.difference_in_ranges(&self.ranges[&ty], &self.pts[to.index()])
                }
            };
            if !d.is_empty() {
                self.pts[to.index()].union_with(&d);
                self.queue_delta(to, d);
            }
        }

        // Non-copy consumers: field loads and stores materialize field
        // pointers and edges, calls dispatch on the new receiver
        // objects. They hang off variable pointers only.
        for k in 0..n {
            let Consumer::Load(field, lhs) = self.cons[i][k] else {
                continue;
            };
            for obj in delta.iter() {
                let fp = self.ptr(PtrKey::Field(obj, field));
                self.add_edge(fp, lhs, None);
            }
        }
        for k in 0..n {
            let Consumer::Store(field, rhs) = self.cons[i][k] else {
                continue;
            };
            for obj in delta.iter() {
                let fp = self.ptr(PtrKey::Field(obj, field));
                self.add_edge(rhs, fp, None);
            }
        }
        for k in 0..n {
            let Consumer::Call(call) = self.cons[i][k] else {
                continue;
            };
            self.dispatch_batch(call, delta.iter());
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

    /// Processes every pending `(context, method)` pair into
    /// `methods_time`; reads no clock when none is pending.
    fn drain_methods(&mut self) {
        if self.pending_methods.is_empty() {
            return;
        }
        let t0 = Instant::now();
        while let Some((ctx, method)) = self.pending_methods.pop_front() {
            self.process_method(ctx, method);
        }
        self.stats.methods_time += t0.elapsed();
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
                self.cons[bp.index()].push(Consumer::Load(field, lp));
                // Replay objects already known for the base.
                let objs = self.base_objects(bp);
                for &obj in &objs {
                    let fp = self.ptr(PtrKey::Field(obj, field));
                    self.add_edge(fp, lp, None);
                }
                self.replay_ids = objs;
            }
            Stmt::Store { base, field, rhs } => {
                let bp = self.var_ptr(ctx, base);
                let rp = self.var_ptr(ctx, rhs);
                let bp = self.rep(bp);
                self.cons[bp.index()].push(Consumer::Store(field, rp));
                let objs = self.base_objects(bp);
                for &obj in &objs {
                    let fp = self.ptr(PtrKey::Field(obj, field));
                    self.add_edge(rp, fp, None);
                }
                self.replay_ids = objs;
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
        self.cons[rp.index()].push(Consumer::Call(call));
        // Binding can grow this very row, so dispatch over a copy in
        // the replay buffer.
        let objs = self.base_objects(rp);
        self.dispatch_batch(call, objs.iter().copied());
        self.replay_ids = objs;
    }

    /// The objects of `base`'s row, in the reused replay buffer. A
    /// load or store replays them into field pointers, and a call
    /// dispatches over them; both create pointers, which grows the
    /// rows, so the row cannot stay borrowed.
    fn base_objects(&mut self, base: PtrId) -> Vec<ObjId> {
        let mut objs = std::mem::take(&mut self.replay_ids);
        objs.clear();
        objs.extend(self.pts[base.index()].iter());
        objs
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
    fn dispatch_batch(&mut self, call: PendingCall, objs: impl IntoIterator<Item = ObjId>) {
        let mut group = std::mem::take(&mut self.dispatch_group);
        group.clear();
        let per_receiver = self.selector.reads_receiver();
        let mut cur: Option<(MethodId, CtxId)> = None;
        let mut resolved: Option<(TypeId, Option<MethodId>)> = None;
        for obj in objs {
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

/// The copy edges of a consumer row, in row order.
fn copy_edges(row: &[Consumer]) -> impl Iterator<Item = Edge> + '_ {
    row.iter().filter_map(|&c| match c {
        Consumer::Copy(to, filter) => Some((to, filter)),
        _ => None,
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextInsensitive;
    use crate::heap::AllocSiteAbstraction;

    #[test]
    fn a_consumer_is_16_bytes() {
        // Every kind shares one row; the tag must stay in a niche, or
        // each entry of every row would grow by a third.
        assert_eq!(std::mem::size_of::<Consumer>(), 16);
    }

    /// One pointer with 60 distinct copy targets, each edge stated
    /// twice, behind a load that shares its row: past [`EDGE_SET_MIN`]
    /// entries the hub mirror answers membership, so it must hold every
    /// copy edge of the row and no other entry.
    #[test]
    fn a_hub_row_adds_each_edge_once() {
        let mut body = String::from("x = new A; f = x.f;");
        for _ in 0..2 {
            for i in 0..60 {
                body += &format!(" y{i} = x;");
            }
        }
        let src =
            format!("class A {{ field f: A; entry static method main() {{ {body} return; }} }}");
        let program = jir::parse(&src).expect("the hub program parses");
        let result = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
            .run(&program)
            .expect("a tiny program fits the default budget");
        // The 60 from `x`, plus the load's edge from `o.f` to `f`.
        assert_eq!(result.stats().copy_edges, 61);
    }
}
