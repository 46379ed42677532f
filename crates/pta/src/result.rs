//! Analysis results: points-to sets, the discovered call graph, and the
//! query API consumed by the clients and by Mahjong's FPG builder.
//!
//! The query API is **borrow-first**: points-to accessors return
//! `&PtsSet<ObjId>` views into the solver's final state (the empty set
//! for pointers that never arose) and [`AnalysisResult::call_targets`]
//! returns a precomputed sorted slice. Callers that need owned data use
//! [`pts::PtsSet::to_vec`] as the escape hatch; nothing allocates per
//! query.
//!
//! Rows with equal contents share one stored set: the result keeps one
//! table of unique sets and, per pointer, the id of its set in it.

use std::time::Duration;

use jir::{AllocId, CallSiteId, FieldId, MethodId, TypeId, VarId};
use pts::{PtsSet, SetInterner};

use crate::context::{ContextArena, CtxId};
use crate::object::{ObjId, ObjTable};
use crate::solver::{PtrId, PtrKey};
use crate::table::IdTable;
use crate::util::{FastMap, FastSet};

/// The empty points-to set, returned by reference for pointers that
/// never arose during the analysis.
static EMPTY_PTS: PtsSet<ObjId> = PtsSet::new();

/// Counters describing one solver run.
///
/// This per-run view is the stable public API; at the end of every run
/// (including budget-overrun exits) the same numbers are published into
/// the process-global [`obs`] registry under `pta.*` names, where they
/// aggregate across runs and travel with the JSON-Lines/Chrome-trace
/// exports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisStats {
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Wall-clock spent seeding the entry point (`solver.init`).
    pub init_time: Duration,
    /// Wall-clock spent in the worklist loop (`solver.fixpoint`).
    pub fixpoint_time: Duration,
    /// Wall-clock spent assembling the result (`solver.finalize`).
    pub finalize_time: Duration,
    /// Part of `fixpoint_time` spent processing the statements of newly
    /// reachable methods (see the solver's phase clocks). Not part of
    /// the snapshot format: restored results read 0.
    pub methods_time: Duration,
    /// Part of `fixpoint_time` spent repairing the topological order
    /// (cycle collapse included) and building each wave's queue. Not
    /// part of the snapshot format: restored results read 0.
    pub order_time: Duration,
    /// Worklist entries processed. One pop consumes a pointer's whole
    /// coalesced delta, so this is typically far below
    /// `propagated_objects`.
    pub worklist_pops: u64,
    /// Objects pushed through the constraint graph: the sum of popped
    /// delta sizes. Only pointers with at least one consumer (copy
    /// edge, load, store, or call) are ever queued, so every popped
    /// object flows somewhere.
    pub propagated_objects: u64,
    /// Copy edges in the final constraint graph.
    pub copy_edges: u64,
    /// Context-insensitive call-graph edges discovered.
    pub call_graph_edges: u64,
    /// Reachable `(context, method)` pairs.
    pub reachable_method_contexts: u64,
    /// Distinct calling contexts created.
    pub context_count: usize,
    /// **Physical** memory footprint of all points-to sets, in 64-bit
    /// words, as sealed at finalize: each distinct content counts once
    /// however many rows share it. The logical (per-row) footprint is
    /// `pts_logical_words`.
    pub pts_peak_words: u64,
    /// **Logical** footprint of the sealed rows in 64-bit words: every
    /// row counts its full set, shared or not, so this is never below
    /// `pts_peak_words`. Not part of the snapshot format: restored
    /// results read 0.
    pub pts_logical_words: u64,
    /// Distinct row contents in the set table at finalize, the empty
    /// set included.
    pub pts_interned: u64,
    /// Non-empty rows whose content was already in the set table when
    /// sealed; each shares the stored set instead of keeping its
    /// own. An empty row takes the pre-interned empty set and is not
    /// counted, even the row of a collapsed copy cycle no object
    /// reaches.
    pub pts_dedup_hits: u64,
    /// Nanoseconds spent sealing the rows at finalize: fingerprinting
    /// each non-empty row and probing the interner.
    pub intern_probe_ns: u64,
    /// Pointers merged away by online cycle collapse (each collapsed
    /// SCC of `k` members contributes `k - 1`).
    pub scc_collapsed_ptrs: u64,
    /// Full renumbers of the incremental topological order, forced when
    /// a repair found its label gap exhausted. (The field kept its name
    /// from the full Tarjan sweeps it used to count, because result
    /// snapshots serialize it.)
    pub collapse_sweeps: u64,
    /// Topologically ordered propagation waves executed.
    pub wave_rounds: u64,
    /// Elementary union-find operations spent maintaining the collapse
    /// partition (see [`dsu::DisjointSets::ops`]).
    pub dsu_ops: u64,
    /// Total `[lo, hi)` runs across all compiled cast range tables at
    /// the end of the run — the whole footprint of cast filtering
    /// under the hierarchy numbering. A run is one `(u32, u32)` pair,
    /// one 64-bit word ([`pts::IdRanges::mem_words`]).
    pub mask_ranges: u64,
    /// Filtered (cast-edge) propagation steps answered by a range
    /// table instead of a materialized mask set.
    pub range_union_hits: u64,
    /// Copy-graph edges scanned while repairing the incremental
    /// topological order (both search directions plus cycle
    /// extraction). Not part of the snapshot format: restored results
    /// read 0.
    pub order_search_edges: u64,
    /// Dispatch groups bound: one per run of consecutive receivers of a
    /// delta (or a replayed receiver set) sharing `(target, callee
    /// context)`. Binding receiver by receiver would make this equal
    /// the receiver count. Not part of the snapshot format: restored
    /// results read 0.
    pub dispatch_groups: u64,
}

impl AnalysisStats {
    /// Publishes the run's counters into the global [`obs`] registry
    /// (no-op while recording is disabled). Counters are monotonic, so
    /// repeated runs aggregate; the peak-words gauge keeps the largest
    /// run's value.
    pub fn publish(&self) {
        if !obs::enabled() {
            return;
        }
        obs::counter("pta.worklist_pops").add(self.worklist_pops);
        obs::counter("pta.propagated_objects").add(self.propagated_objects);
        obs::counter("pta.copy_edges").add(self.copy_edges);
        obs::counter("pta.call_graph_edges").add(self.call_graph_edges);
        obs::counter("pta.reachable_method_contexts").add(self.reachable_method_contexts);
        obs::counter("pta.contexts_created").add(self.context_count as u64);
        obs::counter("pta.scc_collapsed_ptrs").add(self.scc_collapsed_ptrs);
        obs::counter("pta.collapse_sweeps").add(self.collapse_sweeps);
        obs::counter("pta.wave_rounds").add(self.wave_rounds);
        obs::counter("pta.dsu_ops").add(self.dsu_ops);
        obs::counter("pta.pts_interned").add(self.pts_interned);
        obs::counter("pta.pts_dedup_hits").add(self.pts_dedup_hits);
        obs::counter("pta.intern_probe_ns").add(self.intern_probe_ns);
        obs::counter("pta.mask_ranges").add(self.mask_ranges);
        obs::counter("pta.range_union_hits").add(self.range_union_hits);
        obs::counter("pta.order_search_edges").add(self.order_search_edges);
        obs::counter("pta.dispatch_groups").add(self.dispatch_groups);
        let peak = obs::gauge("pta.pts_peak_words");
        if self.pts_peak_words as i64 > peak.get() {
            peak.set(self.pts_peak_words as i64);
        }
    }
}

/// The immutable result of a points-to analysis run.
#[derive(Debug)]
pub struct AnalysisResult {
    pub(crate) arena: ContextArena,
    pub(crate) objs: ObjTable,
    pub(crate) ptr_keys: Vec<PtrKey>,
    pub(crate) ptr_map: FastMap<PtrKey, PtrId>,
    /// The unique points-to sets, indexed by set id (id 0 is the empty
    /// set): every row's content and every collapsed union, each once.
    pub(crate) sets: Vec<PtsSet<ObjId>>,
    /// Set id of each pointer's row.
    pub(crate) row_set: Vec<u32>,
    /// Cycle-collapse redirect table: `row_set[redirect[i]]` is pointer
    /// `i`'s set id (collapsed pointers hand their state to a
    /// representative; members of an unfiltered copy cycle converge to
    /// identical sets at fixpoint, so the redirection is invisible in
    /// query results).
    pub(crate) redirect: Vec<u32>,
    /// The pointers of each variable (one per context it arose in),
    /// grouped by variable id.
    pub(crate) var_ptrs: IdTable<PtrId>,
    /// Set id of the context-collapsed points-to set per `var_ptrs`
    /// slot, built eagerly at result assembly into the same table as
    /// the rows, so a union equal to a row (or to another variable's
    /// union) shares its set. A variable whose contexts all share one
    /// row takes that row's id.
    pub(crate) collapsed: Vec<u32>,
    pub(crate) reachable: FastSet<(CtxId, MethodId)>,
    pub(crate) reachable_methods: FastSet<MethodId>,
    pub(crate) cg_edges: FastSet<(CallSiteId, MethodId)>,
    pub(crate) cs_cg_edge_count: usize,
    pub(crate) stats: AnalysisStats,
    /// Contexts each method is analyzed under.
    pub(crate) method_ctxs: IdTable<CtxId>,
    /// Sorted targets per call site (precomputed so `call_targets` is
    /// an O(1) borrow instead of an edge scan).
    pub(crate) site_targets: IdTable<MethodId>,
}

impl AnalysisResult {
    /// Assembles a result from the rows' set ids into `interner`, which
    /// then also takes the collapsed unions and becomes the result's
    /// set table.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        arena: ContextArena,
        objs: ObjTable,
        ptr_keys: Vec<PtrKey>,
        ptr_map: FastMap<PtrKey, PtrId>,
        row_set: Vec<u32>,
        mut interner: SetInterner<ObjId>,
        redirect: Vec<u32>,
        reachable: FastSet<(CtxId, MethodId)>,
        reachable_methods: FastSet<MethodId>,
        cg_edges: FastSet<(CallSiteId, MethodId)>,
        cs_cg_edge_count: usize,
        stats: AnalysisStats,
    ) -> Self {
        // Every table is grouped by the ids in its input; none is
        // sized by an id alone (see `table`), because a restored
        // snapshot's ids are untrusted.
        let method_ctxs = IdTable::group(reachable.iter().map(|&(ctx, m)| (m.as_u32(), ctx)));
        let mut site_targets = IdTable::group(cg_edges.iter().map(|&(s, m)| (s.as_u32(), m)));
        site_targets.sort_groups();
        let var_ptrs = IdTable::group(ptr_keys.iter().enumerate().filter_map(|(i, key)| {
            match *key {
                PtrKey::Var(_, v) => Some((v.as_u32(), PtrId(i as u32))),
                _ => None,
            }
        }));
        let row = |p: &PtrId| row_set[redirect[p.index()] as usize];
        let mut collapsed = Vec::with_capacity(var_ptrs.slot_count());
        let mut distinct: Vec<u32> = Vec::new();
        for slot in 0..var_ptrs.slot_count() {
            let id = match var_ptrs.at(slot) {
                [] => SetInterner::<ObjId>::EMPTY,
                // One context, or every context sharing one row: the
                // collapsed set IS that row.
                [first, rest @ ..] if rest.iter().all(|p| row(p) == row(first)) => row(first),
                // Otherwise merge each distinct row into one set (many
                // contexts share a row) and intern the union.
                ptrs => {
                    distinct.clear();
                    distinct.extend(ptrs.iter().map(row));
                    distinct.sort_unstable();
                    distinct.dedup();
                    let mut union = PtsSet::new();
                    for &id in &distinct {
                        union.union_with(interner.get(id));
                    }
                    interner.intern(union).0
                }
            };
            collapsed.push(id);
        }
        AnalysisResult {
            arena,
            objs,
            ptr_keys,
            ptr_map,
            sets: interner.into_sets(),
            row_set,
            redirect,
            var_ptrs,
            collapsed,
            reachable,
            reachable_methods,
            cg_edges,
            cs_cg_edge_count,
            stats,
            method_ctxs,
            site_targets,
        }
    }

    /// Replaces the stats block (the solver finishes timing the
    /// finalize phase only after the result is assembled).
    pub(crate) fn with_stats(mut self, stats: AnalysisStats) -> Self {
        self.stats = stats;
        self
    }

    // --- Object queries -----------------------------------------------------

    /// Returns the number of distinct abstract objects created.
    pub fn object_count(&self) -> usize {
        self.objs.len()
    }

    /// Returns the (representative) allocation site of an object.
    pub fn obj_alloc(&self, obj: ObjId) -> AllocId {
        self.objs.alloc(obj)
    }

    /// Returns the runtime type of an object.
    pub fn obj_type(&self, obj: ObjId) -> TypeId {
        self.objs.ty(obj)
    }

    /// Returns the heap context of an object.
    pub fn obj_heap_context(&self, obj: ObjId) -> CtxId {
        self.objs.heap_context(obj)
    }

    /// Iterates over all abstract objects.
    pub fn objects(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.objs.iter()
    }

    /// Canonical (discovery-order) index of `obj` — the id it would
    /// carry under [`crate::Numbering::Discovery`]. This is the old↔new
    /// permutation of the hierarchy renumbering: fingerprints computed
    /// over canonical indices are bit-identical regardless of the
    /// [`crate::Numbering`] the run used.
    pub fn obj_canonical_index(&self, obj: ObjId) -> u32 {
        self.objs.discovery_index(obj)
    }

    /// Inverse of [`AnalysisResult::obj_canonical_index`]: the object
    /// interned `i`-th (`i < object_count()`).
    pub fn obj_from_canonical(&self, i: u32) -> ObjId {
        self.objs.by_discovery_index(i)
    }

    // --- Points-to queries ---------------------------------------------------

    /// Returns the points-to set of variable `var` under context `ctx`
    /// (the empty set if the pointer never arose). Borrows; use
    /// [`PtsSet::to_vec`] for an owned, sorted `Vec`.
    pub fn points_to(&self, ctx: CtxId, var: VarId) -> &PtsSet<ObjId> {
        self.pts_of(PtrKey::Var(ctx, var))
    }

    /// Returns the context-insensitively collapsed points-to set of
    /// `var`: the union over all contexts. Borrows from a cache built
    /// at result assembly (variables with identical collapsed sets
    /// share one stored set); the empty set if `var` never
    /// arose. Use [`PtsSet::to_vec`] for an owned, sorted `Vec`.
    pub fn points_to_collapsed(&self, var: VarId) -> &PtsSet<ObjId> {
        match self.var_ptrs.slot(var.as_u32()) {
            Some(slot) => &self.sets[self.collapsed[slot] as usize],
            None => &EMPTY_PTS,
        }
    }

    /// Returns the points-to set of `obj.field`.
    pub fn field_points_to(&self, obj: ObjId, field: FieldId) -> &PtsSet<ObjId> {
        self.pts_of(PtrKey::Field(obj, field))
    }

    /// Returns the points-to set of a static field.
    pub fn static_points_to(&self, field: FieldId) -> &PtsSet<ObjId> {
        self.pts_of(PtrKey::Static(field))
    }

    fn pts_of(&self, key: PtrKey) -> &PtsSet<ObjId> {
        match self.ptr_map.get(&key) {
            Some(p) => self.resolved(*p),
            None => &EMPTY_PTS,
        }
    }

    /// Resolves a pointer through the cycle-collapse redirect table to
    /// the set its representative owns.
    pub(crate) fn resolved(&self, p: PtrId) -> &PtsSet<ObjId> {
        &self.sets[self.row_set[self.redirect[p.index()] as usize] as usize]
    }

    /// Iterates over all `(object, field, points-to set)` triples — the
    /// raw material of Mahjong's field points-to graph. Sets are
    /// borrowed; iteration order of each set is ascending.
    pub fn field_pointers(
        &self,
    ) -> impl Iterator<Item = (ObjId, FieldId, &PtsSet<ObjId>)> + '_ {
        self.ptr_keys
            .iter()
            .enumerate()
            .filter_map(move |(i, key)| match *key {
                PtrKey::Field(obj, field) => {
                    Some((obj, field, self.resolved(PtrId(i as u32))))
                }
                _ => None,
            })
    }

    /// Sum of all points-to set sizes (a standard size metric). Each
    /// pointer counts its resolved (representative) set, so the metric
    /// is unaffected by cycle collapse.
    pub fn total_points_to_size(&self) -> u64 {
        (0..self.ptr_keys.len())
            .map(|i| self.resolved(PtrId(i as u32)).len() as u64)
            .sum()
    }

    /// Number of pointer nodes in the constraint graph.
    pub fn pointer_count(&self) -> usize {
        self.ptr_keys.len()
    }

    // --- Call graph and reachability ------------------------------------------

    /// Returns the context-insensitive call-graph edges `(site, target)`.
    pub fn call_graph_edges(&self) -> impl Iterator<Item = (CallSiteId, MethodId)> + '_ {
        self.cg_edges.iter().copied()
    }

    /// Returns the number of context-insensitive call-graph edges — the
    /// paper's "#call graph edges" metric.
    pub fn call_graph_edge_count(&self) -> usize {
        self.cg_edges.len()
    }

    /// Returns the number of context-sensitive call-graph edges.
    pub fn cs_call_graph_edge_count(&self) -> usize {
        self.cs_cg_edge_count
    }

    /// Returns the targets discovered for one call site, sorted and
    /// deduplicated (empty for unresolved or unreachable sites).
    pub fn call_targets(&self, site: CallSiteId) -> &[MethodId] {
        self.site_targets.get(site.as_u32())
    }

    /// Returns `true` if `method` is reachable from the entry point.
    pub fn is_reachable(&self, method: MethodId) -> bool {
        self.reachable_methods.contains(&method)
    }

    /// Returns the number of reachable methods (context-insensitive).
    pub fn reachable_method_count(&self) -> usize {
        self.reachable_methods.len()
    }

    /// Returns the contexts under which `method` was analyzed.
    pub fn contexts_of_method(&self, method: MethodId) -> &[CtxId] {
        self.method_ctxs.get(method.as_u32())
    }

    /// Returns the number of reachable `(context, method)` pairs.
    pub fn reachable_context_count(&self) -> usize {
        self.reachable.len()
    }

    /// Returns the solver statistics.
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// Returns the context arena (for inspecting context elements).
    pub fn contexts(&self) -> &ContextArena {
        &self.arena
    }
}
