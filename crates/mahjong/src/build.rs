//! NFA construction (Algorithm 2), DFA conversion with the single-type
//! check (Algorithm 3 + the SINGLETYPE-CHECK of Algorithm 1), and the
//! shared subset machine the merge phase decides equivalence on, all
//! computed directly over the shared FPG.
//!
//! The paper's "Shared Sequential Automata" optimization (Section 5)
//! observes that the per-object NFAs are all fragments of one structure:
//! the FPG itself. Subset construction therefore runs straight over FPG
//! adjacency; [`nfa_for_root`] materializes one object's NFA only as a
//! reference for tests.
//!
//! [`SharedMachine`] takes the sharing to the whole batch. DFA states
//! are *sets of FPG nodes*, interned once in a [`SubsetCtx`] with their
//! output set and transition row, so the states reachable from every
//! candidate's start state `{o}` form one deterministic machine, and
//! each object's DFA is exactly the part of it reachable from `{o}`.
//! Two objects are equivalent iff their start states are equivalent in
//! that machine, which one partition refinement decides for all of them
//! at once ([`SharedMachine::root_classes`]). [`SubsetCtx::dfa_for_root`]
//! still builds one object's DFA on its own; it serves the pairwise
//! test oracle.

use automata::{Dfa, DfaPartsBuilder, Nfa, NfaBuilder, Output, StateId, Symbol};
use fxhash::FxHashMap;
use jir::{AllocId, FieldId};

use crate::fpg::{FieldPointsToGraph, FpgNode, NodeType};

/// The output symbol used for the dummy null node (`TYPEOF` returns a
/// special type for `o_null`, Algorithm 1).
pub const NULL_OUTPUT: Output = Output(u32::MAX);

/// Maps a node's type to an automaton output symbol.
pub fn output_of(fpg: &FieldPointsToGraph, node: FpgNode) -> Output {
    match fpg.node_type(node) {
        NodeType::Type(t) => Output(t.as_u32()),
        NodeType::Null => NULL_OUTPUT,
    }
}

/// Materializes the 6-tuple NFA rooted at `root` (paper Algorithm 2,
/// Figure 4): states are the FPG nodes reachable from `root`, input
/// symbols are field ids, outputs are types.
///
/// Reference implementation: subset construction ([`dfa_for_root`],
/// [`SharedMachine`]) skips this materialization.
pub fn nfa_for_root(fpg: &FieldPointsToGraph, root: AllocId) -> Nfa {
    let nodes = fpg.reachable_from(FpgNode::Alloc(root));
    let mut builder = NfaBuilder::new();
    let mut state_of: FxHashMap<FpgNode, StateId> = FxHashMap::default();
    for &node in &nodes {
        let s = builder.add_state(output_of(fpg, node));
        state_of.insert(node, s);
    }
    for &node in &nodes {
        let from = state_of[&node];
        for &(field, to) in fpg.edges_of(node) {
            builder.add_transition(from, Symbol(field.as_u32()), state_of[&to]);
        }
        // The null node is a terminal sink here. The paper gives it a
        // self-loop on every field; under the single-type invariant the
        // two conventions induce the same equivalence relation, because
        // a state containing the null node is exactly {null} in both
        // compared automata, so words extending past it are treated
        // identically (both loop, or both reject).
    }
    builder.finish(state_of[&FpgNode::Alloc(root)])
}

/// The result of building the DFA for one object.
#[derive(Clone, Debug)]
pub enum RootAutomaton {
    /// The object fails SINGLETYPE-CHECK (some field path reaches
    /// objects of two or more types — Condition 2 of Definition 2.1);
    /// it can never merge.
    NotSingleType,
    /// The object's deterministic automaton; every state is
    /// type-homogeneous.
    Dfa(Dfa),
}

/// An interned NFA state-set, identified by insertion order.
type SetId = u32;

/// A memoized subset-construction context over one FPG.
///
/// Interns the NFA state-sets (sorted, deduplicated `FpgNode` slices)
/// that subset construction discovers, together with two per-set caches:
///
/// - the set's **output set** (the types of its members), and
/// - the set's **transition row**: the `(field, successor-set)` pairs,
///   computed lazily on first visit and shared by every later root that
///   reaches the same set.
///
/// Structurally identical sub-automata — ubiquitous within a type group,
/// since that is precisely what makes objects equivalent — are thereby
/// built once per context rather than once per object.
#[derive(Debug)]
pub struct SubsetCtx<'g> {
    fpg: &'g FieldPointsToGraph,
    index_of: FxHashMap<Box<[FpgNode]>, SetId>,
    sets: Vec<Box<[FpgNode]>>,
    outputs: Vec<Vec<Output>>,
    rows: Vec<Option<TransitionRow>>,
    row_hits: u64,
    row_misses: u64,
}

/// A cached transition row: the `(field, successor-set)` pairs of one
/// interned state-set, in ascending field order.
type TransitionRow = Box<[(FieldId, SetId)]>;

impl<'g> SubsetCtx<'g> {
    /// Creates an empty context over `fpg`.
    pub fn new(fpg: &'g FieldPointsToGraph) -> Self {
        SubsetCtx {
            fpg,
            index_of: FxHashMap::default(),
            sets: Vec::new(),
            outputs: Vec::new(),
            rows: Vec::new(),
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Interns a sorted, deduplicated state-set, returning its id.
    fn intern(&mut self, set: Vec<FpgNode>) -> SetId {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set not sorted");
        if let Some(&id) = self.index_of.get(set.as_slice()) {
            return id;
        }
        let id = SetId::try_from(self.sets.len()).expect("too many interned sets");
        let boxed: Box<[FpgNode]> = set.into_boxed_slice();
        let mut outs: Vec<Output> =
            boxed.iter().map(|&n| output_of(self.fpg, n)).collect();
        outs.sort_unstable();
        outs.dedup();
        self.index_of.insert(boxed.clone(), id);
        self.sets.push(boxed);
        self.outputs.push(outs);
        self.rows.push(None);
        id
    }

    /// Returns the cached output set γ'(set).
    fn outputs(&self, id: SetId) -> &[Output] {
        &self.outputs[id as usize]
    }

    /// Ensures the transition row of `id` is computed, returning it.
    ///
    /// The row lists `(field, successor-set)` in ascending field order,
    /// skipping fields with no successors (they lead to `q_error`).
    fn row(&mut self, id: SetId) -> &[(FieldId, SetId)] {
        if self.rows[id as usize].is_some() {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
            // Every member's edges at once, grouped by field: a field
            // no member has leads to q_error and gets no entry.
            let fpg = self.fpg;
            let members = &self.sets[id as usize];
            let mut edges: Vec<(FieldId, FpgNode)> = Vec::new();
            for &node in members.iter() {
                edges.extend_from_slice(fpg.edges_of(node));
            }
            // Null self-loops: a null member follows every field the
            // other members have (`Null` sorts last). A set whose only
            // member is null has no fields, so it is a leaf.
            if members.last() == Some(&FpgNode::Null) {
                let fields: Vec<FieldId> = edges.iter().map(|&(f, _)| f).collect();
                for f in fields {
                    edges.extend(fpg.successors(FpgNode::Null, f).into_iter().map(|n| (f, n)));
                }
            }
            edges.sort_unstable();
            edges.dedup();
            let mut row = Vec::new();
            for group in edges.chunk_by(|a, b| a.0 == b.0) {
                let next = group.iter().map(|&(_, n)| n).collect();
                row.push((group[0].0, self.intern(next)));
            }
            self.rows[id as usize] = Some(row.into_boxed_slice());
        }
        self.rows[id as usize].as_deref().expect("row just ensured")
    }

    /// Number of distinct state-sets interned so far.
    pub fn interned_sets(&self) -> usize {
        self.sets.len()
    }

    /// `(hits, misses)` of the transition-row cache: a hit means a whole
    /// successor computation was reused from an earlier root.
    pub fn row_cache(&self) -> (u64, u64) {
        (self.row_hits, self.row_misses)
    }

    /// Subset construction from `root` over the shared FPG
    /// (Algorithm 3) fused with SINGLETYPE-CHECK (Algorithm 1,
    /// lines 6–7): bails out as soon as a constructed state mixes two
    /// output types.
    ///
    /// When `enforce_single_type` is `false` (the Condition-2 ablation),
    /// construction always completes and states may carry output sets.
    pub fn dfa_for_root(&mut self, root: AllocId, enforce_single_type: bool) -> RootAutomaton {
        let mut builder = DfaPartsBuilder::default();
        let start_id = self.intern(vec![FpgNode::Alloc(root)]);
        let mut state_of: FxHashMap<SetId, StateId> = FxHashMap::default();
        let start = builder.add_state(self.outputs(start_id).to_vec());
        state_of.insert(start_id, start);
        let mut worklist = vec![(start, start_id)];

        while let Some((dq, sid)) = worklist.pop() {
            // Small copy to release the borrow on the row cache; rows
            // are a handful of entries (one per field of the set).
            let row: Vec<(FieldId, SetId)> = self.row(sid).to_vec();
            for (field, succ) in row {
                let target = match state_of.get(&succ) {
                    Some(&t) => t,
                    None => {
                        let outputs = self.outputs(succ);
                        if enforce_single_type && outputs.len() > 1 {
                            return RootAutomaton::NotSingleType;
                        }
                        let t = builder.add_state(outputs.to_vec());
                        state_of.insert(succ, t);
                        worklist.push((t, succ));
                        t
                    }
                };
                builder.add_transition(dq, Symbol(field.as_u32()), target);
            }
        }
        RootAutomaton::Dfa(builder.finish(start))
    }
}

/// One-shot subset construction: [`SubsetCtx::dfa_for_root`] with a
/// fresh, throwaway context, for tests and callers that build a single
/// automaton.
pub fn dfa_for_root(
    fpg: &FieldPointsToGraph,
    root: AllocId,
    enforce_single_type: bool,
) -> RootAutomaton {
    SubsetCtx::new(fpg).dfa_for_root(root, enforce_single_type)
}

/// The shared subset machine of a batch of roots: every state-set
/// reachable from any root's start state `{o}`, interned once, with the
/// states that fail SINGLETYPE-CHECK marked.
///
/// Under Condition 2 a state is *bad* if its output set has more than
/// one type or some path leads from it to such a state; a root whose
/// start state is bad fails SINGLETYPE-CHECK, exactly as its own subset
/// construction would have bailed. Multi-type states are not expanded
/// (nothing behind them can rescue their predecessors). Successors of a
/// good state are good, so the good states form a closed sub-machine.
#[derive(Debug)]
pub struct SharedMachine<'g> {
    ctx: SubsetCtx<'g>,
    starts: Vec<SetId>,
    bad: Vec<bool>,
}

/// The equivalence classes of a batch of roots, computed by
/// [`SharedMachine::root_classes`].
#[derive(Clone, Debug)]
pub struct RootClasses {
    /// Per root, in the order given to [`SharedMachine::build`]: its
    /// class id in `0..classes`, or `None` when it fails
    /// SINGLETYPE-CHECK.
    pub class_of: Vec<Option<u32>>,
    /// Classes among all good states (a bound for the roots' ids).
    pub classes: usize,
    /// Partition refinement rounds run.
    pub rounds: usize,
}

impl<'g> SharedMachine<'g> {
    /// Interns `{root}` for every root and explores every state
    /// reachable from them, then marks the bad states (only when
    /// `enforce_single_type`; otherwise every state is expanded and
    /// none is bad).
    pub fn build(
        fpg: &'g FieldPointsToGraph,
        roots: &[AllocId],
        enforce_single_type: bool,
    ) -> Self {
        let mut ctx = SubsetCtx::new(fpg);
        let starts: Vec<SetId> = roots
            .iter()
            .map(|&root| ctx.intern(vec![FpgNode::Alloc(root)]))
            .collect();
        let multi_type = |ctx: &SubsetCtx<'_>, id: usize| ctx.outputs[id].len() > 1;
        // Interning only appends, so one sweep over the ids reaches
        // every state the rows discover.
        let mut id = 0;
        while id < ctx.sets.len() {
            if !(enforce_single_type && multi_type(&ctx, id)) {
                ctx.row(id as SetId);
            }
            id += 1;
        }
        let n = ctx.sets.len();
        let mut bad = vec![false; n];
        if enforce_single_type {
            // One backward pass over the reversed rows from every
            // multi-type state.
            let mut preds: Vec<Vec<SetId>> = vec![Vec::new(); n];
            for (from, row) in ctx.rows.iter().enumerate() {
                for &(_, to) in row.as_deref().unwrap_or_default() {
                    preds[to as usize].push(from as SetId);
                }
            }
            let mut stack: Vec<SetId> = (0..n)
                .filter(|&id| multi_type(&ctx, id))
                .map(|id| id as SetId)
                .collect();
            for &id in &stack {
                bad[id as usize] = true;
            }
            while let Some(id) = stack.pop() {
                for &p in &preds[id as usize] {
                    if !bad[p as usize] {
                        bad[p as usize] = true;
                        stack.push(p);
                    }
                }
            }
        }
        SharedMachine { ctx, starts, bad }
    }

    /// Number of interned states, good and bad.
    pub fn states(&self) -> usize {
        self.ctx.interned_sets()
    }

    /// Partitions the good states by behaviour ([`Dfa::state_classes`],
    /// with a missing transition leading to the error sink, as in
    /// [`Dfa::equivalent`]) and returns each root's class.
    pub fn root_classes(&self) -> RootClasses {
        if self.bad.iter().all(|&bad| bad) {
            return RootClasses {
                class_of: vec![None; self.starts.len()],
                classes: 0,
                rounds: 0,
            };
        }
        let mut state_of = vec![u32::MAX; self.bad.len()];
        let mut builder = DfaPartsBuilder::default();
        for (id, outputs) in self.ctx.outputs.iter().enumerate() {
            if !self.bad[id] {
                state_of[id] = builder.add_state(outputs.clone()).0;
            }
        }
        for (id, row) in self.ctx.rows.iter().enumerate() {
            if self.bad[id] {
                continue;
            }
            let from = StateId(state_of[id]);
            for &(field, to) in row.as_deref().expect("good states are expanded") {
                let to = StateId(state_of[to as usize]);
                builder.add_transition(from, Symbol(field.as_u32()), to);
            }
        }
        let classes = builder.finish(StateId(0)).state_classes();
        let class_of_set = |s: SetId| classes.class_of[state_of[s as usize] as usize];
        RootClasses {
            class_of: self
                .starts
                .iter()
                .map(|&s| (!self.bad[s as usize]).then(|| class_of_set(s)))
                .collect(),
            classes: classes.classes,
            rounds: classes.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpg::FpgBuilder;

    /// The paper's Figure 2: two T-rooted graphs that are
    /// type-consistent.
    fn figure2() -> (FieldPointsToGraph, AllocId, AllocId) {
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let u = b.ty("U");
        let x = b.ty("X");
        let y = b.ty("Y");
        let (f, g, h, k) = (b.field("f"), b.field("g"), b.field("h"), b.field("k"));

        // o1: T with f->U{h->Y,h->Y'}, g->X{k->Y}
        let o1 = b.alloc(t);
        let o3 = b.alloc(u);
        let o5 = b.alloc(x);
        let o7 = b.alloc(y);
        let o9 = b.alloc(y);
        let o11 = b.alloc(y);
        b.edge(o1, f, o3);
        b.edge(o1, g, o5);
        b.edge(o3, h, o7);
        b.edge(o3, h, o9);
        b.edge(o5, k, o11);

        // o2: T with f->U{h->Y}, g->X{k->Y}
        let o2 = b.alloc(t);
        let o4 = b.alloc(u);
        let o6 = b.alloc(x);
        let o8 = b.alloc(y);
        b.edge(o2, f, o4);
        b.edge(o2, g, o6);
        b.edge(o4, h, o8);
        b.edge(o6, k, o8);

        (b.finish(), o1, o2)
    }

    #[test]
    fn figure2_roots_have_equivalent_dfas() {
        let (fpg, o1, o2) = figure2();
        let (RootAutomaton::Dfa(d1), RootAutomaton::Dfa(d2)) =
            (dfa_for_root(&fpg, o1, true), dfa_for_root(&fpg, o2, true))
        else {
            panic!("both roots are single-type");
        };
        assert!(d1.equivalent(&d2), "o1 ≡ o2 (paper Example 2.6)");
        // NFA sizes: o1, o3, o5, o7, o9, o11 and o2, o4, o6, o8.
        assert_eq!(fpg.reachable_from(FpgNode::Alloc(o1)).len(), 6);
        assert_eq!(fpg.reachable_from(FpgNode::Alloc(o2)).len(), 4);
        let classes = SharedMachine::build(&fpg, &[o1, o2], true).root_classes();
        assert_eq!(classes.class_of[0], classes.class_of[1], "one class in the shared machine");
        assert!(classes.class_of[0].is_some());
    }

    #[test]
    fn dfa_matches_materialized_nfa() {
        let (fpg, o1, o2) = figure2();
        for root in [o1, o2] {
            let RootAutomaton::Dfa(direct) = dfa_for_root(&fpg, root, true) else {
                panic!("single-type")
            };
            let via_nfa = nfa_for_root(&fpg, root).to_dfa();
            assert!(direct.equivalent(&via_nfa), "shared-FPG construction agrees");
        }
    }

    #[test]
    fn shared_ctx_matches_fresh_ctx_and_reuses_rows() {
        let (fpg, o1, o2) = figure2();
        let mut ctx = SubsetCtx::new(&fpg);
        let a1 = ctx.dfa_for_root(o1, true);
        let a2 = ctx.dfa_for_root(o2, true);
        let f1 = dfa_for_root(&fpg, o1, true);
        let f2 = dfa_for_root(&fpg, o2, true);
        let (
            RootAutomaton::Dfa(a1),
            RootAutomaton::Dfa(a2),
            RootAutomaton::Dfa(f1),
            RootAutomaton::Dfa(f2),
        ) = (a1, a2, f1, f2)
        else {
            panic!("all single-type");
        };
        assert_eq!(a1, f1, "shared context is invisible to the result");
        assert_eq!(a2, f2);
        assert!(ctx.interned_sets() >= 4);
    }

    #[test]
    fn shared_substructure_hits_the_row_cache() {
        // Two roots storing the *same* payload object: the second build
        // reuses the payload's interned set and its transition row.
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let u = b.ty("U");
        let v = b.ty("V");
        let f = b.field("f");
        let g = b.field("g");
        let r1 = b.alloc(t);
        let r2 = b.alloc(t);
        let shared = b.alloc(u);
        let leaf = b.alloc(v);
        b.edge(r1, f, shared);
        b.edge(r2, f, shared);
        b.edge(shared, g, leaf);
        let fpg = b.finish();
        let mut ctx = SubsetCtx::new(&fpg);
        let a1 = ctx.dfa_for_root(r1, true);
        let (hits_before, _) = ctx.row_cache();
        let a2 = ctx.dfa_for_root(r2, true);
        let (hits_after, misses) = ctx.row_cache();
        assert!(
            hits_after > hits_before,
            "second root must reuse the shared payload's transition row"
        );
        assert!(misses > 0);
        let (RootAutomaton::Dfa(a1), RootAutomaton::Dfa(a2)) = (a1, a2) else {
            panic!("single-type");
        };
        assert!(a1.equivalent(&a2));
    }

    #[test]
    fn mixed_type_field_fails_single_type_check() {
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let x = b.ty("X");
        let y = b.ty("Y");
        let f = b.field("f");
        let o = b.alloc(t);
        let ox = b.alloc(x);
        let oy = b.alloc(y);
        b.edge(o, f, ox);
        b.edge(o, f, oy);
        let fpg = b.finish();
        assert!(matches!(dfa_for_root(&fpg, o, true), RootAutomaton::NotSingleType));
        // Without Condition 2 the DFA completes with an output set.
        let RootAutomaton::Dfa(d) = dfa_for_root(&fpg, o, false) else { panic!() };
        assert!(!d.is_single_output());
        // The shared machine agrees: bad under Condition 2, classified
        // without it.
        assert_eq!(SharedMachine::build(&fpg, &[o], true).root_classes().class_of, vec![None]);
        assert!(SharedMachine::build(&fpg, &[o], false).root_classes().class_of[0].is_some());
    }

    #[test]
    fn null_edges_distinguish_uninitialized_objects() {
        // Table 1 rows 3/6: same type, one with a real field target, one
        // with a null field.
        let mut b = FpgBuilder::new();
        let t = b.ty("ASTPair");
        let d = b.ty("DetailAST");
        let f = b.field("child");
        let o1 = b.alloc(t);
        let o2 = b.alloc(t);
        let od = b.alloc(d);
        b.edge(o1, f, od);
        b.null_edge(o2, f);
        let fpg = b.finish();
        let (RootAutomaton::Dfa(d1), RootAutomaton::Dfa(d2)) =
            (dfa_for_root(&fpg, o1, true), dfa_for_root(&fpg, o2, true))
        else {
            panic!()
        };
        assert!(!d1.equivalent(&d2), "null-field object must stay separate");
        let classes = SharedMachine::build(&fpg, &[o1, o2], true).root_classes();
        assert_ne!(classes.class_of[0], classes.class_of[1]);
    }

    #[test]
    fn cyclic_fpg_builds_finite_dfa() {
        let mut b = FpgBuilder::new();
        let t = b.ty("Node");
        let f = b.field("next");
        let o1 = b.alloc(t);
        let o2 = b.alloc(t);
        b.edge(o1, f, o2);
        b.edge(o2, f, o1);
        let fpg = b.finish();
        let RootAutomaton::Dfa(d) = dfa_for_root(&fpg, o1, true) else { panic!() };
        assert!(d.state_count() <= 3);
        // A self-loop-equivalent list: o1 ≡ o2.
        let RootAutomaton::Dfa(d2) = dfa_for_root(&fpg, o2, true) else { panic!() };
        assert!(d.equivalent(&d2));
        let classes = SharedMachine::build(&fpg, &[o1, o2], true).root_classes();
        assert_eq!(classes.class_of[0], classes.class_of[1]);
    }
}
