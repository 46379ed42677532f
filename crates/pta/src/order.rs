//! Incremental topological order over the condensed copy graph, with
//! online cycle detection.
//!
//! Every pointer carries a `u64` *label*; the invariant is that each
//! unfiltered copy edge `u → v` between distinct representatives
//! satisfies `label(u) < label(v)` once its repair has run. The wave
//! driver pops dirty pointers in label order, so a delta crosses the
//! acyclic core once per wave.
//!
//! Fresh pointers take the next label, [`GAP`] above the previous one.
//! An edge `x → y` that arrives out of order (`label(x) >= label(y)`)
//! is queued and repaired between worklist pops by two interleaved
//! searches (after Pearce & Kelly, *A Dynamic Topological Sort
//! Algorithm for Directed Acyclic Graphs*, JEA 2006, and Pearce, Kelly
//! & Hankin, *Online Cycle Detection and Difference Propagation for
//! Pointer Analysis*, SCAM 2003):
//!
//! - **forward** from `y` over the copy edges of consumer rows (other
//!   consumers are skipped, uncounted), through labels `<= label(x)`;
//! - **backward** from `x` over predecessor lists, through labels
//!   `>= label(y)`.
//!
//! The searches advance one scanned edge at a time, alternately, and
//! stop as soon as either side has exhausted its window. Only the
//! finished side moves: a finished forward set `F` is relabelled into
//! the gap above `x` (below the smallest label it reaches outside the
//! window), a finished backward set `B` into the gap below `y` (above
//! the largest label reaching it from outside). Either move keeps every
//! already repaired edge ordered, because a complete window contains
//! every neighbour that could be overtaken. If the finished side
//! contains the other endpoint, the edge closed a cycle: the members of
//! the window that lie on a path between `y` and `x` form it, they are
//! handed back to the solver for collapse (all relabelled to the
//! anchor's label), and the rest of the window moves as above. When a
//! gap is too narrow for the move, every representative is renumbered
//! [`GAP`] apart in its current order and the move retried.
//!
//! Predecessor lists hold unfiltered copy edges only, as singly linked
//! lists threaded through one shared arena (a head index per pointer,
//! 8 bytes per edge), so the reverse graph costs no per-pointer
//! allocation. Sources are stored raw and normalized through the
//! collapse partition when scanned.

use dsu::DisjointSets;

use crate::solver::{Consumer, PtrId, Row};
use crate::util::FastSet;

/// Label distance between consecutive fresh pointers and between
/// neighbours after a renumber.
pub(crate) const GAP: u64 = 1 << 32;

/// End of a predecessor list.
const NIL: u32 = u32::MAX;

/// Search scratch sets above this capacity are dropped instead of
/// cleared, so one large search does not tax every later small one.
const SCRATCH_KEEP: usize = 1024;

/// One half of a repair search: a depth-first walk over one direction
/// of the copy graph, restricted to a label window.
#[derive(Default)]
struct Side {
    /// DFS frames: node and cursor (consumer-row index going forward,
    /// predecessor link going backward).
    stack: Vec<(u32, u32)>,
    seen: FastSet<u32>,
    /// Window nodes in discovery order.
    nodes: Vec<u32>,
    /// The nearest neighbour outside the window: the smallest-labelled
    /// successor (forward) or largest-labelled predecessor (backward).
    bound: Option<u32>,
}

impl Side {
    fn start(&mut self, node: u32, cursor: u32) {
        self.stack.clear();
        self.nodes.clear();
        if self.seen.capacity() > SCRATCH_KEEP {
            self.seen = FastSet::default();
        } else {
            self.seen.clear();
        }
        self.bound = None;
        self.seen.insert(node);
        self.nodes.push(node);
        self.stack.push((node, cursor));
    }
}

/// The incremental order (see the module docs).
#[derive(Default)]
pub(crate) struct TopoOrder {
    label: Vec<u64>,
    next_label: u64,
    pred_head: Vec<u32>,
    /// `[source, next link]` per unfiltered copy edge.
    preds: Vec<[u32; 2]>,
    /// Out-of-order edges awaiting repair.
    queue: Vec<(PtrId, PtrId)>,
    /// The drained batch's buffer, handed back by
    /// [`TopoOrder::recycle_repairs`] to become the next queue.
    spare_queue: Vec<(PtrId, PtrId)>,
    /// The finished side's window minus the cycle, reused across
    /// repairs.
    moved: Vec<u32>,
    fwd: Side,
    bwd: Side,
    /// Copy-graph edges scanned by repair searches and cycle
    /// extraction.
    pub(crate) edges_scanned: u64,
    /// Full renumbers forced by an exhausted gap.
    pub(crate) renumbers: u64,
}

impl TopoOrder {
    /// Labels a fresh pointer after every existing one.
    pub(crate) fn push(&mut self) {
        self.next_label = self.next_label.saturating_add(GAP);
        self.label.push(self.next_label);
        self.pred_head.push(NIL);
    }

    /// The label of a representative.
    pub(crate) fn label(&self, rep: usize) -> u64 {
        self.label[rep]
    }

    /// Records the unfiltered copy edge `from → to` between distinct
    /// representatives, queueing a repair if it runs against the order.
    pub(crate) fn add_edge(&mut self, from: PtrId, to: PtrId) {
        let link = u32::try_from(self.preds.len()).expect("too many copy edges");
        self.preds.push([from.0, self.pred_head[to.index()]]);
        self.pred_head[to.index()] = link;
        if self.label[from.index()] >= self.label[to.index()] {
            self.queue.push((from, to));
        }
    }

    /// Returns `true` while some edge awaits repair.
    pub(crate) fn has_repairs(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Drains the repair queue (endpoints as recorded, not normalized).
    /// Edges queued while the batch is repaired start a new queue; hand
    /// the batch back through [`TopoOrder::recycle_repairs`] so that
    /// queue reuses its buffer.
    pub(crate) fn take_repairs(&mut self) -> Vec<(PtrId, PtrId)> {
        let spare = std::mem::take(&mut self.spare_queue);
        std::mem::replace(&mut self.queue, spare)
    }

    /// Keeps a repaired batch's buffer for the next queue.
    pub(crate) fn recycle_repairs(&mut self, mut batch: Vec<(PtrId, PtrId)>) {
        batch.clear();
        self.spare_queue = batch;
    }

    /// Repairs the order for the edge `x → y` (both representatives).
    /// Returns the members of the cycle the edge closed, if any; the
    /// caller must collapse them and then call [`TopoOrder::absorb`].
    pub(crate) fn repair(
        &mut self,
        x: PtrId,
        y: PtrId,
        cons: &[Row],
        dsu: &DisjointSets,
    ) -> Option<Vec<u32>> {
        let (lx, ly) = (self.label[x.index()], self.label[y.index()]);
        if x == y || lx < ly {
            return None;
        }
        self.fwd.start(y.0, 0);
        self.bwd.start(x.0, self.pred_head[x.index()]);
        let forward_done = loop {
            if self.step_forward(cons, dsu, lx) {
                break true;
            }
            if self.step_backward(dsu, ly) {
                break false;
            }
        };
        // The finished side, its anchor (the other endpoint of the
        // edge, which stays put) and the cycle it may contain.
        let (side, anchor) = if forward_done {
            (std::mem::take(&mut self.fwd), x.0)
        } else {
            (std::mem::take(&mut self.bwd), y.0)
        };
        let cycle = if side.seen.contains(&anchor) {
            self.cycle_within(anchor, &side.seen, forward_done, cons, dsu)
        } else {
            FastSet::default()
        };
        let mut moved = std::mem::take(&mut self.moved);
        moved.clear();
        moved.extend(side.nodes.iter().copied().filter(|n| !cycle.contains(n)));
        moved.sort_unstable_by_key(|&n| (self.label[n as usize], n));
        if !self.place(&moved, anchor, side.bound, forward_done) {
            self.renumber(dsu);
            let placed = self.place(&moved, anchor, side.bound, forward_done);
            assert!(placed, "a renumbered gap always fits one window");
        }
        self.moved = moved;
        if forward_done {
            self.fwd = side;
        } else {
            self.bwd = side;
        }
        if cycle.is_empty() {
            return None;
        }
        let l = self.label[anchor as usize];
        let mut members: Vec<u32> = cycle.into_iter().collect();
        members.sort_unstable();
        for &m in &members {
            self.label[m as usize] = l;
        }
        Some(members)
    }

    /// Hands the predecessor lists of a collapsed cycle's members to
    /// its representative `rep`, which keeps the members' shared label.
    pub(crate) fn absorb(&mut self, members: &[u32], rep: usize) {
        debug_assert!(members
            .iter()
            .all(|&m| self.label[m as usize] == self.label[rep]));
        for &m in members {
            let mi = m as usize;
            let head = self.pred_head[mi];
            if mi == rep || head == NIL {
                continue;
            }
            let mut tail = head;
            while self.preds[tail as usize][1] != NIL {
                tail = self.preds[tail as usize][1];
            }
            self.preds[tail as usize][1] = self.pred_head[rep];
            self.pred_head[rep] = head;
            self.pred_head[mi] = NIL;
        }
    }

    /// Advances the forward search by one copy edge of a consumer row,
    /// skipping (and not counting) the row's other consumers; `true`
    /// once the window below `ub` is exhausted.
    fn step_forward(&mut self, cons: &[Row], dsu: &DisjointSets, ub: u64) -> bool {
        let side = &mut self.fwd;
        while let Some(frame) = side.stack.last_mut() {
            let (v, k) = *frame;
            let Some(&entry) = cons[v as usize].get(k as usize) else {
                side.stack.pop();
                continue;
            };
            frame.1 += 1;
            let Consumer::Copy(to, filter) = entry else {
                continue;
            };
            self.edges_scanned += 1;
            if filter.is_some() {
                return false;
            }
            let w = dsu.find(to.index()) as u32;
            if w == v {
                return false;
            }
            let lw = self.label[w as usize];
            if lw > ub {
                if side.bound.is_none_or(|b| lw < self.label[b as usize]) {
                    side.bound = Some(w);
                }
            } else if side.seen.insert(w) {
                side.nodes.push(w);
                side.stack.push((w, 0));
            }
            return false;
        }
        true
    }

    /// Advances the backward search by one predecessor link; `true`
    /// once the window above `lb` is exhausted.
    fn step_backward(&mut self, dsu: &DisjointSets, lb: u64) -> bool {
        let side = &mut self.bwd;
        while let Some(frame) = side.stack.last_mut() {
            let (v, link) = *frame;
            if link == NIL {
                side.stack.pop();
                continue;
            }
            let [src, next] = self.preds[link as usize];
            frame.1 = next;
            self.edges_scanned += 1;
            let w = dsu.find(src as usize) as u32;
            if w == v {
                return false;
            }
            let lw = self.label[w as usize];
            if lw < lb {
                if side.bound.is_none_or(|b| lw > self.label[b as usize]) {
                    side.bound = Some(w);
                }
            } else if side.seen.insert(w) {
                side.nodes.push(w);
                side.stack.push((w, self.pred_head[w as usize]));
            }
            return false;
        }
        true
    }

    /// The window nodes on a path between the edge's endpoints: those
    /// reaching `from` (= `x`) within a forward window, or reached from
    /// `from` (= `y`) within a backward window.
    fn cycle_within(
        &mut self,
        from: u32,
        window: &FastSet<u32>,
        forward_window: bool,
        cons: &[Row],
        dsu: &DisjointSets,
    ) -> FastSet<u32> {
        let mut cycle: FastSet<u32> = FastSet::default();
        cycle.insert(from);
        let mut todo = vec![from];
        let visit = |w: usize, cycle: &mut FastSet<u32>, todo: &mut Vec<u32>| {
            let w = dsu.find(w) as u32;
            if window.contains(&w) && cycle.insert(w) {
                todo.push(w);
            }
        };
        while let Some(v) = todo.pop() {
            if forward_window {
                let mut link = self.pred_head[v as usize];
                while link != NIL {
                    let [src, next] = self.preds[link as usize];
                    self.edges_scanned += 1;
                    visit(src as usize, &mut cycle, &mut todo);
                    link = next;
                }
            } else {
                for &entry in cons[v as usize].iter() {
                    let Consumer::Copy(to, filter) = entry else {
                        continue;
                    };
                    self.edges_scanned += 1;
                    if filter.is_none() {
                        visit(to.index(), &mut cycle, &mut todo);
                    }
                }
            }
        }
        cycle
    }

    /// Relabels `nodes` (sorted by label) evenly into the open gap
    /// beside `anchor`: above it and below `bound` for a forward
    /// window, below it and above `bound` for a backward one. An
    /// unbounded side extends one [`GAP`] past the anchor. Returns
    /// `false`, changing nothing, if the gap is too narrow.
    fn place(&mut self, nodes: &[u32], anchor: u32, bound: Option<u32>, above: bool) -> bool {
        let la = self.label[anchor as usize];
        let lb = bound.map(|b| self.label[b as usize]);
        let (lo, hi) = if above {
            (la, lb.unwrap_or(la.saturating_add(GAP)))
        } else {
            (lb.unwrap_or(la.saturating_sub(GAP)), la)
        };
        let slots = nodes.len() as u64 + 1;
        let step = hi.saturating_sub(lo) / slots;
        if step == 0 {
            return false;
        }
        for (k, &n) in nodes.iter().enumerate() {
            self.label[n as usize] = lo + step * (k as u64 + 1);
        }
        true
    }

    /// Relabels every representative [`GAP`] apart, keeping the order.
    fn renumber(&mut self, dsu: &DisjointSets) {
        self.renumbers += 1;
        let mut reps: Vec<u32> = (0..self.label.len() as u32)
            .filter(|&i| dsu.find(i as usize) == i as usize)
            .collect();
        reps.sort_unstable_by_key(|&i| (self.label[i as usize], i));
        self.next_label = 0;
        for &i in &reps {
            self.next_label += GAP;
            self.label[i as usize] = self.next_label;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CtxId;
    use crate::solver::PendingCall;
    use jir::{CallSiteId, FieldId, TypeId};
    use obs::rng::SplitMix64;

    /// A bare copy graph driving a [`TopoOrder`] the way the solver
    /// does: consumer rows on representatives, repairs drained after
    /// each batch of edges, cycles collapsed through the same
    /// partition.
    struct Graph {
        cons: Vec<Row>,
        dsu: DisjointSets,
        order: TopoOrder,
        /// Every unfiltered edge as added (raw endpoints).
        edges: Vec<(u32, u32)>,
        /// Interleave loads and calls with the copy edges: every third
        /// node's row starts with a load and a call, and a load follows
        /// every copy edge that brings a row to a multiple of four
        /// entries. The searches must skip them without a trace.
        noise: bool,
    }

    impl Graph {
        fn with_nodes(n: usize) -> Self {
            Graph::new(n, false)
        }

        fn new(n: usize, noise: bool) -> Self {
            let mut g = Graph {
                cons: Vec::new(),
                dsu: DisjointSets::new(0),
                order: TopoOrder::default(),
                edges: Vec::new(),
                noise,
            };
            for _ in 0..n {
                g.node();
            }
            g
        }

        fn load(p: u32) -> Consumer {
            Consumer::Load(FieldId::from_usize(0), PtrId(p))
        }

        fn node(&mut self) -> u32 {
            let p = self.cons.len() as u32;
            let mut row = Row::default();
            if self.noise && p.is_multiple_of(3) {
                row.push(Graph::load(p));
                row.push(Consumer::Call(PendingCall {
                    site: CallSiteId::from_usize(p as usize),
                    caller_ctx: CtxId(0),
                    fixed_target: None,
                }));
            }
            self.cons.push(row);
            self.order.push();
            self.dsu.push() as u32
        }

        fn rep(&self, p: u32) -> u32 {
            self.dsu.find(p as usize) as u32
        }

        fn edge(&mut self, a: u32, b: u32, filter: Option<TypeId>) {
            let (ra, rb) = (self.rep(a), self.rep(b));
            if filter.is_none() {
                self.edges.push((a, b));
                if ra == rb {
                    return;
                }
            }
            let row = &mut self.cons[ra as usize];
            row.push(Consumer::Copy(PtrId(rb), filter));
            if self.noise && row.len().is_multiple_of(4) {
                row.push(Graph::load(rb));
            }
            if filter.is_none() {
                self.order.add_edge(PtrId(ra), PtrId(rb));
            }
        }

        fn repair(&mut self) {
            let batch = self.order.take_repairs();
            for &(x, y) in &batch {
                let (x, y) = (PtrId(self.rep(x.0)), PtrId(self.rep(y.0)));
                if let Some(cycle) = self.order.repair(x, y, &self.cons, &self.dsu) {
                    self.collapse(&cycle);
                }
            }
            self.order.recycle_repairs(batch);
        }

        fn collapse(&mut self, members: &[u32]) {
            for w in members.windows(2) {
                self.dsu.union(w[0] as usize, w[1] as usize);
            }
            let r = self.dsu.find(members[0] as usize);
            let mut row = Vec::new();
            for &m in members {
                row.extend_from_slice(&std::mem::take(&mut self.cons[m as usize]));
            }
            for c in &mut row {
                if let Consumer::Copy(to, _) = c {
                    *to = PtrId(self.dsu.find(to.index()) as u32);
                }
            }
            row.retain(|&c| c != Consumer::Copy(PtrId(r as u32), None));
            self.cons[r] = Row::from(row);
            self.order.absorb(members, r);
        }

        /// The order invariant over every repaired edge.
        fn assert_ordered(&self) {
            for &(a, b) in &self.edges {
                let (ra, rb) = (self.rep(a), self.rep(b));
                if ra != rb {
                    assert!(
                        self.order.label(ra as usize) < self.order.label(rb as usize),
                        "edge {a}→{b} (reps {ra}→{rb}) out of order after repair"
                    );
                }
            }
        }

        /// The collapse partition as sorted classes.
        fn partition(&self) -> Vec<Vec<usize>> {
            let mut classes = self.dsu.classes();
            for c in &mut classes {
                c.sort_unstable();
            }
            classes.sort();
            classes
        }
    }

    /// Test-only oracle: recursive Tarjan SCCs of the unfiltered edges.
    fn tarjan(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<usize>> {
        struct T<'a> {
            adj: &'a [Vec<usize>],
            index: Vec<Option<usize>>,
            low: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next: usize,
            out: Vec<Vec<usize>>,
        }
        fn visit(t: &mut T<'_>, v: usize) {
            t.index[v] = Some(t.next);
            t.low[v] = t.next;
            t.next += 1;
            t.stack.push(v);
            t.on_stack[v] = true;
            for &w in t.adj[v].iter() {
                match t.index[w] {
                    None => {
                        visit(t, w);
                        t.low[v] = t.low[v].min(t.low[w]);
                    }
                    Some(iw) if t.on_stack[w] => t.low[v] = t.low[v].min(iw),
                    Some(_) => {}
                }
            }
            if Some(t.low[v]) == t.index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = t.stack.pop().expect("Tarjan stack");
                    t.on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comp.sort_unstable();
                t.out.push(comp);
            }
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a as usize].push(b as usize);
        }
        let mut t = T {
            adj: &adj,
            index: vec![None; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
        };
        for v in 0..n {
            if t.index[v].is_none() {
                visit(&mut t, v);
            }
        }
        t.out.sort();
        t.out
    }

    /// Drives one seeded random stream of nodes, edges and repairs,
    /// checking the order after every repair.
    fn random_stream(seed: u64, noise: bool) -> Graph {
        let ty = TypeId::from_usize(0);
        let mut rng = SplitMix64::new(seed);
        let n = 2 + rng.below(40) as usize;
        let mut g = Graph::new(n, noise);
        let batches = 1 + rng.below(60);
        for _ in 0..batches {
            // Occasionally a fresh pointer, as field pointers appear
            // mid-solve; then a few edges before the next repair.
            if rng.below(4) == 0 {
                g.node();
            }
            let live = g.cons.len() as u64;
            for _ in 0..1 + rng.below(4) {
                let (a, b) = (rng.below(live) as u32, rng.below(live) as u32);
                let filter = (rng.below(5) == 0).then_some(ty);
                g.edge(a, b, filter);
            }
            g.repair();
            g.assert_ordered();
        }
        g
    }

    /// Every random stream keeps the order and collapses exactly the
    /// SCCs. Its noisy twin, with loads and calls in the rows, must do
    /// exactly what the plain stream does: the same labels, the same
    /// collapses and the same scanned-edge count.
    #[test]
    fn random_streams_keep_the_order_and_collapse_exactly_the_sccs() {
        let mut interleaved = 0;
        for seed in 0..200u64 {
            let (plain, noisy) = (random_stream(seed, false), random_stream(seed, true));
            assert_eq!(
                plain.partition(),
                tarjan(plain.cons.len(), &plain.edges),
                "seed {seed}: collapse partition differs from the SCCs"
            );
            assert_eq!(noisy.partition(), plain.partition(), "seed {seed}");
            assert_eq!(noisy.order.label, plain.order.label, "seed {seed}");
            assert_eq!(
                noisy.order.edges_scanned, plain.order.edges_scanned,
                "seed {seed}: non-copy entries were counted as scanned edges"
            );
            let copy = |c: &Consumer| matches!(c, Consumer::Copy(..));
            interleaved += noisy
                .cons
                .iter()
                .filter(|row| row.iter().any(copy) && !row.iter().all(copy))
                .count();
        }
        assert!(
            interleaved > 0,
            "no row mixed copy edges with other consumers"
        );
    }

    #[test]
    fn exhausted_gap_renumbers_and_keeps_the_order() {
        // `a` feeds a chain of fresh pointers, each pushed just below
        // its predecessor: the backward search (one edge, from `a`)
        // always finishes first, so every move halves the gap above
        // `a` until it runs out.
        let mut g = Graph::with_nodes(4);
        let (a, b) = (0, 1);
        g.edge(b, 2, None);
        g.edge(2, 3, None);
        let mut prev = b;
        for _ in 0..40 {
            let n = g.node();
            g.edge(a, n, None);
            g.edge(n, prev, None);
            g.repair();
            g.assert_ordered();
            prev = n;
        }
        assert!(
            g.order.renumbers >= 1,
            "40 halvings never exhausted a 2^32 gap"
        );
        assert_eq!(g.partition(), tarjan(g.cons.len(), &g.edges));
        // Closing the chain into a cycle collapses all of it.
        g.edge(3, a, None);
        g.repair();
        g.assert_ordered();
        assert_eq!(g.partition(), tarjan(g.cons.len(), &g.edges));
        assert_eq!(g.dsu.set_count(), 1);
    }
}
