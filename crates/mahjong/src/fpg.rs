//! The field points-to graph (FPG) — the input to Mahjong.
//!
//! Nodes are (reachable) allocation sites plus a dummy `null` node;
//! an edge `(o, f, o')` records that `o.f` may point to `o'` according
//! to the context-insensitive pre-analysis (paper Section 2.2.1 and the
//! input conventions of Algorithm 1: `o.f = null` contributes an edge to
//! the null node, and the null node has a self-loop on every field).

use jir::{AllocId, FieldId, Program, TypeId};
use pta::AnalysisResult;

/// A node of the FPG: an allocation site or the dummy `null` node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FpgNode {
    /// A heap object identified by its allocation site.
    Alloc(AllocId),
    /// The dummy node standing for `null`.
    Null,
}

impl std::fmt::Debug for FpgNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpgNode::Alloc(a) => write!(f, "{a:?}"),
            FpgNode::Null => write!(f, "null"),
        }
    }
}

/// The output symbol of a node: its type, or the special `null` type
/// (`TYPEOF` returns "a special type for o_null", Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeType {
    /// A real program type.
    Type(TypeId),
    /// The special type of the null node.
    Null,
}

/// The field points-to graph over a program's allocation sites.
///
/// Built from a pre-analysis with [`FieldPointsToGraph::from_analysis`],
/// or assembled directly with [`FpgBuilder`] (used heavily by tests to
/// express the paper's figures as literal graphs).
#[derive(Clone, Debug)]
pub struct FieldPointsToGraph {
    alloc_count: usize,
    /// Per allocation site: present in the graph (reachable)?
    present: Vec<bool>,
    /// Per allocation site: its type.
    types: Vec<Option<TypeId>>,
    /// Per allocation site: outgoing edges, sorted by field then target.
    edges: Vec<Vec<(FieldId, FpgNode)>>,
    /// Whether the null node carries self-loops on every field
    /// (semantically; the loops are implicit).
    null_modeled: bool,
}

impl FieldPointsToGraph {
    /// Builds the FPG from a (context-insensitive) pre-analysis result.
    ///
    /// Only objects the pre-analysis reached become present nodes. When
    /// `model_null` is set, every reference-typed instance field of a
    /// present object with an empty points-to set contributes an edge to
    /// the null node (the paper's null-field convention, which lets
    /// Mahjong distinguish never-initialized objects — Table 1, row 6).
    pub fn from_analysis(program: &Program, result: &AnalysisResult, model_null: bool) -> Self {
        let _phase = obs::span("mahjong.fpg_build");
        let n = program.alloc_count();
        let mut g = FieldPointsToGraph {
            alloc_count: n,
            present: vec![false; n],
            types: (0..n)
                .map(|i| Some(program.alloc(AllocId::from_usize(i)).ty()))
                .collect(),
            edges: vec![Vec::new(); n],
            null_modeled: model_null,
        };
        for obj in result.objects() {
            g.present[result.obj_alloc(obj).index()] = true;
        }
        for (obj, field, pts) in result.field_pointers() {
            let from = result.obj_alloc(obj).index();
            for target in pts {
                let to = FpgNode::Alloc(result.obj_alloc(target));
                g.push_edge(from, field, to);
            }
        }
        if model_null {
            for i in 0..n {
                if !g.present[i] {
                    continue;
                }
                let ty = g.types[i].expect("alloc has a type");
                for field in program.instance_fields_of_type(ty) {
                    let has_edge = g.edges[i].iter().any(|&(f, _)| f == field);
                    if !has_edge {
                        g.push_edge(i, field, FpgNode::Null);
                    }
                }
            }
        }
        for row in &mut g.edges {
            row.sort_unstable();
            row.dedup();
        }
        g
    }

    fn push_edge(&mut self, from: usize, field: FieldId, to: FpgNode) {
        self.edges[from].push((field, to));
    }

    /// Returns the number of allocation sites the graph covers
    /// (present or not).
    pub fn alloc_count(&self) -> usize {
        self.alloc_count
    }

    /// Returns `true` if the allocation site is a (reachable) node.
    pub fn is_present(&self, alloc: AllocId) -> bool {
        self.present[alloc.index()]
    }

    /// Returns the type of a node.
    ///
    /// # Panics
    ///
    /// Panics if an `Alloc` node was never given a type (builder misuse).
    pub fn node_type(&self, node: FpgNode) -> NodeType {
        match node {
            FpgNode::Alloc(a) => NodeType::Type(self.types[a.index()].expect("node has a type")),
            FpgNode::Null => NodeType::Null,
        }
    }

    /// Returns the outgoing edges of a node, sorted by field.
    ///
    /// The null node's self-loops are implicit; callers that traverse
    /// from `Null` should treat every field as looping back to `Null`
    /// (see [`FieldPointsToGraph::successors`]).
    pub fn edges_of(&self, node: FpgNode) -> &[(FieldId, FpgNode)] {
        match node {
            FpgNode::Alloc(a) => &self.edges[a.index()],
            FpgNode::Null => &[],
        }
    }

    /// Returns the successors of `node` on `field`, honouring the null
    /// node's implicit self-loops.
    pub fn successors(&self, node: FpgNode, field: FieldId) -> Vec<FpgNode> {
        match node {
            FpgNode::Null => {
                if self.null_modeled {
                    vec![FpgNode::Null]
                } else {
                    Vec::new()
                }
            }
            FpgNode::Alloc(a) => self.edges[a.index()]
                .iter()
                .filter(|&&(f, _)| f == field)
                .map(|&(_, t)| t)
                .collect(),
        }
    }

    /// Returns the distinct fields with outgoing edges from `node`
    /// (the paper's `FIELDSOF`).
    pub fn fields_of(&self, node: FpgNode) -> Vec<FieldId> {
        let mut fields: Vec<FieldId> = self.edges_of(node).iter().map(|&(f, _)| f).collect();
        fields.dedup();
        fields
    }

    /// Returns every node reachable from `root` (including `root`), in
    /// BFS order.
    pub fn reachable_from(&self, root: FpgNode) -> Vec<FpgNode> {
        Reach::new(self).walk(root).to_vec()
    }

    /// Iterates over all present allocation nodes.
    pub fn present_allocs(&self) -> impl Iterator<Item = AllocId> + '_ {
        (0..self.alloc_count)
            .filter(|&i| self.present[i])
            .map(AllocId::from_usize)
    }

    /// Total number of edges among allocation nodes (the FPG size metric
    /// reported in paper Section 6.1.1).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Breadth-first reachability over one FPG with reusable scratch: a
/// visit stamp per dense node index (allocation sites, then the null
/// node) and a queue that doubles as the visit order, so a walk costs
/// only the nodes it reaches and allocates nothing once warm.
#[derive(Debug)]
pub(crate) struct Reach<'g> {
    fpg: &'g FieldPointsToGraph,
    stamp: Vec<u32>,
    epoch: u32,
    order: Vec<FpgNode>,
}

impl<'g> Reach<'g> {
    pub(crate) fn new(fpg: &'g FieldPointsToGraph) -> Self {
        Reach {
            fpg,
            stamp: vec![0; fpg.alloc_count + 1],
            epoch: 0,
            order: Vec::new(),
        }
    }

    /// Returns every node reachable from `root` (including `root`), in
    /// BFS order.
    pub(crate) fn walk(&mut self, root: FpgNode) -> &[FpgNode] {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.order.clear();
        self.visit(root);
        let mut head = 0;
        while let Some(&node) = self.order.get(head) {
            head += 1;
            for &(_, to) in self.fpg.edges_of(node) {
                self.visit(to);
            }
        }
        &self.order
    }

    fn visit(&mut self, node: FpgNode) {
        let slot = match node {
            FpgNode::Alloc(a) => a.index(),
            FpgNode::Null => self.fpg.alloc_count,
        };
        if self.stamp[slot] != self.epoch {
            self.stamp[slot] = self.epoch;
            self.order.push(node);
        }
    }
}

/// Assembles an FPG directly — used by tests to encode the paper's
/// figures without going through a program and a pre-analysis.
///
/// # Examples
///
/// ```
/// use mahjong::FpgBuilder;
///
/// let mut b = FpgBuilder::new();
/// let t = b.ty("T");
/// let u = b.ty("U");
/// let o1 = b.alloc(t);
/// let o2 = b.alloc(u);
/// let f = b.field("f");
/// b.edge(o1, f, o2);
/// let fpg = b.finish();
/// assert_eq!(fpg.alloc_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct FpgBuilder {
    types: Vec<TypeId>,
    edges: Vec<(usize, FieldId, Option<usize>)>,
    ty_names: std::collections::HashMap<String, TypeId>,
    field_names: std::collections::HashMap<String, FieldId>,
    model_null: bool,
}

impl FpgBuilder {
    /// Creates an empty builder (null self-loops enabled).
    pub fn new() -> Self {
        FpgBuilder {
            model_null: true,
            ..Default::default()
        }
    }

    /// Interns a type by name.
    pub fn ty(&mut self, name: &str) -> TypeId {
        let next = TypeId::from_usize(self.ty_names.len());
        *self.ty_names.entry(name.to_owned()).or_insert(next)
    }

    /// Interns a field by name.
    pub fn field(&mut self, name: &str) -> FieldId {
        let next = FieldId::from_usize(self.field_names.len());
        *self.field_names.entry(name.to_owned()).or_insert(next)
    }

    /// Adds an allocation node of the given type.
    pub fn alloc(&mut self, ty: TypeId) -> AllocId {
        let id = AllocId::from_usize(self.types.len());
        self.types.push(ty);
        id
    }

    /// Adds the edge `from.field -> to`.
    pub fn edge(&mut self, from: AllocId, field: FieldId, to: AllocId) {
        self.edges.push((from.index(), field, Some(to.index())));
    }

    /// Adds the edge `from.field -> null`.
    pub fn null_edge(&mut self, from: AllocId, field: FieldId) {
        self.edges.push((from.index(), field, None));
    }

    /// Finalizes the graph; every allocation node is present.
    pub fn finish(self) -> FieldPointsToGraph {
        let n = self.types.len();
        let mut g = FieldPointsToGraph {
            alloc_count: n,
            present: vec![true; n],
            types: self.types.into_iter().map(Some).collect(),
            edges: vec![Vec::new(); n],
            null_modeled: self.model_null,
        };
        for (from, field, to) in self.edges {
            let node = match to {
                Some(i) => FpgNode::Alloc(AllocId::from_usize(i)),
                None => FpgNode::Null,
            };
            g.edges[from].push((field, node));
        }
        for row in &mut g.edges {
            row.sort_unstable();
            row.dedup();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let f = b.field("f");
        let o1 = b.alloc(t);
        let o2 = b.alloc(t);
        b.edge(o1, f, o2);
        b.null_edge(o2, f);
        let g = b.finish();
        assert_eq!(g.successors(FpgNode::Alloc(o1), f), vec![FpgNode::Alloc(o2)]);
        assert_eq!(g.successors(FpgNode::Alloc(o2), f), vec![FpgNode::Null]);
        assert_eq!(g.successors(FpgNode::Null, f), vec![FpgNode::Null]);
        assert_eq!(g.node_type(FpgNode::Null), NodeType::Null);
    }

    #[test]
    fn reachable_from_is_bfs_closed() {
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let f = b.field("f");
        let o1 = b.alloc(t);
        let o2 = b.alloc(t);
        let o3 = b.alloc(t);
        b.edge(o1, f, o2);
        b.edge(o2, f, o1); // cycle
        let _ = o3; // disconnected
        let g = b.finish();
        let r = g.reachable_from(FpgNode::Alloc(o1));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&FpgNode::Alloc(o2)));
        assert!(!r.contains(&FpgNode::Alloc(o3)));
    }

    #[test]
    fn one_reach_serves_many_walks() {
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let f = b.field("f");
        let o1 = b.alloc(t);
        let o2 = b.alloc(t);
        let o3 = b.alloc(t);
        b.edge(o1, f, o2);
        b.null_edge(o2, f);
        b.edge(o3, f, o1);
        let g = b.finish();
        let mut reach = Reach::new(&g);
        for root in [o1, o2, o3, o1].map(FpgNode::Alloc) {
            assert_eq!(reach.walk(root), g.reachable_from(root), "{root:?}");
        }
        let all = [o3, o1, o2].map(FpgNode::Alloc);
        assert_eq!(reach.walk(FpgNode::Alloc(o3)), [&all[..], &[FpgNode::Null]].concat());
    }

    #[test]
    fn from_analysis_builds_edges_and_null() {
        let p = jir::parse(
            "class A { field f: A; field g: A;
               entry static method main() {
                 x = new A; y = new A;
                 x.f = y;
                 return;
               } }",
        )
        .unwrap();
        let r = pta::pre_analysis(&p).unwrap();
        let g = FieldPointsToGraph::from_analysis(&p, &r, true);
        assert_eq!(g.present_allocs().count(), 2);
        let allocs: Vec<AllocId> = g.present_allocs().collect();
        let f = p.class_by_name("A").and_then(|c| p.field_by_name(c, "f")).unwrap();
        let gfield = p.class_by_name("A").and_then(|c| p.field_by_name(c, "g")).unwrap();
        // x's object: f -> y's object, g -> null. y's object: f,g -> null.
        let x_obj = FpgNode::Alloc(allocs[0]);
        assert_eq!(g.successors(x_obj, f), vec![FpgNode::Alloc(allocs[1])]);
        assert_eq!(g.successors(x_obj, gfield), vec![FpgNode::Null]);
        let y_obj = FpgNode::Alloc(allocs[1]);
        assert_eq!(g.successors(y_obj, f), vec![FpgNode::Null]);
    }

    #[test]
    fn null_modeling_can_be_disabled() {
        let p = jir::parse(
            "class A { field f: A;
               entry static method main() { x = new A; return; } }",
        )
        .unwrap();
        let r = pta::pre_analysis(&p).unwrap();
        let g = FieldPointsToGraph::from_analysis(&p, &r, false);
        let alloc: Vec<AllocId> = g.present_allocs().collect();
        assert!(g.edges_of(FpgNode::Alloc(alloc[0])).is_empty());
        assert!(g.successors(FpgNode::Null, jir::FieldId::from_usize(0)).is_empty());
    }
}
