//! Cross-validation: the automata-based type-consistency decisions —
//! the product path's one refinement of the shared subset machine, and
//! per-object DFAs compared with Hopcroft–Karp (Algorithms 2–4) — must
//! agree with the direct bounded-path oracle implementing
//! Definition 2.1, on hand-built and random FPGs.

use mahjong::build::{dfa_for_root, RootAutomaton};
use mahjong::oracle::{exact_depth_for_acyclic, type_consistent_bounded};
use mahjong::{FieldPointsToGraph, FpgBuilder};
use obs::rng::SplitMix64;

/// Decides type-consistency through per-object DFAs and Hopcroft–Karp
/// (the paper's pairwise decision procedure).
fn automata_consistent(fpg: &FieldPointsToGraph, a: jir::AllocId, b: jir::AllocId) -> bool {
    if fpg.node_type(mahjong::FpgNode::Alloc(a)) != fpg.node_type(mahjong::FpgNode::Alloc(b)) {
        return false;
    }
    match (dfa_for_root(fpg, a, true), dfa_for_root(fpg, b, true)) {
        (RootAutomaton::Dfa(da), RootAutomaton::Dfa(db)) => da.equivalent(&db),
        _ => false,
    }
}

/// A random *acyclic* FPG: `n` nodes over `t` types and `f` fields,
/// edges only from lower-index to higher-index nodes (so the bounded
/// oracle is exact).
fn random_acyclic_fpg(
    rng: &mut SplitMix64,
    n: usize,
    t: usize,
    f: usize,
) -> (FieldPointsToGraph, Vec<jir::AllocId>) {
    let mut b = FpgBuilder::new();
    let tys: Vec<_> = (0..t).map(|i| b.ty(&format!("T{i}"))).collect();
    let fields: Vec<_> = (0..f).map(|i| b.field(&format!("f{i}"))).collect();
    let allocs: Vec<_> = (0..n).map(|_| b.alloc(tys[rng.below_usize(t)])).collect();
    let edge_count = rng.below_usize(n * 2);
    for _ in 0..edge_count {
        let from = rng.below_usize(n);
        let field = rng.below_usize(f);
        let to = rng.below_usize(n);
        // Orient edges forward to keep the graph acyclic.
        let (lo, hi) = (from.min(to), from.max(to));
        if lo != hi {
            b.edge(allocs[lo], fields[field], allocs[hi]);
        }
    }
    (b.finish(), allocs)
}

const CASES: usize = 128;

/// On acyclic graphs the bounded oracle is exact: two objects share a
/// representative under [`mahjong::merge_equivalent_objects`] iff the
/// oracle finds them type-consistent, and the per-object HK decision
/// agrees on every pair too.
#[test]
fn automata_agree_with_oracle_on_acyclic_fpgs() {
    let mut rng = SplitMix64::new(0x0000_AC1E_0001);
    for _ in 0..CASES {
        let (fpg, allocs) = random_acyclic_fpg(&mut rng, 8, 3, 3);
        let depth = exact_depth_for_acyclic(&fpg);
        let out = mahjong::merge_equivalent_objects(&fpg, &mahjong::MahjongConfig::default());
        for i in 0..allocs.len() {
            for j in (i + 1)..allocs.len() {
                let (a, b) = (allocs[i], allocs[j]);
                let slow = type_consistent_bounded(&fpg, a, b, depth, true);
                let merged = out.mom.repr(a) == out.mom.repr(b);
                assert_eq!(merged, slow, "product path disagrees on ({a:?}, {b:?})");
                let pairwise = automata_consistent(&fpg, a, b);
                assert_eq!(pairwise, slow, "per-object HK disagrees on ({a:?}, {b:?})");
            }
        }
    }
}

/// Type-consistency is an equivalence relation (the paper proves ≡
/// reflexive, symmetric, transitive): check symmetry and transitivity
/// on random graphs via the automata path.
#[test]
fn type_consistency_is_an_equivalence_relation() {
    let mut rng = SplitMix64::new(0x0000_AC1E_0002);
    for _ in 0..CASES {
        let (fpg, allocs) = random_acyclic_fpg(&mut rng, 7, 2, 2);
        // Reflexivity.
        for &a in &allocs {
            if let RootAutomaton::Dfa(d) = dfa_for_root(&fpg, a, true) {
                assert!(d.equivalent(&d.clone()));
            }
        }
        // Symmetry and transitivity.
        for i in 0..allocs.len() {
            for j in 0..allocs.len() {
                let ij = automata_consistent(&fpg, allocs[i], allocs[j]);
                let ji = automata_consistent(&fpg, allocs[j], allocs[i]);
                assert_eq!(ij, ji, "symmetry");
                if !ij {
                    continue;
                }
                for k in 0..allocs.len() {
                    let jk = automata_consistent(&fpg, allocs[j], allocs[k]);
                    if jk {
                        assert!(
                            automata_consistent(&fpg, allocs[i], allocs[k]),
                            "transitivity"
                        );
                    }
                }
            }
        }
    }
}

/// Merging respects the TYPEOF guard: objects in one equivalence class
/// always share a type.
#[test]
fn merged_classes_are_type_homogeneous() {
    let mut rng = SplitMix64::new(0x0000_AC1E_0003);
    for _ in 0..CASES {
        let (fpg, _allocs) = random_acyclic_fpg(&mut rng, 10, 3, 3);
        let out = mahjong::merge_equivalent_objects(&fpg, &mahjong::MahjongConfig::default());
        for class in out.mom.classes() {
            let first = fpg.node_type(mahjong::FpgNode::Alloc(class[0]));
            for &m in &class[1..] {
                assert_eq!(fpg.node_type(mahjong::FpgNode::Alloc(m)), first);
            }
        }
    }
}

/// The merge driver is idempotent: re-running Mahjong on a graph whose
/// objects were already merged (one representative per class) merges
/// nothing further... checked indirectly: every pair of distinct
/// representatives is NOT type-consistent.
#[test]
fn representatives_are_pairwise_inconsistent() {
    let mut rng = SplitMix64::new(0x0000_AC1E_0004);
    for _ in 0..CASES {
        let (fpg, _allocs) = random_acyclic_fpg(&mut rng, 8, 2, 2);
        let out = mahjong::merge_equivalent_objects(&fpg, &mahjong::MahjongConfig::default());
        let reps: Vec<jir::AllocId> = out
            .mom
            .classes()
            .iter()
            .map(|c| out.mom.repr(c[0]))
            .collect();
        for i in 0..reps.len() {
            for j in (i + 1)..reps.len() {
                assert!(
                    !automata_consistent(&fpg, reps[i], reps[j]),
                    "representatives {:?} and {:?} should not merge",
                    reps[i],
                    reps[j]
                );
            }
        }
    }
}

use pta::HeapAbstraction as _;

/// The cyclic cases the bounded oracle cannot settle exactly get
/// explicit automata-level tests.
#[test]
fn cyclic_structures_merge_correctly() {
    let mut b = FpgBuilder::new();
    let node = b.ty("Node");
    let leaf = b.ty("Leaf");
    let next = b.field("next");
    let item = b.field("item");
    // Ring of 3 nodes, each holding a leaf.
    let n1 = b.alloc(node);
    let n2 = b.alloc(node);
    let n3 = b.alloc(node);
    let l1 = b.alloc(leaf);
    b.edge(n1, next, n2);
    b.edge(n2, next, n3);
    b.edge(n3, next, n1);
    b.edge(n1, item, l1);
    b.edge(n2, item, l1);
    b.edge(n3, item, l1);
    // A self-loop node with a leaf.
    let n4 = b.alloc(node);
    b.edge(n4, next, n4);
    b.edge(n4, item, l1);
    let fpg = b.finish();

    assert!(automata_consistent(&fpg, n1, n2));
    assert!(automata_consistent(&fpg, n1, n4), "ring ≡ self-loop");
    // Oracle agreement at increasing depths (cannot be exact, but must
    // never contradict at any bounded depth).
    for depth in 1..12 {
        assert!(type_consistent_bounded(&fpg, n1, n4, depth, true), "depth {depth}");
    }
}
