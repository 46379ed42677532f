//! Property test: on randomized field points-to graphs, the one
//! partition refinement of the shared subset machine produces
//! **exactly** the merged-object map the pairwise Hopcroft–Karp oracle
//! produces.
//!
//! This is the end-to-end check of the shared-machine argument
//! (DESIGN.md §11): every object's DFA is the part of the shared
//! machine reachable from its start state, so equivalence of start
//! states under Moore refinement and compare-all-pairs with
//! Hopcroft–Karp compute the same partition of every type group — on
//! adversarial shapes (cycles, nulls, single-type failures, shared
//! substructure), in every configuration corner (Condition 2 off, null
//! modelling off, largest representative), and on three fixed shapes
//! that stress the refinement's rounds and the single-type marking.

use jir::AllocId;
use mahjong::{
    merge_equivalent_objects, merge_equivalent_objects_pairwise, FieldPointsToGraph, FpgBuilder,
    MahjongConfig, MahjongOutput, Representative,
};

/// SplitMix64 — tiny, deterministic, and statistically fine for test
/// generation (Steele et al., OOPSLA 2014).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

/// Builds a random FPG: a handful of types and fields, dozens of
/// objects, random edges (including occasional null edges when
/// `model_null`; without it the null node and its self-loops are
/// absent, as in `FieldPointsToGraph::from_analysis(.., false)`). Types
/// and fields are kept few so same-type groups and genuine equivalences
/// are common; edge randomness still produces single-type failures,
/// cycles, and shared substructure.
fn random_fpg(seed: u64, model_null: bool) -> FieldPointsToGraph {
    let mut rng = SplitMix64(seed);
    let mut b = if model_null {
        FpgBuilder::new()
    } else {
        FpgBuilder::default()
    };

    let n_types = 2 + rng.below(4); // 2..=5
    let n_fields = 1 + rng.below(3); // 1..=3
    let n_allocs = 8 + rng.below(25);

    let types: Vec<_> = (0..n_types).map(|i| b.ty(&format!("T{i}"))).collect();
    let fields: Vec<_> = (0..n_fields).map(|i| b.field(&format!("f{i}"))).collect();
    let allocs: Vec<AllocId> = (0..n_allocs)
        .map(|_| b.alloc(types[rng.below(n_types)]))
        .collect();

    for &from in &allocs {
        for &field in &fields {
            // ~55% of (object, field) slots are populated; of those, a
            // few are null edges and a few fan out to two targets
            // (creating subset-construction work and SINGLETYPE
            // failures when the targets' types differ).
            if !rng.chance(11, 20) {
                continue;
            }
            if rng.chance(1, 8) {
                if model_null {
                    b.null_edge(from, field);
                }
            } else {
                b.edge(from, field, allocs[rng.below(n_allocs)]);
                if rng.chance(1, 5) {
                    b.edge(from, field, allocs[rng.below(n_allocs)]);
                }
            }
        }
    }
    b.finish()
}

/// Runs both pipelines and asserts they agree; returns the product
/// output and the oracle's Hopcroft–Karp run count.
fn assert_matches_oracle(
    fpg: &FieldPointsToGraph,
    cfg: &MahjongConfig,
    what: &str,
) -> (MahjongOutput, u64) {
    let fast = merge_equivalent_objects(fpg, cfg);
    let (oracle, hk_runs) = merge_equivalent_objects_pairwise(fpg, cfg);
    assert_eq!(
        fast.mom, oracle.mom,
        "{what}: refinement diverged from the pairwise oracle"
    );
    assert_eq!(fast.stats.merged_objects, oracle.stats.merged_objects, "{what}");
    assert_eq!(fast.stats.not_single_type, oracle.stats.not_single_type, "{what}");
    assert_eq!(fast.stats.dfa_built, oracle.stats.dfa_built, "{what}");
    assert_eq!(
        fast.stats.sig_buckets, oracle.stats.sig_buckets,
        "{what}: class count must equal the oracle's"
    );
    (fast, hk_runs)
}

#[test]
fn signature_grouping_matches_pairwise_oracle_on_random_fpgs() {
    let corners = [
        ("default", true, MahjongConfig::default()),
        (
            "no-condition2",
            true,
            MahjongConfig {
                enforce_condition2: false,
                ..MahjongConfig::default()
            },
        ),
        ("no-null-model", false, MahjongConfig::default()),
        (
            "repr-largest",
            true,
            MahjongConfig {
                representative: Representative::Largest,
                ..MahjongConfig::default()
            },
        ),
    ];
    for (corner, model_null, cfg) in corners {
        let mut total_merged = 0usize;
        let mut total_hk = 0u64;
        for seed in 0..60u64 {
            let fpg = random_fpg(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1, model_null);
            let what = format!("{corner}, seed {seed}");
            let (fast, hk_runs) = assert_matches_oracle(&fpg, &cfg, &what);
            total_merged += fast.stats.objects - fast.stats.merged_objects;
            total_hk += hk_runs;
        }
        // The generator must actually exercise merging, or the test
        // proves nothing.
        assert!(total_merged > 50, "{corner}: too few merges: {total_merged}");
        assert!(total_hk > 200, "{corner}: oracle barely ran: {total_hk} HK checks");
    }
}

/// `MahjongConfig::threads` is kept as a no-op (the merge is one
/// sequential pass over one machine); no thread count may change the
/// merged-object map.
#[test]
fn sharded_build_matches_sequential_on_random_fpgs() {
    for seed in 0..20u64 {
        let fpg = random_fpg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 3, true);
        let seq = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        for threads in [2, 3, 8] {
            let par = merge_equivalent_objects(
                &fpg,
                &MahjongConfig {
                    threads,
                    ..MahjongConfig::default()
                },
            );
            assert_eq!(seq.mom, par.mom, "seed {seed}, {threads} threads");
        }
    }
}

/// A single-type `next` chain of 2,000 objects ending in null: every
/// state is distinct, and Moore refinement learns one more step of
/// distance-to-null per round — its worst case.
#[test]
fn distinct_chain_takes_one_round_per_state() {
    const N: usize = 2_000;
    let mut b = FpgBuilder::new();
    let t = b.ty("Node");
    let next = b.field("next");
    let nodes: Vec<AllocId> = (0..N).map(|_| b.alloc(t)).collect();
    for w in nodes.windows(2) {
        b.edge(w[0], next, w[1]);
    }
    b.null_edge(nodes[N - 1], next);
    let fpg = b.finish();

    let out = merge_equivalent_objects(&fpg, &MahjongConfig::default());
    assert_eq!(out.stats.merged_objects, N, "no two chain positions are equivalent");
    assert_eq!(out.stats.sig_buckets, N);
    assert_eq!(out.stats.machine_states, N + 1, "the N starts and {{null}}");
    // Round k splits off the state k steps from null; the round after
    // the last split finds the partition stable.
    assert_eq!(out.stats.refine_rounds, N);

    // The full pairwise oracle is quadratic here (all N objects stay
    // representatives), so the oracle runs on a shorter chain of the
    // same shape, and on the long one it decides sampled pairs.
    let short = {
        let mut b = FpgBuilder::new();
        let t = b.ty("Node");
        let next = b.field("next");
        let nodes: Vec<AllocId> = (0..100).map(|_| b.alloc(t)).collect();
        for w in nodes.windows(2) {
            b.edge(w[0], next, w[1]);
        }
        b.null_edge(nodes[99], next);
        b.finish()
    };
    assert_matches_oracle(&short, &MahjongConfig::default(), "100-chain");
    let dfa = |i: usize| match mahjong::build::dfa_for_root(&fpg, nodes[i], true) {
        mahjong::build::RootAutomaton::Dfa(d) => d,
        mahjong::build::RootAutomaton::NotSingleType => panic!("chain is single-type"),
    };
    for (i, j) in [(0, 1), (N - 2, N - 1), (0, N - 1), (N / 2, N / 2 + 1), (7, 1_500)] {
        assert!(!dfa(i).equivalent(&dfa(j)), "oracle: {i} and {j} differ");
    }
}

/// Two objects pointing at each other: both DFAs are one looping state,
/// so the objects merge.
#[test]
fn two_object_cycle_merges() {
    let mut b = FpgBuilder::new();
    let t = b.ty("Node");
    let next = b.field("next");
    let o1 = b.alloc(t);
    let o2 = b.alloc(t);
    b.edge(o1, next, o2);
    b.edge(o2, next, o1);
    let fpg = b.finish();
    let (out, _) = assert_matches_oracle(&fpg, &MahjongConfig::default(), "two-cycle");
    assert_eq!(out.stats.merged_objects, 1);
}

/// A multi-type state reachable only through a cycle: `a -f-> b -f-> a`
/// and `a -g-> {x, y}` with `x`, `y` of two types. `{b}` reaches
/// `{x, y}` only over the back edge to `{a}`, so a forward depth-first
/// marking from `{a}` that finishes `{b}` (field `f`) before it sees
/// `{a}`'s `g` row would call `{b}` good; the backward marking must
/// find both bad, while a clean pair of the same shape merges.
#[test]
fn bad_marking_crosses_back_edges() {
    let mut b = FpgBuilder::new();
    let t = b.ty("T");
    let (tx, ty) = (b.ty("X"), b.ty("Y"));
    let (f, g) = (b.field("f"), b.field("g"));
    let a = b.alloc(t);
    let bb = b.alloc(t);
    let x = b.alloc(tx);
    let y = b.alloc(ty);
    b.edge(a, f, bb);
    b.edge(bb, f, a);
    b.edge(a, g, x);
    b.edge(a, g, y);
    // A clean cycle of the same shape: c -f-> d -f-> c, both -g-> x.
    let c = b.alloc(t);
    let d = b.alloc(t);
    b.edge(c, f, d);
    b.edge(d, f, c);
    b.edge(c, g, x);
    b.edge(d, g, x);
    let fpg = b.finish();
    let (out, _) = assert_matches_oracle(&fpg, &MahjongConfig::default(), "back-edge");
    assert_eq!(out.stats.not_single_type, 2, "a and b both fail SINGLETYPE-CHECK");
    use pta::HeapAbstraction;
    assert_ne!(out.mom.repr(a), out.mom.repr(bb));
    assert_eq!(out.mom.repr(c), out.mom.repr(d));
    let loose = MahjongConfig {
        enforce_condition2: false,
        ..MahjongConfig::default()
    };
    assert_matches_oracle(&fpg, &loose, "back-edge, no Condition 2");
}
