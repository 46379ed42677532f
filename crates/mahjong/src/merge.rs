//! The Mahjong main algorithm (paper Algorithm 1): merging
//! type-consistent objects with a disjoint-set forest.
//!
//! # Equivalence by one partition of one machine
//!
//! The paper tests type-consistency with one Hopcroft–Karp run per
//! same-type pair of candidate objects. Every candidate's DFA, however,
//! is a part of one shared subset machine ([`SharedMachine`]): the
//! interned state-sets reachable from the candidates' start states
//! `{o}`. Two objects are equivalent iff their start states are
//! behaviourally equivalent states of that machine, so one Moore
//! partition refinement over it ([`automata::Dfa::state_classes`])
//! decides every pair at once; Condition 1 (same type) is the start
//! states' output sets and Condition 2 a backward pass from the
//! multi-type states. Within each type group the first member of each
//! class becomes its representative. See DESIGN.md §11.
//!
//! [`merge_equivalent_objects_pairwise`] keeps the paper's pairwise
//! loop over per-object DFAs as the test oracle; nothing on the
//! product path calls it.

use std::time::{Duration, Instant};

use automata::Dfa;
use dsu::DisjointSets;
use fxhash::FxHashMap;
use jir::AllocId;
use pta::MergedObjectMap;

use crate::build::{RootAutomaton, SharedMachine, SubsetCtx};
use crate::fpg::{FieldPointsToGraph, FpgNode, NodeType, Reach};

/// Which member of an equivalence class becomes its representative.
///
/// The paper notes (Example 3.2 / Figure 7) that under type-sensitivity
/// the representative choice can change precision; the engine picks
/// deterministically so experiments are reproducible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Representative {
    /// The class member with the smallest allocation-site id (default).
    #[default]
    Smallest,
    /// The class member with the largest allocation-site id — used by
    /// the Figure 7 experiment to demonstrate representative-dependence
    /// of M-ktype.
    Largest,
}

/// Configuration of the Mahjong pipeline.
#[derive(Clone, Copy, Debug)]
pub struct MahjongConfig {
    /// A no-op: the merge is one sequential pass over one machine. Kept
    /// because the `perfbench` benchmark sets it, like
    /// `pta::AnalysisConfig::threads`.
    pub threads: usize,
    /// Enforce Condition 2 of Definition 2.1 (SINGLETYPE-CHECK). The
    /// `false` setting is the ablation of paper Figure 3 / Example 2.4.
    pub enforce_condition2: bool,
    /// Model never-assigned fields as pointing to the dummy null node.
    pub model_null: bool,
    /// Representative choice per equivalence class.
    pub representative: Representative,
}

impl Default for MahjongConfig {
    fn default() -> Self {
        MahjongConfig {
            threads: 1,
            enforce_condition2: true,
            model_null: true,
            representative: Representative::Smallest,
        }
    }
}

/// Statistics of one Mahjong run (the paper reports these in
/// Section 6.1). Records that span several runs (the `bench` harness's
/// benchmark records) sum them.
#[derive(Clone, Debug, Default)]
pub struct MahjongStats {
    /// Time spent building the shared machine (subset construction and
    /// the SINGLETYPE-CHECK marking) and measuring NFA sizes.
    pub dfa_time: Duration,
    /// Time spent refining the partition and building the merged map.
    pub merge_time: Duration,
    /// Objects (present allocation sites) examined.
    pub objects: usize,
    /// Abstract objects after merging (equivalence classes over present
    /// objects).
    pub merged_objects: usize,
    /// Objects failing SINGLETYPE-CHECK.
    pub not_single_type: usize,
    /// Single-type candidates: objects in a type group of two or more
    /// that pass SINGLETYPE-CHECK.
    pub dfa_built: usize,
    /// Equivalence classes among the single-type candidates, over all
    /// type groups.
    pub sig_buckets: usize,
    /// States of the shared subset machine (interned state-sets, good
    /// and bad).
    pub machine_states: usize,
    /// Partition refinement rounds over the shared machine, the last
    /// one being the round that found the partition stable.
    pub refine_rounds: usize,
    /// Average NFA size (reachable FPG nodes per candidate).
    pub avg_nfa_states: f64,
    /// Largest NFA (reachable FPG nodes).
    pub max_nfa_states: usize,
}

/// The output of the Mahjong pipeline: the merged object map plus run
/// statistics.
#[derive(Clone, Debug)]
pub struct MahjongOutput {
    /// The new heap abstraction (paper Definition 2.2), ready to drive a
    /// [`pta::AnalysisConfig`].
    pub mom: MergedObjectMap,
    /// Run statistics.
    pub stats: MahjongStats,
}

/// Runs Algorithm 1 over an FPG: builds the shared subset machine of
/// every merge candidate, partitions it once, and merges the candidates
/// whose start states share a class.
pub fn merge_equivalent_objects(fpg: &FieldPointsToGraph, config: &MahjongConfig) -> MahjongOutput {
    let mut stats = MahjongStats::default();
    let candidates: Vec<AllocId> = candidate_groups(fpg, &mut stats).concat();

    let dfa_start = Instant::now();
    let machine = {
        let _phase = obs::span("mahjong.automata_build");
        nfa_size_stats(fpg, &candidates, &mut stats);
        SharedMachine::build(fpg, &candidates, config.enforce_condition2)
    };
    stats.machine_states = machine.states();
    stats.dfa_time = dfa_start.elapsed();

    let merge_start = Instant::now();
    let pairs = {
        let _phase = obs::span("mahjong.equivalence_check");
        let classes = machine.root_classes();
        stats.refine_rounds = classes.rounds;
        // Classes never span type groups (the start states' outputs
        // differ), so one representative table serves every group.
        let mut rep: Vec<Option<AllocId>> = vec![None; classes.classes];
        let mut pairs = Vec::new();
        for (&alloc, class) in candidates.iter().zip(classes.class_of) {
            let Some(class) = class else {
                stats.not_single_type += 1;
                continue;
            };
            stats.dfa_built += 1;
            match rep[class as usize] {
                Some(first) => pairs.push((first, alloc)),
                None => {
                    rep[class as usize] = Some(alloc);
                    stats.sig_buckets += 1;
                }
            }
        }
        pairs
    };
    let mom = build_mom(fpg, pairs, config, &mut stats);
    stats.merge_time = merge_start.elapsed();
    MahjongOutput { mom, stats }
}

/// The pairwise Hopcroft–Karp reference pipeline: the paper's original
/// merge loop, one DFA per candidate and one HK run per (object, class
/// representative) pair.
///
/// Kept as the independent oracle for [`merge_equivalent_objects`] —
/// the property tests assert both produce bit-identical merged object
/// maps. Returns the output together with the number of HK runs.
pub fn merge_equivalent_objects_pairwise(
    fpg: &FieldPointsToGraph,
    config: &MahjongConfig,
) -> (MahjongOutput, u64) {
    let mut stats = MahjongStats::default();
    let groups = candidate_groups(fpg, &mut stats);
    nfa_size_stats(fpg, &groups.concat(), &mut stats);

    let dfa_start = Instant::now();
    let mut ctx = SubsetCtx::new(fpg);
    let automata: Vec<Vec<RootAutomaton>> = groups
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|&alloc| ctx.dfa_for_root(alloc, config.enforce_condition2))
                .collect()
        })
        .collect();
    stats.dfa_time = dfa_start.elapsed();

    let merge_start = Instant::now();
    let mut pairs = Vec::new();
    let mut hk_runs = 0;
    for (group, automata) in groups.iter().zip(&automata) {
        let mut reps: Vec<(AllocId, &Dfa)> = Vec::new();
        for (&alloc, automaton) in group.iter().zip(automata) {
            let RootAutomaton::Dfa(dfa) = automaton else {
                stats.not_single_type += 1;
                continue; // fails SINGLETYPE-CHECK: never mergeable
            };
            stats.dfa_built += 1;
            let mut merged = false;
            for &(rep, rep_dfa) in &reps {
                hk_runs += 1;
                if dfa.equivalent(rep_dfa) {
                    pairs.push((rep, alloc));
                    merged = true;
                    break;
                }
            }
            if !merged {
                reps.push((alloc, dfa));
            }
        }
        stats.sig_buckets += reps.len();
    }
    let mom = build_mom(fpg, pairs, config, &mut stats);
    stats.merge_time = merge_start.elapsed();
    (MahjongOutput { mom, stats }, hk_runs)
}

/// Groups present objects by exact type (TYPEOF guard, Algorithm 1
/// line 5) and drops singleton groups — they can never merge, so they
/// never enter the machine. Groups are ordered by first member, and
/// members ascend within a group.
fn candidate_groups(fpg: &FieldPointsToGraph, stats: &mut MahjongStats) -> Vec<Vec<AllocId>> {
    let mut by_type: FxHashMap<jir::TypeId, Vec<AllocId>> = FxHashMap::default();
    for alloc in fpg.present_allocs() {
        stats.objects += 1;
        if let NodeType::Type(ty) = fpg.node_type(FpgNode::Alloc(alloc)) {
            by_type.entry(ty).or_default().push(alloc);
        }
    }
    let mut groups: Vec<Vec<AllocId>> = by_type
        .into_values()
        .filter(|members| members.len() > 1)
        .collect();
    groups.sort_by_key(|g| g[0]);
    groups
}

/// Measures each candidate's NFA (its reachable FPG nodes, paper
/// Section 6.1.1) with one reused walk.
fn nfa_size_stats(fpg: &FieldPointsToGraph, candidates: &[AllocId], stats: &mut MahjongStats) {
    let mut reach = Reach::new(fpg);
    let mut nfa_total = 0usize;
    for &alloc in candidates {
        let size = reach.walk(FpgNode::Alloc(alloc)).len();
        nfa_total += size;
        stats.max_nfa_states = stats.max_nfa_states.max(size);
    }
    if !candidates.is_empty() {
        stats.avg_nfa_states = nfa_total as f64 / candidates.len() as f64;
    }
}

/// Applies the union pairs and builds the merged object map with a
/// deterministic representative per class (Algorithm 1, lines 14–16).
fn build_mom(
    fpg: &FieldPointsToGraph,
    pairs: Vec<(AllocId, AllocId)>,
    config: &MahjongConfig,
    stats: &mut MahjongStats,
) -> MergedObjectMap {
    let n = fpg.alloc_count();
    let mut sets = DisjointSets::new(n);
    for (a, b) in pairs {
        sets.union(a.index(), b.index());
    }
    let mut repr = vec![AllocId::from_usize(0); n];
    for class in sets.classes() {
        let chosen = match config.representative {
            Representative::Smallest => *class.first().expect("non-empty class"),
            Representative::Largest => *class.last().expect("non-empty class"),
        };
        for member in class {
            repr[member] = AllocId::from_usize(chosen);
        }
    }
    let mom = MergedObjectMap::new(repr);
    stats.merged_objects = {
        let mut reprs: Vec<AllocId> = fpg
            .present_allocs()
            .map(|a| pta::HeapAbstraction::repr(&mom, a))
            .collect();
        reprs.sort_unstable();
        reprs.dedup();
        reprs.len()
    };
    mom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpg::FpgBuilder;

    /// Figure 1's FPG: three A roots (one holding a B, two holding Cs),
    /// plus the stored B/C objects themselves.
    fn figure1_fpg() -> FieldPointsToGraph {
        let mut b = FpgBuilder::new();
        let a = b.ty("A");
        let bb = b.ty("B");
        let c = b.ty("C");
        let f = b.field("f");
        let o1 = b.alloc(a);
        let o2 = b.alloc(a);
        let o3 = b.alloc(a);
        let o4 = b.alloc(bb);
        let o5 = b.alloc(c);
        let o6 = b.alloc(c);
        b.edge(o1, f, o4);
        b.edge(o2, f, o5);
        b.edge(o3, f, o6);
        b.finish()
    }

    #[test]
    fn figure1_merges_two_classes() {
        let out = merge_equivalent_objects(&figure1_fpg(), &MahjongConfig::default());
        assert_eq!(out.stats.objects, 6);
        assert_eq!(out.stats.merged_objects, 4);
        let sizes: Vec<usize> = out
            .mom
            .classes()
            .iter()
            .map(Vec::len)
            .filter(|&s| s > 1)
            .collect();
        assert_eq!(sizes, vec![2, 2], "{{o2,o3}} and {{o5,o6}}");
    }

    /// The product path decides every class by the one refinement of
    /// the shared machine; no pairwise equivalence check runs on it
    /// (only the oracle counts Hopcroft–Karp runs).
    #[test]
    fn fast_path_performs_zero_hk_runs() {
        let out = merge_equivalent_objects(&figure1_fpg(), &MahjongConfig::default());
        // Three classes among the candidates: {o2,o3} and {o5,o6}
        // share theirs; o1 sits alone in the A group's second class.
        assert_eq!(out.stats.sig_buckets, 3);
        assert_eq!(out.stats.dfa_built, 5, "o1,o2,o3 and o5,o6 (o4 is singleton-B)");
        // Machine: {o1},{o2},{o3},{o5},{o6} and the successor {o4}
        // (five starts plus one interned payload set).
        assert_eq!(out.stats.machine_states, 6);
        assert_eq!(out.stats.refine_rounds, 2, "one splitting round, one stable");
    }

    #[test]
    fn pairwise_oracle_matches_signature_path() {
        let fpg = figure1_fpg();
        let fast = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        let (oracle, hk_runs) = merge_equivalent_objects_pairwise(&fpg, &MahjongConfig::default());
        assert_eq!(fast.mom, oracle.mom, "bit-identical merged object maps");
        assert_eq!(fast.stats.merged_objects, oracle.stats.merged_objects);
        assert_eq!(fast.stats.sig_buckets, oracle.stats.sig_buckets);
        assert_eq!(fast.stats.dfa_built, oracle.stats.dfa_built);
        assert_eq!(fast.stats.avg_nfa_states, oracle.stats.avg_nfa_states);
        assert!(hk_runs > 0, "the oracle really ran HK");
    }

    #[test]
    fn parallel_matches_sequential_on_figure1() {
        let fpg = figure1_fpg();
        let seq = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        let par = merge_equivalent_objects(
            &fpg,
            &MahjongConfig {
                threads: 4,
                ..MahjongConfig::default()
            },
        );
        assert_eq!(seq.mom, par.mom);
    }

    #[test]
    fn representative_choice_is_deterministic() {
        let fpg = figure1_fpg();
        let small = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        let large = merge_equivalent_objects(
            &fpg,
            &MahjongConfig {
                representative: Representative::Largest,
                ..MahjongConfig::default()
            },
        );
        use pta::HeapAbstraction;
        // {o2, o3}: smallest picks o2, largest picks o3.
        let o2 = AllocId::from_usize(1);
        let o3 = AllocId::from_usize(2);
        assert_eq!(small.mom.repr(o3), o2);
        assert_eq!(large.mom.repr(o2), o3);
    }

    #[test]
    fn singleton_type_groups_are_skipped_entirely() {
        // One object per type: nothing to compare, zero checks, zero
        // DFAs built.
        let mut b = FpgBuilder::new();
        let t1 = b.ty("T1");
        let t2 = b.ty("T2");
        b.alloc(t1);
        b.alloc(t2);
        let out = merge_equivalent_objects(&b.finish(), &MahjongConfig::default());
        assert_eq!(out.stats.machine_states, 0);
        assert_eq!(out.stats.dfa_built, 0);
        assert_eq!(out.stats.sig_buckets, 0);
        assert_eq!(out.stats.merged_objects, 2);
    }

    #[test]
    fn transitive_merging_needs_no_pairwise_checks() {
        // Ten identical leaf objects: one class absorbs all of them —
        // no equivalence run ever executes (the pairwise oracle needs
        // 9 here).
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        for _ in 0..10 {
            b.alloc(t);
        }
        let fpg = b.finish();
        let out = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        assert_eq!(out.stats.merged_objects, 1);
        assert_eq!(out.stats.sig_buckets, 1);
        let (oracle, hk_runs) = merge_equivalent_objects_pairwise(&fpg, &MahjongConfig::default());
        assert_eq!(hk_runs, 9, "one comparison per non-rep member");
        assert_eq!(out.mom, oracle.mom);
    }

    #[test]
    fn condition2_failures_are_counted_and_never_merge() {
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let x = b.ty("X");
        let y = b.ty("Y");
        let f = b.field("f");
        // Two T objects, each with a mixed-type field; and one clean pair.
        let bad1 = b.alloc(t);
        let bad2 = b.alloc(t);
        let ox = b.alloc(x);
        let oy = b.alloc(y);
        for bad in [bad1, bad2] {
            b.edge(bad, f, ox);
            b.edge(bad, f, oy);
        }
        let out = merge_equivalent_objects(&b.finish(), &MahjongConfig::default());
        assert_eq!(out.stats.not_single_type, 2);
        use pta::HeapAbstraction;
        assert_ne!(out.mom.repr(bad1), out.mom.repr(bad2));
        // Without Condition 2 they do merge.
        let loose = merge_equivalent_objects(
            &figure3_like(),
            &MahjongConfig {
                enforce_condition2: false,
                ..MahjongConfig::default()
            },
        );
        assert!(loose.stats.merged_objects < loose.stats.objects);
    }

    fn figure3_like() -> FieldPointsToGraph {
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        let x = b.ty("X");
        let y = b.ty("Y");
        let f = b.field("f");
        let t1 = b.alloc(t);
        let t2 = b.alloc(t);
        let ox = b.alloc(x);
        let oy = b.alloc(y);
        for tt in [t1, t2] {
            b.edge(tt, f, ox);
            b.edge(tt, f, oy);
        }
        b.finish()
    }

    #[test]
    fn nfa_stats_are_collected() {
        let out = merge_equivalent_objects(&figure1_fpg(), &MahjongConfig::default());
        assert!(out.stats.avg_nfa_states >= 1.0);
        assert!(out.stats.max_nfa_states >= 2, "A roots reach their payload");
        assert!(out.stats.dfa_time <= out.stats.dfa_time + out.stats.merge_time);
    }
}
