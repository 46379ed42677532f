//! The Mahjong main algorithm (paper Algorithm 1): merging
//! type-consistent objects with a disjoint-set forest, and the
//! synchronization-free parallel driver of Section 5.
//!
//! # Equivalence by canonical signature
//!
//! The paper tests type-consistency with one Hopcroft–Karp run per
//! same-type pair of candidate objects — near-linear per pair, but the
//! pair count is quadratic in the worst case and in practice dominates
//! the merge phase (~100k runs on the mid-size workloads). This
//! implementation instead canonicalizes each object's automaton once
//! ([`automata::Dfa::signature`]: Hopcroft minimization + BFS
//! renumbering + 128-bit fingerprint) and groups objects by signature;
//! two objects merge iff their signatures are equal. The minimal DFA is
//! unique up to isomorphism and the BFS renumbering is purely
//! structural, so signature grouping computes exactly the partition the
//! pairwise runs would — see DESIGN.md §11 for the soundness argument
//! and the collision policy.
//!
//! Hopcroft–Karp stays on three paths:
//!
//! - `debug_assertions` builds re-check every signature-directed merge
//!   (a collision would fire the assert instead of corrupting the map);
//! - [`MahjongConfig::paranoid`] re-verifies every merge *and* the
//!   pairwise distinctness of the class representatives at run time,
//!   counting the runs in `mahjong.hk_runs`;
//! - [`merge_equivalent_objects_pairwise`] is the full pairwise
//!   reference pipeline, kept as the oracle for property tests.
//!
//! On the default fast path `mahjong.hk_runs` is **zero**.

use std::time::{Duration, Instant};

use automata::{Dfa, DfaSignature};
use dsu::DisjointSets;
use fxhash::FxHashMap;
use jir::AllocId;
use pta::MergedObjectMap;

use crate::build::{RootAutomaton, SubsetCtx};
use crate::fpg::{FieldPointsToGraph, FpgNode, NodeType};

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
    /// Worker threads for automaton construction and canonicalization
    /// (1 = sequential).
    pub threads: usize,
    /// Enforce Condition 2 of Definition 2.1 (SINGLETYPE-CHECK). The
    /// `false` setting is the ablation of paper Figure 3 / Example 2.4.
    pub enforce_condition2: bool,
    /// Model never-assigned fields as pointing to the dummy null node.
    pub model_null: bool,
    /// Representative choice per equivalence class.
    pub representative: Representative,
    /// Re-verify every signature-directed merge (and the pairwise
    /// distinctness of class representatives) with Hopcroft–Karp,
    /// counting the runs in `mahjong.hk_runs`. Off by default: the
    /// fast path performs zero HK runs.
    pub paranoid: bool,
}

impl Default for MahjongConfig {
    fn default() -> Self {
        MahjongConfig {
            threads: 1,
            enforce_condition2: true,
            model_null: true,
            representative: Representative::Smallest,
            paranoid: false,
        }
    }
}

/// Statistics of one Mahjong run (the paper reports these in
/// Section 6.1).
///
/// This per-run view is the stable public API; at the end of every run
/// the same numbers are published into the process-global [`obs`]
/// registry under `mahjong.*` names (see [`MahjongStats::publish`]).
#[derive(Clone, Debug, Default)]
pub struct MahjongStats {
    /// Time spent building per-object DFAs (subset construction).
    pub dfa_time: Duration,
    /// Time spent canonicalizing DFAs (minimization + BFS renumbering
    /// + fingerprinting), summed across shards.
    pub canon_time: Duration,
    /// Time spent grouping by signature and building the merged map.
    pub merge_time: Duration,
    /// Objects (present allocation sites) examined.
    pub objects: usize,
    /// Abstract objects after merging (equivalence classes over present
    /// objects).
    pub merged_objects: usize,
    /// Objects failing SINGLETYPE-CHECK.
    pub not_single_type: usize,
    /// DFAs successfully constructed (objects passing SINGLETYPE-CHECK
    /// in candidate groups).
    pub dfa_built: usize,
    /// Distinct signature buckets across all type groups — the number
    /// of equivalence classes among the single-type candidates.
    pub sig_buckets: usize,
    /// Hopcroft–Karp runs performed (paranoid verification only; the
    /// default fast path performs none, and `debug_assertions`-only
    /// collision checks are not counted).
    pub hk_runs: u64,
    /// Load imbalance of the build shards, in percent: how far the most
    /// loaded shard exceeds the mean (0 when sequential or balanced).
    pub shard_skew_pct: f64,
    /// Average NFA size (reachable FPG nodes per object).
    pub avg_nfa_states: f64,
    /// Largest NFA (reachable FPG nodes).
    pub max_nfa_states: usize,
}

impl MahjongStats {
    /// Publishes the run's counters into the global [`obs`] registry
    /// (no-op while recording is disabled). Counters are monotonic, so
    /// repeated runs aggregate; every counter is touched even when
    /// zero, so the metrics export always carries the full set.
    pub fn publish(&self) {
        if !obs::enabled() {
            return;
        }
        obs::counter("mahjong.objects").add(self.objects as u64);
        obs::counter("mahjong.merged_objects").add(self.merged_objects as u64);
        obs::counter("mahjong.not_single_type").add(self.not_single_type as u64);
        obs::counter("mahjong.dfa_built").add(self.dfa_built as u64);
        obs::counter("mahjong.sig_buckets").add(self.sig_buckets as u64);
        obs::counter("mahjong.hk_runs").add(self.hk_runs);
        obs::counter("mahjong.canon_ns")
            .add(u64::try_from(self.canon_time.as_nanos()).unwrap_or(u64::MAX));
        obs::gauge("mahjong.max_nfa_states").set(self.max_nfa_states as i64);
        obs::gauge("mahjong.shard_skew").set(self.shard_skew_pct.round() as i64);
    }
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

/// Runs Algorithm 1 over an FPG: groups objects by type, builds and
/// canonicalizes their automata, and merges signature-equal ones.
pub fn merge_equivalent_objects(fpg: &FieldPointsToGraph, config: &MahjongConfig) -> MahjongOutput {
    let mut stats = MahjongStats::default();
    let groups = candidate_groups(fpg, &mut stats);

    // Phase 1: build all shared automata beforehand (Section 5) and
    // canonicalize each to its 128-bit signature, sharded across
    // threads when configured. Each shard owns a private SubsetCtx, so
    // interned state-sets are shared within a shard without locking.
    let dfa_start = Instant::now();
    let automata = {
        let _phase = obs::span("mahjong.automata_build");
        build_automata(fpg, &groups, config, &mut stats)
    };
    stats.dfa_time = dfa_start.elapsed().saturating_sub(stats.canon_time);
    collect_size_stats(&automata, &mut stats);

    // Phase 2: per-type signature grouping (zero HK runs on the fast
    // path), then the merged object map.
    let merge_start = Instant::now();
    let pairs = {
        let _phase = obs::span("mahjong.equivalence_check");
        merge_by_signature(&groups, &automata, config.paranoid, &mut stats)
    };
    let mom = build_mom(fpg, pairs, config, &mut stats);
    stats.merge_time = merge_start.elapsed();
    stats.publish();
    MahjongOutput { mom, stats }
}

/// The pairwise Hopcroft–Karp reference pipeline: the paper's original
/// merge loop, one HK run per (object, class representative) pair.
///
/// Kept as the independent oracle for the signature fast path — the
/// property tests assert both pipelines produce bit-identical merged
/// object maps. All equivalence tests are counted in
/// [`MahjongStats::hk_runs`]. Sequential; `config.threads` and
/// `config.paranoid` are ignored.
pub fn merge_equivalent_objects_pairwise(
    fpg: &FieldPointsToGraph,
    config: &MahjongConfig,
) -> MahjongOutput {
    let mut stats = MahjongStats::default();
    let groups = candidate_groups(fpg, &mut stats);

    let dfa_start = Instant::now();
    let mut ctx = SubsetCtx::new(fpg);
    let mut automata: FxHashMap<AllocId, RootInfo> = FxHashMap::default();
    for &alloc in groups.iter().flatten() {
        let (automaton, bstats) = ctx.dfa_for_root(alloc, config.enforce_condition2);
        automata.insert(
            alloc,
            RootInfo {
                automaton,
                signature: None,
                nfa_states: bstats.nfa_states,
                dfa_states: bstats.dfa_states,
            },
        );
    }
    stats.dfa_time = dfa_start.elapsed();
    collect_size_stats(&automata, &mut stats);

    let merge_start = Instant::now();
    let mut pairs = Vec::new();
    for group in &groups {
        let mut reps: Vec<(AllocId, &Dfa)> = Vec::new();
        for &alloc in group {
            let RootAutomaton::Dfa(dfa) = &automata[&alloc].automaton else {
                continue; // fails SINGLETYPE-CHECK: never mergeable
            };
            let mut merged = false;
            for &(rep, rep_dfa) in &reps {
                stats.hk_runs += 1;
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
    stats.publish();
    MahjongOutput { mom, stats }
}

/// Per-object automaton info.
struct RootInfo {
    automaton: RootAutomaton,
    /// Canonical signature; `None` for `NotSingleType` objects and on
    /// the pairwise oracle path (which never canonicalizes).
    signature: Option<DfaSignature>,
    nfa_states: usize,
    dfa_states: usize,
}

/// Groups present objects by exact type (TYPEOF guard, Algorithm 1
/// line 5) and drops singleton groups — they can never merge, so their
/// DFAs are never built. Groups are ordered by first member for
/// deterministic sharding.
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

/// Assigns type groups to `shards` bins, largest group first into the
/// least-loaded bin (LPT scheduling). Returns per-shard group indices.
fn assign_shards(groups: &[Vec<AllocId>], shards: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(groups[i].len()), i));
    let mut load = vec![0usize; shards];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for g in order {
        let target = (0..shards).min_by_key(|&s| (load[s], s)).expect("shards > 0");
        load[target] += groups[g].len();
        out[target].push(g);
    }
    out
}

/// Percent by which the most loaded shard exceeds the mean load.
fn shard_skew_pct(loads: &[usize]) -> f64 {
    let total: usize = loads.iter().sum();
    if loads.is_empty() || total == 0 {
        return 0.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = *loads.iter().max().expect("non-empty") as f64;
    (max / mean - 1.0) * 100.0
}

/// Builds the DFA and canonical signature of one candidate.
fn build_one(
    ctx: &mut SubsetCtx<'_>,
    alloc: AllocId,
    enforce_condition2: bool,
    canon: &mut Duration,
) -> RootInfo {
    let (automaton, bstats) = ctx.dfa_for_root(alloc, enforce_condition2);
    let signature = match &automaton {
        RootAutomaton::Dfa(dfa) => {
            let t = Instant::now();
            let sig = dfa.signature();
            *canon += t.elapsed();
            Some(sig)
        }
        RootAutomaton::NotSingleType => None,
    };
    RootInfo {
        automaton,
        signature,
        nfa_states: bstats.nfa_states,
        dfa_states: bstats.dfa_states,
    }
}

fn build_automata(
    fpg: &FieldPointsToGraph,
    groups: &[Vec<AllocId>],
    config: &MahjongConfig,
    stats: &mut MahjongStats,
) -> FxHashMap<AllocId, RootInfo> {
    let candidates: usize = groups.iter().map(Vec::len).sum();
    if config.threads <= 1 || candidates < 64 {
        let mut ctx = SubsetCtx::new(fpg);
        let mut canon = Duration::ZERO;
        let out = groups
            .iter()
            .flatten()
            .map(|&alloc| {
                (
                    alloc,
                    build_one(&mut ctx, alloc, config.enforce_condition2, &mut canon),
                )
            })
            .collect();
        stats.canon_time = canon;
        return out;
    }

    let assignment = assign_shards(groups, config.threads);
    let loads: Vec<usize> = assignment
        .iter()
        .map(|idxs| idxs.iter().map(|&g| groups[g].len()).sum())
        .collect();
    stats.shard_skew_pct = shard_skew_pct(&loads);

    let mut out = FxHashMap::default();
    let mut canon_total = Duration::ZERO;
    std::thread::scope(|scope| {
        let handles: Vec<_> = assignment
            .iter()
            .map(|idxs| {
                scope.spawn(move || {
                    let mut ctx = SubsetCtx::new(fpg);
                    let mut canon = Duration::ZERO;
                    let infos: Vec<(AllocId, RootInfo)> = idxs
                        .iter()
                        .flat_map(|&g| &groups[g])
                        .map(|&alloc| {
                            (
                                alloc,
                                build_one(&mut ctx, alloc, config.enforce_condition2, &mut canon),
                            )
                        })
                        .collect();
                    (infos, canon)
                })
            })
            .collect();
        for h in handles {
            let (infos, canon) = h.join().expect("automata worker panicked");
            out.extend(infos);
            canon_total += canon;
        }
    });
    stats.canon_time = canon_total;
    out
}

fn collect_size_stats(automata: &FxHashMap<AllocId, RootInfo>, stats: &mut MahjongStats) {
    let mut nfa_total = 0usize;
    let record_sizes = obs::enabled();
    let (nfa_hist, dfa_hist) = (
        obs::histogram("mahjong.nfa_states"),
        obs::histogram("mahjong.dfa_states"),
    );
    for info in automata.values() {
        nfa_total += info.nfa_states;
        stats.max_nfa_states = stats.max_nfa_states.max(info.nfa_states);
        if record_sizes {
            nfa_hist.record(info.nfa_states as u64);
            dfa_hist.record(info.dfa_states as u64);
        }
        match info.automaton {
            RootAutomaton::NotSingleType => stats.not_single_type += 1,
            RootAutomaton::Dfa(_) => stats.dfa_built += 1,
        }
    }
    if !automata.is_empty() {
        stats.avg_nfa_states = nfa_total as f64 / automata.len() as f64;
    }
}

/// Merges within each type group by canonical signature: objects with
/// equal signatures are equivalent (minimal-DFA uniqueness), so each
/// group reduces to one hash-bucket pass. Returns the union pairs.
///
/// In `paranoid` mode every signature-directed merge is re-verified
/// with Hopcroft–Karp and the group's class representatives are checked
/// pairwise distinct; the runs are counted in `stats.hk_runs`. A
/// detected collision (signatures equal, automata inequivalent) is
/// counted in `mahjong.sig_collisions` and the object is *not* merged —
/// precision is lost to a finer partition, never soundness.
fn merge_by_signature(
    groups: &[Vec<AllocId>],
    automata: &FxHashMap<AllocId, RootInfo>,
    paranoid: bool,
    stats: &mut MahjongStats,
) -> Vec<(AllocId, AllocId)> {
    let dfa_of = |alloc: AllocId| -> &Dfa {
        match &automata[&alloc].automaton {
            RootAutomaton::Dfa(d) => d,
            RootAutomaton::NotSingleType => unreachable!("reps are always DFAs"),
        }
    };
    let mut pairs = Vec::new();
    for group in groups {
        // Bucket -> class representatives (normally exactly one; more
        // only after a detected collision in paranoid mode).
        let mut buckets: FxHashMap<DfaSignature, Vec<AllocId>> = FxHashMap::default();
        let mut rep_order: Vec<AllocId> = Vec::new();
        for &alloc in group {
            let info = &automata[&alloc];
            let RootAutomaton::Dfa(dfa) = &info.automaton else {
                continue; // fails SINGLETYPE-CHECK: never mergeable
            };
            let sig = info.signature.expect("signature computed for every DFA");
            let reps = buckets.entry(sig).or_default();
            let mut merged = false;
            for &rep in reps.iter() {
                if paranoid {
                    stats.hk_runs += 1;
                    if dfa.equivalent(dfa_of(rep)) {
                        pairs.push((rep, alloc));
                        merged = true;
                        break;
                    }
                    obs::counter("mahjong.sig_collisions").inc();
                } else {
                    debug_assert!(
                        dfa.equivalent(dfa_of(rep)),
                        "signature collision: {alloc:?} vs {rep:?} share {sig:?} \
                         but are inequivalent"
                    );
                    pairs.push((rep, alloc));
                    merged = true;
                    break;
                }
            }
            if !merged {
                reps.push(alloc);
                rep_order.push(alloc);
            }
        }
        stats.sig_buckets += buckets.len();
        if paranoid {
            // Completeness direction: distinct signatures must mean
            // distinct behaviour, so representatives never merge.
            for (i, &a) in rep_order.iter().enumerate() {
                for &b in &rep_order[i + 1..] {
                    stats.hk_runs += 1;
                    assert!(
                        !dfa_of(a).equivalent(dfa_of(b)),
                        "canonicalization incomplete: {a:?} ≡ {b:?} \
                         but their signatures differ"
                    );
                }
            }
        }
    }
    pairs
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

    #[test]
    fn fast_path_performs_zero_hk_runs() {
        let out = merge_equivalent_objects(&figure1_fpg(), &MahjongConfig::default());
        assert_eq!(out.stats.hk_runs, 0);
        // Three mergeable groups contribute one bucket each: {o2,o3}
        // and {o5,o6} share theirs; o1 sits alone in the A group's
        // second bucket.
        assert_eq!(out.stats.sig_buckets, 3);
        assert_eq!(out.stats.dfa_built, 5, "o1,o2,o3 and o5,o6 (o4 is singleton-B)");
    }

    #[test]
    fn pairwise_oracle_matches_signature_path() {
        let fpg = figure1_fpg();
        let fast = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        let oracle = merge_equivalent_objects_pairwise(&fpg, &MahjongConfig::default());
        assert_eq!(fast.mom, oracle.mom, "bit-identical merged object maps");
        assert_eq!(fast.stats.merged_objects, oracle.stats.merged_objects);
        assert_eq!(fast.stats.sig_buckets, oracle.stats.sig_buckets);
        assert!(oracle.stats.hk_runs > 0, "the oracle really ran HK");
    }

    #[test]
    fn paranoid_mode_verifies_with_hk() {
        let fpg = figure1_fpg();
        let fast = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        let paranoid = merge_equivalent_objects(
            &fpg,
            &MahjongConfig {
                paranoid: true,
                ..MahjongConfig::default()
            },
        );
        assert_eq!(fast.mom, paranoid.mom);
        // Two merges re-verified + one representative-distinctness
        // check in the A group ({o2} rep vs o1 rep).
        assert_eq!(paranoid.stats.hk_runs, 3);
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
        assert_eq!(out.stats.hk_runs, 0);
        assert_eq!(out.stats.dfa_built, 0);
        assert_eq!(out.stats.sig_buckets, 0);
        assert_eq!(out.stats.merged_objects, 2);
    }

    #[test]
    fn transitive_merging_needs_no_pairwise_checks() {
        // Ten identical leaf objects: one signature bucket absorbs all
        // of them — no equivalence run ever executes (the pairwise
        // predecessor needed 9 here).
        let mut b = FpgBuilder::new();
        let t = b.ty("T");
        for _ in 0..10 {
            b.alloc(t);
        }
        let fpg = b.finish();
        let out = merge_equivalent_objects(&fpg, &MahjongConfig::default());
        assert_eq!(out.stats.merged_objects, 1);
        assert_eq!(out.stats.hk_runs, 0);
        assert_eq!(out.stats.sig_buckets, 1);
        let oracle = merge_equivalent_objects_pairwise(&fpg, &MahjongConfig::default());
        assert_eq!(oracle.stats.hk_runs, 9, "one comparison per non-rep member");
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

    #[test]
    fn lpt_shard_assignment_balances_load() {
        let mk = |n: usize| (0..n).map(AllocId::from_usize).collect::<Vec<_>>();
        let groups = vec![mk(5), mk(4), mk(3), mk(3), mk(1)];
        let shards = assign_shards(&groups, 2);
        let loads: Vec<usize> = shards
            .iter()
            .map(|idxs| idxs.iter().map(|&g| groups[g].len()).sum())
            .collect();
        // LPT: 5+3 vs 4+3+1 — perfectly balanced. Round-robin by
        // descending size gave 5+3+1=9 vs 4+3=7.
        assert_eq!(loads, vec![8, 8]);
        assert_eq!(shard_skew_pct(&loads), 0.0);
        // Every group assigned exactly once.
        let mut all: Vec<usize> = shards.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // Skew reports imbalance when present.
        assert!(shard_skew_pct(&[9, 7]) > 12.0);
    }
}
