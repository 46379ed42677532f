//! Propagation-volume regression smoke test.
//!
//! Runs a small fixed workload (deterministic generator, fixed scale,
//! fixed configuration) and asserts the solver's `worklist_pops` stays
//! within 10% of a checked-in bound. The bound is the value measured
//! when the online-cycle-collapse solver landed, times 1.10 — a real
//! regression (losing collapse, breaking wave ordering, reverting to
//! full-set propagation) blows well past it, while normal drift from
//! heuristic tweaks fits inside.
//!
//! Update `WORKLIST_POPS_BOUND` deliberately, with the measured value
//! and the reason, whenever the solver's propagation strategy changes.
//!
//! The Mahjong guard works the same way: the canonical-signature merge
//! path must run **zero** Hopcroft–Karp equivalence checks (reverting
//! to pairwise checking flips `hk_runs`/`equivalence_checks` nonzero
//! immediately), and the amount of automaton work — `dfa_built`, one
//! canonicalization per candidate — is pinned to a measured-at-commit
//! bound the same way `worklist_pops` is, and so are the solver's
//! order maintenance (edges scanned by repair searches, renumbers), its
//! call dispatch (receiver groups bound) and its physical points-to
//! footprint (`pts_peak_words`).
//! Wall-clock itself is tracked by the committed BENCH records, which
//! `scripts/bench_table.py` renders, and by the `perfbench` benchmark;
//! counters, not seconds, are what CI can assert on.

use mahjong::MahjongConfig;
use pta::{AllocSiteAbstraction, AnalysisConfig, Budget, CallSiteSensitive};

/// 1.10 × the `worklist_pops` measured for this exact configuration
/// (luindex, scale 2, 2cs, alloc-site heap) on the cycle-collapsing
/// solver with sink suppression: 4,256 measured → 4,681 bound. The
/// incremental-order wave driver that replaced periodic sweeps
/// measures 4,295 and keeps the same bound.
const WORKLIST_POPS_BOUND: u64 = 4_681;

#[test]
fn worklist_pops_does_not_regress() {
    let w = workloads::dacapo::workload("luindex", 2);
    let result = AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .run(&w.program)
        .expect("luindex@2 under 2cs fits a 120s budget");
    let pops = result.stats().worklist_pops;
    assert!(pops > 0, "solver did no work");
    assert!(
        pops <= WORKLIST_POPS_BOUND,
        "worklist_pops regressed: {pops} > bound {WORKLIST_POPS_BOUND} \
         (bound = measured-at-commit × 1.10; see module docs)"
    );
}

/// 1.10 × the `dfa_built` measured for luindex@2 with the default
/// Mahjong configuration when the canonical-signature path landed:
/// 288 measured → 317 bound. One DFA is built (and canonicalized once)
/// per merge candidate, so this bounds the whole automaton phase's
/// work; a regression that re-runs subset construction per pair or
/// stops skipping singleton type groups blows past it.
const MAHJONG_DFA_BUILT_BOUND: usize = 317;

/// The Mahjong merge phase on the fixed workload: signatures do all the
/// equivalence work (no Hopcroft–Karp on the fast path) and the volume
/// of automaton construction stays within the checked-in bound.
#[test]
fn mahjong_fast_path_stays_hk_free() {
    let w = workloads::dacapo::workload("luindex", 2);
    let prepared_pre = pta::pre_analysis(&w.program).expect("pre-analysis fits");
    let out = mahjong::build_heap_abstraction(&w.program, &prepared_pre, &MahjongConfig::default());
    let stats = &out.stats;
    assert_eq!(
        stats.hk_runs, 0,
        "fast path ran Hopcroft–Karp {} times; signatures should decide every merge",
        stats.hk_runs
    );
    assert_eq!(stats.equivalence_checks, 0, "legacy alias must agree with hk_runs");
    assert!(stats.dfa_built > 0, "merge phase built no automata");
    assert!(
        stats.sig_buckets <= stats.dfa_built,
        "more buckets ({}) than automata ({})",
        stats.sig_buckets,
        stats.dfa_built
    );
    assert!(
        stats.merged_objects < stats.objects,
        "luindex@2 has known equivalent objects; nothing merged"
    );
    assert!(
        stats.dfa_built <= MAHJONG_DFA_BUILT_BOUND,
        "dfa_built regressed: {} > bound {MAHJONG_DFA_BUILT_BOUND} \
         (bound = measured-at-commit × 1.10; see module docs)",
        stats.dfa_built
    );
}

/// The **logical** (per-row, pre-deduplication) points-to footprint of
/// the fixed workload, measured on the solver just before hash-consing
/// landed: 16,643 words. The interner's physical peak must undercut it
/// — rows with identical contents share one allocation — and the
/// dedup counter must show the sharing actually happened. Update the
/// baseline deliberately, with the measured value and the reason,
/// whenever the workload or the set representation changes.
const PRE_INTERN_PEAK_WORDS: u64 = 16_643;

#[test]
fn hash_consing_reduces_physical_pts_footprint() {
    let w = workloads::dacapo::workload("luindex", 2);
    let result = AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .run(&w.program)
        .expect("luindex@2 under 2cs fits a 120s budget");
    let stats = result.stats();
    assert!(
        stats.pts_dedup_hits > 0,
        "no seal ever found its content already interned; hash-consing is inert"
    );
    assert!(stats.pts_interned > 0, "the interner admitted nothing");
    assert!(
        stats.pts_peak_words < PRE_INTERN_PEAK_WORDS,
        "physical peak {} >= pre-intern logical baseline {PRE_INTERN_PEAK_WORDS}; \
         interned rows are not sharing allocations",
        stats.pts_peak_words
    );
}

/// 1.10 × the copy-graph edges the incremental topological order's
/// repair searches scanned on the fixed workload (luindex, scale 2,
/// 2cs, alloc-site heap) when the order replaced full SCC sweeps:
/// 13,176 measured → 14,494 bound. Searching both directions in full
/// (plain Pearce–Kelly) or stopping on node counts instead of edge
/// counts blows far past it.
const ORDER_SEARCH_EDGES_BOUND: u64 = 14_494;

/// 1.10 × the order renumbers (exhausted label gaps) measured on the
/// same run: 0 measured → 0 bound, so any renumber on this workload
/// fails. Renumbering is the O(V log V) fallback; a placement that
/// stops spreading moved nodes across their gap renumbers on nearly
/// every repair.
const ORDER_RENUMBERS_BOUND: u64 = 0;

/// Deterministic work bounds for the solver's bookkeeping. Wall-clock
/// time is not asserted anywhere in CI; these counters are the
/// same for any host, load or thread count.
#[test]
fn order_maintenance_work_within_bounds() {
    let w = workloads::dacapo::workload("luindex", 2);
    let result = AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .run(&w.program)
        .expect("luindex@2 under 2cs fits a 120s budget");
    let stats = result.stats();
    assert!(
        stats.order_search_edges > 0,
        "no repair search ran on a workload with out-of-order copy edges"
    );
    assert!(
        stats.order_search_edges <= ORDER_SEARCH_EDGES_BOUND,
        "order_search_edges regressed: {} > bound {ORDER_SEARCH_EDGES_BOUND} \
         (bound = measured-at-commit × 1.10; see module docs)",
        stats.order_search_edges
    );
    // A bound of 0 makes `<=` an equality.
    assert_eq!(
        stats.collapse_sweeps, ORDER_RENUMBERS_BOUND,
        "order renumbers regressed past bound {ORDER_RENUMBERS_BOUND} \
         (bound = measured-at-commit × 1.10; see module docs)"
    );
}

/// 1.10 × the dispatch groups bound on the fixed workload (luindex,
/// scale 2, 2cs, alloc-site heap) when receiver-batched dispatch
/// landed: 3,971 measured → 4,368 bound. One group is one bind of a
/// run of receivers sharing `(target, callee context)`; binding
/// receiver by receiver makes groups equal receivers and blows past
/// it.
const DISPATCH_GROUPS_BOUND: u64 = 4_368;

/// Deterministic work bound for call dispatch.
#[test]
fn dispatch_groups_within_bound() {
    let w = workloads::dacapo::workload("luindex", 2);
    let result = AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .run(&w.program)
        .expect("luindex@2 under 2cs fits a 120s budget");
    let groups = result.stats().dispatch_groups;
    assert!(groups > 0, "no call was ever dispatched");
    assert!(
        groups <= DISPATCH_GROUPS_BOUND,
        "dispatch_groups regressed: {groups} > bound {DISPATCH_GROUPS_BOUND} \
         (bound = measured-at-commit × 1.10; see module docs)"
    );
}

/// 1.10 × the physical points-to footprint (`pts_peak_words`) of the
/// fixed workload (luindex, scale 2, 2cs, alloc-site heap) when the
/// set kernels went word-wise: 1,721 measured → 1,893 bound. Kernel
/// outputs must keep the representation an element-by-element build
/// gives them — sorted ids up to 16 elements, a bitmap past that — so
/// a kernel that promotes its small outputs to bitmaps early blows
/// past it.
const PTS_PEAK_WORDS_BOUND: u64 = 1_893;

/// Deterministic bound on the set representation's footprint.
#[test]
fn pts_peak_words_within_bound() {
    let w = workloads::dacapo::workload("luindex", 2);
    let result = AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .run(&w.program)
        .expect("luindex@2 under 2cs fits a 120s budget");
    let words = result.stats().pts_peak_words;
    assert!(words > 0, "no points-to set was ever stored");
    assert!(
        words <= PTS_PEAK_WORDS_BOUND,
        "pts_peak_words regressed: {words} > bound {PTS_PEAK_WORDS_BOUND} \
         (bound = measured-at-commit × 1.10; see module docs)"
    );
}

/// The fixed workload contains copy cycles, so the collapse machinery
/// must actually fire — guards against silently disabling it.
#[test]
fn cycle_collapse_is_active() {
    let w = workloads::dacapo::workload("luindex", 2);
    let result = AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .run(&w.program)
        .expect("luindex@2 under 2cs fits a 120s budget");
    let stats = result.stats();
    assert!(
        stats.scc_collapsed_ptrs > 0,
        "no pointers collapsed on a workload with known copy cycles"
    );
    assert!(stats.wave_rounds > 0);
}
