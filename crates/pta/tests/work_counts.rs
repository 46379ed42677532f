//! Exact solver work counts on a fixed workload.
//!
//! The solver is one sequential driver: the same program and
//! configuration make the same pops, propagate the same objects, add
//! the same edges, scan the same order edges and collapse the same
//! cycles on every run. So a change to how the solver *stores* its
//! state (row layouts, membership mirrors, set representations) must
//! leave every one of these counts exactly where it was; a change to
//! how it *works* moves them, and must re-pin them here deliberately.
//!
//! `tests/bench_regress.rs` bounds a few of these counts at 1.10× to
//! catch regressions; this file pins them exactly, for luindex@2 under
//! 2cs and 2obj with the allocation-site heap.

use pta::{
    AllocSiteAbstraction, AnalysisConfig, AnalysisStats, Budget, CallSiteSensitive,
    ContextSelector, ObjectSensitive,
};

/// The pinned work counts of one run, in a fixed order.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    worklist_pops: u64,
    propagated_objects: u64,
    copy_edges: u64,
    order_search_edges: u64,
    scc_collapsed_ptrs: u64,
    dispatch_groups: u64,
    wave_rounds: u64,
    context_count: usize,
    reachable_method_contexts: u64,
}

impl Work {
    fn of(s: &AnalysisStats) -> Self {
        Work {
            worklist_pops: s.worklist_pops,
            propagated_objects: s.propagated_objects,
            copy_edges: s.copy_edges,
            order_search_edges: s.order_search_edges,
            scc_collapsed_ptrs: s.scc_collapsed_ptrs,
            dispatch_groups: s.dispatch_groups,
            wave_rounds: s.wave_rounds,
            context_count: s.context_count,
            reachable_method_contexts: s.reachable_method_contexts,
        }
    }
}

fn luindex2<S: ContextSelector>(selector: S) -> Work {
    let w = workloads::dacapo::workload("luindex", 2);
    let result = AnalysisConfig::new(selector, AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .run(&w.program)
        .expect("luindex@2 fits a 120s budget");
    Work::of(result.stats())
}

#[test]
fn luindex2_2cs_work_is_pinned() {
    assert_eq!(
        luindex2(CallSiteSensitive::new(2)),
        Work {
            worklist_pops: 4_295,
            propagated_objects: 33_506,
            copy_edges: 7_263,
            order_search_edges: 13_176,
            scc_collapsed_ptrs: 58,
            dispatch_groups: 3_971,
            wave_rounds: 5,
            context_count: 3_132,
            reachable_method_contexts: 2_563,
        }
    );
}

#[test]
fn luindex2_2obj_work_is_pinned() {
    assert_eq!(
        luindex2(ObjectSensitive::new(2)),
        Work {
            worklist_pops: 2_222,
            propagated_objects: 2_999,
            copy_edges: 5_535,
            order_search_edges: 1_424,
            scc_collapsed_ptrs: 29,
            dispatch_groups: 3_882,
            wave_rounds: 8,
            context_count: 875,
            reachable_method_contexts: 1_209,
        }
    );
}
