//! Precision-parity integration tests: M-kA must match kA on the three
//! type-dependent client metrics across workloads and analyses, while
//! the naive allocation-type abstraction must be visibly less precise —
//! the paper's central claim (Sections 3.6.2 and 6.2.2).

use clients::ClientMetrics;
use mahjong::{build_heap_abstraction, MahjongConfig};
use pta::{
    AllocSiteAbstraction, AllocTypeAbstraction, AnalysisConfig, Budget, CallSiteSensitive,
    HeapAbstraction, MergedObjectMap, ObjectSensitive, TypeSensitive, Unscalable,
};

fn pipeline(name: &str) -> (jir::Program, MergedObjectMap) {
    let w = workloads::dacapo::workload(name, 1);
    let pre = pta::pre_analysis(&w.program).unwrap();
    let out = build_heap_abstraction(&w.program, &pre, &MahjongConfig::default());
    (w.program, out.mom)
}

fn metrics<H: HeapAbstraction>(
    p: &jir::Program,
    s: Sens,
    heap: H,
) -> Result<ClientMetrics, Unscalable> {
    let budget = Budget::seconds(120);
    let r = match s {
        Sens::Cs(k) => AnalysisConfig::new(CallSiteSensitive::new(k), heap)
            .budget(budget)
            .run(p)?,
        Sens::Obj(k) => AnalysisConfig::new(ObjectSensitive::new(k), heap)
            .budget(budget)
            .run(p)?,
        Sens::Type(k) => AnalysisConfig::new(TypeSensitive::new(k), heap)
            .budget(budget)
            .run(p)?,
    };
    Ok(ClientMetrics::compute(p, &r))
}

#[derive(Clone, Copy)]
enum Sens {
    Cs(usize),
    Obj(usize),
    Type(usize),
}

/// M-kA matches kA exactly on all three client metrics, for all five
/// analyses, on several programs.
#[test]
fn mahjong_preserves_client_precision() {
    for name in ["luindex", "pmd", "checkstyle"] {
        let (p, mom) = pipeline(name);
        for (label, s) in [
            ("2cs", Sens::Cs(2)),
            ("2obj", Sens::Obj(2)),
            ("3obj", Sens::Obj(3)),
            ("2type", Sens::Type(2)),
            ("3type", Sens::Type(3)),
        ] {
            let base = metrics(&p, s, AllocSiteAbstraction).unwrap();
            let with_m = metrics(&p, s, mom.clone()).unwrap();
            assert_eq!(
                base.call_graph_edges, with_m.call_graph_edges,
                "{name}/{label}: call-graph edges"
            );
            assert_eq!(
                base.poly_call_sites, with_m.poly_call_sites,
                "{name}/{label}: poly call sites"
            );
            assert_eq!(
                base.may_fail_casts, with_m.may_fail_casts,
                "{name}/{label}: may-fail casts"
            );
        }
    }
}

/// The allocation-type abstraction is strictly less precise than both
/// the allocation-site abstraction and Mahjong on the same analysis.
#[test]
fn alloc_type_is_less_precise() {
    let (p, mom) = pipeline("pmd");
    let base = metrics(&p, Sens::Obj(2), AllocSiteAbstraction).unwrap();
    let t = metrics(&p, Sens::Obj(2), AllocTypeAbstraction::new(&p)).unwrap();
    let m = metrics(&p, Sens::Obj(2), mom).unwrap();
    assert!(
        t.may_fail_casts > base.may_fail_casts,
        "T-2obj flags more casts ({} vs {})",
        t.may_fail_casts,
        base.may_fail_casts
    );
    assert_eq!(m.may_fail_casts, base.may_fail_casts);
    assert!(t.call_graph_edges >= base.call_graph_edges);
}

/// Soundness ordering: merging objects can only add behaviours, so the
/// M-kA call graph is a superset of the kA call graph collapsed
/// context-insensitively... and since M-kA also loses no edges on these
/// workloads, the sets are equal. Check the superset direction
/// explicitly (it is the soundness half of Section 3.6.2).
#[test]
fn mahjong_call_graph_is_sound_superset() {
    let (p, mom) = pipeline("antlr");
    let budget = Budget::seconds(120);
    let base = AnalysisConfig::new(ObjectSensitive::new(2), AllocSiteAbstraction)
        .budget(budget)
        .run(&p)
        .unwrap();
    let with_m = AnalysisConfig::new(ObjectSensitive::new(2), mom)
        .budget(budget)
        .run(&p)
        .unwrap();
    let base_edges: std::collections::HashSet<_> = base.call_graph_edges().collect();
    let m_edges: std::collections::HashSet<_> = with_m.call_graph_edges().collect();
    assert!(
        m_edges.is_superset(&base_edges),
        "every baseline edge survives merging"
    );
}

/// The precision lattice across analyses holds under Mahjong exactly as
/// it does under the allocation-site abstraction: kobj ≤ kcs ≤ ci in
/// may-fail casts on these workloads.
#[test]
fn precision_ordering_is_preserved() {
    let (p, mom) = pipeline("checkstyle");
    let cs = metrics(&p, Sens::Cs(2), mom.clone()).unwrap();
    let obj = metrics(&p, Sens::Obj(2), mom.clone()).unwrap();
    let ty = metrics(&p, Sens::Type(2), mom).unwrap();
    assert!(obj.may_fail_casts <= cs.may_fail_casts);
    assert!(obj.may_fail_casts <= ty.may_fail_casts);
}

/// Object-count reduction: Mahjong shrinks the reachable heap by a
/// large factor on every workload (the paper reports a 62% average —
/// Figure 8).
#[test]
fn object_reduction_is_substantial() {
    for name in workloads::dacapo::PROGRAMS {
        let w = workloads::dacapo::workload(name, 1);
        let pre = pta::pre_analysis(&w.program).unwrap();
        let out = build_heap_abstraction(&w.program, &pre, &MahjongConfig::default());
        let reduction = 1.0 - out.stats.merged_objects as f64 / out.stats.objects as f64;
        assert!(
            reduction > 0.35,
            "{name}: only {:.0}% reduction",
            reduction * 100.0
        );
        assert!(out.stats.merged_objects > 0);
    }
}

/// `MahjongConfig::threads` is a no-op: any thread count computes
/// exactly the same abstraction.
#[test]
fn parallel_merge_matches_sequential() {
    for name in ["pmd", "eclipse"] {
        let w = workloads::dacapo::workload(name, 1);
        let pre = pta::pre_analysis(&w.program).unwrap();
        let seq = build_heap_abstraction(&w.program, &pre, &MahjongConfig::default());
        let par = build_heap_abstraction(
            &w.program,
            &pre,
            &MahjongConfig {
                threads: 8,
                ..MahjongConfig::default()
            },
        );
        assert_eq!(seq.mom, par.mom, "{name}: same merged-object map");
    }
}
