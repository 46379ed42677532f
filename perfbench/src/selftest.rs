//! Self-test of the output check: the canonical fingerprint the
//! benchmark pins (`bench::serve::canonical_fingerprint` over the
//! optimized solver) must equal the same hash computed independently
//! from `pta::naive::solve_naive` on small programs.

use std::collections::BTreeSet;

use bench::serve::canonical_fingerprint;
use jir::Program;
use pta::naive::{solve_naive, NaiveResult};
use pta::{
    AllocSiteAbstraction, AnalysisConfig, CallSiteSensitive, ContextInsensitive, ContextSelector,
    CtxElem, ObjectSensitive, PtrKey,
};

use crate::work::Ops;

/// The canonical fingerprint over a naive result: per variable, the
/// sorted descriptors (allocation site, then heap-context elements) of
/// every object it may point to in any context, then the sorted call
/// graph, FNV-mixed in the same order as `canonical_fingerprint`.
fn naive_fingerprint(p: &Program, r: &NaiveResult) -> u64 {
    let mut per_var: Vec<BTreeSet<Vec<u64>>> = vec![BTreeSet::new(); p.var_count()];
    for (key, set) in &r.pts {
        if let PtrKey::Var(_, v) = *key {
            for &o in set {
                let mut desc = vec![r.objs.alloc(o).index() as u64];
                desc.extend(
                    r.arena
                        .elems(r.objs.heap_context(o))
                        .iter()
                        .map(|e| match *e {
                            CtxElem::CallSite(s) => 1 << 32 | s.index() as u64,
                            CtxElem::Alloc(a) => 2 << 32 | a.index() as u64,
                            CtxElem::Type(c) => 3 << 32 | c.index() as u64,
                        }),
                );
                per_var[v.index()].insert(desc);
            }
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
    for (v, objs) in per_var.iter().enumerate() {
        mix(v as u64 ^ 0xdead);
        for desc in objs {
            desc.iter().for_each(|&w| mix(w));
            mix(0xfeed);
        }
    }
    let mut edges: Vec<(u64, u64)> = r
        .call_edges
        .iter()
        .map(|(s, m)| (s.index() as u64, m.index() as u64))
        .collect();
    edges.sort_unstable();
    edges.into_iter().for_each(|(s, m)| mix(s << 32 | m));
    h
}

fn check<S: ContextSelector + Clone>(ops: &mut Ops, label: &str, p: &Program, sel: S) {
    let fast = AnalysisConfig::new(sel.clone(), AllocSiteAbstraction).run(p);
    let slow = naive_fingerprint(p, &solve_naive(p, &sel, &AllocSiteAbstraction));
    let ok = fast
        .as_ref()
        .is_ok_and(|r| canonical_fingerprint(p, r) == slow);
    ops.check(ok, || {
        format!("self-test {label}: fingerprint differs from the naive solver")
    });
}

/// Cross-checks the fingerprint path on the paper's Figure 1 and the
/// decorator sample under ci, 2cs and 2obj.
pub fn run(ops: &mut Ops) {
    for (name, p) in [
        ("figure1", workloads::figures::figure1()),
        ("decorator", workloads::samples::decorator()),
    ] {
        check(ops, &format!("{name}/ci"), &p, ContextInsensitive);
        check(ops, &format!("{name}/2cs"), &p, CallSiteSensitive::new(2));
        check(ops, &format!("{name}/2obj"), &p, ObjectSensitive::new(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_path_agrees_with_naive_solver() {
        let mut ops = Ops::default();
        run(&mut ops);
        assert_eq!(ops.failed, 0, "{:?}", ops.messages);
        assert_eq!(ops.attempted, 6);
    }

    #[test]
    fn a_wrong_answer_is_detected() {
        let p = workloads::figures::figure1();
        let r = solve_naive(&p, &ContextInsensitive, &AllocSiteAbstraction);
        let mut pruned = NaiveResult {
            call_edges: r.call_edges.clone(),
            ..NaiveResult::default()
        };
        pruned.pts = r.pts.iter().skip(1).map(|(k, v)| (*k, v.clone())).collect();
        pruned.objs = r.objs;
        pruned.arena = r.arena;
        let fast = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
            .run(&p)
            .expect("fits");
        assert_ne!(
            naive_fingerprint(&p, &pruned),
            canonical_fingerprint(&p, &fast)
        );
    }
}
