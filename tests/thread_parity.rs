//! Thread-count parity for the solver.
//!
//! The solver has one sequential wave driver, and
//! `AnalysisConfig::threads` does not reach it — so every thread count
//! must produce not only **bit-identical** analysis results but the
//! same run. This test pins that on luindex@2 for `threads ∈ {1, 2, 8}`:
//! the canonical, interning-order-independent fingerprint used by
//! `crates/pta/tests/set_parity.rs`, plus the work counters
//! `worklist_pops`, `wave_rounds` and `scc_collapsed_ptrs`, must all
//! match the single-thread run.

use pta::{
    AllocSiteAbstraction, AnalysisConfig, AnalysisResult, CallSiteSensitive, ContextInsensitive,
    CtxElem,
};

/// A canonical, interning-order-independent description of one abstract
/// object (identical to the one in `set_parity.rs`).
fn canon_obj(r: &AnalysisResult, o: pta::ObjId) -> Vec<u64> {
    let mut out = vec![r.obj_alloc(o).index() as u64];
    for e in r.contexts().elems(r.obj_heap_context(o)) {
        out.push(match *e {
            CtxElem::CallSite(s) => 1 << 32 | s.index() as u64,
            CtxElem::Alloc(a) => 2 << 32 | a.index() as u64,
            CtxElem::Type(c) => 3 << 32 | c.index() as u64,
        });
    }
    out
}

/// The fingerprint plus the work counters that must not depend on the
/// thread count.
type Run = ((u64, usize, usize, usize, usize), [u64; 3]);

/// Canonical fingerprint: FNV-mixed per-variable collapsed object sets
/// plus sorted call-graph edges, and order-invariant summary counts.
fn fingerprint(p: &jir::Program, r: &AnalysisResult) -> (u64, usize, usize, usize, usize) {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for v in (0..p.var_count()).map(jir::VarId::from_usize) {
        let mut objs: Vec<Vec<u64>> = r
            .points_to_collapsed(v)
            .iter()
            .map(|o| canon_obj(r, o))
            .collect();
        objs.sort_unstable();
        objs.dedup();
        mix(v.index() as u64 ^ 0xdead);
        for desc in objs {
            for w in desc {
                mix(w);
            }
            mix(0xfeed);
        }
    }
    let mut edges: Vec<(usize, usize)> = r
        .call_graph_edges()
        .map(|(s, m)| (s.index(), m.index()))
        .collect();
    edges.sort_unstable();
    for (s, m) in edges {
        mix(((s as u64) << 32) | m as u64);
    }
    (
        h,
        r.total_points_to_size() as usize,
        r.pointer_count(),
        r.object_count(),
        r.call_graph_edge_count(),
    )
}

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

#[test]
fn luindex_fingerprints_identical_across_thread_counts() {
    let w = workloads::dacapo::workload("luindex", 2);
    let p = &w.program;

    for analysis in ["ci", "2cs"] {
        let mut golden: Option<Run> = None;
        for &threads in THREAD_COUNTS {
            let r = match analysis {
                "ci" => AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
                    .threads(threads)
                    .run(p)
                    .expect("fits budget"),
                "2cs" => AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
                    .threads(threads)
                    .run(p)
                    .expect("fits budget"),
                other => panic!("unknown analysis {other}"),
            };
            let s = r.stats();
            let run = (
                fingerprint(p, &r),
                [s.worklist_pops, s.wave_rounds, s.scc_collapsed_ptrs],
            );
            assert!(
                s.worklist_pops > 0,
                "luindex@2/{analysis}: solver did no work"
            );
            match &golden {
                None => golden = Some(run),
                Some(g) => assert_eq!(
                    run, *g,
                    "luindex@2/{analysis}: threads={threads} diverged from threads=1 \
                     (fingerprint, [pops, waves, collapsed])"
                ),
            }
        }
    }
}
