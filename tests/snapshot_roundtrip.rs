//! Snapshot round-trip parity, pinned to the golden fingerprints.
//!
//! The serving story only works if a snapshot is a *perfect* stand-in
//! for the analysis that produced it. This suite proves it three ways:
//!
//! 1. **Goldens survive the wire.** Every corpus program ×
//!    {ci, 2cs, 2obj} is analyzed fresh, its canonical fingerprint
//!    checked against the committed goldens (the same table
//!    `crates/pta/tests/set_parity.rs` pins), then pushed through the
//!    full `extract → encode → decode → restore` pipeline — and the
//!    restored result must reproduce the same golden hash bit for bit.
//! 2. **Serving parity.** The query benchmark's order-independent
//!    checksum over a restored result equals the checksum over the
//!    fresh result, for the same seed — warm-started serving answers
//!    exactly like fresh-analysis serving, query by query.
//! 3. **Cross-thread determinism.** The serve checksum over a restored
//!    result is identical at 1 and 4 worker threads.

use bench::serve::{self, ServeOpts};
use pta::{
    AllocSiteAbstraction, AnalysisConfig, AnalysisResult, CallSiteSensitive, ContextInsensitive,
    HeapAbstraction, ObjectSensitive,
};

/// `(program, analysis, golden fingerprint)` — the hash column of the
/// `set_parity.rs` goldens for the programs this suite runs (pmd is
/// left to `set_parity.rs` itself: its 2cs row alone is ~3M points-to
/// entries and adds nothing format-wise).
const GOLDENS: &[(&str, &str, u64)] = &[
    ("figure1", "ci", 0x945cefd21f771be2),
    ("figure1", "2cs", 0x945cefd21f771be2),
    ("figure1", "2obj", 0x945cefd21f771be2),
    ("containers", "ci", 0x4d6a63b8ecd39b17),
    ("containers", "2cs", 0x4d6a63b8ecd39b17),
    ("containers", "2obj", 0x4d6a63b8ecd39b17),
    ("decorator", "ci", 0x3e701153555b28b8),
    ("decorator", "2cs", 0xdb8d32730bb82782),
    ("decorator", "2obj", 0x79afa4e9c9c545b9),
    ("luindex", "ci", 0x59d33beb08e25e4e),
    ("luindex", "2cs", 0xdc155404ef4883a9),
    ("luindex", "2obj", 0x74a049d18e3237ad),
];

fn load(name: &str) -> jir::Program {
    match name {
        "figure1" | "containers" | "decorator" => {
            let path = format!("{}/../../corpus/{name}.jir", env!("CARGO_MANIFEST_DIR"));
            jir::parse(&std::fs::read_to_string(&path).expect("corpus file")).expect("parses")
        }
        other => workloads::dacapo::workload(other, 1).program,
    }
}

fn run(p: &jir::Program, analysis: &str) -> AnalysisResult {
    match analysis {
        "ci" => AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
            .run(p)
            .expect("fits budget"),
        "2cs" => AnalysisConfig::new(CallSiteSensitive::new(2), AllocSiteAbstraction)
            .run(p)
            .expect("fits budget"),
        "2obj" => AnalysisConfig::new(ObjectSensitive::new(2), AllocSiteAbstraction)
            .run(p)
            .expect("fits budget"),
        other => panic!("unknown analysis {other}"),
    }
}

fn snapshot_of(program: &str, analysis: &str, result: &AnalysisResult) -> snapshot::Snapshot {
    snapshot::Snapshot {
        meta: snapshot::Meta {
            program: program.to_owned(),
            scale: 1,
            analysis: analysis.to_owned(),
            heap: "alloc-site".to_owned(),
            threads: 1,
        },
        raw: pta::snapshot::extract(result),
        mom: None,
    }
}

/// Fresh analysis → bytes → restored result, with the golden
/// fingerprint checked on *both* sides of the wire.
#[test]
fn golden_fingerprints_survive_the_byte_roundtrip() {
    for &(name, analysis, golden) in GOLDENS {
        let program = load(name);
        let fresh = run(&program, analysis);
        assert_eq!(
            serve::canonical_fingerprint(&program, &fresh),
            golden,
            "{name}/{analysis}: fresh result drifted from the golden"
        );

        let bytes = snapshot::encode(&snapshot_of(name, analysis, &fresh));
        let decoded = snapshot::decode(&bytes).expect("own bytes decode");
        let restored = pta::snapshot::restore(decoded.raw).expect("own tables restore");
        assert_eq!(
            serve::canonical_fingerprint(&program, &restored),
            golden,
            "{name}/{analysis}: restored result drifted from the golden"
        );
        assert_eq!(
            fresh.total_points_to_size(),
            restored.total_points_to_size(),
            "{name}/{analysis}: total points-to size changed"
        );
        assert_eq!(
            fresh.call_graph_edge_count(),
            restored.call_graph_edge_count(),
            "{name}/{analysis}: call-graph edge count changed"
        );
    }
}

/// The serve benchmark cannot tell a restored result from the fresh
/// one: same seed, same order-independent answer checksum.
#[test]
fn serving_from_a_restored_result_answers_identically() {
    for (name, analysis) in [("decorator", "2obj"), ("luindex", "ci")] {
        let program = load(name);
        let fresh = run(&program, analysis);
        let bytes = snapshot::encode(&snapshot_of(name, analysis, &fresh));
        let restored =
            pta::snapshot::restore(snapshot::decode(&bytes).expect("decodes").raw).expect("restores");

        let opts = ServeOpts { threads: 2, queries: 10_000, batch: 64, seed: 41 };
        let from_fresh = serve::run_bench(&program, &fresh, opts);
        let from_restored = serve::run_bench(&program, &restored, opts);
        assert_eq!(
            from_fresh.checksum, from_restored.checksum,
            "{name}/{analysis}: warm-start serving diverged from fresh serving"
        );
    }
}

/// Thread count is a throughput knob, never a correctness knob: the
/// serve checksum over a restored result is identical at 1 and 4
/// workers.
#[test]
fn restored_serving_is_thread_count_deterministic() {
    let program = load("luindex");
    let fresh = run(&program, "2obj");
    let bytes = snapshot::encode(&snapshot_of("luindex", "2obj", &fresh));
    let restored =
        pta::snapshot::restore(snapshot::decode(&bytes).expect("decodes").raw).expect("restores");

    let base = ServeOpts { threads: 1, queries: 20_000, batch: 128, seed: 99 };
    let one = serve::run_bench(&program, &restored, base);
    let four = serve::run_bench(&program, &restored, ServeOpts { threads: 4, ..base });
    assert_eq!(one.checksum, four.checksum);
    assert_eq!(one.classes, four.classes, "class counts differ across thread counts");
}

/// FNV-1a, 64-bit: the digest the pinned-bytes test compares.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(heap, encoded length, FNV-1a-64 of the bytes)` of luindex@2 under
/// 2obj, with its run-dependent counters zeroed: the canonical version-2
/// bytes, first measured with a field-by-field encoder. Any encoder must
/// reproduce them exactly. The alloc-site digest was re-pinned when the
/// points-to sets became sparse chunk lists: the decoded snapshots
/// differ only in the STATS section's `pts_peak_words` (2,427 → 1,982;
/// the bitmap's digest was 0x96a9_9766_9a24_e860).
const PINNED_BYTES: &[(&str, usize, u64)] = &[
    ("alloc-site", 179_750, 0x07ba_399f_3d75_7c77),
    ("mahjong", 55_997, 0x0a2e_07f5_372c_89b5),
];

/// The encoder emits exactly the canonical version-2 bytes: a fixed
/// result encodes to a pinned length and digest. The wall-clock
/// counters and `dsu_ops` differ between runs or build profiles, so
/// they are zeroed first.
#[test]
fn encoded_bytes_are_pinned() {
    let program = workloads::dacapo::workload("luindex", 2).program;
    let pre = run(&program, "ci");
    let (_, merged) = mahjong::build_with_fpg(&program, &pre, &mahjong::MahjongConfig::default());
    for &(heap, len, digest) in PINNED_BYTES {
        let (result, mom) = match heap {
            "alloc-site" => (run(&program, "2obj"), None),
            _ => {
                let result = AnalysisConfig::new(ObjectSensitive::new(2), merged.mom.clone())
                    .run(&program)
                    .expect("fits budget");
                let table = (0..merged.mom.len())
                    .map(|i| merged.mom.repr(jir::AllocId::from_usize(i)).as_u32())
                    .collect();
                (result, Some(table))
            }
        };
        let mut snap = snapshot_of("luindex", "2obj", &result);
        snap.meta.scale = 2;
        snap.meta.heap = heap.to_owned();
        snap.mom = mom;
        let stats = &mut snap.raw.stats;
        stats.elapsed = Default::default();
        stats.init_time = Default::default();
        stats.fixpoint_time = Default::default();
        stats.finalize_time = Default::default();
        stats.methods_time = Default::default();
        stats.order_time = Default::default();
        stats.intern_probe_ns = 0;
        stats.dsu_ops = 0; // debug builds' assertions count their finds too
        let bytes = snapshot::encode(&snap);
        assert_eq!((bytes.len(), fnv1a64(&bytes)), (len, digest), "{heap}: encoded bytes moved");
        assert_eq!(snapshot::decode(&bytes).expect("decodes"), snap, "{heap}: decode");
    }
}
