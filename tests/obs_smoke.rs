//! End-to-end smoke tests for the `obs` telemetry layer: deterministic
//! counters on the figure-1 corpus program, span-nesting invariants,
//! and both export formats written to disk and re-parsed.
//!
//! The `obs` registry is process-global, so every test here takes the
//! same lock and resets the registry before making assertions. The lock
//! also disarms the solver timeline; the tests that inspect it arm it.

use std::sync::Mutex;

use mahjong::{build_heap_abstraction, MahjongConfig};
use obs::json;
use pta::Budget;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::set_enabled(true);
    obs::timeline().arm(false);
    guard
}

fn counter(name: &str) -> u64 {
    obs::counter(name).get()
}

fn load_figure1() -> jir::Program {
    let path = format!("{}/../../corpus/figure1.jir", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    jir::parse(&src).expect("figure1 parses")
}

/// The full pre-analysis pipeline on the paper's Figure 1 example
/// leaves exact, reproducible numbers in the registry.
#[test]
fn figure1_counters_are_deterministic() {
    let _guard = lock();
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let out = build_heap_abstraction(&p, &pre, &MahjongConfig::default());

    assert_eq!(counter("mahjong.objects"), 6);
    assert_eq!(counter("mahjong.merged_objects"), 4);
    assert_eq!(counter("mahjong.dfa_built"), out.stats.dfa_built as u64);
    assert_eq!(counter("mahjong.sig_buckets"), out.stats.sig_buckets as u64);
    // The machine: five candidate starts, the {o4} payload and {null}
    // (every f the program never stores), split in one round and
    // confirmed stable in a second.
    assert_eq!(counter("mahjong.machine_states"), 7);
    assert_eq!(counter("mahjong.refine_rounds"), 2);
    assert_eq!(counter("automata.hk_queries"), 0, "the merge never runs Hopcroft–Karp");
    // Sink suppression can drive `pta.worklist_pops` to zero on tiny
    // programs (every delta lands before its consumers register, so
    // the fixpoint resolves entirely through registration replays) —
    // assert on the constraint graph instead.
    assert!(counter("pta.copy_edges") > 0);

    // Rerunning the identical pipeline doubles the monotonic counters.
    let pre2 = pta::pre_analysis(&p).unwrap();
    let _ = build_heap_abstraction(&p, &pre2, &MahjongConfig::default());
    assert_eq!(counter("mahjong.objects"), 12);
    assert_eq!(counter("mahjong.machine_states"), 14);
    assert_eq!(counter("mahjong.sig_buckets"), 2 * out.stats.sig_buckets as u64);
}

/// Every pipeline stage leaves its named phase in the span log.
#[test]
fn pipeline_phases_are_recorded() {
    let _guard = lock();
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let _ = build_heap_abstraction(&p, &pre, &MahjongConfig::default());

    let r = obs::registry();
    for phase in [
        "pre_analysis",
        "solver.init",
        "solver.fixpoint",
        "solver.finalize",
        "mahjong.fpg_build",
        "mahjong.automata_build",
        "mahjong.equivalence_check",
    ] {
        let totals = r.phase_totals();
        let found = totals.iter().find(|t| t.name == phase);
        assert!(found.is_some(), "phase `{phase}` missing from span log");
        assert!(found.unwrap().count >= 1);
    }
}

/// Nested spans record increasing depths and parent-contained
/// intervals.
#[test]
fn spans_nest() {
    let _guard = lock();
    {
        let _a = obs::span("smoke.outer");
        let _b = obs::span("smoke.inner");
        let _c = obs::span("smoke.innermost");
    }
    let spans = obs::registry().spans();
    let find = |name: &str| spans.iter().find(|s| s.name == name).expect(name).clone();
    let outer = find("smoke.outer");
    let inner = find("smoke.inner");
    let innermost = find("smoke.innermost");
    assert_eq!(inner.depth, outer.depth + 1);
    assert_eq!(innermost.depth, inner.depth + 1);
    // Drop order closes children first, so each child interval sits
    // inside its parent's (1 µs slack for clock granularity).
    assert!(inner.start_us >= outer.start_us);
    assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1);
    assert!(innermost.start_us >= inner.start_us);
    assert!(innermost.start_us + innermost.dur_us <= inner.start_us + inner.dur_us + 1);
}

/// The Chrome trace export is valid JSON made of complete (`"X"`)
/// events, per-track `thread_name` metadata (`"M"`) events, and exactly
/// one instant counters event.
#[test]
fn chrome_trace_is_valid() {
    let _guard = lock();
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let _ = build_heap_abstraction(&p, &pre, &MahjongConfig::default());

    let doc = json::parse(&obs::export_chrome_trace()).expect("trace parses");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(events.len() > 1);
    let mut instants = 0;
    let mut metas = 0;
    for ev in events {
        match ev.get("ph").unwrap().as_str().unwrap() {
            "X" => {
                assert!(ev.get("name").unwrap().as_str().is_some());
                assert!(ev.get("ts").unwrap().as_u64().is_some());
                assert!(ev.get("dur").unwrap().as_u64().is_some());
                let args = ev.get("args").unwrap();
                assert!(args.get("depth").is_some(), "span event lacks a depth");
            }
            "i" => instants += 1,
            "M" => {
                assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name"));
                metas += 1;
            }
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    assert_eq!(instants, 1, "exactly one counters metadata event");
    assert!(metas >= 1, "at least the main thread is named");
}

/// The solver timeline is deterministic: its pop/object/word totals
/// agree with the registry counters, and an identical rerun reproduces
/// them exactly (timings differ; work does not).
#[test]
fn timeline_contents_are_deterministic_on_figure1() {
    let _guard = lock();
    obs::timeline().arm(true);
    let totals = |p: &jir::Program| {
        let pre = pta::pre_analysis(p).unwrap();
        let _ = build_heap_abstraction(p, &pre, &MahjongConfig::default());
        let records = obs::timeline().records();
        assert!(!records.is_empty(), "solver runs leave timeline records");
        let pops: u64 = records.iter().map(|r| u64::from(r.pops)).sum();
        let objects: u64 = records.iter().map(|r| r.objects).sum();
        let words: u64 = records.iter().map(|r| r.words).sum();
        assert_eq!(pops, counter("pta.worklist_pops"), "timeline pops match the counter");
        (pops, objects, words)
    };
    let p = load_figure1();
    let first = totals(&p);
    obs::reset();
    obs::set_enabled(true);
    let second = totals(&p);
    assert_eq!(first, second, "rerun reproduces the timeline totals");
}

/// Until the timeline is armed it costs nothing and records nothing:
/// an unarmed figure-1 pipeline leaves no timeline record, memory
/// sample or hottest-pointer table, and no timeline-only instrument
/// (`pta.live_*`, `pta.mem_*`, `pta.points_to_set_size`), while every
/// `pta.*` counter matches an armed run of the same pipeline.
#[test]
fn timeline_costs_nothing_until_armed() {
    let _guard = lock();
    let pta_counters = || -> Vec<(String, u64)> {
        obs::registry()
            .counters()
            .into_iter()
            .filter(|(name, _)| name.starts_with("pta.") && name != "pta.intern_probe_ns")
            .filter(|(name, _)| !name.starts_with("pta.live_"))
            .collect()
    };
    let p = load_figure1();
    let pipeline = |p: &jir::Program| {
        let pre = pta::pre_analysis(p).unwrap();
        let _ = build_heap_abstraction(p, &pre, &MahjongConfig::default());
    };

    pipeline(&p);
    let tl = obs::timeline();
    assert!(tl.records().is_empty(), "an unarmed run left timeline records");
    assert!(tl.memory().is_none(), "an unarmed run offered a memory sample");
    assert!(tl.top_pointers().is_empty(), "an unarmed run offered a top-pointer table");
    // Instruments outlive `obs::reset` (it zeroes them in place), so
    // "not recorded" means zero, not absent.
    let timeline_only = |name: &str| {
        ["pta.live_", "pta.mem_", "pta.points_to_set_size", "pta.pending_peak_words"]
            .iter()
            .any(|prefix| name.starts_with(prefix))
    };
    let r = obs::registry();
    for (name, v) in r.counters() {
        assert!(!timeline_only(&name) || v == 0, "unarmed run counted `{name}` = {v}");
    }
    for (name, v) in r.gauges() {
        assert!(!timeline_only(&name) || v == 0, "unarmed run set `{name}` = {v}");
    }
    for (name, h) in r.histograms() {
        assert!(!timeline_only(&name) || h.count == 0, "unarmed run recorded `{name}`");
    }
    let unarmed = pta_counters();
    assert!(
        unarmed.iter().any(|(n, v)| n == "pta.pts_interned" && *v > 0),
        "counters still record while the timeline is unarmed"
    );

    obs::reset();
    obs::timeline().arm(true);
    pipeline(&p);
    assert!(!tl.records().is_empty(), "an armed run records");
    assert_eq!(unarmed, pta_counters(), "arming the timeline changed a pta counter");
    tl.arm(false);
}

/// The timeline ring keeps the newest records once capacity is
/// exceeded and counts what it dropped.
#[test]
fn timeline_ring_wraps_at_capacity() {
    use obs::timeline::{Timeline, WaveRecord};
    let _guard = lock();
    let tl = Timeline::new(4);
    for wave in 0..10u32 {
        tl.record_wave(WaveRecord { wave, pops: wave, ..WaveRecord::default() });
    }
    let records = tl.records();
    assert_eq!(records.len(), 4);
    assert_eq!(tl.records_dropped(), 6);
    // Oldest-first order over the surviving (newest) records.
    assert_eq!(records.iter().map(|r| r.wave).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
}

/// `export_json` round-trips through the parser and mirrors the
/// in-memory ring.
#[test]
fn timeline_export_roundtrips() {
    let _guard = lock();
    obs::timeline().arm(true);
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let _ = build_heap_abstraction(&p, &pre, &MahjongConfig::default());

    let tl = obs::timeline();
    let doc = json::parse(&tl.export_json()).expect("timeline export parses");
    let records = doc.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), tl.records().len());
    for rec in records {
        // Sentinel levels export as small negatives, real levels as >= 0.
        let level = rec.get("level").unwrap().as_f64().unwrap();
        assert!(level >= -4.0, "level {level} in range");
        for key in ["pops", "resolve_ns", "propagate_ns", "merge_ns"] {
            assert!(rec.get(key).is_some(), "record lacks `{key}`");
        }
    }
    assert!(doc.get("records_dropped").unwrap().as_u64().is_some());
    assert!(doc.get("top_pointers").unwrap().as_array().is_some());
}

/// Quantile estimation handles the degenerate inputs: an empty
/// snapshot reports zero everywhere, and the extreme quantiles pin to
/// the observed min/max buckets.
#[test]
fn histogram_quantile_edge_cases() {
    let _guard = lock();
    let r = obs::registry();
    let empty = r.histogram("smoke.empty").snapshot();
    assert_eq!(empty.count, 0);
    assert_eq!(empty.quantile(0.0), 0);
    assert_eq!(empty.quantile(0.5), 0);
    assert_eq!(empty.quantile(1.0), 0);
    assert_eq!(empty.mean(), 0.0);

    let h = r.histogram("smoke.quantiles");
    for v in [3u64, 100, 9000] {
        h.record(v);
    }
    let s = h.snapshot();
    // q=0.0 clamps to the first observation's bucket; q=1.0 is exact.
    assert_eq!(s.quantile(0.0), 3, "inclusive upper bound of 3's bucket [2,4)");
    assert_eq!(s.quantile(1.0), s.max);
    assert_eq!(s.max, 9000);
    assert!(s.quantile(0.5) >= s.quantile(0.0));
    assert!(s.quantile(1.0) >= s.quantile(0.5));
}

/// The full pipeline — pre-analysis, Mahjong, main analysis — on a
/// generated workload writes both export formats to disk; both re-parse
/// and carry per-phase wall-clock for every pipeline stage.
#[test]
fn full_pipeline_exports_roundtrip() {
    let _guard = lock();
    let prepared = bench::prepare("luindex", 1, &MahjongConfig::default());
    let outcome = bench::run_configuration(
        &prepared.program,
        bench::Sensitivity::Cs(1),
        bench::HeapKind::Mahjong,
        &prepared.mahjong.mom,
        Budget::seconds(120),
    );
    assert!(outcome.seconds.is_some(), "scale-1 run fits its budget");

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let jsonl_path = dir.join(format!("obs_smoke_{pid}.jsonl"));
    let trace_path = dir.join(format!("obs_smoke_{pid}.trace.json"));
    std::fs::write(&jsonl_path, obs::export_jsonl()).unwrap();
    std::fs::write(&trace_path, obs::export_chrome_trace()).unwrap();

    // JSON-Lines: every line parses; the pipeline stages all report
    // wall-clock.
    let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
    let mut phases: Vec<(String, u64)> = Vec::new();
    for line in jsonl.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e:?}"));
        if v.get("type").unwrap().as_str() == Some("phase") {
            phases.push((
                v.get("name").unwrap().as_str().unwrap().to_owned(),
                v.get("total_us").unwrap().as_u64().unwrap(),
            ));
        }
    }
    for phase in [
        "pre_analysis",
        "mahjong.automata_build",
        "mahjong.equivalence_check",
        "solver.fixpoint",
        "main_analysis",
    ] {
        assert!(
            phases.iter().any(|(name, _)| name == phase),
            "JSONL lacks phase `{phase}`"
        );
    }

    // Chrome trace: parses, and the same stages appear as X events.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let doc = json::parse(&trace).expect("trace parses");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    for phase in ["pre_analysis", "mahjong.equivalence_check", "main_analysis"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").unwrap().as_str() == Some(phase)),
            "trace lacks span `{phase}`"
        );
    }

    std::fs::remove_file(&jsonl_path).ok();
    std::fs::remove_file(&trace_path).ok();
}

/// `OBS_DISABLE`-style runtime disabling turns recording into no-ops
/// end to end.
#[test]
fn disabled_pipeline_records_nothing() {
    let _guard = lock();
    obs::set_enabled(false);
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let _ = build_heap_abstraction(&p, &pre, &MahjongConfig::default());
    assert_eq!(counter("mahjong.objects"), 0);
    assert_eq!(counter("pta.worklist_pops"), 0);
    assert!(obs::registry().spans().is_empty());
    obs::set_enabled(true);
}
