//! End-to-end smoke tests for the run numbers and the `obs` span
//! layer: deterministic stats on the figure-1 corpus program, profile
//! rows on luindex's Table 2, span-nesting invariants, and both export
//! formats written to disk and re-parsed.
//!
//! The `bench::profile` store is process-global, so every test here
//! takes the same lock, which drops what earlier runs left in it.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use bench::profile::ProfileRow;
use bench::{HeapKind, Sensitivity};
use mahjong::{build_heap_abstraction, MahjongConfig};
use obs::json;
use pta::{AnalysisStats, Budget};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    bench::profile::take();
    guard
}

fn load_figure1() -> jir::Program {
    let path = format!("{}/../../corpus/figure1.jir", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    jir::parse(&src).expect("figure1 parses")
}

/// A run's stats with its clocks zeroed: the part two runs of the
/// same configuration must agree on.
fn work(s: &AnalysisStats) -> AnalysisStats {
    AnalysisStats {
        elapsed: Duration::ZERO,
        init_time: Duration::ZERO,
        fixpoint_time: Duration::ZERO,
        finalize_time: Duration::ZERO,
        methods_time: Duration::ZERO,
        order_time: Duration::ZERO,
        intern_probe_ns: 0,
        ..s.clone()
    }
}

/// The full pre-analysis pipeline on the paper's Figure 1 example
/// returns exact, reproducible stats.
#[test]
fn figure1_counters_are_deterministic() {
    let _guard = lock();
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let out = build_heap_abstraction(&p, &pre, &MahjongConfig::default());

    assert_eq!(out.stats.objects, 6);
    assert_eq!(out.stats.merged_objects, 4);
    // The machine: five candidate starts, the {o4} payload and {null}
    // (every f the program never stores), split in one round and
    // confirmed stable in a second.
    assert_eq!(out.stats.machine_states, 7);
    assert_eq!(out.stats.refine_rounds, 2);
    // Sink suppression can drive `worklist_pops` to zero on tiny
    // programs (every delta lands before its consumers register, so
    // the fixpoint resolves entirely through registration replays) —
    // assert on the constraint graph instead.
    assert!(pre.stats().copy_edges > 0);

    // Rerunning the identical pipeline gives equal stats.
    let pre2 = pta::pre_analysis(&p).unwrap();
    let out2 = build_heap_abstraction(&p, &pre2, &MahjongConfig::default());
    assert_eq!(work(pre.stats()), work(pre2.stats()));
    assert_eq!(
        bench::profile::merge_counts(&out.stats),
        bench::profile::merge_counts(&out2.stats)
    );
}

/// Every pipeline stage leaves its named phase in the span log.
#[test]
fn pipeline_phases_are_recorded() {
    let _guard = lock();
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let _ = build_heap_abstraction(&p, &pre, &MahjongConfig::default());

    for phase in [
        "pre_analysis",
        "solver.init",
        "solver.fixpoint",
        "solver.finalize",
        "mahjong.fpg_build",
        "mahjong.automata_build",
        "mahjong.equivalence_check",
    ] {
        let totals = obs::phase_totals();
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
    let spans = obs::spans();
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
/// events and per-track `thread_name` metadata (`"M"`) events.
#[test]
fn chrome_trace_is_valid() {
    let _guard = lock();
    let p = load_figure1();
    let pre = pta::pre_analysis(&p).unwrap();
    let _ = build_heap_abstraction(&p, &pre, &MahjongConfig::default());

    let doc = json::parse(&obs::export_chrome_trace()).expect("trace parses");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(events.len() > 1);
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
            "M" => {
                assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name"));
                metas += 1;
            }
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    assert!(metas >= 1, "at least the main thread is named");
}

/// The Table 2 runs of luindex@1, each rerun on the same program, and
/// the profile rows those runs leave, in run order.
fn luindex_table2_runs() -> (Vec<(String, AnalysisStats)>, Vec<ProfileRow>) {
    let prepared = bench::prepare("luindex", 1, &MahjongConfig::default());
    let mut runs = vec![("luindex.ci".to_owned(), prepared.pre.stats().clone())];
    for s in Sensitivity::TABLE2 {
        for (heap, prefix) in [(HeapKind::AllocSite, ""), (HeapKind::Mahjong, "M-")] {
            let r = bench::run_for_result(&prepared, s, heap, Budget::seconds(120))
                .expect("scale-1 run fits its budget");
            runs.push((format!("luindex.{prefix}{}", s.name()), r.stats().clone()));
        }
    }
    (runs, bench::profile::take().rows)
}

/// Each row's key and stats with the clocks zeroed, the part of a row
/// two runs must agree on (times differ; work does not).
fn row_work(rows: &[ProfileRow]) -> Vec<(String, AnalysisStats)> {
    rows.iter().map(|r| (r.key.clone(), work(&r.stats))).collect()
}

/// Two passes over luindex@1's Table 2 leave one row per solver run,
/// ci plus the ten cells, keyed as `perfbench` keys its cells, with
/// identical stats but for the clocks; the runs move the live wave
/// counter the heartbeat reads.
#[test]
fn profile_rows_are_deterministic_on_luindex_table2() {
    let _guard = lock();
    let waves_before = pta::LIVE_WAVE_ROUNDS.load(Ordering::Relaxed);
    let (_, first) = luindex_table2_runs();
    let keys: Vec<&str> = first.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(keys.len(), 11, "{keys:?}");
    assert_eq!(keys[..3], ["luindex.ci", "luindex.2cs", "luindex.M-2cs"]);
    assert!(first.iter().all(|r| r.finished));
    assert!(pta::LIVE_WAVE_ROUNDS.load(Ordering::Relaxed) > waves_before);

    let (_, second) = luindex_table2_runs();
    assert_eq!(row_work(&first), row_work(&second), "rerun changed a row's stats");
}

/// On every row each measured phase fits inside the run's elapsed
/// time, the phase clocks nest inside the fixpoint, so `propagate` is
/// a true remainder, and the logical footprint is at least the
/// physical one. The rendered JSON says the same.
#[test]
fn profile_row_phases_fit_inside_elapsed() {
    let _guard = lock();
    let (_, rows) = luindex_table2_runs();
    for row in &rows {
        let s = &row.stats;
        assert!(s.methods_time + s.order_time <= s.fixpoint_time, "{}: {s:?}", row.key);
        assert!(s.pts_logical_words >= s.pts_peak_words, "{}: {s:?}", row.key);
        for (phase, d) in row.phases() {
            assert!(d <= s.elapsed, "{}: {phase} {d:?} > elapsed {:?}", row.key, s.elapsed);
        }
    }
    let doc = json::parse(&bench::profile::rows_json(&rows)).expect("rows parse");
    let parsed = doc.as_array().expect("rows are an array");
    assert_eq!(parsed.len(), rows.len());
    for row in parsed {
        let secs = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("{k}"));
        let elapsed = secs("elapsed");
        for phase in ["init", "methods", "order", "propagate", "seal", "finalize"] {
            assert!((0.0..=elapsed).contains(&secs(phase)), "{phase} outside [0, {elapsed}]");
        }
    }
}

/// The rendered rows carry exactly the ledger of the runs' own
/// `AnalysisStats`.
#[test]
fn profile_row_ledgers_equal_run_stats() {
    let _guard = lock();
    let (runs, rows) = luindex_table2_runs();
    let doc = json::parse(&bench::profile::rows_json(&rows)).expect("rows parse");
    let parsed = doc.as_array().expect("rows are an array");
    assert_eq!(parsed.len(), runs.len());
    for ((key, s), row) in runs.iter().zip(parsed) {
        assert_eq!(row.get("key").unwrap().as_str(), Some(key.as_str()));
        let count = |k: &str| row.get(k).and_then(|v| v.as_u64()).unwrap_or_else(|| panic!("{k}"));
        assert_eq!(count("pops"), s.worklist_pops, "{key}");
        assert_eq!(count("propagated_objects"), s.propagated_objects, "{key}");
        assert_eq!(count("waves"), s.wave_rounds, "{key}");
        assert_eq!(count("contexts"), s.context_count as u64, "{key}");
        assert_eq!(count("method_contexts"), s.reachable_method_contexts, "{key}");
        assert_eq!(count("physical_words"), s.pts_peak_words, "{key}");
        assert_eq!(count("logical_words"), s.pts_logical_words, "{key}");
    }
}

/// The full pipeline — pre-analysis, Mahjong, main analysis — on a
/// generated workload writes both export formats to disk; both re-parse
/// and carry per-phase wall-clock for every pipeline stage.
#[test]
fn full_pipeline_exports_roundtrip() {
    let _guard = lock();
    let prepared = bench::prepare("luindex", 1, &MahjongConfig::default());
    let outcome = bench::run_configuration(
        &prepared,
        Sensitivity::Cs(1),
        HeapKind::Mahjong,
        Budget::seconds(120),
    );
    assert!(outcome.seconds.is_some(), "scale-1 run fits its budget");

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let jsonl_path = dir.join(format!("obs_smoke_{pid}.jsonl"));
    let trace_path = dir.join(format!("obs_smoke_{pid}.trace.json"));
    std::fs::write(&jsonl_path, bench::cli::metrics_jsonl(&bench::profile::take())).unwrap();
    std::fs::write(&trace_path, obs::export_chrome_trace()).unwrap();

    // JSON-Lines: every line parses; the pipeline stages all report
    // wall-clock, and the two solver runs and the merge have their
    // rows.
    let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
    let mut phases: Vec<(String, u64)> = Vec::new();
    let mut rows: Vec<(String, String)> = Vec::new();
    for line in jsonl.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e:?}"));
        match v.get("type").unwrap().as_str().unwrap() {
            "phase" => phases.push((
                v.get("name").unwrap().as_str().unwrap().to_owned(),
                v.get("total_us").unwrap().as_u64().unwrap(),
            )),
            "row" | "mahjong" => rows.push((
                v.get("type").unwrap().as_str().unwrap().to_owned(),
                v.get("key").unwrap().as_str().unwrap().to_owned(),
            )),
            _ => {}
        }
    }
    let rows: Vec<(&str, &str)> = rows.iter().map(|(t, k)| (t.as_str(), k.as_str())).collect();
    assert_eq!(
        rows,
        [("row", "luindex.ci"), ("row", "luindex.M-1cs"), ("mahjong", "luindex")]
    );
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
