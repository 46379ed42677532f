//! # bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section 6) over the synthetic workloads:
//!
//! - [`table2_program`] — the main results (Table 2): all 12 programs × five
//!   context-sensitive analyses × {allocation-site, Mahjong}, reporting
//!   analysis time, speedup, and the three client metrics;
//! - [`figure8_row`] — abstract-object counts (Figure 8) under the allocation-site
//!   abstraction vs Mahjong;
//! - [`figure9`] — the equivalence-class size distribution (checkstyle);
//! - [`table1`] — example equivalence classes (checkstyle);
//! - [`motivation`] — the Section 2.1 pmd comparison (3obj / T-3obj /
//!   M-3obj);
//! - [`pre_analysis_stats`] — Section 6.1.1's pre-analysis cost
//!   breakdown and NFA statistics;
//! - [`ablations`] — design-choice ablations (Condition 2, null
//!   modeling, parallelism, representative choice).
//!
//! The `repro` binary drives these from the command line.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::time::{Duration, Instant};

use clients::ClientMetrics;
use jir::Program;
use mahjong::{FieldPointsToGraph, MahjongConfig, MahjongOutput, Representative};
use pta::{
    AllocSiteAbstraction, AllocTypeAbstraction, AnalysisConfig, AnalysisResult, Budget,
    CallSiteSensitive, ContextInsensitive, HeapAbstraction, ObjectSensitive, TypeSensitive,
};

/// Which context-sensitivity to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sensitivity {
    /// Context-insensitive.
    Ci,
    /// k-call-site-sensitive.
    Cs(usize),
    /// k-object-sensitive.
    Obj(usize),
    /// k-type-sensitive.
    Type(usize),
}

impl Sensitivity {
    /// The five analyses of the paper's Table 2.
    pub const TABLE2: [Sensitivity; 5] = [
        Sensitivity::Cs(2),
        Sensitivity::Obj(2),
        Sensitivity::Obj(3),
        Sensitivity::Type(2),
        Sensitivity::Type(3),
    ];

    /// Short name, e.g. `"3obj"`.
    pub fn name(&self) -> String {
        match self {
            Sensitivity::Ci => "ci".to_owned(),
            Sensitivity::Cs(k) => format!("{k}cs"),
            Sensitivity::Obj(k) => format!("{k}obj"),
            Sensitivity::Type(k) => format!("{k}type"),
        }
    }
}

/// Which heap abstraction to pair with an analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapKind {
    /// One object per allocation site (the paper's baselines).
    AllocSite,
    /// One object per type (the `T-` baselines of Section 2.1).
    AllocType,
    /// The Mahjong merged-object map (the `M-` configurations).
    Mahjong,
}

/// One analysis run's outcome.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Analysis wall-clock seconds; `None` when the budget was exceeded
    /// (the paper's "unscalable" entries).
    pub seconds: Option<f64>,
    /// Client metrics (absent when unscalable).
    pub call_graph_edges: Option<usize>,
    /// `#poly call sites` (absent when unscalable).
    pub poly_call_sites: Option<usize>,
    /// `#may-fail casts` (absent when unscalable).
    pub may_fail_casts: Option<usize>,
    /// Abstract objects materialized.
    pub objects: Option<usize>,
    /// Reachable `(context, method)` pairs.
    pub method_contexts: Option<usize>,
}

impl RunOutcome {
    fn unscalable() -> Self {
        RunOutcome {
            seconds: None,
            call_graph_edges: None,
            poly_call_sites: None,
            may_fail_casts: None,
            objects: None,
            method_contexts: None,
        }
    }

    fn from_result(program: &Program, result: &AnalysisResult, elapsed: Duration) -> Self {
        let metrics = ClientMetrics::compute(program, result);
        RunOutcome {
            seconds: Some(elapsed.as_secs_f64()),
            call_graph_edges: Some(metrics.call_graph_edges),
            poly_call_sites: Some(metrics.poly_call_sites),
            may_fail_casts: Some(metrics.may_fail_casts),
            objects: Some(result.object_count()),
            method_contexts: Some(result.reachable_context_count()),
        }
    }
}

/// Runs one `(sensitivity, heap)` configuration of a prepared program
/// under a budget.
pub fn run_configuration(
    prepared: &Prepared,
    sensitivity: Sensitivity,
    heap: HeapKind,
    budget: Budget,
) -> RunOutcome {
    // The elapsed time (like the `main_analysis` span) covers only the
    // solver run: client metrics computed by `RunOutcome::from_result`
    // are reporting cost, not analysis cost.
    let start = Instant::now();
    let result = run_for_result(prepared, sensitivity, heap, budget);
    let elapsed = start.elapsed();
    match result {
        Ok(r) => RunOutcome::from_result(&prepared.program, &r, elapsed),
        Err(_) => RunOutcome::unscalable(),
    }
}

/// Like [`run_configuration`], but hands back the [`AnalysisResult`]
/// itself instead of summarized metrics — the entry point for callers
/// that keep the result alive (snapshot save, query serving). Either
/// way the run leaves its [`profile`] row.
pub fn run_for_result(
    prepared: &Prepared,
    sensitivity: Sensitivity,
    heap: HeapKind,
    budget: Budget,
) -> Result<AnalysisResult, pta::Unscalable> {
    let program = &prepared.program;
    let (result, prefix) = match heap {
        HeapKind::AllocSite => {
            (result_with_heap(program, sensitivity, AllocSiteAbstraction, budget), "")
        }
        HeapKind::AllocType => {
            let heap = AllocTypeAbstraction::new(program);
            (result_with_heap(program, sensitivity, heap, budget), "T-")
        }
        HeapKind::Mahjong => {
            let heap = prepared.mahjong.mom.clone();
            (result_with_heap(program, sensitivity, heap, budget), "M-")
        }
    };
    profile::record(format!("{}.{prefix}{}", prepared.name, sensitivity.name()), result.as_ref());
    result
}

fn result_with_heap<H: HeapAbstraction>(
    program: &Program,
    sensitivity: Sensitivity,
    heap: H,
    budget: Budget,
) -> Result<AnalysisResult, pta::Unscalable> {
    let _phase = obs::span("main_analysis");
    match sensitivity {
        Sensitivity::Ci => AnalysisConfig::new(ContextInsensitive, heap).budget(budget).run(program),
        Sensitivity::Cs(k) => {
            AnalysisConfig::new(CallSiteSensitive::new(k), heap).budget(budget).run(program)
        }
        Sensitivity::Obj(k) => {
            AnalysisConfig::new(ObjectSensitive::new(k), heap).budget(budget).run(program)
        }
        Sensitivity::Type(k) => {
            AnalysisConfig::new(TypeSensitive::new(k), heap).budget(budget).run(program)
        }
    }
}

/// The pre-analysis products every experiment starts from.
#[derive(Debug)]
pub struct Prepared {
    /// Program name, the first part of every [`profile`] row key.
    pub name: String,
    /// The generated program.
    pub program: Program,
    /// The context-insensitive pre-analysis result.
    pub pre: AnalysisResult,
    /// Pre-analysis (`ci`) seconds.
    pub ci_seconds: f64,
    /// The field points-to graph.
    pub fpg: FieldPointsToGraph,
    /// FPG construction seconds.
    pub fpg_seconds: f64,
    /// The Mahjong output (merged-object map + stats).
    pub mahjong: MahjongOutput,
    /// Mahjong (merge) seconds.
    pub mahjong_seconds: f64,
}

/// Generates a program and runs the full Mahjong pre-analysis pipeline.
///
/// # Panics
///
/// Panics if the pre-analysis itself exceeds a 10-minute budget (it
/// never does at supported scales).
pub fn prepare(name: &str, scale: usize, config: &MahjongConfig) -> Prepared {
    let workload = workloads::dacapo::workload(name, scale);
    let program = workload.program;

    let t = Instant::now();
    let pre = {
        let _phase = obs::span("pre_analysis");
        AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
            .budget(Budget::seconds(600))
            .run(&program)
            .expect("pre-analysis fits its budget")
    };
    profile::record(format!("{name}.ci"), Ok(&pre));
    let ci_seconds = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let fpg = FieldPointsToGraph::from_analysis(&program, &pre, config.model_null);
    let fpg_seconds = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mahjong = mahjong::merge_equivalent_objects(&fpg, config);
    let mahjong_seconds = t.elapsed().as_secs_f64();
    profile::record_merge(name.to_owned(), &mahjong.stats);

    Prepared {
        name: name.to_owned(),
        program,
        pre,
        ci_seconds,
        fpg,
        fpg_seconds,
        mahjong,
        mahjong_seconds,
    }
}

// --- Table 2 -----------------------------------------------------------------

/// One `(program, analysis)` row pair of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Program name.
    pub program: String,
    /// Analysis name (e.g. `"3obj"`).
    pub analysis: String,
    /// The allocation-site baseline run.
    pub baseline: RunOutcome,
    /// The Mahjong run.
    pub mahjong: RunOutcome,
    /// `baseline.seconds / mahjong.seconds` when both finished.
    pub speedup: Option<f64>,
}

/// Runs the Table 2 matrix for one program.
pub fn table2_program(name: &str, scale: usize, budget: Budget) -> (Prepared, Vec<Table2Row>) {
    let prepared = prepare(name, scale, &MahjongConfig::default());
    let rows = Sensitivity::TABLE2
        .iter()
        .map(|&s| {
            let baseline = run_configuration(&prepared, s, HeapKind::AllocSite, budget);
            let mahjong = run_configuration(&prepared, s, HeapKind::Mahjong, budget);
            let speedup = match (baseline.seconds, mahjong.seconds) {
                (Some(b), Some(m)) if m > 0.0 => Some(b / m),
                _ => None,
            };
            Table2Row {
                program: name.to_owned(),
                analysis: s.name(),
                baseline,
                mahjong,
                speedup,
            }
        })
        .collect();
    (prepared, rows)
}

// --- Figure 8 ----------------------------------------------------------------

/// One bar pair of Figure 8.
#[derive(Clone, Debug)]
pub struct Figure8Row {
    /// Program name.
    pub program: String,
    /// Objects under the allocation-site abstraction (reachable sites).
    pub alloc_site_objects: usize,
    /// Objects under Mahjong (equivalence classes over reachable sites).
    pub mahjong_objects: usize,
}

impl Figure8Row {
    /// The reduction percentage Mahjong achieves.
    pub fn reduction_percent(&self) -> f64 {
        100.0 * (1.0 - self.mahjong_objects as f64 / self.alloc_site_objects as f64)
    }
}

/// Computes the Figure 8 pair for one prepared program.
pub fn figure8_row(name: &str, prepared: &Prepared) -> Figure8Row {
    Figure8Row {
        program: name.to_owned(),
        alloc_site_objects: prepared.mahjong.stats.objects,
        mahjong_objects: prepared.mahjong.stats.merged_objects,
    }
}

// --- Figure 9 / Table 1 ----------------------------------------------------------

/// A point of Figure 9: `count` equivalence classes have exactly `size`
/// members.
pub type Figure9Point = mahjong::partition::SizeDistributionPoint;

/// Computes the equivalence-class size distribution over reachable
/// objects (Figure 9).
pub fn figure9(prepared: &Prepared) -> Vec<Figure9Point> {
    mahjong::HeapPartition::new(&prepared.program, &prepared.fpg, &prepared.mahjong.mom)
        .size_distribution()
}

/// A row of Table 1: one equivalence class with its type and contents.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Rank by decreasing class size (1 = largest).
    pub rank: usize,
    /// The class's object type.
    pub type_name: String,
    /// Members in this equivalence class.
    pub class_size: usize,
    /// Total reachable objects of this type.
    pub total_of_type: usize,
    /// What the members' fields point to (a content summary).
    pub remark: String,
}

/// Computes Table 1: the largest equivalence classes with content
/// summaries.
pub fn table1(prepared: &Prepared, top: usize) -> Vec<Table1Row> {
    let program = &prepared.program;
    let partition =
        mahjong::HeapPartition::new(program, &prepared.fpg, &prepared.mahjong.mom);
    partition
        .summaries(program, &prepared.fpg, top)
        .into_iter()
        .map(|s| {
            let mut content: Vec<String> = s
                .contents
                .iter()
                .map(|c| match c {
                    Some(t) => program.type_name(*t),
                    None => "null".to_owned(),
                })
                .collect();
            content.sort();
            Table1Row {
                rank: s.rank,
                type_name: program.type_name(s.ty),
                class_size: s.members.len(),
                total_of_type: s.total_of_type,
                remark: if content.is_empty() {
                    "(no fields)".to_owned()
                } else {
                    content.join(", ")
                },
            }
        })
        .collect()
}

// --- Motivation (Section 2.1) ---------------------------------------------------

/// The Section 2.1 motivating comparison on pmd: `3obj` vs `T-3obj` vs
/// `M-3obj`.
#[derive(Clone, Debug)]
pub struct MotivationResult {
    /// The `3obj` baseline.
    pub obj3: RunOutcome,
    /// `3obj` with the allocation-type abstraction.
    pub t_obj3: RunOutcome,
    /// `3obj` with Mahjong.
    pub m_obj3: RunOutcome,
}

/// Runs the motivation experiment.
pub fn motivation(scale: usize, budget: Budget) -> (Prepared, MotivationResult) {
    let prepared = prepare("pmd", scale, &MahjongConfig::default());
    let s = Sensitivity::Obj(3);
    let result = MotivationResult {
        obj3: run_configuration(&prepared, s, HeapKind::AllocSite, budget),
        t_obj3: run_configuration(&prepared, s, HeapKind::AllocType, budget),
        m_obj3: run_configuration(&prepared, s, HeapKind::Mahjong, budget),
    };
    (prepared, result)
}

// --- Pre-analysis statistics (Section 6.1.1) ------------------------------------------

/// Section 6.1.1's per-program pre-analysis statistics.
#[derive(Clone, Debug)]
pub struct PreAnalysisStats {
    /// Program name.
    pub program: String,
    /// `ci` seconds.
    pub ci_seconds: f64,
    /// FPG construction seconds.
    pub fpg_seconds: f64,
    /// Mahjong merge seconds.
    pub mahjong_seconds: f64,
    /// Reachable objects in the FPG.
    pub fpg_objects: usize,
    /// FPG edges.
    pub fpg_edges: usize,
    /// Average NFA size over merge candidates.
    pub avg_nfa_states: f64,
    /// Largest NFA.
    pub max_nfa_states: usize,
    /// Objects failing SINGLETYPE-CHECK.
    pub not_single_type: usize,
    /// States of Mahjong's shared subset machine.
    pub machine_states: usize,
}

/// Collects the Section 6.1.1 statistics for one prepared program.
pub fn pre_analysis_stats(name: &str, prepared: &Prepared) -> PreAnalysisStats {
    let stats = &prepared.mahjong.stats;
    PreAnalysisStats {
        program: name.to_owned(),
        ci_seconds: prepared.ci_seconds,
        fpg_seconds: prepared.fpg_seconds,
        mahjong_seconds: prepared.mahjong_seconds,
        fpg_objects: stats.objects,
        fpg_edges: prepared.fpg.edge_count(),
        avg_nfa_states: stats.avg_nfa_states,
        max_nfa_states: stats.max_nfa_states,
        not_single_type: stats.not_single_type,
        machine_states: stats.machine_states,
    }
}

// --- Ablations ------------------------------------------------------------------

/// One ablation configuration's outcome.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Ablation name.
    pub name: String,
    /// Abstract objects after merging.
    pub merged_objects: usize,
    /// Merge-phase seconds (DFA + merging).
    pub merge_seconds: f64,
    /// `#may-fail casts` under M-2cs with this abstraction.
    pub may_fail_casts_m2cs: Option<usize>,
}

/// Runs the design-choice ablations on one program: Condition 2 off,
/// null modeling off, and representative choice.
pub fn ablations(name: &str, scale: usize, budget: Budget) -> Vec<AblationRow> {
    let configs: Vec<(&str, MahjongConfig)> = vec![
        ("default", MahjongConfig::default()),
        (
            "no-condition2",
            MahjongConfig {
                enforce_condition2: false,
                ..MahjongConfig::default()
            },
        ),
        (
            "no-null-model",
            MahjongConfig {
                model_null: false,
                ..MahjongConfig::default()
            },
        ),
        (
            "repr-largest",
            MahjongConfig {
                representative: Representative::Largest,
                ..MahjongConfig::default()
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, config)| {
            let prepared = prepare(name, scale, &config);
            let outcome = run_configuration(&prepared, Sensitivity::Cs(2), HeapKind::Mahjong, budget);
            AblationRow {
                name: label.to_owned(),
                merged_objects: prepared.mahjong.stats.merged_objects,
                merge_seconds: prepared.mahjong_seconds,
                may_fail_casts_m2cs: outcome.may_fail_casts,
            }
        })
        .collect()
}

// --- Alias tradeoff (extension experiment) ----------------------------------------

/// The alias-tradeoff experiment: Mahjong keeps type-client metrics
/// while giving up may-alias precision (the scoping claim of the
/// paper's introduction).
#[derive(Clone, Debug)]
pub struct AliasTradeoffRow {
    /// Program name.
    pub program: String,
    /// May-alias pairs under 2obj with the allocation-site abstraction.
    pub baseline_alias_pairs: usize,
    /// May-alias pairs under M-2obj.
    pub mahjong_alias_pairs: usize,
    /// `#may-fail casts` under both (they match).
    pub may_fail_casts: usize,
    /// `#poly call sites` under both (they match).
    pub poly_call_sites: usize,
}

/// Measures the alias tradeoff on one program.
///
/// # Panics
///
/// Panics if either analysis exceeds the budget (use small scales).
pub fn alias_tradeoff(name: &str, scale: usize, budget: Budget) -> AliasTradeoffRow {
    let prepared = prepare(name, scale, &MahjongConfig::default());
    let p = &prepared.program;
    let obj2 = Sensitivity::Obj(2);
    let base =
        run_for_result(&prepared, obj2, HeapKind::AllocSite, budget).expect("baseline fits budget");
    let merged =
        run_for_result(&prepared, obj2, HeapKind::Mahjong, budget).expect("merged run fits budget");
    let bm = ClientMetrics::compute(p, &base);
    let mm = ClientMetrics::compute(p, &merged);
    assert_eq!(bm.may_fail_casts, mm.may_fail_casts);
    assert_eq!(bm.poly_call_sites, mm.poly_call_sites);
    AliasTradeoffRow {
        program: name.to_owned(),
        baseline_alias_pairs: clients::alias::program_alias_stats(p, &base).aliased,
        mahjong_alias_pairs: clients::alias::program_alias_stats(p, &merged).aliased,
        may_fail_casts: mm.may_fail_casts,
        poly_call_sites: mm.poly_call_sites,
    }
}

pub mod cli;
pub mod profile;
pub mod serve;

// --- Micro-bench harness ----------------------------------------------------------

/// A dependency-free stand-in for a benchmark harness: warm-up, then
/// repeated timed runs until a wall-clock target, reporting min/mean.
///
/// The `benches/` binaries (built with `harness = false`) use this via
/// `cargo bench`; they ignore argv, so the `--bench` flag cargo passes
/// is harmless.
pub mod timing {
    use std::time::{Duration, Instant};

    /// One benchmark's timing result.
    #[derive(Clone, Debug)]
    pub struct Measurement {
        /// Benchmark label, e.g. `"table2/2obj/pmd"`.
        pub label: String,
        /// Timed iterations (after one warm-up).
        pub iters: u32,
        /// Fastest iteration.
        pub min: Duration,
        /// Mean over all timed iterations.
        pub mean: Duration,
    }

    /// Times `f`: one warm-up call, then timed calls until 300 ms of
    /// cumulative work or 25 iterations, whichever comes first.
    pub fn measure<T>(label: &str, mut f: impl FnMut() -> T) -> Measurement {
        std::hint::black_box(f());
        let target = Duration::from_millis(300);
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        let mut iters = 0u32;
        while total < target && iters < 25 {
            let t = Instant::now();
            std::hint::black_box(f());
            let d = t.elapsed();
            total += d;
            min = min.min(d);
            iters += 1;
        }
        Measurement {
            label: label.to_owned(),
            iters,
            min,
            mean: total / iters.max(1),
        }
    }

    /// Times `f` and prints the result in one line.
    pub fn bench<T>(label: &str, f: impl FnMut() -> T) -> Measurement {
        let m = measure(label, f);
        println!(
            "{:<44} mean {:>12?}  min {:>12?}  ({} iters)",
            m.label, m.mean, m.min, m.iters
        );
        m
    }
}

// --- Formatting helpers -----------------------------------------------------------

/// Formats seconds or the paper's unscalable marker.
pub fn fmt_time(seconds: Option<f64>) -> String {
    match seconds {
        Some(s) => format!("{s:.3}s"),
        None => ">budget".to_owned(),
    }
}

/// Formats an optional count.
pub fn fmt_count(count: Option<usize>) -> String {
    match count {
        Some(c) => c.to_string(),
        None => "-".to_owned(),
    }
}
