//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --exp table2 [--scale N] [--budget SECS] [--threads N] [--programs a,b,c]
//!       [--metrics-json PATH] [--bench-json PATH] [--force] [--trace PATH]
//!       [--profile] [--profile-json PATH] [--heartbeat SECS]
//! repro --exp fig8
//! repro --exp fig9
//! repro --exp table1
//! repro --exp motivation
//! repro --exp pre_analysis
//! repro --exp ablations
//! repro --exp alias
//! repro --exp all
//! ```
//!
//! `--threads` sets Mahjong's merge-phase and the serve bench's worker
//! count (`0`, the default, means one per available hardware thread);
//! the solver is sequential and ignores it. `--metrics-json` dumps the
//! telemetry registry as JSON-Lines and `--trace` writes a Chrome
//! `trace_event` file (load it in `about:tracing` or Perfetto). The
//! benchmark record lands at `--bench-json PATH` when given, otherwise
//! as `BENCH_pta.json` next to the `--metrics-json` file; a Mahjong
//! phase record (`BENCH_mahjong.json`) is written as a sibling. An
//! existing record is never overwritten unless `--force` is passed. `--exp all`
//! additionally prints a per-experiment phase-time summary
//! (pre-analysis vs. Mahjong vs. the main analysis). Set
//! `OBS_DISABLE=1` to turn recording into no-ops.
//!
//! `--profile` writes the solver-introspection profile (per-wave
//! timeline records, the memory-attribution breakdown, and the
//! hottest-pointer table — see `obs::timeline`) as `PROFILE_pta.json`
//! next to the benchmark record, or wherever `--profile-json PATH`
//! says (implies `--profile`). Unlike bench records the profile is a
//! derived artifact and is overwritten freely. `--heartbeat SECS`
//! prints a one-line progress pulse (wave round, worklist pops, live
//! set words) to stderr every `SECS` seconds so multi-minute runs are
//! not silent.
//!
//! # Snapshots and serving
//!
//! The serving pipeline (see `SERVING.md`) bypasses `--exp`:
//!
//! ```text
//! repro --programs luindex --scale 2 --save-snapshot luindex.mjsn
//! repro --load-snapshot luindex.mjsn --serve-bench
//! ```
//!
//! `--save-snapshot PATH` runs one configuration (`--analysis`,
//! `--heap`) on the first `--programs` entry and persists the result
//! as a versioned, checksummed binary snapshot. `--load-snapshot
//! PATH` warm-starts from it — no analysis — and both paths print the
//! canonical result fingerprint, so save→load equivalence is a string
//! comparison. `--serve-bench` then drives the concurrent query
//! benchmark (`bench::serve`) and writes `BENCH_serve.json`
//! (`--serve-json PATH` overrides; no-clobber unless `--force`).

use std::time::{Duration, Instant};

use bench::cli::{self, CommonOpts, RecordHeader};
use bench::{fmt_count, fmt_time};
use mahjong::MahjongConfig;
use pta::Budget;

/// Every experiment `--exp` accepts, in the order `--exp all` runs them
/// (plus `all` itself). Printed when an unknown name is given.
const EXPERIMENTS: &[&str] = &[
    "motivation",
    "fig8",
    "fig9",
    "table1",
    "pre_analysis",
    "table2",
    "ablations",
    "alias",
    "all",
];

const USAGE: &str = "\
usage: repro --exp NAME [options]

experiments: motivation, fig8, fig9, table1, pre_analysis, table2,
             ablations, alias, all (default)

repro options:
  --exp NAME           experiment to run (default: all)
  --scale N            workload scale factor (default: 4)
  --budget SECS        per-run time budget (default: 60)
  --programs a,b,c     restrict to a comma-separated program list
  --profile            write the solver-introspection profile
                       (PROFILE_pta.json next to the bench record)
  --profile-json PATH  profile destination (implies --profile)

serving options (bypass --exp; see SERVING.md):
  --analysis NAME      sensitivity for --save-snapshot / fresh serving:
                       ci, Kcs, Kobj, Ktype (default: 2obj)
  --heap NAME          heap abstraction: alloc, alloc-type, mahjong
                       (default: mahjong)
  --save-snapshot PATH analyze the first --programs entry, save the
                       result as a binary snapshot
  --load-snapshot PATH warm-start from a snapshot instead of analyzing
  --serve-bench        run the concurrent query benchmark
  --serve-queries N    total queries in the mix (default: 200000)
  --serve-batch N      queries per batch claim (default: 256)
  --serve-seed N       query-mix seed (default: 659918)
  --serve-json PATH    serve record target (default: BENCH_serve.json;
                       no-clobber unless --force)";

#[derive(Debug)]
struct Args {
    exp: String,
    scale: usize,
    budget: u64,
    /// Worker count, already resolved (`--threads 0` = auto).
    threads: usize,
    programs: Vec<String>,
    profile: bool,
    profile_json: Option<String>,
    analysis: String,
    heap: String,
    save_snapshot: Option<String>,
    load_snapshot: Option<String>,
    serve_bench: bool,
    serve_queries: u64,
    serve_batch: u64,
    serve_seed: u64,
    serve_json: Option<String>,
    common: CommonOpts,
}

fn parse_args() -> Args {
    let mut exp = "all".to_owned();
    let mut scale = 4;
    let mut budget = 60;
    let mut profile = false;
    let mut profile_json = None;
    let mut analysis = "2obj".to_owned();
    let mut heap = "mahjong".to_owned();
    let mut save_snapshot = None;
    let mut load_snapshot = None;
    let mut serve_bench = false;
    let mut serve_queries = 200_000;
    let mut serve_batch = 256;
    let mut serve_seed = 0xA11CE;
    let mut serve_json = None;
    let mut common = CommonOpts::default();
    let mut programs: Vec<String> = workloads::dacapo::PROGRAMS
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match common.try_parse(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => {
                eprintln!("repro: {msg}");
                std::process::exit(2);
            }
        }
        match arg.as_str() {
            "--exp" => {
                exp = args.next().unwrap_or_default();
            }
            "--scale" => {
                scale = args.next().and_then(|s| s.parse().ok()).unwrap_or(scale);
            }
            "--budget" => {
                budget = args.next().and_then(|s| s.parse().ok()).unwrap_or(budget);
            }
            "--programs" => {
                programs = args
                    .next()
                    .map(|s| s.split(',').map(str::to_owned).collect())
                    .unwrap_or(programs);
            }
            "--profile" => profile = true,
            "--profile-json" => {
                profile_json = args.next();
                profile = true;
            }
            "--analysis" => {
                analysis = args.next().unwrap_or(analysis);
            }
            "--heap" => {
                heap = args.next().unwrap_or(heap);
            }
            "--save-snapshot" => {
                save_snapshot = args.next();
            }
            "--load-snapshot" => {
                load_snapshot = args.next();
            }
            "--serve-bench" => serve_bench = true,
            "--serve-queries" => {
                serve_queries = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_queries);
            }
            "--serve-batch" => {
                serve_batch = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_batch);
            }
            "--serve-seed" => {
                serve_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_seed);
            }
            "--serve-json" => {
                serve_json = args.next();
            }
            "--help" | "-h" => {
                println!("{USAGE}\n\n{}", CommonOpts::HELP);
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    Args {
        exp,
        scale,
        budget,
        threads: common.resolve_threads(0),
        programs,
        profile,
        profile_json,
        analysis,
        heap,
        save_snapshot,
        load_snapshot,
        serve_bench,
        serve_queries,
        serve_batch,
        serve_seed,
        serve_json,
        common,
    }
}

fn main() {
    let args = parse_args();
    // Validate the benchmark-record target up front: refusing to
    // clobber after a multi-minute run would throw the work away.
    args.common.check_bench_target("repro");
    args.common.start_heartbeat("repro");
    let budget = Budget::seconds(args.budget);
    if args.save_snapshot.is_some() || args.load_snapshot.is_some() || args.serve_bench {
        serve_pipeline(&args, budget);
        return;
    }
    match args.exp.as_str() {
        "table2" => table2(&args, budget),
        "fig8" => fig8(&args),
        "fig9" => fig9(&args),
        "table1" => table1(&args),
        "motivation" => motivation(&args, budget),
        "pre_analysis" => pre_analysis(&args),
        "ablations" => ablations(&args, budget),
        "alias" => alias(&args, budget),
        "all" => all(&args, budget),
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("valid experiments: {}", EXPERIMENTS.join(", "));
            std::process::exit(2);
        }
    }
    let header = RecordHeader {
        exp: args.exp.clone(),
        scale: args.scale,
        budget_secs: args.budget,
        threads: args.threads,
    };
    args.common.emit_artifacts("repro", &header);
    if args.profile {
        let path = profile_path(&args, args.common.bench_target().as_deref());
        cli::write_or_die("repro", &path, &profile_json(&args));
        eprintln!("repro: wrote {path}");
    }
}

// --- Snapshots and query serving ------------------------------------------------

/// `--analysis` names: `ci` or `<k><cs|obj|type>` (e.g. `2obj`, `3type`).
fn parse_analysis(name: &str) -> Option<bench::Sensitivity> {
    if name == "ci" {
        return Some(bench::Sensitivity::Ci);
    }
    for (suffix, ctor) in [
        ("cs", bench::Sensitivity::Cs as fn(usize) -> _),
        ("obj", bench::Sensitivity::Obj as fn(usize) -> _),
        ("type", bench::Sensitivity::Type as fn(usize) -> _),
    ] {
        if let Some(k) = name.strip_suffix(suffix) {
            return k.parse().ok().filter(|&k| k > 0).map(ctor);
        }
    }
    None
}

/// `--heap` names, returned with the canonical spelling recorded in
/// snapshot metadata and bench records.
fn parse_heap(name: &str) -> Option<(bench::HeapKind, &'static str)> {
    match name {
        "alloc" | "alloc-site" => Some((bench::HeapKind::AllocSite, "alloc-site")),
        "alloc-type" => Some((bench::HeapKind::AllocType, "alloc-type")),
        "mahjong" => Some((bench::HeapKind::Mahjong, "mahjong")),
        _ => None,
    }
}

fn die(msg: String) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// The `--save-snapshot` / `--load-snapshot` / `--serve-bench`
/// pipeline: obtain a queryable result (fresh analysis or snapshot
/// warm-start), optionally persist it, optionally benchmark it. Both
/// sources print the canonical fingerprint, so `save → load` parity is
/// checkable by comparing two lines of output.
fn serve_pipeline(args: &Args, budget: Budget) {
    use bench::serve;

    let sensitivity = parse_analysis(&args.analysis)
        .unwrap_or_else(|| die(format!("unknown --analysis `{}` (ci, Kcs, Kobj, Ktype)", args.analysis)));
    let (heap_kind, heap_name) = parse_heap(&args.heap)
        .unwrap_or_else(|| die(format!("unknown --heap `{}` (alloc, alloc-type, mahjong)", args.heap)));

    let (program, result, meta, warm_start_ms, source) = if let Some(path) = &args.load_snapshot {
        // Warm start: everything (including the program name, scale,
        // and configuration labels) comes from the snapshot.
        let start = Instant::now();
        let snap = snapshot::load(std::path::Path::new(path))
            .unwrap_or_else(|e| die(format!("cannot load snapshot {path}: {e}")));
        let meta = snap.meta.clone();
        if !workloads::dacapo::PROGRAMS.contains(&meta.program.as_str()) {
            die(format!(
                "snapshot {path} names unknown program `{}` (known: {})",
                meta.program,
                workloads::dacapo::PROGRAMS.join(", ")
            ));
        }
        let program = workloads::dacapo::workload(&meta.program, meta.scale as usize).program;
        let result = pta::snapshot::restore(snap.raw)
            .unwrap_or_else(|e| die(format!("snapshot {path} fails validation: {e}")));
        let warm_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "repro: warm start from {path}: {} @ scale {} ({}, {}) in {warm_ms:.1} ms",
            meta.program, meta.scale, meta.analysis, meta.heap
        );
        (program, result, meta, warm_ms, "snapshot")
    } else {
        // Fresh start: run the requested configuration on the first
        // `--programs` entry, then optionally persist it.
        let name = args
            .programs
            .first()
            .unwrap_or_else(|| die("--programs is empty".to_owned()));
        let start = Instant::now();
        let prepared = bench::prepare(name, args.scale, &MahjongConfig::default());
        let result = bench::run_for_result(
            &prepared.program,
            sensitivity,
            heap_kind,
            &prepared.mahjong.mom,
            budget,
            args.threads,
        )
        .unwrap_or_else(|_| {
            die(format!("{name} ({}) exceeded the {}s budget", args.analysis, args.budget))
        });
        let warm_ms = start.elapsed().as_secs_f64() * 1e3;
        let meta = snapshot::Meta {
            program: name.clone(),
            scale: args.scale as u32,
            analysis: sensitivity.name(),
            heap: heap_name.to_owned(),
            threads: args.threads as u32,
        };
        if let Some(path) = &args.save_snapshot {
            use pta::HeapAbstraction;
            let mom = match heap_kind {
                bench::HeapKind::Mahjong => Some(
                    (0..prepared.mahjong.mom.len())
                        .map(|i| prepared.mahjong.mom.repr(jir::AllocId::from_usize(i)).as_u32())
                        .collect(),
                ),
                _ => None,
            };
            let snap = snapshot::Snapshot {
                meta: meta.clone(),
                raw: pta::snapshot::extract(&result),
                mom,
            };
            let bytes = snapshot::save(std::path::Path::new(path), &snap)
                .unwrap_or_else(|e| die(format!("cannot save snapshot {path}: {e}")));
            println!("repro: wrote snapshot {path} ({bytes} bytes)");
        }
        (prepared.program, result, meta, warm_ms, "fresh")
    };

    let fingerprint = serve::canonical_fingerprint(&program, &result);
    println!("repro: fingerprint {fingerprint:#018x}");

    if !args.serve_bench {
        return;
    }
    let opts = serve::ServeOpts {
        threads: args.threads,
        queries: args.serve_queries,
        batch: args.serve_batch.max(1),
        seed: args.serve_seed,
    };
    let report = serve::run_bench(&program, &result, opts);
    println!(
        "## Serve bench — {} @ scale {} ({}, {}), {} threads",
        meta.program, meta.scale, meta.analysis, meta.heap, opts.threads
    );
    println!();
    println!(
        "{} queries in {:.3} s — {:.0} qps (warm start {:.1} ms, source {source})",
        opts.queries, report.wall_secs, report.qps, warm_start_ms
    );
    println!();
    println!("| class | count | p50 | p99 |");
    println!("|---|---|---|---|");
    for (name, s) in &report.classes {
        println!("| {name} | {} | {} ns | {} ns |", s.count, s.p50_ns, s.p99_ns);
    }
    println!();

    let header = serve::ServeHeader {
        program: meta.program.clone(),
        scale: meta.scale as usize,
        analysis: meta.analysis.clone(),
        heap: meta.heap.clone(),
        source: source.to_owned(),
        warm_start_ms,
        fingerprint,
    };
    let target = args
        .serve_json
        .clone()
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());
    cli::refuse_clobber("repro", &target, args.common.force);
    cli::write_or_die("repro", &target, &serve::render_json(&header, &report));
    eprintln!("repro: wrote {target}");
}

/// `PROFILE_pta.json` lands next to the benchmark record (or in the
/// working directory when no bench target is configured), unless
/// `--profile-json` says otherwise.
fn profile_path(args: &Args, bench_target: Option<&str>) -> String {
    if let Some(p) = &args.profile_json {
        return p.clone();
    }
    match bench_target {
        Some(b) => std::path::Path::new(b)
            .with_file_name("PROFILE_pta.json")
            .to_string_lossy()
            .into_owned(),
        None => "PROFILE_pta.json".to_owned(),
    }
}

/// The solver-introspection profile: run header plus the timeline's
/// own JSON export (records, memory breakdown, top-K table) under
/// `"profile"`.
fn profile_json(args: &Args) -> String {
    let r = obs::registry();
    format!(
        "{{\n  \"exp\": \"{}\",\n  \"scale\": {},\n  \"budget_secs\": {},\n  \"threads\": {},\n  \
         \"pre_analysis_secs\": {:.6},\n  \"main_analysis_secs\": {:.6},\n  \
         \"pts_peak_words\": {},\n  \"pending_peak_words\": {},\n  \"profile\": {}\n}}\n",
        args.exp,
        args.scale,
        args.budget,
        args.threads,
        r.phase_time("pre_analysis").as_secs_f64(),
        r.phase_time("main_analysis").as_secs_f64(),
        obs::gauge("pta.pts_peak_words").get(),
        obs::gauge("pta.pending_peak_words").get(),
        obs::timeline().export_json(),
    )
}

// --- `--exp all` with the phase-time summary -----------------------------------

/// Cumulative wall-clock in the three pipeline stages, read from the
/// telemetry registry's span log.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseClock {
    pre_analysis: Duration,
    mahjong: Duration,
    main_analysis: Duration,
}

fn phase_clock() -> PhaseClock {
    let r = obs::registry();
    PhaseClock {
        pre_analysis: r.phase_time("pre_analysis"),
        mahjong: r.phase_time("mahjong.fpg_build")
            + r.phase_time("mahjong.automata_build")
            + r.phase_time("mahjong.equivalence_check"),
        main_analysis: r.phase_time("main_analysis"),
    }
}

impl PhaseClock {
    fn since(self, earlier: PhaseClock) -> PhaseClock {
        PhaseClock {
            pre_analysis: self.pre_analysis - earlier.pre_analysis,
            mahjong: self.mahjong - earlier.mahjong,
            main_analysis: self.main_analysis - earlier.main_analysis,
        }
    }
}

/// One named experiment runner, as dispatched by `--exp all`.
type Experiment<'a> = (&'a str, Box<dyn Fn() + 'a>);

fn all(args: &Args, budget: Budget) {
    let experiments: Vec<Experiment> = vec![
        ("motivation", Box::new(|| motivation(args, budget))),
        ("fig8", Box::new(|| fig8(args))),
        ("fig9", Box::new(|| fig9(args))),
        ("table1", Box::new(|| table1(args))),
        ("pre_analysis", Box::new(|| pre_analysis(args))),
        ("table2", Box::new(|| table2(args, budget))),
        ("ablations", Box::new(|| ablations(args, budget))),
        ("alias", Box::new(|| alias(args, budget))),
    ];
    let mut summary: Vec<(&str, PhaseClock)> = Vec::new();
    for (name, run) in experiments {
        let before = phase_clock();
        run();
        summary.push((name, phase_clock().since(before)));
    }

    println!("## Phase-time summary — wall-clock per experiment");
    println!();
    println!("| experiment | pre-analysis | Mahjong | main analysis |");
    println!("|---|---|---|---|");
    let mut total = PhaseClock::default();
    for (name, clock) in &summary {
        println!(
            "| {} | {} | {} | {} |",
            name,
            fmt_time(Some(clock.pre_analysis.as_secs_f64())),
            fmt_time(Some(clock.mahjong.as_secs_f64())),
            fmt_time(Some(clock.main_analysis.as_secs_f64())),
        );
        total.pre_analysis += clock.pre_analysis;
        total.mahjong += clock.mahjong;
        total.main_analysis += clock.main_analysis;
    }
    println!(
        "| **total** | **{}** | **{}** | **{}** |",
        fmt_time(Some(total.pre_analysis.as_secs_f64())),
        fmt_time(Some(total.mahjong.as_secs_f64())),
        fmt_time(Some(total.main_analysis.as_secs_f64())),
    );
    println!();
}

fn table2(args: &Args, budget: Budget) {
    println!(
        "## Table 2 — main results (scale {}, budget {}s, {} thread{})",
        args.scale,
        args.budget,
        args.threads,
        if args.threads == 1 { "" } else { "s" }
    );
    println!();
    println!(
        "| program | pre (ci/FPG/Mahjong) | analysis | time | M-time | speedup | #fail-casts (A/M) | #poly (A/M) | #cg edges (A/M) |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for name in &args.programs {
        let (prepared, rows) = bench::table2_program(name, args.scale, budget, args.threads);
        for (i, row) in rows.iter().enumerate() {
            let pre = if i == 0 {
                format!(
                    "{:.2}s / {:.3}s / {:.3}s",
                    prepared.ci_seconds, prepared.fpg_seconds, prepared.mahjong_seconds
                )
            } else {
                String::new()
            };
            println!(
                "| {} | {} | {} | {} | {} | {} | {}/{} | {}/{} | {}/{} |",
                if i == 0 { name.as_str() } else { "" },
                pre,
                row.analysis,
                fmt_time(row.baseline.seconds),
                fmt_time(row.mahjong.seconds),
                row.speedup
                    .map(|s| format!("{s:.1}x"))
                    .unwrap_or_else(|| "-".to_owned()),
                fmt_count(row.baseline.may_fail_casts),
                fmt_count(row.mahjong.may_fail_casts),
                fmt_count(row.baseline.poly_call_sites),
                fmt_count(row.mahjong.poly_call_sites),
                fmt_count(row.baseline.call_graph_edges),
                fmt_count(row.mahjong.call_graph_edges),
            );
        }
    }
    println!();
}

fn fig8(args: &Args) {
    println!("## Figure 8 — abstract objects: allocation-site vs Mahjong (scale {})", args.scale);
    println!();
    println!("| program | alloc-site | Mahjong | reduction |");
    println!("|---|---|---|---|");
    let mut total_red = 0.0;
    let mut n = 0;
    for name in &args.programs {
        let prepared = bench::prepare(name, args.scale, &MahjongConfig::default());
        let row = bench::figure8_row(name, &prepared);
        println!(
            "| {} | {} | {} | {:.0}% |",
            name,
            row.alloc_site_objects,
            row.mahjong_objects,
            row.reduction_percent()
        );
        total_red += row.reduction_percent();
        n += 1;
    }
    if n > 0 {
        println!("| **average** | | | **{:.0}%** |", total_red / n as f64);
    }
    println!();
}

fn fig9(args: &Args) {
    println!("## Figure 9 — equivalence-class sizes (checkstyle, scale {})", args.scale);
    println!();
    let prepared = bench::prepare("checkstyle", args.scale, &MahjongConfig::default());
    println!("| class size | #classes |");
    println!("|---|---|");
    for p in bench::figure9(&prepared) {
        println!("| {} | {} |", p.size, p.count);
    }
    println!();
}

fn table1(args: &Args) {
    println!("## Table 1 — example equivalence classes (checkstyle, scale {})", args.scale);
    println!();
    let prepared = bench::prepare("checkstyle", args.scale, &MahjongConfig::default());
    println!("| rank | type | class size | total of type | contents |");
    println!("|---|---|---|---|---|");
    for row in bench::table1(&prepared, 12) {
        println!(
            "| {} | {} | {} | {} | {} |",
            row.rank, row.type_name, row.class_size, row.total_of_type, row.remark
        );
    }
    println!();
}

fn motivation(args: &Args, budget: Budget) {
    println!("## Section 2.1 — pmd under 3obj / T-3obj / M-3obj (scale {})", args.scale);
    println!();
    let (_prepared, m) = bench::motivation(args.scale, budget, args.threads);
    println!("| config | time | #cg edges | #fail-casts | #poly |");
    println!("|---|---|---|---|---|");
    for (name, run) in [("3obj", &m.obj3), ("T-3obj", &m.t_obj3), ("M-3obj", &m.m_obj3)] {
        println!(
            "| {} | {} | {} | {} | {} |",
            name,
            fmt_time(run.seconds),
            fmt_count(run.call_graph_edges),
            fmt_count(run.may_fail_casts),
            fmt_count(run.poly_call_sites),
        );
    }
    println!();
}

fn pre_analysis(args: &Args) {
    println!("## Section 6.1.1 — pre-analysis statistics (scale {})", args.scale);
    println!();
    println!(
        "| program | ci | FPG build | Mahjong | FPG objects | FPG edges | avg NFA | max NFA | !single-type | equiv checks |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for name in &args.programs {
        let prepared = bench::prepare(name, args.scale, &MahjongConfig::default());
        let s = bench::pre_analysis_stats(name, &prepared);
        println!(
            "| {} | {:.2}s | {:.3}s | {:.3}s | {} | {} | {:.0} | {} | {} | {} |",
            s.program,
            s.ci_seconds,
            s.fpg_seconds,
            s.mahjong_seconds,
            s.fpg_objects,
            s.fpg_edges,
            s.avg_nfa_states,
            s.max_nfa_states,
            s.not_single_type,
            s.equivalence_checks,
        );
    }
    println!();
}

fn alias(args: &Args, budget: Budget) {
    println!("## Extension — the may-alias tradeoff (scale {})", args.scale);
    println!();
    println!("| program | alias pairs (2obj) | alias pairs (M-2obj) | #fail-casts | #poly |");
    println!("|---|---|---|---|---|");
    for name in args.programs.iter().take(4) {
        let row = bench::alias_tradeoff(name, args.scale.min(2), budget);
        println!(
            "| {} | {} | {} | {} | {} |",
            row.program,
            row.baseline_alias_pairs,
            row.mahjong_alias_pairs,
            row.may_fail_casts,
            row.poly_call_sites
        );
    }
    println!();
    println!("type-dependent metrics match exactly while alias pairs grow — the");
    println!("designed tradeoff (paper Section 1).");
    println!();
}

fn ablations(args: &Args, budget: Budget) {
    let program = args
        .programs
        .first()
        .cloned()
        .unwrap_or_else(|| "pmd".to_owned());
    println!("## Ablations — design choices on {program} (scale {})", args.scale);
    println!();
    println!("| config | merged objects | merge time | M-2cs #fail-casts |");
    println!("|---|---|---|---|");
    for row in bench::ablations(&program, args.scale, budget) {
        println!(
            "| {} | {} | {:.3}s | {} |",
            row.name,
            row.merged_objects,
            row.merge_seconds,
            fmt_count(row.may_fail_casts_m2cs),
        );
    }
    println!();
}
