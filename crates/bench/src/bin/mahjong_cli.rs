//! `mahjong-cli` — the standalone tool: read a `.jir` program, run the
//! pre-analysis, and print the merged-object map.
//!
//! ```text
//! mahjong-cli program.jir [--no-condition2] [--no-null] [--largest-repr]
//!             [--paranoid] [--budget SECS] [shared options]
//! ```
//!
//! The shared options (`--threads`, `--metrics-json`, `--trace`,
//! `--bench-json`/`--force`, `--heartbeat`) are parsed by
//! [`bench::cli::CommonOpts`] — the same parser and `--help` section
//! `repro` uses. `--threads` sizes Mahjong's automaton construction
//! (results are bit-identical for any count); the pre-analysis solver
//! is sequential and ignores it.
//! `--paranoid` re-verifies every signature-directed merge with
//! Hopcroft–Karp (the runs appear in the `mahjong.hk_runs` counter,
//! which is 0 on the default fast path). Set `OBS_DISABLE=1` to turn
//! all recording into no-ops.
//!
//! The paper ships Mahjong as a standalone tool that any
//! allocation-site-based points-to framework can call; this binary is
//! that interface for JIR programs. It lives in the `bench` crate
//! (which already depends on `mahjong`) so it can share the CLI
//! plumbing without creating a dependency cycle.

use bench::cli::{CommonOpts, RecordHeader};
use mahjong::{build_with_fpg, MahjongConfig, Representative};
use pta::{AllocSiteAbstraction, AnalysisConfig, ContextInsensitive};

const USAGE: &str = "\
usage: mahjong-cli <program.jir> [options]

mahjong-cli options:
  --no-condition2      drop the paper's Condition 2 (field-sensitivity
                       guard) from the merge criterion
  --no-null            do not model null as a distinguished automaton
                       state
  --largest-repr       pick each class's largest object as the
                       representative (default: first)
  --paranoid           re-verify every signature-directed merge with
                       Hopcroft-Karp
  --budget SECS        abort the pre-analysis past this time budget";

fn main() {
    let mut path: Option<String> = None;
    let mut config = MahjongConfig::default();
    let mut budget_secs: Option<u64> = None;
    let mut common = CommonOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match common.try_parse(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => die(msg.as_ref()),
        }
        match arg.as_str() {
            "--no-condition2" => config.enforce_condition2 = false,
            "--no-null" => config.model_null = false,
            "--largest-repr" => config.representative = Representative::Largest,
            "--paranoid" => config.paranoid = true,
            "--budget" => {
                budget_secs = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--budget needs a number of seconds")),
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}\n\n{}", CommonOpts::HELP);
                return;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(arg),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    config.threads = common.resolve_threads(config.threads);
    common.check_bench_target("mahjong-cli");
    common.start_heartbeat("mahjong-cli");
    let path = path.unwrap_or_else(|| die("missing input program"));
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let program = jir::parse(&source).unwrap_or_else(|e| die(&format!("parse error: {e}")));

    // The pre-analysis is a plain context-insensitive run; `--budget`
    // routes through the same `AnalysisConfig` builder every other
    // entry point uses (its `.threads` is accepted and ignored).
    let mut pre_cfg = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .threads(config.threads);
    if let Some(secs) = budget_secs {
        pre_cfg = pre_cfg.time_limit_secs(secs);
    }
    let pre = {
        let _phase = obs::span("pre_analysis");
        pre_cfg
            .run(&program)
            .unwrap_or_else(|e| die(&format!("pre-analysis exceeded its budget: {e}")))
    };
    let (fpg, out) = build_with_fpg(&program, &pre, &config);

    println!(
        "# mahjong: {} reachable objects -> {} abstract objects ({:.0}% reduction)",
        out.stats.objects,
        out.stats.merged_objects,
        100.0 * (1.0 - out.stats.merged_objects as f64 / out.stats.objects.max(1) as f64)
    );
    println!(
        "# fpg: {} edges; nfa avg {:.0} states, max {}; {} objects fail SINGLETYPE-CHECK",
        fpg.edge_count(),
        out.stats.avg_nfa_states,
        out.stats.max_nfa_states,
        out.stats.not_single_type
    );
    println!("# merged classes (size > 1):");
    for class in out.mom.classes() {
        if class.len() < 2 {
            continue;
        }
        let labels: Vec<String> = class.iter().map(|&a| program.alloc_label(a)).collect();
        println!("{}", labels.join(" ≡ "));
    }

    let header = RecordHeader {
        exp: "cli".to_owned(),
        scale: 0,
        budget_secs: budget_secs.unwrap_or(0),
        threads: config.threads,
    };
    common.emit_artifacts("mahjong-cli", &header);
}

fn die(msg: &str) -> ! {
    eprintln!("mahjong-cli: {msg}");
    std::process::exit(1);
}
