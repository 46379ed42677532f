//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2|mahjong|serve --seed N --seconds S --trace 0|1 \
//!     [--trace-file FILE]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-expected
//! ```
//!
//! A run self-tests the output check, sets the workload up several
//! times (the median is `setup_s`), then repeats passes until `S`
//! seconds have gone by. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it keeps one span per layer call and
//! reports the per-layer metrics derived from them. The last line of
//! standard output is the result object; the line before it is the
//! full record (stamp, median/min/max per metric, per-cell solver
//! times) that `compare.py` reads. See `README.md` for every metric.

mod expected;
mod recorder;
mod selftest;
mod stats;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use recorder::{Recorder, Span, STRUCTURAL};
use stats::Summary;
use work::{Bench, Class, MahjongPath, Serve, Table2, Workload};

/// Set-ups per run: at least `MIN_SETUPS`, and more while their total
/// stays under `SETUP_SECS`, up to `MAX_SETUPS`; `setup_s` is their
/// median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const SETUP_SECS: f64 = 3.0;

const WORKLOADS: [&str; 3] = ["table2", "mahjong", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_file: Option<PathBuf>,
    emit_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        trace_file: None,
        emit_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-expected" {
            args.emit_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--trace-file" => args.trace_file = Some(value.into()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.emit_expected {
        return Ok(args);
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.emit_expected {
        emit_expected(threads);
        return;
    }
    let expected = expected::Expected::parse(include_str!("../expected.tsv")).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let snapshot_path = work_dir.join(format!("snapshot-{}.mjsn", std::process::id()));

    let mut b = Bench::new(
        Recorder::new(args.trace),
        threads,
        args.seed,
        &expected,
        snapshot_path.clone(),
    );
    selftest::run(&mut b.ops);
    let seconds = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "table2" => drive::<Table2>(&mut b, seconds),
        "mahjong" => drive::<MahjongPath>(&mut b, seconds),
        _ => drive::<Serve>(&mut b, seconds),
    }
    let _ = std::fs::remove_file(&snapshot_path);
    let _ = std::fs::remove_dir(&work_dir);

    let mut metrics = if args.trace {
        per_layer(&b.rec)
    } else {
        end_to_end(&b.rec)
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        b.ops
            .check(false, || "a metric could not be measured".to_owned());
        metrics
            .iter_mut()
            .filter(|m| !m.value.is_finite())
            .for_each(|m| m.value = 0.0);
    }
    for m in &b.ops.messages {
        eprintln!("perfbench: FAILED {m}");
    }
    report(&args, &b, &metrics);
    if let Some(path) = &args.trace_file {
        if let Err(e) = std::fs::write(path, chrome_trace(&b.rec.spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", record_json(&args, &b, &metrics));
    println!("{}", result_json(&b, &metrics));
}

/// Sets the workload up several times (keeping the last), then runs
/// passes until `seconds` have gone by, at least one.
fn drive<W: Workload>(b: &mut Bench<'_>, seconds: Duration) {
    let mut state = None;
    let mut spent = 0.0;
    while b.rec.setups.len() < MIN_SETUPS || (spent < SETUP_SECS && b.rec.setups.len() < MAX_SETUPS)
    {
        drop(state.take());
        b.rec.begin("setup");
        state = Some(W::setup(b));
        b.rec.end();
        spent += b.rec.setups.last().map_or(0.0, |s| s.wall.as_secs_f64());
    }
    let state = state.expect("at least one set-up ran");
    let start = Instant::now();
    loop {
        b.rec.begin("pass");
        state.pass(b);
        b.rec.end();
        if start.elapsed() >= seconds {
            break;
        }
    }
}

/// One reported metric: value plus the spread it was taken from.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    summary: Summary,
}

impl Metric {
    fn median(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name: name.to_owned(),
            unit,
            value: summary.median,
            summary,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn layer_time(scope: &recorder::Scope, names: &[&str]) -> Duration {
    names.iter().filter_map(|n| scope.layer.get(n)).sum()
}

/// The end-to-end metrics, from the untraced scopes.
fn end_to_end(rec: &Recorder) -> Vec<Metric> {
    vec![
        Metric::median(
            "wall_s",
            "s",
            rec.passes.iter().map(|p| p.wall.as_secs_f64()).collect(),
        ),
        Metric::median(
            "setup_s",
            "s",
            rec.setups.iter().map(|s| s.wall.as_secs_f64()).collect(),
        ),
        Metric::median("peak_rss_mb", "MB", vec![peak_rss_mb()]),
    ]
}

/// The persist and query metrics, from the scopes that served results:
/// the passes of `serve`, the set-ups of the others.
fn served_metrics(rec: &Recorder) -> Vec<Metric> {
    let served: Vec<&recorder::Scope> = rec
        .setups
        .iter()
        .chain(&rec.passes)
        .filter(|s| s.layer.contains_key("snapshot.save"))
        .collect();
    let per_served = |f: &dyn Fn(&recorder::Scope) -> f64| served.iter().map(|s| f(s)).collect();
    // The latency median is taken over every mixed batch of the run; its
    // spread is that of the per-scope medians.
    let mut batches: Vec<f64> = served
        .iter()
        .flat_map(|s| s.batches.iter().copied())
        .collect();
    let p50 = stats::median(&mut batches);
    let per_scope_p50 = per_served(&|s| stats::median(&mut s.batches.clone()));
    vec![
        Metric::median(
            "save_ms",
            "ms",
            per_served(&|s| ms(layer_time(s, &["snapshot.extract", "snapshot.save"]))),
        ),
        Metric::median(
            "warm_start_ms",
            "ms",
            per_served(&|s| ms(layer_time(s, &["snapshot.load", "pta.restore"]))),
        ),
        Metric {
            name: "query_ns_p50".into(),
            unit: "ns",
            value: p50,
            summary: Summary {
                median: p50,
                ..Summary::of(per_scope_p50)
            },
        },
    ]
}

/// Layer calls timed, as `(metric, unit, scale from seconds, spans)`.
const LAYER_TIMES: [(&str, &str, f64, &[&str]); 14] = [
    ("workloads.generate_s", "s", 1.0, &["workloads.generate"]),
    ("pta.ci_s", "s", 1.0, &["pta.ci"]),
    ("mahjong.fpg_s", "s", 1.0, &["mahjong.fpg"]),
    ("mahjong.merge_s", "s", 1.0, &["mahjong.merge"]),
    ("pta.solve_s", "s", 1.0, &["pta.solve"]),
    ("clients.metrics_s", "s", 1.0, &["clients.metrics"]),
    ("snapshot.extract_ms", "ms", 1e3, &["snapshot.extract"]),
    ("snapshot.save_ms", "ms", 1e3, &["snapshot.save"]),
    ("snapshot.load_ms", "ms", 1e3, &["snapshot.load"]),
    ("pta.restore_ms", "ms", 1e3, &["pta.restore"]),
    ("serve.server_new_ms", "ms", 1e3, &["serve.server_new"]),
    ("serve.fingerprint_ms", "ms", 1e3, &["serve.fingerprint"]),
    ("serve.answer_fresh_ms", "ms", 1e3, &["serve.answer_fresh"]),
    ("pta.drop_ms", "ms", 1e3, &["pta.drop"]),
];

/// Work counts summed over a scope, as `(metric, scope count)`.
const LAYER_COUNTS: [(&str, &str); 12] = [
    ("mahjong.objects", "mahjong.objects"),
    ("mahjong.merged_objects", "mahjong.merged_objects"),
    ("mahjong.dfa_built", "mahjong.dfa_built"),
    ("mahjong.sig_buckets", "mahjong.sig_buckets"),
    ("pta.worklist_pops", "pta.worklist_pops"),
    ("pta.propagated_objects", "pta.propagated_objects"),
    ("pta.copy_edges", "pta.copy_edges"),
    ("pta.collapse_sweeps", "pta.collapse_sweeps"),
    ("pta.wave_rounds", "pta.wave_rounds"),
    ("pta.scc_collapsed_ptrs", "pta.scc_collapsed_ptrs"),
    ("pta.contexts", "pta.contexts"),
    ("snapshot.bytes", "snapshot.bytes"),
];

/// Index of the set-up or pass span each span belongs to.
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so the parent's root is known.
        root[i] = s.parent.map_or(i, |p| root[p]);
    }
    root
}

/// The per-layer metrics: the persist and query metrics of the served
/// scopes, then the layers. Layer times come from the spans: for each layer,
/// the median over set-ups of its time in one set-up plus the median
/// over passes of its time in one pass. Counts come from the same
/// scopes, combined the same way.
fn per_layer(rec: &Recorder) -> Vec<Metric> {
    let spans = &rec.spans;
    let root = roots(spans);
    let setup_roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == "setup")
        .collect();
    let pass_roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == "pass")
        .collect();
    let mut per_root: BTreeMap<(usize, &str), f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !STRUCTURAL.contains(&s.name) {
            *per_root.entry((root[i], s.name)).or_default() += s.dur_ns() as f64 * 1e-9;
        }
    }
    let combine = |setups: Vec<f64>, passes: Vec<f64>, name: &str, unit: &'static str| {
        let mut setups = setups;
        let base = if setups.is_empty() {
            0.0
        } else {
            stats::median(&mut setups)
        };
        Metric::median(name, unit, passes.into_iter().map(|v| v + base).collect())
    };
    let sum_over = |roots: &[usize], names: &[&str], scale: f64| -> Vec<f64> {
        roots
            .iter()
            .map(|&r| {
                names
                    .iter()
                    .map(|n| per_root.get(&(r, *n)).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    * scale
            })
            .collect()
    };
    let mut out = served_metrics(rec);
    for (name, unit, scale, names) in LAYER_TIMES {
        out.push(combine(
            sum_over(&setup_roots, names, scale),
            sum_over(&pass_roots, names, scale),
            name,
            unit,
        ));
    }
    let count = |scopes: &[recorder::Scope], key: &str| -> Vec<f64> {
        scopes
            .iter()
            .map(|s| s.counts.get(key).copied().unwrap_or(0.0))
            .collect()
    };
    for (name, key) in LAYER_COUNTS {
        out.push(combine(
            count(&rec.setups, key),
            count(&rec.passes, key),
            name,
            "count",
        ));
    }
    let peak = |scopes: &[recorder::Scope]| {
        count(scopes, "pta.pts_peak_words")
            .into_iter()
            .fold(0.0, f64::max)
    };
    out.push(Metric::median(
        "pta.pts_peak_words",
        "count",
        vec![peak(&rec.setups).max(peak(&rec.passes))],
    ));
    let total = |key: &str| -> f64 {
        count(&rec.setups, key)
            .iter()
            .chain(&count(&rec.passes, key))
            .sum()
    };
    out.push(Metric::median(
        "pta.dedup_ratio",
        "ratio",
        vec![total("pta.dedup_hits") / total("pta.seals")],
    ));
    let per_query = |span: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_ns() as f64 / work::BATCH as f64)
            .collect()
    };
    for class in Class::ALL {
        out.push(Metric::median(
            &format!("{}_ns", class.span()),
            "ns",
            per_query(class.span()),
        ));
    }
    // The tail of the mixed batches: too noisy between processes on a
    // shared host to carry an end-to-end bound, so it is reported here.
    let mut mixed = per_query(work::MIX_SPAN);
    let p99 = stats::quantile(&mut mixed, 0.99);
    let summary = Summary {
        median: p99,
        ..Summary::of(mixed)
    };
    out.push(Metric {
        name: "serve.query_ns_p99".into(),
        unit: "ns",
        value: p99,
        summary,
    });
    // Tracing cost and coverage of each pass.
    let pass_ns: Vec<f64> = pass_roots
        .iter()
        .map(|&r| spans[r].dur_ns() as f64)
        .collect();
    let coverage: Vec<f64> = pass_roots
        .iter()
        .map(|&r| {
            let layers: f64 = per_root
                .iter()
                .filter(|((pr, _), _)| *pr == r)
                .map(|(_, v)| v)
                .sum();
            100.0 * layers * 1e9 / spans[r].dur_ns() as f64
        })
        .collect();
    let spans_per_pass: Vec<f64> = pass_roots
        .iter()
        .map(|&r| root.iter().filter(|&&x| x == r).count() as f64)
        .collect();
    let cost = recorder::span_cost_ns();
    let overhead: Vec<f64> = spans_per_pass
        .iter()
        .zip(&pass_ns)
        .map(|(n, wall)| 100.0 * n * cost / wall)
        .collect();
    out.push(Metric::median(
        "trace.wall_s",
        "s",
        pass_ns.iter().map(|ns| ns * 1e-9).collect(),
    ));
    out.push(Metric::median("trace.coverage_pct", "%", coverage));
    out.push(Metric::median("trace.overhead_pct", "%", overhead));
    out
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn report(args: &Args, b: &Bench<'_>, metrics: &[Metric]) {
    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "perfbench: {} seed {} ({mode}): {} set-ups, {} passes, {} attempted, {} failed",
        args.workload,
        args.seed,
        b.rec.setups.len(),
        b.rec.passes.len(),
        b.ops.attempted,
        b.ops.failed
    );
    for m in metrics {
        eprintln!(
            "  {:<26} {:>16.4} {:<6} (min {:.4}, max {:.4}, n {})",
            m.name, m.value, m.unit, m.summary.min, m.summary.max, m.summary.n
        );
    }
}

/// Per-cell solver seconds and outcome across all scopes.
fn cells(b: &Bench<'_>) -> BTreeMap<String, (Vec<f64>, bool)> {
    let mut out: BTreeMap<String, (Vec<f64>, bool)> = BTreeMap::new();
    for scope in b.rec.setups.iter().chain(&b.rec.passes) {
        for (key, secs, ok) in &scope.cells {
            let e = out.entry(key.clone()).or_insert((Vec::new(), true));
            e.0.push(*secs);
            e.1 &= ok;
        }
    }
    out
}

fn record_json(args: &Args, b: &Bench<'_>, metrics: &[Metric]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"perfbench_record\": 1, \"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {nproc}, \"git_rev\": \"{}\", \"threads\": {{\"solver\": {t}, \"mahjong\": {t}}}, \
         \"scales\": {{\"table2\": {}, \"mahjong\": {}, \"serve\": {}}}, \"setup_repeats\": {}, \"passes\": {}, \
         \"batch\": {}, \"budget_s\": {}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        work::TABLE2_SCALE,
        work::MAHJONG_SCALE,
        work::SERVE_SCALE,
        b.rec.setups.len(),
        b.rec.passes.len(),
        work::BATCH,
        work::BUDGET_SECS,
        b.ops.failed == 0,
        b.ops.attempted,
        b.ops.failed,
        t = b.threads,
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"unit\": \"{}\", \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
            m.name,
            m.unit,
            m.value,
            finite(m.summary.median),
            finite(m.summary.q1),
            finite(m.summary.q3),
            finite(m.summary.min),
            finite(m.summary.max),
            m.summary.n
        );
    }
    s.push_str("}, \"cells\": {");
    for (i, (key, (secs, ok))) in cells(b).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let sum = Summary::of(secs);
        let _ = write!(
            s,
            "{sep}\"{key}\": {{\"unit\": \"s\", \"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"outcome\": \"{}\"}}",
            sum.median,
            sum.min,
            sum.max,
            sum.n,
            if ok { "ok" } else { "over_budget" }
        );
    }
    s.push_str("}}");
    s
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn result_json(b: &Bench<'_>, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        b.ops.failed == 0,
        b.ops.attempted,
        b.ops.failed,
        body.join(", ")
    )
}

/// Spans as a Chrome trace (`chrome://tracing`, Perfetto), one complete
/// event per span with its parent index in `args`.
fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {i}, \"parent\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64)
            )
        })
        .collect();
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

/// Prints `expected.tsv` for every cell the workloads check.
fn emit_expected(threads: usize) {
    println!("# perfbench expected outputs: key, canonical fingerprint, call-graph edges,");
    println!("# poly call sites, may-fail casts. Regenerate with --emit-expected.");
    let mut programs: BTreeMap<(&str, usize), (jir::Program, pta::MergedObjectMap)> =
        BTreeMap::new();
    for (name, scale, sens, mahjong) in work::all_cells() {
        let (program, mom) = programs.entry((name, scale)).or_insert_with(|| {
            let program = workloads::dacapo::workload(name, scale).program;
            let pre = pta::pre_analysis(&program).expect("ci fits its budget");
            let config = mahjong::MahjongConfig {
                threads,
                ..Default::default()
            };
            let mom = mahjong::build_heap_abstraction(&program, &pre, &config).mom;
            (program, mom)
        });
        let result = work::solve(program, sens, mahjong.then(|| mom.clone()), threads)
            .unwrap_or_else(|_| panic!("{name}@{scale} {} fits its budget", sens.name()));
        let clients = work::client_triple(&clients::ClientMetrics::compute(program, &result));
        let fp = bench::serve::canonical_fingerprint(program, &result);
        let key = format!("{name}@{scale}.{}", work::cell_name(sens, mahjong));
        println!("{}", expected::line(&key, fp, clients));
    }
}
