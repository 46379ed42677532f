//! Schema check of the committed benchmark records, and a check that
//! the writers build them from the runs' own stats.
//!
//! `BENCH_pta.json`, `BENCH_mahjong.json` and `BENCH_serve.json` at the
//! repository root are written by `bench::cli::bench_pta_json`,
//! `bench::cli::bench_mahjong_json` and `bench::serve::render_json`.
//! Each committed record must carry exactly the keys (and value kinds)
//! the current writer renders: a key the writer dropped is as stale as
//! a key it lacks. Regenerate the records with the commands in
//! `README.md` whenever a writer changes.

use std::collections::BTreeMap;

use bench::cli::{bench_mahjong_json, bench_pta_json, RecordHeader};
use bench::profile::{merge_counts, stat_counts, Runs};
use bench::serve::{render_json, ServeHeader, ServeOpts, ServeReport, CLASSES};
use obs::json::Value;

fn committed(name: &str) -> Value {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    obs::json::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
}

/// Every leaf of a record as `dotted.path → kind`.
fn shape(v: &Value) -> BTreeMap<String, &'static str> {
    fn walk(v: &Value, path: String, out: &mut BTreeMap<String, &'static str>) {
        let kind = match v {
            Value::Object(pairs) => {
                for (k, child) in pairs {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(child, p, out);
                }
                return;
            }
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
        };
        out.insert(path, kind);
    }
    let mut out = BTreeMap::new();
    walk(v, String::new(), &mut out);
    out
}

fn assert_same_shape(name: &str, record: &Value, rendered: &str) {
    let expected = obs::json::parse(rendered).expect("the writer renders valid JSON");
    assert_eq!(
        shape(record),
        shape(&expected),
        "{name} does not match the current writer's schema; regenerate it"
    );
}

fn header() -> RecordHeader {
    RecordHeader {
        exp: "table2".into(),
        scale: 4,
        budget_secs: 60,
        threads: 2,
        nproc: 2,
    }
}

#[test]
fn pta_record_matches_its_writer() {
    assert_same_shape(
        "BENCH_pta.json",
        &committed("BENCH_pta.json"),
        &bench_pta_json(&header(), &Runs::default()),
    );
}

#[test]
fn mahjong_record_matches_its_writer() {
    let rendered = bench_mahjong_json(&header(), &Runs::default());
    assert_same_shape(
        "BENCH_mahjong.json",
        &committed("BENCH_mahjong.json"),
        &rendered,
    );
}

/// The count fields of a rendered record: every top-level number but
/// the header's.
fn count_fields(rendered: &str) -> Vec<(String, u64)> {
    let Value::Object(pairs) = obs::json::parse(rendered).expect("the writer renders valid JSON")
    else {
        panic!("a record is an object");
    };
    pairs
        .into_iter()
        .filter(|(k, _)| !matches!(k.as_str(), "scale" | "budget_secs" | "threads" | "nproc"))
        .filter_map(|(k, v)| v.as_u64().map(|n| (k, n)))
        .collect()
}

/// The count of `name` among `counts`, by field name.
fn count_of(counts: &[(&'static str, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no stats field named `{name}`"))
        .1
}

/// After one luindex@1 Table 2 pass, every count field of both records
/// equals the sum of that field over the pass's solver runs (ci plus
/// the ten cells) or over its one merge, and `pts_peak_words` equals
/// the largest run's.
#[test]
fn records_sum_the_runs_own_stats() {
    bench::profile::take();
    let _ = bench::table2_program("luindex", 1, pta::Budget::seconds(120));
    let runs = bench::profile::take();
    assert_eq!(runs.rows.len(), 11);
    assert_eq!(runs.merges.len(), 1);

    let pta = count_fields(&bench_pta_json(&header(), &runs));
    assert_eq!(pta.len(), 13, "{pta:?}");
    for (name, value) in &pta {
        let per_run: Vec<u64> = runs
            .rows
            .iter()
            .map(|r| match name.as_str() {
                "intern_probe_ns" => r.stats.intern_probe_ns,
                _ => count_of(&stat_counts(&r.stats), name),
            })
            .collect();
        let expected = match name.as_str() {
            "pts_peak_words" => per_run.iter().copied().max().unwrap(),
            _ => per_run.iter().sum(),
        };
        assert_eq!(*value, expected, "BENCH_pta.json `{name}`");
    }
    assert!(pta.iter().any(|(n, v)| n == "worklist_pops" && *v > 0), "{pta:?}");

    let mahjong = count_fields(&bench_mahjong_json(&header(), &runs));
    assert_eq!(mahjong.len(), 7, "{mahjong:?}");
    for (name, value) in &mahjong {
        let expected: u64 = runs
            .merges
            .iter()
            .map(|m| count_of(&merge_counts(&m.stats), name))
            .sum();
        assert_eq!(*value, expected, "BENCH_mahjong.json `{name}`");
    }
    assert!(mahjong.iter().any(|(n, v)| n == "machine_states" && *v > 0), "{mahjong:?}");
}

#[test]
fn serve_record_matches_its_writer_and_adds_up() {
    let record = committed("BENCH_serve.json");
    let header = ServeHeader {
        program: "luindex".into(),
        scale: 2,
        analysis: "2obj".into(),
        heap: "mahjong".into(),
        source: "snapshot".into(),
        warm_start_ms: 1.0,
        fingerprint: 0,
        nproc: 2,
    };
    let report = ServeReport {
        opts: ServeOpts::default(),
        wall_secs: 1.0,
        qps: 1.0,
        checksum: 0,
        classes: CLASSES.into_iter().map(|c| (c, 0)).collect(),
    };
    assert_same_shape("BENCH_serve.json", &record, &render_json(&header, &report));

    assert_eq!(record.get("exp").and_then(Value::as_str), Some("serve"));
    let source = record.get("source").and_then(Value::as_str);
    assert!(
        matches!(source, Some("snapshot" | "fresh")),
        "source {source:?}"
    );
    for key in ["fingerprint", "checksum"] {
        let v = record.get(key).and_then(Value::as_str).unwrap_or_default();
        assert!(
            v.starts_with("0x"),
            "{key} {v:?} is not a 0x-prefixed hex string"
        );
    }
    let classes = record.get("classes").expect("classes present");
    let total: u64 = CLASSES
        .iter()
        .map(|c| {
            classes
                .get(c)
                .and_then(|s| s.get("count"))
                .and_then(Value::as_u64)
                .unwrap()
        })
        .sum();
    assert_eq!(Some(total), record.get("queries").and_then(Value::as_u64));
}
