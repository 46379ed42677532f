//! CLI behavior of the `repro` binary that the experiment tables don't
//! exercise: argument validation, error reporting, and the shared-flag
//! contract with `mahjong_cli` (both binaries parse the shared options
//! through `bench::cli::CommonOpts` and render the same help section).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn mahjong_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mahjong_cli"))
}

/// Both binaries answer `--help` with their own usage followed by one
/// identical shared-options section — the single rendering
/// `bench::cli` owns. A drift between the two is a bug.
#[test]
fn help_renders_one_shared_section_in_both_binaries() {
    let extract_shared = |cmd: &mut Command| {
        let out = cmd.arg("--help").output().expect("binary runs");
        assert!(out.status.success(), "--help must exit 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let at = stdout
            .find("shared options:")
            .unwrap_or_else(|| panic!("no shared section in:\n{stdout}"));
        stdout[at..].to_owned()
    };
    let from_repro = extract_shared(&mut repro());
    let from_mahjong = extract_shared(&mut mahjong_cli());
    assert_eq!(from_repro, from_mahjong, "the shared help section drifted");
    for flag in ["--threads", "--metrics-json", "--trace", "--bench-json", "--force", "--heartbeat"]
    {
        assert!(from_repro.contains(flag), "shared section lacks {flag}");
    }
}

/// Both binaries reject unknown flags loudly, echoing the bad flag.
#[test]
fn unknown_flags_fail_in_both_binaries() {
    for mut cmd in [repro(), mahjong_cli()] {
        let out = cmd.arg("--bogus").output().expect("binary runs");
        assert!(!out.status.success(), "--bogus must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument `--bogus`"), "stderr: {stderr}");
    }
}

/// A shared flag with a malformed value fails identically through the
/// one parser (no silent fallback to a default).
#[test]
fn malformed_shared_flag_values_fail_in_both_binaries() {
    for mut cmd in [repro(), mahjong_cli()] {
        let out = cmd.args(["--threads", "lots"]).output().expect("binary runs");
        assert!(!out.status.success(), "--threads lots must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--threads needs a number"), "stderr: {stderr}");
    }
}

/// An unknown experiment name must fail loudly: non-zero exit, the bad
/// name echoed, and the full list of valid experiments so the caller
/// can fix the typo without reading the source.
#[test]
fn unknown_experiment_lists_valid_names_and_fails() {
    let out = repro()
        .args(["--exp", "tabel2"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "unknown experiment must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `tabel2`"), "stderr: {stderr}");
    for name in [
        "motivation",
        "fig8",
        "fig9",
        "table1",
        "pre_analysis",
        "table2",
        "ablations",
        "alias",
        "all",
    ] {
        assert!(stderr.contains(name), "valid-list lacks `{name}`: {stderr}");
    }
}

/// Unknown flags keep failing fast too (guards the arg parser).
#[test]
fn unknown_flag_fails() {
    let out = repro().args(["--bogus"]).output().expect("repro runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--bogus`"), "stderr: {stderr}");
}

/// A known experiment on the smallest workload succeeds end to end.
#[test]
fn known_experiment_succeeds() {
    let out = repro()
        .args(["--exp", "fig9", "--scale", "1"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 9"), "stdout: {stdout}");
}

/// `--profile` writes a parseable solver profile to the
/// `--profile-json` path: a run header and one row per solver run.
/// fig9 runs only checkstyle's pre-analysis, so it holds one `ci` row.
#[test]
fn profile_flag_writes_parseable_profile() {
    let dir = std::env::temp_dir().join(format!("repro_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join("PROFILE_pta.json");

    let out = repro()
        .args([
            "--exp",
            "fig9",
            "--scale",
            "1",
            "--profile",
            "--profile-json",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&profile).expect("profile written");
    let doc = obs::json::parse(&text).expect("profile parses");
    assert_eq!(doc.get("exp").unwrap().as_str(), Some("fig9"));
    assert!(doc.get("threads").unwrap().as_u64().is_some());
    let rows = doc.get("rows").expect("profile rows present").as_array().unwrap();
    let keys: Vec<_> = rows.iter().map(|r| r.get("key").unwrap().as_str().unwrap()).collect();
    assert_eq!(keys, ["checkstyle.ci"]);
    for key in [
        "finished", "elapsed", "init", "methods", "order", "propagate", "seal", "finalize",
        "pops", "propagated_objects", "waves", "contexts", "method_contexts",
        "physical_words", "logical_words",
    ] {
        assert!(rows[0].get(key).is_some(), "row lacks `{key}`");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics-json` writes spans and run rows as JSON-Lines: every
/// line parses, there is one `row` line per `PROFILE_pta.json` row,
/// keyed alike, and the dump holds nothing but phases, spans, rows and
/// merges.
#[test]
fn metrics_json_dumps_one_row_per_profile_row() {
    let dir = std::env::temp_dir().join(format!("repro_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.jsonl");
    let profile = dir.join("PROFILE_pta.json");

    let out = repro()
        .args(["--exp", "fig9", "--scale", "1", "--metrics-json"])
        .arg(&metrics)
        .arg("--profile-json")
        .arg(&profile)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&profile).expect("profile written");
    let doc = obs::json::parse(&text).expect("profile parses");
    let profile_keys: Vec<String> = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("profile rows present")
        .iter()
        .map(|r| r.get("key").unwrap().as_str().unwrap().to_owned())
        .collect();
    assert_eq!(profile_keys, ["checkstyle.ci"]);

    let dump = std::fs::read_to_string(&metrics).expect("metrics written");
    let mut row_keys = Vec::new();
    for line in dump.lines() {
        let v = obs::json::parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        let kind = v.get("type").and_then(|t| t.as_str()).expect("every line has a type");
        assert!(
            matches!(kind, "phase" | "span" | "row" | "mahjong"),
            "unexpected `{kind}` line: {line}"
        );
        if kind == "row" {
            row_keys.push(v.get("key").unwrap().as_str().unwrap().to_owned());
        }
    }
    assert_eq!(row_keys, profile_keys);

    std::fs::remove_dir_all(&dir).ok();
}

/// The benchmark record honors `--bench-json`, refuses to clobber an
/// existing file without `--force`, and overwrites with it. The
/// refusal must happen *before* the experiment runs (exit is fast).
#[test]
fn bench_json_never_clobbers_without_force() {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("BENCH_pta.json");
    let bench_arg = bench.to_str().unwrap();

    // First write: target is fresh, no --force needed.
    let out = repro()
        .args(["--exp", "fig9", "--scale", "1", "--bench-json", bench_arg])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let first = std::fs::read_to_string(&bench).expect("bench record written");
    assert!(first.contains("\"exp\": \"fig9\""), "record: {first}");

    // Second write without --force: refused, file untouched.
    let out = repro()
        .args(["--exp", "fig9", "--scale", "1", "--bench-json", bench_arg])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "clobber without --force must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to overwrite"), "stderr: {stderr}");
    assert_eq!(std::fs::read_to_string(&bench).unwrap(), first, "file was modified");

    // With --force the record is replaced.
    let out = repro()
        .args(["--exp", "fig9", "--scale", "1", "--bench-json", bench_arg, "--force"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    std::fs::remove_dir_all(&dir).ok();
}

/// The full serving pipeline: `--save-snapshot` persists a warm-start
/// image, `--load-snapshot --serve-bench` answers the query mix from
/// it, the fingerprints printed on the two sides match, and the serve
/// record carries a count for every query class.
#[test]
fn snapshot_save_load_serve_roundtrip() {
    let dir = std::env::temp_dir().join(format!("repro_snap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("figure1-like.mjsn");
    let record = dir.join("BENCH_serve.json");

    let out = repro()
        .args(["--programs", "luindex", "--scale", "1", "--save-snapshot", snap.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let saved = String::from_utf8_lossy(&out.stdout).to_string();
    let fp_of = |text: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix("repro: fingerprint "))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no fingerprint line in:\n{text}"))
    };
    let saved_fp = fp_of(&saved);

    let out = repro()
        .args([
            "--load-snapshot",
            snap.to_str().unwrap(),
            "--serve-bench",
            "--serve-queries",
            "5000",
            "--serve-json",
            record.to_str().unwrap(),
        ])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let loaded = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(saved_fp, fp_of(&loaded), "save → load changed the result fingerprint");

    let text = std::fs::read_to_string(&record).expect("serve record written");
    let doc = obs::json::parse(&text).expect("serve record parses");
    assert_eq!(doc.get("exp").unwrap().as_str(), Some("serve"));
    assert_eq!(doc.get("source").unwrap().as_str(), Some("snapshot"));
    assert_eq!(doc.get("queries").unwrap().as_u64(), Some(5000));
    assert_eq!(doc.get("fingerprint").unwrap().as_str(), Some(saved_fp.as_str()));
    let classes = doc.get("classes").expect("classes present");
    for class in ["points_to", "may_alias", "call_targets", "cast_check", "not_found"] {
        let c = classes.get(class).unwrap_or_else(|| panic!("no class {class}"));
        assert!(c.get("count").unwrap().as_u64().is_some());
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupted snapshot is refused with a diagnostic — exit code 2 and
/// a checksum complaint, never a panic backtrace.
#[test]
fn corrupted_snapshot_is_refused_not_panicked() {
    let dir = std::env::temp_dir().join(format!("repro_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("lu.mjsn");

    let out = repro()
        .args(["--programs", "luindex", "--scale", "1", "--save-snapshot", snap.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Flip one byte in the middle of the file.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();

    let out = repro()
        .args(["--load-snapshot", snap.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "corrupted snapshot must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load snapshot"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr shows a panic: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The serving pipeline writes no experiment artifact, so each
/// artifact flag is refused there by name with exit code 2, before any
/// analysis runs or any file is written.
#[test]
fn serving_refuses_artifact_flags() {
    let dir = std::env::temp_dir().join(format!("repro_serve_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("never.mjsn");
    let out_file = dir.join("artifact.json");
    let out_path = out_file.to_str().unwrap();
    let serving: [&[&str]; 3] = [
        &["--save-snapshot", snap.to_str().unwrap()],
        &["--load-snapshot", snap.to_str().unwrap()],
        &["--serve-bench"],
    ];
    let artifacts: [&[&str]; 5] = [
        &["--profile"],
        &["--profile-json", out_path],
        &["--trace", out_path],
        &["--metrics-json", out_path],
        &["--bench-json", out_path],
    ];
    for mode in serving {
        for artifact in artifacts {
            let out = repro()
                .args(["--programs", "luindex", "--scale", "1"])
                .args(mode)
                .args(artifact)
                .output()
                .expect("repro runs");
            let ctx = format!("{mode:?} {artifact:?}");
            assert_eq!(out.status.code(), Some(2), "{ctx} must exit 2");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("{} writes nothing in the serving pipeline", artifact[0])),
                "{ctx}: stderr: {stderr}"
            );
            assert!(!snap.exists() && !out_file.exists(), "{ctx} wrote a file");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Serving options reject nonsense configurations up front.
#[test]
fn unknown_analysis_and_heap_names_fail() {
    for (flag, value, hint) in [
        ("--analysis", "4fun", "unknown --analysis"),
        ("--heap", "cloud", "unknown --heap"),
    ] {
        let out = repro()
            .args(["--programs", "luindex", "--scale", "1", "--serve-bench", flag, value])
            .output()
            .expect("repro runs");
        assert!(!out.status.success(), "{flag} {value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(hint), "stderr: {stderr}");
    }
}
