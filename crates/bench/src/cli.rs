//! Shared command-line plumbing for the workspace binaries.
//!
//! `repro` and `mahjong_cli` accept the same observability and
//! execution flags (`--threads`, `--metrics-json`, `--trace`,
//! `--bench-json`/`--force`, `--heartbeat`). This module owns the one
//! parser, the one `--help` section, and the one record-emission path
//! for them, so the two binaries cannot drift: a flag added here is
//! parsed, documented, and honored identically in both.
//!
//! Binaries keep their own argument loops for binary-specific flags
//! and delegate everything else to [`CommonOpts::try_parse`]:
//!
//! ```no_run
//! let mut common = bench::cli::CommonOpts::default();
//! let mut args = std::env::args().skip(1);
//! while let Some(arg) = args.next() {
//!     match common.try_parse(&arg, &mut args) {
//!         Ok(true) => continue, // a shared flag; consumed
//!         Ok(false) => { /* binary-specific handling of `arg` */ }
//!         Err(msg) => { eprintln!("{msg}"); std::process::exit(2) }
//!     }
//! }
//! ```

use std::time::Duration;

/// Options every workspace binary accepts, parsed by
/// [`CommonOpts::try_parse`] and rendered by [`CommonOpts::HELP`].
#[derive(Clone, Debug, Default)]
pub struct CommonOpts {
    /// Worker count as given (`None` = flag absent, the binary's
    /// default applies; `Some(0)` = one per available hardware thread;
    /// resolve with [`CommonOpts::resolve_threads`]). Drives Mahjong's
    /// merge phase and the serve bench; the solver ignores it.
    pub threads: Option<usize>,
    /// `--metrics-json PATH`: dump the telemetry registry as
    /// JSON-Lines on exit.
    pub metrics_json: Option<String>,
    /// `--trace PATH`: write a Chrome `trace_event` file on exit.
    pub trace: Option<String>,
    /// `--bench-json PATH`: where the benchmark record lands. Without
    /// it, the record defaults to `BENCH_pta.json` next to the
    /// `--metrics-json` file (see [`CommonOpts::bench_target`]).
    pub bench_json: Option<String>,
    /// `--force`: allow overwriting an existing benchmark record.
    pub force: bool,
    /// `--heartbeat SECS`: stderr progress pulse period (0 = off).
    pub heartbeat: u64,
}

impl CommonOpts {
    /// The `--help` paragraph for the shared flags, rendered verbatim
    /// by every binary so the documentation cannot drift either.
    pub const HELP: &'static str = "\
shared options:
  --threads N          Mahjong merge / serve worker count (0 = one per
                       hardware thread); the solver is sequential
  --metrics-json PATH  dump the telemetry registry as JSON-Lines
  --trace PATH         write a Chrome trace_event file (about:tracing)
  --bench-json PATH    write the benchmark record here (default:
                       BENCH_pta.json next to --metrics-json); a
                       Mahjong-phase record is written as a sibling
  --force              overwrite an existing benchmark record
  --heartbeat SECS     print a progress pulse to stderr every SECS
  --help, -h           print this help";

    /// Attempts to consume `arg` as a shared flag, pulling its value
    /// from `rest` when it takes one. Returns `Ok(true)` when
    /// consumed, `Ok(false)` when `arg` is not a shared flag (the
    /// binary's own parser should handle it), and `Err` with a
    /// ready-to-print message when a shared flag's value is missing
    /// or malformed.
    pub fn try_parse(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--threads" => {
                self.threads = Some(
                    rest.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--threads needs a number")?,
                );
            }
            "--metrics-json" => {
                self.metrics_json =
                    Some(rest.next().ok_or("--metrics-json needs a path")?);
            }
            "--trace" => {
                self.trace = Some(rest.next().ok_or("--trace needs a path")?);
            }
            "--bench-json" => {
                self.bench_json = Some(rest.next().ok_or("--bench-json needs a path")?);
            }
            "--force" => self.force = true,
            "--heartbeat" => {
                self.heartbeat = rest
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--heartbeat needs a number of seconds")?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves the flag to a worker count, with `default` applying
    /// when `--threads` was not given at all. `--threads 0` (and a
    /// `default` of 0) mean one shard per available hardware thread.
    pub fn resolve_threads(&self, default: usize) -> usize {
        match self.threads.unwrap_or(default) {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Where the benchmark record lands: `--bench-json` if given,
    /// otherwise `BENCH_pta.json` next to the `--metrics-json` file,
    /// otherwise nowhere.
    pub fn bench_target(&self) -> Option<String> {
        self.bench_json
            .clone()
            .or_else(|| self.metrics_json.as_deref().map(bench_pta_path))
    }

    /// Validates the benchmark-record target up front: refusing to
    /// clobber only *after* a multi-minute run would throw the work
    /// away. Exits with status 1 on a would-clobber.
    pub fn check_bench_target(&self, bin: &str) {
        if let Some(bench) = self.bench_target() {
            refuse_clobber(bin, &bench, self.force);
        }
    }

    /// Emits the end-of-run artifacts the shared flags configure: the
    /// `--metrics-json` JSON-Lines dump, the benchmark-record pair
    /// (pta record plus the Mahjong sibling, both with no-clobber
    /// semantics), and the `--trace` Chrome trace. `header` stamps the
    /// records' provenance fields.
    pub fn emit_artifacts(&self, bin: &str, header: &RecordHeader) {
        if let Some(path) = &self.metrics_json {
            write_or_die(bin, path, &obs::export_jsonl());
        }
        if let Some(bench) = self.bench_target() {
            // Re-check: a file may have appeared while the run went on.
            refuse_clobber(bin, &bench, self.force);
            write_or_die(bin, &bench, &bench_pta_json(header));
            eprintln!("{bin}: wrote {bench}");
            // The Mahjong-phase record rides along as a sibling file
            // with the same no-clobber semantics (but skipping, not
            // aborting — the main record is already on disk here).
            let mahjong = bench_mahjong_path(&bench);
            if !self.force && std::path::Path::new(&mahjong).exists() {
                eprintln!("{bin}: keeping existing {mahjong} (pass --force to replace it)");
            } else {
                write_or_die(bin, &mahjong, &bench_mahjong_json(header));
                eprintln!("{bin}: wrote {mahjong}");
            }
        }
        if let Some(path) = &self.trace {
            write_or_die(bin, path, &obs::export_chrome_trace());
        }
    }

    /// Spawns the `--heartbeat` stderr pulse (detached; dies with the
    /// process). Reads the solver's live counters, which are updated
    /// once per wave, so the pulse tracks progress without touching
    /// hot paths.
    pub fn start_heartbeat(&self, bin: &'static str) {
        let secs = self.heartbeat;
        if secs == 0 {
            return;
        }
        let start = std::time::Instant::now();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs(secs));
            eprintln!(
                "{bin}: [{}s] wave {} · {} pops · {} live words",
                start.elapsed().as_secs(),
                obs::counter("pta.live_wave_rounds").get(),
                obs::counter("pta.live_worklist_pops").get(),
                obs::gauge("pta.live_pts_words").get(),
            );
        });
    }
}

/// Provenance fields stamped into both benchmark records.
#[derive(Clone, Debug)]
pub struct RecordHeader {
    /// Experiment name (`"cli"` for the standalone tool).
    pub exp: String,
    /// Workload scale factor (0 when not applicable).
    pub scale: usize,
    /// Time budget in seconds.
    pub budget_secs: u64,
    /// Resolved shard count.
    pub threads: usize,
}

/// Exits with status 1 if `bench` already exists and `force` is off —
/// benchmark records are committed artifacts and never silently
/// replaced.
pub fn refuse_clobber(bin: &str, bench: &str, force: bool) {
    if !force && std::path::Path::new(bench).exists() {
        eprintln!("{bin}: refusing to overwrite {bench} (pass --force to replace it)");
        std::process::exit(1);
    }
}

/// Writes `contents` to `path` or exits with a diagnostic.
pub fn write_or_die(bin: &str, path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("{bin}: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `BENCH_pta.json` lands next to the `--metrics-json` file.
pub fn bench_pta_path(metrics_path: &str) -> String {
    let p = std::path::Path::new(metrics_path);
    p.with_file_name("BENCH_pta.json")
        .to_string_lossy()
        .into_owned()
}

/// The Mahjong benchmark record lands next to the pta record:
/// `BENCH_pta.json` → `BENCH_mahjong.json`, and any other
/// `BENCH_<label>.json` → `BENCH_mahjong_<label>.json` (the pairing
/// `scripts/bench_table.py` reassembles).
pub fn bench_mahjong_path(bench_path: &str) -> String {
    let p = std::path::Path::new(bench_path);
    let name = p
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("BENCH_pta.json");
    let sibling = if name == "BENCH_pta.json" {
        "BENCH_mahjong.json".to_owned()
    } else if let Some(rest) = name.strip_prefix("BENCH_") {
        format!("BENCH_mahjong_{rest}")
    } else {
        format!("mahjong_{name}")
    };
    p.with_file_name(sibling).to_string_lossy().into_owned()
}

/// A small, stable-schema benchmark record for per-PR tracking: phase
/// wall-clock, propagation-volume counters, the peak (physical,
/// deduplicated) points-to footprint in 64-bit words, and the
/// hash-consing counters behind it.
pub fn bench_pta_json(h: &RecordHeader) -> String {
    let r = obs::registry();
    let phase = |name: &str| r.phase_time(name).as_secs_f64();
    format!(
        "{{\n  \"exp\": \"{}\",\n  \"scale\": {},\n  \"budget_secs\": {},\n  \"threads\": {},\n  \
         \"phase_secs\": {{\n    \"pre_analysis\": {:.6},\n    \"mahjong\": {:.6},\n    \
         \"main_analysis\": {:.6}\n  }},\n  \
         \"worklist_pops\": {},\n  \"propagated_objects\": {},\n  \"delta_objects\": {},\n  \
         \"copy_edges\": {},\n  \"pts_peak_words\": {},\n  \
         \"pts_interned\": {},\n  \"pts_dedup_hits\": {},\n  \"intern_probe_ns\": {},\n  \
         \"scc_collapsed_ptrs\": {},\n  \"collapse_sweeps\": {},\n  \"order_search_edges\": {},\n  \
         \"wave_rounds\": {},\n  \
         \"par_shards\": {},\n  \"par_steal_none\": {},\n  \"wave_barrier_ns\": {},\n  \
         \"par_merge_shards\": {},\n  \"mask_ranges\": {},\n  \"range_union_hits\": {}\n}}\n",
        h.exp,
        h.scale,
        h.budget_secs,
        h.threads,
        phase("pre_analysis"),
        phase("mahjong.fpg_build") + phase("mahjong.automata_build")
            + phase("mahjong.equivalence_check"),
        phase("main_analysis"),
        obs::counter("pta.worklist_pops").get(),
        obs::counter("pta.propagated_objects").get(),
        obs::counter("pta.delta_objects").get(),
        obs::counter("pta.copy_edges").get(),
        obs::gauge("pta.pts_peak_words").get(),
        obs::counter("pta.pts_interned").get(),
        obs::counter("pta.pts_dedup_hits").get(),
        obs::counter("pta.intern_probe_ns").get(),
        obs::counter("pta.scc_collapsed_ptrs").get(),
        obs::counter("pta.collapse_sweeps").get(),
        obs::counter("pta.order_search_edges").get(),
        obs::counter("pta.wave_rounds").get(),
        obs::counter("pta.par_shards").get(),
        obs::counter("pta.par_steal_none").get(),
        obs::counter("pta.wave_barrier_ns").get(),
        obs::counter("pta.par_merge_shards").get(),
        obs::counter("pta.mask_ranges").get(),
        obs::counter("pta.range_union_hits").get(),
    )
}

/// The Mahjong pre-analysis record: per-phase wall-clock plus the
/// signature-pipeline counters (`hk_runs` is 0 on the fast path).
pub fn bench_mahjong_json(h: &RecordHeader) -> String {
    let r = obs::registry();
    let phase = |name: &str| r.phase_time(name).as_secs_f64();
    format!(
        "{{\n  \"exp\": \"{}\",\n  \"scale\": {},\n  \"threads\": {},\n  \
         \"phase_secs\": {{\n    \"fpg_build\": {:.6},\n    \"automata_build\": {:.6},\n    \
         \"equivalence_check\": {:.6}\n  }},\n  \
         \"objects\": {},\n  \"merged_objects\": {},\n  \"not_single_type\": {},\n  \
         \"dfa_built\": {},\n  \"sig_buckets\": {},\n  \"hk_runs\": {},\n  \
         \"canon_ns\": {},\n  \"shard_skew\": {}\n}}\n",
        h.exp,
        h.scale,
        h.threads,
        phase("mahjong.fpg_build"),
        phase("mahjong.automata_build"),
        phase("mahjong.equivalence_check"),
        obs::counter("mahjong.objects").get(),
        obs::counter("mahjong.merged_objects").get(),
        obs::counter("mahjong.not_single_type").get(),
        obs::counter("mahjong.dfa_built").get(),
        obs::counter("mahjong.sig_buckets").get(),
        obs::counter("mahjong.hk_runs").get(),
        obs::counter("mahjong.canon_ns").get(),
        obs::gauge("mahjong.shard_skew").get(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<(CommonOpts, Vec<String>), String> {
        let mut opts = CommonOpts::default();
        let mut leftover = Vec::new();
        let mut it = tokens.iter().map(|s| s.to_string());
        while let Some(arg) = it.next() {
            if !opts.try_parse(&arg, &mut it)? {
                leftover.push(arg);
            }
        }
        Ok((opts, leftover))
    }

    #[test]
    fn shared_flags_parse_and_leftovers_pass_through() {
        let (o, rest) = parse(&[
            "--exp", "table2", "--threads", "4", "--force", "--metrics-json", "m.jsonl",
            "--heartbeat", "30", "--bench-json", "b.json", "--trace", "t.json",
        ])
        .unwrap();
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.resolve_threads(1), 4);
        assert!(o.force);
        assert_eq!(o.metrics_json.as_deref(), Some("m.jsonl"));
        assert_eq!(o.bench_json.as_deref(), Some("b.json"));
        assert_eq!(o.trace.as_deref(), Some("t.json"));
        assert_eq!(o.heartbeat, 30);
        // `--exp table2` is not shared; the binary's own loop sees it.
        assert_eq!(rest, vec!["--exp", "table2"]);
    }

    #[test]
    fn absent_threads_flag_keeps_the_binary_default() {
        let o = CommonOpts::default();
        assert_eq!(o.resolve_threads(1), 1);
        assert!(o.resolve_threads(0) >= 1); // auto: hardware threads
    }

    #[test]
    fn malformed_shared_flags_error() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "lots"]).is_err());
        assert!(parse(&["--metrics-json"]).is_err());
        assert!(parse(&["--heartbeat", "soon"]).is_err());
    }

    #[test]
    fn bench_target_defaults_next_to_metrics() {
        let (o, _) = parse(&["--metrics-json", "/tmp/x/m.jsonl"]).unwrap();
        assert_eq!(o.bench_target().as_deref(), Some("/tmp/x/BENCH_pta.json"));
        let (o, _) = parse(&["--bench-json", "/tmp/y/BENCH_pr9.json"]).unwrap();
        assert_eq!(o.bench_target().as_deref(), Some("/tmp/y/BENCH_pr9.json"));
        assert!(CommonOpts::default().bench_target().is_none());
    }

    #[test]
    fn mahjong_sibling_naming() {
        assert_eq!(bench_mahjong_path("a/BENCH_pta.json"), "a/BENCH_mahjong.json");
        assert_eq!(
            bench_mahjong_path("a/BENCH_pta_t4.json"),
            "a/BENCH_mahjong_pta_t4.json"
        );
        assert_eq!(bench_mahjong_path("a/other.json"), "a/mahjong_other.json");
    }

    #[test]
    fn help_names_every_shared_flag() {
        for flag in
            ["--threads", "--metrics-json", "--trace", "--bench-json", "--force", "--heartbeat"]
        {
            assert!(CommonOpts::HELP.contains(flag), "HELP lacks {flag}");
        }
    }
}
