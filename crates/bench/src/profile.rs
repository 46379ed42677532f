//! The harness's one store of run numbers: one [`ProfileRow`] per
//! solver run, built from that run's [`AnalysisStats`] (the partial
//! stats of a run over its budget included), and one [`MergeRow`] per
//! Mahjong merge, holding its [`MahjongStats`].
//!
//! Rows are keyed the way `perfbench` keys its cells: the pre-analysis
//! of `prepare("luindex", ..)` is `luindex.ci`, and a Table 2 cell is
//! `luindex.2cs` or, under the Mahjong heap, `luindex.M-2cs`
//! (`luindex.T-3obj` under the allocation-type heap). A merge is keyed
//! by its program, `luindex`. `repro --profile` writes the solver rows
//! to `PROFILE_pta.json`; the benchmark records and the
//! `--metrics-json` dump (see [`crate::cli`]) are built from the same
//! [`Runs`].

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

use mahjong::MahjongStats;
use pta::{AnalysisResult, AnalysisStats, Unscalable};

/// One solver run: its cell key, whether it reached the fixpoint, and
/// its stats.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Cell key, e.g. `luindex.M-2cs`.
    pub key: String,
    /// `false` when the run exceeded its budget; `stats` are then the
    /// partial stats of [`Unscalable`].
    pub finished: bool,
    /// The run's stats.
    pub stats: AnalysisStats,
}

impl ProfileRow {
    /// The run's disjoint phases, in run order. `propagate` is the
    /// fixpoint less statement processing and order upkeep; `seal` is
    /// the finalize step that interns the rows, and `finalize` the rest
    /// of result assembly.
    pub fn phases(&self) -> [(&'static str, Duration); 6] {
        let s = &self.stats;
        let seal = Duration::from_nanos(s.intern_probe_ns);
        [
            ("init", s.init_time),
            ("methods", s.methods_time),
            ("order", s.order_time),
            (
                "propagate",
                s.fixpoint_time
                    .saturating_sub(s.methods_time + s.order_time),
            ),
            ("seal", seal),
            ("finalize", s.finalize_time.saturating_sub(seal)),
        ]
    }

    /// The run's work ledger.
    pub fn ledger(&self) -> [(&'static str, u64); 7] {
        let s = &self.stats;
        [
            ("pops", s.worklist_pops),
            ("propagated_objects", s.propagated_objects),
            ("waves", s.wave_rounds),
            ("contexts", s.context_count as u64),
            ("method_contexts", s.reachable_method_contexts),
            ("physical_words", s.pts_peak_words),
            ("logical_words", s.pts_logical_words),
        ]
    }
}

/// Every count field of a run's stats, by field name: what a
/// `--metrics-json` row line carries. The clocks (the `Duration`s and
/// `intern_probe_ns`) are left out.
pub fn stat_counts(s: &AnalysisStats) -> [(&'static str, u64); 18] {
    [
        ("worklist_pops", s.worklist_pops),
        ("propagated_objects", s.propagated_objects),
        ("copy_edges", s.copy_edges),
        ("call_graph_edges", s.call_graph_edges),
        ("reachable_method_contexts", s.reachable_method_contexts),
        ("context_count", s.context_count as u64),
        ("pts_peak_words", s.pts_peak_words),
        ("pts_logical_words", s.pts_logical_words),
        ("pts_interned", s.pts_interned),
        ("pts_dedup_hits", s.pts_dedup_hits),
        ("scc_collapsed_ptrs", s.scc_collapsed_ptrs),
        ("collapse_sweeps", s.collapse_sweeps),
        ("wave_rounds", s.wave_rounds),
        ("dsu_ops", s.dsu_ops),
        ("mask_ranges", s.mask_ranges),
        ("range_union_hits", s.range_union_hits),
        ("order_search_edges", s.order_search_edges),
        ("dispatch_groups", s.dispatch_groups),
    ]
}

/// One Mahjong merge: its program and its stats.
#[derive(Clone, Debug)]
pub struct MergeRow {
    /// Program name, e.g. `luindex`.
    pub key: String,
    /// The merge's stats.
    pub stats: MahjongStats,
}

/// Every count field of a merge's stats, by field name.
pub fn merge_counts(s: &MahjongStats) -> [(&'static str, u64); 8] {
    [
        ("objects", s.objects),
        ("merged_objects", s.merged_objects),
        ("not_single_type", s.not_single_type),
        ("dfa_built", s.dfa_built),
        ("sig_buckets", s.sig_buckets),
        ("machine_states", s.machine_states),
        ("refine_rounds", s.refine_rounds),
        ("max_nfa_states", s.max_nfa_states),
    ]
    .map(|(name, n)| (name, n as u64))
}

/// Everything recorded so far, in run order.
#[derive(Clone, Debug, Default)]
pub struct Runs {
    /// One row per solver run.
    pub rows: Vec<ProfileRow>,
    /// One row per Mahjong merge.
    pub merges: Vec<MergeRow>,
}

impl Runs {
    /// Sums one field over every solver run.
    pub fn sum(&self, field: fn(&AnalysisStats) -> u64) -> u64 {
        self.rows.iter().map(|r| field(&r.stats)).sum()
    }

    /// Sums one field over every merge.
    pub fn merge_sum(&self, field: fn(&MahjongStats) -> usize) -> u64 {
        self.merges.iter().map(|m| field(&m.stats) as u64).sum()
    }

    /// The largest physical points-to footprint of any solver run, in
    /// 64-bit words.
    pub fn peak_words(&self) -> u64 {
        self.rows.iter().map(|r| r.stats.pts_peak_words).max().unwrap_or(0)
    }
}

static RUNS: Mutex<Runs> = Mutex::new(Runs {
    rows: Vec::new(),
    merges: Vec::new(),
});

fn runs() -> std::sync::MutexGuard<'static, Runs> {
    RUNS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Appends the row of one finished or aborted run.
pub fn record(key: String, run: Result<&AnalysisResult, &Unscalable>) {
    let (finished, stats) = match run {
        Ok(r) => (true, r.stats().clone()),
        Err(u) => (false, (*u.stats).clone()),
    };
    runs().rows.push(ProfileRow {
        key,
        finished,
        stats,
    });
}

/// Appends the row of one Mahjong merge.
pub fn record_merge(key: String, stats: &MahjongStats) {
    runs().merges.push(MergeRow {
        key,
        stats: stats.clone(),
    });
}

/// The largest physical points-to footprint among the runs recorded
/// so far (what the `--heartbeat` pulse prints).
pub fn peak_words_so_far() -> u64 {
    runs().peak_words()
}

/// Takes everything recorded so far, leaving nothing behind.
pub fn take() -> Runs {
    std::mem::take(&mut *runs())
}

/// Renders rows as a JSON array of flat objects: `key`, `finished`,
/// `elapsed` and the phases in seconds, then the ledger counts.
pub fn rows_json(rows: &[ProfileRow]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"key\": \"{}\", \"finished\": {}, \"elapsed\": {:.6}",
            obs::json::escape(&row.key),
            row.finished,
            row.stats.elapsed.as_secs_f64()
        );
        for (name, d) in row.phases() {
            let _ = write!(out, ", \"{name}\": {:.6}", d.as_secs_f64());
        }
        for (name, n) in row.ledger() {
            let _ = write!(out, ", \"{name}\": {n}");
        }
        out.push('}');
    }
    out.push_str(if rows.is_empty() { "]" } else { "\n  ]" });
    out
}

/// Renders the runs as JSON-Lines: one `row` line per solver run (its
/// key, `finished`, and [`stat_counts`]), then one `mahjong` line per
/// merge (its key and [`merge_counts`]).
pub fn runs_jsonl(runs: &Runs) -> String {
    let mut out = String::new();
    let mut line = |kind: &str, key: &str, finished: Option<bool>, counts: &[(&str, u64)]| {
        let _ = write!(
            out,
            "{{\"type\":\"{kind}\",\"key\":\"{}\"",
            obs::json::escape(key)
        );
        if let Some(finished) = finished {
            let _ = write!(out, ",\"finished\":{finished}");
        }
        for (name, n) in counts {
            let _ = write!(out, ",\"{name}\":{n}");
        }
        out.push_str("}\n");
    };
    for row in &runs.rows {
        line("row", &row.key, Some(row.finished), &stat_counts(&row.stats));
    }
    for merge in &runs.merges {
        line("mahjong", &merge.key, None, &merge_counts(&merge.stats));
    }
    out
}
