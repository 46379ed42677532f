//! Per-run solver profile: one [`ProfileRow`] per solver run the
//! harness makes, built from that run's [`AnalysisStats`] (the partial
//! stats of a run over its budget included).
//!
//! Rows are keyed the way `perfbench` keys its cells: the pre-analysis
//! of `prepare("luindex", ..)` is `luindex.ci`, and a Table 2 cell is
//! `luindex.2cs` or, under the Mahjong heap, `luindex.M-2cs`
//! (`luindex.T-3obj` under the allocation-type heap). `repro --profile`
//! writes them to `PROFILE_pta.json`.

use std::sync::Mutex;
use std::time::Duration;

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

static ROWS: Mutex<Vec<ProfileRow>> = Mutex::new(Vec::new());

/// Appends the row of one finished or aborted run.
pub(crate) fn record(key: String, run: Result<&AnalysisResult, &Unscalable>) {
    let (finished, stats) = match run {
        Ok(r) => (true, r.stats().clone()),
        Err(u) => (false, (*u.stats).clone()),
    };
    let row = ProfileRow {
        key,
        finished,
        stats,
    };
    ROWS.lock().unwrap_or_else(|e| e.into_inner()).push(row);
}

/// Takes every row recorded so far, oldest first, leaving none behind.
pub fn take_rows() -> Vec<ProfileRow> {
    std::mem::take(&mut *ROWS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Renders rows as a JSON array of flat objects: `key`, `finished`,
/// `elapsed` and the phases in seconds, then the ledger counts.
pub fn rows_json(rows: &[ProfileRow]) -> String {
    use std::fmt::Write as _;
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
