//! # obs — zero-dependency phase spans for the Mahjong reproduction
//!
//! The paper's evaluation (Tables 1–2, Figures 8–9) is about *where
//! time goes*: pre-analysis vs. automata construction vs. equivalence
//! vs. the main context-sensitive fixpoint. This crate times those
//! phases without pulling in any crates.io dependency (the build
//! environment is offline). The work counts behind them are not kept
//! here: each run returns its own stats (`pta::AnalysisStats`,
//! `mahjong::MahjongStats`), and the harness builds its records from
//! those.
//!
//! ## Model
//!
//! A [`span`] is an RAII wall-clock scope named by a string literal.
//! Spans on one thread nest, and every completed span lands in one
//! process-global span log ([`spans`]), which aggregates into per-phase
//! totals ([`phase_totals`], [`phase_time`]).
//!
//! Two exporters read the log:
//!
//! - [`export_chrome_trace`] — a Chrome `trace_event` JSON document,
//!   loadable in `about:tracing` / Perfetto (complete `"X"` events);
//! - [`export_jsonl`] — one JSON object per line: per-phase totals,
//!   then every span.
//!
//! The crate also carries the workspace's JSON parser ([`json`]) and
//! its seeded PRNG ([`rng`]).
//!
//! ## Examples
//!
//! ```
//! {
//!     let _outer = obs::span("demo.outer");
//!     let _inner = obs::span("demo.inner");
//! }
//! assert_eq!(obs::phase_totals().iter().filter(|p| p.name.starts_with("demo.")).count(), 2);
//! let jsonl = obs::export_jsonl();
//! assert!(jsonl.lines().any(|l| l.contains("demo.inner")));
//! let trace = obs::export_chrome_trace();
//! obs::json::parse(&trace).expect("trace is valid JSON");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod rng;

mod export;
mod span;

pub use span::{Span, SpanEvent};

use std::collections::BTreeMap;
use std::time::Duration;

/// Aggregated wall-clock for one span name: how many times the phase
/// ran and the total time spent inside it (self-inclusive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Span name as passed to [`span`].
    pub name: &'static str,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Sum of the spans' wall-clock durations.
    pub total: Duration,
}

/// Opens a named RAII phase span; the scope is recorded in the span
/// log when the returned guard drops. Spans on one thread nest.
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}

/// Microseconds elapsed since the process trace epoch (the zero point
/// of every span timestamp). Pins the epoch on first use, exactly like
/// opening a span does.
pub fn epoch_us() -> u64 {
    span::epoch_offset_us()
}

/// Snapshot of the span log in completion order.
pub fn spans() -> Vec<SpanEvent> {
    span::with_log(<[SpanEvent]>::to_vec)
}

/// Aggregates the span log into per-name totals, name-sorted.
pub fn phase_totals() -> Vec<PhaseTotal> {
    span::with_log(phase_totals_of)
}

fn phase_totals_of(spans: &[SpanEvent]) -> Vec<PhaseTotal> {
    let mut totals: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
    for ev in spans {
        let slot = totals.entry(ev.name).or_insert((0, Duration::ZERO));
        slot.0 += 1;
        slot.1 += Duration::from_micros(ev.dur_us);
    }
    totals
        .into_iter()
        .map(|(name, (count, total))| PhaseTotal { name, count, total })
        .collect()
}

/// Total recorded wall-clock for one span name ([`Duration::ZERO`] if
/// the phase never ran).
pub fn phase_time(name: &str) -> Duration {
    span::with_log(|log| {
        log.iter()
            .filter(|ev| ev.name == name)
            .map(|ev| Duration::from_micros(ev.dur_us))
            .sum()
    })
}

/// Renders the span log as a Chrome `trace_event` JSON document, each
/// span on its originating thread's track, with thread-name metadata.
pub fn export_chrome_trace() -> String {
    span::with_log(export::render_chrome_trace)
}

/// Renders the span log as JSON-Lines: one `phase` line per span name,
/// then one `span` line per completed span.
pub fn export_jsonl() -> String {
    span::with_log(export::render_jsonl)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exports_are_valid_json() {
        {
            let _s = super::span("test.export.span");
        }
        let trace = super::export_chrome_trace();
        let doc = super::json::parse(&trace).expect("valid trace JSON");
        assert!(doc.get("traceEvents").and_then(|v| v.as_array()).is_some());
        let dump = super::export_jsonl();
        assert!(dump.contains("test.export.span"));
        for line in dump.lines() {
            super::json::parse(line).expect("every JSONL line parses");
        }
    }
}
