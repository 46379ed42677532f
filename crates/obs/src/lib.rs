//! # obs — zero-dependency telemetry for the Mahjong reproduction
//!
//! The paper's evaluation (Tables 1–2, Figures 8–9) is entirely about
//! *where time and objects go*: pre-analysis vs. automata construction
//! vs. Hopcroft–Karp equivalence vs. the main context-sensitive
//! fixpoint. This crate is the substrate that makes those hot paths
//! visible and regression-checkable without pulling in any crates.io
//! dependency (the build environment is offline).
//!
//! ## Model
//!
//! One process-global [`Registry`] holds four kinds of instruments, all
//! addressed by dotted string names (`"pta.worklist_pops"`):
//!
//! - **counters** — monotonic `u64`s ([`counter`]);
//! - **gauges** — last-write-wins `i64`s ([`gauge`]);
//! - **histograms** — lock-free log₂-bucketed distributions
//!   ([`histogram`]) for points-to-set sizes, DFA state counts,
//!   worklist delta sizes;
//! - **spans** — RAII wall-clock phase scopes ([`span`]) that nest and
//!   aggregate into per-phase totals.
//!
//! Three exporters read the registry:
//!
//! - [`export_summary`] — a human-readable table;
//! - [`export_chrome_trace`] — a Chrome `trace_event` JSON document,
//!   loadable in `about:tracing` / Perfetto (complete `"X"` events);
//! - [`export_jsonl`] — a flat JSON-Lines dump for machine diffing.
//!
//! ## Disabling
//!
//! Setting the environment variable `OBS_DISABLE=1` (any non-empty
//! value other than `0`) turns every recording call into a cheap no-op:
//! a relaxed atomic load plus a predictable branch. [`set_enabled`]
//! overrides the environment at runtime (used by tests).
//!
//! ## Examples
//!
//! ```
//! obs::set_enabled(true);
//! {
//!     let _phase = obs::span("demo.outer");
//!     obs::counter("demo.widgets").add(3);
//!     obs::histogram("demo.sizes").record(17);
//! }
//! let jsonl = obs::export_jsonl();
//! assert!(jsonl.lines().any(|l| l.contains("demo.widgets")));
//! let trace = obs::export_chrome_trace();
//! obs::json::parse(&trace).expect("trace is valid JSON");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod rng;
pub mod timeline;

mod export;
mod histogram;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, PhaseTotal, Registry};
pub use span::{Span, SpanEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static TIMELINE: OnceLock<timeline::Timeline> = OnceLock::new();
static ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn enabled_flag() -> &'static AtomicBool {
    ENABLED.get_or_init(|| {
        let disabled = std::env::var_os("OBS_DISABLE")
            .is_some_and(|v| !v.is_empty() && v != "0");
        AtomicBool::new(!disabled)
    })
}

/// Returns `true` when recording is enabled (the default unless
/// `OBS_DISABLE` is set in the environment, or [`set_enabled`] said
/// otherwise).
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Overrides the `OBS_DISABLE` environment decision at runtime.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Serializes the unit tests that flip or depend on the process-global
/// recording flag; they share one test binary and run concurrently.
#[cfg(test)]
pub(crate) fn lock_enabled() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns the process-global registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Returns the process-global solver-introspection timeline (see
/// [`mod@timeline`]).
pub fn timeline() -> &'static timeline::Timeline {
    TIMELINE.get_or_init(timeline::Timeline::default)
}

/// Microseconds elapsed since the process trace epoch (the zero point
/// of every span timestamp). Pins the epoch on first
/// use, exactly like opening a span does.
pub fn epoch_us() -> u64 {
    span::epoch_offset_us()
}

/// Returns (creating on first use) the named monotonic counter.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Returns (creating on first use) the named gauge.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Returns (creating on first use) the named log-scale histogram.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Opens a named RAII phase span; the scope is recorded when the
/// returned guard drops. Spans on one thread nest.
pub fn span(name: impl Into<String>) -> Span {
    Span::enter(name.into())
}

/// Zeroes every instrument in place, clears the span log, and clears
/// the solver-introspection [`timeline()`].
///
/// Existing [`Counter`]/[`Gauge`]/[`Histogram`] handles stay valid:
/// they point at the same cells, which are reset to zero.
pub fn reset() {
    registry().reset();
    timeline().reset();
}

/// Renders the human-readable summary table.
pub fn export_summary() -> String {
    registry().export_summary()
}

/// Renders the Chrome `trace_event` JSON document: registry spans on
/// their originating threads' tracks, thread-name metadata, and the
/// counter summary.
pub fn export_chrome_trace() -> String {
    export::render_chrome_trace(&registry().spans(), &registry().counters())
}

/// Renders the flat JSON-Lines metrics dump.
pub fn export_jsonl() -> String {
    registry().export_jsonl()
}

#[cfg(test)]
mod tests {
    // The global registry is shared by every test in this binary, so
    // the tests here either use instance-local state or tolerate
    // concurrent increments from sibling tests.

    #[test]
    fn counters_accumulate() {
        let _enabled = crate::lock_enabled();
        let c = super::counter("test.lib.counter");
        super::set_enabled(true);
        let before = c.get();
        c.add(5);
        c.inc();
        assert!(c.get() >= before + 6);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _enabled = crate::lock_enabled();
        let r = super::Registry::new();
        // Instance registries honour the global flag; flip it briefly.
        let c = r.counter("test.disabled.counter");
        let h = r.histogram("test.disabled.hist");
        super::set_enabled(false);
        c.add(10);
        h.record(10);
        super::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let _enabled = crate::lock_enabled();
        super::set_enabled(true);
        let g = super::gauge("test.lib.gauge");
        g.set(3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn exports_are_valid_json() {
        let _enabled = crate::lock_enabled();
        super::set_enabled(true);
        super::counter("test.export.counter").inc();
        {
            let _s = super::span("test.export.span");
        }
        let trace = super::export_chrome_trace();
        let doc = super::json::parse(&trace).expect("valid trace JSON");
        assert!(doc.get("traceEvents").and_then(|v| v.as_array()).is_some());
        for line in super::export_jsonl().lines() {
            super::json::parse(line).expect("every JSONL line parses");
        }
    }
}
