//! RAII wall-clock phase spans and the process-global span log.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! drop and appends the result to the span log. Spans opened on the
//! same thread nest: each event carries the nesting depth at which it
//! ran, and timestamps are offsets from a process-wide epoch so the
//! Chrome-trace exporter can lay events out on one shared time axis.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide zero point for span timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic source of per-thread trace ids (Chrome traces want small
/// integer `tid`s, not opaque `ThreadId`s).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Every completed span, in completion order.
static LOG: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch, pinning the epoch on
/// first use (backs [`crate::epoch_us`]).
pub(crate) fn epoch_offset_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Runs `f` over the span log, in completion order, under its lock.
pub(crate) fn with_log<R>(f: impl FnOnce(&[SpanEvent]) -> R) -> R {
    f(&LOG.lock().unwrap_or_else(|e| e.into_inner()))
}

/// A completed span as stored in the span log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name as passed to [`crate::span`].
    pub name: &'static str,
    /// Small integer id of the thread the span ran on.
    pub tid: u64,
    /// Nesting depth at which the span ran (0 = outermost).
    pub depth: usize,
    /// Start offset from the process epoch, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
}

/// RAII guard measuring one phase; created by [`crate::span`].
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    depth: usize,
}

impl Span {
    pub(crate) fn enter(name: &'static str) -> Span {
        epoch(); // pin the epoch no later than the first span start
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Span { name, start: Instant::now(), depth }
    }

    /// Nesting depth this span runs at (0 = outermost).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let event = SpanEvent {
            name: self.name,
            tid: current_tid(),
            depth: self.depth,
            start_us: self.start.duration_since(epoch()).as_micros() as u64,
            dur_us: self.start.elapsed().as_micros() as u64,
        };
        LOG.lock().unwrap_or_else(|e| e.into_inner()).push(event);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn spans_nest_and_record_depth() {
        let outer = crate::span("test.span.outer");
        let outer_depth = outer.depth();
        {
            let inner = crate::span("test.span.inner");
            assert_eq!(inner.depth(), outer_depth + 1);
        }
        drop(outer);
        let spans = crate::spans();
        let inner = spans.iter().rev().find(|s| s.name == "test.span.inner").unwrap();
        let outer = spans.iter().rev().find(|s| s.name == "test.span.outer").unwrap();
        // Inner closes first, nests one deeper, and is contained in the
        // outer span's interval.
        assert_eq!(inner.depth, outer.depth + 1);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1);
    }
}
