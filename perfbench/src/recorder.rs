//! Timing and span recording around calls into the repository's crates.
//!
//! Every call into a layer goes through [`Recorder::call`], which always
//! adds the call's duration to the current scope (a set-up or a pass)
//! and, when tracing is on, also keeps one [`Span`] per call: name,
//! start, end and the structural span that caused it. Spans stay in
//! memory until the run ends. Nothing here instruments the program
//! itself: spans start and stop in this file, around public API calls.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Structural spans: scopes of the benchmark itself, not layer calls.
pub const STRUCTURAL: [&str; 4] = ["setup", "pass", "program", "cell"];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call (e.g. `pta.solve`) or structural scope (e.g. `cell`).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing structural span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one set-up or one pass measured. Filled whether or not tracing
/// is on; the end-to-end metrics come from here.
#[derive(Debug, Default)]
pub struct Scope {
    /// Wall time of the whole scope.
    pub wall: Duration,
    /// Total time inside each layer call, by call name.
    pub layer: BTreeMap<&'static str, Duration>,
    /// Work counts the layers reported, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Batch-amortized nanoseconds per query of every mixed batch
    /// answered on a restored result.
    pub batches: Vec<f64>,
    /// Solver seconds per cell, with `false` when the cell ran over
    /// budget.
    pub cells: Vec<(String, f64, bool)>,
}

/// Records scopes, layer calls and (when tracing) spans.
#[derive(Debug)]
pub struct Recorder {
    tracing: bool,
    origin: Instant,
    /// Every span recorded so far (empty unless tracing).
    pub spans: Vec<Span>,
    open: Vec<usize>,
    scope_start: Option<(&'static str, Instant)>,
    cur: Scope,
    /// Finished set-up scopes.
    pub setups: Vec<Scope>,
    /// Finished pass scopes.
    pub passes: Vec<Scope>,
}

impl Recorder {
    /// A recorder that keeps spans only when `tracing`.
    pub fn new(tracing: bool) -> Self {
        Recorder {
            tracing,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            scope_start: None,
            cur: Scope::default(),
            setups: Vec::new(),
            passes: Vec::new(),
        }
    }

    fn now_ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a set-up (`"setup"`) or pass (`"pass"`) scope.
    pub fn begin(&mut self, kind: &'static str) {
        debug_assert!(self.scope_start.is_none(), "scopes do not nest");
        self.cur = Scope::default();
        self.enter(kind);
        self.scope_start = Some((kind, Instant::now()));
    }

    /// Closes the scope opened by [`Recorder::begin`].
    pub fn end(&mut self) {
        let (kind, start) = self.scope_start.take().expect("a scope is open");
        self.cur.wall = start.elapsed();
        self.leave();
        let scope = std::mem::take(&mut self.cur);
        if kind == "setup" {
            self.setups.push(scope);
        } else {
            self.passes.push(scope);
        }
    }

    /// Opens a structural child span (`"program"`, `"cell"`).
    pub fn enter(&mut self, name: &'static str) {
        if self.tracing {
            let start_ns = self.now_ns(Instant::now());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost structural span.
    pub fn leave(&mut self) {
        if self.tracing {
            let i = self.open.pop().expect("a structural span is open");
            self.spans[i].end_ns = self.now_ns(Instant::now());
        }
    }

    /// Times one layer call.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call_timed(name, f).0
    }

    /// Times one layer call and hands back its duration too.
    pub fn call_timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let d = end - start;
        *self.cur.layer.entry(name).or_default() += d;
        if self.tracing {
            let (start_ns, end_ns) = (self.now_ns(start), self.now_ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
            });
        }
        (out, d)
    }

    /// Adds to a work count of the current scope.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.cur.counts.entry(name).or_default() += v;
    }

    /// Raises a peak count of the current scope to at least `v`.
    pub fn peak(&mut self, name: &'static str, v: f64) {
        let e = self.cur.counts.entry(name).or_default();
        *e = e.max(v);
    }

    /// Records one mixed query batch answered on a restored result.
    pub fn batch(&mut self, ns_per_query: f64) {
        self.cur.batches.push(ns_per_query);
    }

    /// Records one solver cell.
    pub fn cell(&mut self, key: String, secs: f64, ok: bool) {
        self.cur.cells.push((key, secs, ok));
    }
}

/// Per-span cost of tracing, in nanoseconds: the time [`Recorder::call`]
/// takes with tracing on, minus the time it takes with tracing off,
/// over an empty call. Median of several rounds.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let round = |tracing: bool| {
        let mut r = Recorder::new(tracing);
        r.begin("pass");
        let t = Instant::now();
        for i in 0..N {
            r.call("calibrate", || i);
        }
        let ns = t.elapsed().as_nanos() as f64 / f64::from(N);
        r.end();
        ns
    };
    let mut diffs: Vec<f64> = (0..7).map(|_| round(true) - round(false)).collect();
    crate::stats::median(&mut diffs).max(0.0)
}
