//! Concurrent query serving over a read-only analysis result.
//!
//! ROADMAP item 3: analyze once, then serve `points_to` / `may_alias`
//! / `call_targets` / cast-check queries from a long-lived process.
//! The [`QueryServer`] wraps a shared `&AnalysisResult` (immutable, so
//! worker threads need no locks) and answers [`Query`]s with typed
//! results: out-of-range variable, call-site, or cast ids come back as
//! [`QueryError`] values — the NotFound path of a serving API — never
//! as panics.
//!
//! [`run_bench`] is the benchmark driver behind `repro --serve-bench`:
//! N workers claim fixed-size batches from an atomic cursor and replay
//! a SplitMix64-generated query mix. Every query is a pure function of
//! its index and the seed, so the workload is identical regardless of
//! thread count or batch interleaving, and the order-independent
//! XOR-folded [`ServeReport::checksum`] is bit-identical across
//! configurations — the cross-thread determinism tests pin this.
//! Per-query-class latencies land in log₂ histograms (mirrored into
//! the `obs` registry under `serve.<class>_ns` when recording is
//! enabled) and the whole report renders to the committed
//! `BENCH_serve.json` via [`render_json`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use jir::{CallSiteId, CastId, Program, Stmt, TypeId, VarId};
use obs::rng::SplitMix64;
use pta::{AnalysisResult, CtxElem};

/// One serving query, ids as raw integers exactly as a wire protocol
/// would deliver them (nothing is pre-validated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// The collapsed points-to set of a variable.
    PointsTo(u32),
    /// May two variables point to a common object?
    MayAlias(u32, u32),
    /// The call targets discovered for a call site.
    CallTargets(u32),
    /// May the cast at a cast site fail?
    CastCheck(u32),
}

impl Query {
    /// The query's class label, as used in histograms and the bench
    /// record (`"points_to"`, `"may_alias"`, `"call_targets"`,
    /// `"cast_check"`).
    pub fn class(&self) -> &'static str {
        match self {
            Query::PointsTo(_) => "points_to",
            Query::MayAlias(..) => "may_alias",
            Query::CallTargets(_) => "call_targets",
            Query::CastCheck(_) => "cast_check",
        }
    }
}

/// Typed NotFound: the query named an id the program does not have.
/// The server returns these — it never panics on garbage ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// No variable with this id.
    UnknownVar(u32),
    /// No call site with this id.
    UnknownCallSite(u32),
    /// No cast site with this id.
    UnknownCast(u32),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownVar(v) => write!(f, "unknown variable id {v}"),
            QueryError::UnknownCallSite(s) => write!(f, "unknown call site id {s}"),
            QueryError::UnknownCast(c) => write!(f, "unknown cast id {c}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A read-only query front end over one analysis result.
///
/// Construction scans the program once to index cast sites (cast id →
/// operand variable and target type); after that every query is
/// lock-free reads against the shared result.
#[derive(Debug)]
pub struct QueryServer<'a> {
    program: &'a Program,
    result: &'a AnalysisResult,
    /// Cast id → (operand variable, target type); `None` for a cast id
    /// that appears in no method body (defensive — ids come from the
    /// program, so in practice every entry is populated).
    casts: Vec<Option<(VarId, TypeId)>>,
}

impl<'a> QueryServer<'a> {
    /// Builds the front end for `(program, result)`.
    pub fn new(program: &'a Program, result: &'a AnalysisResult) -> Self {
        let mut casts = vec![None; program.cast_count()];
        for m in program.method_ids() {
            for stmt in program.method(m).body() {
                if let Stmt::Cast { rhs, site, .. } = *stmt {
                    casts[site.index()] = Some((rhs, program.cast(site).target_ty()));
                }
            }
        }
        QueryServer { program, result, casts }
    }

    /// Answers one query with a 64-bit FNV digest of the result value
    /// (a stand-in for a serialized response body: cheap to compare
    /// across runs, thread counts, and warm- vs fresh-start, yet
    /// sensitive to every element of the answer).
    pub fn answer(&self, q: Query) -> Result<u64, QueryError> {
        match q {
            Query::PointsTo(v) => {
                let var = self.var(v)?;
                let mut h = FNV_SEED;
                for o in self.result.points_to_collapsed(var).iter() {
                    fnv_mix(&mut h, o.index() as u64);
                }
                Ok(h)
            }
            Query::MayAlias(a, b) => {
                let (a, b) = (self.var(a)?, self.var(b)?);
                Ok(self
                    .result
                    .points_to_collapsed(a)
                    .intersects(self.result.points_to_collapsed(b))
                    as u64)
            }
            Query::CallTargets(s) => {
                if s as usize >= self.program.call_site_count() {
                    return Err(QueryError::UnknownCallSite(s));
                }
                let mut h = FNV_SEED;
                for &m in self.result.call_targets(CallSiteId::from_u32(s)) {
                    fnv_mix(&mut h, m.index() as u64);
                }
                Ok(h)
            }
            Query::CastCheck(c) => {
                let (rhs, target) = self
                    .casts
                    .get(c as usize)
                    .copied()
                    .flatten()
                    .ok_or(QueryError::UnknownCast(c))?;
                let _ = CastId::from_u32(c);
                let may_fail = self
                    .result
                    .points_to_collapsed(rhs)
                    .iter()
                    .any(|o| !self.program.is_subtype(self.result.obj_type(o), target));
                Ok(may_fail as u64)
            }
        }
    }

    fn var(&self, v: u32) -> Result<VarId, QueryError> {
        if (v as usize) < self.program.var_count() {
            Ok(VarId::from_u32(v))
        } else {
            Err(QueryError::UnknownVar(v))
        }
    }
}

/// The id spaces queries are drawn from.
#[derive(Clone, Copy, Debug)]
struct QuerySpaces {
    vars: u64,
    sites: u64,
    casts: u64,
}

/// About 1 in 32 generated ids is deliberately out of range, so the
/// NotFound path stays continuously exercised under load.
fn draw_id(rng: &mut SplitMix64, space: u64) -> u32 {
    let id = if space == 0 || rng.below(32) == 0 {
        space + rng.below(1024)
    } else {
        rng.below(space)
    };
    u32::try_from(id).unwrap_or(u32::MAX)
}

/// The `i`-th query of the mix: a pure function of `(seed, i)`, so any
/// thread can generate any index and the workload is identical under
/// every batching. Mix: 40% points-to, 30% may-alias, 20% call
/// targets, 10% cast checks.
fn query_for(i: u64, seed: u64, spaces: QuerySpaces) -> Query {
    let mut rng = SplitMix64::new(seed.wrapping_add(i));
    match rng.below(100) {
        0..=39 => Query::PointsTo(draw_id(&mut rng, spaces.vars)),
        40..=69 => Query::MayAlias(draw_id(&mut rng, spaces.vars), draw_id(&mut rng, spaces.vars)),
        70..=89 => Query::CallTargets(draw_id(&mut rng, spaces.sites)),
        _ => Query::CastCheck(draw_id(&mut rng, spaces.casts)),
    }
}

const FNV_SEED: u64 = 0xcbf29ce484222325;

fn fnv_mix(h: &mut u64, x: u64) {
    *h ^= x;
    *h = h.wrapping_mul(0x100000001b3);
}

/// The query classes a report covers: the four query kinds plus the
/// NotFound path.
pub const CLASSES: [&str; 5] =
    ["points_to", "may_alias", "call_targets", "cast_check", "not_found"];

/// A log₂-bucketed latency histogram (bucket 0 = value 0, bucket `b` =
/// values in `[2^(b-1), 2^b)`), mergeable across worker threads.
#[derive(Clone, Copy, Debug)]
struct Hist {
    buckets: [u64; 64],
    count: u64,
}

impl Hist {
    fn new() -> Self {
        Hist { buckets: [0; 64], count: 0 }
    }

    fn record(&mut self, v: u64) {
        let b = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[b.min(63)] += 1;
        self.count += 1;
    }

    fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The upper bound of the bucket holding the `q`-quantile
    /// observation (0 when empty).
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { (1u64 << b) - 1 };
            }
        }
        u64::MAX
    }
}

/// Latency summary for one query class.
#[derive(Clone, Copy, Debug)]
pub struct ClassStats {
    /// Queries answered in this class.
    pub count: u64,
    /// Median latency (log₂-bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency (log₂-bucket upper bound), nanoseconds.
    pub p99_ns: u64,
}

/// Benchmark configuration for [`run_bench`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Worker threads.
    pub threads: usize,
    /// Total queries in the mix.
    pub queries: u64,
    /// Queries per batch claim.
    pub batch: u64,
    /// Mix seed (same seed → identical workload and checksum).
    pub seed: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts { threads: 1, queries: 100_000, batch: 256, seed: 0xA11CE }
    }
}

/// What one [`run_bench`] run measured.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The options the run used.
    pub opts: ServeOpts,
    /// Wall-clock of the query phase (excludes server construction).
    pub wall_secs: f64,
    /// Queries per second over the wall clock.
    pub qps: f64,
    /// XOR-fold of all per-query digests — order-independent, so
    /// bit-identical across thread counts and batchings.
    pub checksum: u64,
    /// Per-class latency stats, in [`CLASSES`] order.
    pub classes: Vec<(&'static str, ClassStats)>,
}

/// Drives the concurrent query benchmark: `opts.threads` workers claim
/// `opts.batch`-sized index ranges from a shared cursor until
/// `opts.queries` queries have been answered.
pub fn run_bench(program: &Program, result: &AnalysisResult, opts: ServeOpts) -> ServeReport {
    let server = QueryServer::new(program, result);
    let spaces = QuerySpaces {
        vars: program.var_count() as u64,
        sites: program.call_site_count() as u64,
        casts: program.cast_count() as u64,
    };
    let cursor = AtomicU64::new(0);
    let threads = opts.threads.max(1);

    struct WorkerOut {
        hists: [Hist; 5],
        checksum: u64,
    }

    let start = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let server = &server;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out = WorkerOut { hists: [Hist::new(); 5], checksum: 0 };
                    loop {
                        let lo = cursor.fetch_add(opts.batch, Ordering::Relaxed);
                        if lo >= opts.queries {
                            break;
                        }
                        let hi = (lo + opts.batch).min(opts.queries);
                        for i in lo..hi {
                            let q = query_for(i, opts.seed, spaces);
                            let t = Instant::now();
                            let answer = server.answer(q);
                            let ns = t.elapsed().as_nanos() as u64;
                            // A NotFound answer is its own class: the
                            // degraded path has its own latency story.
                            let class = match answer {
                                Ok(_) => CLASSES.iter().position(|c| *c == q.class()).unwrap(),
                                Err(_) => 4,
                            };
                            out.hists[class].record(ns);
                            // Per-query digest folds the index, the
                            // class, and the answer (or the error id),
                            // then XORs into an order-free total.
                            let mut h = FNV_SEED;
                            fnv_mix(&mut h, i);
                            fnv_mix(&mut h, class as u64);
                            match answer {
                                Ok(v) => fnv_mix(&mut h, v),
                                Err(QueryError::UnknownVar(v)) => fnv_mix(&mut h, 1 << 40 | v as u64),
                                Err(QueryError::UnknownCallSite(s)) => {
                                    fnv_mix(&mut h, 2 << 40 | s as u64)
                                }
                                Err(QueryError::UnknownCast(c)) => {
                                    fnv_mix(&mut h, 3 << 40 | c as u64)
                                }
                            }
                            out.checksum ^= h;
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let mut hists = [Hist::new(); 5];
    let mut checksum = 0u64;
    for out in &outs {
        for (a, b) in hists.iter_mut().zip(&out.hists) {
            a.merge(b);
        }
        checksum ^= out.checksum;
    }
    // Mirror the latency distributions into the global registry so
    // --metrics-json exports carry them (no-op when recording is off).
    for (name, hist) in CLASSES.iter().zip(&hists) {
        let h = obs::histogram(&format!("serve.{name}_ns"));
        for (b, &n) in hist.buckets.iter().enumerate() {
            let v = if b == 0 { 0 } else { 1u64 << (b - 1) };
            for _ in 0..n.min(1 << 16) {
                h.record(v);
            }
        }
    }
    obs::counter("serve.queries").add(opts.queries);

    ServeReport {
        opts,
        wall_secs,
        qps: if wall_secs > 0.0 { opts.queries as f64 / wall_secs } else { 0.0 },
        checksum,
        classes: CLASSES
            .iter()
            .zip(&hists)
            .map(|(name, h)| {
                (*name, ClassStats { count: h.count, p50_ns: h.quantile(0.50), p99_ns: h.quantile(0.99) })
            })
            .collect(),
    }
}

/// Provenance fields stamped into `BENCH_serve.json`.
#[derive(Clone, Debug)]
pub struct ServeHeader {
    /// Workload name.
    pub program: String,
    /// Workload scale.
    pub scale: usize,
    /// Context-sensitivity name.
    pub analysis: String,
    /// Heap-abstraction name.
    pub heap: String,
    /// `"snapshot"` for a warm start, `"fresh"` for an in-process run.
    pub source: String,
    /// Milliseconds to a queryable result (snapshot load + restore for
    /// warm starts; the full analysis for fresh ones).
    pub warm_start_ms: f64,
    /// Canonical result fingerprint (see [`canonical_fingerprint`]).
    pub fingerprint: u64,
}

/// Renders the committed `BENCH_serve.json` record
/// (`scripts/bench_table.py` validates and tabulates this schema).
pub fn render_json(header: &ServeHeader, report: &ServeReport) -> String {
    let mut classes = String::new();
    for (i, (name, s)) in report.classes.iter().enumerate() {
        let sep = if i + 1 == report.classes.len() { "" } else { "," };
        classes.push_str(&format!(
            "    \"{name}\": {{ \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {} }}{sep}\n",
            s.count, s.p50_ns, s.p99_ns
        ));
    }
    format!(
        "{{\n  \"exp\": \"serve\",\n  \"program\": \"{}\",\n  \"scale\": {},\n  \
         \"analysis\": \"{}\",\n  \"heap\": \"{}\",\n  \"source\": \"{}\",\n  \
         \"threads\": {},\n  \"queries\": {},\n  \"batch\": {},\n  \"seed\": {},\n  \
         \"warm_start_ms\": {:.3},\n  \"fingerprint\": \"{:#018x}\",\n  \
         \"wall_secs\": {:.6},\n  \"qps\": {:.1},\n  \"checksum\": \"{:#018x}\",\n  \
         \"classes\": {{\n{classes}  }}\n}}\n",
        header.program,
        header.scale,
        header.analysis,
        header.heap,
        header.source,
        report.opts.threads,
        report.opts.queries,
        report.opts.batch,
        report.opts.seed,
        header.warm_start_ms,
        header.fingerprint,
        report.wall_secs,
        report.qps,
        report.checksum,
    )
}

/// Canonical, interning-order-independent fingerprint of a result: the
/// FNV mix of per-variable collapsed object sets (objects described by
/// allocation site plus heap-context element chain) and the sorted
/// call graph — the same hash the golden-fingerprint parity tests pin,
/// so a snapshot round trip can be checked against the committed
/// goldens from the command line.
///
/// Each variable's objects are mixed in ascending descriptor order,
/// once per distinct descriptor. Rather than building and sorting a
/// descriptor per (variable, object) pair, every object is ranked by
/// its descriptor once (equal descriptors share a rank); a variable
/// then sorts and dedups plain `u32` ranks and mixes the descriptors in
/// rank order, which is the same sequence.
pub fn canonical_fingerprint(program: &Program, result: &AnalysisResult) -> u64 {
    // Descriptors of all objects, concatenated; `span[o]` is object
    // `o`'s `[start, end)` range in `words` (ids may be sparse).
    let bound = result.objects().map(|o| o.index() + 1).max().unwrap_or(0);
    let mut words: Vec<u64> = Vec::new();
    let mut span = vec![(0u32, 0u32); bound];
    for o in result.objects() {
        let start = words.len() as u32;
        words.push(result.obj_alloc(o).index() as u64);
        for e in result.contexts().elems(result.obj_heap_context(o)) {
            words.push(match *e {
                CtxElem::CallSite(s) => 1 << 32 | s.index() as u64,
                CtxElem::Alloc(a) => 2 << 32 | a.index() as u64,
                CtxElem::Type(c) => 3 << 32 | c.index() as u64,
            });
        }
        span[o.index()] = (start, words.len() as u32);
    }
    let desc = |i: usize| -> &[u64] {
        let (lo, hi) = span[i];
        &words[lo as usize..hi as usize]
    };
    let mut order: Vec<usize> = result.objects().map(|o| o.index()).collect();
    order.sort_unstable_by(|&a, &b| desc(a).cmp(desc(b)));
    // `rank[o]` orders descriptors; `by_rank[r]` is one object holding
    // rank `r`'s descriptor.
    let mut rank = vec![0u32; bound];
    let mut by_rank: Vec<usize> = Vec::new();
    for &o in &order {
        if by_rank.last().is_none_or(|&prev| desc(prev) != desc(o)) {
            by_rank.push(o);
        }
        rank[o] = by_rank.len() as u32 - 1;
    }

    let mut h: u64 = FNV_SEED;
    let mut ranks: Vec<u32> = Vec::new();
    for v in (0..program.var_count()).map(VarId::from_usize) {
        ranks.clear();
        ranks.extend(result.points_to_collapsed(v).iter().map(|o| rank[o.index()]));
        ranks.sort_unstable();
        ranks.dedup();
        fnv_mix(&mut h, v.index() as u64 ^ 0xdead);
        for &r in &ranks {
            for &w in desc(by_rank[r as usize]) {
                fnv_mix(&mut h, w);
            }
            fnv_mix(&mut h, 0xfeed);
        }
    }
    let mut edges: Vec<(usize, usize)> = result
        .call_graph_edges()
        .map(|(s, m)| (s.index(), m.index()))
        .collect();
    edges.sort_unstable();
    for (s, m) in edges {
        fnv_mix(&mut h, ((s as u64) << 32) | m as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta::{AllocSiteAbstraction, AnalysisConfig, ObjectSensitive};

    fn setup() -> (Program, AnalysisResult) {
        let program = jir::parse(
            "class A {
               field f: A;
               method id(this, v) { w = v; u = (A) w; return u; }
               entry static method main() {
                 a = new A; b = new A;
                 a.f = b;
                 r = virt a.id(b);
                 return;
               }
             }",
        )
        .expect("parses");
        let result = AnalysisConfig::new(ObjectSensitive::new(2), AllocSiteAbstraction)
            .run(&program)
            .expect("fits budget");
        (program, result)
    }

    #[test]
    fn unknown_ids_return_typed_not_found() {
        let (p, r) = setup();
        let server = QueryServer::new(&p, &r);
        let big = u32::MAX;
        assert!(matches!(
            server.answer(Query::PointsTo(big)),
            Err(QueryError::UnknownVar(v)) if v == big
        ));
        assert!(matches!(
            server.answer(Query::MayAlias(0, big)),
            Err(QueryError::UnknownVar(_))
        ));
        assert!(matches!(
            server.answer(Query::CallTargets(big)),
            Err(QueryError::UnknownCallSite(_))
        ));
        assert!(matches!(
            server.answer(Query::CastCheck(big)),
            Err(QueryError::UnknownCast(_))
        ));
    }

    #[test]
    fn valid_queries_answer() {
        let (p, r) = setup();
        let server = QueryServer::new(&p, &r);
        for v in 0..p.var_count() as u32 {
            server.answer(Query::PointsTo(v)).expect("valid var");
        }
        for s in 0..p.call_site_count() as u32 {
            server.answer(Query::CallTargets(s)).expect("valid site");
        }
        for c in 0..p.cast_count() as u32 {
            server.answer(Query::CastCheck(c)).expect("valid cast");
        }
        assert!(p.cast_count() > 0, "test program has a cast");
    }

    #[test]
    fn checksum_is_thread_count_independent() {
        let (p, r) = setup();
        let base = run_bench(
            &p,
            &r,
            ServeOpts { threads: 1, queries: 5_000, batch: 64, seed: 7 },
        );
        for threads in [2, 4] {
            for batch in [1, 17, 1024] {
                let other = run_bench(
                    &p,
                    &r,
                    ServeOpts { threads, queries: 5_000, batch, seed: 7 },
                );
                assert_eq!(base.checksum, other.checksum, "threads={threads} batch={batch}");
                for ((n1, c1), (n2, c2)) in base.classes.iter().zip(&other.classes) {
                    assert_eq!(n1, n2);
                    assert_eq!(c1.count, c2.count, "class {n1} count under threads={threads}");
                }
            }
        }
    }

    #[test]
    fn every_class_appears_in_the_mix() {
        let (p, r) = setup();
        let report = run_bench(
            &p,
            &r,
            ServeOpts { threads: 2, queries: 20_000, batch: 128, seed: 3 },
        );
        for (name, stats) in &report.classes {
            assert!(stats.count > 0, "class {name} never exercised");
        }
        let total: u64 = report.classes.iter().map(|(_, s)| s.count).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn render_json_is_parseable_shape() {
        let (p, r) = setup();
        let report = run_bench(&p, &r, ServeOpts { queries: 1_000, ..ServeOpts::default() });
        let header = ServeHeader {
            program: "tiny".into(),
            scale: 1,
            analysis: "2obj".into(),
            heap: "alloc-site".into(),
            source: "fresh".into(),
            warm_start_ms: 1.5,
            fingerprint: canonical_fingerprint(&p, &r),
        };
        let json = render_json(&header, &report);
        for key in
            ["\"exp\": \"serve\"", "\"qps\"", "\"warm_start_ms\"", "\"not_found\"", "\"checksum\""]
        {
            assert!(json.contains(key), "record lacks {key}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
