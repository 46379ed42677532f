//! The three workloads: what one set-up and one pass of each does, and
//! the output checks every pass makes.
//!
//! - `table2`: pmd and lusearch at scale 4, the full Table 2 row of
//!   each: ci → FPG → Mahjong merge, then {2cs, 2obj, 3obj, 2type,
//!   3type} × {alloc-site, Mahjong}.
//! - `mahjong`: all 12 programs at scale 8 through ci → FPG → merge →
//!   M-3obj.
//! - `serve`: set-up analyzes pmd at scale 4 under 2obj and M-2obj; a
//!   pass only persists, warm-starts and queries those two results.
//!
//! Every solver result gets its client metrics and canonical
//! fingerprint checked. A served result goes through extract → save →
//! load → restore, and the seeded query batches are answered on both
//! the fresh and the restored result; the fingerprint is then taken on
//! the restored one. `serve` does that in every pass. `table2` and
//! `mahjong` do it once per set-up, on the ci result of
//! [`PROBE_PROGRAM`], so that their passes hold only pre-analysis and
//! solver work while every metric still has a value on them.

use std::collections::BTreeMap;
use std::path::PathBuf;

use bench::serve::{canonical_fingerprint, Query, QueryError, QueryServer};
use bench::Sensitivity;
use clients::ClientMetrics;
use jir::Program;
use mahjong::{FieldPointsToGraph, MahjongConfig};
use obs::rng::SplitMix64;
use pta::{
    AllocSiteAbstraction, AnalysisConfig, AnalysisResult, AnalysisStats, Budget, CallSiteSensitive,
    ContextInsensitive, HeapAbstraction, MergedObjectMap, ObjectSensitive, TypeSensitive,
    Unscalable,
};

use crate::expected::Expected;
use crate::recorder::Recorder;

/// Programs and scale of the `table2` workload.
pub const TABLE2_PROGRAMS: [&str; 2] = ["pmd", "lusearch"];
pub const TABLE2_SCALE: usize = 4;
/// Scale of the `mahjong` workload (all of `workloads::dacapo::PROGRAMS`).
pub const MAHJONG_SCALE: usize = 8;
/// Program and scale of the `serve` workload.
pub const SERVE_PROGRAM: &str = "pmd";
pub const SERVE_SCALE: usize = 4;
/// Program whose ci result `table2` and `mahjong` persist and query in
/// set-up, at the workload's scale.
pub const PROBE_PROGRAM: &str = "pmd";
/// Queries per batch, in every workload.
pub const BATCH: usize = 128;
/// Mixed query batches per program pool, answered on every result
/// served. A run serves at least two results (five set-ups, or one
/// `serve` pass), so its p99 has at least ten batches beyond it.
pub const MIX_BATCHES: usize = 512;
/// Single-class query batches per class in every pool.
pub const CLASS_BATCHES: usize = 32;
/// Solver budget per analysis; a cell over it is a failed operation.
pub const BUDGET_SECS: u64 = 60;

/// Operations attempted and failed. A failure never panics: it is
/// counted and its first few descriptions are kept for the report.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Ops {
    /// Counts one operation; `false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
        ok
    }
}

/// Query classes of the mix, with their draw weights in percent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    PointsTo,
    MayAlias,
    CallTargets,
    CastCheck,
    NotFound,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::PointsTo,
        Class::MayAlias,
        Class::CallTargets,
        Class::CastCheck,
        Class::NotFound,
    ];

    fn draw(rng: &mut SplitMix64) -> Class {
        match rng.below(100) {
            0..=39 => Class::PointsTo,
            40..=69 => Class::MayAlias,
            70..=84 => Class::CallTargets,
            85..=94 => Class::CastCheck,
            _ => Class::NotFound,
        }
    }

    /// Span name of a batch of this class answered on a restored result.
    pub fn span(self) -> &'static str {
        match self {
            Class::PointsTo => "serve.points_to",
            Class::MayAlias => "serve.may_alias",
            Class::CallTargets => "serve.call_targets",
            Class::CastCheck => "serve.cast_check",
            Class::NotFound => "serve.not_found",
        }
    }
}

/// Span name of a mixed batch answered on a restored result.
pub const MIX_SPAN: &str = "serve.mix";

/// One fixed-size batch: single-class (`class` set) or drawn from the
/// whole mix query by query.
#[derive(Debug)]
pub struct Batch {
    class: Option<Class>,
    queries: Vec<Query>,
}

impl Batch {
    fn span(&self) -> &'static str {
        self.class.map_or(MIX_SPAN, Class::span)
    }
}

/// The seeded query pool of one program: `MIX_BATCHES` batches whose
/// every query is drawn from the mix (their latency is `query_ns_p50`:
/// every batch costs about the mix average, so the median does not jump
/// between classes), then `CLASS_BATCHES` single-class batches
/// per class (the per-class layer metrics). Ids are drawn inside the
/// program's id spaces, except for `NotFound`, whose ids lie past the
/// end of one space.
fn query_pool(program: &Program, seed: u64, salt: &str) -> Vec<Batch> {
    let mut rng = SplitMix64::new(seed ^ fnv_str(salt));
    let vars = program.var_count() as u64;
    let sites = program.call_site_count() as u64;
    let casts = program.cast_count() as u64;
    let id = |rng: &mut SplitMix64, n: u64| rng.below(n.max(1)) as u32;
    let past = |rng: &mut SplitMix64, n: u64| (n + rng.below(1024)) as u32;
    let query = |rng: &mut SplitMix64, class: Option<Class>| match class
        .unwrap_or_else(|| Class::draw(rng))
    {
        Class::PointsTo => Query::PointsTo(id(rng, vars)),
        Class::MayAlias => Query::MayAlias(id(rng, vars), id(rng, vars)),
        Class::CallTargets => Query::CallTargets(id(rng, sites)),
        Class::CastCheck => Query::CastCheck(id(rng, casts)),
        Class::NotFound => match rng.below(4) {
            0 => Query::PointsTo(past(rng, vars)),
            1 => Query::MayAlias(id(rng, vars), past(rng, vars)),
            2 => Query::CallTargets(past(rng, sites)),
            _ => Query::CastCheck(past(rng, casts)),
        },
    };
    let classes = std::iter::repeat_n(None, MIX_BATCHES).chain(
        Class::ALL
            .iter()
            .flat_map(|&c| std::iter::repeat_n(Some(c), CLASS_BATCHES)),
    );
    classes
        .map(|class| Batch {
            class,
            queries: (0..BATCH).map(|_| query(&mut rng, class)).collect(),
        })
        .collect()
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv_str(s: &str) -> u64 {
    s.bytes()
        .fold(FNV_SEED, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Answers a batch and folds every answer (or typed error) into one
/// digest.
fn digest(server: &QueryServer<'_>, batch: &[Query]) -> u64 {
    let mut h = FNV_SEED;
    for &q in batch {
        let v = match server.answer(q) {
            Ok(v) => v,
            Err(QueryError::UnknownVar(v)) => 1 << 40 | u64::from(v),
            Err(QueryError::UnknownCallSite(s)) => 2 << 40 | u64::from(s),
            Err(QueryError::UnknownCast(c)) => 3 << 40 | u64::from(c),
        };
        h = (h ^ v).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Table-2 name of a cell: `2obj`, or `M-2obj` under the Mahjong heap.
pub fn cell_name(sens: Sensitivity, mahjong: bool) -> String {
    if mahjong {
        format!("M-{}", sens.name())
    } else {
        sens.name()
    }
}

fn run_with<H: HeapAbstraction + Clone + Send + Sync>(
    program: &Program,
    sens: Sensitivity,
    heap: H,
    threads: usize,
) -> Result<AnalysisResult, Unscalable> {
    let budget = Budget::seconds(BUDGET_SECS);
    match sens {
        Sensitivity::Ci => AnalysisConfig::new(ContextInsensitive, heap)
            .budget(budget)
            .threads(threads)
            .run(program),
        Sensitivity::Cs(k) => AnalysisConfig::new(CallSiteSensitive::new(k), heap)
            .budget(budget)
            .threads(threads)
            .run(program),
        Sensitivity::Obj(k) => AnalysisConfig::new(ObjectSensitive::new(k), heap)
            .budget(budget)
            .threads(threads)
            .run(program),
        Sensitivity::Type(k) => AnalysisConfig::new(TypeSensitive::new(k), heap)
            .budget(budget)
            .threads(threads)
            .run(program),
    }
}

/// The main analysis of one cell: alloc-site heap, or the Mahjong map.
pub fn solve(
    program: &Program,
    sens: Sensitivity,
    mom: Option<MergedObjectMap>,
    threads: usize,
) -> Result<AnalysisResult, Unscalable> {
    match mom {
        None => run_with(program, sens, AllocSiteAbstraction, threads),
        Some(m) => run_with(program, sens, m, threads),
    }
}

/// The three checked client metrics: call-graph edges, poly call
/// sites, may-fail casts.
pub fn client_triple(m: &ClientMetrics) -> [usize; 3] {
    [m.call_graph_edges, m.poly_call_sites, m.may_fail_casts]
}

/// A generated program with its seeded query pool.
#[derive(Debug)]
pub struct Prog {
    name: &'static str,
    scale: usize,
    program: Program,
    pool: Vec<Batch>,
}

/// Shared state of one run: recorder, operation counts, and what the
/// outputs are checked against.
#[derive(Debug)]
pub struct Bench<'e> {
    pub rec: Recorder,
    pub ops: Ops,
    /// Resolved worker threads for the solver and for Mahjong.
    pub threads: usize,
    seed: u64,
    expected: &'e Expected,
    /// First observation per cell. The first pass checks against the
    /// pinned file; later passes check that they reproduce the first,
    /// so one wrong pinned value is one failed operation per run.
    seen_fp: BTreeMap<String, u64>,
    seen_clients: BTreeMap<String, [usize; 3]>,
    snapshot_path: PathBuf,
}

impl<'e> Bench<'e> {
    pub fn new(
        rec: Recorder,
        threads: usize,
        seed: u64,
        expected: &'e Expected,
        snapshot_path: PathBuf,
    ) -> Self {
        Bench {
            rec,
            ops: Ops::default(),
            threads,
            seed,
            expected,
            seen_fp: BTreeMap::new(),
            seen_clients: BTreeMap::new(),
            snapshot_path,
        }
    }

    fn generate(&mut self, name: &'static str, scale: usize) -> Prog {
        let program = self.rec.call("workloads.generate", || {
            workloads::dacapo::workload(name, scale).program
        });
        let pool = query_pool(&program, self.seed, &format!("{name}@{scale}"));
        Prog {
            name,
            scale,
            program,
            pool,
        }
    }

    fn check_fingerprint(&mut self, key: &str, fp: u64) {
        let want = self
            .seen_fp
            .get(key)
            .copied()
            .or_else(|| self.expected.fingerprint(key));
        self.ops.check(want == Some(fp), || {
            let want = want.map_or("none".to_owned(), |w| format!("{w:#018x}"));
            format!("{key}: fingerprint {fp:#018x}, expected {want}")
        });
        self.seen_fp.entry(key.to_owned()).or_insert(fp);
    }

    fn check_clients(&mut self, key: &str, got: [usize; 3]) {
        let want = self
            .seen_clients
            .get(key)
            .copied()
            .or_else(|| self.expected.clients(key));
        self.ops.check(want == Some(got), || {
            format!("{key}: client metrics {got:?}, expected {want:?}")
        });
        self.seen_clients.entry(key.to_owned()).or_insert(got);
    }

    /// ci → FPG → merge; `None` (one failed operation) if ci runs over
    /// budget.
    fn pre_analysis(&mut self, prog: &Prog) -> Option<MergedObjectMap> {
        let threads = self.threads;
        let pre = self.rec.call("pta.ci", || {
            AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
                .budget(Budget::seconds(BUDGET_SECS))
                .threads(threads)
                .run(&prog.program)
        });
        let name = prog.name;
        if !self
            .ops
            .check(pre.is_ok(), || format!("{name}: ci over budget"))
        {
            return None;
        }
        let pre = pre.ok()?;
        let config = MahjongConfig {
            threads,
            ..MahjongConfig::default()
        };
        let fpg = self.rec.call("mahjong.fpg", || {
            FieldPointsToGraph::from_analysis(&prog.program, &pre, config.model_null)
        });
        let out = self.rec.call("mahjong.merge", || {
            mahjong::merge_equivalent_objects(&fpg, &config)
        });
        let s = &out.stats;
        self.rec.count("mahjong.objects", s.objects as f64);
        self.rec
            .count("mahjong.merged_objects", s.merged_objects as f64);
        self.rec.count("mahjong.dfa_built", s.dfa_built as f64);
        self.rec.count("mahjong.sig_buckets", s.sig_buckets as f64);
        Some(out.mom)
    }

    fn solver_counts(&mut self, s: &AnalysisStats) {
        self.rec.count("pta.worklist_pops", s.worklist_pops as f64);
        self.rec
            .count("pta.propagated_objects", s.propagated_objects as f64);
        self.rec.count("pta.copy_edges", s.copy_edges as f64);
        self.rec
            .count("pta.collapse_sweeps", s.collapse_sweeps as f64);
        self.rec.count("pta.wave_rounds", s.wave_rounds as f64);
        self.rec
            .count("pta.scc_collapsed_ptrs", s.scc_collapsed_ptrs as f64);
        self.rec.count("pta.contexts", s.context_count as f64);
        self.rec.peak("pta.pts_peak_words", s.pts_peak_words as f64);
        self.rec.count("pta.dedup_hits", s.pts_dedup_hits as f64);
        self.rec
            .count("pta.seals", (s.pts_interned + s.pts_dedup_hits) as f64);
    }

    /// Solves one cell and checks its client metrics; the fresh result
    /// comes back for the fingerprint or for serving.
    fn solve_cell(
        &mut self,
        prog: &Prog,
        key: &str,
        sens: Sensitivity,
        mom: Option<&MergedObjectMap>,
    ) -> Option<(AnalysisResult, [usize; 3])> {
        let (threads, heap) = (self.threads, mom.cloned());
        let mahjong = heap.is_some();
        let (res, d) = self
            .rec
            .call_timed("pta.solve", || solve(&prog.program, sens, heap, threads));
        let cell = format!("pta.solve_s.{}.{}", prog.name, cell_name(sens, mahjong));
        self.rec.cell(cell, d.as_secs_f64(), res.is_ok());
        if !self.ops.check(res.is_ok(), || {
            format!("{key}: over the {BUDGET_SECS}s budget")
        }) {
            return None;
        }
        let result = res.ok()?;
        self.solver_counts(result.stats());
        let metrics = self.rec.call("clients.metrics", || {
            ClientMetrics::compute(&prog.program, &result)
        });
        let got = client_triple(&metrics);
        self.check_clients(key, got);
        Some((result, got))
    }

    /// Digests of the pool answered on a fresh result.
    fn fresh_digests(&mut self, prog: &Prog, result: &AnalysisResult) -> Vec<u64> {
        let server = self.rec.call("serve.server_new", || {
            QueryServer::new(&prog.program, result)
        });
        self.rec.call("serve.answer_fresh", || {
            prog.pool
                .iter()
                .map(|b| digest(&server, &b.queries))
                .collect()
        })
    }

    /// extract → save → load → restore; `None` (one failed operation)
    /// on any error.
    fn round_trip(
        &mut self,
        key: &str,
        meta: snapshot::Meta,
        result: &AnalysisResult,
        mom: Option<Vec<u32>>,
    ) -> Option<AnalysisResult> {
        let path = self.snapshot_path.clone();
        let raw = self
            .rec
            .call("snapshot.extract", || pta::snapshot::extract(result));
        let snap = snapshot::Snapshot { meta, raw, mom };
        let saved = self
            .rec
            .call("snapshot.save", || snapshot::save(&path, &snap));
        self.free(snap);
        let bytes = match saved {
            Ok(bytes) => bytes,
            Err(e) => {
                self.ops.check(false, || format!("{key}: save: {e}"));
                return None;
            }
        };
        self.rec.count("snapshot.bytes", bytes as f64);
        let restored = self
            .rec
            .call("snapshot.load", || snapshot::load(&path))
            .map_err(|e| format!("load: {e}"))
            .and_then(|snap| {
                self.rec
                    .call("pta.restore", || pta::snapshot::restore(snap.raw))
                    .map_err(|e| format!("restore: {e}"))
            });
        match restored {
            Ok(r) => {
                self.ops.check(true, String::new);
                Some(r)
            }
            Err(e) => {
                self.ops.check(false, || format!("{key}: {e}"));
                None
            }
        }
    }

    /// Canonical fingerprint of a result, checked against the pinned
    /// file.
    fn fingerprint(&mut self, prog: &Prog, key: &str, result: &AnalysisResult) {
        let fp = self.rec.call("serve.fingerprint", || {
            canonical_fingerprint(&prog.program, result)
        });
        self.check_fingerprint(key, fp);
    }

    /// Frees a result or raw snapshot (their destructors are
    /// solver-owned work too).
    fn free<T>(&mut self, value: T) {
        self.rec.call("pta.drop", move || drop(value));
    }

    /// Fingerprint of the restored result, then the pool answered on it
    /// and checked batch by batch against the fresh answers.
    fn serve_restored(&mut self, prog: &Prog, key: &str, restored: &AnalysisResult, fresh: &[u64]) {
        self.fingerprint(prog, key, restored);
        let server = self.rec.call("serve.server_new", || {
            QueryServer::new(&prog.program, restored)
        });
        for (b, &want) in prog.pool.iter().zip(fresh) {
            let (got, d) = self
                .rec
                .call_timed(b.span(), || digest(&server, &b.queries));
            if b.class.is_none() {
                self.rec.batch(d.as_nanos() as f64 / b.queries.len() as f64);
            }
            self.ops.check(got == want, || {
                format!("{key}: a query batch answers differently after restore")
            });
        }
    }

    /// One whole cell of a pass: solve, clients, and the fingerprint of
    /// the fresh result. Returns the client metrics when the cell
    /// solved.
    fn cell(
        &mut self,
        prog: &Prog,
        sens: Sensitivity,
        mom: Option<&MergedObjectMap>,
    ) -> Option<[usize; 3]> {
        let key = format!(
            "{}@{}.{}",
            prog.name,
            prog.scale,
            cell_name(sens, mom.is_some())
        );
        self.rec.enter("cell");
        let out = self
            .solve_cell(prog, &key, sens, mom)
            .map(|(result, clients)| {
                self.fingerprint(prog, &key, &result);
                self.free(result);
                clients
            });
        self.rec.leave();
        out
    }

    /// Solves one cell for serving: client metrics checked, the query
    /// pool answered on the fresh result. `mom` carries the Mahjong map
    /// with the representative table its snapshot stores.
    fn serve_cell(
        &mut self,
        prog: &Prog,
        sens: Sensitivity,
        mom: Option<(&MergedObjectMap, Vec<u32>)>,
    ) -> Option<Served> {
        let name = cell_name(sens, mom.is_some());
        let key = format!("{}@{}.{name}", prog.name, prog.scale);
        let (result, _) = self.solve_cell(prog, &key, sens, mom.as_ref().map(|m| m.0))?;
        let fresh = self.fresh_digests(prog, &result);
        Some(Served {
            meta: meta(prog, &name, mom.is_some(), self.threads),
            key,
            result,
            mom: mom.map(|m| m.1),
            fresh,
        })
    }

    /// Persists, warm-starts and queries a served result.
    fn persist_and_query(&mut self, prog: &Prog, s: &Served) {
        if let Some(restored) = self.round_trip(&s.key, s.meta.clone(), &s.result, s.mom.clone()) {
            self.serve_restored(prog, &s.key, &restored, &s.fresh);
            self.free(restored);
        }
    }

    /// Serves the ci result of [`PROBE_PROGRAM`] once, in the set-up of
    /// `table2` and `mahjong`.
    fn probe(&mut self, progs: &[Prog]) {
        let Some(prog) = progs.iter().find(|p| p.name == PROBE_PROGRAM) else {
            return;
        };
        self.rec.enter("cell");
        if let Some(s) = self.serve_cell(prog, Sensitivity::Ci, None) {
            self.persist_and_query(prog, &s);
            self.free(s.result);
        }
        self.rec.leave();
    }
}

/// A solved result kept for persisting and querying.
#[derive(Debug)]
struct Served {
    key: String,
    meta: snapshot::Meta,
    result: AnalysisResult,
    mom: Option<Vec<u32>>,
    fresh: Vec<u64>,
}

fn meta(prog: &Prog, cell: &str, mahjong: bool, threads: usize) -> snapshot::Meta {
    snapshot::Meta {
        program: prog.name.to_owned(),
        scale: prog.scale as u32,
        analysis: cell.trim_start_matches("M-").to_owned(),
        heap: if mahjong { "mahjong" } else { "alloc-site" }.to_owned(),
        threads: threads as u32,
    }
}

/// The representative table a snapshot stores for a Mahjong heap.
fn mom_table(mom: &MergedObjectMap) -> Vec<u32> {
    (0..mom.len())
        .map(|i| mom.repr(jir::AllocId::from_usize(i)).as_u32())
        .collect()
}

/// A workload: a set-up that builds its inputs, and a pass that is
/// timed.
pub trait Workload: Sized {
    fn setup(b: &mut Bench<'_>) -> Self;
    fn pass(&self, b: &mut Bench<'_>);
}

/// `table2`: two full Table 2 rows.
#[derive(Debug)]
pub struct Table2 {
    progs: Vec<Prog>,
}

impl Workload for Table2 {
    fn setup(b: &mut Bench<'_>) -> Self {
        let progs: Vec<Prog> = TABLE2_PROGRAMS
            .iter()
            .map(|&n| b.generate(n, TABLE2_SCALE))
            .collect();
        b.probe(&progs);
        Table2 { progs }
    }

    fn pass(&self, b: &mut Bench<'_>) {
        for prog in &self.progs {
            b.rec.enter("program");
            if let Some(mom) = b.pre_analysis(prog) {
                for sens in Sensitivity::TABLE2 {
                    let alloc = b.cell(prog, sens, None);
                    let merged = b.cell(prog, sens, Some(&mom));
                    // EXPERIMENTS Claim 5: M-kA client metrics equal kA's.
                    if let (Some(a), Some(m)) = (alloc, merged) {
                        b.ops.check(a == m, || {
                            format!(
                                "{}: M-{} clients {m:?} differ from {a:?}",
                                prog.name,
                                sens.name()
                            )
                        });
                    }
                }
            }
            b.rec.leave();
        }
    }
}

/// `mahjong`: the user's Mahjong path over all 12 programs.
#[derive(Debug)]
pub struct MahjongPath {
    progs: Vec<Prog>,
}

impl Workload for MahjongPath {
    fn setup(b: &mut Bench<'_>) -> Self {
        let progs: Vec<Prog> = workloads::dacapo::PROGRAMS
            .iter()
            .map(|&n| b.generate(n, MAHJONG_SCALE))
            .collect();
        b.probe(&progs);
        MahjongPath { progs }
    }

    fn pass(&self, b: &mut Bench<'_>) {
        for prog in &self.progs {
            b.rec.enter("program");
            if let Some(mom) = b.pre_analysis(prog) {
                b.cell(prog, Sensitivity::Obj(3), Some(&mom));
            }
            b.rec.leave();
        }
    }
}

/// `serve`: the read-and-persist side over two pmd results.
#[derive(Debug)]
pub struct Serve {
    prog: Prog,
    served: Vec<Served>,
}

impl Workload for Serve {
    fn setup(b: &mut Bench<'_>) -> Self {
        let prog = b.generate(SERVE_PROGRAM, SERVE_SCALE);
        let mom = b.pre_analysis(&prog);
        let sens = Sensitivity::Obj(2);
        let mut served: Vec<Served> = b.serve_cell(&prog, sens, None).into_iter().collect();
        if let Some(m) = &mom {
            served.extend(b.serve_cell(&prog, sens, Some((m, mom_table(m)))));
        }
        Serve { prog, served }
    }

    fn pass(&self, b: &mut Bench<'_>) {
        for s in &self.served {
            b.rec.enter("cell");
            b.persist_and_query(&self.prog, s);
            b.rec.leave();
        }
    }
}

/// Every cell the workloads check, as `(program, scale, sensitivity,
/// mahjong)`: the rows `--emit-expected` writes.
pub fn all_cells() -> Vec<(&'static str, usize, Sensitivity, bool)> {
    let mut cells = Vec::new();
    for p in TABLE2_PROGRAMS {
        for s in Sensitivity::TABLE2 {
            cells.push((p, TABLE2_SCALE, s, false));
            cells.push((p, TABLE2_SCALE, s, true));
        }
    }
    for p in workloads::dacapo::PROGRAMS {
        cells.push((p, MAHJONG_SCALE, Sensitivity::Obj(3), true));
    }
    for scale in [TABLE2_SCALE, MAHJONG_SCALE] {
        cells.push((PROBE_PROGRAM, scale, Sensitivity::Ci, false));
    }
    cells
}
