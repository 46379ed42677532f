//! # snapshot — versioned binary persistence for analysis results
//!
//! Serializes a solved [`pta::AnalysisResult`] (via its raw table view,
//! [`pta::snapshot::RawResult`]) plus the Mahjong merged-object map into
//! a single self-describing binary artifact, so a long-lived query
//! server can warm-start in milliseconds instead of re-running the
//! analysis. The format is:
//!
//! - **versioned** — a magic/version header ([`MAGIC`], [`VERSION`]);
//!   readers reject snapshots from a different major version with a
//!   typed error instead of misinterpreting bytes;
//! - **checksummed** — the header and every section carry a CRC-32
//!   (IEEE, the zlib polynomial — see [`crc32`]), so any single-bit
//!   corruption is detected before the payload is interpreted;
//! - **dedup-aware** — each unique points-to set is encoded exactly
//!   once in the `SETS` section and pointer rows reference sets by
//!   index, mirroring the in-memory hash-consing interner; on real
//!   workloads this is the difference between megabytes and tens of
//!   megabytes;
//! - **explicitly little-endian** — every integer is written LE
//!   regardless of host byte order, with fixed-width fields throughout
//!   (`u8` tags, `u32` ids/counts, `u64` lengths/counters).
//!
//! The byte-level layout is specified field by field in the repository's
//! `SERVING.md`.
//!
//! # Robustness
//!
//! [`decode`] never panics on malformed input: every read is
//! bounds-checked against the remaining buffer ([`SnapshotError::Truncated`]),
//! element counts are validated against the bytes that must back them
//! before anything is allocated (a forged "4 billion sets" header fails
//! fast instead of attempting the allocation), and checksums are
//! verified before payloads are parsed. Structural validation beyond
//! the byte level — id bounds, set ordering, context-table invariants —
//! happens in [`pta::snapshot::restore`], which is equally total.
//!
//! # Round-trip guarantees
//!
//! Encoding is canonical: `encode` is deterministic and
//! `encode(decode(bytes)) == bytes` for any `bytes` that decode at all.
//! Together with the canonical extraction order of
//! [`pta::snapshot::extract`], saving a restored result reproduces the
//! original file bit for bit, and restored results answer every query
//! identically to the fresh analysis (the repository's golden
//! fingerprint tests pin this across the whole corpus).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::path::Path;

use pta::snapshot::{RawCtxElem, RawObj, RawPtrKey, RawResult};
use pta::{AnalysisStats, MergedObjectMap};

/// File magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"MJSN";

/// Format version written by this library. Readers reject any other
/// version — the format makes no cross-version compatibility promise
/// (see `SERVING.md` for the policy).
pub const VERSION: u32 = 2;

/// Section ids, in the order sections must appear in the file.
const SECTION_IDS: [(u32, &str); 9] = [
    (1, "META"),
    (2, "CTX"),
    (3, "OBJ"),
    (4, "SETS"),
    (5, "PTRS"),
    (6, "CG"),
    (7, "REACH"),
    (8, "MOM"),
    (9, "STATS"),
];

/// Why a snapshot could not be read. Every failure mode of [`decode`]
/// and [`load`] is represented here — the load path returns these
/// instead of panicking, whatever the input bytes are.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The buffer ended before a field it promised (`what` names the
    /// field being read).
    Truncated {
        /// The field or structure whose bytes ran out.
        what: &'static str,
    },
    /// The first four bytes are not [`MAGIC`] — not a snapshot file.
    BadMagic,
    /// The header names a version this library does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A CRC-32 check failed: the named section's bytes were altered
    /// after writing.
    ChecksumMismatch {
        /// The section (or `"header"`) whose checksum failed.
        section: &'static str,
    },
    /// The bytes passed integrity checks but violate the format's
    /// structural rules (wrong section order, unknown tag, an id table
    /// that is not a fixed point, …).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (this reader is v{VERSION})")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot checksum mismatch in {section} section")
            }
            SnapshotError::Malformed(detail) => write!(f, "malformed snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Provenance recorded alongside the tables: which run produced this
/// snapshot. The serving layer uses it to re-load the matching program
/// and label benchmark artifacts; none of it affects query answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Meta {
    /// Workload/program name (e.g. `"luindex"`, `"figure1"`).
    pub program: String,
    /// Workload scale factor the program was generated at.
    pub scale: u32,
    /// Context-sensitivity name (e.g. `"2obj"`, `"ci"`).
    pub analysis: String,
    /// Heap-abstraction name (e.g. `"mahjong"`, `"alloc-site"`).
    pub heap: String,
    /// Worker threads the producing run used.
    pub threads: u32,
}

/// A decoded snapshot: provenance, the raw result tables, and the
/// merged-object map of the run (identity-map absent for non-merging
/// heap abstractions).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Provenance of the producing run.
    pub meta: Meta,
    /// The flattened analysis result (see [`pta::snapshot`]).
    pub raw: RawResult,
    /// Per-allocation-site representative table of the merged-object
    /// map, or `None` when the run used a non-merging abstraction.
    /// Always idempotent after a successful [`decode`].
    pub mom: Option<Vec<u32>>,
}

impl Snapshot {
    /// Rebuilds the merged-object map, if one was persisted. Safe after
    /// [`decode`]: the representative table was already validated to be
    /// an idempotent self-map.
    pub fn merged_object_map(&self) -> Option<MergedObjectMap> {
        self.mom.as_ref().map(|repr| {
            MergedObjectMap::new(repr.iter().map(|&r| jir::AllocId::from_u32(r)).collect())
        })
    }
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial, reflected form) — the
/// checksum every header and section carries.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Nibble-driven table: 16 entries is enough to stay fast without a
    // build-time table, and this runs once per section, not per query.
    const POLY: u32 = 0xEDB8_8320;
    let mut table = [0u32; 16];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..4 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
        }
        *entry = c;
    }
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xF) as usize] ^ (crc >> 4);
        crc = table[((crc ^ (b >> 4) as u32) & 0xF) as usize] ^ (crc >> 4);
    }
    !crc
}

// --- Encoding ---------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string fits u32"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

fn stats_words(s: &AnalysisStats) -> [u64; 20] {
    [
        s.elapsed.as_nanos() as u64,
        s.init_time.as_nanos() as u64,
        s.fixpoint_time.as_nanos() as u64,
        s.finalize_time.as_nanos() as u64,
        s.worklist_pops,
        s.propagated_objects,
        s.copy_edges,
        s.call_graph_edges,
        s.reachable_method_contexts,
        s.context_count as u64,
        s.pts_peak_words,
        s.pts_interned,
        s.pts_dedup_hits,
        s.intern_probe_ns,
        s.scc_collapsed_ptrs,
        s.collapse_sweeps,
        s.wave_rounds,
        s.dsu_ops,
        s.mask_ranges,
        s.range_union_hits,
    ]
}

fn stats_from_words(w: &[u64; 20]) -> Result<AnalysisStats, SnapshotError> {
    use std::time::Duration;
    Ok(AnalysisStats {
        elapsed: Duration::from_nanos(w[0]),
        init_time: Duration::from_nanos(w[1]),
        fixpoint_time: Duration::from_nanos(w[2]),
        finalize_time: Duration::from_nanos(w[3]),
        worklist_pops: w[4],
        propagated_objects: w[5],
        copy_edges: w[6],
        call_graph_edges: w[7],
        reachable_method_contexts: w[8],
        context_count: usize::try_from(w[9])
            .map_err(|_| SnapshotError::Malformed("context count overflows usize".into()))?,
        pts_peak_words: w[10],
        pts_interned: w[11],
        pts_dedup_hits: w[12],
        intern_probe_ns: w[13],
        scc_collapsed_ptrs: w[14],
        collapse_sweeps: w[15],
        wave_rounds: w[16],
        dsu_ops: w[17],
        mask_ranges: w[18],
        range_union_hits: w[19],
        order_search_edges: 0,
        dispatch_groups: 0,
    })
}

/// Serializes a snapshot to its canonical byte representation.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut sections: Vec<Vec<u8>> = Vec::with_capacity(SECTION_IDS.len());

    // META
    let mut w = Writer { buf: Vec::new() };
    w.u32(snap.meta.scale);
    w.u32(snap.meta.threads);
    w.str(&snap.meta.program);
    w.str(&snap.meta.analysis);
    w.str(&snap.meta.heap);
    sections.push(w.buf);

    // CTX
    let mut w = Writer { buf: Vec::new() };
    w.u32(snap.raw.ctxs.len() as u32);
    for elems in &snap.raw.ctxs {
        w.u32(elems.len() as u32);
        for e in elems {
            w.u8(e.tag);
            w.u32(e.value);
        }
    }
    sections.push(w.buf);

    // OBJ
    let mut w = Writer { buf: Vec::new() };
    w.u32(snap.raw.obj_id_space);
    w.u32(snap.raw.objs.len() as u32);
    for o in &snap.raw.objs {
        w.u32(o.id);
        w.u32(o.hctx);
        w.u32(o.alloc);
        w.u32(o.ty);
    }
    sections.push(w.buf);

    // SETS
    let mut w = Writer { buf: Vec::new() };
    w.u32(snap.raw.sets.len() as u32);
    for set in &snap.raw.sets {
        w.u32(set.len() as u32);
        for &e in set {
            w.u32(e);
        }
    }
    sections.push(w.buf);

    // PTRS
    let mut w = Writer { buf: Vec::new() };
    w.u32(snap.raw.ptr_keys.len() as u32);
    for k in &snap.raw.ptr_keys {
        w.u8(k.tag);
        w.u32(k.a);
        w.u32(k.b);
    }
    for &r in &snap.raw.redirect {
        w.u32(r);
    }
    for &s in &snap.raw.row_set {
        w.u32(s);
    }
    sections.push(w.buf);

    // CG
    let mut w = Writer { buf: Vec::new() };
    w.u64(snap.raw.cs_cg_edge_count);
    w.u32(snap.raw.cg_edges.len() as u32);
    for &(s, m) in &snap.raw.cg_edges {
        w.u32(s);
        w.u32(m);
    }
    sections.push(w.buf);

    // REACH
    let mut w = Writer { buf: Vec::new() };
    w.u32(snap.raw.reachable.len() as u32);
    for &(c, m) in &snap.raw.reachable {
        w.u32(c);
        w.u32(m);
    }
    w.u32(snap.raw.reachable_methods.len() as u32);
    for &m in &snap.raw.reachable_methods {
        w.u32(m);
    }
    sections.push(w.buf);

    // MOM
    let mut w = Writer { buf: Vec::new() };
    match &snap.mom {
        None => w.u8(0),
        Some(repr) => {
            w.u8(1);
            w.u32(repr.len() as u32);
            for &r in repr {
                w.u32(r);
            }
        }
    }
    sections.push(w.buf);

    // STATS
    let mut w = Writer { buf: Vec::new() };
    for word in stats_words(&snap.raw.stats) {
        w.u64(word);
    }
    sections.push(w.buf);

    // Assemble: header (magic, version, section count, header CRC),
    // then each section as (id, payload length, payload CRC, payload).
    let mut out = Writer { buf: Vec::new() };
    out.buf.extend_from_slice(&MAGIC);
    out.u32(VERSION);
    out.u32(sections.len() as u32);
    let header_crc = crc32(&out.buf);
    out.u32(header_crc);
    for ((id, _), payload) in SECTION_IDS.iter().zip(&sections) {
        out.u32(*id);
        out.u64(payload.len() as u64);
        out.u32(crc32(payload));
        out.buf.extend_from_slice(payload);
    }
    out.buf
}

// --- Decoding ---------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().unwrap()))
    }

    /// Reads a `u32` count that promises `count * elem_bytes` more
    /// payload, rejecting counts the buffer cannot back — so a forged
    /// header cannot trigger a huge allocation.
    fn count(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u32(what)? as usize;
        if (n as u64) * (elem_bytes as u64) > self.remaining() as u64 {
            return Err(SnapshotError::Truncated { what });
        }
        Ok(n)
    }

    fn str(&mut self, what: &'static str) -> Result<String, SnapshotError> {
        let n = self.count(1, what)?;
        let bytes = self.bytes(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed(format!("{what}: invalid UTF-8")))
    }

    fn done(&self, section: &'static str) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed(format!(
                "{section} section has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Parses a snapshot from bytes, verifying the magic, version, and all
/// checksums. Total: any input either decodes or returns a
/// [`SnapshotError`] — no panics, no unbounded allocations.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.bytes(4, "magic")?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32("version")?;
    let section_count = r.u32("section count")?;
    let header_crc = r.u32("header checksum")?;
    if crc32(&bytes[..12]) != header_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "header" });
    }
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if section_count as usize != SECTION_IDS.len() {
        return Err(SnapshotError::Malformed(format!(
            "expected {} sections, header says {section_count}",
            SECTION_IDS.len()
        )));
    }

    let mut payloads: Vec<&[u8]> = Vec::with_capacity(SECTION_IDS.len());
    for &(id, name) in &SECTION_IDS {
        let found = r.u32("section id")?;
        if found != id {
            return Err(SnapshotError::Malformed(format!(
                "expected section {name} (id {id}), found id {found}"
            )));
        }
        let len = r.u64("section length")?;
        let crc = r.u32("section checksum")?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= r.remaining())
            .ok_or(SnapshotError::Truncated { what: name })?;
        let payload = r.bytes(len, name)?;
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch { section: name });
        }
        payloads.push(payload);
    }
    r.done("file")?;

    // META
    let mut r = Reader { buf: payloads[0], pos: 0 };
    let scale = r.u32("meta.scale")?;
    let threads = r.u32("meta.threads")?;
    let program = r.str("meta.program")?;
    let analysis = r.str("meta.analysis")?;
    let heap = r.str("meta.heap")?;
    r.done("META")?;
    let meta = Meta { program, scale, analysis, heap, threads };

    // CTX — each context costs at least 4 bytes (its element count).
    let mut r = Reader { buf: payloads[1], pos: 0 };
    let n = r.count(4, "context count")?;
    let mut ctxs = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.count(5, "context element count")?;
        let mut elems = Vec::with_capacity(k);
        for _ in 0..k {
            let tag = r.u8("context element tag")?;
            let value = r.u32("context element value")?;
            elems.push(RawCtxElem { tag, value });
        }
        ctxs.push(elems);
    }
    r.done("CTX")?;

    // OBJ
    let mut r = Reader { buf: payloads[2], pos: 0 };
    let obj_id_space = r.u32("object id space")?;
    let n = r.count(16, "object count")?;
    let mut objs = Vec::with_capacity(n);
    for _ in 0..n {
        objs.push(RawObj {
            id: r.u32("object id")?,
            hctx: r.u32("object heap context")?,
            alloc: r.u32("object alloc site")?,
            ty: r.u32("object type")?,
        });
    }
    r.done("OBJ")?;

    // SETS
    let mut r = Reader { buf: payloads[3], pos: 0 };
    let n = r.count(4, "set count")?;
    let mut sets = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.count(4, "set length")?;
        let mut elems = Vec::with_capacity(k);
        for _ in 0..k {
            elems.push(r.u32("set element")?);
        }
        sets.push(elems);
    }
    r.done("SETS")?;

    // PTRS
    let mut r = Reader { buf: payloads[4], pos: 0 };
    let n = r.count(17, "pointer count")?;
    let mut ptr_keys = Vec::with_capacity(n);
    for _ in 0..n {
        ptr_keys.push(RawPtrKey {
            tag: r.u8("pointer tag")?,
            a: r.u32("pointer id a")?,
            b: r.u32("pointer id b")?,
        });
    }
    let mut redirect = Vec::with_capacity(n);
    for _ in 0..n {
        redirect.push(r.u32("redirect entry")?);
    }
    let mut row_set = Vec::with_capacity(n);
    for _ in 0..n {
        row_set.push(r.u32("row set index")?);
    }
    r.done("PTRS")?;

    // CG
    let mut r = Reader { buf: payloads[5], pos: 0 };
    let cs_cg_edge_count = r.u64("cs edge count")?;
    let n = r.count(8, "call-graph edge count")?;
    let mut cg_edges = Vec::with_capacity(n);
    for _ in 0..n {
        cg_edges.push((r.u32("edge site")?, r.u32("edge target")?));
    }
    r.done("CG")?;

    // REACH
    let mut r = Reader { buf: payloads[6], pos: 0 };
    let n = r.count(8, "reachable pair count")?;
    let mut reachable = Vec::with_capacity(n);
    for _ in 0..n {
        reachable.push((r.u32("reachable context")?, r.u32("reachable method")?));
    }
    let n = r.count(4, "reachable method count")?;
    let mut reachable_methods = Vec::with_capacity(n);
    for _ in 0..n {
        reachable_methods.push(r.u32("reachable method id")?);
    }
    r.done("REACH")?;

    // MOM
    let mut r = Reader { buf: payloads[7], pos: 0 };
    let mom = match r.u8("mom presence flag")? {
        0 => None,
        1 => {
            let n = r.count(4, "mom length")?;
            let mut repr = Vec::with_capacity(n);
            for _ in 0..n {
                repr.push(r.u32("mom representative")?);
            }
            // Validate the self-map here so merged_object_map() can
            // construct MergedObjectMap (whose constructor asserts)
            // without risk of panicking on hostile input.
            for (i, &rep) in repr.iter().enumerate() {
                let in_bounds = (rep as usize) < repr.len();
                if !in_bounds || repr[rep as usize] != rep {
                    return Err(SnapshotError::Malformed(format!(
                        "mom entry {i} -> {rep} is not an idempotent representative"
                    )));
                }
            }
            Some(repr)
        }
        f => {
            return Err(SnapshotError::Malformed(format!("unknown mom presence flag {f}")));
        }
    };
    r.done("MOM")?;

    // STATS
    let mut r = Reader { buf: payloads[8], pos: 0 };
    let mut words = [0u64; 20];
    for w in &mut words {
        *w = r.u64("stats counter")?;
    }
    r.done("STATS")?;
    let stats = stats_from_words(&words)?;

    Ok(Snapshot {
        meta,
        raw: RawResult {
            ctxs,
            objs,
            obj_id_space,
            ptr_keys,
            redirect,
            row_set,
            sets,
            reachable,
            reachable_methods,
            cg_edges,
            cs_cg_edge_count,
            stats,
        },
        mom,
    })
}

/// Encodes `snap` and writes it to `path` atomically (write to a
/// sibling temp file, then rename). Returns the byte count written.
pub fn save(path: &Path, snap: &Snapshot) -> Result<u64, SnapshotError> {
    let bytes = encode(snap);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Reads and decodes the snapshot at `path`.
pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        let program = jir::parse(
            "class A {
               field f: A;
               method id(this, v) { w = v; return w; }
               entry static method main() {
                 a = new A; b = new A;
                 a.f = b;
                 r = virt a.id(b);
                 return;
               }
             }",
        )
        .expect("parses");
        let result =
            pta::AnalysisConfig::new(pta::ObjectSensitive::new(2), pta::AllocSiteAbstraction)
                .run(&program)
                .expect("fits budget");
        Snapshot {
            meta: Meta {
                program: "tiny".into(),
                scale: 1,
                analysis: "2obj".into(),
                heap: "alloc-site".into(),
                threads: 1,
            },
            raw: pta::snapshot::extract(&result),
            mom: Some((0..program.alloc_count() as u32).collect()),
        }
    }

    #[test]
    fn byte_roundtrip_is_identity() {
        let snap = tiny_snapshot();
        let bytes = encode(&snap);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(snap, decoded);
        assert_eq!(bytes, encode(&decoded), "encode ∘ decode is the identity on bytes");
    }

    #[test]
    fn restore_after_decode_succeeds() {
        let snap = tiny_snapshot();
        let decoded = decode(&encode(&snap)).expect("decodes");
        let result = pta::snapshot::restore(decoded.raw).expect("restores");
        assert!(result.pointer_count() > 0);
        // The persisted map was the identity, so every site is its own class.
        let mom = snap.merged_object_map().expect("mom present");
        assert_eq!(mom.class_count(), mom.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&tiny_snapshot());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn version_mismatch_rejected() {
        // v1 is the previous layout (25 stats words); 99 an unknown one.
        for version in [1u32, 99] {
            let mut bytes = encode(&tiny_snapshot());
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            // Re-sign the header so the version check (not the checksum) fires.
            let crc = crc32(&bytes[..12]);
            bytes[12..16].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                decode(&bytes),
                Err(SnapshotError::UnsupportedVersion { found }) if found == version
            ));
        }
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let bytes = encode(&tiny_snapshot());
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected_without_panicking() {
        let bytes = encode(&tiny_snapshot());
        let mut rng = obs::rng::SplitMix64::new(0x5eed);
        for _ in 0..500 {
            let mut corrupt = bytes.clone();
            let byte = rng.below_usize(corrupt.len());
            let bit = rng.below(8) as u8;
            corrupt[byte] ^= 1 << bit;
            // Any single-bit flip lands in a checksummed region or the
            // checksum itself; either way decode must return an error.
            assert!(
                decode(&corrupt).is_err(),
                "bit {bit} of byte {byte} flipped and still decoded"
            );
        }
    }

    #[test]
    fn garbage_is_rejected_without_panicking() {
        let mut rng = obs::rng::SplitMix64::new(0x0bad_5eed);
        for round in 0..200 {
            let len = rng.below_usize(4096);
            let garbage: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            assert!(decode(&garbage).is_err(), "garbage round {round} decoded");
        }
    }

    #[test]
    fn non_idempotent_mom_rejected() {
        let mut snap = tiny_snapshot();
        let n = snap.mom.as_ref().unwrap().len() as u32;
        snap.mom = Some((0..n).map(|i| (i + 1) % n.max(1)).collect());
        if n < 2 {
            return; // 0 -> 0 is idempotent; nothing to test
        }
        let bytes = encode(&snap);
        assert!(matches!(decode(&bytes), Err(SnapshotError::Malformed(_))));
    }
}
