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

/// The reflected IEEE polynomial (zlib, PNG, Ethernet).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables, built at compile time: `CRC_TABLES[0]` is the
/// classic byte-at-a-time table, and `CRC_TABLES[k][b]` is the raw
/// (un-inverted) CRC register after byte `b` and then `k` zero bytes,
/// so eight table lookups advance the checksum over eight input bytes
/// at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial, reflected form) — the
/// checksum every header and section carries. Equal to zlib's
/// `crc32(0, bytes, len)`.
///
/// Every save and every load checksums the whole file, so this is on
/// the warm-start path: a slice-by-8 kernel consumes eight bytes per
/// step with eight independent table lookups, and only the last
/// `len % 8` bytes go byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// --- Encoding ---------------------------------------------------------------

/// Bytes of a section's framing: id, payload length, payload CRC.
const SECTION_FRAME: usize = 4 + 8 + 4;

/// Bytes of the file header: magic, version, section count, CRC.
const HEADER: usize = 4 + 4 + 4 + 4;

/// Bytes of the STATS payload: twenty `u64` counters.
const STATS_BYTES: usize = 20 * 8;

/// Appends little-endian fields to the one output buffer.
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
    /// A count of `items`, as the `u32` the format stores.
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("table fits u32"));
    }

    /// Appends one `N`-byte record per item: the buffer grows once,
    /// then every record is stored into place.
    fn records<T, const N: usize>(&mut self, items: &[T], f: impl Fn(&T) -> [u8; N]) {
        let start = self.buf.len();
        self.buf.resize(start + items.len() * N, 0);
        for (dst, item) in self.buf[start..].chunks_exact_mut(N).zip(items) {
            dst.copy_from_slice(&f(item));
        }
    }

    /// Frames the payload `body` appends as one section: writes its id
    /// and a placeholder length and CRC, lets `body` write the payload
    /// in place, then patches in the payload's length and checksum.
    fn section(&mut self, id: u32, body: impl FnOnce(&mut Writer)) {
        self.u32(id);
        let frame = self.buf.len();
        self.buf.extend_from_slice(&[0; 12]);
        let start = self.buf.len();
        body(self);
        let len = (self.buf.len() - start) as u64;
        let crc = crc32(&self.buf[start..]);
        self.buf[frame..frame + 8].copy_from_slice(&len.to_le_bytes());
        self.buf[frame + 8..frame + 12].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Little-endian bytes of two `u32`s, back to back.
fn le2(a: u32, b: u32) -> [u8; 8] {
    let mut out = [0; 8];
    out[..4].copy_from_slice(&a.to_le_bytes());
    out[4..].copy_from_slice(&b.to_le_bytes());
    out
}

/// A `u8` tag followed by two little-endian `u32`s.
fn tag_le2(tag: u8, a: u32, b: u32) -> [u8; 9] {
    let mut out = [0; 9];
    out[0] = tag;
    out[1..].copy_from_slice(&le2(a, b));
    out
}

/// The exact encoded size of `snap`, so [`encode`] allocates once.
fn encoded_len(snap: &Snapshot) -> usize {
    let raw = &snap.raw;
    let meta = 4 + 4 + [&snap.meta.program, &snap.meta.analysis, &snap.meta.heap]
        .iter()
        .map(|s| 4 + s.len())
        .sum::<usize>();
    let ctx = 4 + raw.ctxs.iter().map(|c| 4 + 5 * c.len()).sum::<usize>();
    let obj = 4 + 4 + 16 * raw.objs.len();
    let sets = 4 + raw.sets.iter().map(|s| 4 + 4 * s.len()).sum::<usize>();
    let ptrs = 4 + 9 * raw.ptr_keys.len() + 4 * raw.redirect.len() + 4 * raw.row_set.len();
    let cg = 8 + 4 + 8 * raw.cg_edges.len();
    let reach = 4 + 8 * raw.reachable.len() + 4 + 4 * raw.reachable_methods.len();
    let mom = 1 + snap.mom.as_ref().map_or(0, |m| 4 + 4 * m.len());
    let payloads = meta + ctx + obj + sets + ptrs + cg + reach + mom + STATS_BYTES;
    HEADER + SECTION_IDS.len() * SECTION_FRAME + payloads
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
///
/// Sections are written straight into one buffer sized up front
/// (`encoded_len`); each section's length and CRC are patched into
/// its frame once its payload is in place.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let raw = &snap.raw;
    let capacity = encoded_len(snap);
    let mut w = Writer { buf: Vec::with_capacity(capacity) };

    // Header: magic, version, section count, header CRC.
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);
    w.len(SECTION_IDS.len());
    let header_crc = crc32(&w.buf);
    w.u32(header_crc);

    let [meta, ctx, obj, sets, ptrs, cg, reach, mom, stats] = SECTION_IDS.map(|(id, _)| id);
    w.section(meta, |w| {
        w.u32(snap.meta.scale);
        w.u32(snap.meta.threads);
        w.str(&snap.meta.program);
        w.str(&snap.meta.analysis);
        w.str(&snap.meta.heap);
    });
    w.section(ctx, |w| {
        w.len(raw.ctxs.len());
        for elems in &raw.ctxs {
            w.len(elems.len());
            w.records(elems, |e| {
                let mut out = [0; 5];
                out[0] = e.tag;
                out[1..].copy_from_slice(&e.value.to_le_bytes());
                out
            });
        }
    });
    w.section(obj, |w| {
        w.u32(raw.obj_id_space);
        w.len(raw.objs.len());
        w.records(&raw.objs, |o| {
            let mut out = [0; 16];
            out[..8].copy_from_slice(&le2(o.id, o.hctx));
            out[8..].copy_from_slice(&le2(o.alloc, o.ty));
            out
        });
    });
    w.section(sets, |w| {
        w.len(raw.sets.len());
        for set in &raw.sets {
            w.len(set.len());
            w.records(set, |e| e.to_le_bytes());
        }
    });
    w.section(ptrs, |w| {
        w.len(raw.ptr_keys.len());
        w.records(&raw.ptr_keys, |k| tag_le2(k.tag, k.a, k.b));
        w.records(&raw.redirect, |r| r.to_le_bytes());
        w.records(&raw.row_set, |s| s.to_le_bytes());
    });
    w.section(cg, |w| {
        w.u64(raw.cs_cg_edge_count);
        w.len(raw.cg_edges.len());
        w.records(&raw.cg_edges, |&(s, m)| le2(s, m));
    });
    w.section(reach, |w| {
        w.len(raw.reachable.len());
        w.records(&raw.reachable, |&(c, m)| le2(c, m));
        w.len(raw.reachable_methods.len());
        w.records(&raw.reachable_methods, |m| m.to_le_bytes());
    });
    w.section(mom, |w| match &snap.mom {
        None => w.u8(0),
        Some(repr) => {
            w.u8(1);
            w.len(repr.len());
            w.records(repr, |r| r.to_le_bytes());
        }
    });
    w.section(stats, |w| w.records(&stats_words(&raw.stats), |s| s.to_le_bytes()));
    debug_assert_eq!(w.buf.len(), capacity, "encoded_len disagrees with encode");
    w.buf
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

    /// Reads `n` fixed-width `N`-byte records with one bounds check
    /// for the whole array, converting each with `f`.
    fn records<T, const N: usize>(
        &mut self,
        n: usize,
        what: &'static str,
        f: impl Fn(&[u8; N]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = n.checked_mul(N).ok_or(SnapshotError::Truncated { what })?;
        let bytes = self.bytes(len, what)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|c| f(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    /// Reads `n` little-endian `u32`s (one bounds check).
    fn u32s(&mut self, n: usize, what: &'static str) -> Result<Vec<u32>, SnapshotError> {
        self.records(n, what, |b| u32::from_le_bytes(*b))
    }

    /// Reads `n` pairs of little-endian `u32`s (one bounds check).
    fn u32_pairs(&mut self, n: usize, what: &'static str) -> Result<Vec<(u32, u32)>, SnapshotError> {
        self.records(n, what, |b: &[u8; 8]| (le_u32(&b[..4]), le_u32(&b[4..])))
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

/// The little-endian `u32` in `b` (exactly four bytes).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("four bytes"))
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
        ctxs.push(r.records(k, "context element", |b: &[u8; 5]| RawCtxElem {
            tag: b[0],
            value: le_u32(&b[1..]),
        })?);
    }
    r.done("CTX")?;

    // OBJ
    let mut r = Reader { buf: payloads[2], pos: 0 };
    let obj_id_space = r.u32("object id space")?;
    let n = r.count(16, "object count")?;
    let objs = r.records(n, "object", |b: &[u8; 16]| RawObj {
        id: le_u32(&b[..4]),
        hctx: le_u32(&b[4..8]),
        alloc: le_u32(&b[8..12]),
        ty: le_u32(&b[12..]),
    })?;
    r.done("OBJ")?;

    // SETS
    let mut r = Reader { buf: payloads[3], pos: 0 };
    let n = r.count(4, "set count")?;
    let mut sets = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.count(4, "set length")?;
        sets.push(r.u32s(k, "set element")?);
    }
    r.done("SETS")?;

    // PTRS
    let mut r = Reader { buf: payloads[4], pos: 0 };
    let n = r.count(17, "pointer count")?;
    let ptr_keys = r.records(n, "pointer key", |b: &[u8; 9]| RawPtrKey {
        tag: b[0],
        a: le_u32(&b[1..5]),
        b: le_u32(&b[5..]),
    })?;
    let redirect = r.u32s(n, "redirect entry")?;
    let row_set = r.u32s(n, "row set index")?;
    r.done("PTRS")?;

    // CG
    let mut r = Reader { buf: payloads[5], pos: 0 };
    let cs_cg_edge_count = r.u64("cs edge count")?;
    let n = r.count(8, "call-graph edge count")?;
    let cg_edges = r.u32_pairs(n, "call-graph edge")?;
    r.done("CG")?;

    // REACH
    let mut r = Reader { buf: payloads[6], pos: 0 };
    let n = r.count(8, "reachable pair count")?;
    let reachable = r.u32_pairs(n, "reachable pair")?;
    let n = r.count(4, "reachable method count")?;
    let reachable_methods = r.u32s(n, "reachable method id")?;
    r.done("REACH")?;

    // MOM
    let mut r = Reader { buf: payloads[7], pos: 0 };
    let mom = match r.u8("mom presence flag")? {
        0 => None,
        1 => {
            let n = r.count(4, "mom length")?;
            let repr = r.u32s(n, "mom representative")?;
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
    let counters = r.records(20, "stats counter", |b| u64::from_le_bytes(*b))?;
    r.done("STATS")?;
    let words: [u64; 20] = counters.try_into().expect("twenty counters");
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

    /// Bit-at-a-time CRC-32: the textbook definition the table-driven
    /// kernel must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { CRC_POLY ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Every length up to 64 at every alignment mod 8 crosses both the
    /// eight-byte body and the byte tail; a 1 MiB buffer exercises the
    /// body at length.
    #[test]
    fn crc32_matches_bitwise_reference() {
        let mut rng = obs::rng::SplitMix64::new(0xc3c3);
        let buf: Vec<u8> = (0..(1 << 20)).map(|_| rng.below(256) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "offset {offset}, length {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "1 MiB buffer");
    }

    #[test]
    fn encoded_len_is_exact() {
        let mut snap = tiny_snapshot();
        assert_eq!(encode(&snap).len(), encoded_len(&snap));
        snap.mom = None;
        assert_eq!(encode(&snap).len(), encoded_len(&snap));
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
