//! Raw, serialization-friendly views of an [`AnalysisResult`].
//!
//! The `snapshot` crate persists analysis results as a versioned binary
//! artifact; this module is the boundary between that byte format and
//! the solver's private data structures. [`extract`] flattens a result
//! into [`RawResult`] — plain integer tables with **every unique
//! points-to set stored once** (rows reference set indices, mirroring
//! the solver's hash-consing interner) — and [`restore`] rebuilds a
//! fully functional result from one, re-interning the sets into a
//! fresh [`SetInterner`] so handle-equality fast paths work exactly as
//! they do after a live run.
//!
//! # Round-trip guarantees
//!
//! `restore(extract(r))` answers every query of the borrow-first API
//! bit-identically to `r`: the tables preserve interning order
//! (contexts and objects keep their ids), the redirect table, and the
//! row → set mapping, and derived indices (`points_to_collapsed`
//! cache, `call_targets` slices, per-method context lists) are rebuilt
//! by the same `AnalysisResult::from_parts` code path the solver
//! uses. Snapshot encoding is also *canonical*: [`extract`] sorts the
//! call-graph/reachability tables and orders unique sets by first row
//! occurrence, so extracting a restored result reproduces the raw
//! tables exactly (the snapshot crate's byte-level round-trip test
//! relies on this).
//!
//! # Validation
//!
//! [`restore`] trusts nothing: every id is bounds-checked against the
//! tables that define it (contexts, object slots, set indices,
//! redirect targets) and structural invariants (context 0 empty, set
//! elements strictly ascending, object ids unique) are verified, so a
//! corrupted or adversarial snapshot that passed the byte-level
//! checksums still cannot make any later query panic. Failures return
//! [`RestoreError`] with a human-readable detail.

use std::sync::Arc;

use pts::{PtsHandle, PtsSet, SetInterner};

use crate::context::{ContextArena, CtxElem, CtxId};
use crate::object::{ObjId, ObjTable};
use crate::result::{AnalysisResult, AnalysisStats};
use crate::solver::{PtrId, PtrKey};
use crate::util::{FastMap, FastSet};

use jir::{AllocId, CallSiteId, FieldId, MethodId, TypeId, VarId};

/// A context element as a `(tag, value)` pair: tag 1 = call site,
/// 2 = allocation site, 3 = class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawCtxElem {
    /// Element kind tag (1, 2, or 3).
    pub tag: u8,
    /// The element's id payload (raw arena index).
    pub value: u32,
}

/// One abstract object row, in discovery (interning) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawObj {
    /// The object's id (sparse under the hierarchy numbering).
    pub id: u32,
    /// Heap context (index into the context table).
    pub hctx: u32,
    /// Representative allocation site.
    pub alloc: u32,
    /// Runtime type.
    pub ty: u32,
}

/// A pointer key as a `(tag, a, b)` triple: tag 1 = `Var(ctx=a,
/// var=b)`, 2 = `Field(obj=a, field=b)`, 3 = `Static(field=a, b=0)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawPtrKey {
    /// Key kind tag (1, 2, or 3).
    pub tag: u8,
    /// First id payload.
    pub a: u32,
    /// Second id payload (0 for static fields).
    pub b: u32,
}

/// The flattened form of an [`AnalysisResult`]: plain integer tables,
/// with unique points-to sets stored once and rows referencing them by
/// index. See the module docs for ordering and validation guarantees.
#[derive(Clone, Debug, PartialEq)]
pub struct RawResult {
    /// Context table: `ctxs[i]` is the element chain of context `i`
    /// (entry 0 is the empty context).
    pub ctxs: Vec<Vec<RawCtxElem>>,
    /// Object rows in discovery order.
    pub objs: Vec<RawObj>,
    /// One past the largest object id (the points-to universe size,
    /// including hierarchy-numbering slack).
    pub obj_id_space: u32,
    /// Pointer keys, indexed by pointer id.
    pub ptr_keys: Vec<RawPtrKey>,
    /// Cycle-collapse redirect table (same length as `ptr_keys`).
    pub redirect: Vec<u32>,
    /// Per-pointer index into `sets` (same length as `ptr_keys`).
    pub row_set: Vec<u32>,
    /// Unique points-to sets, each a strictly ascending object-id
    /// list, ordered by first occurrence along the row table.
    pub sets: Vec<Vec<u32>>,
    /// Reachable `(context, method)` pairs, sorted.
    pub reachable: Vec<(u32, u32)>,
    /// Reachable methods (context-insensitive), sorted.
    pub reachable_methods: Vec<u32>,
    /// Context-insensitive call-graph edges `(site, method)`, sorted.
    pub cg_edges: Vec<(u32, u32)>,
    /// Context-sensitive call-graph edge count.
    pub cs_cg_edge_count: u64,
    /// The run's counters (a restored result reports the statistics of
    /// the run that produced the snapshot), minus the ones the snapshot
    /// format does not serialize, which read 0.
    pub stats: AnalysisStats,
}

/// Returned when [`restore`] rejects a malformed [`RawResult`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoreError {
    /// What was wrong, e.g. `"pointer 12: context 99 out of bounds"`.
    pub detail: String,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid snapshot data: {}", self.detail)
    }
}

impl std::error::Error for RestoreError {}

fn err<T>(detail: impl Into<String>) -> Result<T, RestoreError> {
    Err(RestoreError { detail: detail.into() })
}

/// Flattens a result into its canonical raw tables (see module docs).
pub fn extract(result: &AnalysisResult) -> RawResult {
    let arena = &result.arena;
    let ctxs: Vec<Vec<RawCtxElem>> = (0..arena.len())
        .map(|i| {
            arena
                .elems(CtxId(i as u32))
                .iter()
                .map(|e| match *e {
                    CtxElem::CallSite(s) => RawCtxElem { tag: 1, value: s.as_u32() },
                    CtxElem::Alloc(a) => RawCtxElem { tag: 2, value: a.as_u32() },
                    CtxElem::Type(c) => RawCtxElem { tag: 3, value: c.as_u32() },
                })
                .collect()
        })
        .collect();

    let objs: Vec<RawObj> = result
        .objs
        .iter()
        .map(|o| RawObj {
            id: o.0,
            hctx: result.objs.heap_context(o).0,
            alloc: result.objs.alloc(o).as_u32(),
            ty: result.objs.ty(o).as_u32(),
        })
        .collect();

    let ptr_keys: Vec<RawPtrKey> = result
        .ptr_keys
        .iter()
        .map(|k| match *k {
            PtrKey::Var(ctx, v) => RawPtrKey { tag: 1, a: ctx.0, b: v.as_u32() },
            PtrKey::Field(o, f) => RawPtrKey { tag: 2, a: o.0, b: f.as_u32() },
            PtrKey::Static(f) => RawPtrKey { tag: 3, a: f.as_u32(), b: 0 },
        })
        .collect();

    // Unique-set table: rows with equal contents (the solver's final
    // seal sweep, like `restore`, seals every row into one interner)
    // carry one interned id, so a table indexed by id finds each set's
    // index without hashing. Ordering is first occurrence, which is
    // deterministic because the row order is. A row sealed elsewhere
    // or not at all gets its own entry.
    let generation = result.pts.first().and_then(|h| h.interned_id()).map(|(g, _)| g);
    let id_of = |h: &PtsHandle<ObjId>| match h.interned_id() {
        Some((g, id)) if Some(g) == generation => Some(id as usize),
        _ => None,
    };
    let id_span = result.pts.iter().filter_map(id_of).max().map_or(0, |m| m + 1);
    let mut set_of_id = vec![u32::MAX; id_span];
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let mut row_set = Vec::with_capacity(result.pts.len());
    for handle in &result.pts {
        let id = id_of(handle);
        let idx = match id.map(|id| set_of_id[id]) {
            Some(idx) if idx != u32::MAX => idx,
            _ => {
                let idx = u32::try_from(sets.len()).expect("set table fits u32");
                sets.push(handle.as_set().iter().map(|o| o.0).collect());
                if let Some(id) = id {
                    set_of_id[id] = idx;
                }
                idx
            }
        };
        row_set.push(idx);
    }

    let mut reachable: Vec<(u32, u32)> = result
        .reachable
        .iter()
        .map(|&(c, m)| (c.0, m.as_u32()))
        .collect();
    reachable.sort_unstable();
    let mut reachable_methods: Vec<u32> =
        result.reachable_methods.iter().map(|m| m.as_u32()).collect();
    reachable_methods.sort_unstable();
    let mut cg_edges: Vec<(u32, u32)> = result
        .cg_edges
        .iter()
        .map(|&(s, m)| (s.as_u32(), m.as_u32()))
        .collect();
    cg_edges.sort_unstable();

    RawResult {
        ctxs,
        objs,
        obj_id_space: u32::try_from(result.objs.id_space()).expect("id space fits u32"),
        ptr_keys,
        redirect: result.redirect.clone(),
        row_set,
        sets,
        reachable,
        reachable_methods,
        cg_edges,
        cs_cg_edge_count: result.cs_cg_edge_count as u64,
        // Counters outside the snapshot format read 0, as they will
        // after a save/load round trip.
        stats: AnalysisStats {
            order_search_edges: 0,
            dispatch_groups: 0,
            ..result.stats.clone()
        },
    }
}

/// Rebuilds a queryable result from raw tables, validating every id
/// (see module docs). The returned result is indistinguishable from
/// the freshly solved one under the whole query API.
pub fn restore(raw: RawResult) -> Result<AnalysisResult, RestoreError> {
    // Contexts.
    let mut ctxs = Vec::with_capacity(raw.ctxs.len());
    for (i, elems) in raw.ctxs.iter().enumerate() {
        let mut chain = Vec::with_capacity(elems.len());
        for e in elems {
            chain.push(match e.tag {
                1 => CtxElem::CallSite(CallSiteId::from_u32(e.value)),
                2 => CtxElem::Alloc(AllocId::from_u32(e.value)),
                3 => CtxElem::Type(jir::ClassId::from_u32(e.value)),
                t => return err(format!("context {i}: unknown element tag {t}")),
            });
        }
        ctxs.push(chain);
    }
    let arena = match ContextArena::from_raw(ctxs) {
        Ok(a) => a,
        Err(e) => return err(e),
    };
    let ctx_count = arena.len() as u32;

    // Objects.
    let mut rows = Vec::with_capacity(raw.objs.len());
    for (i, o) in raw.objs.iter().enumerate() {
        if o.hctx >= ctx_count {
            return err(format!("object {i}: heap context {} out of bounds", o.hctx));
        }
        rows.push((
            ObjId(o.id),
            CtxId(o.hctx),
            AllocId::from_u32(o.alloc),
            TypeId::from_u32(o.ty),
        ));
    }
    let objs = match ObjTable::from_slots(rows, raw.obj_id_space as usize) {
        Ok(t) => t,
        Err(e) => return err(e),
    };

    // Unique sets, re-interned so content-equal rows share one
    // allocation and sealed-handle comparisons fast-path.
    let interner = Arc::new(SetInterner::<ObjId>::new());
    let mut handles: Vec<PtsHandle<ObjId>> = Vec::with_capacity(raw.sets.len());
    for (i, elems) in raw.sets.into_iter().enumerate() {
        if let Some(&e) = elems.iter().find(|&&e| !objs.has_id(e)) {
            return err(format!("set {i}: unknown object id {e}"));
        }
        let Some(set) = PtsSet::from_ascending(elems) else {
            return err(format!("set {i}: elements not strictly ascending"));
        };
        let mut handle = PtsHandle::from_set(set);
        handle.seal(&interner);
        handles.push(handle);
    }

    // Pointer rows.
    let n = raw.ptr_keys.len();
    if raw.redirect.len() != n || raw.row_set.len() != n {
        return err(format!(
            "table length mismatch: {n} keys, {} redirects, {} rows",
            raw.redirect.len(),
            raw.row_set.len()
        ));
    }
    let mut ptr_keys = Vec::with_capacity(n);
    let mut ptr_map: FastMap<PtrKey, PtrId> =
        FastMap::with_capacity_and_hasher(n, Default::default());
    for (i, k) in raw.ptr_keys.iter().enumerate() {
        let key = match k.tag {
            1 => {
                if k.a >= ctx_count {
                    return err(format!("pointer {i}: context {} out of bounds", k.a));
                }
                PtrKey::Var(CtxId(k.a), VarId::from_u32(k.b))
            }
            2 => {
                if !objs.has_id(k.a) {
                    return err(format!("pointer {i}: unknown object id {}", k.a));
                }
                PtrKey::Field(ObjId(k.a), FieldId::from_u32(k.b))
            }
            3 => PtrKey::Static(FieldId::from_u32(k.a)),
            t => return err(format!("pointer {i}: unknown key tag {t}")),
        };
        if ptr_map.insert(key, PtrId(i as u32)).is_some() {
            return err(format!("pointer {i}: duplicate key"));
        }
        ptr_keys.push(key);
    }
    let mut pts = Vec::with_capacity(n);
    for (i, (&r, &s)) in raw.redirect.iter().zip(&raw.row_set).enumerate() {
        if r as usize >= n {
            return err(format!("pointer {i}: redirect {r} out of bounds"));
        }
        if s as usize >= handles.len() {
            return err(format!("pointer {i}: set index {s} out of bounds"));
        }
        pts.push(handles[s as usize].clone());
    }

    // Reachability and the call graph.
    let mut reachable: FastSet<(CtxId, MethodId)> = FastSet::default();
    for &(c, m) in &raw.reachable {
        if c >= ctx_count {
            return err(format!("reachable pair: context {c} out of bounds"));
        }
        reachable.insert((CtxId(c), MethodId::from_u32(m)));
    }
    let reachable_methods: FastSet<MethodId> = raw
        .reachable_methods
        .iter()
        .map(|&m| MethodId::from_u32(m))
        .collect();
    let cg_edges: FastSet<(CallSiteId, MethodId)> = raw
        .cg_edges
        .iter()
        .map(|&(s, m)| (CallSiteId::from_u32(s), MethodId::from_u32(m)))
        .collect();

    let stats = raw.stats;
    Ok(AnalysisResult::from_parts(
        arena,
        objs,
        ptr_keys,
        ptr_map,
        pts,
        interner,
        raw.redirect,
        reachable,
        reachable_methods,
        cg_edges,
        usize::try_from(raw.cs_cg_edge_count)
            .map_err(|_| RestoreError { detail: "cs edge count overflows".into() })?,
        stats.clone(),
    )
    .with_stats(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocSiteAbstraction, AnalysisConfig, ContextInsensitive, ObjectSensitive};

    const PROGRAM: &str = "class A {
        field f: A;
        method id(this, v) { w = v; return w; }
        entry static method main() {
          a = new A; b = new A;
          a.f = b;
          r = virt a.id(b);
          return;
        }
      }";

    fn result(obj: bool) -> (jir::Program, AnalysisResult) {
        let p = jir::parse(PROGRAM).expect("parses");
        let r = if obj {
            AnalysisConfig::new(ObjectSensitive::new(2), AllocSiteAbstraction)
                .run(&p)
                .expect("fits budget")
        } else {
            AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
                .run(&p)
                .expect("fits budget")
        };
        (p, r)
    }

    #[test]
    fn extract_restore_preserves_every_query() {
        for obj in [false, true] {
            let (p, r) = result(obj);
            let restored = restore(extract(&r)).expect("restores");
            assert_eq!(r.object_count(), restored.object_count());
            assert_eq!(r.pointer_count(), restored.pointer_count());
            assert_eq!(r.total_points_to_size(), restored.total_points_to_size());
            assert_eq!(r.call_graph_edge_count(), restored.call_graph_edge_count());
            assert_eq!(r.reachable_context_count(), restored.reachable_context_count());
            for v in (0..p.var_count()).map(VarId::from_usize) {
                assert_eq!(
                    r.points_to_collapsed(v).to_vec(),
                    restored.points_to_collapsed(v).to_vec(),
                    "collapsed set of var {v:?}"
                );
            }
            for s in p.call_site_ids() {
                assert_eq!(r.call_targets(s), restored.call_targets(s));
            }
        }
    }

    #[test]
    fn extract_is_canonical_after_restore() {
        let (_, r) = result(true);
        let raw = extract(&r);
        let restored = restore(raw.clone()).expect("restores");
        assert_eq!(raw, extract(&restored), "extract ∘ restore is the identity on raw tables");
    }

    #[test]
    fn restore_rejects_out_of_bounds_ids() {
        let (_, r) = result(false);
        let good = extract(&r);

        let mut bad = good.clone();
        bad.row_set[0] = bad.sets.len() as u32;
        assert!(restore(bad).is_err(), "set index out of bounds");

        let mut bad = good.clone();
        bad.redirect[0] = bad.ptr_keys.len() as u32;
        assert!(restore(bad).is_err(), "redirect out of bounds");

        let mut bad = good.clone();
        bad.sets[0] = vec![bad.obj_id_space + 7];
        assert!(restore(bad).is_err(), "unknown object id in a set");

        let mut bad = good.clone();
        if let Some(first) = bad.ctxs.first_mut() {
            first.push(RawCtxElem { tag: 1, value: 0 });
        }
        assert!(restore(bad).is_err(), "context 0 must stay empty");

        let mut bad = good;
        bad.ptr_keys[0].tag = 9;
        assert!(restore(bad).is_err(), "unknown pointer tag");
    }

    /// A snapshot is untrusted input: a variable, a reachable method
    /// and a call site with ids near `u32::MAX` must restore (or fail
    /// with `RestoreError`) without any table growing with the id.
    #[test]
    fn restore_never_sizes_a_table_by_a_file_id() {
        let (_, r) = result(true);
        let good = extract(&r);
        for id in [u32::MAX, u32::MAX - 1, 1 << 31] {
            let mut bad = good.clone();
            let key = bad.ptr_keys.iter_mut().find(|k| k.tag == 1).expect("a var key");
            key.b = id;
            bad.reachable[0].1 = id;
            bad.cg_edges[0].0 = id;
            let entries = bad.ptr_keys.len() + bad.reachable.len() + bad.cg_edges.len();
            let Ok(restored) = restore(bad) else { continue };
            for slots in [
                restored.var_ptrs.slot_count(),
                restored.method_ctxs.slot_count(),
                restored.site_targets.slot_count(),
                restored.collapsed.len(),
            ] {
                assert!(slots <= entries, "{slots} slots for {entries} entries (id {id:#x})");
            }
            assert!(!restored.points_to_collapsed(VarId::from_u32(id)).is_empty());
            assert_eq!(restored.contexts_of_method(MethodId::from_u32(id)).len(), 1);
            assert_eq!(restored.call_targets(CallSiteId::from_u32(id)).len(), 1);
            assert!(restored.call_targets(CallSiteId::from_u32(id - 1)).is_empty());
        }
    }
}
