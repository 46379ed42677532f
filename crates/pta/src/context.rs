//! Calling contexts and context-sensitivity strategies.
//!
//! A context is an interned sequence of [`CtxElem`]s; the
//! [`ContextSelector`] trait decides which sequence a callee (or a heap
//! object) is analyzed under. The three mainstream strategies the paper
//! evaluates are provided:
//!
//! - [`CallSiteSensitive`] — k-CFA (Shivers); context elements are call
//!   sites;
//! - [`ObjectSensitive`] — k-obj (Milanova et al.); context elements are
//!   receiver objects;
//! - [`TypeSensitive`] — k-type (Smaragdakis et al.); context elements
//!   are the classes containing the receiver objects' allocation sites;
//!
//! plus [`ContextInsensitive`] (the pre-analysis configuration).
//!
//! Heap contexts follow the standard convention: an allocation site in a
//! method analyzed under a depth-`k` context receives the most recent
//! `k - 1` elements of that context (paper Section 3.6.1).

use jir::{AllocId, CallSiteId, ClassId, MethodId, Program};

use crate::object::{ObjId, ObjTable};
use crate::util::FastMap;

/// One element of a calling context.
///
/// Object-sensitive contexts store plain allocation sites (the receiver
/// object's site), not nested context-sensitive objects — the standard
/// "full-object-sensitivity" formulation of Doop/Smaragdakis, which keeps
/// the context universe finite (`AllocId^k`) even for recursive
/// allocation patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CtxElem {
    /// A call site (call-site-sensitivity).
    CallSite(CallSiteId),
    /// A receiver object's allocation site (object-sensitivity). Under a
    /// merging heap abstraction this is already the representative site,
    /// exactly as paper Section 3.6.1 prescribes for M-kobj.
    Alloc(AllocId),
    /// The class containing a receiver object's allocation site
    /// (type-sensitivity).
    Type(ClassId),
}

/// An interned calling context (also used for heap contexts).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub(crate) u32);

impl CtxId {
    /// Returns the arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for CtxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

/// Hash-consing arena for contexts. Index 0 is always the empty context.
///
/// [`ContextArena::append_truncated`] and [`ContextArena::truncate`] run
/// once per dispatched receiver and per allocation, and almost always
/// hit an existing context. They build the candidate in one reused
/// scratch buffer and probe the map with a borrowed `&[CtxElem]`
/// (`Vec<T>: Borrow<[T]>` hashes identically), so a hit allocates
/// nothing; only a miss copies the candidate into a fresh `Vec`.
#[derive(Debug)]
pub struct ContextArena {
    ctxs: Vec<Vec<CtxElem>>,
    map: FastMap<Vec<CtxElem>, CtxId>,
    /// Candidate buffer of the allocation-free probes.
    scratch: Vec<CtxElem>,
}

impl Default for ContextArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextArena {
    /// Creates an arena containing only the empty context.
    pub fn new() -> Self {
        let mut arena = ContextArena {
            ctxs: Vec::new(),
            map: FastMap::default(),
            scratch: Vec::new(),
        };
        arena.intern(Vec::new());
        arena
    }

    /// Returns the empty context.
    pub fn empty(&self) -> CtxId {
        CtxId(0)
    }

    /// Rebuilds an arena from its element table, `ctxs[i]` being the
    /// elements of `CtxId(i)` (snapshot restore). The caller must pass
    /// the table of a previously built arena: entry 0 empty, entries
    /// distinct. Violations return an error instead of corrupting the
    /// hash-consing map.
    pub(crate) fn from_raw(ctxs: Vec<Vec<CtxElem>>) -> Result<Self, String> {
        if ctxs.first().map(Vec::as_slice) != Some(&[]) {
            return Err("context 0 is not the empty context".to_owned());
        }
        let mut map = FastMap::default();
        for (i, elems) in ctxs.iter().enumerate() {
            if map.insert(elems.clone(), CtxId(i as u32)).is_some() {
                return Err(format!("duplicate context at index {i}"));
            }
        }
        Ok(ContextArena {
            ctxs,
            map,
            scratch: Vec::new(),
        })
    }

    /// Interns a context, returning its id.
    pub fn intern(&mut self, elems: Vec<CtxElem>) -> CtxId {
        match self.map.get(&elems) {
            Some(&id) => id,
            None => self.push_new(elems),
        }
    }

    /// Registers a context known to be absent from the map.
    fn push_new(&mut self, elems: Vec<CtxElem>) -> CtxId {
        let id = CtxId(u32::try_from(self.ctxs.len()).expect("too many contexts"));
        self.map.insert(elems.clone(), id);
        self.ctxs.push(elems);
        id
    }

    /// Interns the contents of the scratch buffer: a borrowed-slice
    /// probe first, an owned copy only on a miss.
    fn intern_scratch(&mut self) -> CtxId {
        match self.map.get(self.scratch.as_slice()) {
            Some(&id) => id,
            None => self.push_new(self.scratch.clone()),
        }
    }

    /// Returns the elements of a context.
    pub fn elems(&self, id: CtxId) -> &[CtxElem] {
        &self.ctxs[id.index()]
    }

    /// Returns the number of distinct contexts created so far.
    pub fn len(&self) -> usize {
        self.ctxs.len()
    }

    /// Returns `true` if only the empty context exists.
    pub fn is_empty(&self) -> bool {
        self.ctxs.len() <= 1
    }

    /// Interns `base ++ [tail]` truncated to its most recent `k` elements.
    pub fn append_truncated(&mut self, base: CtxId, tail: CtxElem, k: usize) -> CtxId {
        if k == 0 {
            return self.empty();
        }
        let base_elems = &self.ctxs[base.index()];
        let keep = base_elems.len().min(k - 1);
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&base_elems[base_elems.len() - keep..]);
        self.scratch.push(tail);
        self.intern_scratch()
    }

    /// Interns the most recent `k` elements of `base`.
    pub fn truncate(&mut self, base: CtxId, k: usize) -> CtxId {
        let elems = &self.ctxs[base.index()];
        if elems.len() <= k {
            return base;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&elems[elems.len() - k..]);
        self.intern_scratch()
    }
}

/// A context-sensitivity strategy: decides callee contexts and heap
/// contexts.
///
/// Implementations must be pure functions of their inputs (the solver
/// may invoke them in any order).
#[allow(clippy::too_many_arguments)] // mirrors the analysis signature
pub trait ContextSelector {
    /// The context for a dynamically dispatched callee (virtual and
    /// special calls), given the receiver object.
    fn callee_context(
        &self,
        arena: &mut ContextArena,
        objs: &ObjTable,
        program: &Program,
        caller: CtxId,
        site: CallSiteId,
        recv: ObjId,
        callee: MethodId,
    ) -> CtxId;

    /// Whether [`ContextSelector::callee_context`] reads its `recv`
    /// argument. A selector answering `false` promises that the callee
    /// context is a function of the caller context, the call site and
    /// the callee alone; the solver then computes it once per call and
    /// target instead of once per receiver object. Every selector must
    /// state its answer: a wrong `false` would analyze receivers under
    /// another receiver's context.
    fn reads_receiver(&self) -> bool;

    /// The context for a statically bound callee (static calls).
    fn static_callee_context(
        &self,
        arena: &mut ContextArena,
        caller: CtxId,
        site: CallSiteId,
        callee: MethodId,
    ) -> CtxId;

    /// The heap context for an allocation site in a method analyzed
    /// under `ctx`.
    fn heap_context(&self, arena: &mut ContextArena, ctx: CtxId, alloc: AllocId) -> CtxId;

    /// A short human-readable name, e.g. `"2obj"`.
    fn describe(&self) -> String;
}

/// Context-insensitive analysis: everything under the empty context.
/// This is the configuration of the Mahjong pre-analysis (`ci`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ContextInsensitive;

impl ContextSelector for ContextInsensitive {
    fn callee_context(
        &self,
        arena: &mut ContextArena,
        _objs: &ObjTable,
        _program: &Program,
        _caller: CtxId,
        _site: CallSiteId,
        _recv: ObjId,
        _callee: MethodId,
    ) -> CtxId {
        arena.empty()
    }

    fn reads_receiver(&self) -> bool {
        false
    }

    fn static_callee_context(
        &self,
        arena: &mut ContextArena,
        _caller: CtxId,
        _site: CallSiteId,
        _callee: MethodId,
    ) -> CtxId {
        arena.empty()
    }

    fn heap_context(&self, arena: &mut ContextArena, _ctx: CtxId, _alloc: AllocId) -> CtxId {
        arena.empty()
    }

    fn describe(&self) -> String {
        "ci".to_owned()
    }
}

/// k-call-site-sensitivity (k-CFA): a method is analyzed once per
/// sequence of the `k` most recent call sites; allocation sites receive
/// the `k - 1` most recent call sites.
#[derive(Clone, Copy, Debug)]
pub struct CallSiteSensitive {
    k: usize,
}

impl CallSiteSensitive {
    /// Creates a k-CFA selector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (use [`ContextInsensitive`] instead).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        CallSiteSensitive { k }
    }
}

impl ContextSelector for CallSiteSensitive {
    fn callee_context(
        &self,
        arena: &mut ContextArena,
        _objs: &ObjTable,
        _program: &Program,
        caller: CtxId,
        site: CallSiteId,
        _recv: ObjId,
        _callee: MethodId,
    ) -> CtxId {
        arena.append_truncated(caller, CtxElem::CallSite(site), self.k)
    }

    fn reads_receiver(&self) -> bool {
        // The context is the caller context plus the call site.
        false
    }

    fn static_callee_context(
        &self,
        arena: &mut ContextArena,
        caller: CtxId,
        site: CallSiteId,
        _callee: MethodId,
    ) -> CtxId {
        arena.append_truncated(caller, CtxElem::CallSite(site), self.k)
    }

    fn heap_context(&self, arena: &mut ContextArena, ctx: CtxId, _alloc: AllocId) -> CtxId {
        arena.truncate(ctx, self.k - 1)
    }

    fn describe(&self) -> String {
        format!("{}cs", self.k)
    }
}

/// k-object-sensitivity: a method is analyzed once per sequence of the
/// `k` most recent receiver objects (the receiver's heap context plus
/// the receiver itself); statically bound calls inherit the caller's
/// context.
#[derive(Clone, Copy, Debug)]
pub struct ObjectSensitive {
    k: usize,
}

impl ObjectSensitive {
    /// Creates a k-obj selector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (use [`ContextInsensitive`] instead).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        ObjectSensitive { k }
    }
}

impl ContextSelector for ObjectSensitive {
    fn callee_context(
        &self,
        arena: &mut ContextArena,
        objs: &ObjTable,
        _program: &Program,
        _caller: CtxId,
        _site: CallSiteId,
        recv: ObjId,
        _callee: MethodId,
    ) -> CtxId {
        // [heap context of recv, recv's allocation site], truncated to
        // the last k elements.
        let hctx = objs.heap_context(recv);
        arena.append_truncated(hctx, CtxElem::Alloc(objs.alloc(recv)), self.k)
    }

    fn reads_receiver(&self) -> bool {
        true
    }

    fn static_callee_context(
        &self,
        _arena: &mut ContextArena,
        caller: CtxId,
        _site: CallSiteId,
        _callee: MethodId,
    ) -> CtxId {
        caller
    }

    fn heap_context(&self, arena: &mut ContextArena, ctx: CtxId, _alloc: AllocId) -> CtxId {
        arena.truncate(ctx, self.k - 1)
    }

    fn describe(&self) -> String {
        format!("{}obj", self.k)
    }
}

/// k-type-sensitivity: like k-obj, but every receiver object in a
/// context is replaced by the class *containing* its allocation site.
#[derive(Clone, Copy, Debug)]
pub struct TypeSensitive {
    k: usize,
}

impl TypeSensitive {
    /// Creates a k-type selector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (use [`ContextInsensitive`] instead).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TypeSensitive { k }
    }
}

impl ContextSelector for TypeSensitive {
    fn callee_context(
        &self,
        arena: &mut ContextArena,
        objs: &ObjTable,
        program: &Program,
        _caller: CtxId,
        _site: CallSiteId,
        recv: ObjId,
        _callee: MethodId,
    ) -> CtxId {
        // Under k-type the heap context already consists of Type
        // elements; append the containing class of the receiver's
        // allocation site.
        let hctx = objs.heap_context(recv);
        let containing = program.alloc_containing_class(objs.alloc(recv));
        arena.append_truncated(hctx, CtxElem::Type(containing), self.k)
    }

    fn reads_receiver(&self) -> bool {
        true
    }

    fn static_callee_context(
        &self,
        _arena: &mut ContextArena,
        caller: CtxId,
        _site: CallSiteId,
        _callee: MethodId,
    ) -> CtxId {
        caller
    }

    fn heap_context(&self, arena: &mut ContextArena, ctx: CtxId, _alloc: AllocId) -> CtxId {
        arena.truncate(ctx, self.k - 1)
    }

    fn describe(&self) -> String {
        format!("{}type", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_context_is_index_zero() {
        let arena = ContextArena::new();
        assert_eq!(arena.empty().index(), 0);
        assert!(arena.elems(arena.empty()).is_empty());
    }

    #[test]
    fn interning_dedups() {
        let mut arena = ContextArena::new();
        let a = arena.intern(vec![CtxElem::CallSite(CallSiteId::from_usize(1))]);
        let b = arena.intern(vec![CtxElem::CallSite(CallSiteId::from_usize(1))]);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn append_truncated_keeps_most_recent() {
        let mut arena = ContextArena::new();
        let cs = |i| CtxElem::CallSite(CallSiteId::from_usize(i));
        let c1 = arena.append_truncated(arena.empty(), cs(1), 2);
        let c2 = arena.append_truncated(c1, cs(2), 2);
        let c3 = arena.append_truncated(c2, cs(3), 2);
        assert_eq!(arena.elems(c3), &[cs(2), cs(3)]);
    }

    /// `append_truncated` probes with a borrowed slice and allocates only
    /// on a miss; either way it must return exactly the id `intern`
    /// assigns the explicit elements — on a fresh arena and on one
    /// rebuilt by `from_raw` (snapshot restore).
    #[test]
    fn append_truncated_agrees_with_explicit_intern() {
        let cs = |i| CtxElem::CallSite(CallSiteId::from_usize(i));
        let base_elems = vec![cs(1), cs(2), cs(3)];
        let explicit = |k: usize, tail: CtxElem| -> Vec<CtxElem> {
            let keep = base_elems.len().min(k - 1);
            let mut v = base_elems[base_elems.len() - keep..].to_vec();
            v.push(tail);
            v
        };
        for k in 1..=3 {
            // Miss: the two arenas create the context by different
            // routes and must agree on its id and contents.
            let mut probed = ContextArena::new();
            let mut interned = ContextArena::new();
            let base = probed.intern(base_elems.clone());
            assert_eq!(interned.intern(base_elems.clone()), base);
            let miss = probed.append_truncated(base, cs(4), k);
            assert_eq!(interned.intern(explicit(k, cs(4))), miss, "k={k}: miss id");
            assert_eq!(probed.elems(miss), explicit(k, cs(4)).as_slice(), "k={k}");
            // Hit: same id again, no new context.
            let len = probed.len();
            assert_eq!(probed.append_truncated(base, cs(4), k), miss, "k={k}: hit id");
            assert_eq!(probed.intern(explicit(k, cs(4))), miss, "k={k}: intern hit");
            assert_eq!(probed.len(), len, "k={k}: a hit created a context");

            // The same on an arena rebuilt from its raw table.
            let raw: Vec<Vec<CtxElem>> =
                (0..probed.len()).map(|i| probed.ctxs[i].clone()).collect();
            let mut restored = ContextArena::from_raw(raw).expect("valid table");
            assert_eq!(restored.append_truncated(base, cs(4), k), miss, "k={k}: restored hit");
            let fresh = restored.append_truncated(base, cs(5), k);
            assert_eq!(fresh.index(), len, "k={k}: restored miss takes the next id");
            assert_eq!(restored.intern(explicit(k, cs(5))), fresh, "k={k}: restored miss");
            // `truncate` goes through the same probe.
            assert_eq!(restored.truncate(fresh, k), fresh);
            let last = restored.truncate(fresh, 1);
            assert_eq!(restored.elems(last), &[cs(5)], "k={k}: truncate");
        }
    }

    #[test]
    fn append_truncated_k_zero_is_empty() {
        let mut arena = ContextArena::new();
        let cs = CtxElem::CallSite(CallSiteId::from_usize(7));
        let c = arena.append_truncated(arena.empty(), cs, 0);
        assert_eq!(c, arena.empty());
    }

    #[test]
    fn truncate_shortens() {
        let mut arena = ContextArena::new();
        let cs = |i| CtxElem::CallSite(CallSiteId::from_usize(i));
        let c = arena.intern(vec![cs(1), cs(2), cs(3)]);
        let t = arena.truncate(c, 1);
        assert_eq!(arena.elems(t), &[cs(3)]);
        let t0 = arena.truncate(c, 0);
        assert_eq!(t0, arena.empty());
        // Truncating to a longer length is the identity.
        assert_eq!(arena.truncate(c, 5), c);
    }

    /// A selector that says it ignores the receiver must give every
    /// receiver of a call the same callee context, whatever the
    /// receiver's type, allocation site or heap context: the solver
    /// asks such a selector once per call and target. Selectors that
    /// read the receiver must tell these receivers apart, so the
    /// fixture can see the difference.
    #[test]
    fn receiver_blind_selectors_ignore_the_receiver() {
        let program = jir::parse(
            "class A { method m(this) { return; } }
             class B extends A { }
             class F { static method mk() { n = new B; return n; } }
             class Main {
               entry static method main() {
                 a = new A; b = new B; c = call F::mk();
                 x = a; x = b; x = c;
                 y = virt x.m();
                 return;
               }
             }",
        )
        .expect("fixture parses");
        let mut arena = ContextArena::new();
        let sites: Vec<CallSiteId> = program.call_site_ids().collect();
        let heap_ctxs = [arena.empty(), arena.intern(vec![CtxElem::CallSite(sites[0])])];
        let mut objs = ObjTable::with_numbering(&program, crate::object::Numbering::Discovery);
        let recvs: Vec<ObjId> = heap_ctxs
            .iter()
            .flat_map(|&h| program.alloc_ids().map(move |a| (h, a)))
            .map(|(h, a)| objs.intern(h, a, &program))
            .collect();
        assert_eq!(recvs.len(), 6, "three sites under two heap contexts");
        let callee = program.method_ids().next().expect("a method");
        let callers = [arena.empty(), arena.intern(vec![CtxElem::CallSite(sites[1])])];

        let selectors: [(&dyn ContextSelector, bool); 6] = [
            (&ContextInsensitive, false),
            (&CallSiteSensitive::new(1), false),
            (&CallSiteSensitive::new(2), false),
            (&CallSiteSensitive::new(3), false),
            (&ObjectSensitive::new(2), true),
            (&TypeSensitive::new(2), true),
        ];
        for (sel, reads) in selectors {
            let name = sel.describe();
            assert_eq!(sel.reads_receiver(), reads, "{name}");
            for &caller in &callers {
                for &site in &sites {
                    let ctxs: BTreeSet<CtxId> = recvs
                        .iter()
                        .map(|&r| {
                            sel.callee_context(&mut arena, &objs, &program, caller, site, r, callee)
                        })
                        .collect();
                    if reads {
                        assert!(ctxs.len() > 1, "{name}: receivers share one context");
                    } else {
                        assert_eq!(ctxs.len(), 1, "{name}: the receiver changed the context");
                    }
                }
            }
        }
    }

    #[test]
    fn describe_names() {
        assert_eq!(ContextInsensitive.describe(), "ci");
        assert_eq!(CallSiteSensitive::new(2).describe(), "2cs");
        assert_eq!(ObjectSensitive::new(3).describe(), "3obj");
        assert_eq!(TypeSensitive::new(2).describe(), "2type");
    }
}
