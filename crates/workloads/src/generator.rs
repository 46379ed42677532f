//! Profile-driven synthetic program generation.
//!
//! The generator stands in for the paper's 12 real Java programs (see
//! DESIGN.md, substitution 1). It emits programs with the structural
//! properties that drive the paper's results:
//!
//! - many allocation sites of few container types whose nested contents
//!   are type-homogeneous (merge candidates — cf. Table 1's 1303
//!   `StringBuilder`s all reaching only `char[]`);
//! - a controlled fraction of heterogeneous containers and per-use
//!   arrays/nodes that must *not* merge (cf. Table 1's `Object[]`
//!   classes split by content type);
//! - class hierarchies with polymorphic virtual calls (devirtualization
//!   work) and downcasts after container reads (may-fail-cast work);
//! - **wrapper chains**: a `Wrap` class with many factory methods that
//!   allocate new wrappers around their receivers — the
//!   decorator/stream-pipeline shape that makes `3obj` explode on real
//!   programs. Mahjong merges every wrapper (their only field holds
//!   wrappers) and collapses the whole subtree to a handful of
//!   contexts. Each emitted chain follows one path of factory calls,
//!   though, so receiver-chain contexts exist only per emitted path
//!   and grow less than linearly in the number of factory sites `S`,
//!   not like `S^k`: pmd at scale 4 has 23,768, 33,018 and 42,517
//!   3obj contexts at `S` ×1, ×2 and ×4 (M-3obj: 722 each time), and
//!   its 3obj time stays flat.
//!
//! Generation is deterministic per profile (seeded [`SplitMix64`]).

use jir::{ClassId, JirError, MethodId, Program, ProgramBuilder};
use obs::rng::SplitMix64;

use crate::stdlib::{emit, Std};

/// Size and shape parameters for one synthetic program.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Program name (e.g. `"pmd"`).
    pub name: String,
    /// RNG seed; every build with the same profile is identical.
    pub seed: u64,
    /// Number of data-class hierarchies.
    pub hierarchies: usize,
    /// Concrete subclasses per hierarchy.
    pub subclasses_per_hierarchy: usize,
    /// Number of module classes.
    pub modules: usize,
    /// Worker methods per module.
    pub methods_per_module: usize,
    /// Container-usage blocks emitted per worker method.
    pub blocks_per_method: usize,
    /// Probability that a container block stores two unrelated element
    /// types (preventing merging and seeding may-fail casts).
    pub hetero_fraction: f64,
    /// Probability that a block routes its container through a chain of
    /// shared helper methods before reading it back.
    pub helper_fraction: f64,
    /// Length of the shared helper chain.
    pub helper_depth: usize,
    /// Wrapper factory methods on the `Wrap` class (`S`); k-obj contexts
    /// in the wrapper subtree grow less than linearly in `S` (see the
    /// module docs).
    pub wrapper_sites: usize,
    /// Wrapper-chain steps emitted per worker method.
    pub wrapper_chain: usize,
}

impl Profile {
    /// A small profile for tests: a few hundred allocation sites.
    pub fn small(name: &str, seed: u64) -> Self {
        Profile {
            name: name.to_owned(),
            seed,
            hierarchies: 3,
            subclasses_per_hierarchy: 3,
            modules: 4,
            methods_per_module: 4,
            blocks_per_method: 3,
            hetero_fraction: 0.2,
            helper_fraction: 0.3,
            helper_depth: 2,
            wrapper_sites: 6,
            wrapper_chain: 4,
        }
    }
}

/// A generated program plus its profile.
#[derive(Debug)]
pub struct Workload {
    /// The profile used.
    pub profile: Profile,
    /// The generated program.
    pub program: Program,
}

/// Generates the program for a profile.
///
/// # Panics
///
/// Panics only on internal generator bugs (the emitted program always
/// validates).
pub fn generate(profile: &Profile) -> Workload {
    let program = Generator::new(profile).emit().expect("generated program is valid");
    Workload {
        profile: profile.clone(),
        program,
    }
}

struct Hierarchy {
    subs: Vec<ClassId>,
}

struct Generator<'p> {
    profile: &'p Profile,
    rng: SplitMix64,
    b: ProgramBuilder,
    std: Std,
    hierarchies: Vec<Hierarchy>,
    /// Shared helper methods: each takes an `ArrayList` and returns it.
    helpers: Vec<MethodId>,
    /// The wrapper class, if `wrapper_sites > 0`.
    wrap: Option<ClassId>,
    wrap_inner: Option<jir::FieldId>,
    wrap_factory_count: usize,
}

impl<'p> Generator<'p> {
    fn new(profile: &'p Profile) -> Self {
        let mut b = ProgramBuilder::new();
        let std = emit(&mut b).expect("fresh builder accepts the stdlib");
        Generator {
            profile,
            rng: SplitMix64::new(profile.seed),
            b,
            std,
            hierarchies: Vec::new(),
            helpers: Vec::new(),
            wrap: None,
            wrap_inner: None,
            wrap_factory_count: 0,
        }
    }

    fn emit(mut self) -> Result<Program, JirError> {
        self.emit_hierarchies()?;
        self.emit_helpers()?;
        self.emit_wrappers()?;
        let module_runs = self.emit_modules()?;
        self.emit_main(&module_runs)?;
        self.b.finish()
    }

    /// Data hierarchies: `abstract Dat{i}` with a virtual `op` and a
    /// payload field, plus concrete subclasses overriding `op`.
    fn emit_hierarchies(&mut self) -> Result<(), JirError> {
        for i in 0..self.profile.hierarchies {
            let base = self
                .b
                .declare_abstract_class(&format!("Dat{i}"), None)?;
            let payload =
                self.b
                    .declare_field(base, &format!("payload{i}"), self.std.object_ty)?;
            self.b.declare_abstract_method(base, "op", 0)?;
            let mut subs = Vec::new();
            for j in 0..self.profile.subclasses_per_hierarchy {
                let sub = self
                    .b
                    .declare_class(&format!("Dat{i}S{j}"), Some(base))?;
                let op = self.b.declare_method(sub, "op", 0)?;
                {
                    // op() touches the payload and returns a fresh boxed
                    // value — a small amount of per-dispatch heap work.
                    let int_box = self.std.int_box;
                    let mut body = self.b.body(op);
                    let this = body.this().expect("instance");
                    let p = body.var("p");
                    body.load(p, this, payload);
                    let r = body.var("r");
                    body.new_object(r, int_box);
                    body.ret(Some(r));
                }
                subs.push(sub);
            }
            self.hierarchies.push(Hierarchy { subs });
        }
        Ok(())
    }

    /// Shared helper chain: `Help::h0(list) -> h1(list) -> ...` — each
    /// stage reads an element (keeping the list's contents flowing) and
    /// passes the list on. Shared across all call sites, these are the
    /// pre-analysis conflation points of the workload.
    fn emit_helpers(&mut self) -> Result<(), JirError> {
        if self.profile.helper_depth == 0 {
            return Ok(());
        }
        let help = self.b.declare_class("Help", None)?;
        let mut ids = Vec::new();
        for d in 0..self.profile.helper_depth {
            ids.push(self.b.declare_static_method(help, &format!("h{d}"), 1)?);
        }
        for (d, &mid) in ids.iter().enumerate() {
            let next = ids.get(d + 1).copied();
            let mut body = self.b.body(mid);
            let list = body.param(0);
            let peek = body.var("peek");
            body.virtual_call(Some(peek), list, "get", &[]);
            match next {
                Some(n) => {
                    let r = body.var("r");
                    body.static_call(Some(r), n, &[list]);
                    body.ret(Some(r));
                }
                None => body.ret(Some(list)),
            }
        }
        self.helpers = ids;
        Ok(())
    }

    /// The `Wrap` class: `inner: Wrap` plus `S` factory methods
    /// `mk{i}()`, each allocating a new wrapper around `this`, and a
    /// `peel()` accessor. All wrappers are type-consistent (their only
    /// field holds wrappers or null), so Mahjong merges them all.
    fn emit_wrappers(&mut self) -> Result<(), JirError> {
        if self.profile.wrapper_sites == 0 {
            return Ok(());
        }
        let wrap = self.b.declare_class("Wrap", None)?;
        let wrap_ty = self.b.class_type(wrap);
        let inner = self.b.declare_field(wrap, "inner", wrap_ty)?;
        let chars = self.std.chars;
        let int_box = self.std.int_box;
        let raw_field = self.std.box_raw;
        for i in 0..self.profile.wrapper_sites {
            let m = self.b.declare_method(wrap, &format!("mk{i}"), 0)?;
            let mut body = self.b.body(m);
            let this = body.this().expect("instance");
            let w = body.var("w");
            body.new_object(w, wrap);
            body.store(w, inner, this);
            // Per-wrap bookkeeping: the decorator boilerplate. All of
            // it is context-local (fresh objects, calls on fresh
            // receivers), so the cost of the wrapper subtree tracks the
            // number of contexts `mk{i}` is analyzed under — which is
            // what k-obj multiplies and Mahjong collapses.
            let p0 = body.var("p0");
            body.load(p0, this, inner);
            let p3 = body.var("p3");
            body.virtual_call(Some(p3), w, "peel", &[]);
            let c0 = body.var("c0");
            body.new_object(c0, chars);
            let c1 = body.var("c1");
            body.virtual_call(Some(c1), c0, "dup", &[]);
            let c2 = body.var("c2");
            body.virtual_call(Some(c2), c1, "dup", &[]);
            let bx = body.var("bx");
            body.new_object(bx, int_box);
            body.store(bx, raw_field, c2);
            let bv = body.var("bv");
            body.virtual_call(Some(bv), bx, "val", &[]);
            body.ret(Some(w));
        }
        let peel = self.b.declare_method(wrap, "peel", 0)?;
        {
            let mut body = self.b.body(peel);
            let this = body.this().expect("instance");
            let r = body.var("r");
            body.load(r, this, inner);
            body.ret(Some(r));
        }
        // `walk()` recurses down the inner chain — every wrapper object
        // becomes a receiver context of `walk`, so its cost tracks the
        // abstract-object count: large under the allocation-site
        // abstraction, tiny once Mahjong merges the wrappers.
        let walk = self.b.declare_method(wrap, "walk", 0)?;
        {
            let mut body = self.b.body(walk);
            let this = body.this().expect("instance");
            let i = body.var("i");
            body.load(i, this, inner);
            let r = body.var("r");
            body.virtual_call(Some(r), i, "walk", &[]);
            let p = body.var("p");
            body.virtual_call(Some(p), i, "peel", &[]);
            let p2 = body.var("p2");
            body.virtual_call(Some(p2), p, "peel", &[]);
            body.ret(Some(this));
        }
        self.wrap = Some(wrap);
        self.wrap_inner = Some(inner);
        self.wrap_factory_count = self.profile.wrapper_sites;
        Ok(())
    }

    /// Modules: instance classes whose `run` invokes each worker method.
    fn emit_modules(&mut self) -> Result<Vec<(ClassId, MethodId)>, JirError> {
        let mut runs = Vec::new();
        for m in 0..self.profile.modules {
            let class = self.b.declare_class(&format!("Mod{m}"), None)?;
            let mut workers = Vec::new();
            for k in 0..self.profile.methods_per_module {
                let w = self.b.declare_method(class, &format!("w{k}"), 0)?;
                workers.push(w);
            }
            for &w in &workers {
                self.emit_worker_body(w, m)?;
            }
            let run = self.b.declare_method(class, "run", 0)?;
            {
                let mut body = self.b.body(run);
                let this = body.this().expect("instance");
                for k in 0..self.profile.methods_per_module {
                    body.virtual_call(None, this, &format!("w{k}"), &[]);
                }
                body.ret(None);
            }
            runs.push((class, run));
        }
        Ok(runs)
    }

    fn emit_worker_body(&mut self, w: MethodId, module_index: usize) -> Result<(), JirError> {
        for block in 0..self.profile.blocks_per_method {
            match self.rng.below(7) {
                0 => self.emit_string_block(w, block)?,
                1 => self.emit_map_block(w, block)?,
                2 => self.emit_local_array_block(w, block)?,
                3 => self.emit_poly_block(w, block)?,
                4 => self.emit_factory_block(w, block, module_index)?,
                _ => self.emit_list_block(w, block)?,
            }
        }
        if self.wrap.is_some() && self.profile.wrapper_chain > 0 {
            self.emit_wrapper_chain(w)?;
        }
        let mut body = self.b.body(w);
        body.ret(None);
        Ok(())
    }

    /// `StrBuilder` usage: always type-consistent (contents are `Chars`),
    /// driving the nested receiver levels below it (`Str`, `IntBox`).
    fn emit_string_block(&mut self, w: MethodId, block: usize) -> Result<(), JirError> {
        let (sb_cls, chars) = (self.std.string_builder, self.std.chars);
        let mut body = self.b.body(w);
        let sb = body.var(&format!("sb{block}"));
        body.new_object(sb, sb_cls);
        let c = body.var(&format!("ch{block}"));
        body.new_object(c, chars);
        let sb2 = body.var(&format!("sb2_{block}"));
        body.virtual_call(Some(sb2), sb, "append", &[c]);
        let s = body.var(&format!("s{block}"));
        body.virtual_call(Some(s), sb2, "to_str", &[]);
        let n = body.var(&format!("n{block}"));
        body.virtual_call(Some(n), s, "len", &[]);
        body.virtual_call(None, n, "val", &[]);
        Ok(())
    }

    /// `HashMap` usage: keys are `Str`s, values come from one hierarchy
    /// subclass (homogeneous per map use).
    fn emit_map_block(&mut self, w: MethodId, block: usize) -> Result<(), JirError> {
        let hmap = self.std.hash_map;
        let map_init = self.std.map_init;
        let string = self.std.string;
        let h = self.rng.below_usize(self.hierarchies.len());
        let s = self.rng.below_usize(self.hierarchies[h].subs.len());
        let val_cls = self.hierarchies[h].subs[s];
        let val_ty = self.b.class_type(val_cls);

        let mut body = self.b.body(w);
        let m = body.var(&format!("m{block}"));
        body.new_object(m, hmap);
        body.special_call(None, m, map_init, &[]);
        let k = body.var(&format!("k{block}"));
        body.new_object(k, string);
        let v = body.var(&format!("v{block}"));
        body.new_object(v, val_cls);
        body.virtual_call(None, m, "put", &[k, v]);
        let got = body.var(&format!("g{block}"));
        body.virtual_call(Some(got), m, "get", &[k]);
        let cast = body.var(&format!("mc{block}"));
        body.cast(cast, val_ty, got);
        body.virtual_call(None, cast, "op", &[]);
        Ok(())
    }

    /// A per-use `Object[]` and `Node`: the backing store is allocated
    /// at the use site (unlike `ArrayList`), so homogeneous uses merge
    /// per content type — the paper's Table 1 `Object[]` pattern.
    fn emit_local_array_block(&mut self, w: MethodId, block: usize) -> Result<(), JirError> {
        let object_ty = self.std.object_ty;
        let (node_cls, node_item, node_next) =
            (self.std.node, self.std.node_item, self.std.node_next);
        let hetero = self.rng.chance(self.profile.hetero_fraction);
        let h = self.rng.below_usize(self.hierarchies.len());
        let nsubs = self.hierarchies[h].subs.len();
        let s1 = self.rng.below_usize(nsubs);
        let s2 = if hetero && nsubs > 1 { (s1 + 1) % nsubs } else { s1 };
        let cls1 = self.hierarchies[h].subs[s1];
        let cls2 = self.hierarchies[h].subs[s2];
        let cast_ty = self.b.class_type(cls1);

        let mut body = self.b.body(w);
        let arr = body.var(&format!("arr{block}"));
        body.new_array(arr, object_ty);
        let d1 = body.var(&format!("ad1_{block}"));
        body.new_object(d1, cls1);
        body.array_store(arr, d1);
        let d2 = body.var(&format!("ad2_{block}"));
        body.new_object(d2, cls2);
        body.array_store(arr, d2);
        let got = body.var(&format!("ag{block}"));
        body.array_load(got, arr);
        let cast = body.var(&format!("ac{block}"));
        body.cast(cast, cast_ty, got);
        body.virtual_call(None, cast, "op", &[]);

        // A linked Node pair over the same elements.
        let n1 = body.var(&format!("nd1_{block}"));
        body.new_object(n1, node_cls);
        body.store(n1, node_item, d1);
        let n2 = body.var(&format!("nd2_{block}"));
        body.new_object(n2, node_cls);
        body.store(n2, node_item, d2);
        body.store(n1, node_next, n2);
        let walked = body.var(&format!("nw{block}"));
        body.load(walked, n1, node_next);
        let item = body.var(&format!("ni{block}"));
        body.load(item, walked, node_item);
        Ok(())
    }

    /// A direct polymorphic dispatch: a base-typed variable fed from two
    /// subclasses, then a virtual call — a genuine poly site under every
    /// analysis (devirtualization work).
    fn emit_poly_block(&mut self, w: MethodId, block: usize) -> Result<(), JirError> {
        let h = self.rng.below_usize(self.hierarchies.len());
        let nsubs = self.hierarchies[h].subs.len();
        let s1 = self.rng.below_usize(nsubs);
        let s2 = (s1 + 1) % nsubs;
        let cls1 = self.hierarchies[h].subs[s1];
        let cls2 = self.hierarchies[h].subs[s2];
        let mut body = self.b.body(w);
        let v = body.var(&format!("pv{block}"));
        body.new_object(v, cls1);
        let v2 = body.var(&format!("pv2_{block}"));
        body.new_object(v2, cls2);
        if nsubs > 1 {
            body.assign(v, v2);
        }
        body.virtual_call(None, v, "op", &[]);
        Ok(())
    }

    /// A factory/holder block: the holder is allocated inside
    /// `Factory::make`, whose receiver is allocated *here* (inside this
    /// module class). Each module stores one fixed payload type, so
    /// heap contexts that separate factory receivers — object- and
    /// type-sensitivity — prove the cast safe, while context-insensitive
    /// analysis conflates all holders and flags it.
    fn emit_factory_block(
        &mut self,
        w: MethodId,
        block: usize,
        module_index: usize,
    ) -> Result<(), JirError> {
        let factory = self.std.factory;
        let cfg = self.std.factory_cfg;
        let slot = self.std.holder_slot;
        let h = module_index % self.hierarchies.len();
        let si = module_index % self.hierarchies[h].subs.len();
        let cls = self.hierarchies[h].subs[si];
        let cast_ty = self.b.class_type(cls);
        let mut body = self.b.body(w);
        let fac = body.var(&format!("fac{block}"));
        body.new_object(fac, factory);
        let d = body.var(&format!("fd{block}"));
        body.new_object(d, cls);
        body.store(fac, cfg, d);
        let holder = body.var(&format!("hold{block}"));
        body.virtual_call(Some(holder), fac, "make", &[]);
        body.store(holder, slot, d);
        let got = body.var(&format!("fg{block}"));
        body.load(got, holder, slot);
        let cast = body.var(&format!("fc{block}"));
        body.cast(cast, cast_ty, got);
        body.virtual_call(None, cast, "op", &[]);
        Ok(())
    }

    /// `ArrayList` usage: homogeneous or heterogeneous, optionally
    /// routed through the shared helper chain. The shared grow path
    /// inside `ArrayList` conflates all lists under the pre-analysis, so
    /// lists never merge — the realistic generic-container behaviour.
    fn emit_list_block(&mut self, w: MethodId, block: usize) -> Result<(), JirError> {
        let list_cls = self.std.array_list;
        let list_init = self.std.list_init;
        let hetero = self.rng.chance(self.profile.hetero_fraction);
        let via_helper =
            !self.helpers.is_empty() && self.rng.chance(self.profile.helper_fraction);
        let h = self.rng.below_usize(self.hierarchies.len());
        let nsubs = self.hierarchies[h].subs.len();
        let s1 = self.rng.below_usize(nsubs);
        let s2 = if hetero && nsubs > 1 {
            (s1 + 1 + self.rng.below_usize(nsubs - 1)) % nsubs
        } else {
            s1
        };
        let cls1 = self.hierarchies[h].subs[s1];
        let cls2 = self.hierarchies[h].subs[s2];
        let cast_ty = self.b.class_type(cls1);
        let list_ty = self.b.class_type(list_cls);
        let helper0 = self.helpers.first().copied();

        let mut body = self.b.body(w);
        let l = body.var(&format!("l{block}"));
        body.new_object(l, list_cls);
        body.special_call(None, l, list_init, &[]);
        let d1 = body.var(&format!("d1_{block}"));
        body.new_object(d1, cls1);
        body.virtual_call(None, l, "add", &[d1]);
        let d2 = body.var(&format!("d2_{block}"));
        body.new_object(d2, cls2);
        body.virtual_call(None, l, "add", &[d2]);

        let source = if via_helper {
            // Route the list through the shared helper chain (which
            // returns it Object-typed) and cast it back.
            let routed = body.var(&format!("routed{block}"));
            body.static_call(Some(routed), helper0.expect("helpers exist"), &[l]);
            let back = body.var(&format!("back{block}"));
            body.cast(back, list_ty, routed);
            back
        } else {
            l
        };
        let it = body.var(&format!("it{block}"));
        body.virtual_call(Some(it), source, "iterator", &[]);
        let x = body.var(&format!("x{block}"));
        body.virtual_call(Some(x), it, "next", &[]);
        let c = body.var(&format!("c{block}"));
        body.cast(c, cast_ty, x);
        body.virtual_call(None, c, "op", &[]);
        Ok(())
    }

    /// A wrapper chain: `wp0 = new Wrap; wp1 = wp0.mk3(); wp2 =
    /// wp1.mk7(); ...; wpN.peel()`. Under k-obj with the
    /// allocation-site abstraction, each `mk{i}` is analyzed once per
    /// k-suffix of factory sites seen on receiver chains; Mahjong merges
    /// all wrappers and the whole subtree collapses.
    fn emit_wrapper_chain(&mut self, w: MethodId) -> Result<(), JirError> {
        let wrap = self.wrap.expect("wrapper class exists");
        let steps = self.profile.wrapper_chain;
        let picks: Vec<usize> = (0..steps)
            .map(|_| self.rng.below_usize(self.wrap_factory_count))
            .collect();
        let inner = self.wrap_inner.expect("wrapper field exists");
        let mut body = self.b.body(w);
        let mut cur = body.var("wp0");
        body.new_object(cur, wrap);
        // Tie the chain off with a self-loop sentinel (the LinkedList
        // header idiom) so every wrapper's `inner` path stays
        // type-homogeneous — a null-ended chain would mix the null type
        // into the same depth and correctly defeat merging.
        body.store(cur, inner, cur);
        for (i, &pick) in picks.iter().enumerate() {
            let next = body.var(&format!("wp{}", i + 1));
            body.virtual_call(Some(next), cur, &format!("mk{pick}"), &[]);
            // Periodically traverse the chain built so far; every
            // traversal receiver is another wrapper context.
            if i % 4 == 3 {
                body.virtual_call(None, next, "walk", &[]);
            }
            cur = next;
        }
        let peeled = body.var("wpeel");
        body.virtual_call(Some(peeled), cur, "peel", &[]);
        body.virtual_call(None, cur, "walk", &[]);
        Ok(())
    }

    fn emit_main(&mut self, module_runs: &[(ClassId, MethodId)]) -> Result<(), JirError> {
        let main_cls = self.b.declare_class("Main", None)?;
        let main = self.b.declare_static_method(main_cls, "main", 0)?;
        self.b.set_entry(main);
        let mut body = self.b.body(main);
        for (i, &(class, _run)) in module_runs.iter().enumerate() {
            let m = body.var(&format!("mod{i}"));
            body.new_object(m, class);
            body.virtual_call(None, m, "run", &[]);
        }
        body.ret(None);
        Ok(())
    }
}
