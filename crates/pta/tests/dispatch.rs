//! Receiver-batched call dispatch against the naive reference solver.
//!
//! The production solver binds each `(target, callee context)` group of
//! a receiver set once. This crafted program makes the grouping do real
//! work: one receiver variable holds objects of five types whose
//! allocation order interleaves them across ids (under discovery
//! numbering; hierarchy numbering makes same-type ids contiguous), two
//! types share one inherited target, one concrete type inherits only an
//! abstract declaration and one type has no `m` at all (virtual dispatch
//! finds no implementation for either), and a `special` call names the
//! abstract `Base::m` directly (the call must never bind). Allocation
//! sites in a factory class vary the containing class seen by
//! type-sensitivity.
//!
//! Per context, every `this` points-to set must equal the naive
//! solver's, and so must the call graph and every variable's collapsed
//! points-to set, under ci, 2cs, 2obj and 2type and both numberings.

use std::collections::BTreeSet;

use jir::{AllocId, CallSiteId, MethodId, Program, VarId};
use pta::naive::solve_naive;
use pta::{
    AllocSiteAbstraction, AnalysisConfig, CallSiteSensitive, ContextInsensitive, ContextSelector,
    CtxElem, Numbering, ObjectSensitive, PtrKey, TypeSensitive,
};

const SOURCE: &str = "
abstract class Base {
  field f: Object;
  abstract method m(this, a);
  method get(this) { r = this.f; return r; }
}
class A extends Base {
  method m(this, a) { this.f = a; s = this; return s; }
}
class B extends Base {
  method m(this, a) { t = a; return this; }
}
class C extends A { }
class D extends Base { }
class E {
  method other(this) { return; }
}
class Factory {
  static method mkA() { n = new A; return n; }
  static method mkC() { n = new C; return n; }
}
class Main {
  entry static method main() {
    o = new Object;
    r1 = new A;
    r2 = new B;
    r3 = new C;
    r4 = new D;
    r5 = new E;
    r6 = call Factory::mkA();
    r7 = new B;
    r8 = call Factory::mkC();
    r9 = new A;
    x = r1; x = r2; x = r3; x = r4; x = r5;
    x = r6; x = r7; x = r8; x = r9;
    y = virt x.m(o);
    q = special x.Base::m(o);
    z = virt x.get();
    w = call Main::helper(x, y);
    v = call Main::helper(y, o);
    return;
  }
  static method helper(p, q) { u = virt p.m(q); g = virt u.get(); return u; }
}
";

/// An object as `(allocation site, heap-context elements)`: the
/// arena-independent identity both solvers agree on.
type ObjDesc = (AllocId, Vec<CtxElem>);

/// `this` points-to facts as `(method, context elements, objects)`.
type ThisFacts = BTreeSet<(MethodId, Vec<CtxElem>, BTreeSet<ObjDesc>)>;

fn this_vars(p: &Program) -> Vec<(MethodId, VarId)> {
    p.method_ids()
        .filter_map(|m| p.method(m).this().map(|t| (m, t)))
        .collect()
}

fn check<S: ContextSelector + Clone>(label: &str, p: &Program, selector: S, numbering: Numbering) {
    let fast = AnalysisConfig::new(selector.clone(), AllocSiteAbstraction)
        .numbering(numbering)
        .run(p)
        .expect("fits budget");
    let slow = solve_naive(p, &selector, &AllocSiteAbstraction);

    let mut fast_this = ThisFacts::new();
    for (m, this) in this_vars(p) {
        for &ctx in fast.contexts_of_method(m) {
            let objs: BTreeSet<ObjDesc> = fast
                .points_to(ctx, this)
                .iter()
                .map(|o| {
                    let hctx = fast.contexts().elems(fast.obj_heap_context(o)).to_vec();
                    (fast.obj_alloc(o), hctx)
                })
                .collect();
            fast_this.insert((m, fast.contexts().elems(ctx).to_vec(), objs));
        }
    }
    let mut slow_this = ThisFacts::new();
    for (m, this) in this_vars(p) {
        for &(ctx, rm) in &slow.reachable {
            if rm != m {
                continue;
            }
            let objs: BTreeSet<ObjDesc> = slow
                .pts
                .get(&PtrKey::Var(ctx, this))
                .into_iter()
                .flatten()
                .map(|&o| {
                    let hctx = slow.arena.elems(slow.objs.heap_context(o)).to_vec();
                    (slow.objs.alloc(o), hctx)
                })
                .collect();
            slow_this.insert((m, slow.arena.elems(ctx).to_vec(), objs));
        }
    }
    assert_eq!(fast_this, slow_this, "{label}: per-context `this` sets");

    let fast_edges: BTreeSet<(CallSiteId, MethodId)> = fast.call_graph_edges().collect();
    assert_eq!(fast_edges, slow.call_edges, "{label}: call graph");
    for v in (0..p.var_count()).map(VarId::from_usize) {
        let f: BTreeSet<AllocId> = fast
            .points_to_collapsed(v)
            .iter()
            .map(|o| fast.obj_alloc(o))
            .collect();
        assert_eq!(f, slow.var_points_to_allocs(v), "{label}: variable {}", p.var(v).name());
    }

    // The program exercises what it claims to: the abstract `Base::m`
    // never binds, and both concrete targets of the shared receiver do.
    let names: BTreeSet<String> = fast_edges
        .iter()
        .map(|&(_, m)| {
            let method = p.method(m);
            format!("{}::{}", p.class(method.class()).name(), method.name())
        })
        .collect();
    for want in ["A::m", "B::m", "Base::get"] {
        assert!(names.contains(want), "{label}: {want} never bound: {names:?}");
    }
    assert!(!names.contains("Base::m"), "{label}: abstract target bound");
}

#[test]
fn batched_dispatch_matches_naive_solver() {
    let p = jir::parse(SOURCE).expect("crafted program parses");
    for numbering in [Numbering::Discovery, Numbering::Hierarchy] {
        let n = format!("{numbering:?}");
        check(&format!("ci/{n}"), &p, ContextInsensitive, numbering);
        check(&format!("2cs/{n}"), &p, CallSiteSensitive::new(2), numbering);
        check(&format!("2obj/{n}"), &p, ObjectSensitive::new(2), numbering);
        check(&format!("2type/{n}"), &p, TypeSensitive::new(2), numbering);
    }
}

/// Receivers of four interleaved types, one without an implementation
/// in the middle: under ci every resolvable receiver shares the one
/// target and the empty callee context, so the whole replayed set binds
/// as a single group. Binding receiver by receiver would count five.
#[test]
fn receivers_sharing_a_target_bind_as_one_group() {
    let p = jir::parse(
        "class A { method m(this) { return; } }
         class B extends A { }
         class C extends B { }
         class E { }
         class Main {
           entry static method main() {
             a1 = new A; b1 = new B; e1 = new E; c1 = new C; a2 = new A; b2 = new B;
             x = a1; x = b1; x = e1; x = c1; x = a2; x = b2;
             virt x.m();
             return;
           }
         }",
    )
    .expect("parses");
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .numbering(Numbering::Discovery)
        .run(&p)
        .expect("fits budget");
    assert_eq!(r.stats().dispatch_groups, 1);
    let m = p
        .method_ids()
        .find(|&m| p.method(m).name() == "m")
        .expect("A::m exists");
    let this = p.method(m).this().expect("instance method");
    assert_eq!(r.points_to(r.contexts().empty(), this).len(), 5);
}
