//! Semantic tests for the points-to engine: field sensitivity, dispatch,
//! cast filtering, and context sensitivity.

use pta::{
    AllocSiteAbstraction, AllocTypeAbstraction, AnalysisConfig, CallSiteSensitive,
    ContextInsensitive, ObjectSensitive, TypeSensitive,
};

/// The single element of a one-object points-to set.
fn only(pts: &pta::PtsSet<pta::ObjId>) -> pta::ObjId {
    assert_eq!(pts.len(), 1);
    pts.iter().next().unwrap()
}

fn figure1() -> jir::Program {
    // The paper's Figure 1.
    jir::parse(
        "class A {
           field f: A;
           method foo(this) { return; }
         }
         class B extends A {
           method foo(this) { return; }
         }
         class C extends A {
           method foo(this) { return; }
           entry static method main() {
             x = new A; y = new A; z = new A;
             b = new B; c5 = new C; c6 = new C;
             x.f = b; y.f = c5; z.f = c6;
             a = z.f;
             virt a.foo();
             c = (C) a;
             return;
           }
         }",
    )
    .expect("figure 1 parses")
}

fn var_named(p: &jir::Program, m: jir::MethodId, name: &str) -> jir::VarId {
    (0..p.var_count())
        .map(jir::VarId::from_usize)
        .find(|&v| p.var(v).method() == m && p.var(v).name() == name)
        .unwrap_or_else(|| panic!("no var {name}"))
}

#[test]
fn andersen_is_field_sensitive() {
    let p = figure1();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    // a = z.f points only to o6 (type C), not to o4 (B) or o5 (C).
    let a = var_named(&p, main, "a");
    let pts = r.points_to_collapsed(a);
    assert_eq!(pts.len(), 1, "field-sensitive: a points to exactly o6");
    let ty = r.obj_type(only(pts));
    assert_eq!(p.type_name(ty), "C");
}

#[test]
fn alloc_type_abstraction_conflates() {
    let p = figure1();
    let r = AnalysisConfig::new(ContextInsensitive, AllocTypeAbstraction::new(&p))
        .run(&p)
        .unwrap();
    let main = p.entry();
    // With one object per type, x/y/z all point to the same A object, so
    // a = z.f sees both the B and the C stored values.
    let a = var_named(&p, main, "a");
    let pts = r.points_to_collapsed(a);
    let mut tys: Vec<String> = pts.iter().map(|o| p.type_name(r.obj_type(o))).collect();
    tys.sort();
    assert_eq!(tys, ["B", "C"], "allocation-type abstraction loses precision");
}

#[test]
fn virtual_dispatch_targets_runtime_class() {
    let p = figure1();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    // `virt a.foo()` must dispatch to C::foo only.
    let site = p
        .call_site_ids()
        .find(|&s| matches!(p.call_site(s).kind(), jir::CallKind::Virtual { .. }))
        .expect("one virtual call");
    let targets = r.call_targets(site);
    assert_eq!(targets.len(), 1);
    let t = p.method(targets[0]);
    assert_eq!(p.class(t.class()).name(), "C");
    assert_eq!(t.name(), "foo");
}

#[test]
fn cast_filters_incompatible_objects() {
    let p = jir::parse(
        "class A { }
         class B extends A { }
         class C extends A {
           entry static method main() {
             a = new A; b = new B;
             x = a; x = b;
             y = (B) x;
             return;
           }
         }",
    )
    .unwrap();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let x = var_named(&p, main, "x");
    let y = var_named(&p, main, "y");
    assert_eq!(r.points_to_collapsed(x).len(), 2);
    let y_pts = r.points_to_collapsed(y);
    assert_eq!(y_pts.len(), 1, "cast lets only the B object through");
    assert_eq!(p.type_name(r.obj_type(only(y_pts))), "B");
}

/// The classic context-sensitivity litmus test: an identity method called
/// from two sites must not conflate its arguments under 1+ -CFA, but does
/// conflate them context-insensitively.
fn identity_program() -> jir::Program {
    jir::parse(
        "class Box { }
         class Id {
           method id(this, v) { return v; }
         }
         class Main {
           entry static method main() {
             i = new Id;
             a = new Box;
             b = new Box;
             x = virt i.id(a);
             y = virt i.id(b);
             return;
           }
         }",
    )
    .unwrap()
}

#[test]
fn context_insensitive_conflates_identity() {
    let p = identity_program();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let x = var_named(&p, main, "x");
    assert_eq!(r.points_to_collapsed(x).len(), 2, "ci merges both boxes");
}

#[test]
fn call_site_sensitivity_distinguishes_identity() {
    let p = identity_program();
    let r = AnalysisConfig::new(CallSiteSensitive::new(1), AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let x = var_named(&p, main, "x");
    let y = var_named(&p, main, "y");
    assert_eq!(r.points_to_collapsed(x).len(), 1, "1-CFA splits call sites");
    assert_eq!(r.points_to_collapsed(y).len(), 1);
}

/// Object-sensitivity litmus test: the same setter method invoked on two
/// receiver objects must keep the receivers' fields separate.
fn container_program() -> jir::Program {
    jir::parse(
        "class Box { field val: Object; method set(this, v) { this.val = v; return; }
                     method get(this) { r = this.val; return r; } }
         class P { }
         class Q { }
         class Main {
           entry static method main() {
             b1 = new Box; b2 = new Box;
             p = new P; q = new Q;
             virt b1.set(p);
             virt b2.set(q);
             g1 = virt b1.get();
             g2 = virt b2.get();
             return;
           }
         }",
    )
    .unwrap()
}

#[test]
fn object_sensitivity_separates_receivers() {
    let p = container_program();
    let r = AnalysisConfig::new(ObjectSensitive::new(2), AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let g1 = var_named(&p, main, "g1");
    let g2 = var_named(&p, main, "g2");
    let g1p = r.points_to_collapsed(g1);
    let g2p = r.points_to_collapsed(g2);
    assert_eq!(g1p.len(), 1, "2obj: b1.get() sees only p");
    assert_eq!(g2p.len(), 1, "2obj: b2.get() sees only q");
    assert_eq!(p.type_name(r.obj_type(only(g1p))), "P");
    assert_eq!(p.type_name(r.obj_type(only(g2p))), "Q");
}

#[test]
fn context_insensitive_conflates_receivers() {
    let p = container_program();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let g1 = var_named(&p, main, "g1");
    assert_eq!(r.points_to_collapsed(g1).len(), 2, "ci mixes both boxes");
}

/// Type-sensitivity merges receivers allocated in the same class but
/// still separates receivers allocated in different classes.
#[test]
fn type_sensitivity_separates_by_containing_class() {
    let p = jir::parse(
        "class Box { field val: Object; method set(this, v) { this.val = v; return; }
                     method get(this) { r = this.val; return r; } }
         class P { }
         class Q { }
         class MakerA { static method mk() { b = new Box; return b; } }
         class MakerB { static method mk() { b = new Box; return b; } }
         class Main {
           entry static method main() {
             b1 = call MakerA::mk();
             b2 = call MakerB::mk();
             p = new P; q = new Q;
             virt b1.set(p);
             virt b2.set(q);
             g1 = virt b1.get();
             g2 = virt b2.get();
             return;
           }
         }",
    )
    .unwrap();
    let r = AnalysisConfig::new(TypeSensitive::new(2), AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let g1 = var_named(&p, main, "g1");
    let g1p = r.points_to_collapsed(g1);
    assert_eq!(
        g1p.len(),
        1,
        "2type separates Box objects allocated in different classes"
    );
    assert_eq!(p.type_name(r.obj_type(only(g1p))), "P");
}

#[test]
fn static_fields_are_global() {
    let p = jir::parse(
        "class G { static field shared: Object; }
         class P { }
         class Main {
           static method put() { v = new P; G.shared = v; return; }
           entry static method main() {
             call Main::put();
             w = G.shared;
             return;
           }
         }",
    )
    .unwrap();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let w = var_named(&p, main, "w");
    assert_eq!(r.points_to_collapsed(w).len(), 1);
}

#[test]
fn arrays_flow_through_element_field() {
    let p = jir::parse(
        "class P { }
         class Main {
           entry static method main() {
             arr = new Object[];
             v = new P;
             arr[*] = v;
             w = arr[*];
             return;
           }
         }",
    )
    .unwrap();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let w = var_named(&p, main, "w");
    let pts = r.points_to_collapsed(w);
    assert_eq!(p.type_name(r.obj_type(only(pts))), "P");
}

#[test]
fn unreachable_methods_contribute_nothing() {
    let p = jir::parse(
        "class Dead { static method never() { d = new Dead; return; } }
         class Main {
           entry static method main() { m = new Main; return; }
         }",
    )
    .unwrap();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    assert_eq!(r.object_count(), 1, "dead allocation never materializes");
    assert_eq!(r.reachable_method_count(), 1);
}

#[test]
fn recursion_terminates_with_context() {
    let p = jir::parse(
        "class L { field next: L;
           method build(this, n) {
             m = new L;
             this.next = m;
             r = virt m.build(m);
             return r;
           }
         }
         class Main {
           entry static method main() {
             l = new L;
             x = virt l.build(l);
             return;
           }
         }",
    )
    .unwrap();
    for k in 1..=3 {
        let r = AnalysisConfig::new(ObjectSensitive::new(k), AllocSiteAbstraction)
            .run(&p)
            .unwrap();
        assert!(r.reachable_method_count() >= 2, "k={k}");
    }
}

#[test]
fn special_calls_bind_this_to_receiver() {
    let p = jir::parse(
        "class A {
           field f: Object;
           method init(this, v) { this.f = v; return; }
         }
         class Main {
           entry static method main() {
             a = new A;
             v = new Main;
             special a.A::init(v);
             w = a.f;
             return;
           }
         }",
    )
    .unwrap();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let main = p.entry();
    let w = var_named(&p, main, "w");
    assert_eq!(r.points_to_collapsed(w).len(), 1);
}

#[test]
fn interface_dispatch_resolves_to_implementations() {
    let p = jir::parse(
        "interface Shape { abstract method draw(this); }
         class Circle implements Shape { method draw(this) { return; } }
         class Square implements Shape { method draw(this) { return; } }
         class Main {
           entry static method main() {
             s = new Circle;
             s = new Square;
             virt s.draw();
             return;
           }
         }",
    )
    .unwrap();
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let site = p
        .call_site_ids()
        .find(|&s| matches!(p.call_site(s).kind(), jir::CallKind::Virtual { .. }))
        .unwrap();
    assert_eq!(r.call_targets(site).len(), 2, "both impls reachable");
}

/// Rows are sealed once, at finalize, and an empty row is not a seal:
/// a copy cycle no object reaches is collapsed but shares the
/// pre-interned empty set without counting a dedup hit. The one
/// object's row and its copy `d` make one miss and one hit.
#[test]
fn an_unreached_copy_cycle_counts_no_seal() {
    let p = jir::parse(
        "class A {
           entry static method main() {
             a = b; b = a;
             d = o; o = new A;
             return;
           }
         }",
    )
    .expect("parses");
    let r = AnalysisConfig::new(ContextInsensitive, AllocSiteAbstraction)
        .run(&p)
        .unwrap();
    let s = r.stats();
    assert_eq!(s.scc_collapsed_ptrs, 1, "the a/b cycle collapses");
    assert!(r.points_to_collapsed(var_named(&p, p.entry(), "a")).is_empty());
    assert_eq!((s.pts_interned, s.pts_dedup_hits), (2, 1));
}
