//! # mahjong — a heap abstraction that merges equivalent automata
//!
//! A from-scratch reproduction of the system in *Efficient and Precise
//! Points-to Analysis: Modeling the Heap by Merging Equivalent Automata*
//! (Tan, Li, Xue — PLDI 2017).
//!
//! Mahjong replaces the allocation-site heap abstraction with a coarser
//! one tailored to *type-dependent* clients (call-graph construction,
//! devirtualization, may-fail casting): two objects of the same type are
//! merged when they are **type-consistent** — every sequence of field
//! accesses from either reaches objects of one common type
//! (Definition 2.1). Checking this naively is exponential; the paper's
//! key move is to view each object's field points-to graph as a
//! sequential automaton (Figure 4) and test *automata equivalence* in
//! near-linear time with Hopcroft–Karp.
//!
//! The pipeline (paper Figure 5):
//!
//! 1. a fast context-insensitive pre-analysis ([`pta::pre_analysis`])
//!    produces the field points-to graph ([`FieldPointsToGraph`]);
//! 2. the merge candidates' DFAs (Algorithms 2–3) are built as one
//!    shared subset machine over the FPG ([`build::SharedMachine`]),
//!    with the states that fail SINGLETYPE-CHECK (Condition 2) marked;
//! 3. one Moore partition refinement of that machine
//!    ([`automata::Dfa::state_classes`]) decides the equivalence of
//!    every pair of candidates at once, in place of the paper's
//!    per-pair Hopcroft–Karp runs (the pairwise pipeline survives as
//!    [`merge_equivalent_objects_pairwise`], the test oracle);
//! 4. the heap modeler (Algorithm 1, [`merge_equivalent_objects`])
//!    produces the merged object map ([`pta::MergedObjectMap`]) that any
//!    allocation-site-based points-to analysis can drop in.
//!
//! # Examples
//!
//! End-to-end on the paper's Figure 1 program:
//!
//! ```
//! use mahjong::{build_heap_abstraction, MahjongConfig};
//! use pta::{AnalysisConfig, ObjectSensitive, HeapAbstraction};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = jir::parse(
//!     "class A {
//!        field f: A;
//!        method foo(this) { return; }
//!      }
//!      class B extends A { method foo(this) { return; } }
//!      class C extends A {
//!        method foo(this) { return; }
//!        entry static method main() {
//!          x = new A; y = new A; z = new A;
//!          b = new B; c5 = new C; c6 = new C;
//!          x.f = b; y.f = c5; z.f = c6;
//!          a = z.f;
//!          virt a.foo();
//!          c = (C) a;
//!          return;
//!        }
//!      }",
//! )?;
//! let pre = pta::pre_analysis(&program)?;
//! let out = build_heap_abstraction(&program, &pre, &MahjongConfig::default());
//! // o2 and o3 merge; o1 stays separate (its f holds a B); the two C
//! // objects merge; so 6 sites become 4 abstract objects.
//! assert_eq!(out.stats.merged_objects, 4);
//!
//! // The map drops into any allocation-site-based analysis:
//! let m2obj = AnalysisConfig::new(ObjectSensitive::new(2), out.mom).run(&program)?;
//! assert!(m2obj.object_count() <= 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod build;
mod fpg;
mod merge;
pub mod oracle;
pub mod partition;

pub use fpg::{FieldPointsToGraph, FpgBuilder, FpgNode, NodeType};
pub use merge::{
    merge_equivalent_objects, merge_equivalent_objects_pairwise, MahjongConfig, MahjongOutput,
    MahjongStats, Representative,
};
pub use partition::HeapPartition;

use jir::Program;
use pta::AnalysisResult;

/// Runs the full Mahjong pipeline: FPG construction from a pre-analysis
/// result, then object merging (Algorithm 1).
///
/// `pre` should be the result of a context-insensitive allocation-site
/// analysis ([`pta::pre_analysis`]); using a context-sensitive result is
/// allowed (objects collapse to their allocation sites) but wastes work.
pub fn build_heap_abstraction(
    program: &Program,
    pre: &AnalysisResult,
    config: &MahjongConfig,
) -> MahjongOutput {
    let fpg = FieldPointsToGraph::from_analysis(program, pre, config.model_null);
    merge_equivalent_objects(&fpg, config)
}

/// Builds the FPG and reports its size alongside the merge output —
/// convenience for the benchmark harness, which reports FPG statistics
/// (paper Section 6.1.1) without building the graph twice.
pub fn build_with_fpg(
    program: &Program,
    pre: &AnalysisResult,
    config: &MahjongConfig,
) -> (FieldPointsToGraph, MahjongOutput) {
    let fpg = FieldPointsToGraph::from_analysis(program, pre, config.model_null);
    let out = merge_equivalent_objects(&fpg, config);
    (fpg, out)
}
