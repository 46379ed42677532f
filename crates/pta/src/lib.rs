//! # pta — whole-program points-to analysis
//!
//! The analysis-engine substrate of the Mahjong reproduction (Tan, Li,
//! Xue, PLDI 2017): an Andersen-style, flow-insensitive, field-sensitive
//! subset analysis over [`jir`] programs with on-the-fly call-graph
//! construction. Two axes are pluggable, mirroring the paper's
//! experimental matrix:
//!
//! - **Context sensitivity** ([`ContextSelector`]):
//!   [`ContextInsensitive`] (the pre-analysis), [`CallSiteSensitive`]
//!   (k-CFA), [`ObjectSensitive`] (k-obj), [`TypeSensitive`] (k-type).
//! - **Heap abstraction** ([`HeapAbstraction`]):
//!   [`AllocSiteAbstraction`] (one object per allocation site),
//!   [`AllocTypeAbstraction`] (one object per type — the naive baseline
//!   of paper Section 2.1), and [`MergedObjectMap`] (the Mahjong
//!   abstraction, produced by the `mahjong` crate).
//!
//! Merged objects are always modeled context-insensitively, and merged
//! context elements are automatically replaced by their class
//! representatives, exactly as prescribed in paper Section 3.6.1.
//!
//! Points-to sets are hybrid sorted-vec / bitmap [`PtsSet`]s (from the
//! `pts` crate) and the result API is borrow-first: accessors hand out
//! `&PtsSet<ObjId>` views with `to_vec()` as the owned escape hatch.
//!
//! # Examples
//!
//! Running a 2-object-sensitive analysis:
//!
//! ```
//! use pta::{AnalysisConfig, ObjectSensitive, AllocSiteAbstraction};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = jir::parse(
//!     "class A {
//!        field f: A;
//!        method id(this, v) { w = v; return w; }
//!        entry static method main() {
//!          a = new A; b = new A;
//!          r = virt a.id(b);
//!          return;
//!        }
//!      }",
//! )?;
//! let result = AnalysisConfig::new(ObjectSensitive::new(2), AllocSiteAbstraction)
//!     .run(&program)?;
//! assert!(result.call_graph_edge_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod context;
mod heap;
pub mod naive;
pub mod numbering;
mod object;
mod order;
mod result;
pub mod snapshot;
mod solver;
mod table;
pub mod util;

pub use context::{
    CallSiteSensitive, ContextArena, ContextInsensitive, ContextSelector, CtxElem, CtxId,
    ObjectSensitive, TypeSensitive,
};
pub use heap::{AllocSiteAbstraction, AllocTypeAbstraction, HeapAbstraction, MergedObjectMap};
pub use object::{Numbering, ObjId, ObjTable};
pub use pts::PtsSet;
pub use result::{AnalysisResult, AnalysisStats};
pub use solver::{pre_analysis, AnalysisConfig, Budget, PtrId, PtrKey, Unscalable};
