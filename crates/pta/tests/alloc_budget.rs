//! A deterministic allocation budget for the solver.
//!
//! Heap allocation used to be a large share of a fixpoint's cost: a
//! points-to set of one object allocated a `Vec`, and so did every
//! delta, every cloned receiver row and every drained repair batch,
//! while a bitmap delta reallocated as it grew word by word.
//! This binary counts what the solver asks of the allocator — every
//! `alloc` and every `realloc`, from any thread — while it solves
//! luindex@2 under 2cs and 2obj with the allocation-site heap, and
//! holds each count under a pinned bound.
//!
//! The counts are work counters, not clocks: the solver is one
//! sequential driver, so the same program and configuration make the
//! same requests in the same order on every run (with the same
//! toolchain, whose collections decide when to grow). Each bound is the
//! count measured when it was pinned plus about 10%. A
//! change that raises a count past its bound reintroduces per-operation
//! allocation; a change that lowers it a lot should lower the bound.
//!
//! The test is alone in its binary: the counter is process-wide, and a
//! second test running in parallel would add its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pta::{
    AllocSiteAbstraction, AnalysisConfig, Budget, CallSiteSensitive, ContextSelector,
    ObjectSensitive,
};

/// Forwards to the system allocator, counting allocations and
/// reallocations.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter has no effect on the memory handed
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// luindex@2, 2cs, alloc-site heap: allocations and reallocations of
/// one solver run (measured: 15,283, with one consumer row per pointer
/// and the seal's shrink of each kept set).
const BOUND_2CS: u64 = 16_800;
/// luindex@2, 2obj, alloc-site heap (measured: 7,395).
const BOUND_2OBJ: u64 = 8_150;

/// Allocations and reallocations made by one run of `selector` on
/// `program`, the result's drop excluded.
fn solver_allocs<S: ContextSelector>(program: &jir::Program, selector: S) -> u64 {
    let config = AnalysisConfig::new(selector, AllocSiteAbstraction)
        .budget(Budget::seconds(120))
        .observability(false);
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = config.run(program).expect("luindex@2 fits a 120s budget");
    let count = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(result.stats().worklist_pops > 0, "solver did no work");
    count
}

#[test]
fn solver_allocations_within_budget() {
    let w = workloads::dacapo::workload("luindex", 2);
    let cs = solver_allocs(&w.program, CallSiteSensitive::new(2));
    let obj = solver_allocs(&w.program, ObjectSensitive::new(2));
    eprintln!("luindex@2 allocations: 2cs {cs}, 2obj {obj}");
    assert!(
        cs <= BOUND_2CS,
        "2cs made {cs} allocations > bound {BOUND_2CS}"
    );
    assert!(
        obj <= BOUND_2OBJ,
        "2obj made {obj} allocations > bound {BOUND_2OBJ}"
    );
}
