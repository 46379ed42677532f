//! A deterministic allocation budget for the solver.
//!
//! Heap allocation used to be a large share of a fixpoint's cost: a
//! points-to set of one object allocated a `Vec`, and so did every
//! delta, every cloned receiver row and every drained repair batch,
//! while a bitmap delta reallocated as it grew word by word.
//! This binary counts what the solver asks of the allocator — every
//! `alloc` and every `realloc`, from any thread — while it solves
//! luindex@2 under 2cs and 2obj with the allocation-site heap, and
//! holds each count under a pinned bound. It also tracks the bytes
//! live on the heap (allocations add, deallocations subtract, a
//! reallocation adds its size change) and holds each run's peak, above
//! what was live when the run started, under a second bound: a memory
//! check that needs no clock and no resident-set reading.
//!
//! The counts are work counters, not clocks: the solver is one
//! sequential driver, so the same program and configuration make the
//! same requests in the same order on every run (with the same
//! toolchain, whose collections decide when to grow), in debug and
//! release builds alike. Each count bound is the count measured when
//! it was pinned plus about 10%, each peak bound the measured peak
//! plus about 5%. A change that raises a count past its bound
//! reintroduces per-operation allocation, one that raises a peak past
//! its bound makes per-pointer state larger; a change that lowers
//! either a lot should lower the bound.
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
/// reallocations and tracking live and peak live bytes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most bytes live at once since the last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter has no effect on the memory handed
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// luindex@2, 2cs, alloc-site heap: allocations and reallocations of
/// one solver run (measured: 10,882, with pending deltas in a slab and
/// one-entry consumer rows kept in place; 16,156 before).
const BOUND_2CS: u64 = 12_000;
/// luindex@2, 2obj, alloc-site heap (measured: 4,660; 7,516 before).
const BOUND_2OBJ: u64 = 5_150;
/// luindex@2, 2cs: peak live bytes of one solver run (measured:
/// 2,587,524; 3,362,692 with a 32-byte pending slot per pointer and a
/// heap-allocated one-entry consumer row).
const PEAK_2CS: u64 = 2_717_000;
/// luindex@2, 2obj: peak live bytes (measured: 1,525,792; 1,920,544
/// before).
const PEAK_2OBJ: u64 = 1_602_000;

/// Allocations and reallocations made by one run of `selector` on
/// `program`, the result's drop excluded, and the run's peak live
/// bytes above those live when it started.
fn solver_allocs<S: ContextSelector>(program: &jir::Program, selector: S) -> (u64, u64) {
    let config = AnalysisConfig::new(selector, AllocSiteAbstraction).budget(Budget::seconds(120));
    let before = ALLOCS.load(Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = config.run(program).expect("luindex@2 fits a 120s budget");
    let count = ALLOCS.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(result.stats().worklist_pops > 0, "solver did no work");
    (count, peak)
}

#[test]
fn solver_allocations_within_budget() {
    let w = workloads::dacapo::workload("luindex", 2);
    let (cs, cs_peak) = solver_allocs(&w.program, CallSiteSensitive::new(2));
    let (obj, obj_peak) = solver_allocs(&w.program, ObjectSensitive::new(2));
    eprintln!("luindex@2 allocations: 2cs {cs}, 2obj {obj}");
    eprintln!("luindex@2 peak live bytes: 2cs {cs_peak}, 2obj {obj_peak}");
    assert!(
        cs <= BOUND_2CS,
        "2cs made {cs} allocations > bound {BOUND_2CS}"
    );
    assert!(
        obj <= BOUND_2OBJ,
        "2obj made {obj} allocations > bound {BOUND_2OBJ}"
    );
    assert!(
        cs_peak <= PEAK_2CS,
        "2cs peaked at {cs_peak} live bytes > bound {PEAK_2CS}"
    );
    assert!(
        obj_peak <= PEAK_2OBJ,
        "2obj peaked at {obj_peak} live bytes > bound {PEAK_2OBJ}"
    );
}
