//! Building and dropping a cold hierarchy costs a fixed handful of heap
//! allocations, however many sets its caches have.
//!
//! The STREAM and CacheBench runs, the traced native kernels and the trace
//! replays build a hierarchy per simulation; a balance measurement builds
//! one per thread and machine geometry and resets it for the next
//! measurement (`mbb_core::balance`).  A per-set allocation would make
//! each build scale with the simulated cache size instead of the program
//! (tens of thousands of allocations for the paper's machines).  This
//! binary has its own counting global allocator, so it holds this one
//! test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbb_memsim::machine::MachineModel;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

/// Counts this thread's allocations and frees, and forwards every call to
/// the system allocator.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// `const`-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and frees of building `machine`'s hierarchy and dropping it.
fn build_and_drop(machine: &MachineModel) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    drop(std::hint::black_box(machine.hierarchy()));
    (ALLOCATIONS.with(Cell::get) - before.0, FREES.with(Cell::get) - before.1)
}

#[test]
fn building_a_hierarchy_allocates_a_constant_handful_independent_of_set_count() {
    let origin = MachineModel::origin2000();
    let exemplar = MachineModel::exemplar();
    // Per level: its config name and its two set arrays; per hierarchy: the
    // config and level lists, channel counters and the TLB.
    let bound = |m: &MachineModel| 3 * m.caches.len() as u64 + 4;
    for (name, m) in [("origin2000", &origin), ("exemplar", &exemplar)] {
        let (allocs, frees) = build_and_drop(m);
        let scaled = m.scaled(64);
        let (scaled_allocs, scaled_frees) = build_and_drop(&scaled);
        assert!(allocs <= bound(m), "{name}: {allocs} allocations, bound {}", bound(m));
        assert_eq!(allocs, frees, "{name}: dropping frees everything built");
        assert_eq!(
            (scaled_allocs, scaled_frees),
            (allocs, frees),
            "{name}: 1/64 of the sets must cost the same allocations"
        );
    }
}
