//! A balance measurement reuses its thread's hierarchy.
//!
//! `measure_program_balance` keeps the hierarchy it ran on as the
//! thread's spare, and the next measurement on the same cache and TLB
//! geometry resets it instead of building one, so a search that scores
//! many small candidates allocates cache storage once.  A machine of
//! another geometry, even under the same name, gets a fresh hierarchy.
//! This binary has its own counting global allocator, which counts the
//! bytes each thread asks for; every test runs on its own thread, so each
//! starts without a spare.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbb_core::balance::{measure_program_balance, ProgramBalance};
use mbb_ir::builder::*;
use mbb_ir::Program;
use mbb_memsim::machine::MachineModel;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Counts the bytes this thread allocates, and forwards every call to the
/// system allocator.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// a `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The balance of `prog` on `machine`, and the bytes measuring it
/// allocated on this thread.
fn measure(prog: &Program, machine: &MachineModel) -> (ProgramBalance, u64) {
    let before = BYTES.with(Cell::get);
    let b = measure_program_balance(prog, machine).expect("program runs");
    (b, BYTES.with(Cell::get) - before)
}

/// Bytes of the smallest line array a level of `lines` lines can have:
/// one 8-byte tag per line.
fn line_array_floor(lines: u64) -> u64 {
    lines * 8
}

/// Two nests over `n`-element arrays: a scaled copy, then a sum over
/// both arrays, which re-reads what the first nest left in the cache.
fn copy_then_sum(n: usize) -> Program {
    let mut b = ProgramBuilder::new("copy_then_sum");
    let a = b.array_in("a", &[n]);
    let t = b.array("t", &[n]);
    let s = b.scalar_printed("s", 0.0);
    let (i, j) = (b.var("i"), b.var("j"));
    let hi = n as i64 - 1;
    b.nest("copy", &[(i, 0, hi)], vec![assign(t.at([v(i)]), ld(a.at([v(i)])) * lit(2.0))]);
    b.nest("sum", &[(j, 0, hi)], vec![accumulate(s, ld(a.at([v(j)])) + ld(t.at([v(j)])))]);
    b.finish()
}

#[test]
fn the_second_measurement_on_one_machine_reuses_the_hierarchy() {
    let origin = MachineModel::origin2000();
    let l2 = &origin.caches[1];
    let floor = line_array_floor(l2.size / l2.line);
    let p = copy_then_sum(512);
    let (first, built) = measure(&p, &origin);
    assert!(built >= floor, "the first measurement builds: {built} bytes, floor {floor}");
    let (second, reused) = measure(&p, &origin);
    assert!(reused < floor, "the second measurement allocated {reused} bytes, floor {floor}");
    assert_eq!(second.report, first.report, "a reset hierarchy measures as a fresh one");
    assert_eq!(second.flops, first.flops);
}

#[test]
fn a_machine_of_one_name_and_another_associativity_gets_a_fresh_hierarchy() {
    let direct = MachineModel::exemplar();
    let mut two_way = direct.clone();
    two_way.caches[0].assoc = 2;
    assert_eq!(two_way.name, direct.name);
    let l1 = &two_way.caches[0];
    let floor = line_array_floor(l1.size / l1.line);
    // 1.5 MB of arrays against the 1 MB cache: the geometries differ in
    // what the second nest finds resident.
    let p = copy_then_sum(96 * 1024);
    let (on_direct, _) = measure(&p, &direct);
    let (on_two_way, built) = measure(&p, &two_way);
    assert!(built >= floor, "a new geometry builds: {built} bytes, floor {floor}");
    let fresh = {
        let (p, m) = (p.clone(), two_way.clone());
        std::thread::spawn(move || measure(&p, &m).0).join().unwrap()
    };
    assert_eq!(on_two_way.report, fresh.report);
    assert_ne!(on_two_way.report, on_direct.report, "the geometries must be told apart");
}
