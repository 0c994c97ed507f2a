//! Allocation scaling of `Machine::run_in` with the tenant count.
//!
//! Output assembly must cost O(1) allocations, not one per tenant: each
//! tenant's summary (class label, latency histogram) moves into the
//! `RunSummary` rather than being copied. A run with 1,000 tenants may
//! allocate a little more than one with 250 (amortised `Vec` growth), but
//! never hundreds more.
//!
//! The counting allocator replaces the global allocator of the whole test
//! binary, so the binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simkit::{RunArena, SimDuration};
use testbed::{FleetSpec, Machine, MachinePreset, StackSpec, TenantPopulation};

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls made on the current
/// thread while counting is on.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `Machine::run_in` on one open-loop fleet host of
/// `tenants` Zipfian tenants, with no warm-up and a 1 µs window: the run
/// is almost all set-up and output assembly.
fn run_in_allocs(tenants: u32) -> u64 {
    let mut spec = FleetSpec::new(
        format!("alloc-scaling-{tenants}"),
        1,
        MachinePreset::SvM,
        StackSpec::daredevil(),
        TenantPopulation::zipfian(tenants, 20_000.0),
    );
    spec.knobs.warmup = SimDuration::ZERO;
    spec.knobs.measure = SimDuration::from_micros(1);
    let scenario = spec.expand().pop().expect("one host");
    assert_eq!(scenario.tenants.len(), tenants as usize);
    let mut arena = RunArena::new();
    let machine = Machine::new_in(scenario, &mut arena);
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = machine.run_in(&mut arena);
    COUNTING.with(|c| c.set(false));
    assert_eq!(out.summary.tenants.len(), tenants as usize);
    ALLOCS.with(Cell::get)
}

#[test]
fn run_in_allocations_do_not_scale_with_tenants() {
    let small = run_in_allocs(250);
    let large = run_in_allocs(1_000);
    assert!(
        large.abs_diff(small) <= 16,
        "run_in allocated {small} times with 250 tenants and {large} with 1,000: \
         output assembly allocates per tenant"
    );
}
