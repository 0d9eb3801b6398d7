//! Proof that the protocol runtime is allocation-free in steady state.
//!
//! Every MAC and protocol handler appends its actions to a stack the
//! simulation owns, and every map on the run path hashes with the seeded
//! `FastMap` hasher, so a run allocates only while its buffers, queues and
//! maps grow to their working size. A counting `#[global_allocator]` wraps
//! the system allocator; the counter is thread-local (const-initialised,
//! so reading it never allocates), because the libtest harness thread
//! occasionally allocates while a test runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bicord_scenario::config::{ExtraWifiConfig, RunResults, SimConfig};
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::SimDuration;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` because the allocator can be entered during thread
    // teardown, after the TLS slot has been destroyed.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The default BiCord cell at location A with the contending Wi-Fi
/// station, seed 1, 30 simulated seconds. Returns the results and the
/// allocations made inside `run()` (set-up excluded).
fn counted_run() -> (RunResults, u64) {
    let mut config = SimConfig::bicord(Location::A, 1);
    config.duration = SimDuration::from_secs(30);
    config.extra_wifi = Some(ExtraWifiConfig::default());
    let sim = CoexistenceSim::new(config).expect("valid config");
    let before = allocations();
    let results = sim.run();
    (results, allocations() - before)
}

#[test]
fn a_bicord_run_allocates_only_while_growing_and_repeatably() {
    let (results, allocs) = counted_run();
    assert!(
        results.wifi.reservations > 0 && results.zigbee.delivered > 0,
        "the cell must exercise the protocol"
    );
    // Growth of the queue, the timer map and the metric vectors is
    // logarithmic in the run length; one allocation per event (a fresh
    // action `Vec` per handler call) would exceed this fifty times over.
    let bound = results.events / 50;
    assert!(
        allocs <= bound,
        "{allocs} allocations in {} events (bound {bound})",
        results.events
    );
    let (again, allocs_again) = counted_run();
    assert_eq!(again.events, results.events);
    assert_eq!(
        allocs_again, allocs,
        "allocation counts must repeat run to run"
    );
}
