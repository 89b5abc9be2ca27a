//! Allocation count of a whole run, with a counting global allocator: a
//! run allocates while it is built and while its buffers grow to their
//! high-water mark, never per frame, per loss episode, per trace bin or
//! per TCP connection, so a ten-minute call allocates about what a
//! one-minute call does, and a competitor that opens a connection per
//! segment for ten minutes about what it does for one.
//!
//! The counter is per thread, so a test running beside another on its
//! own thread counts only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vcabench_campaign::{CompetitionSpec, CompetitorSpec, ScenarioSpec, TwoPartySpec};
use vcabench_harness::run::unconstrained;
use vcabench_harness::run_spec_metered;
use vcabench_netsim::RateProfile;
use vcabench_telemetry::Telemetry;
use vcabench_vca::VcaKind;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// integer and never influences the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations of one untraced call of `kind` lasting `secs`.
fn call_allocs(kind: VcaKind, up: &RateProfile, secs: f64) -> u64 {
    let spec = ScenarioSpec::TwoParty(TwoPartySpec {
        kind,
        up: up.clone(),
        down: unconstrained(),
        duration_secs: secs,
        seed: 1,
        knobs: None,
    });
    allocs_in(|| run_spec_metered(&spec, &Telemetry::disabled())).1
}

/// Allocations of one untraced Zoom call over a 2 Mbps bottleneck against
/// `competitor`, which runs `secs` from the paper's 30 s start; the call
/// goes on one minute after it.
fn competition_allocs(competitor: CompetitorSpec, secs: f64) -> u64 {
    let mut spec = CompetitionSpec::paper(VcaKind::Zoom, competitor, 2.0, 1);
    spec.competitor_duration_secs = Some(secs);
    spec.total_secs = Some(30.0 + secs + 60.0);
    let spec = ScenarioSpec::Competition(spec);
    allocs_in(|| run_spec_metered(&spec, &Telemetry::disabled())).1
}

/// Growth a ten-times-longer call may add: the per-second series and the
/// buffers that reach a later high-water mark, a few doublings each.
const SLACK: u64 = 128;

#[test]
fn a_call_allocates_the_same_at_any_length() {
    let shaped = RateProfile::constant_mbps(0.5);
    let unshaped = unconstrained();
    let mut grew = Vec::new();
    for kind in [VcaKind::Meet, VcaKind::Zoom, VcaKind::Teams] {
        for (shaping, up) in [("0.5 Mbps up", &shaped), ("unshaped", &unshaped)] {
            let short = call_allocs(kind, up, 60.0);
            let long = call_allocs(kind, up, 600.0);
            let row = format!("{kind:?} {shaping}: {short} at 60 s, {long} at 600 s");
            println!("{row}");
            if long > short + SLACK {
                grew.push(row);
            }
        }
    }
    assert!(grew.is_empty(), "allocations grew with the call: {grew:#?}");
}

#[test]
fn a_competition_allocates_the_same_at_any_length() {
    let mut grew = Vec::new();
    for competitor in [
        CompetitorSpec::IperfUp,
        CompetitorSpec::IperfDown,
        CompetitorSpec::Youtube,
        CompetitorSpec::Netflix,
    ] {
        let short = competition_allocs(competitor, 60.0);
        let long = competition_allocs(competitor, 600.0);
        let row = format!("Zoom vs {competitor:?}: {short} at 60 s, {long} at 600 s");
        println!("{row}");
        if long > short + SLACK {
            grew.push(row);
        }
    }
    assert!(
        grew.is_empty(),
        "allocations grew with the competitor: {grew:#?}"
    );
}
