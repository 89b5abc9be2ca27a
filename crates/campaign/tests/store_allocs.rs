//! Allocation count of a 100 %-hit `run_cached`, with a counting global
//! allocator: serving a populated store allocates per *record*, never per
//! byte — nothing is built from the 45 KB of series a record line holds.
//!
//! One `#[test]` only, and a per-thread counter, so nothing else in the
//! process can add to the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use vcabench_campaign::{
    run_cached, Axes, CampaignSpec, ScenarioOutcome, ScenarioSpec, ScenarioTemplate, SeedAxis,
    TwoPartyRecord, TwoPartySpec,
};
use vcabench_netsim::RateProfile;
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

const RECORDS: u64 = 24;

fn campaign() -> CampaignSpec {
    CampaignSpec {
        name: "allocs".to_string(),
        scenarios: vec![ScenarioTemplate {
            label: None,
            base: ScenarioSpec::TwoParty(TwoPartySpec {
                kind: VcaKind::Zoom,
                up: RateProfile::constant_mbps(1.0),
                down: RateProfile::constant_mbps(1000.0),
                duration_secs: 150.0,
                seed: 0,
                knobs: None,
            }),
            axes: Some(Axes {
                kinds: None,
                up_mbps: None,
                down_mbps: None,
                capacity_mbps: None,
                competitors: None,
                seeds: Some(SeedAxis::Range {
                    base: 1,
                    count: RECORDS,
                }),
            }),
        }],
    }
}

/// Populate a store whose records carry `samples`-long series, then count
/// the allocations of serving all of it from the store.
fn hit_allocs(samples: usize) -> (u64, u64) {
    // Same-length paths for both stores, so path strings cost the same.
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "vcabench-store-allocs-{}-{samples:06}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let series = |scale: f64| -> Vec<_> {
        (0..samples)
            .map(|i| (i as f64 * 0.5, i as f64 * scale))
            .collect()
    };
    let runner = |spec: &ScenarioSpec| {
        ScenarioOutcome::TwoParty(TwoPartyRecord {
            up_series: series(1.0 / 3.0),
            down_series: series(1.0 / 7.0),
            target_series: series(spec.seed() as f64 / 11.0),
            steady_up_mbps: 0.81,
            steady_down_mbps: 0.77,
            ttr_secs: None,
            nominal_mbps: Some(1.0),
            firs_received: 2,
            freeze_secs: 0.4,
            frames_decoded: 4_400,
        })
    };
    let campaign = campaign();
    let populate = run_cached(&campaign, 1, &dir, false, &runner).unwrap();
    assert_eq!(populate.computed as u64, RECORDS);
    let bytes = std::fs::metadata(&populate.store_path).unwrap().len();

    let (hit, allocs) = allocs_in(|| run_cached(&campaign, 1, &dir, false, &runner).unwrap());
    assert_eq!((hit.computed, hit.cached as u64), (0, RECORDS));
    assert_eq!(hit.results, populate.results);
    let _ = std::fs::remove_dir_all(&dir);
    (allocs, bytes)
}

#[test]
fn a_full_hit_allocates_per_record_not_per_byte() {
    let (short, short_bytes) = hit_allocs(90);
    let (long, long_bytes) = hit_allocs(900);
    assert!(
        long_bytes > 8 * short_bytes && long_bytes / RECORDS > 40_000,
        "{short_bytes} B vs {long_bytes} B"
    );
    // Exact: the count is a function of the number of records alone.
    assert_eq!(short, long, "allocations grew with the records' size");
    // And of their number only mildly. A record costs what expansion
    // allocates for its run (its label and the two rate profiles its spec
    // clones), what hashing does (nothing: the canonical JSON goes through
    // one buffer and the digest is held inline) and what the loader does
    // (the record's hash, label and line). What is not per record — the
    // vectors, the maps' nodes, the read buffers and the store path — is
    // under 40 here.
    const EXPAND: u64 = 3;
    const HASH: u64 = 0;
    const LOAD: u64 = 3;
    let campaign = campaign();
    let (runs, expand) = allocs_in(|| campaign.expand().unwrap());
    assert_eq!(runs.len() as u64, RECORDS);
    assert!(
        expand <= RECORDS * EXPAND + 16,
        "expansion: {expand} allocations for {RECORDS} runs"
    );
    assert!(
        long <= RECORDS * (EXPAND + HASH + LOAD) + 40,
        "{long} allocations for {RECORDS} records"
    );
}
