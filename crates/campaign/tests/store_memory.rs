//! Memory high-water mark of `run_cached`, with a global allocator that
//! tracks live bytes: a populating run holds the record lines it has made
//! and the outcome of the run in flight, never every outcome; a full hit
//! holds the lines it serves and one read buffer, never the whole file
//! beside them.
//!
//! One `#[test]` only, so nothing else in the process allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use vcabench_campaign::{
    run_cached, Axes, CampaignSpec, ScenarioOutcome, ScenarioSpec, ScenarioTemplate, SeedAxis,
    TwoPartyRecord, TwoPartySpec,
};
use vcabench_netsim::RateProfile;
use vcabench_vca::VcaKind;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

struct Tracking;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// integers and never influence the returned pointers.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Counted as a move: both blocks are live while it copies.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// What `f` returns, and how far the live bytes rose above where they
/// stood when it was called.
fn high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

const RUNS: u64 = 24;
/// Samples per series; three series of `(f64, f64)` make an outcome.
const SAMPLES: usize = 3_200;
const OUTCOME_BYTES: usize = 3 * SAMPLES * std::mem::size_of::<(f64, f64)>();
/// The store loader's read buffer (`LINE_CAPACITY` in `store.rs`).
const LINE_CAPACITY: usize = 64 * 1024;
/// Everything else a campaign holds: the expansion, hashes, labels, the
/// map, and the one record line being made or read, which outgrows its
/// buffer by doubling.
const SLACK: usize = 512 * 1024;

fn campaign() -> CampaignSpec {
    CampaignSpec {
        name: "memory".to_string(),
        scenarios: vec![ScenarioTemplate {
            label: None,
            base: ScenarioSpec::TwoParty(TwoPartySpec {
                kind: VcaKind::Meet,
                up: RateProfile::constant_mbps(1.0),
                down: RateProfile::constant_mbps(1000.0),
                duration_secs: 1_600.0,
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
                    count: RUNS,
                }),
            }),
        }],
    }
}

fn runner(spec: &ScenarioSpec) -> ScenarioOutcome {
    let series = |scale: f64| -> Vec<(f64, f64)> {
        (0..SAMPLES)
            .map(|i| (i as f64 * 0.5, i as f64 * scale))
            .collect()
    };
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
        frames_decoded: 48_000,
    })
}

#[test]
fn a_campaign_never_holds_its_results_twice() {
    let dir = std::env::temp_dir().join(format!("vcabench-store-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = campaign();

    let (populate, held) = high_water(|| run_cached(&campaign, 1, &dir, false, &runner).unwrap());
    assert_eq!(populate.computed as u64, RUNS);
    let lines: usize = populate.results.iter().map(|r| r.line.len()).sum();
    let bound = lines + 3 * OUTCOME_BYTES + SLACK;
    eprintln!("populate: {held} B held, {lines} B of lines, bound {bound}");
    assert!(
        held < bound,
        "populating held {held} B: {lines} B of lines, {RUNS} outcomes of {OUTCOME_BYTES} B"
    );

    let file = std::fs::metadata(&populate.store_path).unwrap().len() as usize;
    drop(populate);
    let (hit, held) = high_water(|| run_cached(&campaign, 1, &dir, false, &runner).unwrap());
    assert_eq!((hit.computed, hit.cached as u64), (0, RUNS));
    let bound = file + 2 * LINE_CAPACITY + SLACK;
    eprintln!("hit: {held} B held, {file} B file, bound {bound}");
    assert!(
        held < bound,
        "a full hit held {held} B for a {file} B store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
