//! Allocation counts of `run_cached`, with a counting global allocator:
//! serving a populated store allocates per *record*, never per byte —
//! nothing is built from the 45 KB of series a record line holds — and a
//! record costs one allocation for its line, whether it is served or
//! freshly written, beside the label expansion builds for its run.
//!
//! A populate runs its runs on worker threads, so the count is process-wide
//! and switched on only while a measured call runs; one `#[test]` only, so
//! nothing else in the process allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use vcabench_campaign::{
    run_cached, Axes, CampaignSpec, CompetitionRecord, CompetitionSpec, CompetitorSpec,
    MultipartyRecord, MultipartySpec, ScenarioOutcome, ScenarioSpec, ScenarioTemplate, SeedAxis,
    TwoPartyRecord, TwoPartySpec,
};
use vcabench_netsim::RateProfile;
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_vca::VcaKind;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
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

/// Allocation calls the process makes while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

/// Three templates, one per record type, each swept over `seeds` seeds.
/// The two-party base is the §4 disruption shape, three steps.
fn campaign(seeds: u64) -> CampaignSpec {
    let template = |(label, base): (&str, ScenarioSpec)| ScenarioTemplate {
        label: Some(label.to_string()),
        base,
        axes: Some(Axes {
            kinds: None,
            up_mbps: None,
            down_mbps: None,
            capacity_mbps: None,
            competitors: None,
            seeds: Some(SeedAxis::Range {
                base: 1,
                count: seeds,
            }),
        }),
    };
    let two_party = ScenarioSpec::TwoParty(TwoPartySpec {
        kind: VcaKind::Zoom,
        up: RateProfile::disruption(
            1e6,
            0.25e6,
            SimTime::from_secs(60),
            SimDuration::from_secs(30),
        ),
        down: RateProfile::constant_mbps(1000.0),
        duration_secs: 150.0,
        seed: 0,
        knobs: None,
    });
    let competition = ScenarioSpec::Competition(CompetitionSpec::paper(
        VcaKind::Meet,
        CompetitorSpec::IperfUp,
        2.0,
        0,
    ));
    let multiparty = ScenarioSpec::Multiparty(MultipartySpec {
        kind: VcaKind::Teams,
        n: 4,
        pin_c1: None,
        duration_secs: 40.0,
        seed: 0,
    });
    CampaignSpec {
        name: "allocs".to_string(),
        scenarios: [
            ("two_party", two_party),
            ("competition", competition),
            ("multiparty", multiparty),
        ]
        .into_iter()
        .map(template)
        .collect(),
    }
}

/// A runner whose outcomes carry `samples`-long series.
fn runner(samples: usize) -> impl Fn(&ScenarioSpec) -> ScenarioOutcome + Sync {
    move |spec: &ScenarioSpec| {
        let series = |scale: f64| -> Vec<_> {
            (0..samples)
                .map(|i| (i as f64 * 0.5, i as f64 * scale))
                .collect()
        };
        let seed = spec.seed() as f64;
        match spec {
            ScenarioSpec::TwoParty(_) => ScenarioOutcome::TwoParty(TwoPartyRecord {
                up_series: series(1.0 / 3.0),
                down_series: series(1.0 / 7.0),
                target_series: series(seed / 11.0),
                steady_up_mbps: 0.81,
                steady_down_mbps: 0.77,
                ttr_secs: None,
                nominal_mbps: Some(1.0),
                firs_received: 2,
                freeze_secs: 0.4,
                frames_decoded: 4_400,
            }),
            ScenarioSpec::Competition(_) => ScenarioOutcome::Competition(CompetitionRecord {
                inc_up: series(1.0 / 3.0),
                inc_down: series(1.0 / 7.0),
                comp_up: series(seed / 13.0),
                comp_down: series(1.0 / 17.0),
                up_share: 0.5,
                down_share: 0.25,
                netflix_conns: 0,
            }),
            ScenarioSpec::Multiparty(_) => ScenarioOutcome::Multiparty(MultipartyRecord {
                c1_up_mbps: seed / 3.0,
                c1_down_mbps: 1.0,
            }),
        }
    }
}

/// What one campaign size costs.
struct Counts {
    records: u64,
    /// Expanding the campaign.
    expand: u64,
    /// Populating an empty store, less what the runner allocated.
    populate: u64,
    /// Serving all of it from the store.
    hit: u64,
    /// The store file's size.
    bytes: u64,
}

fn counts(seeds: u64, samples: usize) -> Counts {
    // Same-length paths for every store, so path strings cost the same.
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "vcabench-store-allocs-{}-{seeds:03}-{samples:06}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = campaign(seeds);
    let runner = runner(samples);
    let (runs, expand) = allocs_in(|| campaign.expand().unwrap());
    let records = runs.len() as u64;
    let ran: u64 = runs
        .iter()
        .map(|run| allocs_in(|| runner(&run.spec)).1)
        .sum();

    let (populate, populated) =
        allocs_in(|| run_cached(&campaign, 1, &dir, false, &runner).unwrap());
    assert_eq!(populate.computed as u64, records);
    let bytes = std::fs::metadata(&populate.store_path).unwrap().len();

    // Every line fits the 64 KiB line buffers the loader and a worker
    // start with; a longer one would grow them, once per size doubling.
    let longest = populate.results.iter().map(|r| r.line.len()).max();
    assert!(longest < Some(64 * 1024), "{longest:?} B");
    let (hit, served) = allocs_in(|| run_cached(&campaign, 1, &dir, false, &runner).unwrap());
    assert_eq!((hit.computed, hit.cached as u64), (0, records));
    assert_eq!(hit.results, populate.results);
    let _ = std::fs::remove_dir_all(&dir);
    Counts {
        records,
        expand,
        populate: populated - ran,
        hit: served,
        bytes,
    }
}

#[test]
fn a_full_hit_allocates_per_record_not_per_byte() {
    // Both sizes grow every vector through the same capacities (17 to 32
    // records each), so their difference is exactly the per-record cost.
    let (lo, hi) = (counts(6, 60), counts(10, 60));
    let long = counts(10, 600);
    assert!(
        long.bytes > 8 * hi.bytes && long.bytes / long.records > 20_000,
        "{} B vs {} B",
        hi.bytes,
        long.bytes
    );
    // Exact: the counts are a function of the number of records alone.
    assert_eq!(
        (hi.expand, hi.populate, hi.hit),
        (long.expand, long.populate, long.hit),
        "allocations grew with the records' size"
    );

    // A record costs what expansion allocates for its run (its label: the
    // spec's rate profiles are inline), what hashing does (nothing: the
    // canonical JSON goes through one buffer and the digest is held
    // inline), what the loader does (the record's line: its hash and label
    // are found in it, and the served record takes the run's digest and
    // label), and, when fresh, the one copy of its line out of the
    // worker's buffer.
    const EXPAND: u64 = 1;
    const HASH: u64 = 0;
    const LOAD: u64 = 1;
    const LINE: u64 = 1;
    let more = hi.records - lo.records;
    assert_eq!((lo.records, hi.records), (18, 30));
    assert_eq!(hi.expand - lo.expand, more * EXPAND, "expansion");
    assert_eq!(hi.hit - lo.hit, more * (EXPAND + HASH + LOAD), "a full hit");
    assert_eq!(
        hi.populate - lo.populate,
        more * (EXPAND + HASH + LINE),
        "a populate"
    );
    // What is not per record — the vectors, the read buffers, the worker
    // and the store path — stays small.
    for c in [&lo, &hi] {
        let fixed = c.hit - c.records * (EXPAND + HASH + LOAD);
        assert!(
            fixed <= 40,
            "a full hit of {} records: {fixed} fixed",
            c.records
        );
    }
}
