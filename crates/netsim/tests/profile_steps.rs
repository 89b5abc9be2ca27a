//! `RateProfile` across its inline/spilled boundary: a profile keeps up to
//! three steps inline and spills to the heap beyond, and neither side may
//! show. Profiles of 1–8 steps, built every way the crate offers, are
//! compared with a plain `Vec` of steps on everything they expose: the
//! steps, the rate and next change at every probe time, equality, `Debug`
//! and the canonical JSON bytes (which content hashes are taken over). The
//! paper's shapes — a constant cap, §4's disruption — and their clones
//! allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vcabench_netsim::RateProfile;
use vcabench_simcore::{SimDuration, SimTime};

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

/// The profile as it was: a derived struct over a `Vec` of steps, so its
/// `Debug` is the derived one the crate's must still print.
mod reference {
    use vcabench_simcore::SimTime;

    #[derive(Debug, Clone, PartialEq)]
    pub struct RateProfile {
        pub steps: Vec<(SimTime, f64)>,
    }

    impl RateProfile {
        /// `RateProfile::step`: a step at the last step's time replaces it.
        pub fn step(mut self, at: SimTime, bps: f64) -> Self {
            match self.steps.last_mut() {
                Some(last) if last.0 == at => last.1 = bps,
                _ => self.steps.push((at, bps)),
            }
            self
        }

        pub fn rate_at(&self, t: SimTime) -> f64 {
            let at_or_before = self.steps.iter().rev().find(|&&(st, _)| st <= t);
            at_or_before.unwrap_or(&self.steps[0]).1
        }

        pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
            self.steps.iter().map(|&(st, _)| st).find(|&st| st > t)
        }

        pub fn canonical_json(&self) -> String {
            format!(
                "{{\"steps\":{}}}",
                serde_json::to_string(&self.steps).unwrap()
            )
        }
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The `i`-th of a schedule's distinct rates, bps.
fn rate(i: usize) -> f64 {
    0.25e6 * (i + 1) as f64
}

/// Profiles of `n` steps, each built a different way, with the reference
/// each must equal.
fn built(n: usize) -> Vec<(&'static str, RateProfile, reference::RateProfile)> {
    let schedule: Vec<(SimTime, f64)> = (0..n).map(|i| (secs(10 * i as u64), rate(i))).collect();
    let want = reference::RateProfile {
        steps: schedule.clone(),
    };
    let mut out = Vec::new();

    let stepped = schedule[1..]
        .iter()
        .fold(RateProfile::constant(schedule[0].1), |p, &(at, bps)| {
            p.step(at, bps)
        });
    out.push(("constant + step", stepped, want.clone()));

    out.push((
        "from_steps",
        RateProfile::from_steps(schedule.clone()).unwrap(),
        want.clone(),
    ));

    // Every step written twice, the first value replaced in place.
    let rewritten = RateProfile::constant(1.0).step(SimTime::ZERO, schedule[0].1);
    let rewritten = schedule[1..]
        .iter()
        .fold(rewritten, |p, &(at, bps)| p.step(at, 2.0).step(at, bps));
    out.push(("step twice at one time", rewritten, want.clone()));

    // §4's disruption, then further steps after it.
    if n >= 3 {
        let disruption =
            RateProfile::disruption(rate(0), rate(1), secs(10), SimDuration::from_secs(10));
        let mut want = reference::RateProfile {
            steps: vec![(secs(0), rate(0)), (secs(10), rate(1)), (secs(20), rate(0))],
        };
        let mut got = disruption;
        for i in 3..n {
            got = got.step(secs(10 * i as u64), rate(i));
            want = want.step(secs(10 * i as u64), rate(i));
        }
        out.push(("disruption + step", got, want));
    }
    out
}

#[test]
fn every_size_reads_like_a_vec_of_steps() {
    // Every step time, and every half second between them.
    let probes: Vec<SimTime> = (0..=180).map(|h| SimTime::from_millis(500 * h)).collect();
    let mut all = Vec::new();
    for n in 1..=8 {
        for (how, got, want) in built(n) {
            let case = format!("{n} steps, {how}");
            assert_eq!(got.steps(), want.steps.as_slice(), "{case}");
            for &t in &probes {
                assert_eq!(got.rate_at(t), want.rate_at(t), "{case} at {t:?}");
                assert_eq!(
                    got.next_change_after(t),
                    want.next_change_after(t),
                    "{case} after {t:?}"
                );
            }
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}");
            assert_eq!(format!("{got:#?}"), format!("{want:#?}"), "{case}");
            let json = serde_json::to_string(&got).unwrap();
            assert_eq!(json, want.canonical_json(), "{case}");
            assert_eq!(serde_json::from_str::<RateProfile>(&json).unwrap(), got);
            assert_eq!(got.clone(), got, "{case}");
            all.push((got, want));
        }
    }
    // Equal exactly when the step lists are, inline or spilled.
    for (a, ra) in &all {
        for (b, rb) in &all {
            assert_eq!(a == b, ra == rb, "{ra:?} vs {rb:?}");
        }
    }
}

#[test]
fn the_paper_shapes_and_their_clones_allocate_nothing() {
    let (constant, allocs) = allocs_in(|| RateProfile::constant_mbps(1.0));
    assert_eq!(allocs, 0, "constant");
    let (disruption, allocs) =
        allocs_in(|| RateProfile::disruption(1e9, 0.25e6, secs(60), SimDuration::from_secs(30)));
    assert_eq!(allocs, 0, "disruption");
    for p in [&constant, &disruption] {
        let (copy, allocs) = allocs_in(|| p.clone());
        assert_eq!((allocs, &copy), (0, p), "clone");
    }
    // A fourth step spills the schedule to the heap, once; a clone of a
    // spilled profile copies it, once.
    let (spilled, allocs) = allocs_in(|| disruption.clone().step(secs(120), 2e6));
    assert_eq!((allocs, spilled.steps().len()), (1, 4));
    assert_eq!(allocs_in(|| spilled.clone()).1, 1);
}
