//! Parallel campaign executor.
//!
//! Runs are embarrassingly parallel — the simulator keeps all state inside
//! each run and every random draw comes from the run's own seeded generator —
//! so a scoped worker pool over a shared atomic cursor is enough. Results are
//! collected into expansion-order slots, making the output independent of the
//! number of workers and of scheduling: `--jobs N` is byte-identical to
//! `--jobs 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Evaluate `f(0..n)` on up to `jobs` scoped threads, returning results in
/// index order. Workers pull indices from a shared atomic cursor, so load
/// balances automatically when run times differ.
pub fn run_indexed<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    run_indexed_with(n, jobs, || (), |(), i| f(i))
}

/// [`run_indexed`] with per-worker state: each worker makes one `S` with
/// `init` when it starts and hands it to every `f` it evaluates.
pub fn run_indexed_with<S, T: Send>(
    n: usize,
    jobs: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.clamp(1, n);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(&mut state, i);
                    *slots[i].lock().expect("result slot poisoned") = Some(value);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{Axes, CampaignSpec, ExpandedRun, ScenarioTemplate, SeedAxis};
    use crate::outcome::{MultipartyRecord, ScenarioOutcome};
    use crate::spec::{MultipartySpec, ScenarioSpec};
    use vcabench_vca::VcaKind;

    fn toy_campaign(n_seeds: u64) -> CampaignSpec {
        CampaignSpec {
            name: "toy".to_string(),
            scenarios: vec![ScenarioTemplate {
                label: None,
                base: ScenarioSpec::Multiparty(MultipartySpec {
                    kind: VcaKind::Zoom,
                    n: 3,
                    pin_c1: None,
                    duration_secs: 10.0,
                    seed: 0,
                }),
                axes: Some(Axes {
                    kinds: Some(vec![VcaKind::Meet, VcaKind::Zoom]),
                    up_mbps: None,
                    down_mbps: None,
                    capacity_mbps: None,
                    competitors: None,
                    seeds: Some(SeedAxis::Range {
                        base: 0,
                        count: n_seeds,
                    }),
                }),
            }],
        }
    }

    /// A deterministic toy runner: outcome is a pure function of the spec.
    fn toy_runner(run: &ExpandedRun) -> ScenarioOutcome {
        let seed = run.spec.seed() as f64;
        ScenarioOutcome::Multiparty(MultipartyRecord {
            c1_up_mbps: seed * 0.25,
            c1_down_mbps: seed * 0.5,
        })
    }

    #[test]
    fn parallel_matches_serial() {
        let runs = toy_campaign(8).expand().unwrap();
        let serial = run_indexed(runs.len(), 1, |i| toy_runner(&runs[i]));
        let parallel = run_indexed(runs.len(), 4, |i| toy_runner(&runs[i]));
        assert_eq!(serial.len(), 16);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_indexed_preserves_order_under_contention() {
        let results = run_indexed(100, 7, |i| i * i);
        assert_eq!(results, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_runs_and_oversized_jobs() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(2, 64, |i| i), vec![0, 1]);
    }
}
