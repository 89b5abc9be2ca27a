//! **Figure 14** — Zoom vs. Netflix on a 0.5 Mbps downlink (§5.3).
//!
//! Paper observations: Zoom holds ~0.4 Mbps while Netflix struggles to
//! exceed 0.1; Netflix opens 28 TCP connections over the 120 s experiment
//! (each carrying >100 kbit), up to 11 in parallel — and it still doesn't
//! help.

use serde::Serialize;
use vcabench_campaign::{CompetitionSpec, CompetitorSpec};
use vcabench_vca::VcaKind;

use crate::experiments::single;
use crate::run;

/// Downlink capacity, Mbps.
const CAPACITY_MBPS: f64 = 0.5;
/// Seed of the one run.
const SEED: u64 = 141;

/// Fig 14 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14Result {
    /// Zoom downlink Mbps per 100 ms bin (panel a).
    pub zoom_series: Vec<f64>,
    /// Netflix downlink Mbps per bin (panel a).
    pub netflix_series: Vec<f64>,
    /// Parallel-connection count per second (panel b).
    pub parallel_conns: Vec<(f64, usize)>,
    /// Total connections opened.
    pub connections_opened: u64,
    /// Peak parallel connections.
    pub max_parallel: usize,
    /// Zoom average during contention, Mbps.
    pub zoom_mbps: f64,
    /// Netflix average during contention, Mbps.
    pub netflix_mbps: f64,
}

/// Reduce per-second client samples to panel b's series and headline peak.
pub fn summarize_parallel(samples: &[vcabench_apps::NetflixSample]) -> (Vec<(f64, usize)>, usize) {
    let series: Vec<(f64, usize)> = samples
        .iter()
        .map(|s| (s.t.as_secs_f64(), s.parallel))
        .collect();
    let max_parallel = samples.iter().map(|s| s.parallel).max().unwrap_or(0);
    (series, max_parallel)
}

/// Run the experiment: a single 3.5-minute simulation, the same with and
/// without `--quick`.
pub fn run() -> Fig14Result {
    let spec = CompetitionSpec::paper(VcaKind::Zoom, CompetitorSpec::Netflix, CAPACITY_MBPS, SEED);
    single(run::competition, spec, |out| {
        let (parallel_conns, max_parallel) =
            summarize_parallel(out.netflix.as_deref().unwrap_or_default());
        Fig14Result {
            zoom_mbps: out.contended_rate(&out.inc_down),
            netflix_mbps: out.contended_rate(&out.comp_down),
            zoom_series: out.inc_down,
            netflix_series: out.comp_down,
            parallel_conns,
            connections_opened: out.netflix_conns,
            max_parallel,
        }
    })
}

/// Render.
pub fn print(result: &Fig14Result) {
    println!("Fig 14: Netflix vs incumbent Zoom on a 0.5 Mbps downlink");
    println!(
        "  Zoom avg:    {:.2} Mbps   (paper: ~0.4)",
        result.zoom_mbps
    );
    println!(
        "  Netflix avg: {:.2} Mbps   (paper: ~0.1)",
        result.netflix_mbps
    );
    println!(
        "  Netflix connections: {} total, max {} parallel (paper: 28 total, 11 parallel)",
        result.connections_opened, result.max_parallel
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_apps::NetflixSample;
    use vcabench_simcore::SimTime;

    #[test]
    fn parallel_summary_tracks_peak_and_timeline() {
        let mk = |t: u64, parallel: usize| NetflixSample {
            t: SimTime::from_secs(t),
            parallel,
            buffer_s: 0.0,
        };
        let samples = vec![mk(1, 1), mk(2, 4), mk(3, 11), mk(4, 2)];
        let (series, max_parallel) = summarize_parallel(&samples);
        assert_eq!(max_parallel, 11);
        assert_eq!(series.len(), 4);
        assert_eq!(series[2], (3.0, 11));
        // Empty input must not panic and reports no parallelism.
        let (empty, none) = summarize_parallel(&[]);
        assert!(empty.is_empty());
        assert_eq!(none, 0);
    }

    #[test]
    fn zoom_starves_netflix() {
        let r = run();
        assert!(
            r.zoom_mbps > 2.0 * r.netflix_mbps,
            "Zoom {:.2} must dominate Netflix {:.2}",
            r.zoom_mbps,
            r.netflix_mbps
        );
        assert!(
            r.zoom_mbps > 0.25,
            "Zoom holds most of the link: {}",
            r.zoom_mbps
        );
        // The multi-connection fan-out happened and did not help.
        assert!(
            r.connections_opened >= 10,
            "many connections: {}",
            r.connections_opened
        );
        assert!(r.max_parallel >= 3, "parallel fan-out: {}", r.max_parallel);
    }
}
