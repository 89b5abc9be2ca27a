//! **Figure 1** — utilization under static shaping (§3.1).
//!
//! * (a) median sent bitrate vs. uplink capacity;
//! * (b) median received bitrate vs. downlink capacity (Meet's simulcast
//!   floor: utilization only 39–70 % below 0.8 Mbps, 0.19 Mbps at 0.5);
//! * (c) native vs. Chrome clients (Teams-Chrome well below Teams-native;
//!   Zoom's two clients indistinguishable).
//!
//! Paper shaping levels: {0.3, 0.4, …, 1.5, 2, 5, 10} Mbps, five 2.5-minute
//! calls each.

use serde::Serialize;
use vcabench_netsim::RateProfile;
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_stats::ci90;
use vcabench_vca::VcaKind;

use crate::experiments::{grid, sweep, Direction};
use crate::render::axis;
use crate::run::{self, TwoPartyOutcome};

/// The paper's shaping ladder.
pub const PAPER_CAPS: &[f64] = &[
    0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 2.0, 5.0, 10.0,
];

/// Parameters of the Fig 1 sweeps.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// Capacities to sweep, Mbps.
    pub caps: Vec<f64>,
    /// Call length.
    pub call: SimDuration,
    /// Repetitions per point.
    pub reps: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            caps: PAPER_CAPS.to_vec(),
            call: SimDuration::from_secs(150),
            reps: 5,
            seed: 11,
        }
    }
}

impl Fig1Config {
    /// Reduced preset: a coarse ladder, one rep, shorter calls.
    pub fn quick() -> Self {
        Fig1Config {
            caps: vec![0.3, 0.5, 0.8, 1.0, 2.0, 10.0],
            call: SimDuration::from_secs(120),
            reps: 1,
            seed: 11,
        }
    }
}

/// One (vca, capacity) point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// VCA name.
    pub vca: String,
    /// Shaped capacity, Mbps.
    pub cap_mbps: f64,
    /// Median bitrate on the shaped link, Mbps (mean over reps).
    pub median_mbps: f64,
    /// 90% CI half-width over reps.
    pub ci: f64,
}

/// A full sweep (one panel of Fig 1).
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    /// Shaped direction.
    pub direction: Direction,
    /// All points, grouped by VCA then capacity.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Look up a point.
    pub fn get(&self, vca: &str, cap: f64) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| p.vca == vca && (p.cap_mbps - cap).abs() < 1e-9)
    }
}

/// Run one sweep for the given VCA set and direction on `jobs` workers.
pub fn run_sweep(
    cfg: &Fig1Config,
    kinds: &[VcaKind],
    direction: Direction,
    jobs: usize,
) -> SweepResult {
    let cells = grid(kinds, &cfg.caps);
    let settle = SimTime::ZERO + cfg.call / 4;
    let medians = sweep(
        jobs,
        &cells,
        cfg.reps,
        run::two_party,
        |&(kind, cap), rep| {
            let shaped = RateProfile::constant_mbps(cap);
            direction.call(kind, shaped, cfg.call, cfg.seed + rep)
        },
        |_, _, out| TwoPartyOutcome::median_between(direction.series(&out), settle, out.duration),
    );
    let points = medians.into_iter().map(|(&(kind, cap), medians)| {
        let s = ci90(&medians);
        SweepPoint {
            vca: kind.name().to_string(),
            cap_mbps: cap,
            median_mbps: s.mean,
            ci: s.hi - s.mean,
        }
    });
    SweepResult {
        direction,
        points: points.collect(),
    }
}

/// Figure 1 in full: (a) uplink, (b) downlink, (c) browser-vs-native uplink.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Result {
    /// Fig 1a.
    pub uplink: SweepResult,
    /// Fig 1b.
    pub downlink: SweepResult,
    /// Fig 1c (Zoom, Zoom-Chrome, Teams, Teams-Chrome).
    pub browser_native: SweepResult,
}

/// Run all three panels on `jobs` workers.
pub fn run(cfg: &Fig1Config, jobs: usize) -> Fig1Result {
    Fig1Result {
        uplink: run_sweep(cfg, &VcaKind::NATIVE, Direction::Up, jobs),
        downlink: run_sweep(cfg, &VcaKind::NATIVE, Direction::Down, jobs),
        browser_native: run_sweep(
            cfg,
            &[
                VcaKind::Zoom,
                VcaKind::ZoomChrome,
                VcaKind::Teams,
                VcaKind::TeamsChrome,
            ],
            Direction::Up,
            jobs,
        ),
    }
}

fn print_sweep(title: &str, sweep: &SweepResult) {
    println!("{title}");
    let mut vcas: Vec<&str> = sweep.points.iter().map(|p| p.vca.as_str()).collect();
    vcas.dedup();
    print!("{:>6}", "cap");
    for v in &vcas {
        print!(" {v:>14}");
    }
    println!();
    for cap in axis(sweep.points.iter().map(|p| p.cap_mbps)) {
        print!("{cap:>6.1}");
        for v in &vcas {
            if let Some(p) = sweep.get(v, cap) {
                print!(" {:>8.2}±{:<5.2}", p.median_mbps, p.ci);
            }
        }
        println!();
    }
}

/// Render all panels.
pub fn print(result: &Fig1Result) {
    print_sweep(
        "Fig 1a: median sent bitrate vs uplink capacity (Mbps)",
        &result.uplink,
    );
    print_sweep(
        "Fig 1b: median received bitrate vs downlink capacity (Mbps)",
        &result.downlink,
    );
    print_sweep(
        "Fig 1c: browser vs native clients, uplink (Mbps)",
        &result.browser_native,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_jobs;

    #[test]
    fn uplink_shapes() {
        let cfg = Fig1Config::quick();
        let sweep = run_sweep(&cfg, &VcaKind::NATIVE, Direction::Up, test_jobs());
        // Efficient utilization at 0.5 Mbps for Teams and Zoom (>85%), Meet
        // at least 60%.
        assert!(sweep.get("Teams", 0.5).unwrap().median_mbps > 0.42);
        assert!(sweep.get("Zoom", 0.5).unwrap().median_mbps > 0.42);
        // Meet's GCC sits at ~60-75% utilization in the 0.5 Mbps band in
        // this model (the paper measured >90%; see EXPERIMENTS.md).
        assert!(sweep.get("Meet", 0.5).unwrap().median_mbps > 0.24);
        // Nominal ordering at 10 Mbps: Teams > Meet > Zoom.
        let t = sweep.get("Teams", 10.0).unwrap().median_mbps;
        let m = sweep.get("Meet", 10.0).unwrap().median_mbps;
        let z = sweep.get("Zoom", 10.0).unwrap().median_mbps;
        assert!(t > m && m > z, "t={t} m={m} z={z}");
    }

    #[test]
    fn downlink_meet_floor() {
        let cfg = Fig1Config::quick();
        let sweep = run_sweep(&cfg, &[VcaKind::Meet], Direction::Down, test_jobs());
        // Meet's downlink floor: ~0.2-0.3 Mbps at 0.5 shaping (the low
        // simulcast copy), i.e. well under 70% utilization.
        let at_half = sweep.get("Meet", 0.5).unwrap().median_mbps;
        assert!(at_half < 0.40, "Meet downlink floor, got {at_half}");
        // Unconstrained downlink near its nominal 0.85.
        let at_ten = sweep.get("Meet", 10.0).unwrap().median_mbps;
        assert!(at_ten > 0.6, "Meet downlink nominal, got {at_ten}");
    }

    #[test]
    fn chrome_teams_uses_less() {
        let cfg = Fig1Config::quick();
        let sweep = run_sweep(
            &cfg,
            &[VcaKind::Teams, VcaKind::TeamsChrome],
            Direction::Up,
            test_jobs(),
        );
        let native = sweep.get("Teams", 10.0).unwrap().median_mbps;
        let chrome = sweep.get("Teams-Chrome", 10.0).unwrap().median_mbps;
        assert!(
            chrome < native * 0.85,
            "Teams-Chrome {chrome} should sit below native {native}"
        );
    }
}
