//! **Figure 3** — video freezes under throughput constraints (§3.2).
//!
//! * (a) freeze ratio vs. *downstream* capacity, from the receiver's decoded
//!   frame inter-arrival times (the paper's rule:
//!   freeze ⇔ gap > max(3δ, δ+150 ms));
//! * (b) Full Intra Request count vs. *upstream* capacity — the receiver
//!   cannot decode and requests keyframes; "particularly high for
//!   Teams-Chrome at uplink capacity below 0.5 Mbps" because the
//!   emulated width bug makes it send high-resolution video into a starved
//!   link.

use serde::Serialize;
use vcabench_netsim::RateProfile;
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_vca::VcaKind;

use crate::experiments::{grid, sweep, Direction};
use crate::render::axis;
use crate::run;

/// Base seed of panel (a): repetition `r` calls with seed `SEED + r`.
const SEED: u64 = 31;

/// Parameters of the Fig 3 sweeps.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Capacities, Mbps.
    pub caps: Vec<f64>,
    /// Call length.
    pub call: SimDuration,
    /// Repetitions.
    pub reps: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            caps: vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1.5, 2.0],
            call: SimDuration::from_secs(150),
            reps: 5,
        }
    }
}

impl Fig3Config {
    /// Reduced preset.
    pub fn quick() -> Self {
        Fig3Config {
            caps: vec![0.3, 0.5, 1.0, 2.0],
            call: SimDuration::from_secs(80),
            reps: 1,
        }
    }
}

/// One (vca, capacity) freeze point.
#[derive(Debug, Clone, Serialize)]
pub struct FreezePoint {
    /// VCA name.
    pub vca: String,
    /// Shaped capacity, Mbps.
    pub cap_mbps: f64,
    /// Freeze ratio (freeze time / call time), downstream panels.
    pub freeze_ratio: f64,
    /// FIRs received by the constrained sender per call, upstream panel.
    pub fir_count: f64,
}

/// Full Fig 3 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Result {
    /// Panel (a): downstream freeze ratios.
    pub downstream_freeze: Vec<FreezePoint>,
    /// Panel (b): upstream FIR counts.
    pub upstream_fir: Vec<FreezePoint>,
}

fn find(points: &[FreezePoint], vca: &str, cap: f64) -> Option<FreezePoint> {
    points
        .iter()
        .find(|p| p.vca == vca && (p.cap_mbps - cap).abs() < 1e-9)
        .cloned()
}

impl Fig3Result {
    /// Look up a downstream point.
    pub fn freeze(&self, vca: &str, cap: f64) -> Option<FreezePoint> {
        find(&self.downstream_freeze, vca, cap)
    }
    /// Look up an upstream point.
    pub fn fir(&self, vca: &str, cap: f64) -> Option<FreezePoint> {
        find(&self.upstream_fir, vca, cap)
    }
}

/// One panel on `jobs` workers: downstream shaping reads each call's freeze
/// ratio (a), upstream shaping the FIRs its sender received (b). The paper
/// reads WebRTC stats, so the VCAs here are Meet and Teams-Chrome.
fn panel(cfg: &Fig3Config, direction: Direction, jobs: usize) -> Vec<FreezePoint> {
    let kinds: Vec<VcaKind> = VcaKind::ALL
        .into_iter()
        .filter(|k| k.has_webrtc_stats())
        .collect();
    let cells = grid(&kinds, &cfg.caps);
    // The calls of panel (b) are not panel (a)'s: their seeds start 100 later.
    let seed = match direction {
        Direction::Down => SEED,
        Direction::Up => SEED + 100,
    };
    let readings = sweep(
        jobs,
        &cells,
        cfg.reps,
        run::two_party,
        |&(kind, cap), rep| {
            let shaped = RateProfile::constant_mbps(cap);
            direction.call(kind, shaped, cfg.call, seed + rep)
        },
        |_, _, out| match direction {
            Direction::Down => {
                let dur = out.duration.saturating_since(SimTime::ZERO);
                out.c1_freeze_time.as_secs_f64() / dur.as_secs_f64()
            }
            Direction::Up => out.c1_firs_received as f64,
        },
    );
    let points = readings.into_iter().map(|(&(kind, cap), readings)| {
        let mean = vcabench_stats::mean(&readings);
        let (freeze_ratio, fir_count) = match direction {
            Direction::Down => (mean, 0.0),
            Direction::Up => (0.0, mean),
        };
        FreezePoint {
            vca: kind.name().to_string(),
            cap_mbps: cap,
            freeze_ratio,
            fir_count,
        }
    });
    points.collect()
}

/// Run both panels on `jobs` workers.
pub fn run(cfg: &Fig3Config, jobs: usize) -> Fig3Result {
    Fig3Result {
        downstream_freeze: panel(cfg, Direction::Down, jobs),
        upstream_fir: panel(cfg, Direction::Up, jobs),
    }
}

/// Render both panels.
pub fn print(result: &Fig3Result) {
    println!("Fig 3a: freeze ratio vs downstream capacity");
    println!("{:>6} {:>10} {:>14}", "cap", "Meet", "Teams-Chrome");
    let caps = axis(result.downstream_freeze.iter().map(|p| p.cap_mbps));
    for &cap in &caps {
        let m = result
            .freeze("Meet", cap)
            .map(|p| p.freeze_ratio)
            .unwrap_or(0.0);
        let t = result
            .freeze("Teams-Chrome", cap)
            .map(|p| p.freeze_ratio)
            .unwrap_or(0.0);
        println!(
            "{cap:>6.1} {m:>9.1}% {t:>13.1}%",
            m = m * 100.0,
            t = t * 100.0
        );
    }
    println!("Fig 3b: FIR count vs upstream capacity (per call)");
    println!("{:>6} {:>10} {:>14}", "cap", "Meet", "Teams-Chrome");
    for &cap in &caps {
        let m = result.fir("Meet", cap).map(|p| p.fir_count).unwrap_or(0.0);
        let t = result
            .fir("Teams-Chrome", cap)
            .map(|p| p.fir_count)
            .unwrap_or(0.0);
        println!("{cap:>6.1} {m:>10.1} {t:>14.1}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_jobs;

    #[test]
    fn freezes_rise_as_downlink_falls() {
        let r = run(&Fig3Config::quick(), test_jobs());
        for vca in ["Meet", "Teams-Chrome"] {
            let starved = r.freeze(vca, 0.3).unwrap().freeze_ratio;
            let comfy = r.freeze(vca, 2.0).unwrap().freeze_ratio;
            assert!(
                starved > comfy,
                "{vca}: freeze at 0.3 ({starved}) must exceed at 2.0 ({comfy})"
            );
            assert!(starved > 0.01, "{vca}: starved link must freeze: {starved}");
        }
    }

    #[test]
    fn teams_fir_storm_at_starved_uplink() {
        let r = run(&Fig3Config::quick(), test_jobs());
        let teams_starved = r.fir("Teams-Chrome", 0.3).unwrap().fir_count;
        let teams_comfy = r.fir("Teams-Chrome", 2.0).unwrap().fir_count;
        assert!(
            teams_starved > teams_comfy + 2.0,
            "Teams FIR storm: {teams_starved} vs {teams_comfy}"
        );
        // Teams' width bug makes it worse than Meet at 0.3.
        let meet_starved = r.fir("Meet", 0.3).unwrap().fir_count;
        assert!(
            teams_starved > meet_starved,
            "Teams ({teams_starved}) worse than Meet ({meet_starved}) at 0.3"
        );
    }
}
