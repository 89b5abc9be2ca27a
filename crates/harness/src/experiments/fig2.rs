//! **Figure 2** — video encoding parameters under throughput constraints
//! (§3.2), for the two clients whose WebRTC stats the paper can read:
//! Meet and Teams-Chrome.
//!
//! Panels (a–c): FPS, quantization parameter, frame width vs. *downstream*
//! capacity (receiver-side decoded stream). Panels (d–f): the same vs.
//! *upstream* capacity (sender-side encode).
//!
//! Shapes to reproduce: Teams-Chrome degrades all three together (and its
//! frame width *increases* again below 0.35 Mbps — the paper's suspected
//! bug); Meet holds QP/width and drops FPS in the 0.7–1.0 Mbps downstream
//! band, then switches to the low simulcast copy (width falls to 320, FPS
//! jumps back up).

use serde::Serialize;
use vcabench_netsim::RateProfile;
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_vca::VcaKind;

use crate::experiments::{grid, sweep, Direction};
use crate::render::axis;
use crate::run;

/// Parameters of the Fig 2 sweeps.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Capacities, Mbps.
    pub caps: Vec<f64>,
    /// Call length.
    pub call: SimDuration,
    /// Repetitions.
    pub reps: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            caps: vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.5, 2.0],
            call: SimDuration::from_secs(150),
            reps: 5,
            seed: 21,
        }
    }
}

impl Fig2Config {
    /// Reduced preset.
    pub fn quick() -> Self {
        Fig2Config {
            caps: vec![0.3, 0.5, 0.8, 1.0, 2.0],
            call: SimDuration::from_secs(120),
            reps: 1,
            seed: 21,
        }
    }
}

/// Mean encoding parameters at one point.
#[derive(Debug, Clone, Serialize)]
pub struct EncodingPoint {
    /// VCA name.
    pub vca: String,
    /// Shaped capacity, Mbps.
    pub cap_mbps: f64,
    /// Frames per second.
    pub fps: f64,
    /// Quantization parameter.
    pub qp: f64,
    /// Frame width, px.
    pub width: f64,
}

/// One direction's panel set.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Panels {
    /// Shaped direction.
    pub direction: Direction,
    /// All points.
    pub points: Vec<EncodingPoint>,
}

impl Fig2Panels {
    /// Look up a point.
    pub fn get(&self, vca: &str, cap: f64) -> Option<&EncodingPoint> {
        self.points
            .iter()
            .find(|p| p.vca == vca && (p.cap_mbps - cap).abs() < 1e-9)
    }
}

/// Full Fig 2 result: downstream panels (a–c) and upstream panels (d–f).
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Result {
    /// Panels a–c.
    pub down: Fig2Panels,
    /// Panels d–f.
    pub up: Fig2Panels,
}

/// Run one direction on `jobs` workers.
pub fn run_direction(cfg: &Fig2Config, direction: Direction, jobs: usize) -> Fig2Panels {
    let kinds: Vec<VcaKind> = VcaKind::ALL
        .into_iter()
        .filter(|k| k.has_webrtc_stats())
        .collect();
    let cells = grid(&kinds, &cfg.caps);
    let settle = SimTime::ZERO + cfg.call / 4;
    // Per call: `(fps, qp, width)` of every settled second with video in
    // it. Downstream constraint: read what C1 *receives* (the stream the
    // SFU/sender adapted for it). Upstream constraint: read what C1
    // *encodes*.
    let encodings = sweep(
        jobs,
        &cells,
        cfg.reps,
        run::two_party,
        |&(kind, cap), rep| {
            let shaped = RateProfile::constant_mbps(cap);
            direction.call(kind, shaped, cfg.call, cfg.seed + rep)
        },
        |_, _, out| -> Vec<(f64, f64, f64)> {
            let settled = out.c1_stats.iter().filter(|s| s.t >= settle);
            settled
                .map(|s| match direction {
                    Direction::Down => (s.recv_fps, s.recv_qp, s.recv_width),
                    Direction::Up => (s.send_fps, s.send_qp, s.send_width),
                })
                .filter(|&(fps, _, width)| fps > 0.0 && width > 0)
                .map(|(fps, qp, width)| (fps, qp, width as f64))
                .collect()
        },
    );
    let points = encodings.into_iter().map(|(&(kind, cap), calls)| {
        let seconds: Vec<(f64, f64, f64)> = calls.into_iter().flatten().collect();
        let mean = |of: fn(&(f64, f64, f64)) -> f64| {
            vcabench_stats::mean(&seconds.iter().map(of).collect::<Vec<_>>())
        };
        EncodingPoint {
            vca: kind.name().to_string(),
            cap_mbps: cap,
            fps: mean(|s| s.0),
            qp: mean(|s| s.1),
            width: mean(|s| s.2),
        }
    });
    Fig2Panels {
        direction,
        points: points.collect(),
    }
}

/// Run both directions on `jobs` workers.
pub fn run(cfg: &Fig2Config, jobs: usize) -> Fig2Result {
    Fig2Result {
        down: run_direction(cfg, Direction::Down, jobs),
        up: run_direction(cfg, Direction::Up, jobs),
    }
}

fn print_panels(title: &str, p: &Fig2Panels) {
    println!("{title}");
    println!(
        "{:>6} {:>26} {:>26}",
        "cap", "Meet (fps/qp/width)", "Teams-Chrome (fps/qp/width)"
    );
    for cap in axis(p.points.iter().map(|x| x.cap_mbps)) {
        print!("{cap:>6.1}");
        for vca in ["Meet", "Teams-Chrome"] {
            if let Some(pt) = p.get(vca, cap) {
                print!("    {:>5.1} / {:>4.1} / {:>5.0}", pt.fps, pt.qp, pt.width);
            }
        }
        println!();
    }
}

/// Render both directions.
pub fn print(result: &Fig2Result) {
    print_panels(
        "Fig 2a-c: encoding parameters vs downstream capacity",
        &result.down,
    );
    print_panels(
        "Fig 2d-f: encoding parameters vs upstream capacity",
        &result.up,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_jobs;

    #[test]
    fn meet_downstream_simulcast_switch() {
        let cfg = Fig2Config::quick();
        let p = run_direction(&cfg, Direction::Down, test_jobs());
        // At 2 Mbps Meet's receiver sees the 640-wide high copy; at 0.5 the
        // SFU forwards the 320-wide low copy.
        let high = p.get("Meet", 2.0).unwrap();
        let low = p.get("Meet", 0.5).unwrap();
        assert!(high.width > 500.0, "high copy width {}", high.width);
        // The probing SFU occasionally tries the high copy, so the *mean*
        // received width sits a bit above the 320 px low copy.
        assert!(low.width < 460.0, "low copy width {}", low.width);
        // The low copy runs at full frame rate (the paper's surprising
        // "FPS increases as capacity falls further" observation).
        assert!(low.fps > 20.0, "low copy fps {}", low.fps);
    }

    #[test]
    fn teams_upstream_bug_width_rises_at_starvation() {
        let cfg = Fig2Config::quick();
        let p = run_direction(&cfg, Direction::Up, test_jobs());
        let at_05 = p.get("Teams-Chrome", 0.5).unwrap();
        let at_03 = p.get("Teams-Chrome", 0.3).unwrap();
        assert!(
            at_03.width > at_05.width,
            "the emulated Teams width bug: {} at 0.3 vs {} at 0.5",
            at_03.width,
            at_05.width
        );
        // FPS stays roughly constant for Teams.
        assert!((at_05.fps - at_03.fps).abs() < 8.0);
    }

    #[test]
    fn qp_rises_as_capacity_falls() {
        let cfg = Fig2Config::quick();
        let p = run_direction(&cfg, Direction::Up, test_jobs());
        // Meet adapts QP first (its width ladder is the simulcast pair), so
        // QP rises monotonically into the constraint.
        let lo = p.get("Meet", 0.5).unwrap().qp;
        let hi = p.get("Meet", 2.0).unwrap().qp;
        assert!(
            lo > hi,
            "Meet: qp at 0.5 ({lo}) must exceed qp at 2.0 ({hi})"
        );
        // Teams adapts QP *and* width together: within a resolution rung QP
        // rises, and across rungs the width falls — check the width arm.
        let w_lo = p.get("Teams-Chrome", 0.5).unwrap().width;
        let w_hi = p.get("Teams-Chrome", 2.0).unwrap().width;
        assert!(
            w_lo < w_hi,
            "Teams-Chrome: width at 0.5 ({w_lo}) below width at 2.0 ({w_hi})"
        );
    }
}
