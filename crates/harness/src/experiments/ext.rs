//! **Extension experiments** — the paper's §8 future-work directions,
//! implemented on the same substrate:
//!
//! * [`impairments`]: "Other network factors such as latency, packet loss,
//!   and jitter could affect VCA performance and utilization. Future work
//!   could explore the effects of these parameters." — utilization sweeps
//!   over added path latency and random loss.
//! * [`ablation`]: §3.2 suspects the Teams frame-width reversal at 0.3 Mbps
//!   is "a poor design decision or implementation bug" that causes its FIR
//!   storm. The model can run the counterfactual the paper could not:
//!   the same client with the bug disabled.

use serde::Serialize;
use vcabench_campaign::{run_indexed, ClientKnobs, TwoPartySpec};
use vcabench_netsim::RateProfile;
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_telemetry::Telemetry;
use vcabench_vca::{VcaClient, VcaKind};

use crate::experiments::{grid, sweep, Direction};
use crate::run;

/// One impairment point.
#[derive(Debug, Clone, Serialize)]
pub struct ImpairmentPoint {
    /// VCA name.
    pub vca: String,
    /// Extra one-way path delay, ms.
    pub extra_delay_ms: u64,
    /// Random loss rate on the access path.
    pub loss_rate: f64,
    /// Jitter amplitude, ms.
    pub jitter_ms: u64,
    /// C1 uplink utilization, Mbps.
    pub up_mbps: f64,
    /// Frames C2 decoded from C1.
    pub frames: u64,
    /// C2-side freeze time, seconds.
    pub freeze_secs: f64,
}

/// Impairment study result.
#[derive(Debug, Clone, Serialize)]
pub struct ImpairmentsResult {
    /// Latency sweep (loss = 0).
    pub latency: Vec<ImpairmentPoint>,
    /// Loss sweep (extra delay = 0).
    pub loss: Vec<ImpairmentPoint>,
    /// Jitter sweep (loss = 0, extra delay = 0).
    pub jitter: Vec<ImpairmentPoint>,
}

/// Seed of every impairment call.
const SEED: u64 = 400;

/// Parameters for the impairment sweeps.
#[derive(Debug, Clone)]
pub struct ImpairmentsConfig {
    /// Extra one-way delays to test, ms.
    pub delays_ms: Vec<u64>,
    /// Loss rates to test.
    pub loss_rates: Vec<f64>,
    /// Jitter amplitudes to test, ms.
    pub jitters_ms: Vec<u64>,
    /// Call length.
    pub call: SimDuration,
}

impl Default for ImpairmentsConfig {
    fn default() -> Self {
        ImpairmentsConfig {
            delays_ms: vec![0, 25, 50, 100, 200],
            loss_rates: vec![0.0, 0.005, 0.01, 0.02, 0.05],
            jitters_ms: vec![0, 10, 30, 60],
            call: SimDuration::from_secs(90),
        }
    }
}

impl ImpairmentsConfig {
    /// Reduced preset.
    pub fn quick() -> Self {
        ImpairmentsConfig {
            delays_ms: vec![0, 100],
            loss_rates: vec![0.0, 0.02],
            jitters_ms: vec![0, 30],
            call: SimDuration::from_secs(60),
        }
    }
}

/// The impairment experiments.
pub mod impairments {
    use super::*;

    /// One call of `kind` on an open (10 Mbps) uplink — so impairments, not
    /// shaping, dominate — with both directions of C1's access link
    /// carrying the given extra one-way delay, periodic loss and jitter.
    /// Read on C2's side: what the impaired sender got through.
    fn point(
        cfg: &ImpairmentsConfig,
        kind: VcaKind,
        (extra_delay_ms, loss_rate, jitter_ms): (u64, f64, u64),
    ) -> ImpairmentPoint {
        let open = RateProfile::constant_mbps(10.0);
        let spec = Direction::Up.call(kind, open, cfg.call, SEED);
        let impair = |lab: &mut run::Lab| {
            for link in [&mut lab.up, &mut lab.down] {
                link.delay += SimDuration::from_millis(extra_delay_ms);
                link.jitter = SimDuration::from_millis(jitter_ms);
                *link = link.clone().with_loss_rate(loss_rate);
            }
        };
        let settle = SimTime::ZERO + cfg.call / 4;
        let read = |call: &run::TwoPartyCall, end| {
            let up = call.net.link(call.topo.c1_up).traces.total();
            let c2: &VcaClient = call.net.agent(call.topo.c2);
            ImpairmentPoint {
                vca: kind.name().into(),
                extra_delay_ms,
                loss_rate,
                jitter_ms,
                up_mbps: up.rate_mbps_between(settle, end),
                frames: c2.frames_decoded_from(0),
                freeze_secs: c2
                    .primary_freeze()
                    .map_or(0.0, |f| f.freeze_time.as_secs_f64()),
            }
        };
        run::two_party_on(&spec, impair, &Telemetry::disabled(), read).0
    }

    /// Run the three sweeps (latency, loss, jitter — each alone) on `jobs`
    /// workers. These links are not in the spec language, so the points go
    /// to the executor directly rather than through `sweep`.
    pub fn run(cfg: &ImpairmentsConfig, jobs: usize) -> ImpairmentsResult {
        let swept = |impairments: Vec<(u64, f64, u64)>| {
            let cells = grid(&VcaKind::NATIVE, &impairments);
            run_indexed(cells.len(), jobs, |i| point(cfg, cells[i].0, cells[i].1))
        };
        ImpairmentsResult {
            latency: swept(cfg.delays_ms.iter().map(|&d| (d, 0.0, 0)).collect()),
            loss: swept(cfg.loss_rates.iter().map(|&p| (0, p, 0)).collect()),
            jitter: swept(cfg.jitters_ms.iter().map(|&j| (0, 0.0, j)).collect()),
        }
    }

    /// Render.
    pub fn print(r: &ImpairmentsResult) {
        println!("Extension: utilization under added path latency (uplink Mbps)");
        println!(
            "{:>8} {:>10} {:>10} {:>12}",
            "VCA", "delay ms", "up Mbps", "freeze s"
        );
        for p in &r.latency {
            println!(
                "{:>8} {:>10} {:>10.2} {:>12.1}",
                p.vca, p.extra_delay_ms, p.up_mbps, p.freeze_secs
            );
        }
        println!("Extension: utilization under random loss");
        println!(
            "{:>8} {:>10} {:>10} {:>12}",
            "VCA", "loss", "up Mbps", "freeze s"
        );
        for p in &r.loss {
            println!(
                "{:>8} {:>9.1}% {:>10.2} {:>12.1}",
                p.vca,
                p.loss_rate * 100.0,
                p.up_mbps,
                p.freeze_secs
            );
        }
        println!("Extension: utilization under jitter");
        println!(
            "{:>8} {:>10} {:>10} {:>12}",
            "VCA", "jitter ms", "up Mbps", "freeze s"
        );
        for p in &r.jitter {
            println!(
                "{:>8} {:>10} {:>10.2} {:>12.1}",
                p.vca, p.jitter_ms, p.up_mbps, p.freeze_secs
            );
        }
    }
}

/// The Teams width-bug ablation.
pub mod ablation {
    use super::*;

    /// Result of the counterfactual.
    #[derive(Debug, Clone, Serialize)]
    pub struct AblationResult {
        /// FIRs the constrained sender received with the bug enabled.
        pub firs_with_bug: u64,
        /// FIRs with the bug disabled.
        pub firs_without_bug: u64,
        /// Mean sent frame width with the bug.
        pub width_with_bug: f64,
        /// Mean sent frame width without.
        pub width_without_bug: f64,
    }

    /// Run Teams-Chrome at a starved 0.3 Mbps uplink, with and without the
    /// emulated width bug, on `jobs` workers.
    pub fn run(seed: u64, jobs: usize) -> AblationResult {
        // The client as shipped, then the same client with the bug off.
        let bug_off = ClientKnobs {
            teams_width_bug: Some(false),
            min_rate_mbps: None,
            max_rate_mbps: None,
        };
        let starved = Direction::Up.call(
            VcaKind::TeamsChrome,
            RateProfile::constant_mbps(0.3),
            SimDuration::from_secs(120),
            seed,
        );
        let knobs = [None, Some(bug_off)];
        let readings = sweep(
            jobs,
            &knobs,
            1,
            run::two_party,
            |knobs, _| TwoPartySpec {
                knobs: knobs.clone(),
                ..starved.clone()
            },
            |_, _, out| {
                let settled = out.c1_stats.iter().skip(out.c1_stats.len() / 3);
                let widths: Vec<f64> = settled.map(|s| s.send_width as f64).collect();
                (out.c1_firs_received, vcabench_stats::mean(&widths))
            },
        );
        let [(firs_with_bug, width_with_bug), (firs_without_bug, width_without_bug)] =
            [readings[0].1[0], readings[1].1[0]];
        AblationResult {
            firs_with_bug,
            firs_without_bug,
            width_with_bug,
            width_without_bug,
        }
    }

    /// Render.
    pub fn print(r: &AblationResult) {
        println!("Extension: Teams width-bug ablation at 0.3 Mbps uplink");
        println!(
            "  with bug:    width {:>5.0} px, {:>3} FIRs",
            r.width_with_bug, r.firs_with_bug
        );
        println!(
            "  without bug: width {:>5.0} px, {:>3} FIRs",
            r.width_without_bug, r.firs_without_bug
        );
        println!("  (the paper hypothesized the width reversal causes the Fig 3b FIR storm)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_jobs;

    #[test]
    fn latency_hurts_delay_based_meet_least_at_moderate_values() {
        let cfg = ImpairmentsConfig::quick();
        let r = impairments::run(&cfg, test_jobs());
        // Everyone keeps working at +100 ms (VCAs tolerate latency).
        for p in &r.latency {
            if p.extra_delay_ms == 100 {
                assert!(
                    p.up_mbps > 0.25,
                    "{} collapsed at 100 ms: {}",
                    p.vca,
                    p.up_mbps
                );
                assert!(p.frames > 500, "{} stopped decoding: {}", p.vca, p.frames);
            }
        }
    }

    #[test]
    fn loss_hits_teams_hardest() {
        let cfg = ImpairmentsConfig::quick();
        let r = impairments::run(&cfg, test_jobs());
        let rate = |vca: &str, p: f64| {
            r.loss
                .iter()
                .find(|x| x.vca == vca && (x.loss_rate - p).abs() < 1e-9)
                .unwrap()
                .up_mbps
        };
        // Teams' hair-trigger backoff collapses under 2% random loss; Zoom's
        // FEC tolerance keeps it near nominal.
        let teams_drop = rate("Teams", 0.02) / rate("Teams", 0.0);
        let zoom_drop = rate("Zoom", 0.02) / rate("Zoom", 0.0);
        assert!(
            teams_drop < zoom_drop,
            "Teams should lose proportionally more: {teams_drop} vs {zoom_drop}"
        );
        assert!(zoom_drop > 0.8, "Zoom rides out 2% loss: {zoom_drop}");
    }

    #[test]
    fn disabling_the_bug_reduces_firs() {
        let r = ablation::run(3, test_jobs());
        assert!(
            r.width_with_bug > r.width_without_bug,
            "bug raises width: {} vs {}",
            r.width_with_bug,
            r.width_without_bug
        );
        assert!(
            r.firs_with_bug > r.firs_without_bug,
            "bug causes the FIR storm: {} vs {}",
            r.firs_with_bug,
            r.firs_without_bug
        );
    }
}
