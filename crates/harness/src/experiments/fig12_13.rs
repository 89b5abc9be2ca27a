//! **Figures 12 and 13** — VCA vs. a long TCP flow (§5.2).
//!
//! iPerf3 (TCP CUBIC) competes with each VCA on a 2 Mbps symmetric link
//! (Fig 12); Fig 13 shows Zoom's spontaneous probe burst knocking iPerf3
//! down mid-experiment.
//!
//! Headline shapes: Teams is extremely passive (≤37 % uplink, ≤20 %
//! downlink even at 2 Mbps); Meet and Zoom reach their nominal rates and
//! leave the rest to TCP; at low capacities Zoom takes ≥75 %.

use serde::Serialize;
use vcabench_campaign::{CompetitionSpec, CompetitorSpec};
use vcabench_simcore::SimTime;
use vcabench_vca::VcaKind;

use crate::experiments::{single, sweep};
use crate::run::{self, TwoPartyOutcome, BIN};

/// Bottleneck capacity of Fig 12, Mbps.
const CAPACITY_MBPS: f64 = 2.0;
/// Base seed of Fig 12: repetition `r` runs seed `SEED + r`.
const SEED: u64 = 121;
/// Seed of Fig 13's single run.
const FIG13_SEED: u64 = 131;

/// Parameters of the TCP-competition study.
#[derive(Debug, Clone)]
pub struct Fig12Config {
    /// Repetitions (paper: 3).
    pub reps: u64,
}

impl Default for Fig12Config {
    fn default() -> Self {
        Fig12Config { reps: 3 }
    }
}

impl Fig12Config {
    /// Reduced preset.
    pub fn quick() -> Self {
        Fig12Config { reps: 1 }
    }
}

/// One (vca, direction) row of Fig 12.
#[derive(Debug, Clone, Serialize)]
pub struct TcpShareRow {
    /// VCA name.
    pub vca: String,
    /// VCA uplink rate vs iPerf uplink rate, Mbps (upload competition).
    pub up_vca_mbps: f64,
    /// iPerf rate in the upload run.
    pub up_iperf_mbps: f64,
    /// VCA downlink rate in the download run.
    pub down_vca_mbps: f64,
    /// iPerf rate in the download run.
    pub down_iperf_mbps: f64,
}

/// Fig 12 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Result {
    /// Capacity used.
    pub capacity_mbps: f64,
    /// One row per VCA.
    pub rows: Vec<TcpShareRow>,
}

impl Fig12Result {
    /// Look up a row.
    pub fn row(&self, vca: &str) -> Option<&TcpShareRow> {
        self.rows.iter().find(|r| r.vca == vca)
    }
}

/// Per VCA, its mean rate and iPerf's in the direction `iperf` competes in,
/// over the last three quarters of iPerf's lifetime.
fn competed(cfg: &Fig12Config, iperf: CompetitorSpec, jobs: usize) -> Vec<(f64, f64)> {
    let rates = sweep(
        jobs,
        &VcaKind::NATIVE,
        cfg.reps,
        run::competition,
        |&kind, rep| CompetitionSpec::paper(kind, iperf, CAPACITY_MBPS, SEED + rep),
        |_, _, out| {
            let (vca, iperf) = match iperf {
                CompetitorSpec::IperfUp => (&out.inc_up, &out.comp_up),
                _ => (&out.inc_down, &out.comp_down),
            };
            (out.contended_rate(vca), out.contended_rate(iperf))
        },
    );
    let means = rates.into_iter().map(|(_, rates)| {
        let (vca, iperf): (Vec<f64>, Vec<f64>) = rates.into_iter().unzip();
        (vcabench_stats::mean(&vca), vcabench_stats::mean(&iperf))
    });
    means.collect()
}

/// Run Fig 12 on `jobs` workers: every VCA against an upload, then against
/// a download.
pub fn run(cfg: &Fig12Config, jobs: usize) -> Fig12Result {
    let up = competed(cfg, CompetitorSpec::IperfUp, jobs);
    let down = competed(cfg, CompetitorSpec::IperfDown, jobs);
    let rows = VcaKind::NATIVE.iter().zip(up).zip(down).map(
        |((kind, (up_vca_mbps, up_iperf_mbps)), (down_vca_mbps, down_iperf_mbps))| TcpShareRow {
            vca: kind.name().to_string(),
            up_vca_mbps,
            up_iperf_mbps,
            down_vca_mbps,
            down_iperf_mbps,
        },
    );
    Fig12Result {
        capacity_mbps: CAPACITY_MBPS,
        rows: rows.collect(),
    }
}

/// Fig 13 result: Zoom + iPerf downlink timelines showing the probe burst.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Result {
    /// Zoom downlink Mbps per 100 ms bin.
    pub zoom: Vec<f64>,
    /// iPerf downlink Mbps per bin.
    pub iperf: Vec<f64>,
    /// When the burst peaked (seconds), if detected.
    pub burst_at_secs: Option<f64>,
}

/// Run Fig 13 (Zoom vs a long TCP download at 2 Mbps; a single run).
pub fn run_fig13() -> Fig13Result {
    let spec = CompetitionSpec::paper(
        VcaKind::Zoom,
        CompetitorSpec::IperfDown,
        CAPACITY_MBPS,
        FIG13_SEED,
    );
    single(run::competition, spec, |out| {
        // Find the probe burst: zoom's downlink rising well above its
        // nominal while the competitor runs.
        let nominal = TwoPartyOutcome::rate_between(
            &out.inc_down,
            SimTime::from_secs(10),
            SimTime::from_secs(28),
        );
        let bin = |t: SimTime| (t.as_micros() / BIN.as_micros()) as usize;
        let (comp_start, comp_end) = (bin(out.competitor_start), bin(out.competitor_end));
        let burst_at_secs = out
            .inc_down
            .iter()
            .enumerate()
            .skip(comp_start + 100)
            .take(comp_end.saturating_sub(comp_start + 100))
            .find(|(_, &v)| v > nominal * 1.15)
            .map(|(i, _)| i as f64 * BIN.as_secs_f64());
        Fig13Result {
            zoom: out.inc_down,
            iperf: out.comp_down,
            burst_at_secs,
        }
    })
}

/// Render Fig 12.
pub fn print(result: &Fig12Result) {
    println!(
        "Fig 12: link sharing with a long TCP (CUBIC) flow at {} Mbps",
        result.capacity_mbps
    );
    println!(
        "{:<8} {:>22} {:>24}",
        "VCA", "uplink (vca/iperf)", "downlink (vca/iperf)"
    );
    for r in &result.rows {
        println!(
            "{:<8} {:>10.2} / {:<9.2} {:>11.2} / {:<9.2}",
            r.vca, r.up_vca_mbps, r.up_iperf_mbps, r.down_vca_mbps, r.down_iperf_mbps
        );
    }
    println!("(paper: Teams ≤37% up / ≤20% down; Meet & Zoom reach nominal at 2 Mbps)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teams_is_passive_against_tcp() {
        let r = run(&Fig12Config::quick(), crate::experiments::test_jobs());
        let teams = r.row("Teams").unwrap();
        let up_share = teams.up_vca_mbps / (teams.up_vca_mbps + teams.up_iperf_mbps);
        let down_share = teams.down_vca_mbps / (teams.down_vca_mbps + teams.down_iperf_mbps);
        assert!(up_share < 0.45, "Teams uplink share {up_share}");
        assert!(down_share < 0.40, "Teams downlink share {down_share}");
        // Meet and Zoom reach roughly their nominal rates at 2 Mbps.
        let meet = r.row("Meet").unwrap();
        assert!(
            meet.up_vca_mbps > 0.6,
            "Meet nominal up: {}",
            meet.up_vca_mbps
        );
        let zoom = r.row("Zoom").unwrap();
        assert!(
            zoom.down_vca_mbps > 0.6,
            "Zoom nominal down: {}",
            zoom.down_vca_mbps
        );
    }

    #[test]
    fn zoom_probe_burst_detected() {
        let r = run_fig13();
        assert!(
            r.burst_at_secs.is_some(),
            "Zoom should re-probe above nominal during the TCP competition"
        );
    }
}
