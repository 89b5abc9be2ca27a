//! **Figures 8–11** — VCA vs. VCA competition on a shared bottleneck (§5.1).
//!
//! Fig 7's setup: incumbent call (C1↔C2) and competing call (F1↔F2) share a
//! symmetrically shaped bottleneck. Fig 8 (uplink shares, 0.5 Mbps) and
//! Fig 10 (downlink shares) are box plots over repetitions; Fig 9 and 11
//! are single-run timelines.
//!
//! Headline shapes: Zoom is aggressive even against itself (incumbent
//! ≥ ~70 %); Meet shares fairly with Meet/Teams but backs off hard when a
//! Zoom client joins; Teams is passive on the downlink.

use serde::Serialize;
use vcabench_campaign::{CompetitionSpec, CompetitorSpec};
use vcabench_simcore::SimDuration;
use vcabench_stats::{box_stats, BoxStats};
use vcabench_vca::VcaKind;

use crate::experiments::{grid, sweep};
use crate::run::{self, TwoPartyOutcome};

/// Bottleneck capacity of the Fig 8/10 box plots, Mbps (the paper sweeps
/// {0.5, 1, 2, 3, 4, 5} and plots the boxes at 0.5).
const CAPACITY_MBPS: f64 = 0.5;
/// Base seed of the Fig 8/10 shares: repetition `r` runs seed `SEED + r`.
const SEED: u64 = 81;

/// Parameters of the VCA-vs-VCA study.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Repetitions (paper: 3).
    pub reps: u64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config { reps: 3 }
    }
}

impl Fig8Config {
    /// Reduced preset.
    pub fn quick() -> Self {
        Fig8Config { reps: 1 }
    }
}

/// Shares for one (incumbent, competitor) pairing.
#[derive(Debug, Clone, Serialize)]
pub struct PairShares {
    /// Incumbent VCA.
    pub incumbent: String,
    /// Competitor VCA.
    pub competitor: String,
    /// Incumbent's uplink share per repetition.
    pub up_shares: Vec<f64>,
    /// Incumbent's downlink share per repetition.
    pub down_shares: Vec<f64>,
}

impl PairShares {
    /// Box statistics of the uplink shares (Fig 8).
    pub fn up_box(&self) -> BoxStats {
        box_stats(&self.up_shares)
    }
    /// Box statistics of the downlink shares (Fig 10).
    pub fn down_box(&self) -> BoxStats {
        box_stats(&self.down_shares)
    }
    /// Mean uplink share.
    pub fn up_mean(&self) -> f64 {
        vcabench_stats::mean(&self.up_shares)
    }
}

/// All pairings (Figs 8 and 10 combined).
#[derive(Debug, Clone, Serialize)]
pub struct VcaCompetitionResult {
    /// Bottleneck capacity used.
    pub capacity_mbps: f64,
    /// Every (incumbent, competitor) pairing.
    pub pairs: Vec<PairShares>,
}

impl VcaCompetitionResult {
    /// Look up a pairing.
    pub fn pair(&self, incumbent: &str, competitor: &str) -> Option<&PairShares> {
        self.pairs
            .iter()
            .find(|p| p.incumbent == incumbent && p.competitor == competitor)
    }
}

/// Run all 9 pairings on `jobs` workers.
pub fn run(cfg: &Fig8Config, jobs: usize) -> VcaCompetitionResult {
    let cells = grid(&VcaKind::NATIVE, &VcaKind::NATIVE);
    let shares = sweep(
        jobs,
        &cells,
        cfg.reps,
        run::competition,
        |&(incumbent, competitor), rep| {
            let competitor = CompetitorSpec::Vca(competitor);
            CompetitionSpec::paper(incumbent, competitor, CAPACITY_MBPS, SEED + rep)
        },
        |_, _, out| out.shares(),
    );
    let pairs = shares
        .into_iter()
        .map(|(&(incumbent, competitor), shares)| {
            let (up_shares, down_shares) = shares.into_iter().unzip();
            PairShares {
                incumbent: incumbent.name().to_string(),
                competitor: competitor.name().to_string(),
                up_shares,
                down_shares,
            }
        });
    VcaCompetitionResult {
        capacity_mbps: CAPACITY_MBPS,
        pairs: pairs.collect(),
    }
}

/// Capacity sweep of a single pairing (the paper's text: "VCAs can achieve
/// their nominal bitrate when the link capacity is 4 Mbps or greater").
#[derive(Debug, Clone, Serialize)]
pub struct CapacitySweep {
    /// Incumbent VCA.
    pub incumbent: String,
    /// Competitor VCA.
    pub competitor: String,
    /// (capacity, incumbent uplink Mbps, competitor uplink Mbps) rows.
    pub rows: Vec<(f64, f64, f64)>,
}

/// Sweep the bottleneck capacity for a pairing on `jobs` workers and report
/// absolute rates; at high capacities both calls should reach their
/// nominal bitrates.
pub fn run_capacity_sweep(
    incumbent: VcaKind,
    competitor: VcaKind,
    caps: &[f64],
    seed: u64,
    jobs: usize,
) -> CapacitySweep {
    let rates = sweep(
        jobs,
        caps,
        1,
        run::competition,
        |&cap, _| CompetitionSpec::paper(incumbent, CompetitorSpec::Vca(competitor), cap, seed),
        |&cap, _, out| {
            let from = out.competitor_start + SimDuration::from_secs(15);
            let rate = |series| TwoPartyOutcome::rate_between(series, from, out.competitor_end);
            (cap, rate(&out.inc_up), rate(&out.comp_up))
        },
    );
    CapacitySweep {
        incumbent: incumbent.name().into(),
        competitor: competitor.name().into(),
        rows: rates.into_iter().flat_map(|(_, rows)| rows).collect(),
    }
}

/// Fig 9/11-style single-run timelines for a pairing.
#[derive(Debug, Clone, Serialize)]
pub struct PairTimeline {
    /// Incumbent VCA.
    pub incumbent: String,
    /// Competitor VCA.
    pub competitor: String,
    /// Capacity, Mbps.
    pub capacity_mbps: f64,
    /// Incumbent uplink Mbps per 100 ms bin.
    pub inc_up: Vec<f64>,
    /// Competitor uplink.
    pub comp_up: Vec<f64>,
    /// Incumbent downlink.
    pub inc_down: Vec<f64>,
    /// Competitor downlink.
    pub comp_down: Vec<f64>,
}

/// Run each `(incumbent, competitor, capacity)` pairing once, on `jobs`
/// workers, and keep its timelines (Fig 9 at 0.5 Mbps, Fig 11 at 1 Mbps).
pub fn run_timelines(
    pairings: &[(VcaKind, VcaKind, f64)],
    seed: u64,
    jobs: usize,
) -> Vec<PairTimeline> {
    let timelines = sweep(
        jobs,
        pairings,
        1,
        run::competition,
        |&(incumbent, competitor, capacity_mbps), _| {
            CompetitionSpec::paper(
                incumbent,
                CompetitorSpec::Vca(competitor),
                capacity_mbps,
                seed,
            )
        },
        |&(incumbent, competitor, capacity_mbps), _, out| PairTimeline {
            incumbent: incumbent.name().to_string(),
            competitor: competitor.name().to_string(),
            capacity_mbps,
            inc_up: out.inc_up,
            comp_up: out.comp_up,
            inc_down: out.inc_down,
            comp_down: out.comp_down,
        },
    );
    timelines.into_iter().flat_map(|(_, runs)| runs).collect()
}

/// Render the share tables.
pub fn print(result: &VcaCompetitionResult) {
    println!(
        "Fig 8/10: incumbent link share under competition at {} Mbps (white box = incumbent)",
        result.capacity_mbps
    );
    println!(
        "{:<10} {:<10} {:>18} {:>18}",
        "incumbent", "competitor", "up share (med)", "down share (med)"
    );
    for p in &result.pairs {
        println!(
            "{:<10} {:<10} {:>18.2} {:>18.2}",
            p.incumbent,
            p.competitor,
            p.up_box().median,
            p.down_box().median
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_jobs;
    use vcabench_simcore::SimTime;

    #[test]
    fn headline_shapes() {
        let r = run(&Fig8Config::quick(), test_jobs());
        // Zoom dominates an incumbent Meet...
        let meet_vs_zoom = r.pair("Meet", "Zoom").unwrap().up_mean();
        assert!(
            meet_vs_zoom < 0.45,
            "Meet backs off to Zoom: {meet_vs_zoom}"
        );
        // ...and holds ≥60% as the incumbent against Meet.
        let zoom_vs_meet = r.pair("Zoom", "Meet").unwrap().up_mean();
        assert!(
            zoom_vs_meet > 0.6,
            "Zoom incumbent dominates Meet: {zoom_vs_meet}"
        );
        // Meet shares with itself roughly fairly.
        let meet_meet = r.pair("Meet", "Meet").unwrap().up_mean();
        assert!(
            (0.35..=0.7).contains(&meet_meet),
            "Meet-Meet fair: {meet_meet}"
        );
        // Zoom is unfair even to itself (incumbent keeps the larger share;
        // the model's advantage is milder than the paper's 75%).
        let zoom_zoom = r.pair("Zoom", "Zoom").unwrap().up_mean();
        assert!(
            zoom_zoom > 0.50,
            "Zoom-Zoom incumbent advantage: {zoom_zoom}"
        );
    }

    #[test]
    fn high_capacity_removes_contention() {
        // Paper: at ≥4 Mbps both calls reach nominal. Zoom+Zoom nominal sum
        // ≈ 1.7 Mbps, so already at 4 Mbps both run free.
        let sweep = run_capacity_sweep(VcaKind::Zoom, VcaKind::Zoom, &[0.5, 4.0], 9, test_jobs());
        let (_, inc_low, comp_low) = sweep.rows[0];
        let (_, inc_high, comp_high) = sweep.rows[1];
        assert!(
            inc_high > 0.7 && comp_high > 0.7,
            "nominal at 4 Mbps: {inc_high}/{comp_high}"
        );
        assert!(
            inc_low + comp_low < 0.62,
            "contended at 0.5: {inc_low}+{comp_low}"
        );
    }

    #[test]
    fn timelines_have_data() {
        let timelines = run_timelines(&[(VcaKind::Zoom, VcaKind::Zoom, 0.5)], 9, 1);
        assert_eq!(timelines.len(), 1);
        let t = &timelines[0];
        assert!(!t.inc_up.is_empty());
        let late = SimTime::from_secs(100);
        let end = SimTime::from_secs(150);
        let inc = TwoPartyOutcome::rate_between(&t.inc_up, late, end);
        let comp = TwoPartyOutcome::rate_between(&t.comp_up, late, end);
        assert!(inc > 0.0 && comp > 0.0, "both flows alive: {inc}/{comp}");
    }
}
