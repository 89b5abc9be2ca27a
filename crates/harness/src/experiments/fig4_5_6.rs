//! **Figures 4, 5, 6** — response to transient network disruptions (§4).
//!
//! Procedure: a 5-minute call; one minute in, the (up|down)link is reduced
//! to {0.25, 0.5, 0.75, 1.0} Mbps for 30 seconds, then restored; four
//! repetitions each.
//!
//! * Fig 4a/5a: bitrate timelines at the 0.25 Mbps level;
//! * Fig 4b/5b: time-to-recovery vs. disruption level (five-second rolling
//!   median reaching the pre-disruption median);
//! * Fig 6: C2's *upstream* during C1's *downlink* disruption — flat for
//!   Meet (the SFU absorbs it), collapsed for Teams (end-to-end control).

use serde::Serialize;
use vcabench_netsim::RateProfile;
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_vca::VcaKind;

use crate::experiments::{grid, sweep, Direction};
use crate::run::{self, TwoPartyOutcome};

/// The paper's disruption levels, Mbps.
pub const PAPER_LEVELS: &[f64] = &[0.25, 0.5, 0.75, 1.0];

/// Base seed: repetition `r` calls with seed `SEED + r`.
const SEED: u64 = 41;

/// Parameters of the disruption experiments.
#[derive(Debug, Clone)]
pub struct DisruptionConfig {
    /// Disruption levels, Mbps.
    pub levels: Vec<f64>,
    /// Call length (paper: 5 minutes).
    pub call: SimDuration,
    /// Disruption start (paper: 60 s).
    pub start: SimDuration,
    /// Disruption length (paper: 30 s).
    pub length: SimDuration,
    /// Repetitions (paper: 4).
    pub reps: u64,
}

impl Default for DisruptionConfig {
    fn default() -> Self {
        DisruptionConfig {
            levels: PAPER_LEVELS.to_vec(),
            call: SimDuration::from_secs(300),
            start: SimDuration::from_secs(60),
            length: SimDuration::from_secs(30),
            reps: 4,
        }
    }
}

impl DisruptionConfig {
    /// Reduced preset.
    pub fn quick() -> Self {
        DisruptionConfig {
            levels: vec![0.25, 1.0],
            call: SimDuration::from_secs(200),
            start: SimDuration::from_secs(45),
            length: SimDuration::from_secs(30),
            reps: 1,
        }
    }
}

/// TTR at one (vca, level) point.
#[derive(Debug, Clone, Serialize)]
pub struct TtrPoint {
    /// VCA name.
    pub vca: String,
    /// Disruption level, Mbps.
    pub level_mbps: f64,
    /// Mean time to recovery, seconds (`None` reps counted as the full
    /// post-disruption window).
    pub ttr_secs: f64,
    /// Nominal (pre-disruption median) bitrate, Mbps.
    pub nominal_mbps: f64,
}

/// Result of one direction's disruption study (Fig 4 or Fig 5).
#[derive(Debug, Clone, Serialize)]
pub struct DisruptionResult {
    /// Shaped direction.
    pub direction: Direction,
    /// TTR grid (panel b).
    pub ttr: Vec<TtrPoint>,
    /// Bitrate timelines at the severest level (panel a), per VCA:
    /// (name, Mbps per 100 ms bin).
    pub timelines: Vec<(String, Vec<f64>)>,
    /// Fig 6 (only for downlink runs): C2 upstream timelines at 0.25 Mbps.
    pub c2_up_timelines: Vec<(String, Vec<f64>)>,
    /// Disruption window (seconds) the timelines were produced under.
    pub window_s: (f64, f64),
}

impl DisruptionResult {
    /// Look up a TTR point.
    pub fn ttr_of(&self, vca: &str, level: f64) -> Option<&TtrPoint> {
        self.ttr
            .iter()
            .find(|p| p.vca == vca && (p.level_mbps - level).abs() < 1e-9)
    }
}

/// Run the disruption study in one direction on `jobs` workers.
pub fn run_direction(
    cfg: &DisruptionConfig,
    direction: Direction,
    jobs: usize,
) -> DisruptionResult {
    let d_start = SimTime::ZERO + cfg.start;
    let d_end = d_start + cfg.length;
    let cells = grid(&VcaKind::NATIVE, &cfg.levels);
    // Per call: (TTR, nominal) and, for the first call at the severest
    // level, the (shaped-link, C2-uplink) timelines of panel (a) and Fig 6.
    let recoveries = sweep(
        jobs,
        &cells,
        cfg.reps,
        run::two_party,
        |&(kind, level), rep| {
            let dip = RateProfile::disruption(1000e6, level * 1e6, d_start, cfg.length);
            direction.call(kind, dip, cfg.call, SEED + rep)
        },
        |&(_, level), rep, out| {
            let series = direction.series(&out);
            let t = out.ttr(series, d_start, d_end);
            let max_window = out.duration.saturating_since(d_end).as_secs_f64();
            let ttr = t.ttr.map(|d| d.as_secs_f64()).unwrap_or(max_window);
            let severest = rep == 0 && (level - cfg.levels[0]).abs() < 1e-9;
            let timelines = severest.then(|| (series.to_vec(), out.c2_up_series.clone()));
            (ttr, t.nominal_mbps, timelines)
        },
    );
    let mut ttr = Vec::new();
    let mut timelines = Vec::new();
    let mut c2_up_timelines = Vec::new();
    for (&(kind, level), calls) in recoveries {
        let vca = kind.name().to_string();
        let mut ttrs = Vec::new();
        let mut nominals = Vec::new();
        for (call_ttr, nominal, call_timelines) in calls {
            ttrs.push(call_ttr);
            nominals.push(nominal);
            if let Some((shaped, c2_up)) = call_timelines {
                timelines.push((vca.clone(), shaped));
                if direction == Direction::Down {
                    c2_up_timelines.push((vca.clone(), c2_up));
                }
            }
        }
        ttr.push(TtrPoint {
            vca,
            level_mbps: level,
            ttr_secs: vcabench_stats::mean(&ttrs),
            nominal_mbps: vcabench_stats::mean(&nominals),
        });
    }
    DisruptionResult {
        direction,
        ttr,
        timelines,
        c2_up_timelines,
        window_s: (
            cfg.start.as_secs_f64(),
            (cfg.start + cfg.length).as_secs_f64(),
        ),
    }
}

/// Full §4 result: Fig 4 (uplink) and Fig 5+6 (downlink).
#[derive(Debug, Clone, Serialize)]
pub struct DisruptionsResult {
    /// Fig 4.
    pub uplink: DisruptionResult,
    /// Fig 5 (+ Fig 6 timelines).
    pub downlink: DisruptionResult,
}

/// Run both directions on `jobs` workers.
pub fn run(cfg: &DisruptionConfig, jobs: usize) -> DisruptionsResult {
    DisruptionsResult {
        uplink: run_direction(cfg, Direction::Up, jobs),
        downlink: run_direction(cfg, Direction::Down, jobs),
    }
}

fn print_one(title: &str, r: &DisruptionResult) {
    println!("{title}");
    println!(
        "{:>8} {:>8} {:>10} {:>10}",
        "level", "VCA", "TTR (s)", "nominal"
    );
    for p in &r.ttr {
        println!(
            "{:>8.2} {:>8} {:>10.1} {:>10.2}",
            p.level_mbps, p.vca, p.ttr_secs, p.nominal_mbps
        );
    }
}

fn print_timelines(title: &str, r: &DisruptionResult) {
    println!("{title}");
    for (vca, series) in &r.timelines {
        let max = if vca == "Teams" { 2.4 } else { 1.4 };
        print!(
            "{}",
            crate::render::timeline(vca, series, max, Some(r.window_s.0), Some(r.window_s.1))
        );
    }
}

/// Render the TTR tables and the panel-(a) timelines.
pub fn print(result: &DisruptionsResult) {
    print_one(
        "Fig 4b: time to recovery after 30 s uplink disruption",
        &result.uplink,
    );
    print_one(
        "Fig 5b: time to recovery after 30 s downlink disruption",
        &result.downlink,
    );
    print_timelines(
        "Fig 4a: upstream bitrate during the severest uplink disruption",
        &result.uplink,
    );
    print_timelines(
        "Fig 5a: downstream bitrate during the severest downlink disruption",
        &result.downlink,
    );
    // Fig 6 summary: how far C2's upstream fell during C1's downlink
    // disruption, per VCA.
    println!("Fig 6: C2 upstream during C1 downlink disruption (0.25 Mbps)");
    let (from, to) = fig6_during(result.downlink.window_s);
    for (vca, series) in &result.downlink.c2_up_timelines {
        let before =
            TwoPartyOutcome::rate_between(series, SimTime::from_secs(20), SimTime::from_secs(40));
        let during = TwoPartyOutcome::rate_between(series, from, to);
        println!("  {vca}: before={before:.2} Mbps, during={during:.2} Mbps");
    }
}

/// The 20 s over which Fig 6 reads C2's upstream "during" a disruption of
/// `window_s`: from 5 s in (the far sender has had time to react) and
/// never past the disruption's end.
fn fig6_during((start, end): (f64, f64)) -> (SimTime, SimTime) {
    let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs.min(end));
    (at(start + 5.0), at(start + 25.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_jobs;

    #[test]
    fn fig6_reads_inside_the_disruption_for_both_presets() {
        for cfg in [DisruptionConfig::quick(), DisruptionConfig::default()] {
            let window_s = (
                cfg.start.as_secs_f64(),
                (cfg.start + cfg.length).as_secs_f64(),
            );
            let (from, to) = fig6_during(window_s);
            let (d_start, d_end) = (
                SimTime::ZERO + cfg.start,
                SimTime::ZERO + cfg.start + cfg.length,
            );
            assert!(
                d_start <= from && from < to && to <= d_end,
                "Fig 6 reads {from:?}..{to:?}, the disruption is {d_start:?}..{d_end:?}"
            );
        }
        // The quick preset's window is the 50–70 s its output was blessed on.
        assert_eq!(
            fig6_during((45.0, 75.0)),
            (SimTime::from_secs(50), SimTime::from_secs(70))
        );
        // A disruption shorter than the reading window clamps to its end.
        assert_eq!(fig6_during((10.0, 20.0)).1, SimTime::from_secs(20));
    }

    #[test]
    fn uplink_recovery_is_slow_for_everyone() {
        let cfg = DisruptionConfig::quick();
        let r = run_direction(&cfg, Direction::Up, test_jobs());
        for vca in ["Meet", "Teams", "Zoom"] {
            let t = r.ttr_of(vca, 0.25).unwrap();
            assert!(
                t.ttr_secs > 12.0,
                "{vca} must take a while to recover from 0.25: {}",
                t.ttr_secs
            );
        }
        // Milder disruptions recover faster (or at least not slower by much).
        for vca in ["Meet", "Zoom"] {
            let severe = r.ttr_of(vca, 0.25).unwrap().ttr_secs;
            let mild = r.ttr_of(vca, 1.0).unwrap().ttr_secs;
            assert!(
                mild <= severe + 5.0,
                "{vca}: mild {mild} should not exceed severe {severe}"
            );
        }
    }

    #[test]
    fn downlink_teams_slowest_meet_zoom_fast() {
        let cfg = DisruptionConfig::quick();
        let r = run_direction(&cfg, Direction::Down, test_jobs());
        let teams = r.ttr_of("Teams", 0.25).unwrap().ttr_secs;
        let meet = r.ttr_of("Meet", 0.25).unwrap().ttr_secs;
        let zoom = r.ttr_of("Zoom", 0.25).unwrap().ttr_secs;
        assert!(
            teams > meet && teams > zoom,
            "Teams slowest downlink: t={teams} m={meet} z={zoom}"
        );
        assert!(zoom < 20.0, "Zoom recovers downlink fast: {zoom}");
    }

    #[test]
    fn fig6_meet_c2_keeps_sending_teams_does_not() {
        let cfg = DisruptionConfig::quick();
        let r = run_direction(&cfg, Direction::Down, test_jobs());
        let get = |name: &str| {
            r.c2_up_timelines
                .iter()
                .find(|(v, _)| v == name)
                .map(|(_, s)| s)
                .unwrap()
        };
        let d_start = SimTime::ZERO + cfg.start;
        let probe = |s: &Vec<f64>| {
            let before = TwoPartyOutcome::rate_between(
                s,
                d_start - SimDuration::from_secs(25),
                d_start - SimDuration::from_secs(5),
            );
            let during = TwoPartyOutcome::rate_between(
                s,
                d_start + SimDuration::from_secs(10),
                d_start + SimDuration::from_secs(28),
            );
            (before, during)
        };
        let (meet_before, meet_during) = probe(get("Meet"));
        let (teams_before, teams_during) = probe(get("Teams"));
        // Meet's sender barely changes (SFU absorbs the disruption).
        assert!(
            meet_during > meet_before * 0.7,
            "Meet C2 keeps sending: {meet_before} -> {meet_during}"
        );
        // Teams' sender collapses (end-to-end adaptation through the relay).
        assert!(
            teams_during < teams_before * 0.5,
            "Teams C2 collapses: {teams_before} -> {teams_during}"
        );
    }
}
