//! **Table 2** — unconstrained network utilization.
//!
//! Paper values (Mbps): Meet 0.95↑/0.84↓, Teams 1.40↑/1.86↓, Zoom 0.78↑/0.95↓.
//! Two-party call on an unconstrained (1 Gbps) access link; average
//! utilization of C1's uplink and downlink over the steady part of the call.

use serde::Serialize;
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_stats::ci90;
use vcabench_vca::VcaKind;

use crate::experiments::{sweep, unconstrained, Direction};
use crate::run::{self, TwoPartyOutcome};

/// Base seed: repetition `r` calls with seed `SEED + r`.
const SEED: u64 = 42;

/// Parameters of the Table 2 experiment.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Call length (paper: 2.5 minutes).
    pub call: SimDuration,
    /// Repetitions (paper: 5).
    pub reps: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            call: SimDuration::from_secs(150),
            reps: 5,
        }
    }
}

impl Table2Config {
    /// Reduced preset for tests and benches.
    pub fn quick() -> Self {
        Table2Config {
            call: SimDuration::from_secs(60),
            reps: 1,
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// VCA name.
    pub vca: String,
    /// Mean upstream utilization, Mbps.
    pub up_mbps: f64,
    /// 90% CI half-width on the upstream mean.
    pub up_ci: f64,
    /// Mean downstream utilization, Mbps.
    pub down_mbps: f64,
    /// 90% CI half-width on the downstream mean.
    pub down_ci: f64,
}

/// Full Table 2 result.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Result {
    /// One row per VCA.
    pub rows: Vec<Table2Row>,
}

/// Run the experiment on `jobs` workers.
pub fn run(cfg: &Table2Config, jobs: usize) -> Table2Result {
    let settle = SimTime::ZERO + cfg.call / 5;
    let rates = sweep(
        jobs,
        &VcaKind::NATIVE,
        cfg.reps,
        run::two_party,
        |&kind, rep| Direction::Up.call(kind, unconstrained(), cfg.call, SEED + rep),
        |_, _, out| {
            let steady = |series| TwoPartyOutcome::rate_between(series, settle, out.duration);
            (steady(&out.up_series), steady(&out.down_series))
        },
    );
    let rows = rates.into_iter().map(|(kind, rates)| {
        let (ups, downs): (Vec<f64>, Vec<f64>) = rates.into_iter().unzip();
        let (u, d) = (ci90(&ups), ci90(&downs));
        Table2Row {
            vca: kind.name().to_string(),
            up_mbps: u.mean,
            up_ci: u.hi - u.mean,
            down_mbps: d.mean,
            down_ci: d.hi - d.mean,
        }
    });
    Table2Result {
        rows: rows.collect(),
    }
}

/// Render the table like the paper's.
pub fn print(result: &Table2Result) {
    println!("Table 2: Unconstrained network utilization (Mbps)");
    println!("{:<8} {:>10} {:>12}", "VCA", "Upstream", "Downstream");
    for r in &result.rows {
        println!(
            "{:<8} {:>6.2}±{:<4.2} {:>6.2}±{:<4.2}",
            r.vca, r.up_mbps, r.up_ci, r.down_mbps, r.down_ci
        );
    }
    println!("(paper:  Meet 0.95/0.84, Teams 1.40/1.86, Zoom 0.78/0.95)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rep_rows_are_well_formed() {
        let result = run(&Table2Config::quick(), crate::experiments::test_jobs());
        assert_eq!(result.rows.len(), VcaKind::NATIVE.len());
        for r in &result.rows {
            // One repetition: the CI half-width degenerates to exactly zero.
            assert_eq!(r.up_ci, 0.0, "{}: up CI {}", r.vca, r.up_ci);
            assert_eq!(r.down_ci, 0.0, "{}: down CI {}", r.vca, r.down_ci);
            // Every client both sends and receives real media.
            assert!(r.up_mbps > 0.1, "{}: up {}", r.vca, r.up_mbps);
            assert!(r.down_mbps > 0.1, "{}: down {}", r.vca, r.down_mbps);
            assert!(
                r.up_mbps < 10.0 && r.down_mbps < 10.0,
                "{}: implausible",
                r.vca
            );
        }
        let mut names: Vec<&str> = result.rows.iter().map(|r| r.vca.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), result.rows.len(), "duplicate VCA rows");
    }

    #[test]
    fn shape_matches_paper() {
        let result = run(&Table2Config::quick(), crate::experiments::test_jobs());
        let get = |name: &str| result.rows.iter().find(|r| r.vca == name).unwrap();
        let meet = get("Meet");
        let teams = get("Teams");
        let zoom = get("Zoom");
        // Teams uses by far the most bandwidth in both directions.
        assert!(teams.up_mbps > meet.up_mbps && teams.up_mbps > zoom.up_mbps);
        assert!(teams.down_mbps > meet.down_mbps && teams.down_mbps > zoom.down_mbps);
        // Meet sends more than it receives (simulcast up, one copy down).
        assert!(meet.up_mbps > meet.down_mbps);
        // Zoom receives more than it sends (server-side FEC).
        assert!(zoom.down_mbps > zoom.up_mbps);
        // Absolute bands.
        assert!(
            (0.7..=1.3).contains(&meet.up_mbps),
            "meet up {}",
            meet.up_mbps
        );
        assert!(
            (0.6..=1.2).contains(&zoom.up_mbps),
            "zoom up {}",
            zoom.up_mbps
        );
        assert!(
            (1.2..=2.2).contains(&teams.up_mbps),
            "teams up {}",
            teams.up_mbps
        );
    }
}
