//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes a `Config` (with a `quick()` preset), a `run`
//! function returning a serde-serializable result, and a `print` renderer
//! producing the same rows/series the paper reports.
//!
//! The paper has one lab procedure — shape a link, place N repeated calls,
//! read the captures — and every figure is that procedure on a different
//! grid. So every `run` states its grid (cells × repetitions → campaign
//! spec, plus what to read off each outcome) and hands it to [`sweep`],
//! which runs it on `jobs` workers; results do not depend on `jobs`.

use serde::Serialize;
use vcabench_campaign::{run_indexed, TwoPartySpec};
use vcabench_netsim::{EngineStats, RateProfile};
use vcabench_simcore::SimDuration;
use vcabench_telemetry::Telemetry;
use vcabench_vca::VcaKind;

pub use crate::run::unconstrained;
use crate::run::TwoPartyOutcome;

pub mod ext;
pub mod fig1;
pub mod fig12_13;
pub mod fig14;
pub mod fig15;
pub mod fig2;
pub mod fig3;
pub mod fig4_5_6;
pub mod fig8_to_11;
pub mod table2;

/// Which direction of C1's access link an experiment shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Direction {
    /// Shape C1's uplink (Fig 1a / 2d–f / 3b / 4).
    Up,
    /// Shape C1's downlink (Fig 1b / 2a–c / 3a / 5).
    Down,
}

impl Direction {
    /// A two-party call of `kind` with `profile` on this direction of C1's
    /// access link and the other direction left unconstrained.
    pub fn call(
        self,
        kind: VcaKind,
        profile: RateProfile,
        duration: SimDuration,
        seed: u64,
    ) -> TwoPartySpec {
        let (up, down) = match self {
            Direction::Up => (profile, unconstrained()),
            Direction::Down => (unconstrained(), profile),
        };
        TwoPartySpec {
            kind,
            up,
            down,
            duration_secs: duration.as_secs_f64(),
            seed,
            knobs: None,
        }
    }

    /// C1's bitrate series on the shaped link.
    pub fn series(self, out: &TwoPartyOutcome) -> &[f64] {
        match self {
            Direction::Up => &out.up_series,
            Direction::Down => &out.down_series,
        }
    }
}

/// Every `(row, column)` pair, rows outermost: the cell order of a figure
/// swept over two axes.
pub fn grid<A: Copy, B: Copy>(rows: &[A], columns: &[B]) -> Vec<(A, B)> {
    rows.iter()
        .flat_map(|&row| columns.iter().map(move |&column| (row, column)))
        .collect()
}

/// Run `reps` repetitions of every cell of a grid on `jobs` workers.
///
/// `spec` states the scenario of one `(cell, repetition)`, `runner` is
/// that topology's runner from [`crate::run`], and `read` takes whatever
/// the figure needs off the outcome *inside the worker*, so a grid of
/// hundreds of runs never holds more than `jobs` outcomes. Returns every
/// cell, in order, with its readings in repetition order — whatever
/// `jobs` is.
pub fn sweep<C: Sync, S, O, T: Send>(
    jobs: usize,
    cells: &[C],
    reps: u64,
    runner: fn(&S, &Telemetry) -> (O, EngineStats),
    spec: impl Fn(&C, u64) -> S + Sync,
    read: impl Fn(&C, u64, O) -> T + Sync,
) -> Vec<(&C, Vec<T>)> {
    let reps = reps as usize;
    let mut readings = run_indexed(cells.len() * reps, jobs, |i| {
        let (cell, rep) = (&cells[i / reps], (i % reps) as u64);
        let (outcome, _engine) = runner(&spec(cell, rep), &Telemetry::disabled());
        read(cell, rep, outcome)
    })
    .into_iter();
    let per_cell = cells
        .iter()
        .map(|cell| (cell, readings.by_ref().take(reps).collect()));
    per_cell.collect()
}

/// A figure that is a single run: what [`sweep`] does for one cell, once.
/// There is nothing for a second worker to do, so it takes no `jobs`.
pub fn single<S, O, T>(
    runner: fn(&S, &Telemetry) -> (O, EngineStats),
    spec: S,
    read: impl FnOnce(O) -> T,
) -> T {
    let (outcome, _engine) = runner(&spec, &Telemetry::disabled());
    read(outcome)
}

/// What the experiment tests pass as `jobs`: results must not depend on it.
#[cfg(test)]
pub(crate) fn test_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    #[test]
    fn grid_is_row_major() {
        assert_eq!(
            grid(&['a', 'b'], &[1, 2, 3]),
            [('a', 1), ('a', 2), ('a', 3), ('b', 1), ('b', 2), ('b', 3)]
        );
        assert!(grid::<char, u8>(&['a'], &[]).is_empty());
    }

    #[test]
    fn direction_shapes_one_side_and_reads_it_back() {
        let shaped = RateProfile::constant_mbps(0.5);
        let up = Direction::Up.call(VcaKind::Zoom, shaped.clone(), SimDuration::from_secs(7), 3);
        assert_eq!((&up.up, &up.down), (&shaped, &unconstrained()));
        assert_eq!((up.duration_secs, up.seed, &up.knobs), (7.0, 3, &None));
        let down =
            Direction::Down.call(VcaKind::Zoom, shaped.clone(), SimDuration::from_secs(7), 3);
        assert_eq!((&down.up, &down.down), (&unconstrained(), &shaped));
    }

    fn zoom_call(secs: u64) -> TwoPartySpec {
        Direction::Up.call(
            VcaKind::Zoom,
            unconstrained(),
            SimDuration::from_secs(secs),
            1,
        )
    }

    #[test]
    fn sweep_groups_by_cell_in_repetition_order_for_any_jobs() {
        let cells = grid(&[VcaKind::Zoom, VcaKind::Meet], &[0.5, 2.0]);
        let run = |jobs| {
            sweep(
                jobs,
                &cells,
                3,
                run::two_party,
                |&(kind, cap), rep| {
                    let profile = RateProfile::constant_mbps(cap);
                    Direction::Up.call(kind, profile, SimDuration::from_secs(3), 10 + rep)
                },
                |&(kind, cap), rep, out| {
                    let sent: f64 = Direction::Up.series(&out).iter().sum();
                    (kind, cap, rep, sent)
                },
            )
        };
        let serial = run(1);
        assert_eq!(serial.len(), cells.len());
        for (cell, (swept, readings)) in cells.iter().zip(&serial) {
            assert!(std::ptr::eq(cell, *swept));
            assert_eq!(readings.len(), 3);
            for (rep, &(kind, cap, seen_rep, sent)) in readings.iter().enumerate() {
                assert_eq!(((kind, cap), seen_rep), (*cell, rep as u64));
                assert!(sent > 0.0, "{kind:?}@{cap} rep {rep} sent nothing");
            }
        }
        assert_eq!(serial, run(4));
        // No repetitions, no runs: every cell is there and empty.
        let none = sweep(
            2,
            &cells,
            0,
            run::two_party,
            |_, _| unreachable!(),
            |_, _, _| (),
        );
        assert!(none.len() == cells.len() && none.iter().all(|(_, r)| r.is_empty()));
        // A single run is a sweep of one cell, once.
        let frames = single(run::two_party, zoom_call(2), |out| out.c1_frames_decoded);
        assert!(frames > 0);
    }
}
