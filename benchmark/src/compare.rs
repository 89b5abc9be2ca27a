//! `bench compare A.json B.json`: a verdict per workload × end-to-end
//! metric, with the layer rows that account for each move listed under it.
//!
//! A and B are merged results of `bench all`. A metric is `worse` or
//! `better` when B's value differs from A's by more than the metric's
//! bound, `same` inside the bound, and `unresolved` when the A/A spread
//! recorded for that workload × metric is itself wider than the bound —
//! then no verdict can be read off two single runs. A rise in
//! `failed_share` is always `worse`.
//!
//! Below the verdicts comes the list of layer rows that moved on their own:
//! every traced run measures every layer row, so a row is measured once per
//! workload, and one that moved the same way by ≥ 10 % in all of them moved
//! for real — which localises a change whose end-to-end effect is still
//! inside the bounds (a 15 % dearer `Link` costs `sim_matrix` about 1 %).

use std::path::Path;

use serde_json::Value;

use crate::metrics::{self, Layer, END_TO_END, LAYERS};
use crate::suite::{aa_spread, metric_value, read_json};
use crate::workloads::Workload;

/// A layer row is listed under an end-to-end move when it moved the same
/// way by at least this share.
const LAYER_MOVE: f64 = 0.10;

/// What two results say about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// Inside the bound.
    Same,
    /// The A/A spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A layer row that accounts for an end-to-end move.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMove {
    /// Layer metric name.
    pub name: &'static str,
    /// Relative change, positive = worse.
    pub worsening: f64,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end metric name (or `failed_share`).
    pub metric: &'static str,
    /// A's and B's values.
    pub values: (f64, f64),
    /// Relative change, positive = worse.
    pub worsening: f64,
    /// The larger A/A spread the two files record.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Layer rows mapped to this workload that moved the same way.
    pub layers: Vec<LayerMove>,
}

fn run<'a>(merged: &'a Value, workload: &str, kind: &str) -> Option<&'a Value> {
    merged.get("workloads")?.get(workload)?.get(kind)
}

fn failed_share(report: &Value) -> Option<f64> {
    let failed = report.get("failed")?.as_f64()?;
    let attempted = report.get("attempted")?.as_f64()?;
    (attempted > 0.0).then(|| failed / attempted)
}

/// How much worse layer row `l` reads in B's traced run of `workload` than
/// in A's (`None` when either file lacks it).
fn layer_worsening(a: &Value, b: &Value, workload: Workload, l: &Layer) -> Option<f64> {
    let (ta, tb) = (
        run(a, workload.name(), "traced")?,
        run(b, workload.name(), "traced")?,
    );
    Some(
        l.better
            .worsening(metric_value(ta, l.name)?, metric_value(tb, l.name)?),
    )
}

/// Layer rows of `workload`'s traced runs that the interaction model maps
/// to it and that moved by at least [`LAYER_MOVE`] in direction `sign`.
fn layer_moves(a: &Value, b: &Value, workload: Workload, sign: f64) -> Vec<LayerMove> {
    let mut moves: Vec<LayerMove> = LAYERS
        .iter()
        .filter(|l| l.moves.contains(&workload))
        .filter_map(|l| {
            let w = layer_worsening(a, b, workload, l)?;
            (w.is_finite() && w * sign >= LAYER_MOVE).then_some(LayerMove {
                name: l.name,
                worsening: w,
            })
        })
        .collect();
    moves.sort_by(|x, y| y.worsening.abs().total_cmp(&x.worsening.abs()));
    moves
}

/// Layer rows that moved the same way by at least [`LAYER_MOVE`] in the
/// traced run of every workload both files hold (at least two), with the
/// smallest of those moves.
pub fn moved_layers(a: &Value, b: &Value) -> Vec<LayerMove> {
    LAYERS
        .iter()
        .filter_map(|l| {
            let moves: Vec<f64> = Workload::ALL
                .iter()
                .filter_map(|&w| layer_worsening(a, b, w, l))
                .collect();
            let sign = moves.first()?.signum();
            (moves.len() >= 2
                && moves
                    .iter()
                    .all(|m| m.is_finite() && m * sign >= LAYER_MOVE))
            .then(|| LayerMove {
                name: l.name,
                worsening: sign * moves.iter().map(|m| m.abs()).fold(f64::INFINITY, f64::min),
            })
        })
        .collect()
}

/// Compare two merged results.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let (Some(ua), Some(ub)) = (run(a, w.name(), "untraced"), run(b, w.name(), "untraced"))
        else {
            continue;
        };
        if let (Some(fa), Some(fb)) = (failed_share(ua), failed_share(ub)) {
            if fa != fb {
                rows.push(Row {
                    workload: w.name(),
                    metric: "failed_share",
                    values: (fa, fb),
                    worsening: fb - fa,
                    spread: 0.0,
                    verdict: if fb > fa {
                        Verdict::Worse
                    } else {
                        Verdict::Better
                    },
                    layers: Vec::new(),
                });
            }
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(ua, m.name), metric_value(ub, m.name)) else {
                continue;
            };
            let worsening = m.better.worsening(va, vb);
            let spread = [a, b]
                .iter()
                .filter_map(|f| aa_spread(f, w.name(), m.name))
                .fold(0.0, f64::max);
            let verdict = if spread > m.bound {
                Verdict::Unresolved
            } else if worsening > m.bound {
                Verdict::Worse
            } else if worsening < -m.bound {
                Verdict::Better
            } else {
                Verdict::Same
            };
            let layers = match verdict {
                Verdict::Worse => layer_moves(a, b, w, 1.0),
                Verdict::Better => layer_moves(a, b, w, -1.0),
                _ => Vec::new(),
            };
            rows.push(Row {
                workload: w.name(),
                metric: m.name,
                values: (va, vb),
                worsening,
                spread,
                verdict,
                layers,
            });
        }
    }
    rows
}

/// `bench compare`: print the verdicts; false (exit 1) if anything is worse.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (va, vb) = (read_json(a)?, read_json(b)?);
    let rows = compare(&va, &vb);
    if rows.is_empty() {
        return Err("the two files share no workload with untraced results".to_string());
    }
    println!("A = {}\nB = {}", a.display(), b.display());
    println!(
        "  {:<20} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "A/A", "bound"
    );
    for r in &rows {
        let bound = metrics::end_to_end(r.metric)
            .map_or("0%".to_string(), |m| format!("{:.0}%", m.bound * 100.0));
        println!(
            "  {:<20} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6}  {}",
            r.workload,
            r.metric,
            r.values.0,
            r.values.1,
            r.worsening * 100.0,
            r.spread * 100.0,
            bound,
            r.verdict.word()
        );
        for l in &r.layers {
            println!(
                "      accounted for by {:<40} {:>+8.2}%",
                l.name,
                l.worsening * 100.0
            );
        }
    }
    let moved = moved_layers(&va, &vb);
    if !moved.is_empty() {
        println!(
            "  layer rows that moved by at least {:.0}% in every workload's traced run:",
            LAYER_MOVE * 100.0
        );
        for l in &moved {
            println!(
                "      {:<44} {:>+8.2}% or more",
                l.name,
                l.worsening * 100.0
            );
        }
    }
    println!("  (change and layer moves are signed so that + is worse)");
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::object;
    use serde_json::Map;

    fn metrics_value(pairs: &[(&str, f64)]) -> Value {
        let m: Map<String, Value> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), object(vec![("value", Value::F64(*v))])))
            .collect();
        Value::Object(m)
    }

    /// A synthetic merged result: `sim_matrix` with the given end-to-end
    /// values, and the same layer rows in the traced run of two workloads.
    fn result(
        e2e: &[(&str, f64)],
        layers: &[(&str, f64)],
        failed: u64,
        aa: &[(&str, f64)],
    ) -> Value {
        let untraced = object(vec![
            ("attempted", Value::U64(111)),
            ("failed", Value::U64(failed)),
            ("metrics", metrics_value(e2e)),
        ]);
        let traced = || object(vec![("metrics", metrics_value(layers))]);
        let spread: Map<String, Value> = aa
            .iter()
            .map(|(k, v)| (k.to_string(), object(vec![("rel_diff", Value::F64(*v))])))
            .collect();
        object(vec![
            (
                "workloads",
                object(vec![
                    (
                        "sim_matrix",
                        object(vec![("untraced", untraced), ("traced", traced())]),
                    ),
                    ("cached_rerun", object(vec![("traced", traced())])),
                ]),
            ),
            (
                "aa",
                object(vec![(
                    "spread",
                    object(vec![("sim_matrix", Value::Object(spread))]),
                )]),
            ),
        ])
    }

    const BASE_E2E: [(&str, f64); 3] = [
        ("sim_s_per_wall_s", 1000.0),
        ("op_ms_p50", 50.0),
        ("allocs_per_op", 20000.0),
    ];
    const BASE_LAYERS: [(&str, f64); 3] = [
        ("netsim.link_ns_per_packet_full", 100.0),
        ("simcore.queue_ns_per_op", 60.0),
        ("campaign.cached_invoke_ms", 170.0),
    ];

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("row present")
    }

    #[test]
    fn an_injected_link_slowdown_is_flagged_and_localised() {
        let a = result(&BASE_E2E, &BASE_LAYERS, 0, &[("sim_s_per_wall_s", 0.02)]);
        // Link service 15 % dearer and the engine-bound workload slower past
        // its bound; an unrelated layer row moves too but is not mapped to
        // sim_matrix.
        let b = result(
            &[
                ("sim_s_per_wall_s", 780.0),
                ("op_ms_p50", 64.0),
                ("allocs_per_op", 20000.0),
            ],
            &[
                ("netsim.link_ns_per_packet_full", 115.0),
                ("simcore.queue_ns_per_op", 61.0),
                ("campaign.cached_invoke_ms", 250.0),
            ],
            0,
            &[],
        );
        let rows = compare(&a, &b);
        let throughput = row(&rows, "sim_s_per_wall_s");
        assert_eq!(throughput.verdict, Verdict::Worse);
        assert_eq!(throughput.layers.len(), 1, "{:?}", throughput.layers);
        assert_eq!(throughput.layers[0].name, "netsim.link_ns_per_packet_full");
        assert!((throughput.layers[0].worsening - 0.15).abs() < 1e-9);
        assert_eq!(row(&rows, "op_ms_p50").verdict, Verdict::Worse);
        assert_eq!(row(&rows, "allocs_per_op").verdict, Verdict::Same);
    }

    #[test]
    fn a_layer_that_moved_everywhere_is_localised_even_inside_the_bounds() {
        let a = result(&BASE_E2E, &BASE_LAYERS, 0, &[]);
        // What a 15 % dearer Link really costs sim_matrix: about 1 %.
        let b = result(
            &[
                ("sim_s_per_wall_s", 988.0),
                ("op_ms_p50", 50.5),
                ("allocs_per_op", 20000.0),
            ],
            &[
                ("netsim.link_ns_per_packet_full", 115.0),
                ("simcore.queue_ns_per_op", 63.0),
                ("campaign.cached_invoke_ms", 170.0),
            ],
            0,
            &[],
        );
        assert!(compare(&a, &b).iter().all(|r| r.verdict == Verdict::Same));
        let moved = moved_layers(&a, &b);
        assert_eq!(moved.len(), 1, "{moved:?}");
        assert_eq!(moved[0].name, "netsim.link_ns_per_packet_full");
        assert!((moved[0].worsening - 0.15).abs() < 1e-9);
        assert!(moved_layers(&a, &a.clone()).is_empty());
    }

    #[test]
    fn a_four_percent_wobble_is_not_flagged() {
        let a = result(&BASE_E2E, &BASE_LAYERS, 0, &[]);
        let b = result(
            &[
                ("sim_s_per_wall_s", 960.0),
                ("op_ms_p50", 52.0),
                ("allocs_per_op", 20000.0),
            ],
            &[("netsim.link_ns_per_packet_full", 104.0)],
            0,
            &[],
        );
        let rows = compare(&a, &b);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same), "{rows:?}");
        assert!(rows.iter().all(|r| r.layers.is_empty()));
        assert!(moved_layers(&a, &b).is_empty());
        let back = compare(&b, &a);
        assert!(back.iter().all(|r| r.verdict == Verdict::Same));
    }

    #[test]
    fn a_rise_in_failed_share_is_always_worse() {
        let a = result(&BASE_E2E, &BASE_LAYERS, 0, &[]);
        let b = result(&BASE_E2E, &BASE_LAYERS, 1, &[]);
        let rows = compare(&a, &b);
        let failed = row(&rows, "failed_share");
        assert_eq!(failed.verdict, Verdict::Worse);
        assert!(rows
            .iter()
            .filter(|r| r.metric != "failed_share")
            .all(|r| r.verdict == Verdict::Same));
        assert_eq!(
            row(&compare(&b, &a), "failed_share").verdict,
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [("sim_s_per_wall_s", 0.30)];
        let a = result(&BASE_E2E, &BASE_LAYERS, 0, &noisy);
        let b = result(
            &[
                ("sim_s_per_wall_s", 700.0),
                ("op_ms_p50", 50.0),
                ("allocs_per_op", 20000.0),
            ],
            &BASE_LAYERS,
            0,
            &[],
        );
        let rows = compare(&a, &b);
        assert_eq!(row(&rows, "sim_s_per_wall_s").verdict, Verdict::Unresolved);
        assert_eq!(row(&rows, "op_ms_p50").verdict, Verdict::Same);
    }

    #[test]
    fn a_gain_is_better_and_lists_the_layer_that_got_cheaper() {
        let a = result(&BASE_E2E, &BASE_LAYERS, 0, &[]);
        let b = result(
            &[
                ("sim_s_per_wall_s", 1300.0),
                ("op_ms_p50", 36.0),
                ("allocs_per_op", 20000.0),
            ],
            &[
                ("simcore.queue_ns_per_op", 40.0),
                ("netsim.link_ns_per_packet_full", 100.0),
            ],
            0,
            &[],
        );
        let rows = compare(&a, &b);
        let throughput = row(&rows, "sim_s_per_wall_s");
        assert_eq!(throughput.verdict, Verdict::Better);
        assert_eq!(throughput.layers[0].name, "simcore.queue_ns_per_op");
        assert_eq!(row(&rows, "op_ms_p50").verdict, Verdict::Better);
    }
}
