//! Passive-inference validation: run scenarios with taps attached, join
//! the estimates against ground-truth stats, score the estimators.
//!
//! This is the harness half of `vcabench-infer` (see that crate for the
//! extraction and estimation layers). For every scenario it places two
//! passive observers on C1's path — a *send* tap before the first queue
//! C1's uplink traffic enters, and a *recv* tap after the last queue its
//! downlink traffic leaves — runs the simulation once with the streaming
//! extractors attached, and joins the per-second window features against
//! the client's own `stats_api` samples:
//!
//! | estimate (passive)            | ground truth (stats API)          |
//! |-------------------------------|-----------------------------------|
//! | send-tap video payload rate   | `send_media_bytes` per-second Δ   |
//! | recv-tap video payload rate   | `recv_media_bytes` per-second Δ   |
//! | recv-tap decodable frames     | `frames_decoded` per-second Δ     |
//! | recv-tap freeze replica       | `freeze_count`/`freeze_time` Δ    |
//!
//! Everything here is a pure function of the specs, so a report built
//! from [`passive_suite`](crate::fingerprint::passive_suite) runs is
//! byte-identical for any `--jobs` value.

use std::sync::Arc;

use serde::Serialize;
use vcabench_campaign::ScenarioSpec;
use vcabench_infer::{
    gbt_feature_vector, Estimator, GbtModel, HeuristicEstimator, TapBank, TapSpec, Vantage,
    WindowFeatures, NUM_GBT_FEATURES,
};
use vcabench_netsim::EngineStats;
use vcabench_simcore::SimTime;
use vcabench_telemetry::artifact;
use vcabench_vca::{counter_delta, StatsSample};

use crate::campaign::record_run;
use crate::fingerprint::PassiveRun;

/// Schema tag of the `INFER_report.json` artifact.
pub const INFER_REPORT_SCHEMA: &str = "vcabench-infer-report/v2";

/// `infer`'s gate: maximum pooled median relative bitrate error of the GBT
/// estimator.
pub const MAX_BITRATE_ERR: f64 = 0.05;
/// `infer`'s gate: minimum freeze recall of the GBT estimator.
pub const MIN_FREEZE_RECALL: f64 = 0.8;

/// The two frozen models by file stem, kept only because
/// `benchmark/src/surface.rs` names it: product code loads a model with
/// `GbtModel::builtin()` / `CentroidModel::builtin()`.
pub fn model_registry() -> FrozenModels {
    FrozenModels
}

/// What [`model_registry`] returns: a fixed table of two rows.
#[derive(Debug)]
pub struct FrozenModels;

impl FrozenModels {
    /// The committed artifact text of `gbt-v1` or `centroid-v1`.
    pub fn raw_json(&self, name: &str) -> Result<&'static str, String> {
        match name {
            "gbt-v1" => Ok(include_str!("../../infer/models/gbt-v1.json")),
            "centroid-v1" => Ok(include_str!("../../fingerprint/models/centroid-v1.json")),
            _ => Err(format!("unknown model `{name}` (gbt-v1, centroid-v1)")),
        }
    }

    /// [`FrozenModels::raw_json`] through `GbtModel::from_json`.
    pub fn gbt(&self, name: &str) -> Result<GbtModel, String> {
        GbtModel::from_json(self.raw_json(name)?)
    }
}

/// The two observation points used to validate a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioTaps {
    /// Pre-queue observer of C1's uplink media flow.
    pub send: TapSpec,
    /// Post-queue observer of C1's downlink media flow.
    pub recv: TapSpec,
}

/// Tap placement for a scenario. Link and flow indices are topology
/// constants: every topology builder creates C1's access links first
/// (uplink 0, downlink 1) and `wire_call` numbers C1's flows from base
/// 10 (up 10, down 11). The competition topology instead taps the shared
/// bottleneck (links 4/5), where the incumbent's traffic actually
/// contends — C1's access links there are unconstrained. A test below
/// pins these constants against the real topology builders.
pub fn taps_for(spec: &ScenarioSpec) -> ScenarioTaps {
    let (up_link, down_link) = match spec {
        ScenarioSpec::Competition(_) => (4, 5),
        ScenarioSpec::TwoParty(_) | ScenarioSpec::Multiparty(_) => (0, 1),
    };
    ScenarioTaps {
        send: TapSpec {
            link: up_link,
            flow: 10,
            vantage: Vantage::Send,
        },
        recv: TapSpec {
            link: down_link,
            flow: 11,
            vantage: Vantage::Recv,
        },
    }
}

/// One scenario's inference run: extracted windows plus ground truth.
#[derive(Debug, Clone)]
pub struct InferOutcome {
    /// Send-tap windows.
    pub send: Vec<WindowFeatures>,
    /// Recv-tap windows.
    pub recv: Vec<WindowFeatures>,
    /// C1's per-second ground-truth samples.
    pub stats: Vec<StatsSample>,
    /// Simulated end time.
    pub duration: SimTime,
}

/// Run one scenario with the two extractors attached (streaming, online —
/// no event log is kept), also returning the engine's counters
/// (`benchmark/` reads these).
pub fn run_spec_infer_metered(spec: &ScenarioSpec) -> (InferOutcome, EngineStats) {
    let (bank, sim, engine) = record_run(spec, tap_bank(spec));
    let (stats, duration) = sim.into_ground_truth();
    (infer_outcome(bank, stats, duration), engine)
}

/// The extractor bank [`taps_for`] places on a scenario: send, then recv.
pub(crate) fn tap_bank(spec: &ScenarioSpec) -> TapBank {
    let taps = taps_for(spec);
    TapBank::new(&[taps.send, taps.recv])
}

/// Seal a [`tap_bank`] at the end of its run.
pub(crate) fn infer_outcome(
    bank: TapBank,
    stats: Vec<StatsSample>,
    duration: SimTime,
) -> InferOutcome {
    let mut windows = bank.finish(duration);
    let recv = windows.pop().expect("recv tap");
    let send = windows.pop().expect("send tap");
    InferOutcome {
        send,
        recv,
        stats,
        duration,
    }
}

/// One joined window: passive features plus the ground truth the
/// estimates are scored against (`None` where no stats sample brackets
/// the window — e.g. before the first per-second sample).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Scenario name the window came from, one allocation shared by all
    /// of the scenario's rows.
    pub scenario: Arc<str>,
    /// Window index (seconds).
    pub window: u64,
    /// Send-tap features.
    pub send: WindowFeatures,
    /// Recv-tap features.
    pub recv: WindowFeatures,
    /// True send media rate, Mbps.
    pub gt_send_mbps: Option<f64>,
    /// True receive media rate, Mbps.
    pub gt_recv_mbps: Option<f64>,
    /// True decoded frames (all remote senders).
    pub gt_frames: Option<u64>,
    /// True freezes registered in the window.
    pub gt_freeze_count: Option<u64>,
}

/// Join one scenario's windows against its ground-truth samples.
pub fn join_windows(scenario: &str, out: &InferOutcome) -> Vec<WindowRow> {
    let scenario: Arc<str> = Arc::from(scenario);
    let delta = |w: u64, f: &dyn Fn(&StatsSample) -> u64| {
        counter_delta(
            &out.stats,
            SimTime::from_secs(w),
            SimTime::from_secs(w + 1),
            f,
        )
    };
    out.send
        .iter()
        .zip(out.recv.iter())
        .map(|(send, recv)| {
            let w = send.window;
            WindowRow {
                scenario: Arc::clone(&scenario),
                window: w,
                send: send.clone(),
                recv: recv.clone(),
                gt_send_mbps: delta(w, &|s| s.send_media_bytes).map(|b| b as f64 * 8e-6),
                gt_recv_mbps: delta(w, &|s| s.recv_media_bytes).map(|b| b as f64 * 8e-6),
                gt_frames: delta(w, &|s| s.frames_decoded),
                gt_freeze_count: delta(w, &|s| s.freeze_count),
            }
        })
        .collect()
}

/// Ground-truth rates below this are skipped for relative error (the
/// ratio is unstable when the true rate is near zero, e.g. during the
/// first ramp-up second or a competition-induced outage).
const MIN_GT_MBPS: f64 = 0.01;
/// Minimum true frames per window for FPS relative error.
const MIN_GT_FRAMES: u64 = 1;
/// Freeze matching tolerance, windows. Both the replica and the client
/// stamp a freeze at its *recovery* frame, but they recover on different
/// timelines: the tap sees queue-retimed packets mid-path, while the
/// client's decode clock stalls through keyframe re-request after a loss
/// — so one client-side freeze episode can resolve as two counts a
/// couple of seconds apart. An estimate within ±2 windows of a true
/// freeze counts as the same episode.
const FREEZE_WINDOW_SLACK: u64 = 2;

/// Accuracy of one metric over a pool of windows: the distribution of
/// `|est − truth| / truth`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricScore {
    /// Windows scored.
    pub n: usize,
    /// Median absolute relative error.
    pub median_rel_err: f64,
    /// Mean absolute relative error.
    pub mean_rel_err: f64,
    /// Error CDF: 0th, 10th, …, 100th percentiles.
    pub deciles: Vec<f64>,
}

impl MetricScore {
    /// Summarize a pool of absolute relative errors (deterministic: the
    /// pool is sorted with `total_cmp` before percentiles are read).
    pub fn from_errors(mut errs: Vec<f64>) -> MetricScore {
        errs.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            if errs.is_empty() {
                return 0.0;
            }
            let idx = (p * (errs.len() - 1) as f64).round() as usize;
            errs[idx.min(errs.len() - 1)]
        };
        MetricScore {
            n: errs.len(),
            median_rel_err: pct(0.5),
            mean_rel_err: if errs.is_empty() {
                0.0
            } else {
                errs.iter().sum::<f64>() / errs.len() as f64
            },
            deciles: (0..=10).map(|d| pct(d as f64 / 10.0)).collect(),
        }
    }
}

/// Window-level freeze detection quality.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FreezeScore {
    /// Windows with a true freeze.
    pub gt_windows: usize,
    /// Windows with an estimated freeze.
    pub est_windows: usize,
    /// Share of the estimated freezes a truth matches within the slack (1.0
    /// when nothing was estimated).
    pub precision: f64,
    /// Share of the true freezes an estimate matches within the slack (1.0
    /// when nothing was frozen).
    pub recall: f64,
}

/// One estimator's scores over a window pool.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EstimatorScore {
    /// Estimator name.
    #[serde(rename = "name")]
    pub estimator: String,
    /// Send- and recv-tap bitrate errors pooled (the headline gate).
    pub bitrate: MetricScore,
    /// Send-tap bitrate errors alone.
    pub send_bitrate: MetricScore,
    /// Recv-tap bitrate errors alone.
    pub recv_bitrate: MetricScore,
    /// Decoded-FPS errors (recv tap only).
    pub fps: MetricScore,
    /// Freeze precision/recall (recv tap only).
    pub freeze: FreezeScore,
}

/// `|est − truth| / truth`.
fn rel_err(est: f64, gt: f64) -> f64 {
    (est - gt).abs() / gt
}

/// One tap's relative bitrate error in one window, unless its ground
/// truth is missing or below the [`MIN_GT_MBPS`] floor (the estimate is
/// only asked for when it will be scored).
fn tap_bitrate_error(gt: Option<f64>, est_mbps: impl FnOnce() -> f64) -> Option<f64> {
    gt.filter(|&gt| gt >= MIN_GT_MBPS)
        .map(|gt| rel_err(est_mbps(), gt))
}

/// Pooled absolute relative bitrate errors of one estimator over joined
/// rows — send and recv taps alike, with the same near-zero ground-truth
/// floor [`score`] applies. The raw pool lets callers (e.g. the
/// fingerprint-routed comparison) merge errors across differently-routed
/// scenario groups before taking a median.
pub fn bitrate_errors(rows: &[WindowRow], est: &dyn Estimator) -> Vec<f64> {
    let mut errs = Vec::with_capacity(2 * rows.len());
    for row in rows {
        errs.extend(tap_bitrate_error(row.gt_send_mbps, || {
            est.estimate(&row.send).media_mbps
        }));
        errs.extend(tap_bitrate_error(row.gt_recv_mbps, || {
            est.estimate(&row.recv).media_mbps
        }));
    }
    errs
}

/// Score one estimator over joined rows.
pub fn score(rows: &[WindowRow], est: &dyn Estimator) -> EstimatorScore {
    let mut send_errs = Vec::new();
    let mut recv_errs = Vec::new();
    let mut fps_errs = Vec::new();
    // Freeze-positive windows, per scenario boundary-safe keying.
    let mut gt_pos: Vec<(&str, u64)> = Vec::new();
    let mut est_pos: Vec<(&str, u64)> = Vec::new();
    for row in rows {
        let e_recv = est.estimate(&row.recv);
        send_errs.extend(tap_bitrate_error(row.gt_send_mbps, || {
            est.estimate(&row.send).media_mbps
        }));
        recv_errs.extend(tap_bitrate_error(row.gt_recv_mbps, || e_recv.media_mbps));
        if let Some(gt) = row.gt_frames {
            if gt >= MIN_GT_FRAMES {
                fps_errs.push(rel_err(e_recv.fps, gt as f64));
            }
        }
        if row.gt_freeze_count.unwrap_or(0) > 0 {
            gt_pos.push((&row.scenario, row.window));
        }
        if e_recv.freeze_count > 0 {
            est_pos.push((&row.scenario, row.window));
        }
    }
    let near =
        |a: &(&str, u64), b: &(&str, u64)| a.0 == b.0 && a.1.abs_diff(b.1) <= FREEZE_WINDOW_SLACK;
    let matched_gt = gt_pos
        .iter()
        .filter(|g| est_pos.iter().any(|e| near(g, e)))
        .count();
    let matched_est = est_pos
        .iter()
        .filter(|e| gt_pos.iter().any(|g| near(g, e)))
        .count();
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut pooled = send_errs.clone();
    pooled.extend_from_slice(&recv_errs);
    EstimatorScore {
        estimator: est.name().to_string(),
        bitrate: MetricScore::from_errors(pooled),
        send_bitrate: MetricScore::from_errors(send_errs),
        recv_bitrate: MetricScore::from_errors(recv_errs),
        fps: MetricScore::from_errors(fps_errs),
        freeze: FreezeScore {
            gt_windows: gt_pos.len(),
            est_windows: est_pos.len(),
            precision: ratio(matched_est, est_pos.len()),
            recall: ratio(matched_gt, gt_pos.len()),
        },
    }
}

/// Per-scenario bitrate summary (the EXPERIMENTS.md table rows).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioScore {
    /// Scenario name.
    #[serde(rename = "name")]
    pub scenario: String,
    /// Joined windows.
    pub windows: usize,
    /// Median pooled bitrate error of the heuristic estimator.
    pub heuristic_bitrate_err: f64,
    /// Median pooled bitrate error of the GBT estimator.
    pub gbt_bitrate_err: f64,
    /// True freeze windows in this scenario.
    pub gt_freeze_windows: usize,
}

/// The full validation report: the `vcabench-infer-report/v2` artifact
/// behind its tag.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InferReport {
    /// Total joined windows.
    pub windows: usize,
    /// Pooled scores per estimator.
    pub estimators: Vec<EstimatorScore>,
    /// Per-scenario summaries, in suite order.
    pub scenarios: Vec<ScenarioScore>,
}

/// Score the suite with the heuristic baseline and the GBT estimator.
pub fn build_report(runs: &[PassiveRun], gbt: &GbtModel) -> InferReport {
    let all: Vec<WindowRow> = runs.iter().flat_map(|r| r.rows.iter().cloned()).collect();
    let heuristic = score(&all, &HeuristicEstimator);
    let boosted = score(&all, gbt);
    let scenarios = runs
        .iter()
        .filter(|run| !run.rows.is_empty())
        .map(|PassiveRun { scenario, rows, .. }| ScenarioScore {
            scenario: scenario.clone(),
            windows: rows.len(),
            heuristic_bitrate_err: score(rows, &HeuristicEstimator).bitrate.median_rel_err,
            gbt_bitrate_err: score(rows, gbt).bitrate.median_rel_err,
            gt_freeze_windows: rows
                .iter()
                .filter(|r| r.gt_freeze_count.unwrap_or(0) > 0)
                .count(),
        })
        .collect();
    InferReport {
        windows: all.len(),
        estimators: vec![heuristic, boosted],
        scenarios,
    }
}

/// Weighted training rows `(features, truth, weight)` for one target.
type TrainingRows = Vec<([f64; NUM_GBT_FEATURES], f64, f64)>;

/// The GBT's training layout: bitrate targets on both taps, FPS targets
/// on the recv tap, rows in input order. Rows are weighted by `1/truth²`
/// so a fit minimizes relative error — the same quantity the accuracy
/// gates measure — with the truth floored to keep near-outage windows
/// from dominating.
fn training_rows(rows: &[WindowRow]) -> (TrainingRows, TrainingRows) {
    let rel_weight = |gt: f64, floor: f64| 1.0 / (gt.max(floor) * gt.max(floor));
    let mut bitrate = Vec::new();
    let mut fps = Vec::new();
    for row in rows {
        for (gt, tap) in [(row.gt_send_mbps, &row.send), (row.gt_recv_mbps, &row.recv)] {
            if let Some(gt) = gt.filter(|&gt| gt >= MIN_GT_MBPS) {
                bitrate.push((gbt_feature_vector(tap), gt, rel_weight(gt, 0.1)));
            }
        }
        if let Some(gt) = row.gt_frames.filter(|&gt| gt >= MIN_GT_FRAMES) {
            let x = gbt_feature_vector(&row.recv);
            fps.push((x, gt as f64, rel_weight(gt as f64, 1.0)));
        }
    }
    (bitrate, fps)
}

/// Fit a GBT model from joined rows (bitrate on both taps, FPS on the
/// recv tap, relative-error weights; `None` when the rows hold no usable
/// window). Deterministic: rows are consumed in order and the trainer
/// has no randomness, so refitting on the same campaign reproduces the
/// frozen artifact byte for byte.
pub fn fit_gbt(rows: &[WindowRow]) -> Option<GbtModel> {
    let (bitrate, fps) = training_rows(rows);
    GbtModel::fit(&bitrate, &fps)
}

/// Render the report as deterministic text.
pub fn render_infer_report(report: &InferReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "passive QoE inference: {} joined windows, {} scenarios\n",
        report.windows,
        report.scenarios.len()
    ));
    for est in &report.estimators {
        s.push_str(&format!("estimator `{}`:\n", est.estimator));
        for (label, m) in [
            ("bitrate (pooled)", &est.bitrate),
            ("bitrate (send)", &est.send_bitrate),
            ("bitrate (recv)", &est.recv_bitrate),
            ("fps (recv)", &est.fps),
        ] {
            s.push_str(&format!(
                "  {label:<16} n={:<5} median {:>6.1}%  mean {:>6.1}%  p90 {:>6.1}%\n",
                m.n,
                m.median_rel_err * 100.0,
                m.mean_rel_err * 100.0,
                m.deciles[9] * 100.0,
            ));
        }
        let f = &est.freeze;
        s.push_str(&format!(
            "  freeze           gt={} est={} precision {:.2} recall {:.2}\n",
            f.gt_windows, f.est_windows, f.precision, f.recall
        ));
    }
    s.push_str("per scenario (median pooled bitrate error):\n");
    for sc in &report.scenarios {
        s.push_str(&format!(
            "  {:<22} windows={:<4} heuristic {:>6.1}%  gbt {:>6.1}%  freeze-windows={}\n",
            sc.scenario,
            sc.windows,
            sc.heuristic_bitrate_err * 100.0,
            sc.gbt_bitrate_err * 100.0,
            sc.gt_freeze_windows
        ));
    }
    s
}

/// Serialize the report as a stable JSON artifact (fixed key order).
pub fn infer_report_json(report: &InferReport) -> String {
    artifact::to_json(INFER_REPORT_SCHEMA, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::unshaped_two_party;
    use vcabench_telemetry::{events_jsonl, replay_jsonl, EventLog, Telemetry};
    use vcabench_vca::VcaKind;

    #[test]
    fn tap_constants_match_the_topology_builders() {
        use crate::run;
        use vcabench_campaign::{CompetitionSpec, CompetitorSpec, MultipartySpec};
        // The measured hop's `[up, down]` link ids and C1's `[up, down]`
        // flow ids, read off the call each runner builds.
        let built = |spec: &ScenarioSpec| {
            let tel = Telemetry::disabled();
            let flows = |h: &vcabench_vca::CallHandles| [h.up_flows[0].0, h.down_flows[0].0];
            match spec {
                ScenarioSpec::TwoParty(s) => {
                    let read = |c: &run::TwoPartyCall, _| {
                        ([c.topo.c1_up.0, c.topo.c1_down.0], flows(&c.handles))
                    };
                    run::two_party_on(s, |_| {}, &tel, read).0
                }
                ScenarioSpec::Competition(s) => {
                    let read = |c: &run::CompetitionCall, _| {
                        let t = &c.topo;
                        ([t.bottleneck_up.0, t.bottleneck_down.0], flows(&c.handles))
                    };
                    run::competition_on(s, |_| {}, &tel, read).0
                }
                ScenarioSpec::Multiparty(s) => {
                    let read = |c: &run::MultipartyCall, _| {
                        (
                            [c.topo.uplinks[0].0, c.topo.downlinks[0].0],
                            flows(&c.handles),
                        )
                    };
                    run::multiparty_on(s, |_| {}, &tel, read).0
                }
            }
        };
        let specs = [
            unshaped_two_party(VcaKind::Meet, 0.1, 1),
            ScenarioSpec::Competition(CompetitionSpec {
                competitor_start_secs: Some(0.0),
                competitor_duration_secs: Some(0.1),
                total_secs: Some(0.1),
                ..CompetitionSpec::paper(VcaKind::Meet, CompetitorSpec::IperfUp, 10.0, 1)
            }),
            ScenarioSpec::Multiparty(MultipartySpec {
                kind: VcaKind::Meet,
                n: 4,
                pin_c1: None,
                duration_secs: 0.1,
                seed: 1,
            }),
        ];
        for spec in &specs {
            let taps = taps_for(spec);
            let links = [taps.send.link as usize, taps.recv.link as usize];
            assert_eq!(built(spec), (links, [taps.send.flow, taps.recv.flow]));
        }
    }

    #[test]
    fn live_and_offline_extraction_are_identical() {
        let spec = unshaped_two_party(VcaKind::Meet, 8.0, 7);
        let live = run_spec_infer_metered(&spec).0;
        // Offline: capture the full event log of an identical run, then
        // replay the JSONL export through a fresh bank.
        let (tel, log) = Telemetry::with_log(EventLog::unbounded());
        crate::campaign::run_spec_metered(&spec, &tel);
        let jsonl = events_jsonl(&log.borrow());
        let taps = taps_for(&spec);
        let mut bank = TapBank::new(&[taps.send, taps.recv]);
        replay_jsonl(&jsonl, &mut bank).expect("replay");
        let offline = bank.finish(live.duration);
        assert_eq!(live.send, offline[0]);
        assert_eq!(live.recv, offline[1]);
        assert!(!live.send.is_empty());
    }

    #[test]
    fn joined_rows_score_sanely_on_a_short_call() {
        let spec = unshaped_two_party(VcaKind::Meet, 12.0, 3);
        let rows = join_windows("two_party_meet", &run_spec_infer_metered(&spec).0);
        assert!(!rows.is_empty());
        // Window 0 has no sample at its left endpoint: ground truth None.
        assert!(rows[0].gt_send_mbps.is_none());
        let with_gt = rows.iter().filter(|r| r.gt_recv_mbps.is_some()).count();
        assert!(with_gt >= 8, "most windows join: {with_gt}");
        // Meet sends little FEC, so even the heuristic is close.
        let s = score(&rows, &HeuristicEstimator);
        assert!(
            s.recv_bitrate.median_rel_err < 0.15,
            "recv bitrate err {}",
            s.recv_bitrate.median_rel_err
        );
        assert!(
            s.fps.median_rel_err < 0.25,
            "fps err {}",
            s.fps.median_rel_err
        );
        // Unconstrained call: no freezes on either side.
        assert_eq!(s.freeze.gt_windows, 0);
        assert_eq!(s.freeze.recall, 1.0);
    }

    #[test]
    fn suite_output_is_independent_of_jobs() {
        let scenarios: Vec<(String, ScenarioSpec)> = vec![
            (
                "meet".to_string(),
                unshaped_two_party(VcaKind::Meet, 6.0, 1),
            ),
            (
                "zoom".to_string(),
                unshaped_two_party(VcaKind::Zoom, 6.0, 2),
            ),
            (
                "teams".to_string(),
                unshaped_two_party(VcaKind::Teams, 6.0, 3),
            ),
        ];
        let one = crate::fingerprint::passive_suite(&scenarios, 1);
        let many = crate::fingerprint::passive_suite(&scenarios, 4);
        for ((name, spec), run) in scenarios.iter().zip(&many) {
            let solo = join_windows(name, &run_spec_infer_metered(spec).0);
            assert_eq!(run.rows, solo, "{name}");
        }
        let gbt = GbtModel::builtin();
        let r1 = build_report(&one, &gbt);
        let r2 = build_report(&many, &gbt);
        assert_eq!(infer_report_json(&r1), infer_report_json(&r2));
        assert_eq!(render_infer_report(&r1), render_infer_report(&r2));
    }

    #[test]
    fn model_registry_names_the_two_builtin_models_and_nothing_else() {
        use vcabench_fingerprint::CentroidModel;
        let models = model_registry();
        assert_eq!(models.gbt("gbt-v1"), Ok(GbtModel::builtin()));
        let centroid = models
            .raw_json("centroid-v1")
            .and_then(CentroidModel::from_json);
        assert_eq!(centroid, Ok(CentroidModel::builtin()));
        // A model of the other type fails in the typed loader's schema check.
        assert!(models.gbt("centroid-v1").unwrap_err().contains("schema"));
        let err = models.raw_json("resnet-v1").unwrap_err();
        assert!(err.contains("unknown model `resnet-v1`"), "{err}");
    }

    #[test]
    fn metric_score_percentiles_are_deterministic() {
        let m = MetricScore::from_errors(vec![0.5, 0.1, 0.3, 0.2, 0.4]);
        assert_eq!(m.n, 5);
        assert!((m.median_rel_err - 0.3).abs() < 1e-12);
        assert!((m.mean_rel_err - 0.3).abs() < 1e-12);
        assert_eq!(m.deciles.len(), 11);
        assert!((m.deciles[0] - 0.1).abs() < 1e-12);
        assert!((m.deciles[10] - 0.5).abs() < 1e-12);
        let empty = MetricScore::from_errors(vec![]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.median_rel_err, 0.0);
    }
}
