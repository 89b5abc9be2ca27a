//! Flow-level VCA identification: the harness half of
//! `vcabench-fingerprint`, sitting *ahead of* passive QoE inference.
//!
//! Per-VCA inference presumes the observer knows which application a flow
//! belongs to — a per-family estimator selected by the spec's kind. This
//! module removes that assumption: it
//! taps the same two observation points, folds C1's packets into a
//! [`CallFingerprint`], classifies the call with the training-free rules
//! and the frozen centroid model, and scores identification accuracy
//! against the spec's ground truth (confusion matrix, per-family
//! precision/recall). `repro infer` also routes each run through the
//! classifier to pick a per-family GBT fitted on the pinned training
//! campaign — the full passive pipeline
//! `tap → fingerprint → per-VCA model → QoE`.
//!
//! Every passive report is scored from one [`passive_suite`] run per
//! scenario, which parallelizes with the campaign executor: reports are
//! byte-identical for any `--jobs` value.

use serde::Serialize;
use vcabench_campaign::{run_indexed, ScenarioSpec};
use vcabench_fingerprint::{
    fingerprints, CallFingerprint, CentroidModel, Classifier, FingerprintBank, FlowFingerprint,
    RuleClassifier, VcaFamily, NUM_FP_FEATURES,
};
use vcabench_infer::{GbtModel, TapSpec};
use vcabench_netsim::EngineStats;
use vcabench_telemetry::artifact;
use vcabench_vca::VcaKind;

use crate::campaign::record_run;
use crate::infer::{
    bitrate_errors, fit_gbt, infer_outcome, join_windows, tap_bank, taps_for, MetricScore,
    WindowRow,
};

/// Schema tag of the `IDENTIFY_report.json` artifact.
pub const IDENTIFY_REPORT_SCHEMA: &str = "vcabench-identify-report/v1";
/// Schema tag of the `ROUTED_report.json` artifact.
pub const ROUTED_REPORT_SCHEMA: &str = "vcabench-routed-report/v2";

/// `infer`'s identification gate: minimum centroid accuracy over a suite.
pub const MIN_ID_ACCURACY: f64 = 0.95;

/// `infer`'s routed gate: maximum regression of the identified-routing path's
/// pooled median bitrate error over the spec-routed path, in absolute
/// error (two percentage points).
pub const MAX_ROUTED_DELTA: f64 = 0.02;

/// The application family a [`VcaKind`] identifies as. Browser variants
/// share the native client's wire behaviour profile, so identification
/// targets the family, not the client build.
pub fn family_of(kind: VcaKind) -> VcaFamily {
    match kind {
        VcaKind::Meet => VcaFamily::Meet,
        VcaKind::Teams | VcaKind::TeamsChrome => VcaFamily::Teams,
        VcaKind::Zoom | VcaKind::ZoomChrome => VcaFamily::Zoom,
    }
}

/// The client kind a scenario runs for C1 (the tapped client).
pub fn spec_kind(spec: &ScenarioSpec) -> VcaKind {
    match spec {
        ScenarioSpec::TwoParty(s) => s.kind,
        ScenarioSpec::Competition(s) => s.incumbent,
        ScenarioSpec::Multiparty(s) => s.kind,
    }
}

/// Ground-truth family of a scenario (what the classifier must recover).
pub fn spec_family(spec: &ScenarioSpec) -> VcaFamily {
    family_of(spec_kind(spec))
}

/// Fingerprint tap placement for a scenario: the two observation points
/// [`taps_for`] places for inference (C1 uplink pre-queue, C1 downlink
/// post-queue; the shared bottleneck under competition), send then recv.
pub fn fp_taps_for(spec: &ScenarioSpec) -> [TapSpec; 2] {
    let taps = taps_for(spec);
    [taps.send, taps.recv]
}

/// Run one scenario with the fingerprint bank attached (streaming,
/// online — no event log is kept), returning the call fingerprint and the
/// engine's counters (`benchmark/` reads these).
pub fn run_spec_fingerprint_metered(spec: &ScenarioSpec) -> (CallFingerprint, EngineStats) {
    let (bank, sim, engine) = record_run(spec, FingerprintBank::new(&fp_taps_for(spec)));
    let flows = bank.finish(sim.into_ground_truth().1);
    (call_fingerprint(flows), engine)
}

/// The call fingerprint of the taps [`fp_taps_for`] places: send, then recv.
fn call_fingerprint(mut flows: Vec<FlowFingerprint>) -> CallFingerprint {
    let down = flows.pop().expect("recv tap");
    let up = flows.pop().expect("send tap");
    CallFingerprint { up, down }
}

/// One scenario of a passive suite: its joined inference windows and its
/// call fingerprint, both from the same simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveRun {
    /// Scenario name.
    pub scenario: String,
    /// Ground-truth family from the spec.
    pub truth: VcaFamily,
    /// Joined inference windows.
    pub rows: Vec<WindowRow>,
    /// The observed call fingerprint.
    pub fingerprint: CallFingerprint,
}

/// Run a named-scenario suite on `jobs` workers, simulating each scenario
/// once with one extractor bank attached: its windows are the inference
/// rows, and their sums the call fingerprint. Output order and bytes are
/// independent of `jobs`.
pub fn passive_suite(scenarios: &[(String, ScenarioSpec)], jobs: usize) -> Vec<PassiveRun> {
    run_indexed(scenarios.len(), jobs, |i| {
        let (name, spec) = &scenarios[i];
        let (taps, sim, _engine) = record_run(spec, tap_bank(spec));
        let (stats, duration) = sim.into_ground_truth();
        PassiveRun {
            scenario: name.clone(),
            truth: spec_family(spec),
            fingerprint: call_fingerprint(fingerprints(&taps, duration)),
            rows: join_windows(name, &infer_outcome(taps, stats, duration)),
        }
    })
}

/// Fit a nearest-centroid model from the runs' fingerprints, labeled by
/// their ground truth (run order is
/// preserved, so the fit — and the serialized artifact — is
/// byte-identical for any `--jobs` the suite ran with).
pub fn fit_centroid(runs: &[PassiveRun]) -> Option<CentroidModel> {
    let data: Vec<(VcaFamily, [f64; NUM_FP_FEATURES])> = runs
        .iter()
        .map(|r| (r.truth, r.fingerprint.feature_vector()))
        .collect();
    CentroidModel::fit(&data)
}

/// The pinned training campaign the committed artifacts are fit over
/// (`repro infer --fit`) and the per-family GBTs
/// of `repro infer`'s routed report are fit on: per family, an unshaped
/// two-party call, up- and down-shaped calls, a self-competition run on a
/// 2.5 Mbps bottleneck, and a 4-party call — two seeds for the unshaped
/// case. Training must cover the shaped/congested regimes or the
/// centroids only describe happy-path traffic.
pub fn training_suite(quick: bool) -> Vec<(String, ScenarioSpec)> {
    use vcabench_campaign::{CompetitionSpec, CompetitorSpec, MultipartySpec, TwoPartySpec};
    use vcabench_netsim::RateProfile;
    let dur = if quick { 12.0 } else { 30.0 };
    let (open, mbps) = (crate::run::unconstrained, RateProfile::constant_mbps);
    let mut out = Vec::new();
    for kind in VcaKind::NATIVE {
        let tag = vcabench_campaign::slug(kind.name());
        let two_party = |up, down, seed| {
            ScenarioSpec::TwoParty(TwoPartySpec {
                kind,
                up,
                down,
                duration_secs: dur,
                seed,
                knobs: None,
            })
        };
        out.push((
            format!("train_{tag}_unshaped_s1"),
            two_party(open(), open(), 1),
        ));
        out.push((
            format!("train_{tag}_unshaped_s2"),
            two_party(open(), open(), 2),
        ));
        out.push((
            format!("train_{tag}_up_0.5"),
            two_party(mbps(0.5), open(), 1),
        ));
        out.push((
            format!("train_{tag}_down_0.45"),
            two_party(open(), mbps(0.45), 1),
        ));
        let (start, cdur, total) = if quick {
            (4.0, 8.0, 16.0)
        } else {
            (10.0, 30.0, 50.0)
        };
        out.push((
            format!("train_{tag}_competition_2.5"),
            ScenarioSpec::Competition(CompetitionSpec {
                incumbent: kind,
                competitor: CompetitorSpec::Vca(kind),
                capacity_mbps: 2.5,
                competitor_start_secs: Some(start),
                competitor_duration_secs: Some(cdur),
                total_secs: Some(total),
                seed: 1,
            }),
        ));
        out.push((
            format!("train_{tag}_multiparty_4"),
            ScenarioSpec::Multiparty(MultipartySpec {
                kind,
                n: 4,
                pin_c1: Some(false),
                duration_secs: dur,
                seed: 1,
            }),
        ));
    }
    out
}

/// One scenario's identification outcome under both classifiers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IdentifiedScenario {
    /// Scenario name.
    #[serde(rename = "name")]
    pub scenario: String,
    /// Ground-truth family.
    pub truth: VcaFamily,
    /// The rule classifier's call.
    pub rule: VcaFamily,
    /// The centroid model's call.
    pub centroid: VcaFamily,
}

/// One classifier's aggregate score over a suite.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassifierScore {
    /// Classifier name.
    #[serde(rename = "name")]
    pub classifier: String,
    /// Fraction of scenarios identified correctly.
    pub accuracy: f64,
    /// Confusion counts, `[truth.index()][predicted.index()]` in
    /// [`VcaFamily::ALL`] order.
    pub confusion: [[u64; 3]; 3],
    /// Per-family precision, [`VcaFamily::ALL`] order (1.0 when the
    /// family was never predicted).
    pub precision: [f64; 3],
    /// Per-family recall, [`VcaFamily::ALL`] order (1.0 when the family
    /// never occurred).
    pub recall: [f64; 3],
}

/// The identification report: per-scenario calls plus per-classifier
/// aggregate scores — the `vcabench-identify-report/v1` artifact behind
/// its tag.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IdentifyReport {
    /// The family order ([`VcaFamily::ALL`]) that indexes every confusion
    /// row, precision and recall below.
    pub families: [VcaFamily; 3],
    /// Per-scenario outcomes, in suite order.
    pub scenarios: Vec<IdentifiedScenario>,
    /// Aggregate scores: the rule classifier, then the centroid model.
    #[serde(rename = "classifiers")]
    pub scores: Vec<ClassifierScore>,
}

impl IdentifyReport {
    /// The centroid model's accuracy (the gated headline number).
    pub fn centroid_accuracy(&self) -> f64 {
        self.scores
            .iter()
            .find(|s| s.classifier == "centroid")
            .map(|s| s.accuracy)
            .unwrap_or(0.0)
    }
}

fn score_classifier(name: &str, pairs: &[(VcaFamily, VcaFamily)]) -> ClassifierScore {
    let mut confusion = [[0u64; 3]; 3];
    for (truth, pred) in pairs {
        confusion[truth.index()][pred.index()] += 1;
    }
    let correct: u64 = (0..3).map(|i| confusion[i][i]).sum();
    let total: u64 = pairs.len() as u64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut precision = [0.0; 3];
    let mut recall = [0.0; 3];
    for i in 0..3 {
        let predicted: u64 = (0..3).map(|t| confusion[t][i]).sum();
        let actual: u64 = confusion[i].iter().sum();
        precision[i] = ratio(confusion[i][i], predicted);
        recall[i] = ratio(confusion[i][i], actual);
    }
    ClassifierScore {
        classifier: name.to_string(),
        confusion,
        accuracy: ratio(correct, total),
        precision,
        recall,
    }
}

/// Classify every fingerprint with both classifiers and score them
/// against the ground truth.
pub fn build_identify_report(runs: &[PassiveRun], model: &CentroidModel) -> IdentifyReport {
    let rule = RuleClassifier;
    let scenarios: Vec<IdentifiedScenario> = runs
        .iter()
        .map(|r| IdentifiedScenario {
            scenario: r.scenario.clone(),
            truth: r.truth,
            rule: rule.classify(&r.fingerprint),
            centroid: model.classify(&r.fingerprint),
        })
        .collect();
    let pairs = |f: &dyn Fn(&IdentifiedScenario) -> VcaFamily| -> Vec<(VcaFamily, VcaFamily)> {
        scenarios.iter().map(|s| (s.truth, f(s))).collect()
    };
    IdentifyReport {
        families: VcaFamily::ALL,
        scores: vec![
            score_classifier("rule", &pairs(&|s| s.rule)),
            score_classifier("centroid", &pairs(&|s| s.centroid)),
        ],
        scenarios,
    }
}

/// Render the identification report as deterministic text.
pub fn render_identify_report(report: &IdentifyReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "VCA identification: {} scenarios\n",
        report.scenarios.len()
    ));
    for sc in &report.scenarios {
        let mark = |pred: VcaFamily| if pred == sc.truth { ' ' } else { '!' };
        s.push_str(&format!(
            "  {:<28} truth={:<5} rule={:<5}{} centroid={:<5}{}\n",
            sc.scenario,
            sc.truth.name(),
            sc.rule.name(),
            mark(sc.rule),
            sc.centroid.name(),
            mark(sc.centroid),
        ));
    }
    for score in &report.scores {
        s.push_str(&format!(
            "classifier `{}`: accuracy {:.3}\n",
            score.classifier, score.accuracy
        ));
        s.push_str("  confusion (rows=truth, cols=predicted; Meet/Teams/Zoom):\n");
        for (i, fam) in VcaFamily::ALL.iter().enumerate() {
            s.push_str(&format!(
                "    {:<5} {:>3} {:>3} {:>3}   precision {:.2}  recall {:.2}\n",
                fam.name(),
                score.confusion[i][0],
                score.confusion[i][1],
                score.confusion[i][2],
                score.precision[i],
                score.recall[i],
            ));
        }
    }
    s
}

/// Serialize the identification report as a stable JSON artifact (fixed
/// key order — byte-identical for any `--jobs`).
pub fn identify_report_json(report: &IdentifyReport) -> String {
    artifact::to_json(IDENTIFY_REPORT_SCHEMA, report)
}

/// One scenario's routed-inference outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoutedScenario {
    /// Scenario name.
    #[serde(rename = "name")]
    pub scenario: String,
    /// Ground-truth family from the spec.
    pub truth: VcaFamily,
    /// The classifier's call (what routing actually used).
    pub predicted: VcaFamily,
    /// Joined windows.
    pub windows: usize,
}

/// Cross-VCA generalization: a GBT fit on one family's training rows vs
/// one fit with that family held out, both scored on the family's
/// evaluated windows (out-of-sample: the training campaign and the
/// evaluated suite share no run).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrossVcaRow {
    /// The held-out family.
    pub held_out: VcaFamily,
    /// Evaluated windows of the held-out family.
    pub windows: usize,
    /// Median error of the GBT fit on the family's own training rows.
    pub in_domain_median: f64,
    /// Median error of the GBT fit on the other two families' training
    /// rows only.
    pub transfer_median: f64,
    /// `transfer_median - in_domain_median`.
    pub gap: f64,
}

/// The identified-routing validation report: classifier-routed per-family
/// estimation vs the spec-routed reference, plus the cross-VCA
/// generalization experiment over the same rows — the
/// `vcabench-routed-report/v2` artifact behind its tag.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoutedReport {
    /// Identification accuracy of the routing classifier.
    pub id_accuracy: f64,
    /// Pooled median bitrate error, per-family GBTs selected by the spec
    /// kind.
    pub spec_routed_median: f64,
    /// Pooled median bitrate error, per-family GBTs selected by the
    /// classifier.
    pub identified_median: f64,
    /// `identified_median - spec_routed_median` (positive = the
    /// classifier path is worse).
    pub delta: f64,
    /// Per-scenario routing calls, in suite order.
    pub scenarios: Vec<RoutedScenario>,
    /// Hold-one-family-out generalization rows, [`VcaFamily::ALL`] order.
    pub cross_vca: Vec<CrossVcaRow>,
}

/// Runs' joined windows grouped by ground-truth family
/// ([`VcaFamily::ALL`] order), each group in run order.
fn family_rows(runs: &[PassiveRun]) -> [Vec<WindowRow>; 3] {
    let mut by_family: [Vec<WindowRow>; 3] = Default::default();
    for run in runs {
        by_family[run.truth.index()].extend(run.rows.iter().cloned());
    }
    by_family
}

/// Score the identified-routing comparison over a suite's runs. From the
/// `training` campaign's windows, grouped by family, it fits one GBT per
/// family and one with each family held out; a fit with no usable rows
/// falls back to the pooled `gbt-v1`. Each run's windows are scored
/// through the per-family GBT selected (a) by its ground-truth family and
/// (b) by the centroid classifier, pooling errors across the whole suite
/// before taking medians; the held-out fits give the cross-VCA
/// generalization rows.
pub fn routed_report(
    runs: &[PassiveRun],
    training: &[PassiveRun],
    classifier: &CentroidModel,
) -> RoutedReport {
    let training = family_rows(training);
    let fit = |rows: &[WindowRow]| fit_gbt(rows).unwrap_or_else(GbtModel::builtin);
    let own = VcaFamily::ALL.map(|f| fit(&training[f.index()]));
    let held_out = VcaFamily::ALL.map(|held| {
        let others = VcaFamily::ALL.iter().filter(|&&f| f != held);
        let rows: Vec<WindowRow> = others
            .flat_map(|f| training[f.index()].iter().cloned())
            .collect();
        fit(&rows)
    });
    let mut rows_out = Vec::new();
    let mut spec_errs = Vec::new();
    let mut ident_errs = Vec::new();
    let mut correct = 0usize;
    for run in runs {
        let predicted = classifier.classify(&run.fingerprint);
        if predicted == run.truth {
            correct += 1;
        }
        spec_errs.extend(bitrate_errors(&run.rows, &own[run.truth.index()]));
        ident_errs.extend(bitrate_errors(&run.rows, &own[predicted.index()]));
        rows_out.push(RoutedScenario {
            scenario: run.scenario.clone(),
            truth: run.truth,
            predicted,
            windows: run.rows.len(),
        });
    }
    let by_family = family_rows(runs);
    let cross_vca = VcaFamily::ALL
        .iter()
        .map(|&family| {
            let rows = &by_family[family.index()];
            let median =
                |m: &GbtModel| MetricScore::from_errors(bitrate_errors(rows, m)).median_rel_err;
            let in_domain_median = median(&own[family.index()]);
            let transfer_median = median(&held_out[family.index()]);
            CrossVcaRow {
                held_out: family,
                windows: rows.len(),
                in_domain_median,
                transfer_median,
                gap: transfer_median - in_domain_median,
            }
        })
        .collect();
    let spec_routed_median = MetricScore::from_errors(spec_errs).median_rel_err;
    let identified_median = MetricScore::from_errors(ident_errs).median_rel_err;
    RoutedReport {
        id_accuracy: if runs.is_empty() {
            1.0
        } else {
            correct as f64 / runs.len() as f64
        },
        delta: identified_median - spec_routed_median,
        scenarios: rows_out,
        spec_routed_median,
        identified_median,
        cross_vca,
    }
}

/// Render the routed report as deterministic text.
pub fn render_routed_report(report: &RoutedReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "identified routing: {} scenarios, id accuracy {:.3}\n",
        report.scenarios.len(),
        report.id_accuracy
    ));
    for sc in &report.scenarios {
        let mark = if sc.predicted == sc.truth { ' ' } else { '!' };
        s.push_str(&format!(
            "  {:<28} truth={:<5} routed={:<5}{} windows={}\n",
            sc.scenario,
            sc.truth.name(),
            sc.predicted.name(),
            mark,
            sc.windows
        ));
    }
    s.push_str(&format!(
        "bitrate error (pooled median): spec-routed {:.2}%  identified {:.2}%  delta {:+.2}pp\n",
        report.spec_routed_median * 100.0,
        report.identified_median * 100.0,
        report.delta * 100.0,
    ));
    s.push_str("cross-VCA generalization (hold one family out):\n");
    for row in &report.cross_vca {
        s.push_str(&format!(
            "  held-out {:<5} windows={:<5} in-domain {:.2}%  transfer {:.2}%  gap {:+.2}pp\n",
            row.held_out.name(),
            row.windows,
            row.in_domain_median * 100.0,
            row.transfer_median * 100.0,
            row.gap * 100.0,
        ));
    }
    s
}

/// Serialize the routed report as a stable JSON artifact (fixed key
/// order — byte-identical for any `--jobs`).
pub fn routed_report_json(report: &RoutedReport) -> String {
    artifact::to_json(ROUTED_REPORT_SCHEMA, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::unshaped_two_party;
    use crate::infer::{
        build_report, infer_report_json, render_infer_report, run_spec_infer_metered,
    };
    use vcabench_simcore::SimTime;
    use vcabench_telemetry::{events_jsonl, replay_jsonl, EventLog, Telemetry};

    #[test]
    fn families_cover_every_kind() {
        for kind in VcaKind::ALL {
            let fam = family_of(kind);
            assert!(VcaFamily::ALL.contains(&fam));
        }
        assert_eq!(family_of(VcaKind::ZoomChrome), VcaFamily::Zoom);
        assert_eq!(family_of(VcaKind::TeamsChrome), VcaFamily::Teams);
    }

    #[test]
    fn live_and_offline_fingerprints_are_identical() {
        let spec = unshaped_two_party(VcaKind::Zoom, 8.0, 7);
        let live = run_spec_fingerprint_metered(&spec).0;
        let (tel, log) = Telemetry::with_log(EventLog::unbounded());
        crate::campaign::run_spec_metered(&spec, &tel);
        let jsonl = events_jsonl(&log.borrow());
        let mut bank = FingerprintBank::new(&fp_taps_for(&spec));
        replay_jsonl(&jsonl, &mut bank).expect("replay");
        // Two-party runs end exactly at the spec duration.
        let end = SimTime::ZERO + vcabench_simcore::SimDuration::from_secs_f64(8.0);
        let offline = bank.finish(end);
        let offline = CallFingerprint {
            up: offline[0].clone(),
            down: offline[1].clone(),
        };
        assert_eq!(live, offline);
        assert!(live.up.video_pkts > 0, "uplink saw media");
    }

    #[test]
    fn suite_and_report_are_independent_of_jobs() {
        let scenarios: Vec<(String, ScenarioSpec)> = VcaKind::NATIVE
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                (
                    format!("two_party_{}", vcabench_campaign::slug(kind.name())),
                    unshaped_two_party(kind, 6.0, i as u64 + 1),
                )
            })
            .collect();
        let one = passive_suite(&scenarios, 1);
        let many = passive_suite(&scenarios, 4);
        assert_eq!(one, many);
        let gbt = GbtModel::builtin();
        let (i1, i2) = (build_report(&one, &gbt), build_report(&many, &gbt));
        assert_eq!(infer_report_json(&i1), infer_report_json(&i2));
        assert_eq!(render_infer_report(&i1), render_infer_report(&i2));
        let model = CentroidModel::builtin();
        let r1 = build_identify_report(&one, &model);
        let r2 = build_identify_report(&many, &model);
        assert_eq!(identify_report_json(&r1), identify_report_json(&r2));
        assert_eq!(render_identify_report(&r1), render_identify_report(&r2));
    }

    #[test]
    fn paired_banks_match_the_single_purpose_paths() {
        let spec = unshaped_two_party(VcaKind::Teams, 6.0, 5);
        let runs = passive_suite(&[("teams".to_string(), spec.clone())], 1);
        let solo_rows = join_windows("teams", &run_spec_infer_metered(&spec).0);
        let solo_fp = run_spec_fingerprint_metered(&spec).0;
        assert!(!solo_rows.is_empty());
        assert_eq!(runs[0].rows, solo_rows);
        assert_eq!(runs[0].fingerprint, solo_fp);
        assert_eq!(runs[0].truth, VcaFamily::Teams);
    }

    #[test]
    fn a_family_with_no_training_rows_routes_through_the_pooled_gbt() {
        let named = |kind: VcaKind, seed| {
            let name = format!("two_party_{}", vcabench_campaign::slug(kind.name()));
            (name, unshaped_two_party(kind, 6.0, seed))
        };
        // Only Meet has training rows; the evaluated call is Teams.
        let training = passive_suite(&[named(VcaKind::Meet, 1)], 1);
        assert!(!training[0].rows.is_empty());
        let runs = passive_suite(&[named(VcaKind::Teams, 2)], 1);
        let report = routed_report(&runs, &training, &CentroidModel::builtin());
        let pooled = bitrate_errors(&runs[0].rows, &GbtModel::builtin());
        let pooled = MetricScore::from_errors(pooled).median_rel_err;
        assert!(pooled > 0.0);
        assert_eq!(report.spec_routed_median, pooled);
        let teams = &report.cross_vca[VcaFamily::Teams.index()];
        assert_eq!(
            (teams.windows, teams.in_domain_median),
            (runs[0].rows.len(), pooled)
        );
        // With Teams held out, the fit is over Meet's rows alone.
        let meet = fit_gbt(&training[0].rows).expect("Meet rows fit");
        let meet = MetricScore::from_errors(bitrate_errors(&runs[0].rows, &meet));
        assert_eq!(teams.transfer_median, meet.median_rel_err);
    }

    #[test]
    fn classifier_scores_count_a_known_confusion() {
        use VcaFamily::{Meet, Teams, Zoom};
        let s = score_classifier(
            "test",
            &[(Meet, Meet), (Meet, Teams), (Teams, Teams), (Zoom, Zoom)],
        );
        assert_eq!(s.confusion[0], [1, 1, 0]);
        assert!((s.accuracy - 0.75).abs() < 1e-12);
        assert!((s.recall[0] - 0.5).abs() < 1e-12);
        assert!((s.precision[1] - 0.5).abs() < 1e-12);
        assert_eq!(s.precision[2], 1.0);
    }

    #[test]
    fn training_suite_is_pinned_and_valid() {
        for quick in [false, true] {
            let suite = training_suite(quick);
            assert_eq!(suite.len(), 18);
            for (name, spec) in &suite {
                assert!(name.starts_with("train_"), "{name}");
                spec.validate().expect("training spec valid");
            }
            // Every family appears, and shaped + congested regimes are in.
            for fam in VcaFamily::ALL {
                let n = suite.iter().filter(|(_, s)| spec_family(s) == fam).count();
                assert_eq!(n, 6, "{} scenarios for {}", n, fam.name());
            }
        }
    }
}
