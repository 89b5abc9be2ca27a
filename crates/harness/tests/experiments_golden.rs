//! Golden digests of every experiment result and every report artifact.
//!
//! Each table/figure module's `run` is executed on a configuration small
//! enough for a debug build and its serialized result pinned by digest
//! (the `golden_bytes.rs` idiom: double FNV plus a byte count per row).
//! The fixture was blessed on the serial per-module loops, before the
//! experiments moved onto one sweep; whatever runs the grids since must
//! reproduce it byte for byte on any number of workers. Its competition
//! rows (`fig8_10`, `fig12`, `fig14`) were re-blessed once when links began
//! fixing each departure at enqueue, which re-orders events that share a
//! microsecond.
//!
//! The second fixture does the same for the schema-versioned artifacts of
//! `docs/ARTIFACTS.md` that `golden_bytes.rs` does not reach: the five
//! reports, a span timeline, a compact diagnosis and a run manifest. It
//! was blessed on the hand-written `Map::insert` writers; whatever writes
//! the artifacts since must reproduce them byte for byte. Its last row, the
//! centroid model refit on the quick training suite, was blessed on the
//! separate fingerprint fold, before fingerprints were summed from the
//! inference extractor's windows. If a deliberate
//! model change lands, re-bless with:
//!
//! ```text
//! VCABENCH_BLESS=1 cargo test -p vcabench-harness --test experiments_golden
//! ```

use std::path::PathBuf;

use serde::Serialize;
use vcabench_campaign::{ScenarioSpec, TwoPartySpec};
use vcabench_harness::experiments::*;
use vcabench_netsim::RateProfile;
use vcabench_observe::{diagnose, diff_runs, Diagnosis, DiffReport, ObserveConfig, SpanBuilder};
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_telemetry::{EventKind, Recorder};
use vcabench_testkit::golden::{blessing, check_fixture, digest};
use vcabench_vca::VcaKind;

const EXPERIMENTS: &str = "tests/golden/experiments.digests.txt";
const ARTIFACTS: &str = "tests/golden/artifacts.digests.txt";

fn text_row(name: &str, text: &str) -> String {
    format!("{name} {} {}", digest(text.as_bytes()), text.len())
}

fn row(name: &str, result: &impl Serialize) -> String {
    text_row(
        name,
        &serde_json::to_string(result).expect("serializable result"),
    )
}

/// One fixture row per result. Every grid has two repetitions where the
/// module has a repetition count, so repetition order is part of what is
/// pinned; the competition groups run the paper's fixed 210 s procedure.
fn rows(jobs: usize) -> String {
    let secs = SimDuration::from_secs;
    let lines = [
        row(
            "table2",
            &table2::run(
                &table2::Table2Config {
                    call: secs(12),
                    reps: 2,
                },
                jobs,
            ),
        ),
        row(
            "fig1",
            &fig1::run(
                &fig1::Fig1Config {
                    caps: vec![0.5, 2.0],
                    call: secs(10),
                    reps: 2,
                },
                jobs,
            ),
        ),
        row(
            "fig2",
            &fig2::run(
                &fig2::Fig2Config {
                    caps: vec![0.5, 2.0],
                    call: secs(10),
                    reps: 2,
                },
                jobs,
            ),
        ),
        row(
            "fig3",
            &fig3::run(
                &fig3::Fig3Config {
                    caps: vec![0.3, 2.0],
                    call: secs(10),
                    reps: 2,
                },
                jobs,
            ),
        ),
        row(
            "fig4_5_6",
            &fig4_5_6::run(
                &fig4_5_6::DisruptionConfig {
                    levels: vec![0.25, 1.0],
                    call: secs(20),
                    start: secs(6),
                    length: secs(5),
                    reps: 2,
                },
                jobs,
            ),
        ),
        row(
            "fig8_10",
            &fig8_to_11::run(&fig8_to_11::Fig8Config::quick(), jobs),
        ),
        row(
            "fig12",
            &fig12_13::run(&fig12_13::Fig12Config::quick(), jobs),
        ),
        row("fig13", &fig12_13::run_fig13()),
        row("fig14", &fig14::run()),
        row(
            "fig15",
            &fig15::run(
                &fig15::Fig15Config {
                    sizes: vec![2, 3, 5],
                    call: secs(8),
                    reps: 2,
                },
                jobs,
            ),
        ),
        row(
            "ext_impairments",
            &ext::impairments::run(
                &ext::ImpairmentsConfig {
                    delays_ms: vec![0, 50],
                    loss_rates: vec![0.0, 0.02],
                    jitters_ms: vec![0, 20],
                    call: secs(8),
                },
                jobs,
            ),
        ),
        row("ext_ablation", &ext::ablation::run(jobs)),
    ];
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// The three short calls every report artifact is built from: one per
/// family, the Zoom one through a mid-call uplink collapse so that freeze
/// spans, anomalies and explanations are all non-empty.
fn calls() -> Vec<(String, ScenarioSpec)> {
    let open = || RateProfile::constant_mbps(1000.0);
    let call = |kind, up, seed| {
        ScenarioSpec::TwoParty(TwoPartySpec {
            kind,
            up,
            down: open(),
            duration_secs: 14.0,
            seed,
            knobs: None,
        })
    };
    let dip = RateProfile::disruption(
        3.0e6,
        0.3e6,
        SimTime::from_secs(4),
        SimDuration::from_secs(6),
    );
    vec![
        ("meet".to_string(), call(VcaKind::Meet, open(), 1)),
        ("zoom_dip".to_string(), call(VcaKind::Zoom, dip, 2)),
        ("teams".to_string(), call(VcaKind::Teams, open(), 3)),
    ]
}

/// A hand-fed event stream whose diagnosis holds what the short calls do
/// not reach: every span kind, all five anomaly classes at all three
/// severities, and a freeze explained by each of the three verdicts.
fn synthetic_diagnosis(cfg: &ObserveConfig) -> Diagnosis {
    let mut b = SpanBuilder::new(cfg.clone());
    let at = SimTime::from_millis;
    let enq = |link, queue_bytes| EventKind::PacketEnqueued {
        link,
        flow: 10,
        pkt: 0,
        bytes: 1200,
        queue_bytes,
        queue_pkts: 1,
    };
    let fec = |fraction| EventKind::FecRatio {
        client: 0,
        fraction,
        fec_per_media: fraction,
    };
    let freeze = |count, total_ms| EventKind::Freeze {
        client: 1,
        sender: 0,
        count,
        total_ms,
    };
    let step = |bps| EventKind::RateStep { link: 0, bps };
    b.record(at(0), step(3e6));
    for i in 0..7u64 {
        let (state, signal) = [("increase", "normal"), ("decrease", "overuse")][i as usize % 2];
        let cc = EventKind::CcState {
            client: 0,
            controller: "gcc",
            state,
            signal: Some(signal),
            target_mbps: 1.0 + 0.25 * i as f64,
        };
        b.record(at(500 * i), cc);
        if i == 2 {
            b.record(at(1_000), fec(0.3));
        }
    }
    b.record(at(4_000), fec(0.01));
    b.record(at(10_000), step(3e5));
    b.record(at(11_000), enq(0, 20_000));
    let dropped = |link, queue_bytes, reason| EventKind::PacketDropped {
        link,
        flow: 10,
        pkt: 1,
        bytes: 1200,
        queue_bytes,
        reason,
    };
    b.record(at(12_000), dropped(0, 32_000, "queue_full"));
    b.record(at(14_000), freeze(1, 2000.0));
    b.record(at(20_000), step(3e6));
    b.record(at(25_000), enq(0, 100));
    b.record(at(36_000), dropped(1, 0, "impairment"));
    b.record(at(37_000), freeze(2, 2500.0));
    b.record(at(49_000), freeze(3, 3500.0));
    let d = diagnose(b.finish(SimTime::from_secs(50)), cfg);
    for kind in vcabench_observe::SpanKind::NAMES {
        assert!(d.timeline.spans_of(kind).count() > 0, "no {kind} span");
    }
    for class in vcabench_observe::ANOMALY_CLASSES {
        assert!(d.anomalies.iter().any(|a| a.class == class), "no {class}");
    }
    let verdicts: Vec<&str> = d.explanations.iter().map(|e| e.verdict).collect();
    assert_eq!(verdicts, ["congestion", "loss", "decoder_stall"]);
    d
}

/// One fixture row per artifact, each the bytes `repro` would write.
fn artifact_rows(jobs: usize) -> String {
    use vcabench_harness::*;
    let calls = calls();
    let gbt = vcabench_infer::GbtModel::builtin();
    let runs = passive_suite(&calls, jobs);
    let infer = build_report(&runs, &gbt);

    let centroid = vcabench_fingerprint::CentroidModel::builtin();
    let training = passive_suite(&training_suite(true), jobs);
    let routed = routed_report(&runs, &training, &centroid);
    // The centroid model refit on the quick training suite: every bit of
    // every call fingerprint reaches it.
    let refit = fit_centroid(&training).expect("every family trains");
    let identify = build_identify_report(&runs, &centroid);

    let cfg = ObserveConfig;
    let observed = |(name, spec): &(String, ScenarioSpec), expect| ObserveScenario {
        name: name.clone(),
        expect,
        spec: spec.clone(),
    };
    let suite = [
        observed(&calls[0], Some(false)),
        observed(&calls[1], Some(true)),
        observed(&calls[2], None),
    ];
    let mut observe = observe_suite(&suite, jobs);
    let synthetic = synthetic_diagnosis(&cfg);
    observe.runs.push(ObserveRun {
        name: "synthetic".to_string(),
        expect: None,
        diagnosis: synthetic.clone(),
    });
    let (clean, dipped) = (&observe.runs[0].diagnosis, &observe.runs[1].diagnosis);
    assert!(
        !dipped.anomalies.is_empty() && !dipped.explanations.is_empty(),
        "the dipped call is diagnosed as disrupted"
    );
    let compact = serde_json::to_string(&synthetic.to_json_value()).unwrap();

    let pair = diff_runs("zoom_dip", clean, dipped);
    assert!(
        !(pair.top_windows.is_empty() || pair.appearing.is_empty() || pair.span_shifts.is_empty()),
        "the file-mode diff has every delta list populated"
    );
    let side = |s: &str| s.to_string();
    let file_mode = DiffReport {
        side_a: side("a/meet.events.jsonl"),
        side_b: side("b/zoom_dip.events.jsonl"),
        entries: vec![pair],
        only_a: vec![],
        only_b: vec![],
    };
    let dir_mode = DiffReport {
        side_a: side("traces-a"),
        side_b: side("traces-b"),
        entries: vec![
            diff_runs("meet", clean, clean),
            diff_runs("synthetic", &synthetic, dipped),
        ],
        only_a: vec![side("teams")],
        only_b: vec![side("teams_chrome"), side("zoom")],
    };

    let dir =
        std::env::temp_dir().join(format!("vcabench-artifacts-{}-{jobs}", std::process::id()));
    run_spec_traced(
        "meet",
        &campaign::unshaped_two_party(VcaKind::Meet, 6.0, 1),
        &dir,
    );
    let manifest = std::fs::read_to_string(dir.join("meet.manifest.json")).expect("manifest");
    let _ = std::fs::remove_dir_all(&dir);

    let lines = [
        text_row("INFER_report.json", &infer_report_json(&infer)),
        text_row("ROUTED_report.json", &routed_report_json(&routed)),
        text_row("IDENTIFY_report.json", &identify_report_json(&identify)),
        text_row("OBSERVE_report.json", &observe_report_json(&observe)),
        text_row("zoom_dip.spans.jsonl", &dipped.timeline.spans_jsonl()),
        text_row("synthetic.spans.jsonl", &synthetic.timeline.spans_jsonl()),
        text_row("synthetic.diagnosis.compact", &compact),
        text_row("meet.manifest.json", &manifest),
        text_row("DIFF_report.json:files", &file_mode.to_json()),
        text_row("DIFF_report.json:dirs", &dir_mode.to_json()),
        text_row("centroid-v1.json:quick", &refit.to_json().expect("finite")),
    ];
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

fn fixture_path(fixture: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(fixture)
}

/// Compare `rows(jobs)` with the blessed fixture — or, when blessing, write
/// `rows(1)` as the fixture and skip every other worker count (there is
/// nothing to compare to while the fixture is being rewritten).
fn check(fixture: &str, rows: fn(usize) -> String, jobs: usize) {
    if blessing() && jobs != 1 {
        return;
    }
    check_fixture(
        &fixture_path(fixture),
        &rows(jobs),
        "VCABENCH_BLESS=1 cargo test -p vcabench-harness --test experiments_golden",
    );
}

#[test]
fn experiment_results_are_byte_identical_to_blessed_fixture() {
    check(EXPERIMENTS, rows, 1);
}

#[test]
fn experiment_results_do_not_depend_on_jobs() {
    check(EXPERIMENTS, rows, 3);
}

#[test]
fn artifacts_are_byte_identical_to_blessed_fixture() {
    check(ARTIFACTS, artifact_rows, 1);
}

#[test]
fn artifacts_do_not_depend_on_jobs() {
    check(ARTIFACTS, artifact_rows, 3);
}
