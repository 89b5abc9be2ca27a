//! Cache compatibility with stores written before the writer streamed.
//!
//! `fixtures/store_pr13.jsonl` was written by the commit before PR 14 —
//! `record_line` still built a `Value` tree then — by running
//! [`fixture_campaign`] with [`fixture_runner`]. A store a user already has
//! must stay a 100 % hit: the content hashes may not move, and a fresh
//! write of the same campaign must produce the same file byte for byte.
//! The outcomes cover the spellings a writer can get wrong: a `null`
//! option, an integral float (`2`, no decimal point), values far below 1
//! (printed without an exponent), `-0`, and a non-finite float (`null`).

use std::path::PathBuf;
use vcabench_campaign::{
    run_cached, Axes, CampaignSpec, ClientKnobs, CompetitionRecord, CompetitionSpec,
    CompetitorSpec, MultipartyRecord, MultipartySpec, ScenarioOutcome, ScenarioSpec,
    ScenarioTemplate, SeedAxis, TwoPartyRecord, TwoPartySpec,
};
use vcabench_netsim::RateProfile;
use vcabench_simcore::SimTime;
use vcabench_vca::VcaKind;

const FIXTURE: &str = include_str!("fixtures/store_pr13.jsonl");

fn axes() -> Axes {
    Axes {
        kinds: None,
        up_mbps: None,
        down_mbps: None,
        capacity_mbps: None,
        competitors: None,
        seeds: None,
    }
}

fn fixture_campaign() -> CampaignSpec {
    let multiparty = |label: &str| ScenarioTemplate {
        label: Some(label.to_string()),
        base: ScenarioSpec::Multiparty(MultipartySpec {
            kind: VcaKind::Meet,
            n: 4,
            pin_c1: None,
            duration_secs: 20.0,
            seed: 0,
        }),
        axes: Some(Axes {
            seeds: Some(SeedAxis::Range { base: 1, count: 2 }),
            ..axes()
        }),
    };
    CampaignSpec {
        name: "store pr13".to_string(),
        scenarios: vec![
            ScenarioTemplate {
                label: None,
                base: ScenarioSpec::TwoParty(TwoPartySpec {
                    kind: VcaKind::Zoom,
                    up: RateProfile::constant_mbps(1.0).step(SimTime::from_secs(60), 0.25e6),
                    down: RateProfile::constant_mbps(1000.0),
                    duration_secs: 150.0,
                    seed: 7,
                    knobs: Some(ClientKnobs {
                        teams_width_bug: None,
                        min_rate_mbps: Some(0.1),
                        max_rate_mbps: Some(2.0),
                    }),
                }),
                axes: Some(Axes {
                    kinds: Some(vec![VcaKind::Zoom, VcaKind::Teams]),
                    up_mbps: Some(vec![0.5, 2.0]),
                    ..axes()
                }),
            },
            ScenarioTemplate {
                label: None,
                base: ScenarioSpec::Competition(CompetitionSpec {
                    incumbent: VcaKind::Meet,
                    competitor: CompetitorSpec::Netflix,
                    capacity_mbps: 0.5,
                    competitor_start_secs: None,
                    competitor_duration_secs: None,
                    total_secs: None,
                    seed: 3,
                }),
                axes: Some(Axes {
                    competitors: Some(vec![
                        CompetitorSpec::Netflix,
                        CompetitorSpec::Vca(VcaKind::Zoom),
                        CompetitorSpec::IperfUp,
                    ]),
                    ..axes()
                }),
            },
            // The same four-party call under two labels: one record, two
            // results.
            multiparty("gallery a"),
            multiparty("gallery b"),
        ],
    }
}

/// Outcomes as a pure function of the spec.
fn fixture_runner(spec: &ScenarioSpec) -> ScenarioOutcome {
    let seed = spec.seed() as f64;
    match spec {
        ScenarioSpec::TwoParty(s) => ScenarioOutcome::TwoParty(TwoPartyRecord {
            up_series: vec![(0.0, 2.0), (0.5, 1e-7), (1.0, seed / 3.0), (1.5, 1e21)],
            down_series: Vec::new(),
            target_series: vec![(0.0, -0.0), (2.5e-9, f64::INFINITY)],
            steady_up_mbps: s
                .up
                .steps()
                .iter()
                .map(|&(_, r)| r)
                .fold(f64::INFINITY, f64::min)
                / 1e6,
            steady_down_mbps: 0.1 + 0.2,
            ttr_secs: (s.kind == VcaKind::Teams).then_some(12.5),
            nominal_mbps: (s.kind == VcaKind::Zoom).then_some(2.0),
            firs_received: u64::MAX,
            freeze_secs: f64::NAN,
            frames_decoded: 4_500,
        }),
        ScenarioSpec::Competition(s) => ScenarioOutcome::Competition(CompetitionRecord {
            inc_up: vec![(0.0, s.capacity_mbps), (0.5, s.capacity_mbps / 3.0)],
            inc_down: vec![(0.0, 1.0)],
            comp_up: Vec::new(),
            comp_down: vec![(30.0, 5e-324)],
            up_share: 0.5,
            down_share: 1.0,
            netflix_conns: usize::from(s.competitor == CompetitorSpec::Netflix) * 3,
        }),
        ScenarioSpec::Multiparty(s) => ScenarioOutcome::Multiparty(MultipartyRecord {
            c1_up_mbps: seed * 0.25,
            c1_down_mbps: s.n as f64 * 0.7,
        }),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vcabench-store-fixture-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_fresh_write_reproduces_the_old_store_byte_for_byte() {
    assert!(FIXTURE.contains("\"ttr_secs\":null") && FIXTURE.contains("[0,2]"));
    assert!(FIXTURE.contains("[0.5,0.0000001]") && FIXTURE.contains("[0,-0]"));
    for jobs in [1, 3] {
        let dir = temp_dir(&format!("write{jobs}"));
        let summary = run_cached(&fixture_campaign(), jobs, &dir, true, &fixture_runner).unwrap();
        assert_eq!((summary.total, summary.computed), (11, 9));
        assert!(summary.store_path.ends_with("store_pr13.jsonl"));
        let written = std::fs::read_to_string(&summary.store_path).unwrap();
        assert_eq!(written, FIXTURE, "--jobs {jobs}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_old_store_is_a_full_hit() {
    let dir = temp_dir("hit");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("store_pr13.jsonl"), FIXTURE).unwrap();
    let never = |spec: &ScenarioSpec| -> ScenarioOutcome {
        panic!("recomputed {spec:?}: its content hash moved");
    };
    let summary = run_cached(&fixture_campaign(), 2, &dir, false, &never).unwrap();
    assert_eq!(
        (summary.total, summary.computed, summary.cached),
        (11, 0, 11)
    );
    // Records come back in expansion order; the two labels of the shared
    // four-party call are served by the same two lines.
    let lines: Vec<&str> = FIXTURE.lines().collect();
    let served: Vec<&str> = summary.results.iter().map(|r| r.line.as_str()).collect();
    assert_eq!(served[..9], lines[..]);
    assert_eq!(served[9..], lines[7..9]);
    assert_eq!(summary.results[9].label, summary.results[7].label);
    // The file itself was not touched.
    assert_eq!(
        std::fs::read_to_string(dir.join("store_pr13.jsonl")).unwrap(),
        FIXTURE
    );
    let _ = std::fs::remove_dir_all(&dir);
}
