//! End-to-end telemetry: traced runs emit the paper-relevant events, and
//! traced campaigns are byte-identical across worker counts.

use std::collections::BTreeMap;
use std::path::PathBuf;

use vcabench_campaign::{
    content_hash, Axes, CampaignSpec, ScenarioSpec, ScenarioTemplate, SeedAxis, TwoPartySpec,
};
use vcabench_harness::{run_campaign_cached_traced, run_spec_metered, run_spec_traced};
use vcabench_netsim::RateProfile;
use vcabench_telemetry::{validate_jsonl, EventKind, EventLog, Telemetry};
use vcabench_vca::VcaKind;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vcabench-telemetry-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shaped_zoom(seed: u64) -> ScenarioSpec {
    ScenarioSpec::TwoParty(TwoPartySpec {
        kind: VcaKind::Zoom,
        up: RateProfile::constant_mbps(0.5),
        down: RateProfile::constant_mbps(1000.0),
        duration_secs: 20.0,
        seed,
        knobs: None,
    })
}

#[test]
fn traced_shaped_zoom_emits_drop_cc_and_fec_events() {
    let dir = temp_dir("zoom");
    let spec = shaped_zoom(1);
    run_spec_traced("shaped_zoom_s1", &spec, &dir);

    let jsonl = std::fs::read_to_string(dir.join("shaped_zoom_s1.events.jsonl")).unwrap();
    let counts: BTreeMap<String, u64> = validate_jsonl(&jsonl).expect("trace validates");
    // A Zoom call squeezed into 0.5 Mbps must show congestion evidence:
    // queue drops, FBRA state transitions, and FEC-ratio moves.
    assert!(
        counts.get("packet_drop").copied().unwrap_or(0) > 0,
        "{counts:?}"
    );
    assert!(
        counts.get("cc_state").copied().unwrap_or(0) > 0,
        "{counts:?}"
    );
    assert!(
        counts.get("fec_ratio").copied().unwrap_or(0) > 0,
        "{counts:?}"
    );
    assert!(
        jsonl.contains("\"controller\":\"fbra\""),
        "Zoom's controller is FBRA"
    );

    // The manifest ties the trace back to its cache entry.
    let manifest = std::fs::read_to_string(dir.join("shaped_zoom_s1.manifest.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&manifest).unwrap();
    assert_eq!(v.get("schema").and_then(|s| s.as_u64()), Some(1));
    assert_eq!(
        v.get("spec_hash").and_then(|s| s.as_str()),
        Some(content_hash(&spec).as_str())
    );
    assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(1));
    let total: u64 = counts.values().sum();
    assert_eq!(v.get("events_total").and_then(|s| s.as_u64()), Some(total));

    // The series CSV has the two-party header and one row per 100 ms bin.
    let csv = std::fs::read_to_string(dir.join("shaped_zoom_s1.series.csv")).unwrap();
    assert!(csv.starts_with("t_secs,up_mbps,down_mbps\n"));
    assert_eq!(csv.lines().count(), 1 + 200, "20 s of 100 ms bins");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The log counts per kind in an array and builds the tag-keyed map when
/// asked: both views must agree with a recount of the events it holds.
#[test]
fn event_log_counts_agree_with_a_recount_of_its_events() {
    let (tel, log) = Telemetry::with_log(EventLog::unbounded());
    run_spec_metered(&shaped_zoom(2), &tel);
    let log = log.borrow();
    let mut recount: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in log.events() {
        *recount.entry(ev.kind.name()).or_default() += 1;
    }
    assert!(
        recount.len() >= 4,
        "a congested call logs many kinds: {recount:?}"
    );
    assert_eq!(log.counts(), recount);
    for tag in EventKind::NAMES {
        assert_eq!(
            log.count(tag),
            recount.get(tag).copied().unwrap_or(0),
            "{tag}"
        );
    }
    assert_eq!(log.count("no_such_kind"), 0);
}

fn small_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "trace_jobs".to_string(),
        scenarios: vec![ScenarioTemplate {
            label: Some("shaped".to_string()),
            base: shaped_zoom(1),
            axes: Some(Axes {
                kinds: Some(vec![VcaKind::Meet, VcaKind::Zoom]),
                up_mbps: None,
                down_mbps: None,
                capacity_mbps: None,
                competitors: None,
                seeds: Some(SeedAxis::Range { base: 1, count: 1 }),
            }),
        }],
    }
}

fn dir_contents(dir: &PathBuf) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        );
    }
    out
}

#[test]
fn traced_campaign_is_byte_identical_across_jobs_and_cache_state() {
    let campaign = small_campaign();
    let (out1, trace1) = (temp_dir("out1"), temp_dir("trace1"));
    let (out4, trace4) = (temp_dir("out4"), temp_dir("trace4"));

    let s1 = run_campaign_cached_traced(&campaign, 1, &out1, false, &trace1).unwrap();
    let s4 = run_campaign_cached_traced(&campaign, 4, &out4, false, &trace4).unwrap();
    assert_eq!(s1.total, 2);
    assert_eq!(s1.results, s4.results);

    let c1 = dir_contents(&trace1);
    let c4 = dir_contents(&trace4);
    assert_eq!(c1.len(), 2 * 3, "three artifacts per run");
    assert_eq!(c1, c4, "trace artifacts must not depend on --jobs");

    // A fully cached re-run into a fresh trace dir backfills identical
    // artifacts even though no run is recomputed for the result store.
    let trace_back = temp_dir("trace-backfill");
    let s_cached = run_campaign_cached_traced(&campaign, 2, &out1, false, &trace_back).unwrap();
    assert_eq!(s_cached.computed, 0, "all runs served from cache");
    assert_eq!(dir_contents(&trace_back), c1);

    for d in [&out1, &trace1, &out4, &trace4, &trace_back] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn a_trace_that_jumps_far_ahead_is_refused_before_any_recorder_grows() {
    use vcabench_fingerprint::FingerprintBank;
    use vcabench_harness::{fp_taps_for, taps_for};
    use vcabench_infer::TapBank;
    use vcabench_observe::{diagnose_jsonl, ObserveConfig, SpanBuilder};
    use vcabench_simcore::SimTime;
    use vcabench_telemetry::replay_jsonl;

    // Two schema-valid lines, the second two million seconds later: every
    // per-second consumer used to allocate one window per skipped second.
    let deq = |t: u64| {
        format!(
            "{{\"t\":{t},\"kind\":\"packet_dequeue\",\"link\":1,\"flow\":11,\"pkt\":0,\
             \"bytes\":1140,\"queue_bytes\":0}}\n"
        )
    };
    let trace = deq(1000) + &deq(2_000_000_000_000);
    let spec = shaped_zoom(1);
    let taps = taps_for(&spec);
    let end = SimTime::from_secs(2);

    let mut bank = TapBank::new(&[taps.send, taps.recv]);
    let err = replay_jsonl(&trace, &mut bank).unwrap_err();
    assert!(err.starts_with("line 2: field `t`"), "{err}");
    // Only the first line reached the extractors.
    let windows = bank.finish(end);
    assert_eq!((windows[0].len(), windows[1].len()), (2, 2));
    assert_eq!(windows[1][0].video_pkts, 1);

    let mut bank = FingerprintBank::new(&fp_taps_for(&spec));
    let err = replay_jsonl(&trace, &mut bank).unwrap_err();
    assert!(err.starts_with("line 2: field `t`"), "{err}");
    assert_eq!(bank.finish(end)[1].video_pkts, 1);

    let cfg = ObserveConfig::default();
    let mut builder = SpanBuilder::new(cfg.clone());
    let err = replay_jsonl(&trace, &mut builder).unwrap_err();
    assert!(err.starts_with("line 2: field `t`"), "{err}");
    assert_eq!(builder.finish(end).end, end);
    let err = diagnose_jsonl(&trace, &cfg, None).unwrap_err();
    assert!(err.starts_with("line 2: field `t`"), "{err}");
    assert!(validate_jsonl(&trace)
        .unwrap_err()
        .starts_with("line 2: field `t`"));
}
