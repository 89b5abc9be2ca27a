//! Golden-trace regression: a fixed scenario matrix is summarized and
//! compared byte-for-byte against committed JSON fixtures.
//!
//! Regenerate after an intended model change with
//! `VCABENCH_BLESS=1 cargo test -p vcabench-testkit --test golden_traces`
//! and commit the resulting `tests/golden/*.json` diff.

use vcabench_campaign::{ScenarioSpec, TwoPartySpec};
use vcabench_netsim::RateProfile;
use vcabench_telemetry::Telemetry;
use vcabench_testkit::{check_golden, run_scenario};
use vcabench_vca::VcaKind;

/// 100 Mbps — effectively unconstrained for a single call.
const UNCONSTRAINED: f64 = 100.0;
/// The paper's harshest static uplink constraint, 0.5 Mbps.
const UP_HALF_MBPS: f64 = 0.5;

fn golden_case(name: &str, kind: VcaKind, up_mbps: f64) {
    let spec = ScenarioSpec::TwoParty(TwoPartySpec {
        kind,
        up: RateProfile::constant_mbps(up_mbps),
        down: RateProfile::constant_mbps(UNCONSTRAINED),
        duration_secs: 20.0,
        seed: 7,
        knobs: None,
    });
    let out = run_scenario(&spec, None, &Telemetry::disabled());
    // Golden runs double as invariant runs: a fixture must never be blessed
    // from a run that broke a conservation law.
    out.assert_clean();
    check_golden(name, &out.summary);
}

#[test]
fn zoom_unconstrained() {
    golden_case("zoom_unconstrained", VcaKind::Zoom, UNCONSTRAINED);
}

#[test]
fn zoom_uplink_500k() {
    golden_case("zoom_uplink_500k", VcaKind::Zoom, UP_HALF_MBPS);
}

#[test]
fn meet_unconstrained() {
    golden_case("meet_unconstrained", VcaKind::Meet, UNCONSTRAINED);
}

#[test]
fn meet_uplink_500k() {
    golden_case("meet_uplink_500k", VcaKind::Meet, UP_HALF_MBPS);
}

#[test]
fn teams_unconstrained() {
    golden_case("teams_unconstrained", VcaKind::Teams, UNCONSTRAINED);
}

#[test]
fn teams_uplink_500k() {
    golden_case("teams_uplink_500k", VcaKind::Teams, UP_HALF_MBPS);
}
