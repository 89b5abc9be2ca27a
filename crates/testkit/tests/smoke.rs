//! Survival smoke tests: every modeled application must sustain a 40-second
//! two-party call through a 0.5 Mbps constraint in either direction without
//! stalling — both ends keep decoding frames and no invariant breaks.

use vcabench_campaign::{ScenarioSpec, TwoPartySpec};
use vcabench_netsim::RateProfile;
use vcabench_telemetry::Telemetry;
use vcabench_testkit::run_scenario;
use vcabench_vca::VcaKind;

fn smoke(kind: VcaKind, up_mbps: f64, down_mbps: f64, label: &str) {
    let spec = ScenarioSpec::TwoParty(TwoPartySpec {
        kind,
        up: RateProfile::constant_mbps(up_mbps),
        down: RateProfile::constant_mbps(down_mbps),
        duration_secs: 40.0,
        seed: 0xC0FFEE,
        knobs: None,
    });
    let out = run_scenario(&spec, None, &Telemetry::disabled());
    assert!(
        out.summary.c1_frames_decoded > 0,
        "{kind:?} {label}: C1 decoded nothing from C2"
    );
    assert!(
        out.summary.c2_frames_decoded > 0,
        "{kind:?} {label}: C2 decoded nothing from C1"
    );
    out.assert_clean();
}

#[test]
fn survives_constrained_uplink() {
    for kind in VcaKind::ALL {
        smoke(kind, 0.5, 100.0, "0.5 Mbps uplink");
    }
}

#[test]
fn survives_constrained_downlink() {
    for kind in VcaKind::ALL {
        smoke(kind, 100.0, 0.5, "0.5 Mbps downlink");
    }
}
