//! Cross-crate integration: the paper's headline findings, end to end,
//! exercised through the public facade (`vcabench::prelude`).
//!
//! These are condensed versions of the claims in the paper's Table 1; the
//! full regeneration (all capacities, repetitions, and CIs) lives in the
//! `repro` binary and EXPERIMENTS.md.

use vcabench::prelude::*;
use vcabench::stats::time_to_recovery;

const OPEN: f64 = 1000.0;

fn steady_rate(series: &[f64], from_s: u64, to_s: u64) -> f64 {
    TwoPartyOutcome::rate_between(series, SimTime::from_secs(from_s), SimTime::from_secs(to_s))
}

/// A two-party call with `profile` on one direction of C1's access link.
fn shaped(
    direction: Direction,
    kind: VcaKind,
    profile: RateProfile,
    secs: u64,
    seed: u64,
) -> TwoPartyOutcome {
    let spec = direction.call(kind, profile, SimDuration::from_secs(secs), seed);
    run::two_party(&spec, &Telemetry::disabled()).0
}

/// A 50 s call of `n` at seed 7, in gallery mode or with everyone pinning C1.
fn multiparty(kind: VcaKind, n: usize, pin_c1: bool) -> MultipartyOutcome {
    let spec = MultipartySpec {
        kind,
        n,
        pin_c1: Some(pin_c1),
        duration_secs: 50.0,
        seed: 7,
    };
    run::multiparty(&spec, &Telemetry::disabled()).0
}

/// Table 1 row 1: "average utilization on an unconstrained link ranges from
/// 0.8 to 1.9 Mbps" — and the per-VCA orderings of Table 2.
#[test]
fn unconstrained_utilization_bands() {
    let mut rates = Vec::new();
    for kind in VcaKind::NATIVE {
        let out = shaped(
            Direction::Up,
            kind,
            RateProfile::constant_mbps(OPEN),
            90,
            42,
        );
        let up = steady_rate(&out.up_series, 30, 90);
        let down = steady_rate(&out.down_series, 30, 90);
        rates.push((kind, up, down));
    }
    for &(kind, up, down) in &rates {
        assert!(
            (0.6..=2.2).contains(&up) && (0.6..=2.2).contains(&down),
            "{}: {up}/{down} outside the paper's band",
            kind.name()
        );
    }
    let get = |k: VcaKind| rates.iter().find(|r| r.0 == k).copied().unwrap();
    let meet = get(VcaKind::Meet);
    let teams = get(VcaKind::Teams);
    let zoom = get(VcaKind::Zoom);
    assert!(teams.1 > meet.1 && teams.1 > zoom.1, "Teams sends the most");
    assert!(meet.1 > meet.2, "Meet: simulcast up > single copy down");
    assert!(zoom.2 > zoom.1, "Zoom: server FEC makes down > up");
}

/// Table 1 row 3: "all VCAs take at least 20 seconds to recover from severe
/// uplink drops to 0.25 Mbps".
#[test]
fn severe_uplink_drops_recover_slowly() {
    let start = SimTime::from_secs(60);
    let len = SimDuration::from_secs(30);
    for kind in VcaKind::NATIVE {
        let dip = RateProfile::disruption(OPEN * 1e6, 0.25e6, start, len);
        let out = shaped(Direction::Up, kind, dip, 280, 2);
        let ttr = time_to_recovery(
            &out.up_series,
            SimDuration::from_millis(100),
            start,
            start + len,
        );
        let secs = ttr.ttr.expect("recovers within the call").as_secs_f64();
        assert!(
            secs >= 15.0,
            "{}: severe uplink recovery took only {secs}s",
            kind.name()
        );
    }
}

/// §4.2: downlink recovery — Teams slowest (its server is a dumb relay),
/// Meet and Zoom fast (server-side simulcast/SVC switching).
#[test]
fn downlink_recovery_ordering() {
    let start = SimTime::from_secs(60);
    let len = SimDuration::from_secs(30);
    let mut ttrs = Vec::new();
    for kind in VcaKind::NATIVE {
        let dip = RateProfile::disruption(OPEN * 1e6, 0.25e6, start, len);
        let out = shaped(Direction::Down, kind, dip, 280, 2);
        let ttr = time_to_recovery(
            &out.down_series,
            SimDuration::from_millis(100),
            start,
            start + len,
        );
        ttrs.push((kind, ttr.ttr.map(|d| d.as_secs_f64()).unwrap_or(190.0)));
    }
    let get = |k: VcaKind| ttrs.iter().find(|t| t.0 == k).unwrap().1;
    assert!(
        get(VcaKind::Teams) > get(VcaKind::Meet) && get(VcaKind::Teams) > get(VcaKind::Zoom),
        "Teams must be slowest on the downlink: {ttrs:?}"
    );
    assert!(
        get(VcaKind::Zoom) < 20.0,
        "Zoom's SVC switch is fast: {ttrs:?}"
    );
}

/// Table 1 row 4 (condensed): Zoom consumes well over half the link when a
/// Meet client competes with it; Teams is passive against TCP.
#[test]
fn competition_headlines() {
    // Zoom incumbent vs joining Meet on a 0.5 Mbps uplink.
    let meet = CompetitorSpec::Vca(VcaKind::Meet);
    let spec = CompetitionSpec::paper(VcaKind::Zoom, meet, 0.5, 99);
    let out = run::competition(&spec, &Telemetry::disabled()).0;
    let share = out.up_share(SimTime::from_secs(40), SimTime::from_secs(110));
    assert!(share > 0.6, "Zoom vs Meet uplink share {share}");

    // Teams vs a bulk TCP download on 2 Mbps.
    let spec = CompetitionSpec::paper(VcaKind::Teams, CompetitorSpec::IperfDown, 2.0, 7);
    let out = run::competition(&spec, &Telemetry::disabled()).0;
    let share = out.down_share(SimTime::from_secs(60), SimTime::from_secs(150));
    assert!(share < 0.45, "Teams vs TCP downlink share {share}");
}

/// Table 1 row 5: pinning a user (speaker mode) raises that user's uplink.
/// Strongest at larger calls, where gallery tiles are small: at n=7 the
/// gallery senders are on reduced layers while a pinned sender pushes ~1
/// Mbps (Zoom/Meet) or more (Teams).
#[test]
fn pinning_raises_uplink() {
    for kind in VcaKind::NATIVE {
        let gallery = multiparty(kind, 7, false);
        let pinned = multiparty(kind, 7, true);
        assert!(
            pinned.c1_up_mbps > gallery.c1_up_mbps * 1.15,
            "{}: pinning must raise C1's uplink ({} -> {})",
            kind.name(),
            gallery.c1_up_mbps,
            pinned.c1_up_mbps
        );
    }
}

/// §6.1: more participants can *decrease* a participant's upstream
/// utilization (Zoom's n=5 layout cliff), while Teams stays flat.
#[test]
fn participant_count_cliffs() {
    let z4 = multiparty(VcaKind::Zoom, 4, false);
    let z5 = multiparty(VcaKind::Zoom, 5, false);
    assert!(
        z5.c1_up_mbps < z4.c1_up_mbps * 0.8,
        "Zoom n=5 uplink cliff: {} -> {}",
        z4.c1_up_mbps,
        z5.c1_up_mbps
    );
    let t2 = multiparty(VcaKind::Teams, 2, false);
    let t8 = multiparty(VcaKind::Teams, 8, false);
    assert!(
        (t8.c1_up_mbps - t2.c1_up_mbps).abs() < 0.35 * t2.c1_up_mbps,
        "Teams uplink flat across call sizes: {} vs {}",
        t2.c1_up_mbps,
        t8.c1_up_mbps
    );
}
