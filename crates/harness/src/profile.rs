//! Engine profiling for `repro --profile`: where does simulation time go?
//!
//! Runs a fixed unshaped two-party call per native VCA kind with the
//! engine's wall-clock profiler armed and renders one table per kind plus
//! a merged total. Wall-clock numbers are nondeterministic by nature, so
//! this output is print-only and never enters a trace or manifest.

use serde::Serialize;
use vcabench_simcore::SimDuration;
use vcabench_telemetry::{artifact, Profiler, Telemetry};
use vcabench_vca::VcaKind;

use crate::experiments::{unconstrained, Direction};
use crate::run;

/// Profile one unshaped two-party call of `kind`.
pub fn profile_two_party(kind: VcaKind, duration: SimDuration, seed: u64) -> Profiler {
    let spec = Direction::Up.call(kind, unconstrained(), duration, seed);
    let arm = |lab: &mut run::Lab| lab.net.enable_profiler();
    let read = |call: &run::TwoPartyCall, _| call.net.profiler().cloned();
    let (profiler, _) = run::two_party_on(&spec, arm, &Telemetry::disabled(), read);
    profiler.expect("profiler was enabled")
}

/// Profile a fixed two-party workload per native kind at seed 1.
pub fn profile_engine(duration: SimDuration) -> Vec<(VcaKind, Profiler)> {
    VcaKind::NATIVE
        .iter()
        .map(|&kind| (kind, profile_two_party(kind, duration, 1)))
        .collect()
}

/// Schema tag of the `repro --profile --json` artifact.
pub const PROFILE_SCHEMA: &str = "vcabench-profile/v1";

/// The `vcabench-profile/v1` artifact behind its tag: one profile per
/// kind, then all of them merged.
#[derive(Serialize)]
struct ProfileArtifact {
    kinds: Vec<KindProfile>,
    all: Profile,
}

#[derive(Serialize)]
struct KindProfile {
    kind: &'static str,
    profile: Profile,
}

/// What the artifact says of one [`Profiler`]: totals, then a row per
/// event type in key order.
#[derive(Serialize)]
struct Profile {
    total_events: u64,
    total_ns: u64,
    rows: Vec<EventRow>,
}

/// One event type: its count and time, and the percentiles read off the
/// row's histogram.
#[derive(Serialize)]
struct EventRow {
    event: &'static str,
    count: u64,
    total_ns: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
}

impl From<&Profiler> for Profile {
    fn from(prof: &Profiler) -> Self {
        let rows = prof.rows().iter().map(|(&event, row)| EventRow {
            event,
            count: row.count,
            total_ns: row.nanos as u64,
            p50_ns: row.percentile(0.50),
            p90_ns: row.percentile(0.90),
            p99_ns: row.percentile(0.99),
        });
        Profile {
            total_events: prof.total_count(),
            total_ns: prof.total_nanos() as u64,
            rows: rows.collect(),
        }
    }
}

/// Serialize the per-kind profiles (plus the merged total under the
/// `"all"` key) as a `vcabench-profile/v1` artifact. Key order is fixed,
/// but the wall-clock numbers inside are nondeterministic by nature —
/// the artifact is for inspection and ad-hoc comparison, never for
/// golden diffs.
pub fn profile_json(profiles: &[(VcaKind, Profiler)]) -> String {
    let mut merged = Profiler::new();
    let mut kinds = Vec::new();
    for (kind, prof) in profiles {
        kinds.push(KindProfile {
            kind: kind.name(),
            profile: prof.into(),
        });
        merged.merge(prof);
    }
    let all = Profile::from(&merged);
    artifact::to_json(PROFILE_SCHEMA, &ProfileArtifact { kinds, all })
}

/// Render the per-kind tables plus a merged total.
pub fn render_profile(profiles: &[(VcaKind, Profiler)]) -> String {
    let mut out = String::new();
    let mut merged = Profiler::new();
    for (kind, prof) in profiles {
        out.push_str(&format!("== {kind:?} two-party call ==\n"));
        out.push_str(&prof.render_table());
        out.push('\n');
        merged.merge(prof);
    }
    out.push_str("== all kinds combined ==\n");
    out.push_str(&merged.render_table());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_sees_engine_events() {
        let prof = profile_two_party(VcaKind::Zoom, SimDuration::from_secs(2), 1);
        assert!(prof.total_count() > 0, "engine handled events");
        assert!(
            prof.rows().contains_key("arrive"),
            "packet arrivals profiled: {:?}",
            prof.rows().keys().collect::<Vec<_>>()
        );
        let table = render_profile(&[(VcaKind::Zoom, prof.clone())]);
        assert!(table.contains("all kinds combined"));
        assert!(table.contains("p99 ns"), "percentile columns present");
        let json = profile_json(&[(VcaKind::Zoom, prof)]);
        assert!(json.contains("\"schema\": \"vcabench-profile/v1\""));
        assert!(json.contains("\"p50_ns\""));
    }
}
