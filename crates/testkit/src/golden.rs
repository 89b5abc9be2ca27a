//! Golden-trace fixtures: integer-exact run summaries compared byte-for-byte.
//!
//! A golden trace is deliberately *not* a full packet log: it is a compact
//! summary (per-link delivery counters plus a one-second byte series, and
//! frames decoded at each end) that still pins down the simulation tightly —
//! a changed drop decision or a shifted serialization boundary moves some
//! bin. Every field is an integer, so JSON round-trips are exact and the
//! comparison needs no tolerance.
//!
//! Workflow: `VCABENCH_BLESS=1 cargo test -p vcabench-testkit` regenerates
//! the fixtures under `tests/golden/`; a plain test run compares against
//! them and fails with a diff pointer on any divergence.

use std::path::PathBuf;

use serde::Serialize;
use vcabench_netsim::Link;
use vcabench_simcore::{SimDuration, SimTime};

/// Environment variable that switches golden tests into bless (regenerate)
/// mode when set to `1`.
pub const BLESS_ENV: &str = "VCABENCH_BLESS";

/// Summary of one link over a run. All integers: byte-exact across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LinkSummary {
    /// Topology-stable link name (e.g. `c1_up`).
    pub name: String,
    /// Packets fully delivered.
    pub delivered_pkts: u64,
    /// Packets dropped (tail drops plus impairment drops).
    pub dropped_pkts: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Delivered bytes per one-second bin, zero-padded to the run length.
    pub bytes_per_sec: Vec<u64>,
}

impl LinkSummary {
    /// Summarize `link` over a run of `duration`.
    pub fn of<P>(name: &str, link: &Link<P>, duration: SimTime) -> Self {
        LinkSummary {
            name: name.to_string(),
            delivered_pkts: link.stats.total_delivered(),
            dropped_pkts: link.stats.total_dropped(),
            delivered_bytes: link.stats.total_delivered_bytes(),
            bytes_per_sec: link
                .traces
                .total()
                .binned_bytes(SimDuration::from_secs(1), duration),
        }
    }
}

/// Integer-exact summary of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceSummary {
    /// Human-readable scenario description (also the fixture key).
    pub scenario: String,
    /// Run length in simulated seconds.
    pub duration_s: u32,
    /// Per-link summaries in topology order.
    pub links: Vec<LinkSummary>,
    /// Frames the measured client decoded from its counter-party.
    pub c1_frames_decoded: u64,
    /// Frames the counter-party decoded from the measured client.
    pub c2_frames_decoded: u64,
}

/// Render a summary as the canonical fixture text (pretty JSON, trailing
/// newline). Blessing and comparing both go through this single function so
/// the fixture format cannot drift between the two paths.
pub fn render(summary: &TraceSummary) -> String {
    let mut s = serde_json::to_string_pretty(summary).expect("summary serializes");
    s.push('\n');
    s
}

/// Path of the fixture for `name` under this crate's `tests/golden/`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compare `summary` against the committed fixture `name`, or regenerate the
/// fixture when [`BLESS_ENV`] is `1`.
///
/// Panics on mismatch or on a missing fixture, with instructions.
pub fn check_golden(name: &str, summary: &TraceSummary) {
    let rendered = render(summary);
    let path = golden_path(name);
    if std::env::var(BLESS_ENV).as_deref() == Ok("1") {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(&path, &rendered).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {}; generate it with \
             `VCABENCH_BLESS=1 cargo test -p vcabench-testkit --test golden_traces`",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "golden trace `{name}` diverged from {}.\n\
         If the change is an intended model improvement, re-bless with \
         `VCABENCH_BLESS=1 cargo test -p vcabench-testkit --test golden_traces` \
         and commit the diff.\n--- expected ---\n{expected}\n--- actual ---\n{rendered}",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSummary {
        TraceSummary {
            scenario: "unit".into(),
            duration_s: 2,
            links: vec![LinkSummary {
                name: "l0".into(),
                delivered_pkts: 3,
                dropped_pkts: 1,
                delivered_bytes: 4500,
                bytes_per_sec: vec![3000, 1500],
            }],
            c1_frames_decoded: 10,
            c2_frames_decoded: 12,
        }
    }

    #[test]
    fn render_is_deterministic_and_integer_only() {
        let a = render(&sample());
        let b = render(&sample());
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(!a.contains('.'), "no floats in fixtures: {a}");
        assert!(a.contains("\"delivered_bytes\": 4500"));
    }

    #[test]
    fn golden_path_is_crate_local() {
        let p = golden_path("x");
        assert!(p.ends_with("tests/golden/x.json"));
        assert!(p.to_string_lossy().contains("testkit"));
    }
}
