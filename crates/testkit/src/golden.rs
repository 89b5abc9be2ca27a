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
//!
//! [`check_fixture`] and [`digest`] are the one bless-or-compare step and
//! the one digest of every golden test in the workspace (the harness's
//! experiment, artifact, trace and engine-count fixtures too).

use std::path::{Path, PathBuf};

use serde::Serialize;
use vcabench_netsim::Link;
use vcabench_simcore::{SimDuration, SimTime};

/// Environment variable that switches golden tests into bless (regenerate)
/// mode when set to `1`.
pub const BLESS_ENV: &str = "VCABENCH_BLESS";

/// Whether golden tests rewrite their fixtures instead of comparing: only
/// the exact value `1` of [`BLESS_ENV`] blesses.
pub fn blessing() -> bool {
    std::env::var(BLESS_ENV).as_deref() == Ok("1")
}

/// Compare `current` with the blessed fixture at `path`, or write it there
/// when [`blessing`]. A missing fixture or a mismatch panics with `bless`,
/// the command that re-blesses it, the mismatch with both texts.
pub fn check_fixture(path: &Path, current: &str, bless: &str) {
    if blessing() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(path, current).expect("write golden fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with `{bless}`",
            path.display()
        )
    });
    assert!(
        expected == current,
        "{} diverged from its blessed bytes.\n\
         If the change is intended, re-bless with `{bless}` and commit the diff.\n\
         --- expected ---\n{expected}\n--- actual ---\n{current}",
        path.display()
    );
}

/// Two 64-bit FNV-1a hashes of `bytes` with different offsets, as 32 hex
/// digits (the campaign result store's scheme, without its salt).
pub fn digest(bytes: &[u8]) -> String {
    let fnv1a = |offset: u64| {
        bytes.iter().fold(offset, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let (h1, h2) = (fnv1a(0xcbf2_9ce4_8422_2325), fnv1a(0x6c62_272e_07bb_0142));
    format!("{h1:016x}{h2:016x}")
}

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
/// fixture when [`BLESS_ENV`] is `1` ([`check_fixture`]).
pub fn check_golden(name: &str, summary: &TraceSummary) {
    check_fixture(
        &golden_path(name),
        &render(summary),
        "VCABENCH_BLESS=1 cargo test -p vcabench-testkit --test golden_traces",
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
