//! Golden-trace byte identity for the optimized engine.
//!
//! Runs every scenario of `examples/specs/trace_smoke.json` through the
//! traced campaign path and asserts the emitted `events.jsonl` bytes are
//! identical to the blessed fixture. It was last re-blessed when links
//! began fixing each departure at enqueue, which re-orders events that
//! share a microsecond (the line counts did not move). The raw traces are
//! megabytes each, so the fixture pins a digest (the result store's
//! double-FNV idiom) plus byte and line counts per run.
//!
//! Engine optimizations must never change a single simulated byte; if a
//! deliberate behavior change lands, re-bless with:
//!
//! ```text
//! VCABENCH_BLESS=1 cargo test -p vcabench-harness --test golden_bytes
//! ```

use std::path::PathBuf;

use vcabench_campaign::CampaignSpec;
use vcabench_harness::run_spec_traced;
use vcabench_testkit::golden::{check_fixture, digest};

const FIXTURE: &str = "tests/golden/trace_smoke.digests.txt";

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn trace_smoke_events_are_byte_identical_to_blessed_fixture() {
    let spec_path = manifest_path("../../examples/specs/trace_smoke.json");
    let text = std::fs::read_to_string(&spec_path).expect("read trace_smoke.json");
    let campaign = CampaignSpec::from_json(&text).expect("parse trace_smoke.json");
    let runs = campaign.expand().expect("expand trace_smoke.json");
    assert!(!runs.is_empty(), "smoke campaign expands to runs");

    let trace_dir = std::env::temp_dir().join(format!("vcabench-golden-{}", std::process::id()));
    std::fs::create_dir_all(&trace_dir).unwrap();

    let mut lines = Vec::new();
    for run in &runs {
        run_spec_traced(&run.label, &run.spec, &trace_dir);
        let path = trace_dir.join(format!("{}.events.jsonl", run.label));
        let bytes = std::fs::read(&path).expect("trace artifact written");
        let line_count = bytes.iter().filter(|&&b| b == b'\n').count();
        lines.push(format!(
            "{} {} {} {}",
            run.label,
            digest(&bytes),
            bytes.len(),
            line_count
        ));
    }
    let _ = std::fs::remove_dir_all(&trace_dir);
    let mut current = lines.join("\n");
    current.push('\n');

    check_fixture(
        &manifest_path(FIXTURE),
        &current,
        "VCABENCH_BLESS=1 cargo test -p vcabench-harness --test golden_bytes",
    );
}
