//! Campaign example: author a sweep as data, run it in parallel with the
//! content-addressed result cache, and re-run to show every run cached.
//!
//! ```text
//! cargo run --release --example campaign
//! ```
//!
//! The same campaign can be written as a JSON file and driven without any
//! Rust at all: see `examples/specs/smoke.json` and
//! `repro campaign examples/specs/smoke.json --jobs 4`.

use vcabench::harness::run::unconstrained;
use vcabench::prelude::*;

fn main() {
    // A Fig-1-style mini sweep: two applications, two uplink caps, one seed,
    // 30-second calls. Everything defaultable is left out — the spec layer
    // normalizes before hashing, so equivalent authorings share cache slots.
    let campaign = CampaignSpec {
        name: "example-sweep".to_string(),
        scenarios: vec![ScenarioTemplate {
            label: Some("uplink".to_string()),
            base: ScenarioSpec::TwoParty(TwoPartySpec {
                kind: VcaKind::Zoom,
                up: unconstrained(),
                down: unconstrained(),
                duration_secs: 30.0,
                seed: 7,
                knobs: None,
            }),
            axes: Some(Axes {
                kinds: Some(vec![VcaKind::Meet, VcaKind::Zoom]),
                up_mbps: Some(vec![0.5, 1.0]),
                down_mbps: None,
                capacity_mbps: None,
                competitors: None,
                seeds: Some(SeedAxis::List(vec![7])),
            }),
        }],
    };

    // The spec is plain data — this JSON is exactly what a spec file holds.
    println!("campaign spec:\n{}\n", campaign.to_json());

    let dir = std::env::temp_dir().join("vcabench-campaign-example");
    let _ = std::fs::remove_dir_all(&dir);

    for pass in ["first pass (computes)", "second pass (all cached)"] {
        let summary = run_campaign_cached(&campaign, 4, &dir, false).expect("campaign runs");
        println!(
            "{pass}: {} runs, {} computed, {} cached -> {}",
            summary.total,
            summary.computed,
            summary.cached,
            summary.store_path.display()
        );
        for record in &summary.results {
            println!("  {} {}", &record.hash[..12], record.label);
        }
        println!();
    }

    let _ = std::fs::remove_dir_all(&dir);
}
