//! Guard: there is one way to run a scenario.
//!
//! `crates/harness/src/run.rs` holds one runner per topology, each taking
//! the campaign crate's spec struct; every table and figure states its grid
//! and hands it to `experiments::sweep`, and the engine profiler and the
//! test kit's fuzzer, golden traces and smoke tests bring their hook or
//! reader to the same runners. This test fails, listing file:line, if a
//! second path appears: a simulation stepped outside `run.rs`, a harness
//! or testkit module wiring its own network, or one of the retired runner
//! names or of the test kit's retired scenario language coming back.

use std::path::{Path, PathBuf};

/// Only `run.rs` may step a simulation under `crates/harness/src`.
const STEPS: &str = ".run_until(";
const MAY_STEP: [&str; 1] = ["run.rs"];
/// Only `run.rs` builds or wires a call (`wire_call` covers `wire_call_at`):
/// no other file of `crates/harness/src`, nothing in `crates/testkit/src`.
const WIRING: [&str; 5] = [
    "Network::new",
    "wire_call",
    "two_party_call",
    "multiparty_call",
    "topology::",
];
/// The second competition config and its enum, and the test kit's second
/// scenario language: gone from the whole tree.
const RETIRED: [&str; 5] = [
    "CompetitionConfig",
    "Competitor::",
    "ProfileSpec",
    "CrossTraffic",
    "ALL_KINDS",
];
/// The positional runner ladder: gone from everything above the simulator.
const RETIRED_ABOVE_SIM: [&str; 4] = [
    "run_two_party",
    "run_competition",
    "run_multiparty",
    "competitor_from_spec",
];
const ABOVE_SIM: [&str; 7] = [
    "crates/harness",
    "crates/testkit",
    "crates/bench",
    "crates/campaign",
    "src",
    "tests",
    "examples",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `file:line` of every line of `files` containing `needle`; with
/// `code_only`, everything from `//` on is a comment and does not count.
fn occurrences(root: &Path, files: &[&PathBuf], needle: &str, code_only: bool) -> Vec<String> {
    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            let scanned = if code_only {
                line.split("//").next().unwrap_or("")
            } else {
                line
            };
            if scanned.contains(needle) {
                let rel = file.strip_prefix(root).unwrap_or(file);
                hits.push(format!("{}:{}", rel.display(), i + 1));
            }
        }
    }
    hits
}

#[test]
fn scenarios_run_through_one_runner_per_topology_and_one_sweep() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut all = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut all);
    }
    all.retain(|f| *f != this_file && !f.components().any(|c| c.as_os_str() == "target"));
    all.sort();
    assert!(all.len() >= 120, "scan found only {} files", all.len());
    let under = |dir: &str| -> Vec<&PathBuf> {
        let dir = root.join(dir);
        all.iter().filter(|f| f.starts_with(&dir)).collect()
    };
    let harness = under("crates/harness/src");
    let testkit = under("crates/testkit/src");
    assert!(harness.len() >= 20, "harness: {} files", harness.len());
    assert!(testkit.len() >= 3, "testkit: {} files", testkit.len());

    let mut failures = Vec::new();
    let mut forbid = |what: &str, hits: Vec<String>| {
        if !hits.is_empty() {
            failures.push(format!("{what}: {}", hits.join(" ")));
        }
    };
    let outside_run: Vec<&PathBuf> = harness
        .iter()
        .filter(|f| !MAY_STEP.iter().any(|ok| f.ends_with(ok)))
        .copied()
        .collect();
    forbid(
        "`.run_until(` outside run.rs",
        occurrences(root, &outside_run, STEPS, true),
    );
    let may_not_wire: Vec<&PathBuf> = outside_run.iter().chain(&testkit).copied().collect();
    for needle in WIRING {
        let hits = occurrences(root, &may_not_wire, needle, true);
        forbid(&format!("`{needle}` outside run.rs"), hits);
    }
    let everything: Vec<&PathBuf> = all.iter().collect();
    for needle in RETIRED {
        forbid(
            &format!("retired `{needle}`"),
            occurrences(root, &everything, needle, false),
        );
    }
    let above_sim: Vec<&PathBuf> = ABOVE_SIM.iter().flat_map(|dir| under(dir)).collect();
    for needle in RETIRED_ABOVE_SIM {
        forbid(
            &format!("retired `{needle}`"),
            occurrences(root, &above_sim, needle, false),
        );
    }
    assert!(
        failures.is_empty(),
        "a scenario runs through `harness::run::{{two_party, competition, multiparty}}` \
         on a `vcabench_campaign` spec, and a grid of them through \
         `harness::experiments::sweep`:\n{}",
        failures.join("\n")
    );
}
