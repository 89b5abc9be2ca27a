//! Golden digests of every experiment result.
//!
//! Each table/figure module's `run` is executed on a configuration small
//! enough for a debug build and its serialized result pinned by digest
//! (the `golden_bytes.rs` idiom: double FNV plus a byte count per row).
//! The fixture was blessed on the serial per-module loops, before the
//! experiments moved onto one sweep; whatever runs the grids since must
//! reproduce it byte for byte on any number of workers. If a deliberate
//! model change lands, re-bless with:
//!
//! ```text
//! VCABENCH_BLESS=1 cargo test -p vcabench-harness --test experiments_golden
//! ```

use std::path::PathBuf;

use serde::Serialize;
use vcabench_harness::experiments::*;
use vcabench_simcore::SimDuration;

const FIXTURE: &str = "tests/golden/experiments.digests.txt";

fn fnv1a(offset: u64, bytes: &[u8]) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 128-bit digest in the style of the campaign result store.
fn digest(bytes: &[u8]) -> String {
    let h1 = fnv1a(0xcbf2_9ce4_8422_2325, bytes);
    let h2 = fnv1a(0x6c62_272e_07bb_0142, bytes);
    format!("{h1:016x}{h2:016x}")
}

fn row(name: &str, result: &impl Serialize) -> String {
    let json = serde_json::to_string(result).expect("serializable result");
    format!("{name} {} {}", digest(json.as_bytes()), json.len())
}

/// One fixture row per result. Every grid has two repetitions where the
/// module has a repetition count, so repetition order is part of what is
/// pinned; the competition groups run the paper's fixed 210 s procedure.
fn rows(jobs: usize) -> String {
    let secs = SimDuration::from_secs;
    let lines = [
        row(
            "table2",
            &table2::run(
                &table2::Table2Config {
                    call: secs(12),
                    reps: 2,
                    seed: 42,
                },
                jobs,
            ),
        ),
        row(
            "fig1",
            &fig1::run(
                &fig1::Fig1Config {
                    caps: vec![0.5, 2.0],
                    call: secs(10),
                    reps: 2,
                    seed: 11,
                },
                jobs,
            ),
        ),
        row(
            "fig2",
            &fig2::run(
                &fig2::Fig2Config {
                    caps: vec![0.5, 2.0],
                    call: secs(10),
                    reps: 2,
                    seed: 21,
                },
                jobs,
            ),
        ),
        row(
            "fig3",
            &fig3::run(
                &fig3::Fig3Config {
                    caps: vec![0.3, 2.0],
                    call: secs(10),
                    reps: 2,
                    seed: 31,
                },
                jobs,
            ),
        ),
        row(
            "fig4_5_6",
            &fig4_5_6::run(
                &fig4_5_6::DisruptionConfig {
                    levels: vec![0.25, 1.0],
                    call: secs(20),
                    start: secs(6),
                    length: secs(5),
                    reps: 2,
                    seed: 41,
                },
                jobs,
            ),
        ),
        row(
            "fig8_10",
            &fig8_to_11::run(&fig8_to_11::Fig8Config::quick(), jobs),
        ),
        row(
            "fig12",
            &fig12_13::run(&fig12_13::Fig12Config::quick(), jobs),
        ),
        row("fig13", &fig12_13::run_fig13(131, jobs)),
        row("fig14", &fig14::run(&fig14::Fig14Config::quick(), jobs)),
        row(
            "fig15",
            &fig15::run(
                &fig15::Fig15Config {
                    sizes: vec![2, 3, 5],
                    call: secs(8),
                    reps: 2,
                    seed: 151,
                },
                jobs,
            ),
        ),
        row(
            "ext_impairments",
            &ext::impairments::run(
                &ext::ImpairmentsConfig {
                    delays_ms: vec![0, 50],
                    loss_rates: vec![0.0, 0.02],
                    jitters_ms: vec![0, 20],
                    call: secs(8),
                    seed: 400,
                },
                jobs,
            ),
        ),
        row("ext_ablation", &ext::ablation::run(3, jobs)),
    ];
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

fn assert_matches_fixture(jobs: usize) {
    let blessed = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with VCABENCH_BLESS=1 to create it",
            fixture_path().display()
        )
    });
    assert_eq!(
        rows(jobs),
        blessed,
        "an experiment result changed at jobs = {jobs} — the grids no longer run \
         the same scenarios in the same order; if intentional, re-bless via \
         VCABENCH_BLESS=1"
    );
}

fn blessing() -> bool {
    std::env::var("VCABENCH_BLESS").ok().as_deref() == Some("1")
}

#[test]
fn experiment_results_are_byte_identical_to_blessed_fixture() {
    if blessing() {
        std::fs::write(fixture_path(), rows(1)).unwrap();
        eprintln!("blessed {}", fixture_path().display());
        return;
    }
    assert_matches_fixture(1);
}

#[test]
fn experiment_results_do_not_depend_on_jobs() {
    // While the other test rewrites the fixture there is nothing to compare to.
    if !blessing() {
        assert_matches_fixture(3);
    }
}
