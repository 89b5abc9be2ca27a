//! Guard: the passive heuristics and the recorder plumbing are each
//! written once.
//!
//! What a header-free observer reads off a packet — the wire-size
//! classes, the frame-close gap, the tap vantage — is defined in
//! `crates/infer/src/flow.rs` and consumed by both `vcabench-infer` and
//! `vcabench-fingerprint`; sharing a recorder with a simulation and
//! getting it back is `harness::campaign::record_run`. This test fails,
//! listing file:line, if a second definition of any of them appears
//! outside a comment.

use std::path::{Path, PathBuf};

/// Defined in exactly one file under `crates/*/src`.
const ONE_DEFINITION: [&str; 5] = [
    "const HEADER_BYTES",
    "const AUDIO_WIRE",
    "const FULL_WIRE",
    "const FRAME_CLOSE_GAP_S",
    "enum Vantage",
];
/// Named in exactly one file under `crates/harness/src`.
const HARNESS_ONCE: &str = "Rc::try_unwrap";

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

/// `file:line` of every line in `files` whose code part contains `needle`,
/// and how many distinct files those are.
fn occurrences(root: &Path, files: &[PathBuf], needle: &str) -> (usize, Vec<String>) {
    let mut hits = Vec::new();
    let mut in_files = 0;
    for file in files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        let before = hits.len();
        for (i, line) in text.lines().enumerate() {
            // Everything from `//` on is a (doc) comment.
            let code = line.split("//").next().unwrap_or("");
            if code.contains(needle) {
                let rel = file.strip_prefix(root).unwrap_or(file);
                hits.push(format!("{}:{}", rel.display(), i + 1));
            }
        }
        in_files += usize::from(hits.len() > before);
    }
    (in_files, hits)
}

#[test]
fn flow_heuristics_and_recorder_plumbing_are_defined_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut all);
        }
    }
    all.sort();
    assert!(all.len() >= 80, "scan found only {} files", all.len());
    let harness: Vec<PathBuf> = all
        .iter()
        .filter(|f| f.starts_with(root.join("crates/harness/src")))
        .cloned()
        .collect();
    assert!(harness.len() >= 10, "harness: {} files", harness.len());

    let mut failures = Vec::new();
    for needle in ONE_DEFINITION {
        let (files, hits) = occurrences(root, &all, needle);
        if files != 1 {
            failures.push(format!("`{needle}` in {files} files: {}", hits.join(" ")));
        }
    }
    let (files, hits) = occurrences(root, &harness, HARNESS_ONCE);
    if files != 1 {
        failures.push(format!(
            "`{HARNESS_ONCE}` in {files} harness files: {}",
            hits.join(" ")
        ));
    }
    assert!(
        failures.is_empty(),
        "expected exactly one defining file each (the flow core is \
         crates/infer/src/flow.rs; recorders attach through \
         harness::campaign::record_run):\n{}",
        failures.join("\n")
    );
}
