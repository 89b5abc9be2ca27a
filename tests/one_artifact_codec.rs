//! Guard: the schema-versioned artifacts have one codec.
//!
//! An artifact is a struct that derives `Serialize` (and `Deserialize`
//! where the workspace reads it back), written and read through
//! `crates/telemetry/src/artifact.rs`: that file alone names the
//! `"schema"` member and pretty-prints, and the model loaders decode
//! typed structs instead of walking a `serde_json::Value`. A JSON object
//! is assembled by hand only where a struct cannot state the shape — a
//! span's flattened `kind`, the diagnosis' flattened timeline. This test
//! fails, listing file:line, when a second hand-rolled codec appears in the five crates
//! that write artifacts, outside comments and `#[cfg(test)]` items.

use std::path::{Path, PathBuf};

/// The crates that write (and read back) artifacts.
const CRATES: [&str; 5] = ["telemetry", "observe", "infer", "fingerprint", "harness"];
/// The one codec.
const CODEC: &str = "crates/telemetry/src/artifact.rs";
/// Named in [`CODEC`] and nowhere else.
const CODEC_ONLY: [&str; 2] = ["\"schema\"", "to_string_pretty"];
/// The hand-written `impl Serialize`s that assemble an object themselves.
const HAND_WRITTEN: [&str; 2] = [
    "crates/observe/src/span.rs",
    "crates/observe/src/anomaly.rs",
];
/// The loaders that used to walk a `Value` by key.
const TYPED_LOADERS: [&str; 4] = [
    "crates/infer/src/model.rs",
    "crates/infer/src/gbt.rs",
    "crates/infer/src/registry.rs",
    "crates/fingerprint/src/classifier.rs",
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

/// `needle` as a path of its own, not the tail of `BTreeMap::new()` or
/// `SmallMap::new()`.
fn names(code: &str, needle: &str) -> bool {
    code.match_indices(needle).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn artifacts_are_written_and_read_through_one_codec() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in CRATES {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    files.sort();
    assert!(files.len() >= 40, "scan found only {} files", files.len());

    let mut failures = Vec::new();
    let mut seen_in_codec = 0;
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .display()
            .to_string();
        let text = std::fs::read_to_string(file).expect("readable source file");
        // A file's test items come last, behind its first `#[cfg(test)]`.
        let shipped = text
            .lines()
            .enumerate()
            .take_while(|(_, line)| line.trim() != "#[cfg(test)]");
        for (i, line) in shipped {
            // Everything from `//` on is a (doc) comment.
            let code = line.split("//").next().unwrap_or("");
            let mut banned = Vec::new();
            for needle in CODEC_ONLY {
                if code.contains(needle) && rel == CODEC {
                    seen_in_codec += 1;
                } else if code.contains(needle) {
                    banned.push(needle);
                }
            }
            if names(code, "Map::new()") && !HAND_WRITTEN.contains(&rel.as_str()) {
                banned.push("Map::new()");
            }
            if code.contains(".get(\"") && TYPED_LOADERS.contains(&rel.as_str()) {
                banned.push(".get(\"");
            }
            for needle in banned {
                failures.push(format!("{rel}:{}: {needle}", i + 1));
            }
        }
    }
    assert!(
        seen_in_codec >= CODEC_ONLY.len(),
        "{CODEC} no longer names {CODEC_ONLY:?}: the guard is looking in the wrong place"
    );
    assert!(
        failures.is_empty(),
        "an artifact is a struct that derives Serialize / Deserialize, written with \
         artifact::to_json and read with artifact::from_json ({CODEC}); found a \
         hand-rolled codec at:\n{}",
        failures.join("\n")
    );
}
