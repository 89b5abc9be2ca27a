//! Guard: the result store reads and writes records without `Value` trees.
//!
//! A record line is ~45 KB of series; `load_store` lifts two strings out
//! of it with `serde_json::read::Cursor` and `record_line` streams it
//! through `Serialize::write_json`. Parsing a line with
//! `serde_json::from_str`, or building one with `to_json_value`, brings
//! back the hundreds of thousands of allocations a cached campaign re-run
//! used to cost; this test fails, listing file:line, if either name
//! appears in `crates/campaign/src/store.rs` outside `#[cfg(test)]` items
//! and comments. (The tree-based reader lives on as the test oracle in
//! `crates/campaign/src/store/oracle.rs`.)

use std::path::Path;

const FILE: &str = "crates/campaign/src/store.rs";
const BANNED: [&str; 2] = ["serde_json::from_str", "to_json_value"];

#[test]
fn store_names_no_tree_builders_outside_tests() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FILE);
    let text = std::fs::read_to_string(&path).expect("readable source file");
    // The file's test items come last, each behind its own `#[cfg(test)]`.
    let shipped = text
        .lines()
        .enumerate()
        .take_while(|(_, line)| line.trim() != "#[cfg(test)]");
    let mut scanned = 0;
    let mut hits = Vec::new();
    for (i, line) in shipped {
        scanned += 1;
        // Everything from `//` on is a (doc) comment.
        let code = line.split("//").next().unwrap_or("");
        if let Some(word) = BANNED.iter().find(|w| code.contains(**w)) {
            hits.push(format!("{FILE}:{}: {word}", i + 1));
        }
    }
    assert!(
        scanned >= 150 && text.contains("fn load_store") && text.contains("fn record_line"),
        "scan covered only {scanned} lines of {FILE}"
    );
    assert!(
        hits.is_empty(),
        "the store builds a Value tree again (use serde_json::read::Cursor \
         to read and Serialize::write_json to write):\n{}",
        hits.join("\n")
    );
}
