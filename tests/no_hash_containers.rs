//! Guard: the simulation crates stay free of randomly seeded hash tables.
//!
//! `std`'s `HashMap`/`HashSet` hash with a per-process, per-map random
//! key: iterating one is not a function of its contents, and looking one
//! up costs a SipHash of the key on what is here a per-packet path. The
//! seven crates that make up the simulator keep their tables in dense
//! `Vec`s, `vcabench_simcore::SmallMap` or `BTreeMap` instead; this test
//! fails, listing file:line, if a hash container comes back outside a
//! comment.

use std::path::{Path, PathBuf};

const SIM_CRATES: [&str; 7] = [
    "simcore",
    "netsim",
    "transport",
    "congestion",
    "media",
    "vca",
    "apps",
];
const BANNED: [&str; 3] = ["HashMap", "HashSet", "RandomState"];

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

#[test]
fn simulation_crates_use_no_hash_containers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in SIM_CRATES {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    files.sort();
    assert!(files.len() >= 35, "scan found only {} files", files.len());
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            // Everything from `//` on is a (doc) comment.
            let code = line.split("//").next().unwrap_or("");
            if let Some(word) = BANNED.iter().find(|w| code.contains(**w)) {
                let rel = file.strip_prefix(root).unwrap_or(file);
                hits.push(format!("{}:{}: {word}", rel.display(), i + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "hash containers in the simulation crates (use a dense Vec, \
         vcabench_simcore::SmallMap or BTreeMap):\n{}",
        hits.join("\n")
    );
}
