//! The byte boundary of the four frozen-model loaders, tested once.
//!
//! Every loader is `artifact::from_json` plus a `validate`, so what holds
//! for one holds for all: a truncated artifact is an error, a damaged one
//! is an error or a different model but never a panic, and the committed
//! file is exactly what its own model writes back.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcabench::fingerprint::CentroidModel;
use vcabench::infer::{GbtModel, KindModels, LinearModel};

/// A loader, reduced to what the boundary can observe: whether the text
/// loads, and the bytes the loaded model freezes back to.
type Load = fn(&str) -> Result<String, String>;

const MODELS: [(&str, &str, Load); 4] = [
    (
        "linear-v1",
        include_str!("../crates/infer/models/linear-v1.json"),
        |text| LinearModel::from_json(text).map(|m| m.to_json()),
    ),
    (
        "linear-kinds-v1",
        include_str!("../crates/infer/models/linear-kinds-v1.json"),
        |text| KindModels::from_json(text).map(|m| m.to_json()),
    ),
    (
        "gbt-v1",
        include_str!("../crates/infer/models/gbt-v1.json"),
        |text| GbtModel::from_json(text).map(|m| m.to_json()),
    ),
    (
        "centroid-v1",
        include_str!("../crates/fingerprint/models/centroid-v1.json"),
        |text| CentroidModel::from_json(text).map(|m| m.to_json()),
    ),
];

/// Most cut points (or flipped bits) tried per artifact: the three small
/// files are covered exhaustively, `gbt-v1` (164 KB) by a seeded sample.
const SAMPLE: usize = 1000;

#[test]
fn committed_artifacts_round_trip_byte_for_byte() {
    for (name, text, load) in MODELS {
        assert_eq!(load(text).as_deref(), Ok(text), "{name}");
    }
}

#[test]
fn every_truncation_is_an_error() {
    for (name, text, load) in MODELS {
        assert!(text.is_ascii() && text.ends_with("}\n"), "{name}");
        // Without its final newline the document is still whole; any
        // shorter and it has lost at least its closing brace.
        let whole = text.len() - 1;
        assert!(load(&text[..whole]).is_ok(), "{name} without the newline");
        let mut rng = StdRng::seed_from_u64(18);
        let cuts: Vec<usize> = if whole <= SAMPLE {
            (0..whole).collect()
        } else {
            (0..SAMPLE).map(|_| rng.gen_range(0..whole)).collect()
        };
        for cut in cuts {
            let loaded = load(&text[..cut]);
            assert!(loaded.is_err(), "{name} cut at {cut} of {whole} loaded");
        }
    }
}

#[test]
fn bit_flips_are_refused_or_loaded_never_a_panic() {
    for (name, text, load) in MODELS {
        let mut rng = StdRng::seed_from_u64(2021);
        let (mut refused, mut loaded) = (0, 0);
        for _ in 0..SAMPLE {
            let mut bytes = text.as_bytes().to_vec();
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match load(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => loaded += 1,
                Err(_) => refused += 1,
            }
        }
        // A flip inside a digit is another number; one inside a key, a
        // name, the punctuation, the indentation or an index is an error.
        assert!(
            refused > 100 && loaded > 50,
            "{name}: {refused} refused, {loaded} loaded"
        );
    }
}
