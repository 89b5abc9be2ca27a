//! The byte boundary of the two frozen-model loaders, tested once — and
//! of the campaign-spec loader, the one boundary a user writes by hand.
//!
//! Every model loader is `artifact::from_json` plus a `validate`, so what
//! holds for one holds for all: a truncated artifact is an error, a damaged
//! one is an error or a different model but never a panic, and the
//! committed file is exactly what its own model writes back. A campaign
//! spec gets the same treatment through what `repro campaign` does with it
//! before the first run: `CampaignSpec::from_json`, then `expand`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcabench::campaign::{CampaignSpec, ScenarioSpec};
use vcabench::fingerprint::CentroidModel;
use vcabench::infer::GbtModel;

/// A loader, reduced to what the boundary can observe: whether the text
/// loads, and the bytes the loaded model freezes back to.
type Load = fn(&str) -> Result<String, String>;

const MODELS: [(&str, &str, Load); 2] = [
    (
        "gbt-v1",
        include_str!("../crates/infer/models/gbt-v1.json"),
        |text| GbtModel::from_json(text).and_then(|m| m.to_json()),
    ),
    (
        "centroid-v1",
        include_str!("../crates/fingerprint/models/centroid-v1.json"),
        |text| CentroidModel::from_json(text).and_then(|m| m.to_json()),
    ),
];

/// Most cut points (or flipped bits) tried per artifact: a file this short
/// is cut at every byte; both committed models (`centroid-v1` 2.3 KB,
/// `gbt-v1` 164 KB) are longer and get a seeded sample.
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

/// Every authoring form the spec language has, in one campaign: the four
/// profile spellings, client knobs, all three topologies, each competitor
/// spelling, every axis, both seed-axis forms.
const EVERY_FORM: &str = r#"{
  "name": "every form",
  "scenarios": [
    {
      "label": "dip",
      "base": {
        "type": "two_party", "kind": "Teams",
        "up": {"disruption_mbps": {"nominal": 1000, "reduced": 0.25, "start_secs": 6, "duration_secs": 3}},
        "down": {"steps_mbps": [[0, 2.0], [4, 0.5], [8, 2.0]]},
        "duration_secs": 12.0, "seed": 3,
        "knobs": {"teams_width_bug": true, "min_rate_mbps": 0.1, "max_rate_mbps": 2.5}
      }
    },
    {
      "base": {
        "type": "two_party", "kind": "Zoom",
        "up": {"steps": [[0, 1000000.0], [5000000, 250000.0]]},
        "down": {"constant_mbps": 1000.0},
        "duration_secs": 10.0, "seed": 1
      },
      "axes": {"kinds": ["Meet", "Zoom"], "up_mbps": [0.5, 1.0], "down_mbps": [2.0], "seeds": [41, 42]}
    },
    {
      "label": "rivals",
      "base": {
        "type": "competition", "incumbent": "Zoom", "competitor": {"Vca": "Meet"},
        "capacity_mbps": 2.0, "competitor_start_secs": 5, "competitor_duration_secs": 10,
        "total_secs": 20, "seed": 7
      },
      "axes": {"competitors": ["IperfUp", "Netflix", {"Vca": "Teams"}], "capacity_mbps": [0.5, 4.0]}
    },
    {
      "label": "gallery",
      "base": {"type": "multiparty", "kind": "Meet", "n": 4, "pin_c1": true, "duration_secs": 15.0, "seed": 9},
      "axes": {"seeds": {"base": 9, "count": 3}}
    }
  ]
}
"#;

const SPECS: [(&str, &str); 3] = [
    ("smoke.json", include_str!("../examples/specs/smoke.json")),
    (
        "trace_smoke.json",
        include_str!("../examples/specs/trace_smoke.json"),
    ),
    ("every-form", EVERY_FORM),
];

/// What `repro campaign` does with a spec file before it simulates: the
/// number of runs, or the one-line reason there are none. Every run that
/// comes out has a finite length — nothing downstream checks again.
fn load_spec(text: &str) -> Result<usize, String> {
    let runs = CampaignSpec::from_json(text)?.expand()?;
    for run in &runs {
        let secs = match &run.spec {
            ScenarioSpec::TwoParty(s) => s.duration_secs,
            ScenarioSpec::Competition(s) => s.timing_secs().2,
            ScenarioSpec::Multiparty(s) => s.duration_secs,
        };
        assert!(secs.is_finite(), "`{}` runs for {secs} s", run.label);
    }
    Ok(runs.len())
}

/// Byte ranges of the number literals of `text` (outside strings).
fn number_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let (mut spans, mut i) = (Vec::new(), 0);
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += 1 + (bytes[i] == b'\\') as usize;
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    i += 1;
                }
                spans.push(start..i);
            }
            _ => i += 1,
        }
    }
    spans
}

#[test]
fn a_campaign_spec_loads_whole_and_every_truncation_is_an_error() {
    for ((name, text), runs) in SPECS.into_iter().zip([18, 8, 18]) {
        assert_eq!(load_spec(text), Ok(runs), "{name}");
        assert!(text.is_ascii() && text.ends_with("}\n"), "{name}");
        for cut in 0..text.len() - 2 {
            assert!(load_spec(&text[..cut]).is_err(), "{name} cut at {cut}");
        }
    }
}

#[test]
fn a_damaged_campaign_spec_is_refused_or_loaded_never_a_panic() {
    for (name, text) in SPECS {
        let mut rng = StdRng::seed_from_u64(2021);
        let (mut refused, mut loaded) = (0, 0);
        for _ in 0..SAMPLE {
            let mut bytes = text.as_bytes().to_vec();
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match load_spec(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => loaded += 1,
                Err(_) => refused += 1,
            }
        }
        // A flip inside a digit or the indentation is another spec; one
        // inside a key, a tag or the punctuation is an error.
        assert!(
            refused > 100 && loaded > 50,
            "{name}: {refused} refused, {loaded} loaded"
        );
    }
}

#[test]
fn a_hostile_number_in_a_campaign_spec_is_an_error_never_a_panic() {
    // What a bit flip cannot write: a sign, a zero, an overflow to `inf`,
    // the largest integer, a fraction where a count belongs.
    let hostile = ["-1", "0", "1e999", "-1e999", "18446744073709551615", "0.5"];
    let mut refused = 0;
    for (name, text) in SPECS {
        for span in number_spans(text) {
            for value in hostile {
                let mut damaged = text.to_string();
                damaged.replace_range(span.clone(), value);
                // Refused with a reason, or a spec that is still sound.
                match load_spec(&damaged) {
                    Ok(_) => {}
                    Err(why) => {
                        assert!(!why.is_empty(), "{name}: {value} at {span:?}");
                        refused += 1;
                    }
                }
            }
        }
    }
    assert!(refused > 100, "{refused} refused");
    // Nesting past the parser's bound is an error, not a stack overflow.
    let deep = EVERY_FORM.replacen("[[0, 2.0]", &"[".repeat(200_000), 1);
    assert!(load_spec(&deep).unwrap_err().contains("nesting too deep"));
}
