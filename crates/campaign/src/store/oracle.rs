//! Differential test of the store reader against the code it replaced.
//!
//! Until PR 14 `load_store` parsed every record line into a
//! `serde_json::Value` tree to read two strings out of it. That body lives
//! on here, test-only, as the oracle: over generated stores the scanning
//! reader must accept and reject the same files (failing on the same
//! line) and return the same `(hash, label, line)` records, and damaged
//! stores — every byte prefix, a thousand bit flips — are refused or read
//! as the oracle reads them, never a panic or a hang.

use super::Entry;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Value;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// A record as both readers report it.
#[derive(Debug, PartialEq)]
struct Record {
    hash: String,
    label: String,
    line: String,
}

/// The reader under test, over a file's bytes, its records in the
/// oracle's shape. Its own order is checked too: sorted by hash, one
/// record each, and every record found where it is.
fn parse_store(bytes: &[u8]) -> Result<BTreeMap<String, Record>, String> {
    let records = super::parse_store(bytes)?;
    for (j, entry) in records.0.iter().enumerate() {
        assert_eq!(records.find(entry.hash()), Some(j), "{records:?}");
    }
    assert!(records.0.windows(2).all(|w| w[0].hash() < w[1].hash()));
    let record = |entry: Entry| {
        let (hash, label) = (entry.hash().to_owned(), entry.label().to_owned());
        let line = entry.line;
        (hash.clone(), Record { hash, label, line })
    };
    Ok(records.0.into_iter().map(record).collect())
}

/// The old reader: a `Value` tree per line.
fn oracle_parse_store(text: &str) -> Result<BTreeMap<String, Record>, String> {
    let mut records = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("{}: bad record: {e}", ln + 1))?;
        let hash = v
            .get("hash")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: record missing hash", ln + 1))?
            .to_string();
        let label = v
            .get("label")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        records.insert(
            hash.clone(),
            Record {
                hash,
                label,
                line: line.to_string(),
            },
        );
    }
    Ok(records)
}

/// Both readers' verdicts, errors reduced to the line they blame.
fn verdicts(text: &str) -> [Result<BTreeMap<String, Record>, String>; 2] {
    let line_of = |e: String| e.split(':').next().unwrap_or_default().to_string();
    [
        parse_store(text.as_bytes()).map_err(line_of),
        oracle_parse_store(text).map_err(line_of),
    ]
}

fn assert_agree(text: &str) {
    let [new, old] = verdicts(text);
    assert_eq!(new, old, "readers disagree on {text:?}");
}

thread_local! {
    /// Every item [`pick`] has drawn on this thread.
    static DRAWN: RefCell<BTreeSet<&'static str>> = RefCell::default();
}

fn pick(rng: &mut TestRng, items: &[&'static str]) -> &'static str {
    let item = items[rng.usize_in(0, items.len())];
    DRAWN.with(|drawn| drawn.borrow_mut().insert(item));
    item
}

/// What a `hash` or `label` member may hold besides a plain string: JSON
/// values as text.
const ODD_VALUES: &[&str] = &[
    "null",
    "true",
    "7",
    "-0.5",
    "[]",
    "{}",
    "[\"h\"]",
    "{\"hash\":\"inner\",\"label\":\"inner\"}",
    "[[1,2],[3,{\"hash\":\"deep\"}]]",
    "\"\"",
];
/// Few distinct hash stems, so that lines collide and the later one wins.
const STEMS: &[&str] = &["a1", "b2", "c3", "d4"];
/// What follows a stem inside its string (the empty one twice as often).
const DECORATIONS: &[&str] = &[
    "", "", "é", "日本", "\\n", "\\\"", "\\\\", "\\u0041", "\\ud800", "\\/", " ",
];
/// Lines with nothing on them.
const BLANK_LINES: &[&str] = &["", " ", "\t", "  \t "];
/// Lines that are not a record object.
const NOT_RECORDS: &[&str] = &[
    "[1,2]",
    "7",
    "\"hash\"",
    "null",
    "[{\"hash\":\"x\"}]",
    "{}",
    "{\"hash\"}",
    "{",
    "{\"hash\":\"x\"}}",
    "{\"hash\":\"x\",}",
    "nul",
];
/// Blanks around a record and after its commas.
const PADS: &[&str] = &["", "", "", " ", "\t"];
/// Line ends.
const NEWLINES: &[&str] = &["\n", "\n", "\r\n"];

fn odd_value(rng: &mut TestRng) -> &'static str {
    pick(rng, ODD_VALUES)
}

fn name(rng: &mut TestRng) -> String {
    let stem = pick(rng, STEMS);
    let decor = pick(rng, DECORATIONS);
    format!("\"{stem}{decor}\"")
}

/// One store line: usually a record, sometimes something a reader must
/// refuse or read around.
fn store_line(rng: &mut TestRng) -> String {
    match rng.usize_in(0, 19) {
        0 => return pick(rng, BLANK_LINES).to_string(),
        1 => return pick(rng, NOT_RECORDS).to_string(),
        _ => {}
    }
    let mut members: Vec<String> = Vec::new();
    for _ in 0..rng.usize_in(0, 2) {
        let value = if rng.usize_in(0, 5) == 0 {
            odd_value(rng).to_string()
        } else {
            name(rng)
        };
        members.push(format!("\"hash\":{value}"));
    }
    for _ in 0..rng.usize_in(0, 2) {
        let value = if rng.usize_in(0, 3) == 0 {
            odd_value(rng).to_string()
        } else {
            name(rng)
        };
        members.push(format!("\"label\":{value}"));
    }
    members.push(format!(
        "\"spec\":{{\"type\":\"multiparty\",\"hash\":{},\"n\":{}}}",
        odd_value(rng),
        rng.usize_in(2, 9)
    ));
    members.push(format!(
        "\"outcome\":{{\"up_series\":[[0,{}],[0.5,1e-7]],\"label\":[{}],\"ttr_secs\":null}}",
        rng.unit_f64(),
        odd_value(rng)
    ));
    if rng.usize_in(0, 3) == 0 {
        // An escaped spelling of a key is still that key.
        members.push(format!("\"h\\u0061sh\":{}", name(rng)));
    }
    // Any member order.
    for i in (1..members.len()).rev() {
        members.swap(i, rng.usize_in(0, i + 1));
    }
    let pad = pick(rng, PADS);
    format!("{pad}{{{}}}{pad}", members.join(&format!(",{pad}")))
}

fn store_text(rng: &mut TestRng) -> String {
    let newline = pick(rng, NEWLINES);
    let lines: Vec<String> = (0..rng.usize_in(0, 12)).map(|_| store_line(rng)).collect();
    let mut text = lines.join(newline);
    if rng.usize_in(0, 2) == 0 {
        text.push_str(newline);
    }
    text
}

proptest! {
    #[test]
    fn scanning_reader_agrees_with_the_value_reader(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..8 {
            assert_agree(&store_text(&mut rng));
        }
    }
}

/// `pick` draws from a half-open range: the generator reaches the last
/// item of every list too, and stores both with and without a final line
/// end.
#[test]
fn the_generator_draws_every_listed_item() {
    let mut rng = TestRng::seed_from_u64(49);
    let texts: Vec<String> = (0..400).map(|_| store_text(&mut rng)).collect();
    let lists = [
        ODD_VALUES,
        STEMS,
        DECORATIONS,
        BLANK_LINES,
        NOT_RECORDS,
        PADS,
        NEWLINES,
    ];
    DRAWN.with(|drawn| {
        let drawn = drawn.borrow();
        for item in lists.concat() {
            assert!(drawn.contains(item), "never drew {item:?}");
        }
    });
    assert!(texts.iter().any(|t| t.contains("\r\n")));
    let unterminated = texts.iter().filter(|t| !t.is_empty() && !t.ends_with('\n'));
    let terminated = texts.iter().filter(|t| t.ends_with('\n'));
    assert!(unterminated.count() > 50 && terminated.count() > 50);
}

#[test]
fn each_documented_case_agrees_and_reads_as_documented() {
    let read = |text: &str| {
        assert_agree(text);
        parse_store(text.as_bytes()).map(|records| {
            records
                .into_values()
                .map(|r| (r.hash, r.label, r.line))
                .collect::<Vec<_>>()
        })
    };
    let rec = |h: &str, l: &str, line: &str| (h.to_string(), l.to_string(), line.to_string());

    // Escapes and non-ASCII in the two lifted strings.
    let line = r#"{"hash":"hé\n","label":"日本 \"x\" \\ \/","spec":{},"outcome":{}}"#;
    assert_eq!(read(line), Ok(vec![rec("hé\n", "日本 \"x\" \\ /", line)]));
    // A key repeated inside one line keeps its last value ...
    let line = r#"{"hash":"first","label":"a","hash":"second","label":"b"}"#;
    assert_eq!(read(line), Ok(vec![rec("second", "b", line)]));
    // ... even when that last value is unusable, and nested keys of the
    // same name are not the record's.
    assert!(read(r#"{"hash":"x","hash":7}"#).is_err());
    let line = r#"{"spec":{"hash":"inner","label":"inner"},"hash":"outer"}"#;
    assert_eq!(read(line), Ok(vec![rec("outer", "", line)]));
    // The same hash on two lines: the later line wins.
    let (a, b) = (
        r#"{"hash":"h","label":"one"}"#,
        r#"{"hash":"h","label":"two"}"#,
    );
    assert_eq!(read(&format!("{a}\n{b}\n")), Ok(vec![rec("h", "two", b)]));
    // A hash that is not a string is an error; a label that is not one is empty.
    for bad in ["7", "null", "[\"h\"]", "{\"hash\":\"h\"}"] {
        let err = read(&format!("{{\"hash\":{bad}}}")).unwrap_err();
        assert!(err.contains("1: record missing hash"), "{err}");
    }
    for odd in ["7", "null", "[\"l\"]", "{\"label\":\"l\"}", "true"] {
        let line = format!("{{\"label\":{odd},\"hash\":\"h\"}}");
        assert_eq!(read(&line), Ok(vec![rec("h", "", &line)]));
    }
    // A line that is not an object, or not JSON, is an error naming the line.
    for bad in [
        "[1,2]",
        "7",
        "\"hash\"",
        "{\"hash\":\"h\"",
        "{\"hash\":\"h\"} x",
        "{\"hash\":\"h\",}",
    ] {
        let err = read(&format!("{{\"hash\":\"ok\"}}\n{bad}\n")).unwrap_err();
        assert!(err.starts_with("2: "), "{bad}: {err}");
    }
    // Blank and whitespace-only lines are skipped; CRLF and a missing
    // final newline read the same records, and a line keeps its own
    // leading and trailing blanks.
    let line = r#"{"hash":"h","label":"l"}"#;
    for text in [
        format!("\n{line}\n\n"),
        format!("  \n\t\n{line}\n \t \n"),
        format!("{line}\r\n\r\n"),
        line.to_string(),
    ] {
        assert_eq!(read(&text), Ok(vec![rec("h", "l", line)]), "{text:?}");
    }
    let padded = format!(" {line}\t");
    assert_eq!(read(&padded), Ok(vec![rec("h", "l", &padded)]));
    assert_eq!(read(""), Ok(vec![]));
}

/// Twenty records in the store's own format.
fn valid_store() -> String {
    (0..20)
        .map(|i| {
            super::record_line(
                &mut String::new(),
                &format!("{:032x}", i as u128 * 0x9e37_79b9_7f4a_7c15_f39c),
                &format!("meet_n4_seed_{i}"),
                &super::tests::toy_campaign("fuzz", 20).expand().unwrap()[i].spec,
                &crate::ScenarioOutcome::TwoParty(crate::TwoPartyRecord {
                    up_series: vec![(0.0, i as f64), (0.5, 1e-7), (1.0, 0.1 + i as f64)],
                    down_series: vec![],
                    target_series: vec![(0.0, 2.0)],
                    steady_up_mbps: 0.75,
                    steady_down_mbps: f64::NAN,
                    ttr_secs: None,
                    nominal_mbps: Some(1.0),
                    firs_received: i as u64,
                    freeze_secs: 0.25,
                    frames_decoded: 600,
                }),
            ) + "\n"
        })
        .collect()
}

#[test]
fn every_prefix_is_refused_or_read_like_the_oracle() {
    let text = valid_store();
    assert_eq!(parse_store(text.as_bytes()).unwrap().len(), 20);
    let (mut refused, mut accepted) = (0, 0);
    for cut in 0..=text.len() {
        let [new, old] = verdicts(&text[..cut]);
        assert_eq!(new, old, "prefix of {cut} bytes");
        // Whole lines (with or without the final newline) are a store.
        let whole = cut == 0 || text.as_bytes()[cut - 1] == b'\n' || text[cut..].starts_with('\n');
        assert_eq!(new.is_ok(), whole, "prefix of {cut} bytes");
        *(if new.is_ok() {
            &mut accepted
        } else {
            &mut refused
        }) += 1;
    }
    assert_eq!(accepted, 41);
    assert!(refused > 5_000, "{refused} refused");
}

#[test]
fn single_bit_flips_are_refused_or_read_like_the_oracle() {
    let text = valid_store();
    let mut rng = TestRng::seed_from_u64(2021);
    let (mut refused, mut accepted, mut not_text) = (0, 0, 0);
    for _ in 0..1000 {
        let mut bytes = text.clone().into_bytes();
        let bit = rng.usize_in(0, bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // The oracle reads text; a flip that leaves the file not UTF-8 is
        // refused on the line that holds the flipped byte.
        let Ok(flipped) = std::str::from_utf8(&bytes) else {
            let line = 1 + bytes[..bit / 8].iter().filter(|&&b| b == b'\n').count();
            let err = parse_store(&bytes).unwrap_err();
            let want = format!("{line}: bad record: not UTF-8");
            assert!(err.starts_with(&want), "bit {bit}: {err}");
            not_text += 1;
            continue;
        };
        let [new, old] = verdicts(flipped);
        assert_eq!(new, old, "bit {bit}");
        *(if new.is_ok() {
            &mut accepted
        } else {
            &mut refused
        }) += 1;
    }
    // Most flips only change a digit or a letter inside a value; the rest
    // break a quote, a bracket or a literal.
    assert!(
        refused > 50 && accepted > 300 && not_text > 50,
        "{refused} refused, {accepted} accepted, {not_text} not UTF-8"
    );
}

#[test]
fn a_deeply_nested_line_is_an_error_not_a_stack_overflow() {
    // Both shapes used to take the recursive parser down with the process.
    for (deep, why) in [
        ("[".repeat(200_000), "not a JSON object"),
        (
            format!("{{\"hash\":\"h\",\"spec\":{}", "[".repeat(200_000)),
            "nesting too deep",
        ),
    ] {
        let err = parse_store(format!("{{\"hash\":\"ok\"}}\n{deep}\n").as_bytes()).unwrap_err();
        assert!(
            err.starts_with("2: bad record") && err.contains(why),
            "{err}"
        );
    }
    // The bound itself is generous: 100 levels inside a record are fine.
    let nested = format!(
        "{{\"hash\":\"h\",\"x\":{}{}}}",
        "[".repeat(100),
        "]".repeat(100)
    );
    assert_eq!(parse_store(nested.as_bytes()).unwrap().len(), 1);
}
