//! Property tests closing the import/export loop: arbitrary valid event
//! sequences survive export → parse/replay → re-export byte-identically.
//!
//! The exporter promises exact round-trips (`parse_event_line` is the
//! inverse of `Event::to_jsonl_line`, floats use shortest-round-trip
//! formatting), but until now only hand-picked events exercised it.
//!
//! The other direction — bytes that are *not* a valid trace — is covered
//! at the end: truncated and bit-flipped traces are refused or accepted,
//! never a panic. Last comes the document loop itself: it reads canonical
//! lines by one path and everything else by another, and no document may
//! be able to tell.

use proptest::prelude::*;
use vcabench_simcore::SimTime;
use vcabench_telemetry::{
    events_jsonl, parse_event_line, replay_jsonl, validate_jsonl, Event, EventKind, EventLog,
    NullRecorder, Recorder,
};

mod common;
use common::{sequence_of, splitmix};

proptest! {
    /// Every line of the export parses back to the exact event, and the
    /// re-exported line is byte-identical.
    #[test]
    fn every_line_round_trips_exactly(raw in proptest::collection::vec(any::<u64>(), 0..200)) {
        for ev in sequence_of(&raw) {
            let line = ev.to_jsonl_line();
            let parsed = parse_event_line(&line).expect("exported line parses");
            prop_assert_eq!(&parsed, &ev);
            prop_assert_eq!(parsed.to_jsonl_line(), line);
        }
    }

    /// Replaying a full export through a fresh log reproduces the export
    /// byte-identically (the whole-trace version of the line property,
    /// covering the JSONL framing and timestamp monotonicity check).
    #[test]
    fn replayed_exports_are_byte_identical(raw in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut log = EventLog::unbounded();
        for ev in sequence_of(&raw) {
            log.record(ev.at, ev.kind);
        }
        let exported = events_jsonl(&log);
        let mut replayed = EventLog::unbounded();
        let n = replay_jsonl(&exported, &mut replayed).expect("valid trace replays");
        prop_assert_eq!(n, raw.len() as u64);
        prop_assert_eq!(events_jsonl(&replayed), exported);
    }
}

/// A valid 200-line trace holding every kind, closed by a line whose
/// strings need escapes and multi-byte characters.
fn valid_trace() -> String {
    let mut seed = 12;
    let raw: Vec<u64> = (0..199).map(|_| splitmix(&mut seed)).collect();
    let mut log = EventLog::unbounded();
    for ev in sequence_of(&raw) {
        log.record(ev.at, ev.kind);
    }
    log.record(
        SimTime::from_micros(10_000_000),
        EventKind::InvariantViolation {
            invariant: "queue_bound".to_string(),
            detail: "q=70000 > 65536 \"\u{e9}\u{65e5}\u{672c}\"\n\ttab \\ \u{1}".to_string(),
        },
    );
    assert_eq!(log.counts().len(), 10, "every kind present");
    let text = events_jsonl(&log);
    assert_eq!(text.lines().count(), 200);
    text
}

/// Both document readers on arbitrary bytes (made `&str` the lossy way,
/// as a tool reading a damaged file would): one reader underneath, so the
/// same verdict, the same count, the same error. Returning at all is the
/// point; whether the bytes were accepted is handed back for the callers
/// that know more.
fn read_both(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let validated = validate_jsonl(&text);
    let replayed = replay_jsonl(&text, &mut NullRecorder);
    match (&validated, &replayed) {
        (Ok(counts), Ok(n)) => assert_eq!(counts.values().sum::<u64>(), *n, "counts differ"),
        (v, r) => assert_eq!(v.as_ref().err(), r.as_ref().err(), "verdicts differ"),
    }
    replayed.is_ok()
}

#[test]
fn every_byte_prefix_of_a_trace_is_refused_or_accepted() {
    let text = valid_trace();
    let bytes = text.as_bytes();
    for end in 0..=bytes.len() {
        // A cut is harmless exactly when it falls between lines (before
        // or after the newline); anywhere else it leaves half an object.
        let between_lines =
            end == 0 || end == bytes.len() || bytes[end - 1] == b'\n' || bytes[end] == b'\n';
        assert_eq!(
            read_both(&bytes[..end]),
            between_lines,
            "prefix of {end} bytes"
        );
    }
}

#[test]
fn single_bit_flips_are_refused_or_accepted() {
    let text = valid_trace();
    let mut seed = 2021;
    let (mut refused, mut accepted) = (0, 0);
    for _ in 0..1000 {
        let mut bytes = text.clone().into_bytes();
        let bit = splitmix(&mut seed) as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match read_both(&bytes) {
            false => refused += 1,
            true => accepted += 1,
        }
    }
    // Most flips break a key, a quote or a digit's place in the ordering;
    // some only change a digit or a letter inside free text.
    assert!(
        refused > 300 && accepted > 50,
        "{refused} refused, {accepted} accepted"
    );
}

/// What `replay_jsonl` is defined to do, line by line: the events handed
/// on before the end or the first error, and that error.
fn replay_by_lines(text: &str) -> (Vec<Event>, Result<u64, String>) {
    let (mut events, mut last_t) = (Vec::new(), 0);
    for (i, line) in text.lines().enumerate() {
        let ev = match parse_event_line(line) {
            Ok(ev) => ev,
            Err(e) => return (events, Err(format!("line {}: {e}", i + 1))),
        };
        let t = ev.at.as_micros();
        if t < last_t {
            let e = format!("line {}: timestamp {t} goes backwards", i + 1);
            return (events, Err(e));
        }
        last_t = t;
        events.push(ev);
    }
    let n = events.len() as u64;
    (events, Ok(n))
}

/// Likewise `validate_jsonl`, as the number of lines of each kind tag.
fn validate_by_lines(text: &str) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let (mut counts, mut last_t) = (std::collections::BTreeMap::new(), 0);
    for (i, line) in text.lines().enumerate() {
        let ev = parse_event_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let t = ev.at.as_micros();
        if t < last_t {
            return Err(format!("line {}: timestamp {t} goes backwards", i + 1));
        }
        last_t = t;
        *counts.entry(ev.kind.name().to_string()).or_insert(0) += 1;
    }
    Ok(counts)
}

/// Both document readers against their line-by-line definitions: same
/// events delivered, same counts, same error down to the line number.
fn assert_document_reads_like_its_lines(text: &str) -> bool {
    let mut log = EventLog::unbounded();
    let replayed = replay_jsonl(text, &mut log);
    let (events, want) = replay_by_lines(text);
    assert_eq!(replayed, want, "replay_jsonl on {text:?}");
    assert!(log.events().eq(&events), "events delivered from {text:?}");
    assert_eq!(
        validate_jsonl(text),
        validate_by_lines(text),
        "validate_jsonl on {text:?}"
    );
    replayed.is_ok()
}

#[test]
fn documents_cannot_tell_which_reader_took_a_line() {
    let trace = valid_trace();
    let canonical: Vec<&str> = trace.lines().collect();
    // The same members spelled loosely: the mirror declines, the general
    // scanner reads the same event.
    let loose = |line: &str| {
        line.replacen("{\"t\":", " {\t\"t\" : ", 1)
            .replacen(",\"kind\":", " , \"kind\":", 1)
            + " "
    };
    let loosened = canonical
        .iter()
        .filter(|line| {
            EventKind::read_canonical(line).is_some()
                && EventKind::read_canonical(&loose(line)).is_none()
        })
        .count();
    assert!(
        loosened > 150,
        "{loosened} lines change reader when loosened"
    );

    // A line that was not there, at every position: a blank one, one that
    // is no event, one that is a canonical event from before the start of
    // time — refused by number wherever it lands, first line and last.
    let intruders = [
        "",
        "{\"t\":5,\"kind\":\"nope\"}",
        "{\"t\":0,\"kind\":\"fir\",\"client\":0,\"ssrc\":1,\"dir\":\"sent\"}",
    ];
    let mut seed = 5;
    let (mut accepted, mut refused) = (0, 0);
    for position in 0..=canonical.len() {
        for (i, intruder) in intruders.iter().enumerate() {
            // Each document draws its own mix of spellings and line ends,
            // and every other one has no final newline.
            let mut text = String::new();
            let mut lines: Vec<&str> = canonical.clone();
            lines.insert(position, intruder);
            for line in lines {
                let bits = splitmix(&mut seed);
                match bits % 3 {
                    0 => text += &loose(line),
                    _ => text += line,
                }
                text += if bits & 8 == 0 { "\n" } else { "\r\n" };
            }
            if (position + i) % 2 == 0 {
                text.truncate(text.trim_end_matches(['\r', '\n']).len());
            }
            match assert_document_reads_like_its_lines(&text) {
                true => accepted += 1,
                false => refused += 1,
            }
        }
    }
    // The `t` = 0 event is in order at the very top and nowhere else, and
    // a blank line at the very end that lost its newline is no line.
    assert_eq!((accepted, refused), (2, 3 * canonical.len() + 1));

    // Untouched documents, all canonical or all loose, with every ending.
    for end in ["\n", "\r\n"] {
        for spell in [|line: &str| line.to_string(), loose] {
            let mut text: String = canonical.iter().map(|line| spell(line) + end).collect();
            assert!(assert_document_reads_like_its_lines(&text));
            text.truncate(text.len() - end.len());
            assert!(assert_document_reads_like_its_lines(&text));
        }
    }
    assert!(assert_document_reads_like_its_lines(""));
    assert!(!assert_document_reads_like_its_lines("\n"));
}
