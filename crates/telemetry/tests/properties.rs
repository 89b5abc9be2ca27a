//! Property tests closing the import/export loop: arbitrary valid event
//! sequences survive export → parse/replay → re-export byte-identically.
//!
//! The exporter promises exact round-trips (`parse_event_line` is the
//! inverse of `Event::to_jsonl_line`, floats use shortest-round-trip
//! formatting), but until now only hand-picked events exercised it.
//!
//! The other direction — bytes that are *not* a valid trace — is covered
//! at the end: truncated and bit-flipped traces are refused or accepted,
//! never a panic.

use proptest::prelude::*;
use vcabench_simcore::SimTime;
use vcabench_telemetry::{
    events_jsonl, parse_event_line, replay_jsonl, validate_jsonl, EventKind, EventLog,
    NullRecorder, Recorder,
};

mod common;
use common::sequence_of;

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

/// SplitMix64: a seeded word stream for the plain (non-proptest) tests.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
/// as a tool reading a damaged file would). Returning at all is the
/// point; the results are handed back for the callers that know more.
fn read_both(bytes: &[u8]) -> (bool, bool) {
    let text = String::from_utf8_lossy(bytes);
    let validated = validate_jsonl(&text);
    let replayed = replay_jsonl(&text, &mut NullRecorder);
    if let (Ok(counts), Ok(n)) = (&validated, &replayed) {
        assert_eq!(
            counts.values().sum::<u64>(),
            *n,
            "readers count differently"
        );
    }
    (validated.is_ok(), replayed.is_ok())
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
            (between_lines, between_lines),
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
            (false, false) => refused += 1,
            _ => accepted += 1,
        }
    }
    // Most flips break a key, a quote or a digit's place in the ordering;
    // some only change a digit or a letter inside free text.
    assert!(
        refused > 300 && accepted > 50,
        "{refused} refused, {accepted} accepted"
    );
}
