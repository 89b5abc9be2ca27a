//! Trace import: parse exported `.events.jsonl` lines back into typed
//! [`Event`]s — the one trace reader.
//!
//! The export half ([`crate::export`]) turns an [`EventLog`](crate::EventLog)
//! into JSONL; this module is its inverse, so offline consumers (the
//! passive-inference subsystem, trace tooling) can replay an artifact
//! through the exact same [`Recorder`](crate::Recorder) implementations
//! that run online. Round-tripping is exact: for every event within the
//! first simulated day ([`crate::MAX_TRACE_T_US`]),
//! `parse_event_line(&ev.to_jsonl_line())` reproduces `ev`.
//!
//! There is one grammar, and [`crate::validate_jsonl`] reads with it
//! too, so a trace passes `repro validate-trace` exactly when every
//! offline consumer can replay it. The schema is closed: a line holds
//! `t`, `kind` and exactly its kind's fields, `signal` included (as a
//! string or `null`). A uint field is an integer literal — `5.0` and
//! `1e3` are refused, not coerced. String fields in [`EventKind`] are
//! `&'static str` drawn from closed per-field vocabularies (drop reasons,
//! FIR directions, controller and state names); each incoming string is
//! interned against those tables, and anything outside them is refused.
//!
//! A line in the exporter's canonical form — nearly every line there is —
//! is read by [`EventKind::read_canonical`], the writer's generated
//! mirror, in one pass over its bytes; any other line, and every error,
//! goes through the general scanner, which stays the definition of what
//! is accepted ([`parse_general`] is that path alone). Neither builds a
//! value tree, and a line without string escapes is parsed without
//! allocating.

use vcabench_simcore::SimTime;

use crate::event::{check_t, Event, EventKind, FIELD_SLOTS, KIND_SLOT, T_SLOT};
use crate::scan::{read_document, read_line, scan_line};

/// The general path alone — what [`parse_event_line`] does with a line
/// the canonical reader declines, as `(t, kind)`. Public only so that
/// `tests/oracle.rs` can hold the two paths against each other.
#[doc(hidden)]
pub fn parse_general(line: &str) -> Result<(u64, EventKind), String> {
    let line = scan_line(line)?;
    let t = check_t(line.get(T_SLOT).to_u64("t")?)?;
    let tag = line.get(KIND_SLOT).to_str("kind")?;
    let kind = EventKind::from_line(tag, &line)?;
    let allowed = FIELD_SLOTS[kind.index()]
        .iter()
        .fold(1 << T_SLOT | 1 << KIND_SLOT, |mask, slot| mask | 1 << slot);
    if let Some(key) = line.key_outside(allowed) {
        return Err(format!("`{tag}` has no field `{key}` (closed schema)"));
    }
    Ok((t, kind))
}

/// Parse one JSONL trace line into a typed [`Event`].
///
/// Inverse of [`Event::to_jsonl_line`]: the result round-trips back to the
/// same bytes. Unknown kinds, missing or extra fields, a float where a
/// uint belongs, out-of-vocabulary string values and a `t` beyond
/// [`crate::MAX_TRACE_T_US`] are errors. Key order and whitespace are free.
pub fn parse_event_line(line: &str) -> Result<Event, String> {
    let (t, kind) = read_line(line)?;
    Ok(Event {
        at: SimTime::from_micros(t),
        kind,
    })
}

/// Parse a whole JSONL document, feeding each event into `sink` in order.
///
/// Returns the number of events delivered. Errors carry the 1-based line
/// number; timestamps must be non-decreasing, matching the export
/// contract, and at most [`crate::MAX_TRACE_T_US`] — a forward jump
/// cannot make a per-second consumer allocate without bound. Streaming:
/// one event is materialized at a time, never the whole document.
pub fn replay_jsonl(text: &str, sink: &mut dyn crate::Recorder) -> Result<u64, String> {
    let mut n = 0u64;
    read_document(text, |t, kind| {
        sink.record(SimTime::from_micros(t), kind);
        n += 1;
    })?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{EventLog, Recorder};

    fn round_trip(ev: Event) {
        let line = ev.to_jsonl_line();
        let back = parse_event_line(&line).expect("parse back");
        assert_eq!(back, ev, "round trip changed the event: {line}");
        assert_eq!(back.to_jsonl_line(), line, "bytes changed");
    }

    #[test]
    fn every_kind_round_trips() {
        let at = SimTime::from_millis(1500);
        let kinds = vec![
            EventKind::PacketEnqueued {
                link: 0,
                flow: 10,
                pkt: 1,
                bytes: 1140,
                queue_bytes: 2280,
                queue_pkts: 2,
            },
            EventKind::PacketDequeued {
                link: 1,
                flow: 11,
                pkt: 2,
                bytes: 168,
                queue_bytes: 0,
            },
            EventKind::PacketDropped {
                link: 4,
                flow: 10,
                pkt: 3,
                bytes: 1140,
                queue_bytes: 65_536,
                reason: "queue_full",
            },
            EventKind::RateStep { link: 0, bps: 5e5 },
            EventKind::CcState {
                client: 0,
                controller: "gcc",
                state: "decrease",
                signal: Some("overuse"),
                target_mbps: 0.75,
            },
            EventKind::CcState {
                client: 1,
                controller: "fbra",
                state: "probe-hold",
                signal: None,
                target_mbps: 1.25,
            },
            EventKind::FecRatio {
                client: 0,
                fraction: 0.3,
                fec_per_media: 0.42857142857142855,
            },
            EventKind::LayerSwitch {
                client: 0,
                streams: 3,
                top_width: 1280,
                top_fps: 25.0,
            },
            EventKind::Fir {
                client: 1,
                ssrc: 5,
                dir: "sent",
            },
            EventKind::Freeze {
                client: 1,
                sender: 0,
                count: 2,
                total_ms: 612.5,
            },
            EventKind::InvariantViolation {
                invariant: "queue_bound".to_string(),
                detail: "q=70000 > 65536".to_string(),
            },
        ];
        for kind in kinds {
            round_trip(Event { at, kind });
        }
    }

    #[test]
    fn interning_recovers_static_vocab() {
        let ev =
            parse_event_line("{\"t\":1,\"kind\":\"fir\",\"client\":0,\"ssrc\":5,\"dir\":\"sent\"}")
                .unwrap();
        match ev.kind {
            EventKind::Fir { dir, .. } => assert_eq!(dir, "sent"),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_vocabulary_strings() {
        let cases = [
            "{\"t\":1,\"kind\":\"fir\",\"client\":0,\"ssrc\":5,\"dir\":\"upward\"}",
            "{\"t\":1,\"kind\":\"packet_drop\",\"link\":0,\"flow\":1,\"pkt\":2,\
             \"bytes\":3,\"queue_bytes\":4,\"reason\":\"cosmic_ray\"}",
            "{\"t\":1,\"kind\":\"cc_state\",\"client\":0,\"controller\":\"bbr\",\
             \"state\":\"hold\",\"signal\":null,\"target_mbps\":1}",
            "{\"t\":1,\"kind\":\"cc_state\",\"client\":0,\"controller\":\"gcc\",\
             \"state\":\"panic\",\"signal\":null,\"target_mbps\":1}",
            "{\"t\":1,\"kind\":\"cc_state\",\"client\":0,\"controller\":\"gcc\",\
             \"state\":\"hold\",\"signal\":\"chaos\",\"target_mbps\":1}",
        ];
        for line in cases {
            assert!(parse_event_line(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_event_line("not json").is_err());
        assert!(parse_event_line("[1]").is_err());
        assert!(parse_event_line("{\"t\":1,\"kind\":\"no_such_kind\"}").is_err());
        assert!(parse_event_line("{\"kind\":\"fir\"}").is_err(), "missing t");
    }

    #[test]
    fn two_to_the_64_is_out_of_range_not_u64_max() {
        let fir = |ssrc: &str| {
            parse_event_line(&format!(
                "{{\"t\":1,\"kind\":\"fir\",\"client\":0,\"ssrc\":{ssrc},\"dir\":\"sent\"}}"
            ))
        };
        assert!(fir("18446744073709551615").is_ok(), "u64::MAX itself");
        let err = fir("18446744073709551616").unwrap_err();
        assert_eq!(err, "missing or non-uint field `ssrc`");
    }

    #[test]
    fn replay_feeds_a_recorder_and_enforces_order() {
        let mut log = EventLog::unbounded();
        log.record(
            SimTime::from_micros(1),
            EventKind::RateStep { link: 0, bps: 1e6 },
        );
        log.record(
            SimTime::from_micros(2),
            EventKind::Fir {
                client: 0,
                ssrc: 1,
                dir: "received",
            },
        );
        let text = crate::export::events_jsonl(&log);

        let mut replayed = EventLog::unbounded();
        let n = replay_jsonl(&text, &mut replayed).unwrap();
        assert_eq!(n, 2);
        let orig: Vec<Event> = log.events().cloned().collect();
        let back: Vec<Event> = replayed.events().cloned().collect();
        assert_eq!(orig, back);

        let bad = "{\"t\":5,\"kind\":\"fir\",\"client\":0,\"ssrc\":1,\"dir\":\"sent\"}\n\
                   {\"t\":4,\"kind\":\"fir\",\"client\":0,\"ssrc\":1,\"dir\":\"sent\"}\n";
        let mut sink = crate::recorder::NullRecorder;
        let err = replay_jsonl(bad, &mut sink).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }
}
