//! Run-artifact export: versioned JSONL event traces, CSV time series,
//! per-run manifests, and the trace validator.
//!
//! A traced run produces three files named by its deterministic run label:
//!
//! - `<label>.events.jsonl` — one [`Event`] per line
//!   (see [`crate::parse_event_line`] for the schema);
//! - `<label>.series.csv` — the run's headline time series, one header
//!   row then one row per sample;
//! - `<label>.manifest.json` — a [`RunManifest`]: schema version, spec
//!   hash, seed, event counts, and a metrics snapshot, tying a cached
//!   outcome back to its trace evidence.
//!
//! All three are pure functions of the event log and outcome, so they are
//! byte-identical across worker counts and invocations. The trace can be
//! had as one string ([`events_jsonl`]) or written while the run is still
//! going: a [`trace_pipe`] hands the events to a [`TraceWriter`] on
//! another thread in batches of [`BATCH_EVENTS`], and the writer writes
//! them to a file a chunk at a time — the same bytes. A line is written
//! without `core::fmt`: its integers through `serde::json`'s digit-pair
//! writer, its `kind` tag as one literal per kind (see `event_schema!`),
//! and only its floats through `Display`.
//!
//! The validator is the importer's reader counting instead of replaying:
//! [`validate_jsonl`] walks the document loop under
//! [`crate::replay_jsonl`] (line numbers, timestamp order, the canonical
//! mirror first and the general path for every other line), so it
//! accepts exactly the documents that replay.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::mpsc::{self, Receiver, SyncSender};

use serde::{Deserialize, Serialize};

use crate::event::{Event, KINDS, N_KINDS};
use crate::metrics::RunMetrics;
use crate::recorder::{Batch, EventLog, TraceFeed, BATCH_EVENTS};
use crate::scan::read_document;
use crate::TRACE_SCHEMA_VERSION;

/// Bytes reserved per event by [`events_jsonl`]. Measured traces average
/// 105 bytes a line; a log whose lines run longer just grows the buffer.
const LINE_BYTES_ESTIMATE: usize = 128;

/// Serialize an event log as JSONL (one compact object per line, trailing
/// newline after the last event, empty string for an empty log).
pub fn events_jsonl(log: &EventLog) -> String {
    // One allocation, of the power-of-two capacity a `String` grown by
    // doubling would have ended with: the footprint is what it always
    // was, and buffers of a few recurring sizes are handed back to the
    // system on drop where odd-sized ones linger in the allocator (the
    // latter cost `trace_offline` 4 MB of peak RSS when measured).
    let capacity = (log.len() * LINE_BYTES_ESTIMATE).next_power_of_two();
    let mut out = String::with_capacity(capacity);
    for ev in log.events() {
        ev.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

/// Bytes [`write_events_jsonl`] gathers between writes.
const CHUNK_BYTES: usize = 64 * 1024;

/// Buffers of [`BATCH_EVENTS`] events in a trace pipe: the one the feed
/// fills, and up to three more queued for, or being written by, the
/// writer.
const RING: usize = 4;

/// A trace pipe: the [`TraceFeed`] a simulation records into, and the
/// [`TraceWriter`] that turns its batches into JSONL on another thread
/// while the simulation runs.
///
/// Its memory is fixed: a ring of four batch buffers cycled through
/// two bounded channels, and the writer's one chunk.
pub fn trace_pipe() -> (TraceFeed, TraceWriter) {
    let (full_tx, full) = mpsc::sync_channel(RING);
    let (empty, empty_rx) = mpsc::sync_channel(RING);
    for _ in 1..RING {
        empty
            .send(Vec::with_capacity(BATCH_EVENTS))
            .expect("the ring fits its channel");
    }
    let feed = TraceFeed::new(Vec::with_capacity(BATCH_EVENTS), full_tx, empty_rx);
    (feed, TraceWriter { full, empty })
}

/// The writer end of a [`trace_pipe`].
#[derive(Debug)]
pub struct TraceWriter {
    /// Batches from the feed, in recording order.
    full: Receiver<Batch>,
    /// Emptied batches back to the feed.
    empty: SyncSender<Batch>,
}

impl TraceWriter {
    /// Write every batch the feed hands over to `out`, until the feed
    /// finishes or is dropped: the document [`events_jsonl`] returns for
    /// the same events, a chunk at a time through one reused buffer.
    ///
    /// On an error the writer returns at once; its feed then discards
    /// the rest of the run instead of waiting for it.
    pub fn write_jsonl(self, out: &mut impl io::Write) -> io::Result<()> {
        let mut chunk = String::with_capacity(CHUNK_BYTES);
        for mut batch in &self.full {
            write_events_jsonl(&batch, &mut chunk, out)?;
            batch.clear();
            // After the last batch the feed is gone and the buffer drops.
            let _ = self.empty.send(batch);
        }
        out.write_all(chunk.as_bytes())?;
        out.flush()
    }
}

/// Append the lines of `events` to `chunk`, writing the chunk to `out`
/// and starting it again before it would have to grow for a usual line.
/// What is left in `chunk` is the caller's to write.
fn write_events_jsonl(
    events: &[Event],
    chunk: &mut String,
    out: &mut impl io::Write,
) -> io::Result<()> {
    for ev in events {
        if chunk.len() + LINE_BYTES_ESTIMATE > CHUNK_BYTES {
            out.write_all(chunk.as_bytes())?;
            chunk.clear();
        }
        ev.write_jsonl(chunk);
        chunk.push('\n');
    }
    Ok(())
}

/// Validate a whole JSONL document against schema
/// [`TRACE_SCHEMA_VERSION`] with the one trace reader: `Ok` exactly when
/// [`crate::replay_jsonl`] would replay it, with the same error — the
/// 1-based line number first — when not. Returns per-kind line counts.
pub fn validate_jsonl(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut counts = [0u64; N_KINDS];
    read_document(text, |_, kind| counts[kind.index()] += 1)?;
    Ok(KINDS
        .iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .map(|(kind, n)| (kind.tag.to_string(), n))
        .collect())
}

/// Per-run manifest tying a trace to the spec and cache entry it came
/// from: the normative definition of `<label>.manifest.json`, whose
/// `"schema"` member is the trace schema version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Trace schema version ([`TRACE_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Deterministic run label (also the artifact file stem).
    pub label: String,
    /// Content hash of the normalized spec (the result-cache key).
    pub spec_hash: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Total events recorded.
    pub events_total: u64,
    /// Events present in the exported JSONL (every one recorded).
    pub events_stored: u64,
    /// Events recorded but not exported: always 0, since no log evicts.
    /// Kept so the format stays the same: `repro validate-trace` still
    /// reads it from manifests written elsewhere.
    pub events_dropped: u64,
    /// Per-kind event counts, sorted by kind tag.
    pub event_counts: BTreeMap<String, u64>,
    /// Metrics derived from the event log.
    pub metrics: RunMetrics,
}

impl RunManifest {
    /// Build a manifest for `label`/`spec_hash`/`seed` from an event log.
    pub fn for_run(label: &str, spec_hash: &str, seed: u64, log: &EventLog) -> Self {
        RunManifest {
            schema: TRACE_SCHEMA_VERSION,
            label: label.to_string(),
            spec_hash: spec_hash.to_string(),
            seed,
            events_total: log.len() as u64,
            events_stored: log.len() as u64,
            events_dropped: 0,
            event_counts: log
                .counts()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            metrics: RunMetrics::from_events(log),
        }
    }
}

/// Pretty-printed manifest JSON (with trailing newline). The manifest is
/// its own envelope: its first member is the `"schema"` tag.
pub fn manifest_json(m: &RunManifest) -> String {
    crate::artifact::file(m)
}

/// Render a CSV document: a header row then one row per record, floats
/// via shortest-round-trip formatting (deterministic), each cell written
/// straight into the document.
pub fn series_csv<R: AsRef<[f64]>>(headers: &[&str], rows: impl IntoIterator<Item = R>) -> String {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        let row = row.as_ref();
        debug_assert_eq!(row.len(), headers.len());
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "{v}").expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::import::parse_event_line;
    use crate::recorder::Recorder;
    use serde_json::Value;
    use vcabench_simcore::SimTime;

    fn sample_log() -> EventLog {
        let mut log = EventLog::unbounded();
        log.record(
            SimTime::from_micros(10),
            EventKind::RateStep { link: 0, bps: 1e6 },
        );
        log.record(
            SimTime::from_micros(20),
            EventKind::PacketDropped {
                link: 0,
                flow: 3,
                pkt: 42,
                bytes: 1200,
                queue_bytes: 65_536,
                reason: "queue_full",
            },
        );
        log.record(
            SimTime::from_micros(30),
            EventKind::CcState {
                client: 0,
                controller: "gcc",
                state: "decrease",
                signal: Some("overuse"),
                target_mbps: 0.75,
            },
        );
        log
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let text = events_jsonl(&sample_log());
        assert_eq!(text.lines().count(), 3);
        let counts = validate_jsonl(&text).expect("all lines valid");
        assert_eq!(counts["rate_step"], 1);
        assert_eq!(counts["packet_drop"], 1);
        assert_eq!(counts["cc_state"], 1);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        let refused = |line: &str| parse_event_line(line).is_err();
        assert!(refused("not json"));
        assert!(refused("[1,2]"));
        assert!(refused("{\"kind\":\"fir\"}"), "missing t");
        assert!(
            refused("{\"t\":1,\"kind\":\"no_such_kind\"}"),
            "unknown kind"
        );
        assert!(
            refused("{\"t\":1,\"kind\":\"fir\",\"client\":0,\"ssrc\":5}"),
            "missing dir"
        );
        assert!(
            refused(
                "{\"t\":1,\"kind\":\"fir\",\"client\":0,\"ssrc\":5,\"dir\":\"sent\",\"extra\":1}"
            ),
            "closed schema rejects extra fields"
        );
        assert!(
            refused("{\"t\":1,\"kind\":\"fir\",\"client\":-2,\"ssrc\":5,\"dir\":\"sent\"}"),
            "negative uint"
        );
        assert_eq!(
            parse_event_line(
                "{\"t\":1,\"kind\":\"fir\",\"client\":0,\"ssrc\":5.0,\"dir\":\"sent\"}"
            ),
            Err("missing or non-uint field `ssrc`".to_string()),
            "a float is not a uint"
        );
    }

    #[test]
    fn out_of_order_timestamps_fail_on_the_offending_line() {
        let fir = |t: u64| {
            format!("{{\"t\":{t},\"kind\":\"fir\",\"client\":0,\"ssrc\":1,\"dir\":\"sent\"}}\n")
        };
        assert_eq!(
            validate_jsonl(&(fir(5) + &fir(4))).unwrap_err(),
            "line 2: timestamp 4 goes backwards"
        );
        // The largest timestamp is read as itself, not as a parse failure
        // defaulting to 0, so whatever follows it is still checked.
        let max = crate::MAX_TRACE_T_US;
        let doc = fir(3) + &fir(max) + &fir(max) + &fir(7);
        assert_eq!(
            validate_jsonl(&doc).unwrap_err(),
            "line 4: timestamp 7 goes backwards"
        );
        let mut sink = crate::recorder::NullRecorder;
        assert_eq!(
            crate::import::replay_jsonl(&doc, &mut sink).unwrap_err(),
            "line 4: timestamp 7 goes backwards"
        );
        assert_eq!(validate_jsonl(&(fir(0) + &fir(0))).unwrap()["fir"], 2);
        // One microsecond past the limit is refused, by line, by both.
        let doc = fir(3) + &fir(max + 1);
        let want = format!("line 2: field `t` is {} us, beyond", max + 1);
        assert!(validate_jsonl(&doc).unwrap_err().starts_with(&want));
        let err = crate::import::replay_jsonl(&doc, &mut sink).unwrap_err();
        assert!(err.starts_with(&want), "{err}");
    }

    #[test]
    fn manifest_serializes_with_fixed_key_order() {
        let log = sample_log();
        let man = RunManifest::for_run("shaped_zoom_s1", "deadbeef", 7, &log);
        assert_eq!(man.events_total, 3);
        assert_eq!(man.events_stored, 3);
        assert_eq!(man.events_dropped, 0);
        let text = manifest_json(&man);
        let schema_pos = text.find("\"schema\"").unwrap();
        let label_pos = text.find("\"label\"").unwrap();
        let metrics_pos = text.find("\"metrics\"").unwrap();
        assert!(schema_pos < label_pos && label_pos < metrics_pos);
        // Round trip: the manifest stays valid JSON.
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(7));
        assert_eq!(v.get("schema").and_then(|s| s.as_u64()), Some(1));
        // And it reads back as what was written, metrics included.
        let back = crate::artifact::from_json::<RunManifest>("manifest", 1u32, &text);
        assert_eq!(back, Ok(man));
    }

    #[test]
    fn csv_is_deterministic_shortest_round_trip() {
        let text = series_csv(&["t_secs", "up_mbps"], &[vec![0.0, 1.5], vec![0.1, 0.9375]]);
        assert_eq!(text, "t_secs,up_mbps\n0,1.5\n0.1,0.9375\n");
    }
}
