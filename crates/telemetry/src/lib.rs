//! vcabench-telemetry: deterministic event tracing, metrics and trace
//! export for the simulation stack.
//!
//! The paper's methodology is pure observation — packet captures at the
//! shaped access link plus periodic `webrtc-internals` dumps (§2.2, §3.2)
//! are what make every figure possible. This crate gives the reproduction
//! the same evidence layer: a typed, sim-timestamped event stream recording
//! *which* packet was dropped, *when* FBRA left ramp, and *why* GCC backed
//! off, exportable as diffable run artifacts.
//!
//! Pieces:
//!
//! 1. **Events** ([`Event`], [`EventKind`]): typed records carrying
//!    sim-time timestamps — packet enqueue/dequeue/drop with queue depth,
//!    rate-profile steps, congestion-controller state transitions,
//!    FEC-ratio changes, encoder layer switches, FIR and freeze events,
//!    and invariant violations surfaced by the audit hooks of a debug
//!    build.
//! 2. **Recorder** ([`Recorder`], [`Telemetry`], [`EventLog`]): the hook
//!    half. A [`Telemetry`] handle is cloned into every instrumented
//!    component; when disabled (the default) each hook is a single
//!    `Option` null-check and the event is never constructed. An
//!    [`EventLog`] keeps every event it is handed; a [`TraceFeed`] hands
//!    them in batches to a [`TraceWriter`] on another thread, which
//!    writes the JSONL trace while the run goes on ([`trace_pipe`]).
//! 3. **Metrics** ([`RunMetrics`]): the counters / gauges / histograms a
//!    run manifest derives from its event log, with sorted keys.
//! 4. **Export** ([`export`]): a versioned JSONL event-trace format
//!    (schema [`TRACE_SCHEMA_VERSION`]), CSV time series, a per-run
//!    manifest, and the trace validator used by `repro validate-trace` and
//!    CI — the importer's reader, counting lines instead of replaying them.
//! 5. **Artifacts** ([`artifact`]): the envelope every schema-versioned
//!    JSON artifact of the workspace is written — and, where it is read
//!    back, read — through: the struct is the schema, the envelope adds
//!    the tag, the reader checks it.
//! 6. **Import** ([`import`]): the exact inverse of export — parse
//!    `.events.jsonl` lines back into typed [`Event`]s (vocabulary
//!    interned to the original `&'static str`s) and replay them through
//!    any [`Recorder`], so offline consumers see the same stream as
//!    online ones.
//!
//! The trace schema is closed and flat, so the codec is typed end to end:
//! one table in [`event`] declares every kind's fields, and from it come
//! both the writer, which formats a line straight into the output buffer,
//! and its mirror image ([`EventKind::read_canonical`]), which reads that
//! exact form back in one pass. There is one trace reader, with one
//! grammar, under the validator and the importer alike: its document loop
//! tries the mirror first; a line in any other spelling — and every line
//! that is refused — goes through one borrowing scan of the line's bytes,
//! which remains the definition of what is accepted (the mirror can only
//! decline, and the two agree by test). No intermediate JSON tree on
//! either side, and no allocation for the packet events that make up
//! nearly all of a trace. What text is well-formed is decided by
//! `serde_json::read::Cursor`, the reader `serde_json::from_str` and the
//! campaign result store also sit on; the scan only slots its members.
//!
//! Determinism is a hard requirement: identical spec + seed must produce
//! byte-identical JSONL regardless of worker count. Everything here is
//! ordered — events by simulation time of emission, metric snapshots by
//! key — and floats serialize via Rust's shortest-round-trip formatting.

#![warn(missing_docs)]

pub mod artifact;
pub mod event;
pub mod export;
pub mod import;
pub mod metrics;
pub mod recorder;
mod scan;

pub use event::{Event, EventKind, MAX_TRACE_T_US};
pub use export::{
    events_jsonl, manifest_json, series_csv, trace_pipe, validate_jsonl, RunManifest, TraceWriter,
};
pub use import::{parse_event_line, replay_jsonl};
pub use metrics::{Histogram, RunMetrics};
pub use recorder::{EventLog, NullRecorder, Recorder, Telemetry, TraceFeed, BATCH_EVENTS};

/// Version of the JSONL event-trace schema. Bump on any change to event
/// names, field names, field types, or serialization order; the value is
/// embedded in every run manifest so traces remain interpretable.
pub const TRACE_SCHEMA_VERSION: u32 = 1;
