//! The hook half: a [`Recorder`] sink behind a cheap, cloneable
//! [`Telemetry`] handle.
//!
//! Instrumented components (links, clients, controllers) each hold a
//! `Telemetry` clone. Disabled — the `Default` — the handle is `None` and
//! every hook reduces to one branch; the event is built inside a closure
//! that never runs, so the hot path pays no formatting or allocation.
//! The invariant audits gate the other way — debug builds audit, release
//! builds do not (`cfg!(debug_assertions)`) — because telemetry must be
//! attachable per run (campaign workers trace some runs and not others in
//! the same process), so it gates at runtime instead of at build time.
//!
//! Attached, the cost per event is the recorder's: an [`EventLog`] pushes
//! the event and bumps one slot of a per-kind array, and builds the
//! tag-keyed count map only when [`EventLog::counts`] is called. A
//! [`TraceFeed`] pushes it into a fixed batch and, every
//! [`BATCH_EVENTS`] events, hands the batch to a writer thread (see
//! [`crate::export::trace_pipe`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::mpsc::{Receiver, SyncSender};

use vcabench_simcore::SimTime;

use crate::event::{Event, EventKind, KINDS, N_KINDS};

/// A sink for trace events.
pub trait Recorder {
    /// Record one event. Called in simulation-time order within a run.
    fn record(&mut self, at: SimTime, kind: EventKind);
}

/// A pair of recorders is a recorder: every event feeds both, in order.
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        self.0.record(at, kind.clone());
        self.1.record(at, kind);
    }
}

/// A recorder that discards everything (useful as an explicit sink in
/// tests; production code uses a disabled [`Telemetry`] instead, which
/// never constructs the event at all).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _at: SimTime, _kind: EventKind) {}
}

/// An in-memory event log: every event, in order, with per-kind counts.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<Event>,
    /// Events per kind, indexed like the schema's `KINDS`.
    counts: [u64; N_KINDS],
}

impl EventLog {
    /// An empty log.
    pub fn unbounded() -> Self {
        EventLog::default()
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded but not held: always 0, since a log keeps every
    /// event.
    pub fn dropped_events(&self) -> u64 {
        0
    }

    /// Per-kind counts of the kinds recorded at least once, keyed by the
    /// stable kind tag, in sorted order.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        KINDS
            .iter()
            .zip(self.counts)
            .filter(|&(_, n)| n > 0)
            .map(|(kind, n)| (kind.tag, n))
            .collect()
    }

    /// Count for one kind tag (0 for a tag the schema does not define).
    pub fn count(&self, kind: &str) -> u64 {
        KINDS
            .iter()
            .position(|k| k.tag == kind)
            .map_or(0, |i| self.counts[i])
    }
}

impl Recorder for EventLog {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        self.counts[kind.index()] += 1;
        self.events.push(Event { at, kind });
    }
}

/// Events per batch a [`TraceFeed`] hands to its writer.
pub const BATCH_EVENTS: usize = 2048;

/// One buffer of a trace pipe's ring.
pub(crate) type Batch = Vec<Event>;

/// The simulation end of a trace pipe ([`crate::export::trace_pipe`]): a
/// recorder that gathers events into a fixed batch, sends each full one
/// to the writer and takes an emptied buffer of the pipe's ring back —
/// blocking while the writer still holds every other one, so a lagging
/// writer slows the simulation instead of growing a queue.
///
/// Once the writer has gone (it failed, or panicked) the feed discards
/// what it is handed: recording never waits on a writer that cannot
/// answer and never panics. The writer's own result says what went wrong.
#[derive(Debug)]
pub struct TraceFeed {
    batch: Batch,
    /// Full batches out, emptied ones back; `None` once the writer is gone.
    link: Option<(SyncSender<Batch>, Receiver<Batch>)>,
}

impl TraceFeed {
    pub(crate) fn new(batch: Batch, full: SyncSender<Batch>, empty: Receiver<Batch>) -> Self {
        TraceFeed {
            batch,
            link: Some((full, empty)),
        }
    }

    /// Send the last, partial batch and hang up: the writer writes what
    /// it holds and returns. Dropping the feed instead (what a panicking
    /// simulation does) also ends the writer, without the partial batch.
    pub fn finish(self) {
        if let Some((full, _)) = &self.link {
            if !self.batch.is_empty() {
                // A writer gone by now has its error to report.
                let _ = full.send(self.batch);
            }
        }
    }

    fn hand_over(&mut self) {
        let Some((full, empty)) = &self.link else {
            self.batch.clear();
            return;
        };
        // The ring holds as many buffers as `full` has slots, so the send
        // never waits; the receive does, while the writer is behind.
        let batch = std::mem::take(&mut self.batch);
        match full.send(batch).ok().and_then(|()| empty.recv().ok()) {
            Some(next) => self.batch = next,
            None => self.link = None,
        }
    }
}

impl Recorder for TraceFeed {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        self.batch.push(Event { at, kind });
        if self.batch.len() == BATCH_EVENTS {
            self.hand_over();
        }
    }
}

/// A cheap, cloneable handle to an optional [`Recorder`].
///
/// The default handle is disabled: [`Telemetry::emit`] is then a single
/// branch and its closure argument — which builds the event — never runs.
/// Attach a shared recorder with [`Telemetry::attach`] and clone the
/// handle into every component of one simulation. Handles are
/// intentionally `!Send`: a recorder is owned by the single worker thread
/// that builds and drives one `Network`.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Rc<RefCell<dyn Recorder>>>,
}

impl Telemetry {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A handle feeding `recorder`. Keep a clone of the `Rc` to read the
    /// recorder back after the run.
    pub fn attach(recorder: Rc<RefCell<dyn Recorder>>) -> Self {
        Telemetry {
            sink: Some(recorder),
        }
    }

    /// Convenience: build a shared [`EventLog`] plus a handle feeding it.
    pub fn with_log(log: EventLog) -> (Self, Rc<RefCell<EventLog>>) {
        let rc = Rc::new(RefCell::new(log));
        (Telemetry::attach(rc.clone()), rc)
    }

    /// Whether a recorder is attached. Hooks that need to precompute
    /// event inputs (e.g. sample a queue depth) guard on this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record an event. `build` runs only when a recorder is attached, so
    /// disabled hooks never construct the event.
    #[inline]
    pub fn emit(&self, at: SimTime, build: impl FnOnce() -> EventKind) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(at, build());
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir(i: u64) -> EventKind {
        EventKind::Fir {
            client: i,
            ssrc: 1,
            dir: "sent",
        }
    }

    #[test]
    fn unbounded_log_never_drops() {
        let mut log = EventLog::unbounded();
        for i in 0..1000 {
            log.record(SimTime::from_micros(i), fir(i));
        }
        assert_eq!(log.len(), 1000);
        assert_eq!(log.dropped_events(), 0);
        assert_eq!(log.count("fir"), 1000);
    }

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.emit(SimTime::ZERO, || panic!("must not construct when disabled"));
    }

    #[test]
    fn attached_handle_records_through_clones() {
        let (tel, rc) = Telemetry::with_log(EventLog::unbounded());
        let clone = tel.clone();
        tel.emit(SimTime::from_micros(1), || fir(0));
        clone.emit(SimTime::from_micros(2), || fir(1));
        assert_eq!(rc.borrow().len(), 2);
        assert_eq!(rc.borrow().count("fir"), 2);
    }
}
