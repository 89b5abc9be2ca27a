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

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::rc::Rc;

use vcabench_simcore::SimTime;

use crate::event::{Event, EventKind};

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

/// An in-memory event log: optionally bounded (a ring buffer that evicts
/// the oldest events) with per-kind counts that survive eviction.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: VecDeque<Event>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    evicted: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl EventLog {
    /// An unbounded log (export paths want every event).
    pub fn unbounded() -> Self {
        EventLog::default()
    }

    /// A bounded ring keeping only the most recent `capacity` events.
    /// Per-kind counts still reflect everything ever recorded.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        EventLog {
            capacity: Some(capacity),
            ..EventLog::default()
        }
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

    /// Events dropped by the ring bound. A bounded log silently overwrites
    /// its oldest entries; exporters surface this so a truncated trace is
    /// never mistaken for a complete one.
    pub fn dropped_events(&self) -> u64 {
        self.evicted
    }

    /// Total events ever recorded (held + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.events.len() as u64 + self.evicted
    }

    /// Per-kind counts over everything ever recorded, keyed by the stable
    /// kind tag, in sorted order.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Count for one kind tag.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }
}

impl Recorder for EventLog {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        *self.counts.entry(kind.name()).or_insert(0) += 1;
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.evicted += 1;
            }
        }
        self.events.push_back(Event { at, kind });
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
    fn bounded_ring_evicts_oldest_but_counts_everything() {
        let mut log = EventLog::bounded(3);
        for i in 0..5 {
            log.record(SimTime::from_micros(i), fir(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped_events(), 2);
        assert_eq!(log.total_recorded(), 5);
        assert_eq!(log.count("fir"), 5);
        let held: Vec<u64> = log.events().map(|e| e.at.as_micros()).collect();
        assert_eq!(held, vec![2, 3, 4], "oldest events evicted first");
    }

    #[test]
    fn unbounded_log_never_drops() {
        let mut log = EventLog::unbounded();
        for i in 0..1000 {
            log.record(SimTime::from_micros(i), fir(i));
        }
        assert_eq!(log.len(), 1000);
        assert_eq!(log.dropped_events(), 0);
        assert_eq!(log.total_recorded(), 1000);
    }

    #[test]
    fn overflow_drops_exactly_the_excess_and_keeps_order() {
        let cap = 4;
        let mut log = EventLog::bounded(cap);
        // Exactly at capacity: nothing dropped yet.
        for i in 0..cap as u64 {
            log.record(SimTime::from_micros(i), fir(i));
        }
        assert_eq!(log.dropped_events(), 0);
        // One past capacity drops exactly one — the oldest.
        log.record(SimTime::from_micros(99), fir(99));
        assert_eq!(log.dropped_events(), 1);
        assert_eq!(log.len(), cap);
        let first = log.events().next().unwrap().at.as_micros();
        assert_eq!(first, 1, "oldest event was the one dropped");
        // Counts keep reflecting the full history.
        assert_eq!(log.count("fir"), cap as u64 + 1);
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
