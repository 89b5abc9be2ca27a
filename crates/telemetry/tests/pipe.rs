//! The trace pipe: a run's events, fed in batches to a writer thread,
//! come out as the bytes `events_jsonl` makes of the same log, whatever
//! the run's length against the batch size; a failing sink or a dropped
//! feed ends the writer without leaving the other side waiting.

mod common;

use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};

use common::{sequence_of, splitmix};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{
    events_jsonl, trace_pipe, Event, EventKind, EventLog, Recorder, RunManifest, TraceFeed,
    BATCH_EVENTS,
};

/// `n` time-ordered events of every kind; one in 97 is an invariant
/// violation whose text needs escaping.
fn mixed_log(n: usize) -> EventLog {
    let mut state = n as u64;
    let words: Vec<u64> = (0..n).map(|_| splitmix(&mut state)).collect();
    let mut log = EventLog::unbounded();
    for (i, Event { at, kind }) in sequence_of(&words).into_iter().enumerate() {
        let kind = if i % 97 == 3 {
            EventKind::InvariantViolation {
                invariant: "packet-conservation".to_string(),
                detail: format!("link \"{i}\"\tlost\\held\n{}\u{1}", i % 7),
            }
        } else {
            kind
        };
        log.record(at, kind);
    }
    log
}

/// Feed `log` through a trace pipe into `out` the way a traced run
/// does — beside an event log, the pair feeding both — and return that
/// log and the writer's result.
fn pipe_through(log: &EventLog, out: &mut (impl Write + Send)) -> (EventLog, io::Result<()>) {
    let (feed, writer) = trace_pipe();
    std::thread::scope(|s| {
        let written = s.spawn(move || writer.write_jsonl(out));
        let mut pair = (EventLog::unbounded(), feed);
        for ev in log.events() {
            pair.record(ev.at, ev.kind.clone());
        }
        let (fed, feed) = pair;
        feed.finish();
        (fed, written.join().expect("the writer does not panic"))
    })
}

#[test]
fn batched_bytes_equal_events_jsonl_at_every_batch_boundary() {
    let b = BATCH_EVENTS;
    for n in [0, 1, b - 1, b, b + 1, 5 * b + 3] {
        let log = mixed_log(n);
        assert_eq!(log.len(), n);
        let mut out = Vec::new();
        let (fed, written) = pipe_through(&log, &mut out);
        written.expect("writing to a Vec cannot fail");
        let want = events_jsonl(&log);
        assert!(
            out == want.as_bytes(),
            "{n} events: the pipe wrote {} bytes, events_jsonl {}",
            out.len(),
            want.len()
        );
        let manifest = |log: &EventLog| RunManifest::for_run("mixed", "cafe", 3, log);
        assert_eq!(manifest(&fed), manifest(&log), "{n} events");
    }
    assert!(events_jsonl(&mixed_log(100)).contains(r#"link \"3\"\tlost\\held\n3\u0001"#));
}

/// A sink that takes `left` bytes, then fails every write.
struct FailingSink {
    left: usize,
    taken: Vec<u8>,
}

impl Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("sink full"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_sink_ends_the_writer_and_the_feed_carries_on() {
    // Twenty batches: far more than the ring holds, so a feed that waited
    // for a writer that has gone would hang here.
    let log = mixed_log(20 * BATCH_EVENTS);
    let text = events_jsonl(&log);
    for left in [0, 1_000, 100_000, text.len() - 1] {
        let mut sink = FailingSink {
            left,
            taken: Vec::new(),
        };
        let (fed, written) = pipe_through(&log, &mut sink);
        let err = written.expect_err("the sink fails");
        assert_eq!(err.to_string(), "sink full", "after {left} bytes");
        assert_eq!(sink.taken, text.as_bytes()[..left], "after {left} bytes");
        assert_eq!(fed.len(), log.len(), "the log beside the feed is whole");
    }
}

#[test]
fn a_feed_dropped_mid_stream_ends_the_writer_cleanly() {
    let log = mixed_log(2 * BATCH_EVENTS + 5);
    let events = &log;
    let (feed, writer) = trace_pipe();
    let mut out = Vec::new();
    std::thread::scope(|s| {
        let written = s.spawn(|| writer.write_jsonl(&mut out));
        // A simulation that panics drops its feed while unwinding, with a
        // partial batch in hand and no `finish`.
        let simulation = panic::catch_unwind(AssertUnwindSafe(move || {
            let mut feed: TraceFeed = feed;
            for ev in events.events() {
                feed.record(ev.at, ev.kind.clone());
            }
            panic!("the simulation fails");
        }));
        assert!(simulation.is_err());
        written
            .join()
            .expect("the writer does not panic")
            .expect("a Vec cannot fail");
    });
    // The two full batches were handed over; the partial one was not.
    let mut full = EventLog::unbounded();
    for ev in log.events().take(2 * BATCH_EVENTS) {
        full.record(ev.at, ev.kind.clone());
    }
    assert!(out == events_jsonl(&full).as_bytes());
}

#[test]
fn a_writer_that_has_gone_never_blocks_the_feed() {
    let (mut feed, writer) = trace_pipe();
    drop(writer);
    for i in 0..10 * BATCH_EVENTS as u64 {
        feed.record(
            SimTime::from_micros(i),
            EventKind::Fir {
                client: 0,
                ssrc: i,
                dir: "sent",
            },
        );
    }
    feed.finish();
}
