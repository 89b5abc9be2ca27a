//! Allocation counts of the trace codec, with a counting global
//! allocator: packet events — the bulk of every trace — are read and
//! written without touching the heap, and a trace pipe streams a run out
//! through the same fixed buffers whatever its length.
//!
//! One `#[test]` only, and a per-thread counter, so nothing else in the
//! process can add to the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vcabench_simcore::SimTime;
use vcabench_telemetry::{
    events_jsonl, replay_jsonl, trace_pipe, validate_jsonl, EventKind, EventLog, NullRecorder,
    Recorder,
};

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// integer and never influences the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `n` packet events cycling enqueue → dequeue → drop, with the field
/// magnitudes of a real trace.
fn packet_log(n: u64) -> EventLog {
    let mut log = EventLog::unbounded();
    for i in 0..n {
        let (link, flow, pkt, bytes, queue_bytes) = (i % 6, 10 + i % 2, i, 1140, 57 * (i % 900));
        let kind = match i % 3 {
            0 => EventKind::PacketEnqueued {
                link,
                flow,
                pkt,
                bytes,
                queue_bytes,
                queue_pkts: i % 50,
            },
            1 => EventKind::PacketDequeued {
                link,
                flow,
                pkt,
                bytes,
                queue_bytes,
            },
            _ => EventKind::PacketDropped {
                link,
                flow,
                pkt,
                bytes,
                queue_bytes,
                reason: "queue_full",
            },
        };
        log.record(SimTime::from_micros(20_000_000 + 137 * i), kind);
    }
    log
}

/// Allocations of one trace pipe over `log`: building it, feeding it
/// (both on this thread) and writing it (on the writer thread, which
/// counts its own).
fn pipe_allocs(log: &EventLog) -> (u64, u64, u64) {
    let ((mut feed, writer), pipe_allocs) = allocs_in(trace_pipe);
    std::thread::scope(|s| {
        let written = s.spawn(move || allocs_in(|| writer.write_jsonl(&mut std::io::sink())));
        let ((), feed_allocs) = allocs_in(|| {
            for ev in log.events() {
                feed.record(ev.at, ev.kind.clone());
            }
            feed.finish();
        });
        let (result, writer_allocs) = written.join().expect("the writer does not panic");
        result.expect("a sink cannot fail");
        (pipe_allocs, feed_allocs, writer_allocs)
    })
}

#[test]
fn packet_events_cost_no_allocation_per_line() {
    let (small, large) = (packet_log(3), packet_log(10_000));

    let (text, export_allocs) = allocs_in(|| events_jsonl(&large));
    assert_eq!(text.lines().count(), 10_000);
    assert_eq!(export_allocs, 1, "events_jsonl: one buffer, sized up front");
    let small_text = events_jsonl(&small);

    // The trace pipe: a fixed ring of batch buffers, two bounded channels
    // and one chunk, for 3 events as for 100 000 (49 batches, some 160
    // chunks). A std channel also allocates on a thread's first wait (its
    // wake-up context) and on the first wait at each end (a waiter slot);
    // whether a wait happens at all is the scheduler's choice, so those
    // are allowed, up to two per thread, and nothing else.
    for log in [&small, &packet_log(100_000)] {
        let (pipe, feed, writer) = pipe_allocs(log);
        assert_eq!(
            pipe,
            4 + 2 * 2,
            "trace_pipe: four batch buffers, two channels"
        );
        assert!(
            feed <= 2,
            "the feed allocates nothing per event or batch: {feed}"
        );
        assert!(
            (1..=3).contains(&writer),
            "the writer allocates one chunk, nothing per batch: {writer}"
        );
    }

    let (replayed, replay_allocs) = allocs_in(|| replay_jsonl(&text, &mut NullRecorder));
    assert_eq!(replayed, Ok(10_000));
    assert_eq!(replay_allocs, 0, "replay_jsonl");

    // The validator's result map is the only thing it may allocate, and
    // that is the same for three lines as for ten thousand.
    let (counts, validate_allocs) = allocs_in(|| validate_jsonl(&text));
    let (_, baseline_allocs) = allocs_in(|| validate_jsonl(&small_text));
    assert_eq!(counts.unwrap()["packet_drop"], 3_333);
    assert_eq!(
        validate_allocs, baseline_allocs,
        "validate_jsonl per-line loop"
    );
    assert!(
        baseline_allocs <= 5,
        "three keys, the pairs collected, a map node: {baseline_allocs}"
    );
}
