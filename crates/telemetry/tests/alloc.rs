//! Allocation counts of the trace codec, with a counting global
//! allocator: packet events — the bulk of every trace — are read and
//! written without touching the heap, and a log is streamed out through
//! one buffer whatever its length.
//!
//! One `#[test]` only, and a per-thread counter, so nothing else in the
//! process can add to the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vcabench_simcore::SimTime;
use vcabench_telemetry::{
    events_jsonl, replay_jsonl, validate_jsonl, write_events_jsonl, EventKind, EventLog,
    NullRecorder, Recorder,
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

#[test]
fn packet_events_cost_no_allocation_per_line() {
    let (small, large) = (packet_log(3), packet_log(10_000));

    let (text, export_allocs) = allocs_in(|| events_jsonl(&large));
    assert_eq!(text.lines().count(), 10_000);
    assert_eq!(export_allocs, 1, "events_jsonl: one buffer, sized up front");
    let small_text = events_jsonl(&small);

    // The streamed writer: the same bytes, through one chunk however many
    // chunks the log fills (a megabyte here, sixteen of them).
    let mut streamed = Vec::with_capacity(text.len());
    let (result, stream_allocs) = allocs_in(|| write_events_jsonl(&large, &mut streamed));
    result.expect("writing to a Vec cannot fail");
    assert_eq!(streamed, text.as_bytes());
    assert_eq!(stream_allocs, 1, "write_events_jsonl: one reused chunk");
    let (_, small_allocs) = allocs_in(|| write_events_jsonl(&small, &mut std::io::sink()));
    assert_eq!(small_allocs, 1, "write_events_jsonl: the same for 3 events");

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
