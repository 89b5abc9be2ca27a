//! Differential test: the optimized [`EventQueue`] against a naive
//! sorted-`Vec` reference model.
//!
//! The reference model is the specification: a `Vec` of `(time, seq,
//! payload)` kept explicitly sorted, with cancellation by linear removal.
//! Proptest drives both through randomized schedule/cancel/pop
//! interleavings — including cancel-after-pop, duplicate cancels, and
//! cancels of long-gone ids — and every step must agree on the cancel
//! return value, `peek_time`, `len`, `is_empty`, and the popped
//! `(time, payload)`. Each payload also carries a clone of one shared `Rc`,
//! so the test can count how many payloads the queue is holding: exactly
//! `len()` after every step — a cancelled event's payload is dropped at the
//! cancel, not when its tombstone surfaces.

use std::rc::Rc;

use proptest::prelude::*;
use vcabench_simcore::{EventId, EventQueue, SimTime};

/// The executable specification of EventQueue semantics.
#[derive(Default)]
struct ModelQueue {
    /// Pending events, sorted by `(time, seq)`.
    pending: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl ModelQueue {
    fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self
            .pending
            .partition_point(|&(t, s, _)| (t, s) < (at, seq));
        self.pending.insert(pos, (at, seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(pos) => {
                self.pending.remove(pos);
                true
            }
            None => false,
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|&(t, _, _)| t)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        if self.pending.is_empty() {
            None
        } else {
            let (t, _, p) = self.pending.remove(0);
            Some((t, p))
        }
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// One step of the interleaving. Cancel carries an index into the list of
/// every id ever issued, so it exercises pending, popped, already-cancelled,
/// and slot-reused ids alike.
#[derive(Debug, Clone)]
enum Op {
    Schedule { at_millis: u64, payload: u64 },
    Cancel { pick: usize },
    Pop,
}

/// Decode a raw u64 into an op: schedule-heavy (3/7) so runs grow deep
/// enough to stress the heap, with a small time range forcing plenty of
/// (time, seq) tie-breaks.
fn decode(raw: u64) -> Op {
    match raw % 7 {
        0..=2 => Op::Schedule {
            at_millis: (raw >> 3) % 50,
            payload: raw >> 10,
        },
        3 | 4 => Op::Cancel {
            pick: (raw >> 3) as usize,
        },
        _ => Op::Pop,
    }
}

proptest! {
    #[test]
    fn event_queue_matches_sorted_vec_model(raw_ops in proptest::collection::vec(any::<u64>(), 1..400)) {
        let mut q: EventQueue<(u64, Rc<()>)> = EventQueue::new();
        let probe = Rc::new(());
        let mut model = ModelQueue::default();
        // Paired ids, in issue order: the model's seq and the queue's EventId.
        let mut issued: Vec<(u64, EventId)> = Vec::new();

        for op in raw_ops.iter().map(|&r| decode(r)) {
            match op {
                Op::Schedule { at_millis, payload } => {
                    let at = SimTime::from_millis(at_millis);
                    let id = q.schedule(at, (payload, Rc::clone(&probe)));
                    let seq = model.schedule(at, payload);
                    issued.push((seq, id));
                }
                Op::Cancel { pick } => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (seq, id) = issued[pick % issued.len()];
                    prop_assert_eq!(
                        q.cancel(id),
                        model.cancel(seq),
                        "cancel return value diverged"
                    );
                }
                Op::Pop => {
                    prop_assert_eq!(q.pop().map(|(t, p)| (t, p.0)), model.pop(), "pop diverged");
                }
            }
            // Observable state must agree after every single step.
            prop_assert_eq!(q.peek_time(), model.peek_time(), "peek_time diverged");
            prop_assert_eq!(q.len(), model.len(), "len diverged");
            prop_assert_eq!(q.is_empty(), model.len() == 0, "is_empty diverged");
            prop_assert_eq!(Rc::strong_count(&probe) - 1, model.len(), "payloads held != len");
        }

        // Drain: the remaining pop order must match exactly.
        while let Some(expected) = model.pop() {
            prop_assert_eq!(q.pop().map(|(t, p)| (t, p.0)), Some(expected), "drain order diverged");
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(q.is_empty());
        prop_assert_eq!(Rc::strong_count(&probe), 1, "drained queue still holds a payload");
    }

    /// Duplicate cancel and cancel-after-pop always report false on the
    /// real queue, exactly like the model (which simply no longer finds
    /// the id).
    #[test]
    fn second_cancel_is_always_false(at in 0u64..100, cancel_first in any::<bool>()) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(at), 7);
        if cancel_first {
            prop_assert!(q.cancel(id));
        } else {
            prop_assert_eq!(q.pop(), Some((SimTime::from_millis(at), 7)));
        }
        prop_assert!(!q.cancel(id));
        prop_assert!(!q.cancel(id));
    }
}
