//! Differential test: the optimized [`EventQueue`] against a naive
//! sorted-`Vec` reference model.
//!
//! The reference model is the specification: a `Vec` of `(time, seq,
//! payload)` kept explicitly sorted, with cancellation by linear removal.
//! Proptest drives both through randomized schedule/cancel/pop/peek
//! interleavings — including cancel-after-pop, duplicate cancels, cancels
//! of long-gone ids, and the engine's hold pattern (pop, then schedule at
//! or after the popped time, which is what the queue's vacant root is built
//! for) — and every step must agree on the cancel return value,
//! `peek_time`, `len`, `is_empty`, and the popped `(time, payload)`. The
//! states a vacant root adds are also pinned one by one, by name, below
//! the property. Each payload also carries the model's sequence number of
//! its event, so a pop must hand out not just an equal payload but the very
//! event the model pops.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vcabench_simcore::{EventId, EventQueue, SimDuration, SimTime};

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

    /// The next event as `(time, payload, seq)`.
    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        if self.pending.is_empty() {
            None
        } else {
            let (t, s, p) = self.pending.remove(0);
            Some((t, p, s))
        }
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// One step of the interleaving. Cancel carries an index into the list of
/// every id ever issued, so it exercises pending, popped and
/// already-cancelled ids alike.
#[derive(Debug, Clone)]
enum Op {
    Schedule {
        at_millis: u64,
        payload: u64,
    },
    Cancel {
        pick: usize,
    },
    Pop,
    /// Pop, then schedule the same payload `after_millis` past the popped
    /// time: what an event handler that re-arms itself does.
    Hold {
        after_millis: u64,
    },
    PeekTime,
}

/// Decode a raw u64 into an op: schedule-heavy (3/10) so runs grow deep
/// enough to stress the heap, with a small time range forcing plenty of
/// (time, seq) tie-breaks.
fn decode(raw: u64) -> Op {
    match raw % 10 {
        0..=2 => Op::Schedule {
            at_millis: (raw >> 4) % 50,
            payload: raw >> 10,
        },
        3 | 4 => Op::Cancel {
            pick: (raw >> 4) as usize,
        },
        5 | 6 => Op::Pop,
        // Mostly short re-arms (a zero delay ties with everything else due
        // at the popped time), sometimes far ones.
        7 | 8 => Op::Hold {
            after_millis: if raw & 0x10 == 0 {
                (raw >> 5) % 3
            } else {
                (raw >> 5) % 50
            },
        },
        _ => Op::PeekTime,
    }
}

/// The queue under test next to its model, stepped in lockstep. The
/// queue's payload is `(payload, model seq)`.
struct Pair {
    q: EventQueue<(u64, u64)>,
    model: ModelQueue,
    /// Paired ids, in issue order: the model's seq and the queue's EventId.
    issued: Vec<(u64, EventId)>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            q: EventQueue::new(),
            model: ModelQueue::default(),
            issued: Vec::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u64) -> usize {
        let seq = self.model.schedule(at, payload);
        let id = self.q.schedule(at, (payload, seq));
        self.issued.push((seq, id));
        self.issued.len() - 1
    }

    /// Pop both; the popped `(time, payload)`, if they agree.
    fn pop(&mut self) -> Result<Option<(SimTime, u64)>, TestCaseError> {
        let got = self.q.pop().map(|(t, (p, seq))| (t, p, seq));
        prop_assert_eq!(got, self.model.pop(), "pop diverged");
        Ok(got.map(|(t, p, _)| (t, p)))
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Schedule { at_millis, payload } => {
                self.schedule(SimTime::from_millis(at_millis), payload);
            }
            Op::Cancel { pick } => {
                if !self.issued.is_empty() {
                    let (seq, id) = self.issued[pick % self.issued.len()];
                    prop_assert_eq!(
                        self.q.cancel(id),
                        self.model.cancel(seq),
                        "cancel return value diverged"
                    );
                }
            }
            Op::Pop => {
                self.pop()?;
            }
            Op::Hold { after_millis } => {
                if let Some((at, payload)) = self.pop()? {
                    self.schedule(at + SimDuration::from_millis(after_millis), payload);
                }
            }
            Op::PeekTime => {
                prop_assert_eq!(
                    self.q.peek_time(),
                    self.model.peek_time(),
                    "peek_time diverged"
                );
            }
        }
        self.agree()
    }

    /// Observable state must agree after every single step.
    fn agree(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.q.peek_time(),
            self.model.peek_time(),
            "peek_time diverged"
        );
        prop_assert_eq!(self.q.len(), self.model.len(), "len diverged");
        prop_assert_eq!(
            self.q.is_empty(),
            self.model.len() == 0,
            "is_empty diverged"
        );
        Ok(())
    }

    /// Drain: the remaining pop order must match exactly.
    fn drain(mut self) -> Result<(), TestCaseError> {
        while self.model.len() > 0 {
            prop_assert!(self.pop()?.is_some(), "queue ran dry before its model");
            self.agree()?;
        }
        prop_assert!(self.q.pop().is_none());
        prop_assert!(self.q.is_empty());
        prop_assert_eq!(self.q.len(), 0, "drained queue still holds an event");
        Ok(())
    }
}

/// Run a scripted sequence against the model, then drain.
fn scripted(build: impl FnOnce(&mut Pair) -> Result<(), TestCaseError>) {
    let mut pair = Pair::new();
    let run = build(&mut pair).and_then(|()| pair.drain());
    if let Err(e) = run {
        panic!("{}", e.message);
    }
}

/// Seven events at 10, 20, … 70 ms: a full three-level heap.
fn seven(pair: &mut Pair) -> Vec<usize> {
    (1..=7)
        .map(|i| pair.schedule(SimTime::from_millis(10 * i), i))
        .collect()
}

// The vacant-root states, one by one. After a pop the queue's root is a
// hole; each test does the one thing that can meet that hole next.

#[test]
fn pop_then_cancel_of_a_buried_id() {
    scripted(|pair| {
        let ids = seven(pair);
        pair.apply(Op::Pop)?;
        // 60 ms sits two levels under the hole.
        pair.apply(Op::Cancel { pick: ids[5] })?;
        pair.apply(Op::PeekTime)?;
        pair.apply(Op::Hold { after_millis: 0 })
    });
}

#[test]
fn pop_then_schedule_earlier_than_both_children() {
    scripted(|pair| {
        seven(pair);
        pair.apply(Op::Pop)?;
        pair.apply(Op::Schedule {
            at_millis: 15,
            payload: 99,
        })?;
        assert_eq!(pair.pop().unwrap(), Some((SimTime::from_millis(15), 99)));
        // And a tie with the earlier child: insertion order decides.
        pair.apply(Op::Schedule {
            at_millis: 20,
            payload: 100,
        })?;
        assert_eq!(pair.pop().unwrap(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(pair.pop().unwrap(), Some((SimTime::from_millis(20), 100)));
        Ok(())
    });
}

#[test]
fn pop_of_the_last_event_then_schedule() {
    scripted(|pair| {
        pair.apply(Op::Schedule {
            at_millis: 5,
            payload: 1,
        })?;
        pair.apply(Op::Pop)?;
        pair.apply(Op::PeekTime)?;
        pair.apply(Op::Pop)?;
        pair.apply(Op::Schedule {
            at_millis: 3,
            payload: 2,
        })?;
        pair.apply(Op::Schedule {
            at_millis: 1,
            payload: 3,
        })?;
        pair.apply(Op::Hold { after_millis: 1 })
    });
}

#[test]
fn cancel_of_the_key_that_just_became_root() {
    scripted(|pair| {
        let ids = seven(pair);
        pair.apply(Op::Pop)?;
        // 20 ms is now the earliest, under the hole; then 30 ms after it.
        pair.apply(Op::Cancel { pick: ids[1] })?;
        pair.apply(Op::Cancel { pick: ids[2] })?;
        assert_eq!(pair.q.peek_time(), Some(SimTime::from_millis(40)));
        // A buried cancel, then a pop that re-opens the hole.
        pair.apply(Op::Cancel { pick: ids[4] })?;
        pair.apply(Op::Pop)?;
        assert_eq!(pair.q.peek_time(), Some(SimTime::from_millis(60)));
        Ok(())
    });
}

proptest! {
    #[test]
    fn event_queue_matches_sorted_vec_model(raw_ops in proptest::collection::vec(any::<u64>(), 1..400)) {
        let mut pair = Pair::new();
        for op in raw_ops.iter().map(|&r| decode(r)) {
            pair.apply(op)?;
        }
        pair.drain()?;
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
