//! Deterministic event queue.
//!
//! Events carry an arbitrary payload `E` and fire at a [`SimTime`]. Ties are
//! broken by insertion order (a monotonically increasing sequence number), so
//! the pop order is a total order that does not depend on heap internals —
//! a prerequisite for reproducible simulations.
//!
//! Payloads never enter the heap. Each pending event owns a slot in a
//! generation-counted slab: `schedule` writes the payload into its slot
//! once, `pop` takes it out, and the binary heap orders 24-byte
//! `(time, seq, slot)` keys only — so a sift moves three words per level
//! however large `E` is (the network engine's event is 136 bytes).
//!
//! Scheduled events can be cancelled by [`EventId`], which packs
//! `(generation, slot)`: cancelling costs one indexed load (no hashing),
//! drops the payload on the spot, and leaves the heap key behind as a
//! tombstone (a key whose slot holds no payload) that is discarded when it
//! surfaces. Stale ids — cancel-after-pop, or an id whose slot has been
//! reused — are rejected by the generation check. The queue maintains the
//! invariant that the heap top is never a tombstone, which is what lets
//! [`EventQueue::peek_time`] take `&self`. A live-event counter makes
//! [`EventQueue::len`] O(1).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// Packs the slab slot and its generation; ids from popped or cancelled
/// events go stale and can never affect a later event that reuses the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId((gen as u64) << 32 | slot as u64)
    }

    fn slot(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Heap key of one scheduled event; the payload stays in `slots[slot]`.
struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. `seq` is unique, so `slot` never decides.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One slab slot. A slot is owned by exactly one heap key from `schedule`
/// until that key leaves the heap (pop or tombstone drain); only then is
/// the slot recycled, with a bumped generation. While the key is in the
/// heap, `payload` is `Some` for a pending event and `None` for a
/// cancelled one.
struct Slot<E> {
    gen: u32,
    payload: Option<E>,
}

/// A time-ordered queue of events with stable tie-breaking and cancellation.
///
/// ```
/// use vcabench_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "second");
/// let early = q.schedule(SimTime::from_secs(1), "first");
/// q.cancel(early);
/// assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "second")));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Pending non-cancelled events.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot count fits u32");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        self.live += 1;
        self.heap.push(Scheduled { at, seq, slot });
        EventId::new(slot, self.slots[slot as usize].gen)
    }

    /// Cancel a pending event, dropping its payload immediately. Returns
    /// true if the event was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot()) else {
            return false;
        };
        if slot.gen != id.gen() || slot.payload.take().is_none() {
            return false;
        }
        self.live -= 1;
        self.drain_tombstones();
        true
    }

    /// Time of the next (non-cancelled) event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // The heap top is never a tombstone (see `drain_tombstones`).
        self.heap.peek().map(|s| s.at)
    }

    /// Remove and return the next event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        let payload = self.slots[s.slot as usize]
            .payload
            .take()
            .expect("heap top is never a tombstone");
        self.release(s.slot);
        self.live -= 1;
        self.drain_tombstones();
        Some((s.at, payload))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Recycle a slot whose heap key was just removed.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Restore the invariant that the heap top is live: drop cancelled
    /// keys until a live one (or nothing) is on top. Amortized O(1) —
    /// every drained key was pushed exactly once.
    fn drain_tombstones(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.slots[top.slot as usize].payload.is_some() {
                break;
            }
            let s = self.heap.pop().expect("peeked");
            self.release(s.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), "x");
        q.schedule(SimTime::from_secs(2), "y");
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("y"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(5), 2);
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::ZERO, ());
        q.pop();
        assert!(!q.cancel(id));
    }

    #[test]
    fn interleaved_schedule_pop_is_stable() {
        let mut q = EventQueue::new();
        let base = SimTime::from_secs(10);
        q.schedule(base, 0);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        q.schedule(base, 1);
        q.schedule(base + SimDuration::from_micros(1), 2);
        q.schedule(base, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn peek_then_pop_agree() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(3), "c");
        q.cancel(a);
        while let Some(t) = q.peek_time() {
            let (popped_t, _) = q.pop().expect("peek saw an event");
            assert_eq!(popped_t, t, "peek_time and pop must agree");
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_id_cannot_cancel_a_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // "b" reuses a's slot with a bumped generation.
        let b = q.schedule(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a), "stale id must not cancel the new occupant");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_cancellations_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_secs(i), i))
            .collect();
        assert_eq!(q.len(), 10);
        for id in &ids[..5] {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.len(), 5);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 5);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_key_stays_three_words() {
        // The point of the slab layout: a sift moves this much per level,
        // whatever the payload type.
        assert!(std::mem::size_of::<Scheduled>() <= 24);
    }

    #[test]
    fn cancel_drops_the_payload_immediately() {
        use std::rc::Rc;
        let probe = Rc::new(());
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), Rc::clone(&probe));
        // Buried under an earlier event, so its heap key stays behind as a
        // tombstone after the cancel.
        let buried = q.schedule(SimTime::from_secs(5), Rc::clone(&probe));
        q.schedule(SimTime::from_secs(9), Rc::clone(&probe));
        assert_eq!(Rc::strong_count(&probe), 4);
        assert!(q.cancel(buried));
        assert_eq!(
            Rc::strong_count(&probe),
            3,
            "a tombstone must not keep its payload alive"
        );
        assert_eq!(q.heap.len(), 3, "the key is still in the heap");
        drop(q.pop());
        assert_eq!(Rc::strong_count(&probe), 2, "pop hands the payload out");
        drop(q.pop());
        assert_eq!(Rc::strong_count(&probe), 1);
        assert!(q.pop().is_none());
        assert!(
            q.slots.iter().all(|s| s.payload.is_none()),
            "popped and cancelled slots hold no payload"
        );
        assert_eq!(q.free.len(), q.slots.len(), "every slot was recycled");
    }
}
