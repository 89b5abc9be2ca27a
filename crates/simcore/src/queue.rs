//! Deterministic event queue.
//!
//! Events carry an arbitrary payload `E` and fire at a [`SimTime`]. Ties are
//! broken by insertion order (a monotonically increasing sequence number), so
//! the pop order is a total order that does not depend on heap internals —
//! a prerequisite for reproducible simulations.
//!
//! Payloads never enter the heap. Each pending event owns a slot of a
//! [`Slab`]: `schedule` writes the payload into its slot once, `pop` takes
//! it out, and the heap orders 24-byte `(time, seq, slot)` keys only — so a
//! sift moves three words per level however large `E` is.
//!
//! The heap is a plain array min-heap with one twist, the *vacant root*.
//! `pop` reads the root key and leaves its place empty instead of moving
//! the last key up and sifting it to the bottom. A simulation's handlers
//! nearly always schedule again right after a pop — usually something
//! soon, like the next packet's serialization 10 µs out — and that
//! `schedule` writes its key into the empty root and sifts it down, which
//! stops after one or two compares when the new event is the next to fire.
//! Only when a `pop` (or a tombstone, below) finds the root still vacant is
//! the ordinary removal performed. Pop order is untouched: it is the total
//! order `(time, seq)`, whatever shape the array is in.
//!
//! Scheduled events can be cancelled by [`EventId`], which packs
//! `(generation, slot)`: cancelling costs one indexed load (no hashing),
//! drops the payload on the spot, and leaves the heap key behind as a
//! tombstone (a key whose slot holds no payload) that is discarded when it
//! surfaces. Stale ids — cancel-after-pop, or an id whose slot has been
//! reused — are rejected by the generation check. The queue maintains the
//! invariant that the earliest key is never a tombstone, which is what lets
//! [`EventQueue::peek_time`] take `&self`. A live-event counter makes
//! [`EventQueue::len`] O(1).

use crate::slab::Slab;
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

    fn slot(self) -> u32 {
        (self.0 & u32::MAX as u64) as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Heap key of one scheduled event; the payload stays in `slots[slot]`.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Whether `self` pops before `other`. `seq` is unique, so this is a
    /// strict total order and `slot` never decides.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
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
    /// Min-heap by [`Key::before`]: `heap[i]` pops before `heap[2i + 1]`
    /// and `heap[2i + 2]`. While `root_vacant`, `heap[0]` is the key of an
    /// event already popped — a hole, exempt from the heap property — and
    /// `heap.len() >= 2` (a hole with nothing under it is removed at once).
    heap: Vec<Key>,
    root_vacant: bool,
    next_seq: u64,
    /// One slot per heap key, from `schedule` until the key leaves the heap
    /// (pop or tombstone drain). `Some` for a pending event, `None` for a
    /// cancelled one.
    slots: Slab<Option<E>>,
    /// Pending non-cancelled events.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

// `schedule`, `peek_time` and `pop` carry `#[inline]`: a simulation's loop
// calls each once per event, and whether they landed inline in it was worth
// ≈ 8 % of the network engine's throughput either way (PR 24).
impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            root_vacant: false,
            next_seq: 0,
            slots: Slab::new(),
            live: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slots.insert(Some(payload));
        let key = Key { at, seq, slot };
        if self.root_vacant {
            self.root_vacant = false;
            self.heap[0] = key;
            self.sift_down();
        } else {
            self.heap.push(key);
            self.sift_up();
        }
        self.live += 1;
        let gen = self.slots.generation(slot).expect("slot just filled");
        EventId::new(slot, gen)
    }

    /// Cancel a pending event, dropping its payload immediately. Returns
    /// true if the event was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.slots.generation(id.slot()) != Some(id.gen()) {
            return false;
        }
        // Dropped here; the key stays behind as a tombstone.
        if self
            .slots
            .get_mut(id.slot())
            .and_then(Option::take)
            .is_none()
        {
            return false;
        }
        self.live -= 1;
        self.drain_tombstones();
        true
    }

    /// Time of the next (non-cancelled) event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        // The earliest key is never a tombstone (see `drain_tombstones`).
        self.earliest().map(|i| self.heap[i].at)
    }

    /// Remove and return the next event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.fill_root();
        let key = *self.heap.first()?;
        let payload = self
            .slots
            .remove(key.slot)
            .flatten()
            .expect("the earliest key is never a tombstone");
        self.live -= 1;
        self.vacate_root();
        self.drain_tombstones();
        Some((key.at, payload))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Index of the key that pops next: the root, or the earlier of its
    /// children while the root is vacant.
    fn earliest(&self) -> Option<usize> {
        if !self.root_vacant {
            return if self.heap.is_empty() { None } else { Some(0) };
        }
        match self.heap.get(2) {
            Some(right) if right.before(&self.heap[1]) => Some(2),
            _ => Some(1),
        }
    }

    /// The root key has left the queue: leave a hole for the next
    /// `schedule` to fill, unless nothing is under it.
    fn vacate_root(&mut self) {
        if self.heap.len() == 1 {
            self.heap.clear();
        } else {
            self.root_vacant = true;
        }
    }

    /// Close a vacant root the ordinary way: the last key moves up and
    /// sifts down. Afterwards the root is the key `earliest` pointed at.
    fn fill_root(&mut self) {
        if self.root_vacant {
            self.root_vacant = false;
            let last = self.heap.pop().expect("a vacant root has a child");
            self.heap[0] = last;
            self.sift_down();
        }
    }

    /// Restore the invariant that the earliest key is live: drop cancelled
    /// keys until a live one (or nothing) is next. Amortized O(1) — every
    /// drained key was pushed exactly once.
    fn drain_tombstones(&mut self) {
        // One slot per key, cancelled or not: with no tombstone anywhere
        // (a simulation that never cancels) there is nothing to look at.
        while self.slots.len() > self.live {
            let i = self.earliest().expect("a tombstone is a key");
            let slot = self.heap[i].slot;
            if matches!(self.slots.get(slot), Some(Some(_))) {
                break;
            }
            self.fill_root();
            self.slots.remove(slot);
            self.vacate_root();
        }
    }

    /// Move the root key down until neither child pops before it.
    fn sift_down(&mut self) {
        let heap = &mut self.heap[..];
        let key = heap[0];
        let mut pos = 0;
        loop {
            let mut child = 2 * pos + 1;
            if child >= heap.len() {
                break;
            }
            if child + 1 < heap.len() && heap[child + 1].before(&heap[child]) {
                child += 1;
            }
            if !heap[child].before(&key) {
                break;
            }
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = key;
    }

    /// Move the last key up until its parent pops before it.
    fn sift_up(&mut self) {
        let heap = &mut self.heap[..];
        let mut pos = heap.len() - 1;
        let key = heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !key.before(&heap[parent]) {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = key;
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
        assert!(std::mem::size_of::<Key>() <= 24);
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
        assert_eq!(q.slots.len(), 3, "and still owns its slot");
        drop(q.pop());
        assert_eq!(Rc::strong_count(&probe), 2, "pop hands the payload out");
        drop(q.pop());
        assert_eq!(Rc::strong_count(&probe), 1);
        assert!(q.pop().is_none());
        assert!(q.slots.is_empty(), "every slot was recycled");
        assert!(q.heap.is_empty() && !q.root_vacant);
    }

    /// Walk the heap array and check what the module docs promise.
    fn check_shape<E>(q: &EventQueue<E>) {
        let first = q.root_vacant as usize;
        assert!(!q.root_vacant || q.heap.len() >= 2, "a hole over nothing");
        for i in first.max(1)..q.heap.len() {
            let parent = (i - 1) / 2;
            if parent >= first {
                assert!(q.heap[parent].before(&q.heap[i]), "heap order at {i}");
            }
        }
        assert_eq!(q.slots.len(), q.heap.len() - first, "one slot per key");
        if let Some(i) = q.earliest() {
            assert!(
                matches!(q.slots.get(q.heap[i].slot), Some(Some(_))),
                "the earliest key is a tombstone"
            );
        }
    }

    #[test]
    fn pop_leaves_the_root_vacant_and_schedule_fills_it() {
        let mut q = EventQueue::new();
        for t in [1, 5, 9, 7] {
            q.schedule(SimTime::from_secs(t), t);
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert!(q.root_vacant, "no removal yet");
        assert_eq!(q.heap.len(), 4);
        assert_eq!(
            q.peek_time(),
            Some(SimTime::from_secs(5)),
            "read off the children"
        );
        check_shape(&q);
        // Earlier than both children: stays at the root.
        q.schedule(SimTime::from_secs(2), 2);
        assert!(!q.root_vacant);
        assert_eq!(q.heap.len(), 4, "written into the hole, nothing pushed");
        check_shape(&q);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        // Later than everything: sifts to the bottom.
        q.schedule(SimTime::from_secs(20), 20);
        check_shape(&q);
        // Two pops in a row: the second performs the deferred removal.
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 5)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(7), 7)));
        assert_eq!(q.heap.len(), 3, "one hole at most");
        check_shape(&q);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![9, 20]);
        assert!(
            q.heap.is_empty() && !q.root_vacant,
            "a hole over nothing is removed"
        );
        q.schedule(SimTime::from_secs(30), 30);
        assert_eq!(q.heap.len(), 1);
        check_shape(&q);
    }

    #[test]
    fn tombstones_under_a_vacant_root_are_drained() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = [1, 2, 3, 4, 5, 6]
            .iter()
            .map(|&t| q.schedule(SimTime::from_secs(t), t))
            .collect();
        // A buried cancel, then a pop that surfaces it under the hole.
        assert!(q.cancel(ids[1]));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        check_shape(&q);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        // Cancel the key that just became the earliest, root still vacant.
        assert!(q.cancel(ids[2]));
        check_shape(&q);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 3);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![4, 5, 6]);
    }
}
