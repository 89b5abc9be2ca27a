//! Deterministic event queue.
//!
//! Events carry a `Copy` payload `E` and fire at a [`SimTime`]. Ties are
//! broken by insertion order (a monotonically increasing sequence number), so
//! the pop order is a total order that does not depend on heap internals —
//! a prerequisite for reproducible simulations.
//!
//! The heap holds the event: each array slot is one `(time, seq, payload)`
//! entry, 32 bytes for the network engine's 16-byte event, so `schedule`
//! writes it once, `pop` copies it out, and a sift moves whole entries
//! through a hole (read the moving entry once, shift the others into the
//! hole, write it once at the end). The order is a branch-free compare of
//! `(time, seq)`, and a sift picks the earlier child by adding that
//! comparison's result to the index, so a level costs no unpredictable jump.
//!
//! The heap is a plain array min-heap with one twist, the *vacant root*.
//! `pop` reads the root entry and leaves its place empty instead of moving
//! the last entry up and sifting it to the bottom. A simulation's handlers
//! nearly always schedule again right after a pop — usually something
//! soon, like the next packet's serialization 10 µs out — and that
//! `schedule` writes its entry into the empty root and sifts it down, which
//! stops after one or two compares when the new event is the next to fire.
//! Only when a `pop` (or a `cancel`) finds the root still vacant is the
//! ordinary removal performed. Pop order is untouched: it is the total
//! order `(time, seq)`, whatever shape the array is in.
//!
//! An [`EventId`] is the event's sequence number: unique and never reused,
//! so an id from a popped or cancelled event can never match a later one.
//! [`EventQueue::cancel`] finds the entry by a linear scan and removes it
//! the ordinary way — O(n), for tests and tools; a simulation re-arms
//! instead of cancelling.

use crate::time::SimTime;

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// The event's sequence number: no two events of a queue share one, so the
/// id of a popped or cancelled event never names a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// Ordering key of one scheduled event.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
}

impl Key {
    /// Whether `self` pops before `other`: `(at, seq) < (other.at,
    /// other.seq)` without a branch. `seq` is unique, so this is a strict
    /// total order.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at < other.at) | ((self.at == other.at) & (self.seq < other.seq))
    }
}

/// One scheduled event, stored in the heap itself.
#[derive(Clone, Copy)]
struct Entry<E> {
    key: Key,
    payload: E,
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
    /// and `heap[2i + 2]`. While `root_vacant`, `heap[0]` is an event
    /// already popped — a hole, exempt from the heap property — and
    /// `heap.len() >= 2` (a hole with nothing under it is removed at once).
    heap: Vec<Entry<E>>,
    root_vacant: bool,
    next_seq: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

// `schedule`, `peek_time` and `pop` carry `#[inline]`: a simulation's loop
// calls each once per event, and whether they landed inline in it was worth
// ≈ 8 % of the network engine's throughput either way (PR 24).
impl<E: Copy> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            root_vacant: false,
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            key: Key { at, seq },
            payload,
        };
        if self.root_vacant {
            self.root_vacant = false;
            self.sift_down(0, entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1, entry);
        }
        EventId(seq)
    }

    /// Cancel a pending event. Returns true if the event was still pending.
    /// O(n): a linear scan, then an ordinary heap removal.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.fill_root();
        let Some(i) = self.heap.iter().position(|e| e.key.seq == id.0) else {
            return false;
        };
        let last = self.heap.pop().expect("i indexes the heap");
        if i < self.heap.len() {
            if i > 0 && last.key.before(&self.heap[(i - 1) / 2].key) {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        true
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|i| self.heap[i].key.at)
    }

    /// Remove and return the next event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.fill_root();
        let root = *self.heap.first()?;
        if self.heap.len() == 1 {
            self.heap.clear();
        } else {
            self.root_vacant = true;
        }
        Some((root.key.at, root.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.root_vacant as usize
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the entry that pops next: the root, or the earlier of its
    /// children while the root is vacant.
    fn earliest(&self) -> Option<usize> {
        if !self.root_vacant {
            return if self.heap.is_empty() { None } else { Some(0) };
        }
        match self.heap.get(2) {
            Some(right) if right.key.before(&self.heap[1].key) => Some(2),
            _ => Some(1),
        }
    }

    /// Close a vacant root the ordinary way: the last entry moves up and
    /// sifts down. Afterwards the root is the entry `earliest` pointed at.
    fn fill_root(&mut self) {
        if self.root_vacant {
            self.root_vacant = false;
            let last = self.heap.pop().expect("a vacant root has a child");
            self.sift_down(0, last);
        }
    }

    /// Settle `entry` into the hole at `pos`, moving it down until neither
    /// child pops before it.
    fn sift_down(&mut self, mut pos: usize, entry: Entry<E>) {
        let heap = &mut self.heap[..];
        let end = heap.len();
        let mut child = 2 * pos + 1;
        // Both children exist: take the earlier one without a branch.
        while child + 1 < end {
            child += heap[child + 1].key.before(&heap[child].key) as usize;
            if !heap[child].key.before(&entry.key) {
                heap[pos] = entry;
                return;
            }
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        // A lone last child.
        if child + 1 == end && heap[child].key.before(&entry.key) {
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = entry;
    }

    /// Settle `entry` into the hole at `pos`, moving it up until its parent
    /// pops before it.
    fn sift_up(&mut self, mut pos: usize, entry: Entry<E>) {
        let heap = &mut self.heap[..];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !entry.key.before(&heap[parent].key) {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

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
    fn ten_thousand_same_time_events_pop_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..10_000u32 {
            q.schedule(t, i);
        }
        for i in 0..10_000u32 {
            assert_eq!(q.pop(), Some((t, i)));
            // A re-arm at the same instant goes behind everything pending.
            if i % 1_000 == 0 {
                q.schedule(t, 10_000 + i);
                check_shape(&q);
            }
        }
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            rest,
            (0..10).map(|k| 10_000 + 1_000 * k).collect::<Vec<_>>()
        );
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
    fn cancel_on_an_empty_queue_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId(0)));
        let id = q.schedule(SimTime::ZERO, 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert!(!q.cancel(id), "emptied by a pop");
        assert!(q.is_empty());
        check_shape(&q);
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
        // "b" is written where "a" was, under a new sequence number.
        let b = q.schedule(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a), "stale id must not cancel the new occupant");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn an_id_popped_long_ago_never_matches_a_later_event() {
        let mut q = EventQueue::new();
        let old = q.schedule(SimTime::ZERO, 0u64);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        // Thousands of events pass through the same array positions.
        let mut at = SimTime::ZERO;
        for i in 1..5_000u64 {
            at += SimDuration::from_micros(i % 7);
            q.schedule(at, i);
            if i % 3 != 0 {
                q.pop();
            }
            assert!(!q.cancel(old), "matched a later event at step {i}");
        }
        let pending = q.len();
        assert!(pending > 1_000);
        assert!(!q.cancel(old));
        assert_eq!(q.len(), pending, "a stale cancel removes nothing");
        check_shape(&q);
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

    /// Walk the heap array and check what the module docs promise: heap
    /// order below the hole, at most one hole (never over nothing), and
    /// `len()` counting every entry but the hole.
    fn check_shape<E: Copy>(q: &EventQueue<E>) {
        let hole = q.root_vacant as usize;
        assert!(!q.root_vacant || q.heap.len() >= 2, "a hole over nothing");
        for i in hole.max(1)..q.heap.len() {
            let parent = (i - 1) / 2;
            if parent >= hole {
                assert!(
                    q.heap[parent].key.before(&q.heap[i].key),
                    "heap order at {i}"
                );
            }
        }
        assert_eq!(q.len(), q.heap.len() - hole, "len counts every entry");
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

    /// Six events at 1 … 6 s, then a pop: the root is a hole over five.
    fn vacant_over_five() -> (EventQueue<u64>, Vec<EventId>) {
        let mut q = EventQueue::new();
        let ids = (1..=6)
            .map(|t| q.schedule(SimTime::from_secs(t), t))
            .collect();
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert!(q.root_vacant);
        (q, ids)
    }

    #[test]
    fn cancel_under_a_vacant_root_of_a_buried_key() {
        let (mut q, ids) = vacant_over_five();
        assert!(q.cancel(ids[4]), "5 s sits two levels under the hole");
        check_shape(&q);
        assert_eq!((q.len(), q.peek_time()), (4, Some(SimTime::from_secs(2))));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![2, 3, 4, 6]);
    }

    #[test]
    fn cancel_under_a_vacant_root_of_the_key_peek_time_reads() {
        let (mut q, ids) = vacant_over_five();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert!(q.cancel(ids[1]));
        check_shape(&q);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        // Again, with the next one, after a pop re-opens the hole.
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
        assert!(q.root_vacant);
        assert!(q.cancel(ids[3]));
        check_shape(&q);
        assert_eq!((q.len(), q.peek_time()), (2, Some(SimTime::from_secs(5))));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![5, 6]);
    }

    /// A key coordinate: near zero, near `u64::MAX` (both tie-prone) or
    /// anywhere, by `kind`.
    fn coord(kind: u64, raw: u64) -> u64 {
        match kind % 3 {
            0 => raw % 3,
            1 => u64::MAX - raw % 3,
            _ => raw,
        }
    }

    proptest! {
        /// The branch-free compare is the tuple compare it stands for.
        #[test]
        fn before_is_the_tuple_compare(
            kinds in any::<u64>(),
            w in any::<u64>(),
            x in any::<u64>(),
            y in any::<u64>(),
            z in any::<u64>(),
        ) {
            let a = Key { at: SimTime::from_micros(coord(kinds, w)), seq: coord(kinds >> 8, x) };
            let mut b = Key { at: SimTime::from_micros(coord(kinds >> 16, y)), seq: coord(kinds >> 24, z) };
            if kinds >> 32 & 1 == 1 {
                // Equal times: the sequence number alone decides.
                b.at = a.at;
            }
            prop_assert_eq!(a.before(&b), (a.at, a.seq) < (b.at, b.seq));
            prop_assert_eq!(b.before(&a), (b.at, b.seq) < (a.at, a.seq));
            prop_assert!(!a.before(&a));
        }
    }
}
