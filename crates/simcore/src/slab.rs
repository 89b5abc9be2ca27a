//! A slab: values parked in one `Vec`, addressed by a stable `u32` slot.
//!
//! The network engine's in-flight packets want exactly this: write a value
//! once, move a 4-byte name for it through link queues and pending events,
//! take it out once. Vacant slots are reused last-freed-first, and the free
//! list is threaded through the vacant slots themselves, so a slab owns
//! exactly one growing allocation and never outgrows its peak occupancy.
//! A slot carries nothing but its state: telling a value from a later
//! tenant of the same slot is the holder's business.

/// End-of-list marker of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Slot<T> {
    Occupied(T),
    /// Vacant; holds the next vacant slot (or [`NIL`]).
    Vacant(u32),
}

/// A `Vec`-backed store handing out reusable `u32` slots.
///
/// ```
/// use vcabench_simcore::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("a");
/// let b = slab.insert("b");
/// assert_eq!(slab.remove(a), Some("a"));
/// assert_eq!(slab.get(a), None);
/// let c = slab.insert("c");
/// assert_eq!(c, a, "the freed slot is reused");
/// assert_eq!((slab.len(), slab.slots()), (2, 2));
/// assert_eq!(slab.get(b), Some(&"b"));
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Slot<T>>,
    /// First vacant slot, or [`NIL`].
    free_head: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Create an empty slab (allocates nothing).
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Store `value`, returning its slot.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        let slot = self.free_head;
        if slot == NIL {
            let slot = u32::try_from(self.entries.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("slot count fits u32");
            self.entries.push(Slot::Occupied(value));
            return slot;
        }
        let entry = &mut self.entries[slot as usize];
        let Slot::Vacant(next) = *entry else {
            unreachable!("the free list only links vacant slots");
        };
        self.free_head = next;
        *entry = Slot::Occupied(value);
        slot
    }

    /// Take the value out of `slot`, freeing it for reuse. `None` if the slot
    /// is vacant or was never handed out.
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let entry = self.entries.get_mut(slot as usize)?;
        // Look before moving: taking the state out to inspect it costs a
        // copy of `T` that `sim_matrix` can see (PR 24).
        if matches!(entry, Slot::Vacant(_)) {
            return None;
        }
        let vacant = Slot::Vacant(self.free_head);
        let Slot::Occupied(value) = std::mem::replace(entry, vacant) else {
            unreachable!("checked above");
        };
        self.free_head = slot;
        self.len -= 1;
        Some(value)
    }

    /// The value in `slot`, if occupied.
    pub fn get(&self, slot: u32) -> Option<&T> {
        match self.entries.get(slot as usize)? {
            Slot::Occupied(value) => Some(value),
            Slot::Vacant(_) => None,
        }
    }

    /// Mutable access to the value in `slot`, if occupied.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        match self.entries.get_mut(slot as usize)? {
            Slot::Occupied(value) => Some(value),
            Slot::Vacant(_) => None,
        }
    }

    /// Number of values held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever created, occupied or vacant — the peak of
    /// [`Slab::len`] over the slab's life.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_reused_last_freed_first() {
        let mut s = Slab::new();
        let ids: Vec<u32> = (0..4).map(|i| s.insert(i)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.remove(1), Some(1));
        assert_eq!(s.remove(3), Some(3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.insert(30), 3);
        assert_eq!(s.insert(10), 1);
        assert_eq!(s.insert(40), 4, "free list exhausted: a new slot");
        assert_eq!((s.len(), s.slots()), (5, 5));
    }

    #[test]
    fn vacant_and_unknown_slots_read_as_none() {
        let mut s = Slab::new();
        let a = s.insert("a");
        assert_eq!(s.get(a), Some(&"a"));
        *s.get_mut(a).unwrap() = "b";
        assert_eq!(s.remove(a), Some("b"));
        assert_eq!(s.remove(a), None, "double remove");
        assert_eq!(s.get(a), None);
        assert!(s.get_mut(a).is_none());
        assert_eq!(s.remove(7), None);
        assert_eq!(s.get(7), None);
        assert!(s.is_empty());
    }

    #[test]
    fn never_outgrows_peak_occupancy() {
        let mut s = Slab::new();
        let mut held = std::collections::VecDeque::new();
        let mut peak = 0;
        for i in 0..1_000u32 {
            held.push_back(s.insert(i));
            peak = peak.max(s.len());
            // Sawtooth: drain to one every 16 steps, else hold steady at ≤ 8.
            let keep = if i % 16 == 0 { 1 } else { 8 };
            while held.len() > keep {
                let slot = held.pop_front().unwrap();
                assert!(s.remove(slot).is_some());
            }
        }
        assert_eq!(s.slots(), peak);
        assert_eq!(s.len(), held.len());
    }

    #[test]
    fn remove_drops_nothing_it_returns() {
        use std::rc::Rc;
        let probe = Rc::new(());
        let mut s = Slab::new();
        let a = s.insert(Rc::clone(&probe));
        let b = s.insert(Rc::clone(&probe));
        assert_eq!(Rc::strong_count(&probe), 3);
        drop(s.remove(a));
        assert_eq!(Rc::strong_count(&probe), 2);
        let _ = b;
        drop(s);
        assert_eq!(
            Rc::strong_count(&probe),
            1,
            "dropping the slab drops what it holds"
        );
    }
}
