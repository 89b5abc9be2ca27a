//! A deterministic, hash-free map for a handful of keys.
//!
//! The simulator's per-packet tables — per-flow link counters, per-SSRC
//! receive state, an SFU's per-subscriber sequence rewriting — hold a few
//! to a few dozen keys, and packets arrive in trains that hit the same key
//! again and again. [`SmallMap`] keeps its entries in a `Vec` sorted by
//! key and remembers where the previous lookup landed: the common case is
//! one indexed compare, a miss is a binary search, and nothing is hashed.
//! Iteration runs in ascending key order, so anything folded over a map
//! (float sums included) is a pure function of its contents — which a
//! `HashMap` with per-process random state is not.
//!
//! Inserting or removing shifts the tail of the `Vec`, so this is the
//! wrong container for thousands of keys; use a `BTreeMap` there.

/// An ordered map over a sorted `Vec` with a last-hit cache.
///
/// ```
/// use vcabench_simcore::SmallMap;
///
/// let mut packets: SmallMap<u32, u64> = SmallMap::new();
/// *packets.get_or_insert_with(7, || 0) += 1;
/// *packets.get_or_insert_with(3, || 0) += 1;
/// *packets.get_or_insert_with(7, || 0) += 1;
/// assert_eq!(packets.get(&7), Some(&2));
/// assert_eq!(packets.keys().copied().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct SmallMap<K, V> {
    /// Entries in ascending key order, keys unique.
    entries: Vec<(K, V)>,
    /// Where the previous `&mut` lookup landed. Only a hint: every use
    /// re-checks the key at that index, so it may go stale freely.
    last_hit: usize,
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap {
            entries: Vec::new(),
            last_hit: 0,
        }
    }
}

impl<K: Ord, V> SmallMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of `key` (`Ok`) or where it would be inserted (`Err`).
    fn find(&self, key: &K) -> Result<usize, usize> {
        match self.entries.get(self.last_hit) {
            Some((k, _)) if k == key => Ok(self.last_hit),
            _ => self.entries.binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        self.last_hit = i;
        Some(&mut self.entries[i].1)
    }

    /// The value stored under `key`, inserting `default()` first if the
    /// key is absent (the `entry(key).or_insert_with(default)` of std maps).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        self.last_hit = i;
        &mut self.entries[i].1
    }

    /// Store `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => {
                self.last_hit = i;
                Some(std::mem::replace(&mut self.entries[i].1, value))
            }
            Err(i) => {
                self.entries.insert(i, (key, value));
                self.last_hit = i;
                None
            }
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// Keep only the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Entries in ascending key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_key_order_whatever_the_insertion_order() {
        let mut m = SmallMap::new();
        for k in [9u64, 2, 33, 5, 1, 21, 8, 13] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(
            m.keys().copied().collect::<Vec<_>>(),
            vec![1, 2, 5, 8, 9, 13, 21, 33]
        );
        assert_eq!(m.values().sum::<u64>(), 920);
        assert_eq!(m.insert(5, 0), Some(50), "insert replaces");
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn a_stale_hint_never_serves_a_wrong_entry() {
        let mut m = SmallMap::new();
        m.insert(10u32, "ten");
        m.insert(20, "twenty");
        // Every `&mut` lookup parks the hint where it landed; an insert in
        // front of it shifts the entries and re-parks on the new one.
        assert_eq!(m.get_mut(&20).copied(), Some("twenty"));
        m.insert(5, "five");
        assert_eq!(m.get(&20), Some(&"twenty"));
        assert_eq!(m.get(&10), Some(&"ten"));
        assert_eq!(m.get(&5), Some(&"five"));
        // Park on the last index, then shrink the map under the hint: it
        // now points past the end, then at a different key.
        assert!(m.get_mut(&20).is_some());
        assert_eq!(m.remove(&5), Some("five"));
        assert_eq!(m.get(&20), Some(&"twenty"));
        assert_eq!(m.get(&10), Some(&"ten"));
        assert_eq!(m.remove(&10), Some("ten"));
        assert_eq!(m.get(&10), None);
        assert_eq!(*m.get_or_insert_with(20, || "fresh"), "twenty");
        assert_eq!(*m.get_or_insert_with(1, || "one"), "one");
        assert_eq!(m.remove(&20), Some("twenty"));
        assert_eq!(m.remove(&20), None);
        assert_eq!(m.get(&1), Some(&"one"));
    }

    #[test]
    fn retain_and_clear() {
        let mut m: SmallMap<u32, u32> = (0..10).fold(SmallMap::new(), |mut m, k| {
            m.insert(k, k);
            m
        });
        m.retain(|k, v| {
            *v += 1;
            k % 2 == 0
        });
        assert_eq!(
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            vec![(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        );
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&2), None);
    }
}
