//! Differential test: [`SmallMap`] against `BTreeMap`.
//!
//! Proptest drives both through random get / get_mut / insert /
//! get_or_insert_with / remove / retain interleavings over a key range
//! small enough to collide constantly. Every return value must agree, and
//! after every step the two must iterate identically — which is also what
//! shows the last-hit cache never serves a stale index: each lookup kind
//! is issued right after inserts that shift the tail and removes that
//! shrink it.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vcabench_simcore::SmallMap;

proptest! {
    #[test]
    fn small_map_matches_btreemap(raw_ops in proptest::collection::vec(any::<u64>(), 1..400)) {
        let mut map: SmallMap<u16, u64> = SmallMap::new();
        let mut model: BTreeMap<u16, u64> = BTreeMap::new();

        for raw in raw_ops {
            let key = ((raw >> 8) % 24) as u16;
            let val = raw >> 16;
            match raw % 8 {
                0 | 1 => prop_assert_eq!(map.insert(key, val), model.insert(key, val)),
                2 => {
                    let got = *map.get_or_insert_with(key, || val);
                    prop_assert_eq!(got, *model.entry(key).or_insert(val));
                }
                3 => prop_assert_eq!(map.remove(&key), model.remove(&key)),
                4 => {
                    let (a, b) = (map.get_mut(&key), model.get_mut(&key));
                    prop_assert_eq!(a.as_deref(), b.as_deref());
                    if let (Some(a), Some(b)) = (a, b) {
                        *a = val;
                        *b = val;
                    }
                }
                5 => {
                    map.retain(|k, v| !(*k as u64 + *v + val).is_multiple_of(5));
                    model.retain(|k, v| !(*k as u64 + *v + val).is_multiple_of(5));
                }
                _ => prop_assert_eq!(map.get(&key), model.get(&key)),
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert!(map.iter().eq(model.iter()), "iteration diverged");
            // Probe every key, not just the one the op touched: a stale
            // hint would show up as a wrong neighbour.
            for k in 0..24u16 {
                prop_assert_eq!(map.get(&k), model.get(&k), "get({}) diverged", k);
            }
        }
        prop_assert!(map.keys().eq(model.keys()));
        prop_assert!(map.values().eq(model.values()));
        prop_assert!(map.values_mut().map(|v| *v).eq(model.values().copied()));
        prop_assert!(map.iter_mut().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))));
    }
}
