//! # vcabench-simcore
//!
//! Deterministic discrete-event simulation engine underpinning vcabench, the
//! reproduction of *"Measuring the Performance and Network Utilization of
//! Popular Video Conferencing Applications"* (IMC 2021).
//!
//! The engine is intentionally minimal and synchronous: a virtual clock
//! ([`SimTime`]), a total-ordered event queue ([`EventQueue`]), seeded,
//! fork-able randomness ([`SimRng`]), and the hash-free ordered map the
//! layers above keep their per-packet tables in ([`SmallMap`]). Higher layers (the network simulator,
//! transports, VCA models) define their own event payload types and drive a
//! single queue; there is no async runtime and no wall-clock dependence, so
//! every experiment is exactly reproducible from its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod observe;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod smallmap;
pub mod time;

pub use observe::{InvariantLog, MonotonicClock, Violation};
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use slab::Slab;
pub use smallmap::SmallMap;
pub use time::{transmission_time, SimDuration, SimTime};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping must yield a non-decreasing time sequence regardless of
        /// the schedule order, and ties must preserve insertion order.
        #[test]
        fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((at, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(at >= lt);
                    if at == lt {
                        prop_assert!(idx > lidx, "tie must keep insertion order");
                    }
                }
                last = Some((at, idx));
            }
        }

        /// Cancelling an arbitrary subset removes exactly that subset.
        #[test]
        fn queue_cancel_subset(
            times in proptest::collection::vec(0u64..1_000, 1..100),
            mask in proptest::collection::vec(any::<bool>(), 1..100),
        ) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times.iter().enumerate()
                .map(|(i, t)| (i, q.schedule(SimTime::from_micros(*t), i)))
                .collect();
            let mut kept = Vec::new();
            for (i, id) in &ids {
                if mask.get(*i).copied().unwrap_or(false) {
                    q.cancel(*id);
                } else {
                    kept.push(*i);
                }
            }
            let mut popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
            popped.sort_unstable();
            kept.sort_unstable();
            prop_assert_eq!(popped, kept);
        }

        /// Time arithmetic: (t + d) - t == d for all in-range values.
        #[test]
        fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
            let t = SimTime::from_micros(t);
            let d = SimDuration::from_micros(d);
            prop_assert_eq!((t + d) - t, d);
        }

        /// transmission_time never lets a link exceed its configured rate:
        /// bytes*8 / duration <= rate (duration rounds up).
        #[test]
        fn transmission_time_never_exceeds_rate(bytes in 1usize..65_536, rate_kbps in 1u64..1_000_000) {
            let rate = rate_kbps as f64 * 1_000.0;
            let d = transmission_time(bytes, rate);
            let implied = bytes as f64 * 8.0 / d.as_secs_f64();
            // Allow a sliver of tolerance for the us quantization at huge rates.
            prop_assert!(implied <= rate * 1.001, "implied {implied} > rate {rate}");
        }

        /// transmission_time is the `ceil` expression it replaced, bit for
        /// bit: over exact multiples, sub-microsecond results, every rate
        /// from 1 bps to 10 Gbps, and durations past 2^53 µs (where f64 has
        /// no fractions left) up to the saturating cast.
        #[test]
        fn transmission_time_is_the_ceil_it_replaced(
            kind in 0u8..4,
            a in any::<u64>(),
            b in any::<u64>(),
            fraction in 0.0f64..1.0,
        ) {
            let (bytes, rate) = match kind {
                // Decimal rates: most sizes serialize in a whole number of µs.
                0 => ((a % 65_536) as usize, 10f64.powi((b % 11) as i32)),
                // A few bytes on a fast link: under one microsecond.
                1 => ((a % 4) as usize, 1e7 + fraction * (1e10 - 1e7)),
                // Any integer rate, any packet size.
                2 => (1 + (a % 65_535) as usize, (1 + b % 10_000_000_000) as f64),
                // Absurd sizes on slow links: 2^53 µs and beyond.
                _ => (a as usize, 1.0 + fraction * (b % 1_000) as f64),
            };
            let ceil = (bytes as f64 * 8.0 / rate * 1e6).ceil() as u64;
            prop_assert_eq!(transmission_time(bytes, rate).as_micros(), ceil);
        }
    }
}
