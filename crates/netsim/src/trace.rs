//! Per-flow throughput traces.
//!
//! The paper reports *sent network bitrate* sampled over the call and binned
//! into short intervals (Figures 1, 4, 5, 9, 11–14). We record bytes that
//! finish serialization on a link into fixed-width time bins and convert to
//! Mbps series on demand.

use vcabench_simcore::{SimDuration, SimTime, SmallMap};

use crate::packet::FlowId;

/// Bin width of every trace (100 ms).
pub const DEFAULT_BIN: SimDuration = SimDuration::from_millis(100);

/// Byte counts accumulated into [`DEFAULT_BIN`]-wide time bins.
#[derive(Debug, Clone, Default)]
pub struct BinTrace {
    bins: Vec<u64>,
}

impl BinTrace {
    /// Record `bytes` observed at time `t`.
    pub fn record(&mut self, t: SimTime, bytes: usize) {
        self.add((t.as_micros() / DEFAULT_BIN.as_micros()) as usize, bytes);
    }

    /// Make room for `n` bins without reallocating, leaving `len()` alone.
    fn reserve_bins(&mut self, n: usize) {
        self.bins.reserve(n.saturating_sub(self.bins.len()));
    }

    /// Add `bytes` to bin `idx`.
    fn add(&mut self, idx: usize, bytes: usize) {
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += bytes as u64;
    }

    /// Number of bins (up to the last recorded event).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Bytes recorded in `[from, to)`.
    pub fn bytes_between(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let lo = (from.as_micros() / DEFAULT_BIN.as_micros()) as usize;
        let hi = to.as_micros().div_ceil(DEFAULT_BIN.as_micros()) as usize;
        self.bins
            .iter()
            .take(hi.min(self.bins.len()))
            .skip(lo)
            .sum()
    }

    /// Average rate over `[from, to)` in Mbps.
    pub fn rate_mbps_between(&self, from: SimTime, to: SimTime) -> f64 {
        let dur = to.saturating_since(from).as_secs_f64();
        if dur <= 0.0 {
            return 0.0;
        }
        self.bytes_between(from, to) as f64 * 8.0 / dur / 1e6
    }

    /// Raw per-bin byte counts re-aggregated into `width`-wide bins, padded
    /// with zeros out to `until`. Integer-exact, so suitable for golden
    /// fixtures that demand byte-identical serialization across runs.
    pub fn binned_bytes(&self, width: SimDuration, until: SimTime) -> Vec<u64> {
        assert!(!width.is_zero(), "bin width must be positive");
        let n = until.as_micros().div_ceil(width.as_micros()) as usize;
        let mut out = vec![0u64; n];
        for (i, &b) in self.bins.iter().enumerate() {
            let t = i as u64 * DEFAULT_BIN.as_micros();
            let idx = (t / width.as_micros()) as usize;
            if idx < out.len() {
                out[idx] += b;
            }
        }
        out
    }

    /// Per-bin bitrate series in Mbps, padded with zeros out to `until`.
    pub fn series_mbps(&self, until: SimTime) -> Vec<f64> {
        let n = until.as_micros().div_ceil(DEFAULT_BIN.as_micros()) as usize;
        let secs = DEFAULT_BIN.as_secs_f64();
        (0..n.max(self.bins.len()))
            .map(|i| self.bins.get(i).copied().unwrap_or(0) as f64 * 8.0 / secs / 1e6)
            .collect()
    }
}

/// Traces for every flow crossing a link, plus the aggregate.
///
/// A link carries a handful of flows, and packets arrive in trains, so the
/// per-flow stores are [`SmallMap`]s: the common case (same flow as the
/// previous packet) is one indexed compare, and misses binary-search
/// instead of hashing.
#[derive(Debug, Clone)]
pub struct FlowTraces {
    per_flow: SmallMap<FlowId, BinTrace>,
    total: BinTrace,
    /// Bins every trace has room for (see [`FlowTraces::reserve_until`]).
    horizon_bins: usize,
}

impl FlowTraces {
    /// Create with the default 100 ms bins.
    pub fn new() -> Self {
        FlowTraces {
            per_flow: SmallMap::new(),
            total: BinTrace::default(),
            horizon_bins: 0,
        }
    }

    /// Size every trace, and every flow's trace first seen later, for
    /// events up to `until`, so recording a run of that length never
    /// reallocates a bin series. Recording past `until` still grows.
    pub(crate) fn reserve_until(&mut self, until: SimTime) {
        let n = (until.as_micros() / DEFAULT_BIN.as_micros()) as usize + 1;
        self.horizon_bins = self.horizon_bins.max(n);
        self.total.reserve_bins(n);
        for tr in self.per_flow.values_mut() {
            tr.reserve_bins(n);
        }
    }

    /// Record `bytes` of `flow` at `t`.
    pub fn record(&mut self, flow: FlowId, t: SimTime, bytes: usize) {
        // Both traces use `DEFAULT_BIN`: one division (by a constant).
        let idx = (t.as_micros() / DEFAULT_BIN.as_micros()) as usize;
        let horizon = self.horizon_bins;
        self.per_flow
            .get_or_insert_with(flow, || BinTrace {
                bins: Vec::with_capacity(horizon),
            })
            .add(idx, bytes);
        self.total.add(idx, bytes);
    }

    /// Trace of a single flow, if it ever sent.
    pub fn flow(&self, flow: FlowId) -> Option<&BinTrace> {
        self.per_flow.get(&flow)
    }

    /// Aggregate trace across all flows.
    pub fn total(&self) -> &BinTrace {
        &self.total
    }

    /// All flows seen, in ascending id order.
    pub fn flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.per_flow.keys().copied()
    }

    /// Combined Mbps series of a set of flows (zero-padded to `until`).
    pub fn combined_series_mbps(&self, flows: &[FlowId], until: SimTime) -> Vec<f64> {
        let n = until.as_micros().div_ceil(DEFAULT_BIN.as_micros()) as usize;
        let mut out = vec![0.0; n];
        for f in flows {
            if let Some(tr) = self.flow(*f) {
                for (i, v) in tr.series_mbps(until).iter().enumerate() {
                    if i < out.len() {
                        out[i] += v;
                    }
                }
            }
        }
        out
    }
}

impl Default for FlowTraces {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl BinTrace {
    /// Total bytes recorded.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_and_rates() {
        let mut tr = BinTrace::default();
        // 12500 bytes in 100 ms = 1 Mbps.
        tr.record(SimTime::from_millis(50), 12_500);
        tr.record(SimTime::from_millis(150), 25_000);
        let s = tr.series_mbps(SimTime::from_millis(200));
        assert_eq!(s.len(), 2);
        assert!((s[0] - 1.0).abs() < 1e-9);
        assert!((s[1] - 2.0).abs() < 1e-9);
        assert_eq!(tr.total_bytes(), 37_500);
    }

    #[test]
    fn bytes_between_window() {
        let mut tr = BinTrace::default();
        for i in 0..10 {
            tr.record(SimTime::from_millis(i * 100 + 1), 100);
        }
        assert_eq!(
            tr.bytes_between(SimTime::from_millis(200), SimTime::from_millis(500)),
            300
        );
        assert_eq!(
            tr.bytes_between(SimTime::ZERO, SimTime::from_secs(100)),
            1000
        );
        assert_eq!(
            tr.bytes_between(SimTime::from_secs(1), SimTime::from_secs(1)),
            0
        );
    }

    #[test]
    fn rate_mbps_between_computes_average() {
        let mut tr = BinTrace::default();
        // 125_000 bytes over 1 s = 1 Mbps.
        for i in 0..10 {
            tr.record(SimTime::from_millis(i * 100), 12_500);
        }
        let r = tr.rate_mbps_between(SimTime::ZERO, SimTime::from_secs(1));
        assert!((r - 1.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn flow_traces_aggregate() {
        let mut ft = FlowTraces::new();
        ft.record(FlowId(1), SimTime::from_millis(10), 1000);
        ft.record(FlowId(2), SimTime::from_millis(20), 2000);
        assert_eq!(ft.total().total_bytes(), 3000);
        assert_eq!(ft.flow(FlowId(1)).unwrap().total_bytes(), 1000);
        assert!(ft.flow(FlowId(3)).is_none());
    }

    #[test]
    fn binned_bytes_reaggregates() {
        let mut tr = BinTrace::default();
        for i in 0..15 {
            tr.record(SimTime::from_millis(i * 100), 10);
        }
        // 1.5 s of 100 ms bins into 1 s bins, padded to 3 s.
        let b = tr.binned_bytes(SimDuration::from_secs(1), SimTime::from_secs(3));
        assert_eq!(b, vec![100, 50, 0]);
    }

    #[test]
    fn binned_bytes_truncates_when_until_is_short() {
        let mut tr = BinTrace::default();
        // 3 s of recorded data...
        for i in 0..30 {
            tr.record(SimTime::from_millis(i * 100), 10);
        }
        // ...re-binned only out to 2 s: bins past `until` are dropped.
        let b = tr.binned_bytes(SimDuration::from_secs(1), SimTime::from_secs(2));
        assert_eq!(b, vec![100, 100]);
        assert!(tr
            .binned_bytes(SimDuration::from_secs(1), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn flows_iterate_in_sorted_order() {
        let mut ft = FlowTraces::new();
        for id in [9u64, 2, 33, 5, 1, 21, 8, 13] {
            ft.record(FlowId(id), SimTime::from_millis(10), 100);
        }
        let ids: Vec<u64> = ft.flows().map(|f| f.0).collect();
        assert_eq!(ids, vec![1, 2, 5, 8, 9, 13, 21, 33]);
    }

    #[test]
    fn traces_sized_for_a_horizon_record_without_growing() {
        let events = [(1u64, 50u64), (2, 150), (1, 4_999), (3, 5_000)];
        let mut plain = FlowTraces::new();
        let mut sized = FlowTraces::new();
        sized.record(FlowId(1), SimTime::from_millis(10), 100);
        plain.record(FlowId(1), SimTime::from_millis(10), 100);
        sized.reserve_until(SimTime::from_secs(5));
        let caps = |ft: &FlowTraces| -> Vec<usize> {
            std::iter::once(ft.total.bins.capacity())
                .chain(ft.per_flow.values().map(|tr| tr.bins.capacity()))
                .collect()
        };
        for (flow, ms) in events {
            plain.record(FlowId(flow), SimTime::from_millis(ms), 700);
            sized.record(FlowId(flow), SimTime::from_millis(ms), 700);
        }
        // Every trace, the flows first seen after the reserve included,
        // had room for 5 s of bins from the start.
        assert_eq!(caps(&sized), vec![51; 4]);
        // Bins still end at the last recorded event.
        assert_eq!(sized.total().len(), plain.total().len());
        let until = SimTime::from_secs(6);
        assert_eq!(
            sized.total().series_mbps(until),
            plain.total().series_mbps(until)
        );
        for flow in plain.flows() {
            let (a, b) = (plain.flow(flow).unwrap(), sized.flow(flow).unwrap());
            assert_eq!(a.len(), b.len());
            assert_eq!(a.series_mbps(until), b.series_mbps(until));
        }
        // Past the horizon a trace still grows.
        sized.record(FlowId(1), SimTime::from_secs(7), 1);
        assert_eq!(sized.flow(FlowId(1)).unwrap().len(), 71);
    }

    #[test]
    fn series_zero_padded() {
        let tr = BinTrace::default();
        let s = tr.series_mbps(SimTime::from_secs(1));
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&v| v == 0.0));
    }
}
