//! A closed-form bottleneck model for exercising rate controllers without
//! the full packet simulator.
//!
//! Used by this crate's tests and benchmarks to study controller dynamics in
//! isolation: the link turns a requested send rate into loss, queueing delay,
//! and delivered rate exactly the way a drop-tail FIFO does in steady state.

use vcabench_simcore::{SimDuration, SimTime};

use crate::feedback::FeedbackReport;

/// Base one-way delay of a new link, ms.
/// engineering: a test bench's path delay.
pub const BASE_OWD_MS: f64 = 20.0;
/// Queueing delay at which a new link's queue overflows, ms.
/// engineering: a test bench's buffer.
pub const MAX_QUEUE_MS: f64 = 300.0;
/// Least offered load one step divides the overflow by, ms.
/// engineering: keeps an idle step's loss finite.
pub const MIN_OFFERED_MS: f64 = 1e-9;

/// Deterministic single-flow bottleneck approximation.
#[derive(Debug, Clone)]
pub struct SyntheticLink {
    /// Capacity, Mbps.
    pub capacity_mbps: f64,
    /// Base one-way delay, ms.
    pub base_owd_ms: f64,
    /// Maximum queueing delay before overflow, ms.
    pub max_queue_ms: f64,
    queue_ms: f64,
}

impl SyntheticLink {
    /// New link with the given capacity.
    pub fn new(capacity_mbps: f64) -> Self {
        SyntheticLink {
            capacity_mbps,
            base_owd_ms: BASE_OWD_MS,
            max_queue_ms: MAX_QUEUE_MS,
            queue_ms: 0.0,
        }
    }

    /// Advance one interval: offer `send_mbps` for `dt`, produce feedback.
    pub fn step(&mut self, now: SimTime, send_mbps: f64, dt: SimDuration) -> FeedbackReport {
        let dt_s = dt.as_secs_f64();
        // Queue integrates the excess; drains the deficit.
        let excess = send_mbps - self.capacity_mbps;
        let d_queue_ms = excess / self.capacity_mbps * dt_s * 1000.0;
        let unclamped = self.queue_ms + d_queue_ms;
        self.queue_ms = unclamped.clamp(0.0, self.max_queue_ms);
        // Loss appears once the queue overflows.
        let overflow_ms = (unclamped - self.max_queue_ms).max(0.0);
        let offered_ms = (send_mbps / self.capacity_mbps * dt_s * 1000.0).max(MIN_OFFERED_MS);
        let loss = (overflow_ms / offered_ms).clamp(0.0, 1.0);
        let delivered = send_mbps.min(self.capacity_mbps) * (1.0 - loss).max(0.0);
        FeedbackReport {
            now,
            loss_fraction: loss,
            receive_rate_mbps: delivered.min(self.capacity_mbps),
            one_way_delay_ms: self.base_owd_ms + self.queue_ms,
        }
    }
}

#[cfg(test)]
impl SyntheticLink {
    /// Current standing queue, in ms of delay.
    pub(crate) fn queue_ms(&self) -> f64 {
        self.queue_ms
    }

    /// Advance one interval with several flows sharing the bottleneck.
    /// Loss and queueing delay are shared; delivered rate is split in
    /// proportion to offered rates (a fluid approximation of FIFO sharing).
    pub(crate) fn step_shared(
        &mut self,
        now: SimTime,
        sends_mbps: &[f64],
        dt: SimDuration,
    ) -> Vec<FeedbackReport> {
        let total: f64 = sends_mbps.iter().sum();
        let combined = self.step(now, total, dt);
        sends_mbps
            .iter()
            .map(|&s| {
                let frac = if total > 0.0 { s / total } else { 0.0 };
                FeedbackReport {
                    receive_rate_mbps: combined.receive_rate_mbps * frac,
                    ..combined
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_capacity_is_clean() {
        let mut l = SyntheticLink::new(2.0);
        let r = l.step(SimTime::ZERO, 1.0, SimDuration::from_millis(100));
        assert_eq!(r.loss_fraction, 0.0);
        assert!((r.receive_rate_mbps - 1.0).abs() < 1e-9);
        assert_eq!(r.one_way_delay_ms, 20.0);
    }

    #[test]
    fn over_capacity_builds_queue_then_loses() {
        let mut l = SyntheticLink::new(1.0);
        let mut saw_delay_rise = false;
        let mut saw_loss = false;
        for i in 0..100 {
            let r = l.step(
                SimTime::from_millis(i * 100),
                2.0,
                SimDuration::from_millis(100),
            );
            if r.one_way_delay_ms > 25.0 {
                saw_delay_rise = true;
            }
            if r.loss_fraction > 0.0 {
                saw_loss = true;
            }
        }
        assert!(saw_delay_rise, "queue must grow before overflowing");
        assert!(saw_loss, "sustained overload must lose packets");
        assert!((l.queue_ms() - 300.0).abs() < 1e-6, "queue pegged at max");
    }

    #[test]
    fn queue_drains_when_idle() {
        let mut l = SyntheticLink::new(1.0);
        for i in 0..20 {
            l.step(
                SimTime::from_millis(i * 100),
                3.0,
                SimDuration::from_millis(100),
            );
        }
        assert!(l.queue_ms() > 0.0);
        for i in 20..80 {
            l.step(
                SimTime::from_millis(i * 100),
                0.2,
                SimDuration::from_millis(100),
            );
        }
        assert!(l.queue_ms() < 1.0, "queue should drain under light load");
    }
}
