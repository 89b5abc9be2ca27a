//! WebRTC-stats-style per-second application metrics (§3.2).
//!
//! The paper samples `chrome://webrtc-internals` once per second for Meet
//! and Teams-Chrome, reading the encoder's operating point (frame width,
//! FPS, quantization parameter), freeze statistics for received video, and
//! FIR counts. [`StatsCollector`] reproduces that sampling inside each
//! simulated client; experiments read the samples after the run.

use vcabench_simcore::{SimDuration, SimTime};

/// One per-second sample, mirroring the fields the paper plots in Figs 2–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSample {
    /// Sample time.
    pub t: SimTime,
    /// Sender-side congestion controller target, Mbps.
    pub target_mbps: f64,
    /// Width of the highest-quality stream currently encoded, px.
    pub send_width: u32,
    /// FPS of that stream.
    pub send_fps: f64,
    /// QP of that stream.
    pub send_qp: f64,
    /// Width of the most recently decoded remote frame, px.
    pub recv_width: u32,
    /// Decoded frames in the last second (received FPS).
    pub recv_fps: f64,
    /// QP of the most recently decoded remote frame.
    pub recv_qp: f64,
    /// Cumulative freeze time on received video.
    pub freeze_time: SimDuration,
    /// Cumulative freeze count.
    pub freeze_count: u64,
    /// Cumulative FIRs sent by this client (it could not decode).
    pub firs_sent: u64,
    /// Cumulative FIRs received from remotes about this client's upstream
    /// (the Fig 3b metric, measured at the constrained sender).
    pub firs_received: u64,
    /// Cumulative video media payload bytes handed to the pacer (excludes
    /// FEC, audio, RTP/UDP headers). Passive-inference ground truth for
    /// the send-side media bitrate.
    pub send_media_bytes: u64,
    /// Cumulative non-FEC video payload bytes received (excludes headers).
    /// Passive-inference ground truth for the receive-side media bitrate.
    pub recv_media_bytes: u64,
    /// Cumulative frames decoded across *all* remote senders (`recv_fps`
    /// covers only the primary rendered remote; the aggregate is what a
    /// passive observer of the whole downlink can be scored against).
    pub frames_decoded: u64,
}

/// Accumulates per-second samples for one client.
#[derive(Debug, Clone, Default)]
pub struct StatsCollector {
    samples: Vec<StatsSample>,
}

impl StatsCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    pub fn push(&mut self, sample: StatsSample) {
        self.samples.push(sample);
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[StatsSample] {
        &self.samples
    }

    /// Delta of a cumulative counter over `(from, to]`: the projected value
    /// at the last sample with `t <= to` minus its value at the last sample
    /// with `t <= from`. This works for windows as short as one sampling
    /// interval, which is what the passive-inference join uses (per-second
    /// windows against per-second samples). Returns `None` when either
    /// endpoint has no sample at or before it.
    pub fn counter_delta<F: Fn(&StatsSample) -> u64>(
        &self,
        from: SimTime,
        to: SimTime,
        f: F,
    ) -> Option<u64> {
        let at_or_before = |t: SimTime| self.samples.iter().rev().find(|s| s.t <= t);
        let a = at_or_before(from)?;
        let b = at_or_before(to)?;
        Some(f(b).saturating_sub(f(a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_s: u64) -> StatsSample {
        StatsSample {
            t: SimTime::from_secs(t_s),
            target_mbps: 1.0,
            send_width: 640,
            send_fps: 30.0,
            send_qp: 30.0,
            recv_width: 640,
            recv_fps: 30.0,
            recv_qp: 30.0,
            freeze_time: SimDuration::ZERO,
            freeze_count: 0,
            firs_sent: 0,
            firs_received: 0,
            send_media_bytes: t_s * 1000,
            recv_media_bytes: t_s * 500,
            frames_decoded: t_s * 30,
        }
    }

    #[test]
    fn counter_delta_spans_short_windows() {
        let mut c = StatsCollector::new();
        for t in 1..=10 {
            c.push(sample(t));
        }
        // One-second window: delta between adjacent samples.
        let d = c.counter_delta(SimTime::from_secs(3), SimTime::from_secs(4), |s| {
            s.send_media_bytes
        });
        assert_eq!(d, Some(1000));
        let frames = c.counter_delta(SimTime::from_secs(1), SimTime::from_secs(10), |s| {
            s.frames_decoded
        });
        assert_eq!(frames, Some(9 * 30));
        // No sample at or before the left endpoint.
        assert_eq!(
            c.counter_delta(SimTime::ZERO, SimTime::from_secs(4), |s| s.frames_decoded),
            None
        );
        // Endpoints between samples snap to the last sample at or before.
        let d = c.counter_delta(
            SimTime::from_secs_f64(3.5),
            SimTime::from_secs_f64(4.5),
            |s| s.recv_media_bytes,
        );
        assert_eq!(d, Some(500));
    }
}
