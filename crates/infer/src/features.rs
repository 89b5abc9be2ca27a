//! Streaming, single-pass feature extraction from packet-level telemetry.
//!
//! An [`Extractor`] watches one tap — a [`TapSpec`]: a `(link, flow)` pair
//! plus a [`crate::flow::Vantage`] — and folds the packet events that
//! cross it into per-second [`WindowFeatures`]. It implements
//! [`vcabench_telemetry::Recorder`], so the same code runs *online* (attached to a live simulation through a
//! [`vcabench_telemetry::Telemetry`] handle) and *offline* (fed from an
//! exported `.events.jsonl` trace via
//! [`vcabench_telemetry::replay_jsonl`]); both paths see the identical
//! event stream and therefore produce identical features.
//!
//! Nothing here reads application-layer state: the extractor sees only
//! timestamps, wire sizes, and drop notifications, exactly what a passive
//! on-path observer of an encrypted RTP flow gets. Packet classes, the
//! tap filter and frame boundaries are the shared flow core's
//! ([`crate::flow`]); what this module *infers* on top of them:
//!
//! - **Decodability and freezes.** Observed drops on the flow damage the
//!   inferred decode timeline (a stand-in for RTP sequence-number gaps,
//!   which the telemetry schema does not carry); damaged frames stop
//!   advancing it until a keyframe-sized frame (> [`KEYFRAME_FACTOR`] ×
//!   the rolling frame-size mean) restores sync, mirroring the
//!   FIR-keyframe recovery of the real assembler. The advancing timeline
//!   feeds a replica of the receive-side freeze rule (gap >
//!   max(3δ, δ + 150 ms), δ an EMA of inter-frame time).

use vcabench_simcore::SimTime;
use vcabench_telemetry::{EventKind, Recorder};

use crate::flow::{window_of, Frame, FrameSegmenter, PacketObs, Sighting, TapSpec, VIDEO_MIN_WIRE};

/// A frame larger than this multiple of the rolling mean frame size is
/// taken for a keyframe (the encoder's keyframes are ~4× a delta frame).
pub const KEYFRAME_FACTOR: f64 = 2.0;
/// EMA weight of the rolling mean frame size.
pub const FRAME_EMA_ALPHA: f64 = 0.1;
/// Initial frame-rate assumption of the freeze replica (matches the
/// receive-side detector's initialization).
pub const INITIAL_FPS: f64 = 30.0;
/// Additive term of the freeze threshold, seconds (the webrtc-internals
/// rule the paper measures with: gap > max(3δ, δ + 150 ms)).
pub const FREEZE_OFFSET_S: f64 = 0.150;

/// Number of preceding windows the rolling-context features average over.
pub const ROLL_WINDOWS: usize = 3;

/// Features of one `[w, w+1)`-second window of a tap.
///
/// Beyond the first-order counts, each window carries second-order
/// in-window structure (video inter-arrival moments, payload-size
/// moments, the longest full-packet burst) and *lagged context* — the
/// previous window's rate and full-packet share plus a
/// [`ROLL_WINDOWS`]-window rolling mean of both. The lag fields are what
/// let a per-window estimator see short-horizon dynamics (FEC
/// elevation, ramp-ups) without breaking the pure-function-of-features
/// [`crate::Estimator`] contract; they are filled by the [`Extractor`]
/// from sealed history, so they stay identical online and offline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowFeatures {
    /// Window index: the window covers `[window, window+1)` seconds.
    pub window: u64,
    /// Total wire bytes observed (all packet classes, headers included).
    pub wire_bytes: u64,
    /// Video payload bytes (wire minus [`crate::flow::HEADER_BYTES`] per
    /// video packet).
    /// Includes FEC payload — a passive observer cannot tell them apart.
    pub video_payload_bytes: u64,
    /// Video-classified packets observed.
    pub video_pkts: u64,
    /// Video packets of exactly full wire size (MTU payload).
    pub full_pkts: u64,
    /// Non-video packets observed (audio, RTCP, signaling).
    pub small_pkts: u64,
    /// Drop events attributed to the tap in this window.
    pub drops: u64,
    /// Frame boundaries detected: a video packet shorter than
    /// [`FULL_WIRE`](crate::flow::FULL_WIRE) ends a frame, and a pause longer
    /// than [`FRAME_CLOSE_GAP_S`](crate::flow::FRAME_CLOSE_GAP_S) closes one.
    pub frames: u64,
    /// Frames that advanced the inferred decode timeline (excludes frames
    /// observed while the flow was damage-flagged).
    pub frames_decodable: u64,
    /// Freezes the replica detector flagged in this window.
    pub freeze_count: u64,
    /// Freeze time the replica accumulated in this window, seconds.
    pub freeze_time_s: f64,
    /// Moments of the video-packet inter-arrival gaps attributed to this
    /// window (a gap belongs to the window of its *later* packet).
    pub iat: GapMoments,
    /// Sum of squared video payload sizes, bytes² (second moment of the
    /// size-class histogram).
    pub video_payload_sq: f64,
    /// Longest run of consecutive full-sized video packets observed in
    /// this window (burst structure; FEC blocks extend media bursts).
    pub burst_max: u64,
    /// Previous window's video payload rate, Mbps (0 for window 0).
    pub lag1_video_mbps: f64,
    /// Previous window's full-packet fraction (0 for window 0).
    pub lag1_full_fraction: f64,
    /// Mean video rate over up to [`ROLL_WINDOWS`] preceding windows, Mbps.
    pub roll_video_mbps: f64,
    /// Mean full-packet fraction over up to [`ROLL_WINDOWS`] preceding
    /// windows.
    pub roll_full_fraction: f64,
}

impl WindowFeatures {
    fn empty(window: u64) -> Self {
        WindowFeatures {
            window,
            ..WindowFeatures::default()
        }
    }

    /// Video payload rate over the 1 s window, Mbps.
    pub fn video_mbps(&self) -> f64 {
        self.video_payload_bytes as f64 * 8e-6
    }

    /// Fraction of video packets that were full-sized (high under heavy
    /// FEC, whose packets are always full-sized).
    pub fn full_fraction(&self) -> f64 {
        if self.video_pkts == 0 {
            0.0
        } else {
            self.full_pkts as f64 / self.video_pkts as f64
        }
    }

    /// Mean video payload per packet, bytes (0 when no video packets).
    pub fn mean_video_payload(&self) -> f64 {
        if self.video_pkts == 0 {
            0.0
        } else {
            self.video_payload_bytes as f64 / self.video_pkts as f64
        }
    }

    /// Standard deviation of the video payload size, bytes (0 without
    /// video packets). A second moment of the size-class histogram:
    /// all-full-sized FEC blocks push it down relative to media frames
    /// with partial tails.
    pub fn video_payload_std(&self) -> f64 {
        if self.video_pkts == 0 {
            return 0.0;
        }
        let n = self.video_pkts as f64;
        let mean = self.video_payload_bytes as f64 / n;
        let var = (self.video_payload_sq / n - mean * mean).max(0.0);
        var.sqrt()
    }
}

/// Running moments of video inter-arrival gaps, folded in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GapMoments {
    /// Gaps folded.
    pub count: u64,
    /// Sum of the gaps, seconds.
    pub sum_s: f64,
    /// Sum of the squared gaps, s².
    pub sq_sum_s: f64,
}

impl GapMoments {
    fn add(&mut self, gap_s: f64) {
        self.count += 1;
        self.sum_s += gap_s;
        self.sq_sum_s += gap_s * gap_s;
    }

    /// Mean gap, seconds (0 without gaps).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Coefficient of variation (std/mean) of the gaps; 0 with fewer than
    /// two gaps. Steady paced media is low-CV, FEC-interleaved or bursty
    /// traffic is high-CV.
    pub fn cv(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.sum_s / self.count as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = (self.sq_sum_s / self.count as f64 - mean * mean).max(0.0);
        var.sqrt() / mean
    }
}

/// Replica of the receive-side freeze rule, fed with *inferred* frame
/// times instead of decoded frames.
#[derive(Debug, Clone)]
struct FreezeReplica {
    last_frame: Option<f64>,
    delta_s: f64,
    freeze_count: u64,
    freeze_time_s: f64,
}

impl FreezeReplica {
    fn new() -> Self {
        FreezeReplica {
            last_frame: None,
            delta_s: 1.0 / INITIAL_FPS,
            freeze_count: 0,
            freeze_time_s: 0.0,
        }
    }

    fn on_frame(&mut self, now_s: f64) {
        if let Some(last) = self.last_frame {
            let gap = (now_s - last).max(0.0);
            let threshold = (3.0 * self.delta_s).max(self.delta_s + FREEZE_OFFSET_S);
            if gap > threshold {
                self.freeze_count += 1;
                self.freeze_time_s += gap - self.delta_s;
            } else {
                self.delta_s = 0.95 * self.delta_s + 0.05 * gap;
            }
        }
        self.last_frame = Some(now_s);
    }
}

/// Single-pass windowed feature extractor for one tap.
///
/// Feed it events in simulation-time order (the [`Recorder`] contract),
/// then call [`Extractor::finish`] to flush and collect the windows. The
/// extractor holds O(1) state plus the completed windows — it never
/// buffers packets.
#[derive(Debug, Clone)]
pub struct Extractor {
    tap: TapSpec,
    done: Vec<WindowFeatures>,
    cur: WindowFeatures,
    frames: FrameSegmenter,
    // The whole tap's gap moments: summing the windows' would round
    // differently.
    iat: GapMoments,
    // Burst structure: current run of consecutive full-sized video
    // packets (runs may span window boundaries; each window records the
    // longest run value observed while it was current).
    burst_run: u64,
    // Rolling (video_mbps, full_fraction) of the last ROLL_WINDOWS
    // sealed windows, oldest first; feeds the lag/roll context fields.
    hist: std::collections::VecDeque<(f64, f64)>,
    // Inferred decode timeline.
    damaged: bool,
    frame_size_ema: f64,
    freeze: FreezeReplica,
}

impl Extractor {
    /// An extractor for `tap` with no events seen yet.
    pub fn new(tap: TapSpec) -> Self {
        Extractor {
            tap,
            done: Vec::new(),
            cur: WindowFeatures::empty(0),
            frames: FrameSegmenter::default(),
            iat: GapMoments::default(),
            burst_run: 0,
            hist: std::collections::VecDeque::new(),
            damaged: false,
            frame_size_ema: 0.0,
            freeze: FreezeReplica::new(),
        }
    }

    /// The tap this extractor watches.
    pub fn tap(&self) -> TapSpec {
        self.tap
    }

    /// Every window opened so far, in order from window 0: the sealed
    /// ones, then the current one.
    pub fn windows(&self) -> impl Iterator<Item = &WindowFeatures> {
        self.done.iter().chain(std::iter::once(&self.cur))
    }

    /// Moments of every video inter-arrival gap seen so far.
    pub fn iat(&self) -> GapMoments {
        self.iat
    }

    /// Flush the pending window and return every *complete* window in
    /// `[0, end)` (windows after the last event are emitted empty; a
    /// partial trailing window, when `end` is not on a second boundary,
    /// is discarded). A frame still pending at `end` never completed and
    /// is dropped, like an assembler discarding a partial frame.
    pub fn finish(mut self, end: SimTime) -> Vec<WindowFeatures> {
        let windows = window_of(end);
        self.roll_to(windows);
        // Events at or after `end` have sealed windows past it.
        self.done
            .truncate(usize::try_from(windows).unwrap_or(usize::MAX));
        self.done
    }

    /// A fresh window `w` with its lag/roll context filled from the
    /// sealed-window history (zeros when no window has sealed yet).
    fn new_window(&self, w: u64) -> WindowFeatures {
        let mut f = WindowFeatures::empty(w);
        if let Some(&(mbps, ff)) = self.hist.back() {
            f.lag1_video_mbps = mbps;
            f.lag1_full_fraction = ff;
        }
        if !self.hist.is_empty() {
            let n = self.hist.len() as f64;
            f.roll_video_mbps = self.hist.iter().map(|h| h.0).sum::<f64>() / n;
            f.roll_full_fraction = self.hist.iter().map(|h| h.1).sum::<f64>() / n;
        }
        f
    }

    /// Seal windows before `w` and make `w` current. Every sealed window
    /// (including empty gap windows) enters the lag history, so the
    /// context fields decay through silence exactly as an online
    /// observer would see it.
    fn roll_to(&mut self, w: u64) {
        while self.cur.window < w {
            if self.hist.len() == ROLL_WINDOWS {
                self.hist.pop_front();
            }
            self.hist
                .push_back((self.cur.video_mbps(), self.cur.full_fraction()));
            let next = self.new_window(self.cur.window + 1);
            self.done.push(std::mem::replace(&mut self.cur, next));
        }
    }

    /// Fold one packet event into the windows, if the tap can see it.
    pub fn observe(&mut self, p: PacketObs) {
        match self.tap.sees(&p) {
            Some(Sighting::Crossed) => self.observe_packet(p.at, p.bytes),
            Some(Sighting::DroppedHere) => {
                self.observe_packet(p.at, p.bytes);
                self.cur.drops += 1;
            }
            // A video loss is modeled as decode damage.
            Some(Sighting::Lost) if p.bytes >= VIDEO_MIN_WIRE => {
                self.roll_to(window_of(p.at));
                self.cur.drops += 1;
                self.damaged = true;
            }
            _ => {}
        }
    }

    /// One packet crossed the tap at `at` with `bytes` on the wire.
    fn observe_packet(&mut self, at: SimTime, bytes: u64) {
        let seg = self.frames.on_packet(at.as_secs_f64(), bytes);
        // A gap-closed frame is attributed to the window that was current
        // before this packet (its true end lies at the last video packet).
        if let Some(frame) = seg.stale {
            self.complete_frame(frame);
        }
        self.roll_to(window_of(at));
        self.cur.wire_bytes += bytes;
        let Some(video) = seg.video else {
            self.cur.small_pkts += 1;
            return;
        };
        // The inter-arrival gap belongs to the window of the later packet.
        if let Some(gap) = video.gap_s {
            self.cur.iat.add(gap);
            self.iat.add(gap);
        }
        self.cur.video_pkts += 1;
        self.cur.video_payload_bytes += video.payload;
        self.cur.video_payload_sq += (video.payload as f64) * (video.payload as f64);
        match video.frame {
            None => {
                self.cur.full_pkts += 1;
                self.burst_run += 1;
                self.cur.burst_max = self.cur.burst_max.max(self.burst_run);
            }
            // A frame boundary ends any full-packet burst (audio
            // interleaving does not).
            Some(frame) => {
                self.burst_run = 0;
                self.complete_frame(frame);
            }
        }
    }

    /// A frame boundary was inferred.
    fn complete_frame(&mut self, frame: Frame) {
        let bytes = frame.payload as f64;
        self.cur.frames += 1;
        let ema = self.frame_size_ema;
        let keyframe_sized = ema > 0.0 && bytes > KEYFRAME_FACTOR * ema;
        self.frame_size_ema = if ema > 0.0 {
            (1.0 - FRAME_EMA_ALPHA) * ema + FRAME_EMA_ALPHA * bytes
        } else {
            bytes
        };
        if self.damaged && !keyframe_sized {
            // Presumed undecodable: the reference chain is broken and
            // this frame is not big enough to be the recovery keyframe.
            return;
        }
        self.damaged = false;
        self.cur.frames_decodable += 1;
        let before = (self.freeze.freeze_count, self.freeze.freeze_time_s);
        self.freeze.on_frame(frame.end_s);
        self.cur.freeze_count += self.freeze.freeze_count - before.0;
        self.cur.freeze_time_s += self.freeze.freeze_time_s - before.1;
    }
}

impl Recorder for Extractor {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        if let Some(p) = PacketObs::decode(at, &kind) {
            self.observe(p);
        }
    }
}

/// A bank of extractors sharing one event stream: the [`Recorder`] to
/// attach when a run feeds several taps at once.
#[derive(Debug, Clone, Default)]
pub struct TapBank {
    extractors: Vec<Extractor>,
}

impl TapBank {
    /// One extractor per tap.
    pub fn new(taps: &[TapSpec]) -> Self {
        TapBank {
            extractors: taps.iter().map(|&t| Extractor::new(t)).collect(),
        }
    }

    /// The extractors, in tap order.
    pub fn extractors(&self) -> &[Extractor] {
        &self.extractors
    }

    /// Finish every extractor, returning window vectors in tap order.
    pub fn finish(self, end: SimTime) -> Vec<Vec<WindowFeatures>> {
        self.extractors.into_iter().map(|e| e.finish(end)).collect()
    }
}

impl Recorder for TapBank {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        if let Some(p) = PacketObs::decode(at, &kind) {
            for e in &mut self.extractors {
                e.observe(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::tests::{deq, drop, enq};
    use crate::flow::{Vantage, AUDIO_WIRE, FULL_WIRE, HEADER_BYTES};

    fn recv_tap() -> TapSpec {
        TapSpec {
            link: 1,
            flow: 11,
            vantage: Vantage::Recv,
        }
    }

    /// Send a frame of `full` full packets plus one sub-full tail.
    fn frame(ex: &mut Extractor, at_ms: u64, full: usize) {
        for i in 0..full {
            ex.record(
                SimTime::from_millis(at_ms) + vcabench_simcore::SimDuration::from_micros(i as u64),
                deq(1, 11, FULL_WIRE),
            );
        }
        ex.record(
            SimTime::from_millis(at_ms) + vcabench_simcore::SimDuration::from_micros(full as u64),
            deq(1, 11, 500),
        );
    }

    #[test]
    fn marker_packets_delimit_frames() {
        let mut ex = Extractor::new(recv_tap());
        for i in 0..30u64 {
            frame(&mut ex, 33 * i, 2);
        }
        let w = ex.finish(SimTime::from_secs(1));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].frames, 30);
        assert_eq!(w[0].frames_decodable, 30);
        assert_eq!(w[0].video_pkts, 90);
        assert_eq!(w[0].full_pkts, 60);
        assert_eq!(
            w[0].video_payload_bytes,
            60 * (FULL_WIRE - HEADER_BYTES) + 30 * (500 - HEADER_BYTES)
        );
        assert_eq!(w[0].freeze_count, 0);
    }

    #[test]
    fn a_gap_closed_frame_counts_and_a_pending_one_is_discarded() {
        let mut ex = Extractor::new(recv_tap());
        ex.record(SimTime::from_millis(900), deq(1, 11, FULL_WIRE));
        // Far beyond the close gap, in the next window: the frame is
        // attributed to the window that was current when it was closed.
        ex.record(SimTime::from_millis(1200), deq(1, 11, AUDIO_WIRE));
        // A frame still pending at the end of the run never completed.
        ex.record(SimTime::from_millis(1900), deq(1, 11, FULL_WIRE));
        let w = ex.finish(SimTime::from_secs(2));
        assert_eq!((w[0].frames, w[1].frames), (1, 0));
        assert_eq!(w[1].video_pkts, 1, "bytes still counted");
    }

    #[test]
    fn windows_roll_and_gaps_emit_empty_windows() {
        let mut ex = Extractor::new(recv_tap());
        frame(&mut ex, 500, 1); // window 0
        frame(&mut ex, 3200, 1); // window 3
        let w = ex.finish(SimTime::from_secs(5));
        assert_eq!(w.len(), 5);
        let frames: Vec<u64> = w.iter().map(|w| w.frames).collect();
        assert_eq!(frames, vec![1, 0, 0, 1, 0]);
        let idx: Vec<u64> = w.iter().map(|w| w.window).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn small_packets_never_enter_video_features() {
        let mut ex = Extractor::new(recv_tap());
        for i in 0..50u64 {
            ex.record(SimTime::from_millis(20 * i), deq(1, 11, AUDIO_WIRE));
            ex.record(SimTime::from_millis(20 * i + 1), deq(1, 11, 96));
        }
        let w = ex.finish(SimTime::from_secs(1));
        assert_eq!(w[0].small_pkts, 100);
        assert_eq!(w[0].video_pkts, 0);
        assert_eq!(w[0].frames, 0);
        assert_eq!(w[0].wire_bytes, 50 * (AUDIO_WIRE + 96));
    }

    #[test]
    fn drops_count_as_emitted_upstream_and_as_damage_downstream() {
        // Pre-queue: a packet dropped at the tap link was still emitted.
        let mut ex = Extractor::new(TapSpec {
            link: 0,
            flow: 10,
            vantage: Vantage::Send,
        });
        ex.record(SimTime::from_millis(1), enq(0, 10, FULL_WIRE));
        ex.record(SimTime::from_millis(2), drop(0, 10, FULL_WIRE));
        ex.record(SimTime::from_millis(3), drop(4, 10, FULL_WIRE)); // not at the tap
        let w = ex.finish(SimTime::from_secs(1));
        assert_eq!((w[0].video_pkts, w[0].drops), (2, 1));
        // Post-queue: only a video-sized loss damages the decode timeline,
        // and the lost packet itself is never counted as seen.
        let mut ex = Extractor::new(recv_tap());
        ex.record(SimTime::from_millis(1), drop(0, 11, AUDIO_WIRE));
        frame(&mut ex, 10, 1);
        ex.record(SimTime::from_millis(20), drop(0, 11, FULL_WIRE));
        frame(&mut ex, 43, 1);
        let w = ex.finish(SimTime::from_secs(1));
        assert_eq!((w[0].drops, w[0].video_pkts), (1, 4));
        assert_eq!((w[0].frames, w[0].frames_decodable), (2, 1));
    }

    #[test]
    fn finish_never_yields_a_window_at_or_after_end() {
        let mut ex = Extractor::new(recv_tap());
        frame(&mut ex, 500, 1);
        frame(&mut ex, 7300, 1);
        for end_ms in [0, 999, 1000, 2500, 7000, 7999] {
            let w = ex.clone().finish(SimTime::from_millis(end_ms));
            assert_eq!(w.len() as u64, end_ms / 1000, "end {end_ms} ms");
            assert!(w.iter().all(|f| f.window < end_ms / 1000));
        }
        assert_eq!(ex.finish(SimTime::from_secs(9)).len(), 9);
    }

    #[test]
    fn freeze_replica_flags_a_long_gap_and_damage_defers_recovery() {
        // Steady 30 fps for half a second, then silence, then recovery.
        let mut ex = Extractor::new(recv_tap());
        for i in 0..15u64 {
            frame(&mut ex, 33 * i, 1);
        }
        // Last frame at 462 ms; the 1.238 s gap >> max(3δ, δ+150ms) ≈ 183 ms.
        frame(&mut ex, 1700, 1);
        let w = ex.finish(SimTime::from_secs(2));
        assert_eq!(w.iter().map(|w| w.freeze_count).sum::<u64>(), 1);
        let ft: f64 = w.iter().map(|w| w.freeze_time_s).sum();
        assert!((ft - (1.238 - 0.033)).abs() < 0.02, "freeze time {ft}");
        // The freeze lands in the window of the recovery frame.
        assert_eq!(w[1].freeze_count, 1);

        // With a drop in between, ordinary frames do not advance the
        // timeline; only a keyframe-sized frame ends the damage, and the
        // whole damaged span counts as one freeze gap.
        let mut ex = Extractor::new(recv_tap());
        for i in 0..15u64 {
            frame(&mut ex, 33 * i, 1);
        }
        ex.record(SimTime::from_millis(500), drop(1, 11, FULL_WIRE));
        for i in 0..30u64 {
            frame(&mut ex, 520 + 33 * i, 1); // damaged: same size as before
        }
        frame(&mut ex, 1700, 8); // keyframe-sized: recovery
        let w = ex.finish(SimTime::from_secs(2));
        assert_eq!(w.iter().map(|w| w.freeze_count).sum::<u64>(), 1);
        assert_eq!(
            w.iter().map(|w| w.frames_decodable).sum::<u64>(),
            15 + 1,
            "damaged frames excluded from the decode timeline"
        );
        assert!(w.iter().map(|w| w.frames).sum::<u64>() > 40);
    }

    #[test]
    fn second_order_accumulators_track_iat_size_and_bursts() {
        let mut ex = Extractor::new(recv_tap());
        for i in 0..30u64 {
            frame(&mut ex, 33 * i, 2);
        }
        let w = ex.finish(SimTime::from_secs(1));
        let f = &w[0];
        // 90 video packets → 89 inter-arrival gaps, all in window 0.
        assert_eq!(f.iat.count, 89);
        assert!(f.iat.mean_s() > 0.0);
        assert!(f.iat.cv() > 0.0, "back-to-back vs 33 ms gaps vary");
        // Each frame is 2 full packets + 1 partial tail: the longest
        // full-packet run is 2 (the tail resets it).
        assert_eq!(f.burst_max, 2);
        // Payload sizes are bimodal (full vs tail) → std well above 0.
        assert!(f.video_payload_std() > 100.0, "{}", f.video_payload_std());
        // And the exact second moment matches the hand sum.
        let full_p = (FULL_WIRE - HEADER_BYTES) as f64;
        let tail_p = (500 - HEADER_BYTES) as f64;
        let expect = 60.0 * full_p * full_p + 30.0 * tail_p * tail_p;
        assert!((f.video_payload_sq - expect).abs() < 1e-6);
    }

    #[test]
    fn lag_and_rolling_context_reflect_sealed_history() {
        let mut ex = Extractor::new(recv_tap());
        // Window 0: busy. Window 1: silent. Window 2: one frame.
        for i in 0..30u64 {
            frame(&mut ex, 33 * i, 2);
        }
        frame(&mut ex, 2500, 2);
        let w = ex.finish(SimTime::from_secs(4));
        assert_eq!(w.len(), 4);
        let w0 = w[0].video_mbps();
        assert!(w0 > 0.0);
        assert_eq!(w[0].lag1_video_mbps, 0.0, "no history before window 0");
        assert_eq!(w[0].roll_full_fraction, 0.0);
        assert!((w[1].lag1_video_mbps - w0).abs() < 1e-12);
        assert!((w[1].roll_video_mbps - w0).abs() < 1e-12);
        // Window 2's context: lag1 sees the silent window 1, the rolling
        // mean averages windows {0, 1}.
        assert_eq!(w[2].lag1_video_mbps, 0.0);
        assert!((w[2].roll_video_mbps - w0 / 2.0).abs() < 1e-12);
        // Window 3 averages windows {0, 1, 2}.
        let w2 = w[2].video_mbps();
        assert!((w[3].roll_video_mbps - (w0 + w2) / 3.0).abs() < 1e-12);
        assert!((w[3].lag1_video_mbps - w2).abs() < 1e-12);
    }

    #[test]
    fn extractor_state_is_single_pass_and_order_insensitive_to_windows() {
        // The same stream fed in one go equals two extractors' worth of
        // identical prefixes — i.e. no hidden global passes.
        let mut a = Extractor::new(recv_tap());
        let mut b = Extractor::new(recv_tap());
        for i in 0..90u64 {
            frame(&mut a, 33 * i, 2);
            frame(&mut b, 33 * i, 2);
        }
        assert_eq!(
            a.finish(SimTime::from_secs(3)),
            b.finish(SimTime::from_secs(3))
        );
    }
}
