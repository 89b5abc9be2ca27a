//! Differential test of the fingerprint path against the fold it replaced.
//!
//! Until fingerprints were summed from the inference extractor's windows,
//! each tap was folded a second time by `FlowAccumulator`, with its own
//! frame segmenter, byte and packet counts, gap moments and one byte
//! bucket per second. That fold lives on here, verbatim, as the oracle:
//! over generated tap streams, [`FingerprintBank`] (and so
//! [`fingerprints`] over a `TapBank`, which `passive_suite` reads) must
//! return the oracle's [`FlowFingerprint`]s bit for bit. The streams hold
//! what separates a sum of windows from a call-level fold: packets at
//! exactly `end` and after the last whole second, drops at the tap
//! (`DroppedHere`) and elsewhere on the flow (`Lost`), video silences
//! longer than `FRAME_CLOSE_GAP_S`, audio-only and silent seconds, and
//! empty runs.
//!
//! Each of these mutations of `crates/fingerprint/src/features.rs` makes
//! the property fail:
//!
//! - dropping the tail window (summing only the windows sealed before the
//!   last one, or only the complete seconds before `end`);
//! - taking `iat_cv` from the windows' summed gap moments instead of the
//!   tap's, folded once in arrival order;
//! - taking `rate_cv` over the tail window as well (`secs + 1` seconds).
//!
//! Deep run: `PROPTEST_CASES=4096 cargo test -p vcabench-fingerprint --test
//! fingerprint_oracle`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use vcabench_fingerprint::{fingerprints, FingerprintBank, FlowFingerprint};
use vcabench_infer::flow::{
    window_of, FrameSegmenter, PacketObs, Sighting, TapSpec, Vantage, AUDIO_WIRE,
    FRAME_CLOSE_GAP_S, FULL_WIRE, VIDEO_MIN_WIRE,
};
use vcabench_infer::TapBank;
use vcabench_simcore::SimTime;
use vcabench_telemetry::{EventKind, Recorder};

/// Single-pass fingerprint accumulator for one tap.
///
/// Feed it events in simulation-time order (the [`Recorder`] contract),
/// then call [`FlowAccumulator::finish`]. State is O(1) plus one byte
/// bucket per observed second — no packets are buffered.
#[derive(Debug, Clone)]
pub struct FlowAccumulator {
    tap: TapSpec,
    wire_bytes: u64,
    video_payload_bytes: u64,
    video_pkts: u64,
    full_pkts: u64,
    small_pkts: u64,
    frames: u64,
    segmenter: FrameSegmenter,
    // Inter-arrival accumulators over video packets.
    iat_n: u64,
    iat_sum: f64,
    iat_sumsq: f64,
    // Per-second video payload buckets (rate-oscillation signature).
    sec_bytes: Vec<u64>,
}

impl FlowAccumulator {
    /// An accumulator for `tap` with no events seen yet.
    pub fn new(tap: TapSpec) -> Self {
        FlowAccumulator {
            tap,
            wire_bytes: 0,
            video_payload_bytes: 0,
            video_pkts: 0,
            full_pkts: 0,
            small_pkts: 0,
            frames: 0,
            segmenter: FrameSegmenter::default(),
            iat_n: 0,
            iat_sum: 0.0,
            iat_sumsq: 0.0,
            sec_bytes: Vec::new(),
        }
    }

    /// The tap this accumulator watches.
    pub fn tap(&self) -> TapSpec {
        self.tap
    }

    /// Fold one packet event into the fingerprint, if it crossed the tap
    /// (a loss elsewhere on the flow leaves no mark on a fingerprint).
    pub fn observe(&mut self, p: PacketObs) {
        let Some(Sighting::Crossed | Sighting::DroppedHere) = self.tap.sees(&p) else {
            return;
        };
        let seg = self.segmenter.on_packet(p.at.as_secs_f64(), p.bytes);
        self.frames += u64::from(seg.stale.is_some());
        self.wire_bytes += p.bytes;
        let Some(video) = seg.video else {
            self.small_pkts += 1;
            return;
        };
        self.video_pkts += 1;
        self.video_payload_bytes += video.payload;
        let sec = window_of(p.at) as usize;
        if sec >= self.sec_bytes.len() {
            self.sec_bytes.resize(sec + 1, 0);
        }
        self.sec_bytes[sec] += video.payload;
        if let Some(dt) = video.gap_s {
            self.iat_n += 1;
            self.iat_sum += dt;
            self.iat_sumsq += dt * dt;
        }
        match video.frame {
            None => self.full_pkts += 1,
            Some(_) => self.frames += 1,
        }
    }

    /// Seal the accumulator into a [`FlowFingerprint`] covering `[0, end)`.
    /// A frame still pending at `end` never completed and is dropped.
    pub fn finish(self, end: SimTime) -> FlowFingerprint {
        let duration_s = end.as_secs_f64();
        let iat_cv = if self.iat_n == 0 {
            0.0
        } else {
            let n = self.iat_n as f64;
            let mean = self.iat_sum / n;
            let var = (self.iat_sumsq / n - mean * mean).max(0.0);
            if mean > 0.0 {
                var.sqrt() / mean
            } else {
                0.0
            }
        };
        // Temporal CV over every *complete* second in [0, end): pad the
        // buckets with zeros out to the span so silence counts.
        let secs = window_of(end);
        let rate_cv = if secs == 0 {
            0.0
        } else {
            let n = secs as f64;
            let total: u64 = self.sec_bytes.iter().take(secs as usize).sum();
            let mean = total as f64 / n;
            if mean <= 0.0 {
                0.0
            } else {
                let sumsq: f64 = (0..secs as usize)
                    .map(|i| {
                        let b = self.sec_bytes.get(i).copied().unwrap_or(0) as f64;
                        (b - mean) * (b - mean)
                    })
                    .sum();
                (sumsq / n).sqrt() / mean
            }
        };
        FlowFingerprint {
            tap: self.tap,
            duration_s,
            wire_bytes: self.wire_bytes,
            video_payload_bytes: self.video_payload_bytes,
            video_pkts: self.video_pkts,
            full_pkts: self.full_pkts,
            small_pkts: self.small_pkts,
            frames: self.frames,
            iat_cv,
            rate_cv,
        }
    }
}

impl Recorder for FlowAccumulator {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        if let Some(p) = PacketObs::decode(at, &kind) {
            self.observe(p);
        }
    }
}

/// A coin that lands heads once in `n` throws.
fn one_in(rng: &mut TestRng, n: usize) -> bool {
    rng.usize_in(0, n) == 0
}

/// A draw from `lo..=hi`.
fn between(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

/// The two taps every stream is watched from: C1's uplink before the
/// queue and its downlink after it.
const TAPS: [TapSpec; 2] = [
    TapSpec {
        link: 0,
        flow: 10,
        vantage: Vantage::Send,
    },
    TapSpec {
        link: 1,
        flow: 11,
        vantage: Vantage::Recv,
    },
];

/// One packet event of the stream's flows (`10`, `11`, and a foreign `12`)
/// on one of its links (`0`, `1`, or a core link `4`).
fn packet(rng: &mut TestRng, bytes: u64) -> EventKind {
    let flow = [10, 11, 11, 10, 12][rng.usize_in(0, 5)];
    // Mostly the flow's own tap link; sometimes another link on its path.
    let home = flow - 10;
    let link = if one_in(rng, 6) {
        [0, 1, 4][rng.usize_in(0, 3)]
    } else {
        home
    };
    let pkt = 0;
    match rng.usize_in(0, 12) {
        0 | 1 => EventKind::PacketDropped {
            link,
            flow,
            pkt,
            bytes,
            queue_bytes: 0,
            reason: "queue_full",
        },
        2..=6 => EventKind::PacketEnqueued {
            link,
            flow,
            pkt,
            bytes,
            queue_bytes: 0,
            queue_pkts: 0,
        },
        _ => EventKind::PacketDequeued {
            link,
            flow,
            pkt,
            bytes,
            queue_bytes: 0,
        },
    }
}

/// A wire size: full-sized (or larger) video, a frame's partial tail, or
/// audio / control.
fn wire_size(rng: &mut TestRng, video: bool) -> u64 {
    if !video {
        return between(rng, 60, AUDIO_WIRE);
    }
    match rng.usize_in(0, 10) {
        0..=5 => FULL_WIRE,
        6 => between(rng, FULL_WIRE, 1500),
        _ => between(rng, VIDEO_MIN_WIRE, FULL_WIRE - 1),
    }
}

/// A generated run: its end and its events, in time order. Each second
/// carries video and audio, audio only, video only, or nothing; video
/// pauses longer than `FRAME_CLOSE_GAP_S` strand full-sized tails; some
/// runs end off a second boundary, some have packets at exactly `end`
/// (the engine processes `t = end`) and a few after it; some are empty.
fn stream(rng: &mut TestRng) -> (SimTime, Vec<(SimTime, EventKind)>) {
    let whole = rng.usize_in(0, 7) as u64;
    let past_whole = if one_in(rng, 2) {
        0
    } else {
        between(rng, 1, 999_999)
    };
    let end_us = whole * 1_000_000 + past_whole;
    let mut events = Vec::new();
    if one_in(rng, 10) {
        return (SimTime::from_micros(end_us), events);
    }
    let close_gap_us = (FRAME_CLOSE_GAP_S * 1e6) as u64;
    let mut t = 0;
    for second in 0..=whole {
        let (video, audio) = match rng.usize_in(0, 6) {
            0 => (false, true),
            1 => (true, false),
            2 => (false, false),
            _ => (true, true),
        };
        t = t.max(second * 1_000_000);
        let stop = ((second + 1) * 1_000_000).min(end_us);
        while (video || audio) && t < stop {
            let video_now = video && (!audio || !one_in(rng, 4));
            let bytes = wire_size(rng, video_now);
            events.push((SimTime::from_micros(t), packet(rng, bytes)));
            t += match rng.usize_in(0, 20) {
                0 => close_gap_us + between(rng, 1, 400_000),
                1..=8 => between(rng, 0, 300),
                _ => between(rng, 2_000, 40_000),
            };
        }
    }
    if one_in(rng, 2) {
        for _ in 0..rng.usize_in(1, 4) {
            let video = one_in(rng, 2);
            let bytes = wire_size(rng, video);
            events.push((SimTime::from_micros(end_us), packet(rng, bytes)));
        }
    }
    if one_in(rng, 8) {
        let after = end_us + between(rng, 1, 1_500_000);
        let bytes = wire_size(rng, true);
        events.push((SimTime::from_micros(after), packet(rng, bytes)));
    }
    (SimTime::from_micros(end_us), events)
}

/// Bit-exact equality: `Debug` prints each float's shortest round-trip
/// spelling, sign of zero included.
fn bits(fps: &[FlowFingerprint]) -> String {
    format!("{fps:?}")
}

proptest! {
    #[test]
    fn summed_windows_equal_the_call_level_fold(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (end, events) = stream(&mut rng);
        let mut bank = FingerprintBank::new(&TAPS);
        let mut taps = TapBank::new(&TAPS);
        let mut oracle = TAPS.map(FlowAccumulator::new);
        for (at, kind) in &events {
            bank.record(*at, kind.clone());
            taps.record(*at, kind.clone());
            for acc in &mut oracle {
                acc.record(*at, kind.clone());
            }
        }
        let want = oracle.map(|acc| acc.finish(end));
        prop_assert_eq!(bits(&fingerprints(&taps, end)), bits(&want));
        prop_assert_eq!(bits(&bank.finish(end)), bits(&want));
    }
}

/// The generator reaches every case the property is about.
#[test]
fn the_streams_hold_every_case_the_oracle_must_see() {
    let mut rng = TestRng::seed_from_u64(50);
    let mut seen = [0usize; 8];
    for _ in 0..256 {
        let (end, events) = stream(&mut rng);
        let last_second = SimTime::from_secs(window_of(end));
        let mut holds = [
            events.is_empty(),
            events.iter().any(|(at, _)| *at == end),
            events.iter().any(|(at, _)| *at > end),
            end > last_second && events.iter().any(|(at, _)| *at >= last_second),
            false,
            false,
            false,
            false,
        ];
        for tap in TAPS {
            let sighted = |(at, kind): &(SimTime, EventKind)| {
                let p = PacketObs::decode(*at, kind)?;
                Some((p, tap.sees(&p)?))
            };
            let sightings: Vec<(PacketObs, Sighting)> = events.iter().filter_map(sighted).collect();
            let crossed: Vec<&PacketObs> = sightings
                .iter()
                .filter(|(_, s)| *s != Sighting::Lost)
                .map(|(p, _)| p)
                .collect();
            let video: Vec<&&PacketObs> = crossed
                .iter()
                .filter(|p| p.bytes >= VIDEO_MIN_WIRE)
                .collect();
            let silent = |w: &[&&PacketObs]| {
                w[1].at.as_secs_f64() - w[0].at.as_secs_f64() > FRAME_CLOSE_GAP_S
            };
            let audio_only = |w: u64| {
                let mut second = crossed.iter().filter(|p| window_of(p.at) == w).peekable();
                second.peek().is_some() && second.all(|p| p.bytes < VIDEO_MIN_WIRE)
            };
            holds[4] |= sightings.iter().any(|(_, s)| *s == Sighting::DroppedHere);
            holds[5] |= sightings.iter().any(|(_, s)| *s == Sighting::Lost);
            holds[6] |= video.windows(2).any(silent);
            holds[7] |= (0..window_of(end)).any(audio_only);
        }
        for (n, held) in seen.iter_mut().zip(holds) {
            *n += usize::from(held);
        }
    }
    let cases = [
        "empty runs",
        "packets at exactly `end`",
        "packets after `end`",
        "packets after the last whole second",
        "`DroppedHere` sightings",
        "`Lost` sightings",
        "video silences over FRAME_CLOSE_GAP_S",
        "audio-only seconds",
    ];
    for (case, n) in cases.iter().zip(seen) {
        assert!(n >= 10, "{n} of 256 streams hold {case}");
    }
}
