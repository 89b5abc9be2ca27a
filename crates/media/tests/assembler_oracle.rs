//! Differential test: the frame assembler against the `BTreeMap`
//! implementation it replaced, kept verbatim below as the oracle.
//!
//! [`FrameAssembler`] keeps its partial frames in a `Vec` that keeps its
//! capacity, finds a frame from the newest end and expires stale frames
//! with one `retain`. None of that may change what a receiver decodes.
//! Proptest drives both through the same packet stream — frames
//! interleaved, packets lost and duplicated, frame ids skipped (odd and
//! even), keyframes and time jumps past the stale limit — and after every
//! packet the two must agree on the event returned, `frames_decoded`,
//! `frames_dropped`, `needs_keyframe` and `pending_frames()`. The product
//! assembler has one gap rule, the thinning-aware one, so the oracle runs
//! with `with_temporal_thinning()`.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use vcabench_media::{AssembleEvent, FrameAssembler};
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_transport::rtp::{FrameMeta, Layer, RtpPacket, StreamKind};

/// One step of a packet stream. `pick` indexes the frames in play, counted
/// from the newest, so a non-zero pick interleaves.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The sender starts a frame `skip` ids past the last one.
    Frame {
        skip: u64,
        pkts: u16,
        keyframe: bool,
    },
    /// The next packet of a frame arrives (a repeat of its last packet
    /// once all have been sent).
    Deliver {
        pick: usize,
        after_ms: u64,
        bytes: usize,
        meta: bool,
    },
    /// The next packet of a frame is lost.
    Lose { pick: usize },
    /// A packet of a frame arrives a second time.
    Duplicate { pick: usize },
    /// Nothing arrives for longer than the stale limit.
    Jump { ms: u64 },
}

fn decode(raw: u64) -> Op {
    let arg = raw >> 8;
    let pick = (arg % 4) as usize;
    match raw % 32 {
        0..=7 => Op::Frame {
            skip: [0, 0, 0, 0, 1, 1, 2, 3][(arg % 8) as usize],
            pkts: 1 + (arg >> 3) as u16 % 5,
            keyframe: (arg >> 6).is_multiple_of(6),
        },
        8..=22 => Op::Deliver {
            pick,
            after_ms: (arg >> 2) % 40,
            bytes: 200 + ((arg >> 8) % 1000) as usize,
            meta: !(arg >> 20).is_multiple_of(8),
        },
        23..=26 => Op::Lose { pick },
        27..=29 => Op::Duplicate { pick },
        _ => Op::Jump {
            ms: 1_900 + arg % 1_600,
        },
    }
}

/// A frame the sender has started.
#[derive(Debug, Clone, Copy)]
struct Frame {
    id: u64,
    pkts: u16,
    keyframe: bool,
    /// Packets sent or lost so far.
    next: u16,
}

/// The assembler next to its oracle, fed the same packets.
struct Pair {
    new: FrameAssembler,
    old: oracle::FrameAssembler,
    now: SimTime,
    /// Frames in play, oldest first; at most `IN_PLAY`.
    frames: Vec<Frame>,
    next_id: u64,
    seq: u64,
    /// Packets whose one call dropped two or more frames at once (only
    /// stale expiry does that).
    multi_drops: u64,
    /// Delta frames decoded right after a skipped id.
    gaps_bridged: u64,
    last_complete: Option<u64>,
}

const IN_PLAY: usize = 6;

impl Pair {
    fn new() -> Self {
        Pair {
            new: FrameAssembler::new(),
            old: oracle::FrameAssembler::new().with_temporal_thinning(),
            now: SimTime::ZERO,
            frames: Vec::new(),
            next_id: 0,
            seq: 0,
            multi_drops: 0,
            gaps_bridged: 0,
            last_complete: None,
        }
    }

    fn pick(&mut self, pick: usize) -> Option<&mut Frame> {
        let n = self.frames.len();
        (n > 0).then(|| &mut self.frames[n - 1 - pick % n])
    }

    /// Feed packet `idx` of `frame` to both assemblers.
    fn feed(
        &mut self,
        frame: Frame,
        idx: u16,
        bytes: usize,
        meta: bool,
    ) -> Result<(), TestCaseError> {
        let pkt = RtpPacket {
            ssrc: 7,
            seq: self.seq,
            kind: StreamKind::Video,
            layer: Layer::default(),
            frame_id: frame.id,
            marker: idx + 1 == frame.pkts,
            frame_pkts: frame.pkts,
            is_fec: false,
            is_retransmit: false,
            capture_ts: self.now,
            meta: meta.then_some(FrameMeta {
                width: 640,
                height: 360,
                fps: 30.0,
                qp: 30.0,
                keyframe: frame.keyframe,
            }),
        };
        self.seq += 1;
        let dropped = self.old.frames_dropped;
        let got = self.new.on_packet(self.now, &pkt, bytes);
        let want = self.old.on_packet(self.now, &pkt, bytes);
        prop_assert_eq!(got, want, "frame {} packet {}", frame.id, idx);
        self.multi_drops += (self.old.frames_dropped >= dropped + 2) as u64;
        if let AssembleEvent::FrameComplete {
            frame_id, keyframe, ..
        } = want
        {
            let skipped = self.last_complete.is_some_and(|last| frame_id > last + 1);
            if skipped && !keyframe {
                self.gaps_bridged += 1;
            }
            self.last_complete = Some(frame_id);
        }
        self.agree()
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Frame {
                skip,
                pkts,
                keyframe,
            } => {
                let id = self.next_id + skip;
                self.next_id = id + 1;
                if self.frames.len() == IN_PLAY {
                    self.frames.remove(0);
                }
                self.frames.push(Frame {
                    id,
                    pkts,
                    keyframe,
                    next: 0,
                });
            }
            Op::Deliver {
                pick,
                after_ms,
                bytes,
                meta,
            } => {
                self.now += SimDuration::from_millis(after_ms);
                if let Some(f) = self.pick(pick) {
                    let idx = f.next.min(f.pkts - 1);
                    f.next = (f.next + 1).min(f.pkts);
                    let frame = *f;
                    self.feed(frame, idx, bytes, meta)?;
                }
            }
            Op::Lose { pick } => {
                if let Some(f) = self.pick(pick) {
                    f.next = (f.next + 1).min(f.pkts);
                }
            }
            Op::Duplicate { pick } => {
                if let Some(f) = self.pick(pick) {
                    let frame = *f;
                    self.feed(frame, frame.next.saturating_sub(1), 500, true)?;
                }
            }
            Op::Jump { ms } => self.now += SimDuration::from_millis(ms),
        }
        Ok(())
    }

    /// Everything observable about the two assemblers agrees.
    fn agree(&self) -> Result<(), TestCaseError> {
        let (new, old) = (&self.new, &self.old);
        prop_assert_eq!(new.frames_decoded, old.frames_decoded, "frames_decoded");
        prop_assert_eq!(new.frames_dropped, old.frames_dropped, "frames_dropped");
        prop_assert_eq!(new.needs_keyframe, old.needs_keyframe, "needs_keyframe");
        prop_assert_eq!(new.pending_frames(), old.pending_frames(), "pending_frames");
        Ok(())
    }
}

/// The stream a draw describes: `kind` sizes the first keyframe, `raw_ops`
/// the steps after it is started.
fn drawn(kind: u64, raw_ops: &[u64]) -> Result<Pair, TestCaseError> {
    let mut pair = Pair::new();
    let first = Op::Frame {
        skip: 0,
        pkts: 1 + (kind >> 1) as u16 % 5,
        keyframe: true,
    };
    for op in std::iter::once(first).chain(raw_ops.iter().map(|&r| decode(r))) {
        pair.apply(op)?;
    }
    Ok(pair)
}

/// The property's draws reach every path it claims to cover, so a passing
/// run says something about each.
#[test]
fn the_drawn_streams_reach_every_assembler_path() {
    let ops = proptest::collection::vec(any::<u64>(), 1..400);
    let mut rng = TestRng::seed_from_u64(41);
    let (mut decoded, mut dropped, mut multi, mut bridged) = (0, 0, 0, 0);
    for _ in 0..64 {
        let kind = any::<u64>().generate(&mut rng);
        let pair = drawn(kind, &ops.generate(&mut rng)).expect("agrees");
        decoded += pair.old.frames_decoded;
        dropped += pair.old.frames_dropped;
        multi += pair.multi_drops;
        bridged += pair.gaps_bridged;
    }
    assert!(
        decoded > 0 && dropped > 0,
        "{decoded} decoded, {dropped} dropped"
    );
    assert!(multi > 0, "no packet expired two stale frames at once");
    assert!(bridged > 0, "no stream decoded a delta across a skipped id");
}

proptest! {
    #[test]
    fn assembler_matches_the_btreemap_oracle(
        kind in any::<u64>(),
        raw_ops in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        drawn(kind, &raw_ops)?;
    }
}

/// The assembler as it was before the `Vec` of partial frames, verbatim
/// but for this module's imports.
#[allow(dead_code)]
mod oracle {
    use std::collections::BTreeMap;

    use vcabench_media::AssembleEvent;
    use vcabench_simcore::{SimDuration, SimTime};
    use vcabench_transport::rtp::RtpPacket;

    #[derive(Debug, Clone, Default)]
    struct PartialFrame {
        received: u16,
        expected: u16,
        bytes: usize,
        keyframe: bool,
        first_seen: SimTime,
    }

    /// Reassembles RTP packets into frames and tracks decodability.
    ///
    /// The decoder model: delta frames decode only if the decoder is in sync
    /// (no reference frame was skipped); a completed keyframe always restores
    /// sync. Losing any packet of a frame makes that frame undecodable.
    #[derive(Debug, Clone)]
    pub struct FrameAssembler {
        partial: BTreeMap<u64, PartialFrame>,
        /// Highest frame id fully decoded.
        last_decoded: Option<u64>,
        /// Decoder lost its reference chain and needs a keyframe.
        pub needs_keyframe: bool,
        /// Frames that completed reassembly and were decodable.
        pub frames_decoded: u64,
        /// Frames abandoned (packet loss or stale).
        pub frames_dropped: u64,
        stale_after: SimDuration,
        /// Gaps of odd frame ids do not break the reference chain.
        thinning_aware: bool,
    }

    impl FrameAssembler {
        /// New assembler.
        pub fn new() -> Self {
            FrameAssembler {
                partial: BTreeMap::new(),
                last_decoded: None,
                needs_keyframe: false,
                frames_decoded: 0,
                frames_dropped: 0,
                stale_after: SimDuration::from_millis(2000),
                thinning_aware: false,
            }
        }

        /// Tolerate gaps of odd frame ids (the convention for droppable temporal
        /// enhancement frames): used by Teams receivers whose relay thins the
        /// stream by dropping enhancement frames in large calls (§6.1).
        pub fn with_temporal_thinning(mut self) -> Self {
            self.thinning_aware = true;
            self
        }

        /// Feed one media packet. Returns whether a frame became decodable.
        pub fn on_packet(&mut self, now: SimTime, pkt: &RtpPacket, bytes: usize) -> AssembleEvent {
            let entry = self
                .partial
                .entry(pkt.frame_id)
                .or_insert_with(|| PartialFrame {
                    expected: pkt.frame_pkts.max(1),
                    first_seen: now,
                    ..PartialFrame::default()
                });
            entry.received += 1;
            entry.bytes += bytes;
            entry.keyframe |= pkt.meta.map(|m| m.keyframe).unwrap_or(false);
            let complete = entry.received >= entry.expected;

            // Expire stale partial frames (their packets were lost).
            self.expire_stale(now, pkt.frame_id);

            if !complete {
                return AssembleEvent::Pending;
            }
            let frame = self.partial.remove(&pkt.frame_id).expect("entry exists");
            let decodable = if frame.keyframe {
                self.needs_keyframe = false;
                true
            } else {
                !self.needs_keyframe
            };
            // Any skipped frame id breaks the reference chain for later deltas —
            // unless thinning-aware and every skipped id is an odd (droppable
            // temporal-enhancement) frame.
            if let Some(last) = self.last_decoded {
                let gap_breaks = if self.thinning_aware {
                    (last + 1..pkt.frame_id).any(|id| id % 2 == 0)
                } else {
                    pkt.frame_id > last + 1
                };
                if gap_breaks && !frame.keyframe {
                    // A reference was missed; this delta cannot decode.
                    self.needs_keyframe = true;
                    self.frames_dropped += 1;
                    self.last_decoded = Some(pkt.frame_id);
                    return AssembleEvent::Pending;
                }
            }
            self.last_decoded = Some(pkt.frame_id);
            if decodable {
                self.frames_decoded += 1;
                AssembleEvent::FrameComplete {
                    frame_id: pkt.frame_id,
                    bytes: frame.bytes,
                    keyframe: frame.keyframe,
                }
            } else {
                self.frames_dropped += 1;
                AssembleEvent::Pending
            }
        }

        fn expire_stale(&mut self, now: SimTime, current: u64) {
            let stale: Vec<u64> = self
                .partial
                .iter()
                .filter(|(&id, f)| {
                    id != current && now.saturating_since(f.first_seen) > self.stale_after
                })
                .map(|(&id, _)| id)
                .collect();
            for id in stale {
                self.partial.remove(&id);
                self.frames_dropped += 1;
                self.needs_keyframe = true;
            }
        }

        /// Partial frames currently buffered.
        pub fn pending_frames(&self) -> usize {
            self.partial.len()
        }
    }

    impl Default for FrameAssembler {
        fn default() -> Self {
            Self::new()
        }
    }
}
