//! Differential test: the span builder against the four-map builder it
//! replaced, kept verbatim below as the oracle.
//!
//! [`SpanBuilder`] keeps every open interval (cc epoch, rate regime, FEC
//! elevation, queue buildup) in one table keyed by (kind, subject) and
//! opens, updates and closes them through one path; its thresholds are
//! constants. None of that may change a timeline. Proptest drives both
//! builders through the same event stream — times on a 250 ms grid, so
//! events tie; queue depths on and either side of the enter and exit
//! thresholds; FEC fractions on and just below the elevation threshold;
//! three rates, so a rate is restated; cumulative freezes; ignored kinds;
//! and a run end that may sit on the last event — and the two
//! [`Timeline`]s must be equal.

use proptest::prelude::*;
use vcabench_observe::{ObserveConfig, SpanBuilder, SpanKind, Timeline};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{EventKind, Recorder};

/// Queue depths (bytes) on and either side of the exit (4 096) and enter
/// (8 192) thresholds.
const DEPTHS: [u64; 6] = [0, 4095, 4096, 8191, 8192, 20_000];
/// Planned FEC fractions on and just below the elevation threshold (0.15).
const FEC_FRACTIONS: [f64; 4] = [0.0, 0.1499, 0.15, 0.4];
/// Link rates (bps): three, so a step often restates the current one.
const RATES: [f64; 3] = [3e5, 1e6, 3e6];
/// Grid the event times sit on, microseconds.
const GRID_US: u64 = 250_000;

/// The stream `raw` encodes: one event per word, each 0–2 grid steps after
/// the previous one (0: the same instant). Links and clients are 0 and 1;
/// a freeze adds 0–750 ms to its (client, sender) pair's cumulative total.
fn events(raw: &[u64]) -> Vec<(SimTime, EventKind)> {
    let mut at = 0;
    let mut frozen = [(0u64, 0.0f64); 4];
    let mut out = Vec::with_capacity(raw.len());
    for &word in raw {
        at += (word & 3) % 3 * GRID_US;
        let subject = (word >> 6) & 1;
        let pick = (word >> 7) as usize;
        let packet = |pkt| {
            (
                subject,
                10 + (pick as u64 & 1),
                pkt,
                DEPTHS[pick % DEPTHS.len()],
            )
        };
        let kind = match (word >> 2) % 9 {
            0 | 1 => {
                let (link, flow, pkt, queue_bytes) = packet(0);
                EventKind::PacketEnqueued {
                    link,
                    flow,
                    pkt,
                    bytes: 1200,
                    queue_bytes,
                    queue_pkts: queue_bytes / 1200,
                }
            }
            2 => {
                let (link, flow, pkt, queue_bytes) = packet(1);
                EventKind::PacketDequeued {
                    link,
                    flow,
                    pkt,
                    bytes: 1200,
                    queue_bytes,
                }
            }
            3 => {
                let (link, flow, pkt, queue_bytes) = packet(2);
                EventKind::PacketDropped {
                    link,
                    flow,
                    pkt,
                    bytes: 1200,
                    queue_bytes,
                    reason: ["queue_full", "impairment"][(pick >> 3) & 1],
                }
            }
            4 => EventKind::RateStep {
                link: subject,
                bps: RATES[pick % RATES.len()],
            },
            5 => EventKind::CcState {
                client: subject,
                controller: ["gcc", "teams"][pick & 1],
                state: ["increase", "decrease", "hold"][(pick >> 1) % 3],
                signal: [None, Some("overuse"), Some("normal")][(pick >> 3) % 3],
                target_mbps: [0.5, 1.0, 2.5][(pick >> 5) % 3],
            },
            6 => {
                let fraction = FEC_FRACTIONS[pick % FEC_FRACTIONS.len()];
                EventKind::FecRatio {
                    client: subject,
                    fraction,
                    fec_per_media: fraction,
                }
            }
            7 => {
                let sender = (pick & 1) as u64;
                let pair = &mut frozen[(2 * subject + sender) as usize];
                pair.0 += 1;
                pair.1 += ((pick >> 1) % 4) as f64 * 250.0;
                EventKind::Freeze {
                    client: subject,
                    sender,
                    count: pair.0,
                    total_ms: pair.1,
                }
            }
            _ => EventKind::Fir {
                client: subject,
                ssrc: 7,
                dir: "sent",
            },
        };
        out.push((SimTime::from_micros(at), kind));
    }
    out
}

/// Both builders' timelines for `raw`, the run ending `tail` grid steps
/// after the last event.
fn both(raw: &[u64], tail: u64) -> (Timeline, Timeline) {
    let stream = events(raw);
    let last = stream.last().map_or(0, |(at, _)| at.as_micros());
    let end = SimTime::from_micros(last + tail * GRID_US);
    let mut new = SpanBuilder::new(ObserveConfig);
    let mut old = oracle::SpanBuilder::new(oracle::ObserveConfig::default());
    for (at, kind) in stream {
        new.record(at, kind.clone());
        old.record(at, kind);
    }
    (new.finish(end), old.finish(end))
}

proptest! {
    #[test]
    fn span_builder_matches_the_four_map_oracle(
        raw in proptest::collection::vec(any::<u64>(), 0..300),
        tail in 0u64..3,
    ) {
        let (new, old) = both(&raw, tail);
        prop_assert_eq!(new, old);
    }
}

/// The drawn streams reach every edge the oracle is there to pin: all five
/// span kinds, reduced and restated rates, buildups that drop, spans closed
/// on the instant they opened, and spans still open at the run end.
#[test]
fn drawn_streams_reach_every_span_kind_and_edge() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state ^ (state >> 29)
    };
    let mut seen = std::collections::BTreeSet::new();
    for case in 0..64 {
        let raw: Vec<u64> = (0..200).map(|_| next()).collect();
        let (new, old) = both(&raw, case % 3);
        assert_eq!(new, old, "stream {case}");
        for span in &new.spans {
            seen.insert(span.kind.name());
            if span.start == span.end {
                seen.insert("zero_length");
            }
            if span.end == new.end {
                seen.insert("open_at_end");
            }
            match span.kind {
                SpanKind::RateRegime { reduced: true, .. } => seen.insert("reduced"),
                SpanKind::QueueBuildup { drops, .. } if drops > 0 => seen.insert("dropping"),
                _ => false,
            };
        }
    }
    let want = [
        "cc_epoch",
        "dropping",
        "fec_elevation",
        "freeze",
        "open_at_end",
        "queue_buildup",
        "rate_regime",
        "reduced",
        "zero_length",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), want);
}

/// The builder as it was before the one open-span table, verbatim but for
/// this module's imports, the span thresholds of the old
/// `ObserveConfig::default()`, and `rank` / `subject_id` as free functions.
#[allow(dead_code)]
mod oracle {
    use std::collections::BTreeMap;

    use vcabench_observe::{Span, SpanKind, Timeline, WindowMetrics};
    use vcabench_simcore::SimTime;
    use vcabench_telemetry::{EventKind, Recorder};

    /// The span thresholds `ObserveConfig` held.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ObserveConfig {
        queue_enter_bytes: u64,
        queue_exit_bytes: u64,
        fec_elevated_fraction: f64,
    }

    impl Default for ObserveConfig {
        fn default() -> Self {
            ObserveConfig {
                queue_enter_bytes: 8192,
                queue_exit_bytes: 4096,
                fec_elevated_fraction: 0.15,
            }
        }
    }

    fn rank(kind: &SpanKind) -> u8 {
        match kind {
            SpanKind::CcEpoch { .. } => 0,
            SpanKind::FecElevation { .. } => 1,
            SpanKind::Freeze { .. } => 2,
            SpanKind::QueueBuildup { .. } => 3,
            SpanKind::RateRegime { .. } => 4,
        }
    }

    fn subject_id(kind: &SpanKind) -> u64 {
        match kind {
            SpanKind::CcEpoch { client, .. } => *client,
            SpanKind::FecElevation { client, .. } => *client,
            SpanKind::Freeze { client, .. } => *client,
            SpanKind::QueueBuildup { link, .. } => *link,
            SpanKind::RateRegime { link, .. } => *link,
        }
    }

    /// Open-interval bookkeeping for one link's queue state.
    #[derive(Debug, Clone, Copy)]
    struct QueueTrack {
        /// Open episode: (start, peak_bytes, drops).
        open: Option<(SimTime, u64, u64)>,
    }

    /// The streaming span deriver. Feed it the event stream (online via
    /// [`vcabench_telemetry::Telemetry::attach`], offline via
    /// [`vcabench_telemetry::replay_jsonl`]), then call
    /// [`SpanBuilder::finish`].
    #[derive(Debug, Clone)]
    pub struct SpanBuilder {
        cfg: ObserveConfig,
        done: Vec<Span>,
        /// Open cc epoch per client: (start, controller, state, signal, target).
        cc: BTreeMap<
            u64,
            (
                SimTime,
                &'static str,
                &'static str,
                Option<&'static str>,
                f64,
            ),
        >,
        /// Open rate regime per link: (start, bps, reduced).
        rate: BTreeMap<u64, (SimTime, f64, bool)>,
        /// Cumulative freeze ms per (client, sender).
        freeze_ms: BTreeMap<(u64, u64), f64>,
        /// Open FEC elevation per client: (start, peak_fraction).
        fec: BTreeMap<u64, (SimTime, f64)>,
        queues: BTreeMap<u64, QueueTrack>,
        windows: Vec<WindowMetrics>,
    }

    impl SpanBuilder {
        /// A builder with the given thresholds.
        pub fn new(cfg: ObserveConfig) -> Self {
            SpanBuilder {
                cfg,
                done: Vec::new(),
                cc: BTreeMap::new(),
                rate: BTreeMap::new(),
                freeze_ms: BTreeMap::new(),
                fec: BTreeMap::new(),
                queues: BTreeMap::new(),
                windows: Vec::new(),
            }
        }

        fn window_at(&mut self, at: SimTime) -> &mut WindowMetrics {
            let w = (at.as_micros() / 1_000_000) as usize;
            while self.windows.len() <= w {
                let next = self.windows.len() as u64;
                self.windows.push(WindowMetrics {
                    window: next,
                    ..WindowMetrics::default()
                });
            }
            &mut self.windows[w]
        }

        /// Fold one queue-depth sample on `link` into the buildup tracker.
        fn queue_sample(&mut self, at: SimTime, link: u64, queue_bytes: u64, dropped: bool) {
            let enter = self.cfg.queue_enter_bytes;
            let exit = self.cfg.queue_exit_bytes;
            let track = self.queues.entry(link).or_insert(QueueTrack { open: None });
            match &mut track.open {
                None => {
                    if queue_bytes >= enter {
                        track.open = Some((at, queue_bytes, u64::from(dropped)));
                    }
                }
                Some((_, peak, drops)) => {
                    *peak = (*peak).max(queue_bytes);
                    *drops += u64::from(dropped);
                    if queue_bytes < exit {
                        let (start, peak, drops) = track.open.take().expect("episode is open");
                        self.done.push(Span {
                            start,
                            end: at,
                            kind: SpanKind::QueueBuildup {
                                link,
                                peak_bytes: peak,
                                drops,
                            },
                        });
                    }
                }
            }
        }

        /// Close every open interval at `end`, sort, and return the timeline.
        /// Windows are padded densely to cover `[0, end)`.
        pub fn finish(mut self, end: SimTime) -> Timeline {
            let mut spans = std::mem::take(&mut self.done);
            for (&client, &(start, controller, state, signal, target_mbps)) in &self.cc {
                spans.push(Span {
                    start,
                    end,
                    kind: SpanKind::CcEpoch {
                        client,
                        controller,
                        state,
                        signal,
                        target_mbps,
                    },
                });
            }
            for (&link, &(start, bps, reduced)) in &self.rate {
                spans.push(Span {
                    start,
                    end,
                    kind: SpanKind::RateRegime { link, bps, reduced },
                });
            }
            for (&client, &(start, peak_fraction)) in &self.fec {
                spans.push(Span {
                    start,
                    end,
                    kind: SpanKind::FecElevation {
                        client,
                        peak_fraction,
                    },
                });
            }
            for (&link, track) in &self.queues {
                if let Some((start, peak_bytes, drops)) = track.open {
                    spans.push(Span {
                        start,
                        end,
                        kind: SpanKind::QueueBuildup {
                            link,
                            peak_bytes,
                            drops,
                        },
                    });
                }
            }
            spans.sort_by(|a, b| {
                a.start
                    .cmp(&b.start)
                    .then(a.end.cmp(&b.end))
                    .then(rank(&a.kind).cmp(&rank(&b.kind)))
                    .then(subject_id(&a.kind).cmp(&subject_id(&b.kind)))
            });
            let mut windows = self.windows;
            let want = (end.as_micros().div_ceil(1_000_000)) as usize;
            while windows.len() < want {
                let next = windows.len() as u64;
                windows.push(WindowMetrics {
                    window: next,
                    ..WindowMetrics::default()
                });
            }
            Timeline {
                spans,
                windows,
                end,
            }
        }
    }

    impl Recorder for SpanBuilder {
        fn record(&mut self, at: SimTime, kind: EventKind) {
            match kind {
                EventKind::PacketEnqueued {
                    link,
                    bytes,
                    queue_bytes,
                    ..
                } => {
                    let w = self.window_at(at);
                    w.enq_pkts += 1;
                    w.enq_bytes += bytes;
                    w.peak_queue_bytes = w.peak_queue_bytes.max(queue_bytes);
                    self.queue_sample(at, link, queue_bytes, false);
                }
                EventKind::PacketDequeued {
                    link, queue_bytes, ..
                } => {
                    let w = self.window_at(at);
                    w.peak_queue_bytes = w.peak_queue_bytes.max(queue_bytes);
                    self.queue_sample(at, link, queue_bytes, false);
                }
                EventKind::PacketDropped {
                    link, queue_bytes, ..
                } => {
                    let w = self.window_at(at);
                    w.drops += 1;
                    w.peak_queue_bytes = w.peak_queue_bytes.max(queue_bytes);
                    self.queue_sample(at, link, queue_bytes, true);
                }
                EventKind::RateStep { link, bps } => {
                    let prev = self.rate.insert(link, (at, bps, false));
                    if let Some((start, prev_bps, reduced)) = prev {
                        if prev_bps == bps {
                            // Same rate restated: keep the original regime.
                            self.rate.insert(link, (start, prev_bps, reduced));
                        } else {
                            self.done.push(Span {
                                start,
                                end: at,
                                kind: SpanKind::RateRegime {
                                    link,
                                    bps: prev_bps,
                                    reduced,
                                },
                            });
                            self.rate.insert(link, (at, bps, bps < prev_bps));
                        }
                    }
                }
                EventKind::CcState {
                    client,
                    controller,
                    state,
                    signal,
                    target_mbps,
                } => {
                    let prev = self
                        .cc
                        .insert(client, (at, controller, state, signal, target_mbps));
                    if let Some((start, p_controller, p_state, p_signal, p_target)) = prev {
                        self.done.push(Span {
                            start,
                            end: at,
                            kind: SpanKind::CcEpoch {
                                client,
                                controller: p_controller,
                                state: p_state,
                                signal: p_signal,
                                target_mbps: p_target,
                            },
                        });
                    }
                }
                EventKind::FecRatio {
                    client, fraction, ..
                } => {
                    let elevated = fraction >= self.cfg.fec_elevated_fraction;
                    match self.fec.get_mut(&client) {
                        None => {
                            if elevated {
                                self.fec.insert(client, (at, fraction));
                            }
                        }
                        Some((start, peak)) => {
                            if elevated {
                                *peak = peak.max(fraction);
                            } else {
                                let (start, peak) = (*start, *peak);
                                self.fec.remove(&client);
                                self.done.push(Span {
                                    start,
                                    end: at,
                                    kind: SpanKind::FecElevation {
                                        client,
                                        peak_fraction: peak,
                                    },
                                });
                            }
                        }
                    }
                }
                EventKind::Freeze {
                    client,
                    sender,
                    count,
                    total_ms,
                } => {
                    self.window_at(at).freezes += 1;
                    let prev = self
                        .freeze_ms
                        .insert((client, sender), total_ms)
                        .unwrap_or(0.0);
                    let delta_us = ((total_ms - prev).max(0.0) * 1e3) as u64;
                    let start = SimTime::from_micros(at.as_micros().saturating_sub(delta_us));
                    self.done.push(Span {
                        start,
                        end: at,
                        kind: SpanKind::Freeze {
                            client,
                            sender,
                            seq: count,
                        },
                    });
                }
                EventKind::LayerSwitch { .. }
                | EventKind::Fir { .. }
                | EventKind::InvariantViolation { .. } => {}
            }
        }
    }
}
