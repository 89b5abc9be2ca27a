//! The span deriver: fold the flat telemetry event stream into typed
//! intervals.
//!
//! Raw traces answer "what happened at t"; diagnosis needs "what was
//! going on between t₀ and t₁". [`SpanBuilder`] implements
//! [`Recorder`], so it runs online (attached to a live simulation) or
//! offline (replaying an exported `.events.jsonl`) and — like the infer
//! and fingerprint banks — produces the identical [`Timeline`] either
//! way. Five span types are derived:
//!
//! | span            | opened by                          | closed by                     |
//! |-----------------|------------------------------------|-------------------------------|
//! | `cc_epoch`      | a `cc_state` transition            | the next transition / run end |
//! | `rate_regime`   | a `rate_step` changing the rate    | the next step / run end       |
//! | `freeze`        | derived: `freeze` events carry the cumulative stall time, so each one closes the interval it reports |
//! | `fec_elevation` | `fec_ratio.fraction` ≥ threshold   | fraction below threshold      |
//! | `queue_buildup` | sampled `queue_bytes` ≥ enter      | `queue_bytes` < exit (hysteresis) |
//!
//! Alongside the spans the builder keeps a per-second [`WindowMetrics`]
//! series (enqueued bytes/packets, drops, peak queue depth, freeze
//! events) — the aligned rows the trace-diff engine subtracts.
//!
//! Everything is a pure fold over the event stream: byte-identical
//! output for identical traces, no hash-map iteration, no wall clock.

use std::collections::BTreeMap;

use serde::{json, Serialize};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{artifact, EventKind, Recorder};

/// Schema tag of the span JSONL artifact (header line + key order).
pub const SPANS_SCHEMA: &str = "vcabench-spans/v1";

/// Tuning knobs for span derivation and anomaly detection. The defaults
/// are calibrated against the pinned disruption scenarios: unconstrained
/// two-party runs peak below 2.5 kB of queue, while any rate disruption
/// fills the 32 kB default queue within a second.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveConfig {
    /// Queue depth (bytes) at or above which a buildup episode opens.
    pub queue_enter_bytes: u64,
    /// Queue depth (bytes) below which an open episode closes.
    pub queue_exit_bytes: u64,
    /// Planned FEC fraction at or above which an elevation window opens.
    pub fec_elevated_fraction: f64,
    /// Minimum buildup length (seconds) to classify `sustained_queue`.
    pub sustained_queue_secs: f64,
    /// A cc epoch shorter than this (seconds) counts as flappy.
    pub flappy_epoch_secs: f64,
    /// Consecutive flappy epochs needed to classify `cc_oscillation`.
    pub oscillation_epochs: usize,
    /// Minimum elevation length (seconds) to classify `fec_spike`.
    pub fec_spike_secs: f64,
    /// A buildup outliving a rate recovery by more than this (seconds)
    /// classifies `slow_recovery`.
    pub slow_recovery_secs: f64,
    /// How far back (seconds) from a freeze the causal annotator looks
    /// for contributory spans.
    pub lookback_secs: f64,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            queue_enter_bytes: 8192,
            queue_exit_bytes: 4096,
            fec_elevated_fraction: 0.15,
            sustained_queue_secs: 1.0,
            flappy_epoch_secs: 1.0,
            oscillation_epochs: 6,
            fec_spike_secs: 1.0,
            slow_recovery_secs: 2.0,
            lookback_secs: 10.0,
        }
    }
}

/// What a [`Span`] covers, without the interval. Field vocabularies are
/// the telemetry event vocabularies (`&'static str` interned on import),
/// so online- and offline-derived spans compare equal.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    /// One congestion-controller state held by one client.
    CcEpoch {
        /// Client index owning the controller.
        client: u64,
        /// Controller family (`"gcc"` / `"fbra"` / `"teams"`).
        controller: &'static str,
        /// State held throughout the epoch.
        state: &'static str,
        /// Detector signal that opened the epoch (GCC only).
        signal: Option<&'static str>,
        /// Send-rate target entering the epoch, Mbps.
        target_mbps: f64,
    },
    /// One shaping-rate plateau of one link.
    RateRegime {
        /// Link index.
        link: u64,
        /// Service rate held throughout the regime, bits per second.
        bps: f64,
        /// Whether this regime *lowered* the rate (bps below the
        /// previous regime's) — the disruption marker the causal
        /// annotator keys on.
        reduced: bool,
    },
    /// One render-stall interval reported by the freeze detector.
    Freeze {
        /// Client whose render path froze.
        client: u64,
        /// Sending client.
        sender: u64,
        /// Cumulative freeze ordinal for this (client, sender) pair.
        seq: u64,
    },
    /// A window of elevated planned FEC.
    FecElevation {
        /// Client index.
        client: u64,
        /// Highest planned FEC fraction seen inside the window.
        peak_fraction: f64,
    },
    /// A sustained-queue episode on one link.
    QueueBuildup {
        /// Link index.
        link: u64,
        /// Peak queued bytes seen inside the episode.
        peak_bytes: u64,
        /// Packets dropped at this link during the episode.
        drops: u64,
    },
}

impl SpanKind {
    /// Stable snake_case tag identifying the span type in the JSONL
    /// schema, and the rendering order of span-kind summaries.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::CcEpoch { .. } => "cc_epoch",
            SpanKind::RateRegime { .. } => "rate_regime",
            SpanKind::Freeze { .. } => "freeze",
            SpanKind::FecElevation { .. } => "fec_elevation",
            SpanKind::QueueBuildup { .. } => "queue_buildup",
        }
    }

    /// All span tags the schema defines, sorted.
    pub const NAMES: [&'static str; 5] = [
        "cc_epoch",
        "fec_elevation",
        "freeze",
        "queue_buildup",
        "rate_regime",
    ];

    /// Sort rank for the deterministic span ordering (ties on start
    /// time): matches [`SpanKind::NAMES`] order.
    fn rank(&self) -> u8 {
        match self {
            SpanKind::CcEpoch { .. } => 0,
            SpanKind::FecElevation { .. } => 1,
            SpanKind::Freeze { .. } => 2,
            SpanKind::QueueBuildup { .. } => 3,
            SpanKind::RateRegime { .. } => 4,
        }
    }

    /// Secondary discriminator for the deterministic span ordering.
    fn subject_id(&self) -> u64 {
        match self {
            SpanKind::CcEpoch { client, .. } => *client,
            SpanKind::FecElevation { client, .. } => *client,
            SpanKind::Freeze { client, .. } => *client,
            SpanKind::QueueBuildup { link, .. } => *link,
            SpanKind::RateRegime { link, .. } => *link,
        }
    }

    /// Deterministic human-readable subject (`"link 0"` / `"client 1"`).
    pub fn subject(&self) -> String {
        match self {
            SpanKind::CcEpoch { client, .. }
            | SpanKind::FecElevation { client, .. }
            | SpanKind::Freeze { client, .. } => format!("client {client}"),
            SpanKind::QueueBuildup { link, .. } | SpanKind::RateRegime { link, .. } => {
                format!("link {link}")
            }
        }
    }
}

/// A typed interval derived from the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive; equals the run end for spans still open
    /// at [`SpanBuilder::finish`]).
    pub end: SimTime,
    /// What the interval covers.
    pub kind: SpanKind,
}

impl Span {
    /// Interval length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end.as_micros().saturating_sub(self.start.as_micros())) as f64 * 1e-6
    }

    /// True when this span overlaps `[from, to]` (closed interval).
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.start <= to && self.end >= from
    }
}

/// The schema's fixed key order: `start_us`, `end_us`, `kind`, then the
/// kind's own fields flattened into the same object — the one thing about
/// a span a derive cannot say.
impl Serialize for Span {
    fn write_json(&self, out: &mut String) {
        let name = self.kind.name();
        let head: [(&str, &dyn Serialize); 3] = [
            ("start_us", &self.start),
            ("end_us", &self.end),
            ("kind", &name),
        ];
        let fields: &[(&str, &dyn Serialize)] = match &self.kind {
            SpanKind::CcEpoch {
                client,
                controller,
                state,
                signal,
                target_mbps,
            } => &[
                ("client", client),
                ("controller", controller),
                ("state", state),
                ("signal", signal),
                ("target_mbps", target_mbps),
            ],
            SpanKind::RateRegime { link, bps, reduced } => {
                &[("link", link), ("bps", bps), ("reduced", reduced)]
            }
            SpanKind::Freeze {
                client,
                sender,
                seq,
            } => &[("client", client), ("sender", sender), ("seq", seq)],
            SpanKind::FecElevation {
                client,
                peak_fraction,
            } => &[("client", client), ("peak_fraction", peak_fraction)],
            SpanKind::QueueBuildup {
                link,
                peak_bytes,
                drops,
            } => &[("link", link), ("peak_bytes", peak_bytes), ("drops", drops)],
        };
        json::write_tagged(out, &head, &json::Members(fields));
    }
}

/// Per-second aggregate of the event stream (the diff engine's aligned
/// rows). Window `w` covers sim seconds `[w, w+1)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowMetrics {
    /// Window index (seconds).
    pub window: u64,
    /// Packets enqueued across all links.
    pub enq_pkts: u64,
    /// Bytes enqueued across all links.
    pub enq_bytes: u64,
    /// Packets dropped across all links.
    pub drops: u64,
    /// Peak sampled queue depth (bytes) across all links.
    pub peak_queue_bytes: u64,
    /// `freeze` events registered in the window.
    pub freezes: u64,
}

/// The derived timeline: sorted spans plus the per-second metric series.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// All derived spans, sorted by (start, end, kind, subject).
    pub spans: Vec<Span>,
    /// Per-second aggregates, dense from window 0 to the run end.
    pub windows: Vec<WindowMetrics>,
    /// Run end passed to [`SpanBuilder::finish`].
    pub end: SimTime,
}

impl Timeline {
    /// Spans of one kind tag, in timeline order.
    pub fn spans_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.kind.name() == name)
    }

    /// Serialize as the `vcabench-spans/v1` JSONL artifact: a header
    /// line (the schema tag, the run end, the span count), then one span
    /// per line.
    pub fn spans_jsonl(&self) -> String {
        let header = SpansHeader {
            end_us: self.end,
            spans: self.spans.len(),
        };
        let mut out = String::new();
        artifact::envelope(SPANS_SCHEMA, &header).write_json(&mut out);
        out.push('\n');
        for sp in &self.spans {
            sp.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// First line of the spans artifact: the run end and how many span lines
/// follow.
#[derive(Serialize)]
struct SpansHeader {
    end_us: SimTime,
    spans: usize,
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
                .then(a.kind.rank().cmp(&b.kind.rank()))
                .then(a.kind.subject_id().cmp(&b.kind.subject_id()))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn enq(link: u64, queue_bytes: u64) -> EventKind {
        EventKind::PacketEnqueued {
            link,
            flow: 10,
            pkt: 0,
            bytes: 1200,
            queue_bytes,
            queue_pkts: 1,
        }
    }

    #[test]
    fn queue_buildup_opens_on_enter_and_closes_with_hysteresis() {
        let mut b = SpanBuilder::new(ObserveConfig::default());
        b.record(SimTime::from_millis(100), enq(0, 1000));
        b.record(SimTime::from_millis(200), enq(0, 9000)); // opens
        b.record(SimTime::from_millis(300), enq(0, 30_000)); // peak
        b.record(SimTime::from_millis(400), enq(0, 5000)); // above exit: stays open
        b.record(
            SimTime::from_millis(500),
            EventKind::PacketDropped {
                link: 0,
                flow: 10,
                pkt: 1,
                bytes: 1200,
                queue_bytes: 32_000,
                reason: "queue_full",
            },
        );
        b.record(SimTime::from_millis(600), enq(0, 1000)); // closes
        let tl = b.finish(SimTime::from_secs(1));
        let spans: Vec<&Span> = tl.spans_of("queue_buildup").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start, SimTime::from_millis(200));
        assert_eq!(spans[0].end, SimTime::from_millis(600));
        match spans[0].kind {
            SpanKind::QueueBuildup {
                link,
                peak_bytes,
                drops,
            } => {
                assert_eq!(link, 0);
                assert_eq!(peak_bytes, 32_000);
                assert_eq!(drops, 1);
            }
            ref other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn cc_epochs_chain_and_last_closes_at_end() {
        let mut b = SpanBuilder::new(ObserveConfig::default());
        let cc = |state: &'static str, target: f64| EventKind::CcState {
            client: 0,
            controller: "gcc",
            state,
            signal: None,
            target_mbps: target,
        };
        b.record(SimTime::from_secs(1), cc("increase", 1.0));
        b.record(SimTime::from_secs(3), cc("decrease", 0.5));
        let tl = b.finish(SimTime::from_secs(10));
        let spans: Vec<&Span> = tl.spans_of("cc_epoch").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, SimTime::from_secs(1));
        assert_eq!(spans[0].end, SimTime::from_secs(3));
        assert_eq!(spans[1].end, SimTime::from_secs(10));
    }

    #[test]
    fn rate_regimes_mark_reductions_and_ignore_restatements() {
        let mut b = SpanBuilder::new(ObserveConfig::default());
        let step = |t: u64, bps: f64| (SimTime::from_secs(t), EventKind::RateStep { link: 0, bps });
        for (at, ev) in [step(0, 3e6), step(5, 3e6), step(20, 3e5), step(35, 3e6)] {
            b.record(at, ev);
        }
        let tl = b.finish(SimTime::from_secs(60));
        let spans: Vec<&Span> = tl.spans_of("rate_regime").collect();
        assert_eq!(spans.len(), 3, "restated rate does not split the regime");
        match (&spans[0].kind, &spans[1].kind, &spans[2].kind) {
            (
                SpanKind::RateRegime { reduced: r0, .. },
                SpanKind::RateRegime {
                    bps: b1,
                    reduced: r1,
                    ..
                },
                SpanKind::RateRegime { reduced: r2, .. },
            ) => {
                assert!(!r0);
                assert!(*r1 && *b1 == 3e5, "the dip regime is marked reduced");
                assert!(!r2, "recovery regime is not a reduction");
            }
            other => panic!("wrong kinds {other:?}"),
        }
        assert_eq!(spans[1].start, SimTime::from_secs(20));
        assert_eq!(spans[1].end, SimTime::from_secs(35));
    }

    #[test]
    fn freeze_events_become_intervals_via_cumulative_deltas() {
        let mut b = SpanBuilder::new(ObserveConfig::default());
        b.record(
            SimTime::from_secs(10),
            EventKind::Freeze {
                client: 1,
                sender: 0,
                count: 1,
                total_ms: 2000.0,
            },
        );
        b.record(
            SimTime::from_secs(15),
            EventKind::Freeze {
                client: 1,
                sender: 0,
                count: 2,
                total_ms: 2500.0,
            },
        );
        let tl = b.finish(SimTime::from_secs(20));
        let spans: Vec<&Span> = tl.spans_of("freeze").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, SimTime::from_secs(8));
        assert_eq!(spans[0].end, SimTime::from_secs(10));
        assert_eq!(spans[1].start, SimTime::from_millis(14_500));
        assert_eq!(spans[1].end, SimTime::from_secs(15));
    }

    #[test]
    fn fec_elevation_window_tracks_peak() {
        let mut b = SpanBuilder::new(ObserveConfig::default());
        let fec = |t: u64, fraction: f64| {
            (
                SimTime::from_secs(t),
                EventKind::FecRatio {
                    client: 0,
                    fraction,
                    fec_per_media: fraction,
                },
            )
        };
        for (at, ev) in [fec(1, 0.05), fec(2, 0.2), fec(3, 0.4), fec(4, 0.05)] {
            b.record(at, ev);
        }
        let tl = b.finish(SimTime::from_secs(5));
        let spans: Vec<&Span> = tl.spans_of("fec_elevation").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start, SimTime::from_secs(2));
        assert_eq!(spans[0].end, SimTime::from_secs(4));
        match spans[0].kind {
            SpanKind::FecElevation { peak_fraction, .. } => assert_eq!(peak_fraction, 0.4),
            ref other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn windows_are_dense_and_aggregate_events() {
        let mut b = SpanBuilder::new(ObserveConfig::default());
        b.record(SimTime::from_millis(500), enq(0, 1000));
        b.record(SimTime::from_millis(2500), enq(0, 2000));
        let tl = b.finish(SimTime::from_secs(5));
        assert_eq!(tl.windows.len(), 5);
        assert_eq!(tl.windows[0].enq_pkts, 1);
        assert_eq!(tl.windows[0].enq_bytes, 1200);
        assert_eq!(tl.windows[1].enq_pkts, 0);
        assert_eq!(tl.windows[2].peak_queue_bytes, 2000);
        assert!(tl
            .windows
            .iter()
            .enumerate()
            .all(|(i, w)| w.window == i as u64));
    }

    #[test]
    fn spans_jsonl_has_header_and_fixed_key_order() {
        let mut b = SpanBuilder::new(ObserveConfig::default());
        b.record(
            SimTime::from_secs(1),
            EventKind::RateStep { link: 0, bps: 1e6 },
        );
        let tl = b.finish(SimTime::from_secs(2));
        let text = tl.spans_jsonl();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"schema\":\"vcabench-spans/v1\",\"end_us\":2000000,\"spans\":1}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"start_us\":1000000,\"end_us\":2000000,\"kind\":\"rate_regime\",\
             \"link\":0,\"bps\":1000000,\"reduced\":false}"
        );
    }

    #[test]
    fn span_names_are_sorted_and_complete() {
        let mut sorted = SpanKind::NAMES;
        sorted.sort_unstable();
        assert_eq!(sorted, SpanKind::NAMES);
    }
}
