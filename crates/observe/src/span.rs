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
//! | span            | opened by                                          | closed by                     |
//! |-----------------|----------------------------------------------------|-------------------------------|
//! | `cc_epoch`      | a `cc_state` transition                            | the next transition / run end |
//! | `rate_regime`   | a `rate_step` changing the rate                    | the next step / run end       |
//! | `freeze`        | derived: `freeze` events carry the cumulative stall time, so each one closes the interval it reports |
//! | `fec_elevation` | `fec_ratio.fraction` ≥ `FEC_ELEVATED_FRACTION` (0.15) | fraction below it / run end |
//! | `queue_buildup` | sampled `queue_bytes` ≥ `QUEUE_ENTER_BYTES` (8 192) | `queue_bytes` < `QUEUE_EXIT_BYTES` (4 096) / run end |
//!
//! Every other span opens, is updated and closes in one table of open
//! spans, keyed by (kind, subject).
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

/// Queue depth (bytes) at or above which a buildup episode opens.
/// Unconstrained two-party runs peak below 2.5 kB of queue, while any rate
/// disruption fills the 32 kB default queue within a second.
pub(crate) const QUEUE_ENTER_BYTES: u64 = 8192;
/// Queue depth (bytes) below which an open buildup episode closes.
pub(crate) const QUEUE_EXIT_BYTES: u64 = 4096;
/// Planned FEC fraction at or above which an elevation window opens.
pub(crate) const FEC_ELEVATED_FRACTION: f64 = 0.15;

/// No settings: the thresholds are constants (`QUEUE_ENTER_BYTES`,
/// `QUEUE_EXIT_BYTES`, `FEC_ELEVATED_FRACTION` here, the classification
/// thresholds in [`crate::anomaly`]). The type stays only because the
/// benchmark surface names it in `SpanBuilder::new`, `diagnose`,
/// `diagnose_jsonl` and `run_spec_observe_metered`; ROADMAP item 10,
/// which unfreezes that surface, deletes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObserveConfig;

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

    // Ranks, in `NAMES` order.
    const CC_EPOCH: u8 = 0;
    const FEC_ELEVATION: u8 = 1;
    const FREEZE: u8 = 2;
    const QUEUE_BUILDUP: u8 = 3;
    const RATE_REGIME: u8 = 4;

    /// (rank, subject id): orders spans that tie on their interval, and
    /// keys the builder's open spans.
    fn key(&self) -> (u8, u64) {
        match *self {
            SpanKind::CcEpoch { client, .. } => (Self::CC_EPOCH, client),
            SpanKind::FecElevation { client, .. } => (Self::FEC_ELEVATION, client),
            SpanKind::Freeze { client, .. } => (Self::FREEZE, client),
            SpanKind::QueueBuildup { link, .. } => (Self::QUEUE_BUILDUP, link),
            SpanKind::RateRegime { link, .. } => (Self::RATE_REGIME, link),
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

/// The streaming span deriver. Feed it the event stream (online via
/// [`vcabench_telemetry::Telemetry::attach`], offline via
/// [`vcabench_telemetry::replay_jsonl`]), then call
/// [`SpanBuilder::finish`].
#[derive(Debug, Clone)]
pub struct SpanBuilder {
    done: Vec<Span>,
    /// Every open interval, keyed by (kind rank, subject id); its `end`
    /// is set when it closes.
    open: BTreeMap<(u8, u64), Span>,
    /// Cumulative freeze ms per (client, sender).
    freeze_ms: BTreeMap<(u64, u64), f64>,
    windows: Vec<WindowMetrics>,
}

impl SpanBuilder {
    /// An empty builder (the thresholds are this module's constants).
    pub fn new(_: ObserveConfig) -> Self {
        SpanBuilder {
            done: Vec::new(),
            open: BTreeMap::new(),
            freeze_ms: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    fn window_at(&mut self, at: SimTime) -> &mut WindowMetrics {
        let w = (at.as_micros() / 1_000_000) as usize;
        pad(&mut self.windows, w + 1);
        &mut self.windows[w]
    }

    /// Open `kind` at `at`, closing there the span its key held.
    fn open(&mut self, at: SimTime, kind: SpanKind) {
        let key = kind.key();
        let span = Span {
            start: at,
            end: at,
            kind,
        };
        if let Some(prev) = self.open.insert(key, span) {
            self.done.push(Span { end: at, ..prev });
        }
    }

    /// Close the span open under `key`, if any, at `at`.
    fn close(&mut self, key: (u8, u64), at: SimTime) {
        if let Some(span) = self.open.remove(&key) {
            self.done.push(Span { end: at, ..span });
        }
    }

    /// Fold one queue-depth sample on `link` into its buildup episode.
    fn queue_sample(&mut self, at: SimTime, link: u64, queue_bytes: u64, dropped: bool) {
        let key = (SpanKind::QUEUE_BUILDUP, link);
        let drops = u64::from(dropped);
        match self.open.get_mut(&key).map(|span| &mut span.kind) {
            Some(SpanKind::QueueBuildup {
                peak_bytes,
                drops: episode_drops,
                ..
            }) => {
                *peak_bytes = (*peak_bytes).max(queue_bytes);
                *episode_drops += drops;
                if queue_bytes < QUEUE_EXIT_BYTES {
                    self.close(key, at);
                }
            }
            _ if queue_bytes >= QUEUE_ENTER_BYTES => {
                let peak_bytes = queue_bytes;
                self.open(
                    at,
                    SpanKind::QueueBuildup {
                        link,
                        peak_bytes,
                        drops,
                    },
                );
            }
            _ => {}
        }
    }

    /// Close every open interval at `end`, sort, and return the timeline.
    /// Windows are padded densely to cover `[0, end)`.
    pub fn finish(self, end: SimTime) -> Timeline {
        let SpanBuilder {
            done: mut spans,
            open,
            mut windows,
            ..
        } = self;
        spans.extend(open.into_values().map(|span| Span { end, ..span }));
        spans.sort_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then(a.end.cmp(&b.end))
                .then(a.kind.key().cmp(&b.kind.key()))
        });
        pad(&mut windows, end.as_micros().div_ceil(1_000_000) as usize);
        Timeline {
            spans,
            windows,
            end,
        }
    }
}

/// Extend `windows` densely to `len` windows.
fn pad(windows: &mut Vec<WindowMetrics>, len: usize) {
    while windows.len() < len {
        let window = windows.len() as u64;
        windows.push(WindowMetrics {
            window,
            ..WindowMetrics::default()
        });
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
                let prev = match self.open.get(&(SpanKind::RATE_REGIME, link)) {
                    Some(Span {
                        kind: SpanKind::RateRegime { bps, .. },
                        ..
                    }) => Some(*bps),
                    _ => None,
                };
                // A restated rate keeps the open regime.
                if prev != Some(bps) {
                    let reduced = prev.is_some_and(|prev| bps < prev);
                    self.open(at, SpanKind::RateRegime { link, bps, reduced });
                }
            }
            EventKind::CcState {
                client,
                controller,
                state,
                signal,
                target_mbps,
            } => self.open(
                at,
                SpanKind::CcEpoch {
                    client,
                    controller,
                    state,
                    signal,
                    target_mbps,
                },
            ),
            EventKind::FecRatio {
                client, fraction, ..
            } => {
                let key = (SpanKind::FEC_ELEVATION, client);
                let elevated = fraction >= FEC_ELEVATED_FRACTION;
                match self.open.get_mut(&key).map(|span| &mut span.kind) {
                    Some(SpanKind::FecElevation { peak_fraction, .. }) if elevated => {
                        *peak_fraction = peak_fraction.max(fraction);
                    }
                    Some(_) => self.close(key, at),
                    None if elevated => {
                        let peak_fraction = fraction;
                        self.open(
                            at,
                            SpanKind::FecElevation {
                                client,
                                peak_fraction,
                            },
                        );
                    }
                    None => {}
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
        let mut b = SpanBuilder::new(ObserveConfig);
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
        let mut b = SpanBuilder::new(ObserveConfig);
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
        let mut b = SpanBuilder::new(ObserveConfig);
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
        let mut b = SpanBuilder::new(ObserveConfig);
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
        let mut b = SpanBuilder::new(ObserveConfig);
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
        let mut b = SpanBuilder::new(ObserveConfig);
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
        let mut b = SpanBuilder::new(ObserveConfig);
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
