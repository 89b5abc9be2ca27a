//! The only file that calls product code.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; each function here wraps exactly one such call (or one
//! isolated driver loop over a public type) in a span carrying the counts
//! taken at that boundary. A refactor of vcabench can read this file to
//! see which names the benchmark pins — the list is repeated in
//! `benchmark/README.md`.

use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;

use vcabench::campaign::{
    self, CampaignSpec, CampaignSummary, ExpandedRun, ScenarioOutcome, ScenarioSpec,
};
use vcabench::congestion::{
    FbraConfig, FbraController, GccConfig, GccController, RateController, SyntheticLink,
    TeamsConfig, TeamsController,
};
use vcabench::fingerprint::{
    CallFingerprint, CentroidModel, Classifier, FingerprintBank, FlowFingerprint,
};
use vcabench::harness::{self, InferOutcome};
use vcabench::infer::{gbt_feature_vector, Estimator, GbtModel, TapBank, WindowFeatures};
use vcabench::media::{AssembleEvent, FrameAssembler, FreezeDetector, TalkingHeadSource};
use vcabench::netsim::{
    Agent, Ctx as NetCtx, EngineStats, EnqueueOutcome, FlowId, Link, LinkConfig, Network, NodeId,
    Packet,
};
use vcabench::observe::{self, Diagnosis, ObserveConfig, SpanBuilder, Timeline};
use vcabench::simcore::{EventQueue, SimDuration, SimRng, SimTime};
use vcabench::telemetry::{self, EventLog, NullRecorder, Recorder, Telemetry};
use vcabench::transport::{
    Connection, Layer, RtpPacket, RtpRecvState, StreamKind, TcpConfig, TcpReceiver,
};
use vcabench::vca::StatsSample;

use crate::digest::Fnv;
use crate::spans::{self, Counts, Ctx};

/// A parsed campaign spec.
pub type Campaign = CampaignSpec;
/// One expanded run: index, label, concrete scenario.
pub type Run = ExpandedRun;
/// One concrete scenario.
pub type Spec = ScenarioSpec;
/// What a scenario produced.
pub type Outcome = ScenarioOutcome;
/// Result of one cached campaign invocation.
pub type Summary = CampaignSummary;
/// The engine's own counters.
pub type Stats = EngineStats;
/// An in-memory telemetry event log.
pub type Log = EventLog;
/// Per-second passive window features of one tap.
pub type Windows = Vec<WindowFeatures>;
/// Per-second ground-truth samples of the stats API.
pub type GroundTruth = Vec<StatsSample>;
/// The builtin gradient-boosted QoE estimator.
pub type Gbt = GbtModel;
/// The builtin centroid classifier.
pub type Centroid = CentroidModel;
/// Observe thresholds.
pub type ObserveCfg = ObserveConfig;

/// What the benchmark needs to know about a scenario without running it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecInfo {
    /// `two_party`, `competition` or `multiparty`.
    pub class: &'static str,
    /// Simulated call length, seconds.
    pub sim_s: f64,
    /// The scenario's RNG seed.
    pub seed: u64,
    /// Constant uplink cap, Mbps, when the two-party uplink is shaped.
    pub up_cap_mbps: Option<f64>,
    /// Constant downlink cap, Mbps, when the two-party downlink is shaped.
    pub down_cap_mbps: Option<f64>,
}

/// Rates at or above this are the harness's "unconstrained" links.
const UNSHAPED_MBPS: f64 = 999.0;

/// Describe a scenario.
pub fn spec_info(spec: &Spec) -> SpecInfo {
    let cap = |profile: &vcabench::netsim::RateProfile| match profile.steps() {
        [(_, bps)] if *bps / 1e6 < UNSHAPED_MBPS => Some(*bps / 1e6),
        _ => None,
    };
    match spec {
        ScenarioSpec::TwoParty(s) => SpecInfo {
            class: "two_party",
            sim_s: s.duration_secs,
            seed: s.seed,
            up_cap_mbps: cap(&s.up),
            down_cap_mbps: cap(&s.down),
        },
        ScenarioSpec::Competition(s) => SpecInfo {
            class: "competition",
            sim_s: s
                .total_secs
                .unwrap_or(campaign::spec::COMPETITION_TOTAL_SECS),
            seed: s.seed,
            up_cap_mbps: None,
            down_cap_mbps: None,
        },
        ScenarioSpec::Multiparty(s) => SpecInfo {
            class: "multiparty",
            sim_s: s.duration_secs,
            seed: s.seed,
            up_cap_mbps: None,
            down_cap_mbps: None,
        },
    }
}

fn sim_us(spec: &Spec) -> u64 {
    (spec_info(spec).sim_s * 1e6).round() as u64
}

fn end_of(spec: &Spec) -> SimTime {
    SimTime::from_secs_f64(spec_info(spec).sim_s)
}

/// Steady `(up, down)` rates of a two-party outcome, Mbps.
pub fn steady_rates(outcome: &Outcome) -> Option<(f64, f64)> {
    match outcome {
        ScenarioOutcome::TwoParty(r) => Some((r.steady_up_mbps, r.steady_down_mbps)),
        _ => None,
    }
}

/// A placeholder outcome for an op that panicked inside a campaign runner
/// (the executor has no error channel per run; the op is counted failed).
pub fn failed_outcome() -> Outcome {
    ScenarioOutcome::Multiparty(campaign::MultipartyRecord {
        c1_up_mbps: f64::NAN,
        c1_down_mbps: f64::NAN,
    })
}

// ---------------------------------------------------------------- campaign

/// `CampaignSpec::from_json`.
pub fn parse_campaign(ctx: Ctx, json: &str) -> Result<Campaign, String> {
    let g = spans::enter(ctx, "campaign.from_json", "");
    let parsed = CampaignSpec::from_json(json);
    g.finish(Counts::none().with("bytes", json.len() as u64));
    parsed
}

/// `CampaignSpec::expand`.
pub fn expand(ctx: Ctx, campaign: &Campaign) -> Result<Vec<Run>, String> {
    let g = spans::enter(ctx, "campaign.expand", "");
    let runs = campaign.expand();
    let n = runs.as_ref().map_or(0, Vec::len);
    g.finish(Counts::none().with("runs", n as u64));
    runs
}

/// `campaign::content_hash` over every run of an expansion.
pub fn content_hashes(ctx: Ctx, runs: &[Run]) -> Vec<String> {
    let g = spans::enter(ctx, "campaign.content_hash", "");
    let hashes: Vec<String> = runs
        .iter()
        .map(|r| campaign::content_hash(&r.spec))
        .collect();
    g.finish(Counts::none().with("runs", runs.len() as u64));
    hashes
}

/// `campaign::run_cached_with`: the cached campaign executor. `runner`
/// receives the context its own spans hang under.
pub fn run_cached(
    ctx: Ctx,
    campaign: &Campaign,
    jobs: usize,
    dir: &Path,
    rerun: bool,
    runner: &(impl Fn(Ctx, &Run) -> Outcome + Sync),
) -> Result<Summary, String> {
    let g = spans::enter(ctx, "campaign.run_cached", "");
    let child = g.ctx();
    let summary = campaign::run_cached_with(campaign, jobs, dir, rerun, &|run: &ExpandedRun| {
        runner(child, run)
    });
    let counts = match &summary {
        Ok(s) => Counts::none()
            .with("runs", s.total as u64)
            .with("computed", s.computed as u64)
            .with("cached", s.cached as u64)
            .with("jobs", jobs as u64)
            .with(
                "bytes",
                s.results.iter().map(|r| r.line.len() as u64 + 1).sum(),
            ),
        Err(_) => Counts::none(),
    };
    g.finish(counts);
    summary
}

// ----------------------------------------------------------------- harness

fn run_counts(spec: &Spec, stats: &Stats) -> Counts {
    Counts::none()
        .with("events", stats.events_processed)
        .with("peak_queue", stats.peak_queue_depth)
        .with("sim_us", sim_us(spec))
}

/// `harness::run_spec_metered` with telemetry disabled: the bare engine.
pub fn run_spec_metered(ctx: Ctx, spec: &Spec) -> (Outcome, Stats) {
    let g = spans::enter(ctx, "harness.run_spec_metered", spec_info(spec).class);
    let (outcome, stats) = harness::run_spec_metered(spec, &Telemetry::disabled());
    g.finish(run_counts(spec, &stats));
    (outcome, stats)
}

/// `harness::run_spec_metered` feeding `EventLog::unbounded` — the same
/// run with telemetry emission switched on and nothing else.
pub fn run_spec_logged(ctx: Ctx, spec: &Spec) -> (Outcome, Stats, Log) {
    let g = spans::enter(
        ctx,
        "harness.run_spec_metered.logged",
        spec_info(spec).class,
    );
    let (tel, log) = Telemetry::with_log(EventLog::unbounded());
    let (outcome, stats) = harness::run_spec_metered(spec, &tel);
    drop(tel);
    let log = Rc::try_unwrap(log)
        .expect("run finished; the event log has a sole owner")
        .into_inner();
    g.finish(
        run_counts(spec, &stats)
            .with("tel_events", log.len() as u64)
            .with("enqueues", log.count("packet_enqueue"))
            .with("dropped", log.dropped_events()),
    );
    (outcome, stats, log)
}

/// `harness::run_spec_infer_metered`: engine + streaming `TapBank`.
pub fn run_spec_infer(ctx: Ctx, spec: &Spec) -> (InferOutcome, Stats) {
    let g = spans::enter(ctx, "harness.run_spec_infer_metered", spec_info(spec).class);
    let (out, stats) = harness::run_spec_infer_metered(spec);
    g.finish(run_counts(spec, &stats).with("windows", (out.send.len() + out.recv.len()) as u64));
    (out, stats)
}

/// `harness::run_spec_fingerprint_metered`: engine + `FingerprintBank`.
pub fn run_spec_fingerprint(ctx: Ctx, spec: &Spec) -> (CallFingerprint, Stats) {
    let g = spans::enter(
        ctx,
        "harness.run_spec_fingerprint_metered",
        spec_info(spec).class,
    );
    let (fp, stats) = harness::run_spec_fingerprint_metered(spec);
    g.finish(run_counts(spec, &stats));
    (fp, stats)
}

/// `harness::run_spec_observe_metered`: engine + `SpanBuilder` + diagnose.
pub fn run_spec_observe(ctx: Ctx, spec: &Spec, cfg: &ObserveConfig) -> (Diagnosis, Stats) {
    let g = spans::enter(
        ctx,
        "harness.run_spec_observe_metered",
        spec_info(spec).class,
    );
    let (diag, stats) = harness::run_spec_observe_metered(spec, cfg);
    g.finish(run_counts(spec, &stats).with("obs_spans", diag.timeline.spans.len() as u64));
    (diag, stats)
}

/// `harness::run_spec_traced`: simulate, export, write three artifacts.
pub fn run_spec_traced(ctx: Ctx, label: &str, spec: &Spec, dir: &Path) -> Outcome {
    let g = spans::enter(ctx, "harness.run_spec_traced", spec_info(spec).class);
    let outcome = harness::run_spec_traced(label, spec, dir);
    g.finish(Counts::none().with("sim_us", sim_us(spec)));
    outcome
}

/// `harness::join_windows` + `harness::bitrate_errors`: the estimator's
/// relative bitrate errors against stats-API ground truth.
pub fn bitrate_errors(ctx: Ctx, label: &str, out: &InferOutcome, gbt: &GbtModel) -> Vec<f64> {
    let g = spans::enter(ctx, "harness.bitrate_errors", "");
    let rows = harness::join_windows(label, out);
    let errs = harness::infer::bitrate_errors(&rows, gbt);
    g.finish(Counts::none().with("windows", rows.len() as u64));
    errs
}

/// Rebuild the harness's inference outcome from offline windows plus the
/// ground truth an online run of the same scenario recorded.
pub fn infer_outcome(spec: &Spec, mut windows: Vec<Windows>, stats: GroundTruth) -> InferOutcome {
    let recv = windows.pop().expect("recv tap windows");
    let send = windows.pop().expect("send tap windows");
    InferOutcome {
        send,
        recv,
        stats,
        duration: end_of(spec),
    }
}

/// Whether `family_name` is the scenario's true application family.
pub fn is_true_family(spec: &Spec, family_name: &str) -> bool {
    harness::spec_family(spec).name() == family_name
}

// --------------------------------------------------------------- telemetry

/// `telemetry::events_jsonl`: export an in-memory log.
pub fn events_jsonl(ctx: Ctx, log: &Log) -> String {
    let g = spans::enter(ctx, "telemetry.events_jsonl", "");
    let text = telemetry::events_jsonl(log);
    g.finish(
        Counts::none()
            .with("tel_events", log.len() as u64)
            .with("bytes", text.len() as u64),
    );
    text
}

/// `telemetry::validate_jsonl`; returns the number of events accepted.
pub fn validate_jsonl(ctx: Ctx, text: &str) -> Result<u64, String> {
    let g = spans::enter(ctx, "telemetry.validate_jsonl", "");
    let counts = telemetry::validate_jsonl(text);
    let n = counts.as_ref().map_or(0, |c| c.values().sum());
    g.finish(
        Counts::none()
            .with("tel_events", n)
            .with("bytes", text.len() as u64),
    );
    counts.map(|_| n)
}

/// `telemetry::replay_jsonl` into a `NullRecorder`: the bare import cost.
pub fn replay_null(ctx: Ctx, text: &str) -> Result<u64, String> {
    let g = spans::enter(ctx, "telemetry.replay_jsonl.null", "");
    let n = telemetry::replay_jsonl(text, &mut NullRecorder);
    g.finish(Counts::none().with("tel_events", *n.as_ref().unwrap_or(&0)));
    n
}

/// `telemetry::replay_jsonl` into a `TapBank` placed by `harness::taps_for`.
pub fn replay_taps(ctx: Ctx, text: &str, spec: &Spec) -> Result<Vec<Windows>, String> {
    let g = spans::enter(ctx, "telemetry.replay_jsonl.tapbank", "");
    let taps = harness::taps_for(spec);
    let mut bank = TapBank::new(&[taps.send, taps.recv]);
    let n = telemetry::replay_jsonl(text, &mut bank);
    let windows = bank.finish(end_of(spec));
    g.finish(Counts::none().with("tel_events", *n.as_ref().unwrap_or(&0)));
    n.map(|_| windows)
}

/// `telemetry::replay_jsonl` into a `FingerprintBank` placed by
/// `harness::fp_taps_for`.
pub fn replay_fingerprint(ctx: Ctx, text: &str, spec: &Spec) -> Result<CallFingerprint, String> {
    let g = spans::enter(ctx, "telemetry.replay_jsonl.fingerprintbank", "");
    let mut bank = FingerprintBank::new(&harness::fp_taps_for(spec));
    let n = telemetry::replay_jsonl(text, &mut bank);
    let flows = bank.finish(end_of(spec));
    g.finish(Counts::none().with("tel_events", *n.as_ref().unwrap_or(&0)));
    n.map(|_| call_fingerprint(flows))
}

/// The `[send, recv]` tap fingerprints of a finished bank as one call's.
fn call_fingerprint(mut flows: Vec<FlowFingerprint>) -> CallFingerprint {
    let down = flows.pop().expect("recv tap fingerprint");
    let up = flows.pop().expect("send tap fingerprint");
    CallFingerprint { up, down }
}

/// The `events_dropped` field of a run manifest written by
/// `harness::run_spec_traced`.
pub fn manifest_dropped(ctx: Ctx, manifest_json: &str) -> Result<u64, String> {
    let g = spans::enter(ctx, "telemetry.manifest", "");
    let dropped = serde_json::from_str::<serde_json::Value>(manifest_json)
        .map_err(|e| format!("manifest: {e}"))
        .and_then(|v| {
            v.get("events_dropped")
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| "manifest: no events_dropped field".to_string())
        });
    g.finish(Counts::none().with("dropped", *dropped.as_ref().unwrap_or(&0)));
    dropped
}

/// Write an artifact (the benchmark's own I/O, spanned for `io_ms_per_run`).
pub fn write_file(ctx: Ctx, path: &Path, body: &str) -> Result<(), String> {
    let g = spans::enter(ctx, "io.write", "");
    let r = std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()));
    g.finish(Counts::none().with("bytes", body.len() as u64));
    r
}

/// Read an artifact back.
pub fn read_file(ctx: Ctx, path: &Path) -> Result<String, String> {
    let g = spans::enter(ctx, "io.read", "");
    let r = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()));
    g.finish(Counts::none().with("bytes", r.as_ref().map_or(0, |t| t.len() as u64)));
    r
}

/// Write a trace to disk and read it back: what a traced run pays in file
/// I/O on top of export and import.
pub fn io_roundtrip(ctx: Ctx, path: &Path, body: &str) -> Result<String, String> {
    let g = spans::enter(ctx, "telemetry.io_roundtrip", "");
    let back = write_file(g.ctx(), path, body).and_then(|()| read_file(g.ctx(), path));
    g.finish(Counts::none().with("bytes", body.len() as u64));
    back
}

// ------------------------------------------------------------------- infer

/// `harness::model_registry().gbt("gbt-v1")`: artifact load, as every
/// consumer of the builtin estimator pays it.
pub fn load_gbt(ctx: Ctx) -> Result<GbtModel, String> {
    let g = spans::enter(ctx, "infer.model_load", "");
    let model = harness::model_registry().gbt("gbt-v1");
    g.finish(Counts::none().with("loads", 1));
    model
}

/// `Estimator::estimate` on every window; returns a digest of the estimates.
pub fn estimate_all(ctx: Ctx, gbt: &GbtModel, spec: &Spec, taps: &[&[WindowFeatures]]) -> u64 {
    let g = spans::enter(ctx, "infer.estimate", "");
    let mut h = Fnv::default();
    let mut n = 0;
    for w in taps.iter().flat_map(|t| t.iter()) {
        let e = gbt.estimate(w);
        h.u64(e.window);
        h.f64(e.media_mbps);
        h.f64(e.fps);
        n += 1;
    }
    g.finish(
        Counts::none()
            .with("windows", n)
            .with("sim_us", sim_us(spec)),
    );
    h.finish()
}

/// Digest of the passive features themselves (`infer::gbt_feature_vector`
/// of every window): equal online and offline iff extraction agrees.
pub fn windows_digest(taps: &[&[WindowFeatures]]) -> u64 {
    let mut h = Fnv::default();
    for w in taps.iter().flat_map(|t| t.iter()) {
        h.u64(w.window);
        for x in gbt_feature_vector(w) {
            h.f64(x);
        }
    }
    h.finish()
}

/// Log events fed straight to `TapBank::record` — extraction without the
/// engine and without serialization.
pub fn feed_taps(ctx: Ctx, log: &Log, spec: &Spec) -> Vec<Windows> {
    let g = spans::enter(ctx, "infer.tapbank_record", "");
    let taps = harness::taps_for(spec);
    let mut bank = TapBank::new(&[taps.send, taps.recv]);
    for e in log.events() {
        bank.record(e.at, e.kind.clone());
    }
    let windows = bank.finish(end_of(spec));
    g.finish(Counts::none().with("tel_events", log.len() as u64));
    windows
}

// ------------------------------------------------------------- fingerprint

/// The `centroid-v1` artifact through `harness::model_registry` and
/// `CentroidModel::from_json`.
pub fn load_centroid(ctx: Ctx) -> Result<CentroidModel, String> {
    let g = spans::enter(ctx, "fingerprint.model_load", "");
    let model = harness::model_registry()
        .raw_json("centroid-v1")
        .and_then(CentroidModel::from_json);
    g.finish(Counts::none().with("loads", 1));
    model
}

/// `Classifier::classify` of the centroid model; returns the family name.
pub fn classify(ctx: Ctx, model: &CentroidModel, fp: &CallFingerprint) -> &'static str {
    let g = spans::enter(ctx, "fingerprint.classify", "");
    let family = model.classify(fp).name();
    g.finish(Counts::none().with("calls", 1));
    family
}

/// Digest of a call fingerprint's feature vector.
pub fn fingerprint_digest(fp: &CallFingerprint) -> u64 {
    let mut h = Fnv::default();
    for x in fp.feature_vector() {
        h.f64(x);
    }
    h.finish()
}

/// Log events fed straight to `FingerprintBank::record`.
pub fn feed_fingerprint(ctx: Ctx, log: &Log, spec: &Spec) -> CallFingerprint {
    let g = spans::enter(ctx, "fingerprint.bank_record", "");
    let mut bank = FingerprintBank::new(&harness::fp_taps_for(spec));
    for e in log.events() {
        bank.record(e.at, e.kind.clone());
    }
    let flows = bank.finish(end_of(spec));
    g.finish(Counts::none().with("tel_events", log.len() as u64));
    call_fingerprint(flows)
}

// ----------------------------------------------------------------- observe

/// The observe configuration every workload uses.
pub fn observe_config() -> ObserveConfig {
    ObserveConfig::default()
}

/// `observe::diagnose_jsonl` with the run's real end time.
pub fn diagnose_jsonl(
    ctx: Ctx,
    text: &str,
    spec: &Spec,
    cfg: &ObserveConfig,
) -> Result<Diagnosis, String> {
    let g = spans::enter(ctx, "observe.diagnose_jsonl", "");
    let diag = observe::diagnose_jsonl(text, cfg, Some(end_of(spec)));
    let n = diag.as_ref().map_or(0, |d| d.timeline.spans.len() as u64);
    g.finish(Counts::none().with("obs_spans", n));
    diag
}

/// `Diagnosis::to_json_value` rendered to compact JSON.
pub fn diagnosis_json(ctx: Ctx, diag: &Diagnosis) -> String {
    let g = spans::enter(ctx, "observe.diagnosis_json", "");
    let text = serde_json::to_string(&diag.to_json_value())
        .expect("a diagnosis value tree always serializes");
    g.finish(Counts::none().with("bytes", text.len() as u64));
    text
}

/// Log events fed straight to `SpanBuilder::record`, then `finish`.
pub fn feed_spans(ctx: Ctx, log: &Log, spec: &Spec, cfg: &ObserveConfig) -> Timeline {
    let g = spans::enter(ctx, "observe.spanbuilder_record", "");
    let mut builder = SpanBuilder::new(cfg.clone());
    for e in log.events() {
        builder.record(e.at, e.kind.clone());
    }
    let timeline = builder.finish(end_of(spec));
    g.finish(
        Counts::none()
            .with("tel_events", log.len() as u64)
            .with("obs_spans", timeline.spans.len() as u64)
            .with("sim_us", sim_us(spec)),
    );
    timeline
}

/// `observe::diagnose` over a derived timeline.
pub fn diagnose(ctx: Ctx, timeline: Timeline, cfg: &ObserveConfig) -> Diagnosis {
    let g = spans::enter(ctx, "observe.diagnose", "");
    let diag = observe::diagnose(timeline, cfg);
    g.finish(Counts::none().with("runs", 1));
    diag
}

/// `observe::diff_runs` of a run against itself; returns whether the diff
/// engine found them identical (it must).
pub fn diff_self(ctx: Ctx, diag: &Diagnosis) -> bool {
    let g = spans::enter(ctx, "observe.diff_runs", "");
    let identical = observe::diff_runs("self", diag, diag).is_identical();
    g.finish(Counts::none().with("pairs", 1));
    identical
}

// -------------------------------------------------------- isolated drivers
//
// Engine-internal layers cannot be spanned in situ from outside, so each
// gets a driver loop over its public type. Inputs are seeded; the counts
// that load them (queue depth, packet sizes) come from in-situ spans.

/// `EventQueue::schedule` + `pop` held at `depth` pending events, with
/// every eighth op also scheduling and cancelling an extra event.
pub fn drive_queue(ctx: Ctx, depth: u64, ops: u64, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let deltas: Vec<u64> = (0..4096).map(|_| rng.int_range(1, 1_000_000)).collect();
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_micros(deltas[i as usize % deltas.len()]), i);
    }
    let g = spans::enter(ctx, "simcore.event_queue", "");
    for i in 0..ops {
        let (at, payload) = q.pop().expect("the queue is held at a positive depth");
        let delta = SimDuration::from_micros(deltas[i as usize % deltas.len()]);
        q.schedule(at + delta, payload);
        if i % 8 == 0 {
            let id = q.schedule(at + delta + delta, payload);
            black_box(q.cancel(id));
        }
    }
    black_box(q.len());
    g.finish(Counts::none().with("ops", ops).with("depth", depth));
}

/// `Link::enqueue`/`complete` under constant-bit-rate load at 1.2× a
/// 1 Mbps drop-tail link, `size`-byte packets.
pub fn drive_link(ctx: Ctx, name: &'static str, size: usize, packets: u64) {
    let cfg = LinkConfig::mbps(1.0, SimDuration::from_millis(1));
    let mut link: Link<()> = Link::new(cfg, NodeId(1));
    let gap = SimDuration::from_micros((size as f64 * 8.0 / 1.2).round() as u64);
    let (mut arrival, mut done): (SimTime, Option<SimTime>) = (SimTime::ZERO, None);
    let (mut offered, mut dropped) = (0u64, 0u64);
    let g = spans::enter(ctx, name, "");
    while offered < packets {
        match done {
            Some(at) if at <= arrival => done = link.complete(at).1,
            _ => {
                let pkt = Packet {
                    id: offered,
                    flow: FlowId(1),
                    src: NodeId(0),
                    dst: NodeId(1),
                    size,
                    sent_at: arrival,
                    payload: (),
                };
                match link.enqueue(arrival, pkt) {
                    EnqueueOutcome::StartTx(at) => done = Some(at),
                    EnqueueOutcome::Queued => {}
                    EnqueueOutcome::Dropped => dropped += 1,
                }
                offered += 1;
                arrival += gap;
            }
        }
    }
    g.finish(
        Counts::none()
            .with("packets", offered)
            .with("dropped", dropped),
    );
}

/// A trivial constant-rate sender for the bare-forwarding driver.
struct CbrAgent {
    dst: NodeId,
    gap: SimDuration,
}

impl Agent<()> for CbrAgent {
    fn start(&mut self, ctx: &mut NetCtx<'_, ()>) {
        ctx.set_timer_after(self.gap, 0);
    }
    fn on_packet(&mut self, _ctx: &mut NetCtx<'_, ()>, _pkt: Packet<()>) {}
    fn on_timer(&mut self, ctx: &mut NetCtx<'_, ()>, _timer: u64) {
        ctx.send(FlowId(1), self.dst, 1140, ());
        ctx.set_timer_after(self.gap, 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Counts what reaches it.
#[derive(Default)]
struct SinkAgent {
    received: u64,
}

impl Agent<()> for SinkAgent {
    fn on_packet(&mut self, _ctx: &mut NetCtx<'_, ()>, _pkt: Packet<()>) {
        self.received += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A bare two-node `Network` with a constant-rate `Agent` and no VCA: the
/// engine's floor per event. Runs `sim_secs` of 1000 packets/s.
pub fn drive_forward(ctx: Ctx, sim_secs: u64) {
    let mut net: Network<()> = Network::new();
    let sink = net.add_agent(Box::new(SinkAgent::default()));
    let src = net.add_agent(Box::new(CbrAgent {
        dst: sink,
        gap: SimDuration::from_millis(1),
    }));
    let link = net.add_link(
        src,
        sink,
        LinkConfig::mbps(100.0, SimDuration::from_millis(1)),
    );
    net.route(src, sink, link);
    let g = spans::enter(ctx, "netsim.forward", "");
    net.run_until(SimTime::from_secs(sim_secs));
    let stats = net.engine_stats();
    let received = net.agent::<SinkAgent>(sink).received;
    g.finish(
        Counts::none()
            .with("events", stats.events_processed)
            .with("packets", received),
    );
}

/// `tcp::Connection::on_ack`/`poll` against a `TcpReceiver`, every
/// hundredth segment lost, until `acks` acknowledgements were processed.
pub fn drive_tcp(ctx: Ctx, acks: u64) {
    let mut tx = Connection::new(TcpConfig::default(), None);
    let mut rx = TcpReceiver::new();
    let mut now = SimTime::ZERO;
    let mut wire = tx.poll(now);
    let (mut processed, mut segments) = (0u64, 0u64);
    let g = spans::enter(ctx, "transport.tcp", "");
    while processed < acks {
        now += SimDuration::from_millis(20);
        let mut next = Vec::new();
        for s in wire.drain(..) {
            segments += 1;
            if segments % 100 == 0 {
                continue;
            }
            let ack = rx.on_segment(s.seq, s.len);
            next.extend(tx.on_ack(now, ack));
            processed += 1;
        }
        next.extend(tx.poll(now));
        wire = next;
    }
    black_box(rx.bytes_received);
    g.finish(
        Counts::none()
            .with("acks", processed)
            .with("segments", segments),
    );
}

fn rtp_packet(seq: u64, frame_id: u64, marker: bool, frame_pkts: u16, at: SimTime) -> RtpPacket {
    RtpPacket {
        ssrc: 1,
        seq,
        kind: StreamKind::Video,
        layer: Layer::default(),
        frame_id,
        marker,
        frame_pkts,
        is_fec: false,
        is_retransmit: false,
        capture_ts: at,
        meta: None,
    }
}

/// `RtpRecvState::on_packet`, one sequence number in fifty missing and an
/// interval report taken every hundred packets.
pub fn drive_rtp_recv(ctx: Ctx, packets: u64) {
    let mut rx = RtpRecvState::new();
    let g = spans::enter(ctx, "transport.rtp_recv", "");
    let mut seq = 0u64;
    for i in 0..packets {
        seq += if i % 50 == 49 { 2 } else { 1 };
        let now = SimTime::from_micros(i * 1_000);
        rx.on_packet(
            now,
            black_box(&rtp_packet(seq, i / 5, i % 5 == 4, 5, now)),
            1140,
        );
        if i % 100 == 99 {
            black_box(rx.take_interval());
        }
    }
    g.finish(Counts::none().with("packets", packets));
}

fn drive_controller(ctx: Ctx, name: &'static str, mut cc: impl RateController, reports: u64) {
    let mut link = SyntheticLink::new(1.0);
    let g = spans::enter(ctx, name, "");
    for i in 0..reports {
        let fb = link.step(
            SimTime::from_millis(i * 100),
            cc.target_mbps(),
            SimDuration::from_millis(100),
        );
        cc.on_report(&fb);
    }
    black_box(cc.target_mbps());
    g.finish(Counts::none().with("reports", reports));
}

/// Each congestion controller against `SyntheticLink`, `reports` each.
pub fn drive_controllers(ctx: Ctx, reports: u64, seed: u64) {
    drive_controller(
        ctx,
        "congestion.gcc",
        GccController::new(GccConfig::default()),
        reports,
    );
    drive_controller(
        ctx,
        "congestion.fbra",
        FbraController::new(FbraConfig::default()),
        reports,
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let teams = TeamsController::new(TeamsConfig::default(), &mut rng);
    drive_controller(ctx, "congestion.teams", teams, reports);
}

/// `TalkingHeadSource::next_frame` at 1.5 Mbps, 30 fps, 720p.
pub fn drive_source(ctx: Ctx, frames: u64, seed: u64) {
    let mut source = TalkingHeadSource::new(SimRng::seed_from_u64(seed));
    let g = spans::enter(ctx, "media.source", "");
    let mut bytes = 0usize;
    for _ in 0..frames {
        bytes += source.next_frame(1.5, 30.0, 1280, 720).bytes;
    }
    black_box(bytes);
    g.finish(Counts::none().with("frames", frames));
}

/// `FrameAssembler::on_packet` + `FreezeDetector::on_frame`, five packets
/// per frame at 30 fps.
pub fn drive_assemble(ctx: Ctx, packets: u64) {
    let mut assembler = FrameAssembler::new();
    let mut freeze = FreezeDetector::new(30.0);
    let g = spans::enter(ctx, "media.assemble", "");
    let mut frames = 0u64;
    for i in 0..packets {
        let frame = i / 5;
        let now = SimTime::from_micros(frame * 33_333 + (i % 5) * 200);
        let pkt = rtp_packet(i, frame, i % 5 == 4, 5, now);
        if let AssembleEvent::FrameComplete { .. } = assembler.on_packet(now, &pkt, 1140) {
            freeze.on_frame(now);
            frames += 1;
        }
    }
    black_box(freeze.frames);
    g.finish(
        Counts::none()
            .with("packets", packets)
            .with("frames", frames),
    );
}

/// Whether two scenarios are identical once their seeds are made equal.
#[cfg(test)]
pub fn equal_but_for_seed(a: &Spec, b: &Spec) -> bool {
    let mut b = b.clone();
    b.set_seed(a.seed());
    *a == b
}
