//! # vcabench
//!
//! A deterministic, packet-level reproduction of *"Measuring the Performance
//! and Network Utilization of Popular Video Conferencing Applications"*
//! (MacMillan, Saxon, Mangla, Feamster — IMC 2021).
//!
//! The paper measures the real Zoom, Google Meet, and Microsoft Teams
//! clients in a shaped laboratory network. This crate replaces every piece
//! of that laboratory with an executable model — a discrete-event packet
//! simulator, RTP/RTCP/TCP transports, the three VCAs' congestion
//! controllers and media pipelines, their relay/SFU servers, and the
//! competing applications (iPerf3, Netflix, YouTube) — and regenerates all
//! of the paper's tables and figures on top of it.
//!
//! ## Quick start
//!
//! ```
//! use vcabench::prelude::*;
//!
//! // A 30-second two-party Zoom call with a 1 Mbps uplink cap on client 1.
//! let spec = Direction::Up.call(
//!     VcaKind::Zoom,
//!     RateProfile::constant_mbps(1.0),
//!     SimDuration::from_secs(30),
//!     42,
//! );
//! let (call, _engine) = run::two_party(&spec, &Telemetry::disabled());
//! let sent = TwoPartyOutcome::rate_between(
//!     &call.up_series,
//!     SimTime::from_secs(10),
//!     SimTime::from_secs(30),
//! );
//! assert!(sent > 0.5, "Zoom should fill most of a 1 Mbps uplink: {sent}");
//! ```
//!
//! [`harness::run`] has one runner per topology (`two_party`,
//! `competition`, `multiparty`), each taking the [`campaign`] crate's spec
//! struct for it; [`harness::experiments::sweep`] runs a grid of them on any
//! number of workers. To read more of a call than an outcome holds, hand a
//! `read` hook to the runner's `_on` form ([`harness::run::two_party_on`]
//! and its siblings). A lab the spec language cannot describe, or one you
//! script mid-call, is built by hand: [`netsim::topology`]'s `*_on`
//! builders lay out the nodes and [`vca::wire_call`] places each call on
//! them (see `examples/broadband_policy.rs`).
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`simcore`] | virtual time, event queue, seeded RNG |
//! | [`netsim`] | packets, links, `tc`-style shaping, topologies, traces |
//! | [`transport`] | RTP/RTCP, TCP CUBIC, QUIC-lite |
//! | [`congestion`] | GCC (Meet), FBRA-style (Zoom), conservative (Teams) |
//! | [`media`] | codec rate model, adaptation policies, simulcast/SVC, freezes |
//! | [`vca`] | clients, SFU/relay servers, calls, layouts, WebRTC-style stats |
//! | [`apps`] | iPerf3, Netflix, YouTube |
//! | [`stats`] | medians/CIs, time-to-recovery, link shares |
//! | [`campaign`] | declarative scenario specs, parallel executor, result cache |
//! | [`telemetry`] | deterministic event tracing, metrics, trace export |
//! | [`infer`] | passive QoE inference from packet traces (features, estimators) |
//! | [`fingerprint`] | flow-level VCA identification (features, classifiers) |
//! | [`observe`] | span timeline, anomaly diagnosis, trace diff over telemetry |
//! | [`harness`] | one runner per topology, one sweep, one module per paper table/figure, plus inference validation |
//! | `cli` | the `repro` binary and the one table that declares its command line |
//!
//! Reproduce everything: `cargo run --release -p vcabench-cli --bin repro -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vcabench_apps as apps;
pub use vcabench_campaign as campaign;
pub use vcabench_congestion as congestion;
pub use vcabench_fingerprint as fingerprint;
pub use vcabench_harness as harness;
pub use vcabench_infer as infer;
pub use vcabench_media as media;
pub use vcabench_netsim as netsim;
pub use vcabench_observe as observe;
pub use vcabench_simcore as simcore;
pub use vcabench_stats as stats;
pub use vcabench_telemetry as telemetry;
pub use vcabench_transport as transport;
pub use vcabench_vca as vca;

/// The most common imports for building and measuring simulated calls.
pub mod prelude {
    pub use vcabench_campaign::{
        Axes, CampaignSpec, CompetitionSpec, CompetitorSpec, MultipartySpec, ScenarioOutcome,
        ScenarioSpec, ScenarioTemplate, SeedAxis, TwoPartySpec,
    };
    pub use vcabench_fingerprint::{
        CentroidModel, Classifier, FingerprintBank, RuleClassifier, VcaFamily,
    };
    pub use vcabench_harness::experiments::{grid, sweep, Direction};
    pub use vcabench_harness::{
        run, run_campaign_cached, run_campaign_cached_traced, run_spec, run_spec_infer,
        run_spec_observe, run_spec_traced, CompetitionOutcome, MultipartyOutcome, TwoPartyOutcome,
    };
    pub use vcabench_infer::{Estimator, GbtModel, HeuristicEstimator, TapBank, Vantage};
    pub use vcabench_netsim::{LinkConfig, Network, RateProfile};
    pub use vcabench_observe::{diagnose, diagnose_jsonl, Diagnosis, ObserveConfig, SpanBuilder};
    pub use vcabench_simcore::{SimDuration, SimRng, SimTime};
    pub use vcabench_telemetry::{EventKind, EventLog, Telemetry};
    pub use vcabench_transport::Wire;
    pub use vcabench_vca::{wire_call, VcaClient, VcaKind, ViewMode};
}
