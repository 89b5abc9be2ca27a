//! # vcabench-infer — passive QoE inference from packet traces
//!
//! The paper measures video-conferencing QoE from the inside
//! (`webrtc-internals`, per-second stats APIs). This crate asks how much
//! of that an *on-path network observer* can recover from encrypted
//! packet headers alone — timestamps, sizes, and loss — and answers it
//! with a streaming inference pipeline validated against the simulator's
//! own ground-truth stats:
//!
//! 1. **Flow core** ([`flow`]): the one definition of what a passive
//!    observer reads off a packet — a tap ([`TapSpec`]: `link` × `flow` ×
//!    [`Vantage`]) and its event filter, the audio / video / full-sized
//!    packet classes, the marker/gap [`flow::FrameSegmenter`] and the
//!    one-second window clock. `vcabench-fingerprint` consumes the same
//!    module.
//! 2. **Features** ([`features`]): a single-pass [`Extractor`] per tap
//!    folds what the core says about each packet into per-second
//!    [`WindowFeatures`] — byte/packet counts by size class, frame
//!    counts, and the receiver's §3.2 freeze rule
//!    ([`vcabench_stats::FrameDelta`]) driven by inferred decodable
//!    frames. It implements [`vcabench_telemetry::Recorder`], so it runs
//!    online during a
//!    simulation or offline over an exported `.events.jsonl` trace with
//!    identical results. `vcabench-fingerprint` sums the same windows into
//!    its call fingerprints, so each tap is folded once.
//! 3. **Estimators** ([`estimator`], [`gbt`]): the [`Estimator`] trait
//!    maps window features to bitrate/FPS/freeze estimates. The
//!    [`HeuristicEstimator`] is training-free and kept as the report's
//!    baseline; the one learned estimator, [`GbtModel`], is a
//!    gradient-boosted tree ensemble over the window features
//!    (inter-arrival CV, size moments, burst structure, lagged context)
//!    that learns *regime-dependent* FEC discounts. It freezes as a
//!    schema-versioned JSON artifact, and [`GbtModel::builtin`] loads the
//!    committed one through its typed loader, [`GbtModel::from_json`].
//! 4. **Validation** (in `vcabench-harness::infer` and `repro infer`):
//!    campaigns run with taps attached, estimates are joined per window
//!    against `stats_api` ground truth, and the accuracy report (error
//!    CDFs, freeze precision/recall) gates CI.

pub mod estimator;
pub mod features;
pub mod flow;
pub mod gbt;

pub use estimator::{Estimator, HeuristicEstimator, WindowEstimate};
pub use features::{Extractor, TapBank, WindowFeatures, ROLL_WINDOWS};
pub use flow::{TapSpec, Vantage, AUDIO_WIRE, FULL_WIRE, HEADER_BYTES, VIDEO_MIN_WIRE};
pub use gbt::{
    gbt_feature_vector, GbtModel, GbtParams, GBT_FEATURE_NAMES, GBT_MODEL_SCHEMA, NUM_GBT_FEATURES,
};
