//! # vcabench-fingerprint
//!
//! Flow-level VCA identification: the pipeline stage *ahead of* passive
//! QoE inference. The paper's passive methodology presumes the observer
//! already knows which application a media flow belongs to; this crate
//! reconstructs that knowledge from packet-level observables alone —
//! sizes, timestamps, and direction, exactly what an on-path observer of
//! an encrypted RTP flow gets.
//!
//! - [`features`] — streaming [`FlowAccumulator`]/[`FingerprintBank`]
//!   (a [`vcabench_telemetry::Recorder`], so it runs online during a
//!   simulation or offline over exported `.events.jsonl` traces) folding
//!   packet events into a call-level [`CallFingerprint`]: packet-class
//!   mix, inter-arrival statistics, frame cadence, rate oscillation,
//!   directional byte ratios. Taps, packet classes and
//!   frame boundaries are not defined here: they are the shared flow
//!   core's, [`vcabench_infer::flow`].
//! - [`classifier`] — the pluggable [`Classifier`] trait with a
//!   training-free [`RuleClassifier`] and a trained nearest-centroid
//!   [`CentroidModel`] frozen as the schema-versioned artifact
//!   `models/centroid-v1.json`.
//!
//! The harness layer (`vcabench-harness::fingerprint`) places taps,
//! scores identification accuracy against spec ground truth, and routes
//! each `repro infer` run to a per-VCA estimator for the routed report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod features;

pub use classifier::{
    CentroidModel, Classifier, RuleClassifier, VcaFamily, MODEL_SCHEMA, RULE_MEET_FPS,
    RULE_MEET_FULL_FRACTION, RULE_TEAMS_IAT_CV,
};
pub use features::{
    CallFingerprint, FingerprintBank, FlowAccumulator, FlowFingerprint, FP_FEATURE_NAMES,
    NUM_FP_FEATURES,
};
