//! # vcabench-harness
//!
//! The experiment harness: for every table and figure in *"Measuring the
//! Performance and Network Utilization of Popular Video Conferencing
//! Applications"* (IMC 2021), a module that regenerates it on the simulated
//! substrate — workload, parameter sweep, statistics, and a text rendering
//! of the same rows/series the paper reports.
//!
//! The `repro` binary (in `vcabench-cli`, which sits above this crate)
//! drives everything:
//! `cargo run --release -p vcabench-cli --bin repro -- all --quick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod fingerprint;
pub mod infer;
pub mod observe;
pub mod render;
pub mod run;
pub mod telemetry;

pub use campaign::{pinned_suite, run_campaign_cached, run_spec, run_spec_metered};
pub use fingerprint::{
    build_identify_report, family_of, fit_centroid, fp_taps_for, identify_report_json,
    passive_suite, render_identify_report, render_routed_report, routed_report, routed_report_json,
    run_spec_fingerprint_metered, spec_family, spec_kind, training_suite, IdentifyReport,
    PassiveRun, RoutedReport, MAX_ROUTED_DELTA, MIN_ID_ACCURACY,
};
pub use infer::{
    build_report, fit_gbt, infer_report_json, join_windows, model_registry, render_infer_report,
    run_spec_infer_metered, score, taps_for, InferOutcome, InferReport, WindowRow, MAX_BITRATE_ERR,
    MIN_FREEZE_RECALL,
};
pub use observe::{
    gate_failures, observe_report_json, observe_suite, pinned_disruption_suite,
    render_observe_report, run_spec_observe_metered, ObserveReport, ObserveRun, ObserveScenario,
    OBSERVE_REPORT_SCHEMA,
};
pub use run::{CompetitionOutcome, MultipartyOutcome, TwoPartyOutcome};
pub use telemetry::{run_campaign_cached_traced, run_spec_traced};
