//! Calibrated linear estimator with a versioned JSON model artifact.
//!
//! The heuristic estimator's one systematic error is FEC: parity packets
//! are full-sized video packets on the wire, indistinguishable from media
//! without decrypting, so FEC-heavy senders (Zoom runs up to 2× parity
//! per media byte) read up to 3× high. A small ridge regression fixes
//! this: alongside the raw video rate it sees `video_mbps ×
//! full_fraction` — the share of the rate carried in full-sized packets,
//! which is where all the parity lives — letting the fit discount
//! exactly the FEC-shaped part of the traffic while staying near-identity
//! for FEC-light senders.
//!
//! Models are fit offline from campaign runs joined against ground-truth
//! stats (`repro infer --fit`), then frozen as a schema-versioned JSON
//! artifact. The artifact committed at `crates/infer/models/linear-v1.json`
//! is compiled in via [`LinearModel::builtin`]; loading rejects unknown
//! schema tags or reordered feature lists, so a stale artifact fails
//! loudly instead of silently mis-predicting.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vcabench_telemetry::artifact;

use crate::estimator::{Estimator, WindowEstimate};
use crate::features::WindowFeatures;

/// Schema tag of the model artifact.
pub const MODEL_SCHEMA: &str = "vcabench-infer-linear/v1";

/// Number of input features (excluding the intercept).
pub const NUM_FEATURES: usize = 6;

/// Feature names, in the order [`feature_vector`] produces them. Part of
/// the artifact schema: a loaded model must list exactly these.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "video_mbps",
    "video_full_mbps",
    "frames",
    "video_pkts",
    "small_pkts",
    "mean_video_kb",
];

/// The model's input vector for one window.
pub fn feature_vector(w: &WindowFeatures) -> [f64; NUM_FEATURES] {
    let video_mbps = w.video_mbps();
    [
        video_mbps,
        video_mbps * w.full_fraction(),
        w.frames as f64,
        w.video_pkts as f64,
        w.small_pkts as f64,
        w.mean_video_payload() * 1e-3,
    ]
}

/// A linear model per target metric: `y = w[0] + Σ w[i+1]·x[i]`,
/// predictions clamped at zero. Freeze verdicts pass through from the
/// replica detector — they are event-level, not regressable per window.
/// Serializes as one `kinds` entry of the per-kind bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Bitrate weights (intercept first, then [`FEATURE_NAMES`] order).
    pub bitrate: [f64; NUM_FEATURES + 1],
    /// FPS weights, same layout.
    pub fps: [f64; NUM_FEATURES + 1],
}

/// The `vcabench-infer-linear/v1` artifact (`linear-v1.json`) behind its
/// tag: a [`LinearModel`] under the feature list it was fitted on.
#[derive(Serialize, Deserialize)]
struct LinearArtifact {
    features: Vec<String>,
    bitrate: [f64; NUM_FEATURES + 1],
    fps: [f64; NUM_FEATURES + 1],
}

fn predict(weights: &[f64; NUM_FEATURES + 1], x: &[f64; NUM_FEATURES]) -> f64 {
    let mut y = weights[0];
    for i in 0..NUM_FEATURES {
        y += weights[i + 1] * x[i];
    }
    y.max(0.0)
}

impl LinearModel {
    /// Fit both targets by weighted ridge regression. Each target gets
    /// its own `(features, truth, weight)` training rows — the bitrate
    /// trains on send and receive taps alike, while FPS truth (decoded
    /// frames) only exists at the receive side. Weights let the caller
    /// minimize *relative* rather than absolute error (weight `1/y²`),
    /// so a 2.5 Mbps Teams window doesn't outvote ten 0.3 Mbps shaped
    /// ones. `ridge` is added to the diagonal of the normal equations
    /// (intercept excluded), keeping the solve well-posed when features
    /// are collinear (e.g. an all-FEC-free training set). Deterministic:
    /// plain f64 arithmetic over the rows in order.
    pub fn fit(
        bitrate_rows: &[([f64; NUM_FEATURES], f64, f64)],
        fps_rows: &[([f64; NUM_FEATURES], f64, f64)],
        ridge: f64,
    ) -> Option<LinearModel> {
        Some(LinearModel {
            bitrate: fit_one(bitrate_rows, ridge)?,
            fps: fit_one(fps_rows, ridge)?,
        })
    }

    /// The committed model artifact, compiled into the crate (resolved
    /// through the [`crate::ModelRegistry`]).
    pub fn builtin() -> LinearModel {
        crate::ModelRegistry::builtin()
            .linear("linear-v1")
            .expect("committed model artifact is valid")
    }

    /// Serialize to the versioned artifact format (pretty JSON, fixed key
    /// order — artifacts are diffed and committed). A weight that is not
    /// finite is an error.
    pub fn to_json(&self) -> Result<String, String> {
        let body = LinearArtifact {
            features: artifact::list(&FEATURE_NAMES),
            bitrate: self.bitrate,
            fps: self.fps,
        };
        artifact::frozen_json(MODEL_SCHEMA, &body)
    }

    /// Parse and validate an artifact.
    pub fn from_json(text: &str) -> Result<LinearModel, String> {
        let what = "model artifact";
        let a: LinearArtifact = artifact::from_json(what, MODEL_SCHEMA, text)?;
        artifact::expect_list(what, "feature", &a.features, &FEATURE_NAMES)?;
        Ok(LinearModel {
            bitrate: a.bitrate,
            fps: a.fps,
        })
    }
}

/// Schema tag of the per-kind model bundle artifact.
pub const KIND_MODEL_SCHEMA: &str = "vcabench-infer-linear-kinds/v1";

/// The `vcabench-infer-linear-kinds/v1` artifact (`linear-kinds-v1.json`)
/// behind its tag: a [`KindModels`] under the feature list it was fitted on.
#[derive(Serialize, Deserialize)]
struct KindsArtifact {
    features: Vec<String>,
    kinds: BTreeMap<String, LinearModel>,
}

/// A bundle of per-application calibrated models, keyed by application
/// family name (`"Meet"`, `"Teams"`, `"Zoom"` — string keys so this
/// crate stays free of the application-model layer).
///
/// One global [`LinearModel`] must average over every sender's FEC
/// habit; a per-kind model can discount exactly its own application's
/// overhead. The flow-level identification stage (`vcabench-fingerprint`)
/// selects which entry to apply — `repro infer --identify` routes each
/// run through the classifier instead of reading the kind from the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct KindModels {
    /// `(family name, model)` pairs, sorted by name (artifact order).
    pub models: Vec<(String, LinearModel)>,
}

impl KindModels {
    /// Build from pairs; keys are sorted for a canonical artifact.
    pub fn new(mut models: Vec<(String, LinearModel)>) -> KindModels {
        models.sort_by(|a, b| a.0.cmp(&b.0));
        KindModels { models }
    }

    /// The model for a family name, if present.
    pub fn get(&self, name: &str) -> Option<&LinearModel> {
        self.models.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// The committed per-kind bundle, compiled into the crate (resolved
    /// through the [`crate::ModelRegistry`]).
    pub fn builtin() -> KindModels {
        crate::ModelRegistry::builtin()
            .kinds("linear-kinds-v1")
            .expect("committed per-kind model artifact is valid")
    }

    /// Serialize to the versioned artifact format (pretty JSON, fixed
    /// key order — artifacts are diffed and committed). A weight that is
    /// not finite is an error.
    pub fn to_json(&self) -> Result<String, String> {
        let body = KindsArtifact {
            features: artifact::list(&FEATURE_NAMES),
            kinds: self.models.iter().cloned().collect(),
        };
        artifact::frozen_json(KIND_MODEL_SCHEMA, &body)
    }

    /// Parse and validate an artifact.
    pub fn from_json(text: &str) -> Result<KindModels, String> {
        let what = "kind models";
        let a: KindsArtifact = artifact::from_json(what, KIND_MODEL_SCHEMA, text)?;
        artifact::expect_list(what, "feature", &a.features, &FEATURE_NAMES)?;
        if a.kinds.is_empty() {
            return Err(format!("{what}: empty `kinds` object"));
        }
        Ok(KindModels::new(a.kinds.into_iter().collect()))
    }
}

/// Normal-equations weighted ridge fit for one target.
fn fit_one(
    rows: &[([f64; NUM_FEATURES], f64, f64)],
    ridge: f64,
) -> Option<[f64; NUM_FEATURES + 1]> {
    if rows.is_empty() {
        return None;
    }
    const N: usize = NUM_FEATURES + 1;
    let mut xtx = [[0.0f64; N]; N];
    let mut xty = [0.0f64; N];
    for (x, y, weight) in rows {
        let mut aug = [1.0f64; N];
        aug[1..].copy_from_slice(x);
        for i in 0..N {
            for j in 0..N {
                xtx[i][j] += weight * aug[i] * aug[j];
            }
            xty[i] += weight * aug[i] * y;
        }
    }
    for (i, row) in xtx.iter_mut().enumerate().skip(1) {
        row[i] += ridge;
    }
    solve(xtx, xty)
}

/// Solve `A·w = b` by Gaussian elimination with partial pivoting
/// (deterministic: ties keep the lowest row). `None` on a singular
/// system.
fn solve(
    mut a: [[f64; NUM_FEATURES + 1]; NUM_FEATURES + 1],
    mut b: [f64; NUM_FEATURES + 1],
) -> Option<[f64; NUM_FEATURES + 1]> {
    const N: usize = NUM_FEATURES + 1;
    for col in 0..N {
        let mut pivot = col;
        for row in col + 1..N {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..N {
            let f = a[row][col] / a[col][col];
            let (head, tail) = a.split_at_mut(row);
            for (cell, &p) in tail[0].iter_mut().zip(head[col].iter()).skip(col) {
                *cell -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut w = [0.0f64; N];
    for col in (0..N).rev() {
        let mut acc = b[col];
        for k in col + 1..N {
            acc -= a[col][k] * w[k];
        }
        w[col] = acc / a[col][col];
    }
    Some(w)
}

impl Estimator for LinearModel {
    fn name(&self) -> &'static str {
        "calibrated"
    }

    fn estimate(&self, w: &WindowFeatures) -> WindowEstimate {
        let x = feature_vector(w);
        WindowEstimate {
            window: w.window,
            media_mbps: predict(&self.bitrate, &x),
            fps: predict(&self.fps, &x),
            freeze_count: w.freeze_count,
            freeze_time_s: w.freeze_time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(video_payload: u64, pkts: u64, full: u64, frames: u64) -> WindowFeatures {
        WindowFeatures {
            video_payload_bytes: video_payload,
            video_pkts: pkts,
            full_pkts: full,
            frames,
            frames_decodable: frames,
            ..WindowFeatures::default()
        }
    }

    #[test]
    fn fit_recovers_a_planted_linear_law() {
        // Ground truth: media = 0.5 × video_mbps (a 2× FEC overhead on
        // full packets), fps = frames.
        let mut bitrate_rows = Vec::new();
        let mut fps_rows = Vec::new();
        for i in 1..40u64 {
            let w = window(40_000 * i, 30 + i, 25 + i, 30);
            let x = feature_vector(&w);
            bitrate_rows.push((x, 0.5 * x[0], 1.0));
            fps_rows.push((x, x[2], 1.0));
        }
        let m = LinearModel::fit(&bitrate_rows, &fps_rows, 1e-6).expect("fit");
        for ((x, bitrate, _), (_, fps, _)) in bitrate_rows.iter().zip(fps_rows.iter()) {
            assert!((predict(&m.bitrate, x) - bitrate).abs() < 1e-6);
            assert!((predict(&m.fps, x) - fps).abs() < 1e-6);
        }
        // Prediction clamps below zero.
        let zero = window(0, 0, 0, 0);
        assert!(m.estimate(&zero).media_mbps >= 0.0);
    }

    #[test]
    fn fit_handles_degenerate_inputs() {
        assert!(LinearModel::fit(&[], &[], 1e-6).is_none());
        // A single repeated row is collinear: ridge keeps it solvable.
        let w = window(100_000, 90, 60, 30);
        let rows = vec![(feature_vector(&w), 0.8, 1.0); 5];
        let fps_rows = vec![(feature_vector(&w), 30.0, 1.0); 5];
        let m = LinearModel::fit(&rows, &fps_rows, 1e-3).expect("ridge-regularized fit");
        let e = m.estimate(&w);
        assert!((e.media_mbps - 0.8).abs() < 0.05, "{}", e.media_mbps);
    }

    #[test]
    fn weights_tilt_the_fit() {
        // Two identical feature rows with conflicting targets: weighted
        // least squares settles on the weighted mean.
        let w = window(100_000, 90, 60, 30);
        let x = feature_vector(&w);
        let rows = vec![(x, 1.0, 9.0), (x, 2.0, 1.0)];
        let m = LinearModel::fit(&rows, &[(x, 30.0, 1.0)], 1e-3).expect("fit");
        let e = m.estimate(&w);
        assert!((e.media_mbps - 1.1).abs() < 0.05, "{}", e.media_mbps);
    }

    #[test]
    fn artifact_round_trips_and_rejects_bad_schemas() {
        let m = LinearModel {
            bitrate: [0.01, 0.9, -0.4, 0.0, 0.001, 0.0, 0.02],
            fps: [0.5, 0.0, 0.0, 0.95, 0.0, 0.0, 0.0],
        };
        let text = m.to_json().expect("finite");
        let back = LinearModel::from_json(&text).expect("round trip");
        assert_eq!(m, back);
        assert!(text.contains("\"schema\": \"vcabench-infer-linear/v1\""));
        // Wrong schema tag.
        let bad = text.replace("linear/v1", "linear/v9");
        assert!(LinearModel::from_json(&bad).unwrap_err().contains("schema"));
        // Reordered features.
        let bad = text.replace("video_mbps", "mbps_video");
        assert!(LinearModel::from_json(&bad)
            .unwrap_err()
            .contains("feature list"));
        // Truncated weights.
        assert!(LinearModel::from_json("{\"schema\":\"vcabench-infer-linear/v1\"}").is_err());
    }

    #[test]
    fn overflowed_weights_neither_load_nor_freeze() {
        let mut m = LinearModel {
            bitrate: [0.01, 0.9, -0.4, 0.0, 0.001, 0.0, 0.02],
            fps: [0.5, 0.0, 0.0, 0.95, 0.0, 0.0, 0.0],
        };
        // `1e999` is a well-formed JSON number that parses to `inf`.
        let text = m.to_json().unwrap().replace("0.95", "1e999");
        let err = LinearModel::from_json(&text).unwrap_err();
        assert!(err.contains("fps[3]: number is not finite"), "{err}");
        let kinds = KindModels::new(vec![("Zoom".to_string(), m.clone())]);
        let text = kinds.to_json().unwrap().replace("-0.4", "-1e999");
        let err = KindModels::from_json(&text).unwrap_err();
        assert!(err.contains("kinds.Zoom.bitrate[2]: number"), "{err}");
        m.bitrate[0] = f64::INFINITY;
        let err = m.to_json().unwrap_err();
        assert!(
            err.contains("bitrate[0]: expected number, found null"),
            "{err}"
        );
        let kinds = KindModels::new(vec![("Zoom".to_string(), m)]);
        let err = kinds.to_json().unwrap_err();
        assert!(
            err.contains("kinds.Zoom.bitrate[0]: expected number"),
            "{err}"
        );
    }

    #[test]
    fn kind_bundle_round_trips_and_rejects_an_empty_one() {
        let m = LinearModel {
            bitrate: [0.01, 0.9, -0.4, 0.0, 0.001, 0.0, 0.02],
            fps: [0.5, 0.0, 0.0, 0.95, 0.0, 0.0, 0.0],
        };
        let kinds = KindModels::new(vec![
            ("Zoom".to_string(), m.clone()),
            ("Meet".to_string(), m),
        ]);
        let text = kinds.to_json().expect("finite");
        assert_eq!(KindModels::from_json(&text), Ok(kinds));
        let start = text.find("\"kinds\"").expect("kinds member");
        let empty = format!("{}\"kinds\": {{}}\n}}\n", &text[..start]);
        let err = KindModels::from_json(&empty).unwrap_err();
        assert!(err.contains("empty `kinds`"), "{err}");
        let err = KindModels::from_json(&text.replace("0.95", "\"x\"")).unwrap_err();
        assert!(err.contains("kinds.Meet.fps[3]: expected number"), "{err}");
    }

    #[test]
    fn builtin_artifact_loads() {
        let m = LinearModel::builtin();
        // The committed model must be near-identity for FEC-free traffic:
        // Meet/Teams-like windows read within a few percent.
        let w = window(125_000, 115, 90, 30); // 1.0 Mbps payload
        let e = m.estimate(&w);
        assert!(
            (e.media_mbps - 1.0).abs() < 0.25,
            "builtin bitrate far off identity: {}",
            e.media_mbps
        );
        assert_eq!(m.name(), "calibrated");
    }
}
