//! Pluggable VCA classifiers over call fingerprints.
//!
//! Two implementations ship:
//!
//! - [`RuleClassifier`] — training-free decision rules built on the two
//!   uplink observables that separate the families in every measured
//!   regime: the full-packet share of the video stream (lowest for
//!   Meet's sub-MTU frame splitting) and the packet inter-arrival CV
//!   (low for Teams' paced high-rate sender, high for Zoom's bursty
//!   FEC-laden one). Useful as a baseline and when no model artifact is
//!   available.
//! - [`CentroidModel`] — a nearest-centroid model over z-scored
//!   fingerprint features, fit offline from labeled campaign runs
//!   (`repro infer --fit`) and frozen as a schema-versioned JSON
//!   artifact at `crates/fingerprint/models/centroid-v1.json`, compiled
//!   in via [`CentroidModel::builtin`]. Loading rejects unknown schema
//!   tags or reordered feature lists, so a stale artifact fails loudly.
//!
//! Classification targets the three *application families* — the
//! browser variants of an application share its network behaviour (the
//! paper's Fig 1c point), so `Zoom-Chrome` is expected to classify as
//! `Zoom` and `Teams-Chrome` as `Teams`.

use serde::{Deserialize, Serialize};
use vcabench_telemetry::artifact;

use crate::features::{CallFingerprint, FP_FEATURE_NAMES, NUM_FP_FEATURES};

/// An application family the classifier can emit. Serializes as its
/// variant name, which is its [`name`](VcaFamily::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum VcaFamily {
    /// Google Meet (WebRTC/GCC).
    Meet,
    /// Microsoft Teams (native or Chrome).
    Teams,
    /// Zoom (native or Chrome).
    Zoom,
}

impl VcaFamily {
    /// Every family, in the pinned order model artifacts use.
    pub const ALL: [VcaFamily; 3] = [VcaFamily::Meet, VcaFamily::Teams, VcaFamily::Zoom];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            VcaFamily::Meet => "Meet",
            VcaFamily::Teams => "Teams",
            VcaFamily::Zoom => "Zoom",
        }
    }

    /// Index of the family in [`VcaFamily::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&f| f == self).expect("in ALL")
    }
}

/// A flow-level VCA classifier.
pub trait Classifier {
    /// Stable classifier name (report rows key on it).
    fn name(&self) -> &'static str;
    /// Classify one call fingerprint.
    fn classify(&self, fp: &CallFingerprint) -> VcaFamily;
}

/// Training-free decision rules read off the uplink fingerprint.
///
/// Thresholds sit in the gaps between the per-family clusters measured
/// on the pinned training campaign (unshaped, shaped, congested, and
/// multiparty regimes alike). The uplink is the discriminating side:
/// C1's own sender behaves the same whatever the far end does.
///
/// - Meet runs the highest uplink frame cadence of the three (> 45
///   observed frames/s once warmed up), and when throttled it collapses
///   to sub-MTU frames (uplink full-packet share < 0.45); Teams and
///   Zoom match neither arm in any observed regime.
/// - Among the rest, Teams' paced high-rate output is regularly spaced
///   (uplink inter-arrival CV ≤ 0.50 observed) while Zoom's burstier,
///   FEC-laden stream stays above 0.56.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleClassifier;

/// Uplink frame cadence above this reads as Meet.
pub const RULE_MEET_FPS: f64 = 45.0;
/// Uplink full-packet fraction below this also reads as Meet (the
/// throttled regime, where cadence drops but frames shrink below MTU).
pub const RULE_MEET_FULL_FRACTION: f64 = 0.45;
/// Uplink inter-arrival CV below this (for a non-Meet fingerprint)
/// reads as Teams; above it, Zoom.
pub const RULE_TEAMS_IAT_CV: f64 = 0.55;

impl Classifier for RuleClassifier {
    fn name(&self) -> &'static str {
        "rules"
    }

    fn classify(&self, fp: &CallFingerprint) -> VcaFamily {
        if fp.up.fps() > RULE_MEET_FPS || fp.up.full_fraction() < RULE_MEET_FULL_FRACTION {
            VcaFamily::Meet
        } else if fp.up.iat_cv < RULE_TEAMS_IAT_CV {
            VcaFamily::Teams
        } else {
            VcaFamily::Zoom
        }
    }
}

/// Schema tag of the centroid model artifact.
pub const MODEL_SCHEMA: &str = "vcabench-fingerprint-centroid/v1";

/// Floor applied to per-feature scales so constant features cannot
/// produce infinite z-scores.
const SCALE_FLOOR: f64 = 1e-9;

/// Nearest-centroid classifier over z-scored fingerprint features.
///
/// Distances are diagonal-Mahalanobis: each feature is divided by the
/// pooled within-class standard deviation before the Euclidean
/// comparison, so a high-magnitude feature (packet rate) cannot drown a
/// low-magnitude discriminative one (full fraction). Ties resolve to
/// the first family in [`VcaFamily::ALL`] — deterministic by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidModel {
    /// Per-feature scale (pooled within-class std, floored).
    pub scale: [f64; NUM_FP_FEATURES],
    /// Per-family centroids, in [`VcaFamily::ALL`] order.
    pub centroids: [[f64; NUM_FP_FEATURES]; 3],
}

/// The `vcabench-fingerprint-centroid/v1` artifact (`centroid-v1.json`)
/// behind its tag: a [`CentroidModel`] under the feature and family lists
/// it was fitted on.
#[derive(Serialize, Deserialize)]
struct CentroidArtifact {
    features: Vec<String>,
    families: Vec<String>,
    scale: [f64; NUM_FP_FEATURES],
    centroids: [[f64; NUM_FP_FEATURES]; 3],
}

impl CentroidArtifact {
    /// What decoding cannot know: both lists are this build's, and every
    /// scale can be divided by ([`CentroidModel::fit`] floors them).
    fn validate(&self) -> Result<(), String> {
        let what = "model artifact";
        artifact::expect_list(what, "feature", &self.features, &FP_FEATURE_NAMES)?;
        artifact::expect_list(what, "family", &self.families, &family_names())?;
        match self.scale.iter().position(|&s| s <= 0.0) {
            Some(i) => Err(format!("{what}: `scale[{i}]` is not positive")),
            None => Ok(()),
        }
    }
}

/// [`VcaFamily::ALL`] by name, the artifact's `families` list.
fn family_names() -> [&'static str; 3] {
    VcaFamily::ALL.map(VcaFamily::name)
}

impl CentroidModel {
    /// Fit from labeled feature rows: per-family means, pooled
    /// within-class standard deviation as the scale. `None` unless every
    /// family has at least one row. Deterministic: plain f64 arithmetic
    /// over the rows in order.
    pub fn fit(rows: &[(VcaFamily, [f64; NUM_FP_FEATURES])]) -> Option<CentroidModel> {
        let mut counts = [0usize; 3];
        let mut sums = [[0.0f64; NUM_FP_FEATURES]; 3];
        for (family, x) in rows {
            let f = family.index();
            counts[f] += 1;
            for (s, v) in sums[f].iter_mut().zip(x.iter()) {
                *s += v;
            }
        }
        if counts.contains(&0) {
            return None;
        }
        let mut centroids = [[0.0f64; NUM_FP_FEATURES]; 3];
        for f in 0..3 {
            for i in 0..NUM_FP_FEATURES {
                centroids[f][i] = sums[f][i] / counts[f] as f64;
            }
        }
        // Pooled within-class variance.
        let mut sq = [0.0f64; NUM_FP_FEATURES];
        for (family, x) in rows {
            let c = &centroids[family.index()];
            for i in 0..NUM_FP_FEATURES {
                let d = x[i] - c[i];
                sq[i] += d * d;
            }
        }
        let n = rows.len() as f64;
        let mut scale = [0.0f64; NUM_FP_FEATURES];
        for i in 0..NUM_FP_FEATURES {
            scale[i] = (sq[i] / n).sqrt().max(SCALE_FLOOR);
        }
        Some(CentroidModel { scale, centroids })
    }

    /// The committed model artifact, compiled into the crate.
    pub fn builtin() -> CentroidModel {
        CentroidModel::from_json(include_str!("../models/centroid-v1.json"))
            .expect("committed model artifact is valid")
    }

    /// Squared z-scored distance from `x` to a family's centroid.
    fn distance2(&self, x: &[f64; NUM_FP_FEATURES], family: usize) -> f64 {
        let c = &self.centroids[family];
        let mut d2 = 0.0;
        for i in 0..NUM_FP_FEATURES {
            let d = (x[i] - c[i]) / self.scale[i];
            d2 += d * d;
        }
        d2
    }

    /// Serialize to the versioned artifact format (pretty JSON, fixed key
    /// order — artifacts are diffed and committed). A number that is not
    /// finite is an error.
    pub fn to_json(&self) -> Result<String, String> {
        let body = CentroidArtifact {
            features: artifact::list(&FP_FEATURE_NAMES),
            families: artifact::list(&family_names()),
            scale: self.scale,
            centroids: self.centroids,
        };
        artifact::frozen_json(MODEL_SCHEMA, &body)
    }

    /// Parse and validate an artifact.
    pub fn from_json(text: &str) -> Result<CentroidModel, String> {
        let a: CentroidArtifact = artifact::from_json("model artifact", MODEL_SCHEMA, text)?;
        a.validate()?;
        Ok(CentroidModel {
            scale: a.scale,
            centroids: a.centroids,
        })
    }
}

impl Classifier for CentroidModel {
    fn name(&self) -> &'static str {
        "centroid"
    }

    fn classify(&self, fp: &CallFingerprint) -> VcaFamily {
        let x = fp.feature_vector();
        let mut best = 0;
        let mut best_d2 = self.distance2(&x, 0);
        for f in 1..3 {
            let d2 = self.distance2(&x, f);
            if d2 < best_d2 {
                best = f;
                best_d2 = d2;
            }
        }
        VcaFamily::ALL[best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FlowFingerprint;
    use vcabench_infer::{TapSpec, Vantage};

    fn fingerprint(full: u64, video: u64, iat_cv: f64) -> FlowFingerprint {
        FlowFingerprint {
            tap: TapSpec {
                link: 0,
                flow: 10,
                vantage: Vantage::Send,
            },
            duration_s: 10.0,
            wire_bytes: video * 1000,
            video_payload_bytes: video * 960,
            video_pkts: video,
            full_pkts: full,
            small_pkts: 100,
            frames: 300,
            iat_cv,
            rate_cv: 0.3,
        }
    }

    fn call(full_frac: f64, iat_cv: f64) -> CallFingerprint {
        let video = 1000u64;
        let full = (full_frac * video as f64) as u64;
        CallFingerprint {
            up: fingerprint(full, video, iat_cv),
            down: fingerprint(full, video, iat_cv),
        }
    }

    #[test]
    fn family_names_round_trip() {
        // A family's index finds its name in the artifact's `families` list.
        for f in VcaFamily::ALL {
            assert_eq!(VcaFamily::ALL[f.index()], f);
            assert_eq!(family_names()[f.index()], f.name());
        }
    }

    #[test]
    fn rule_classifier_follows_the_signatures() {
        // Low full-packet share (throttled-Meet arm), whatever the
        // spacing looks like.
        assert_eq!(RuleClassifier.classify(&call(0.33, 0.68)), VcaFamily::Meet);
        // High frame cadence (warmed-up-Meet arm) despite full packets.
        let mut fast = call(0.56, 0.63);
        fast.up.frames = 500; // 50 fps over the 10 s window
        assert_eq!(RuleClassifier.classify(&fast), VcaFamily::Meet);
        // Full-packet sender, regular spacing: Teams.
        assert_eq!(RuleClassifier.classify(&call(0.85, 0.45)), VcaFamily::Teams);
        // Full-packet sender, bursty spacing: Zoom.
        assert_eq!(RuleClassifier.classify(&call(0.56, 0.63)), VcaFamily::Zoom);
    }

    #[test]
    fn centroid_fit_classifies_training_clusters() {
        let mut rows = Vec::new();
        for i in 0..5 {
            let jitter = i as f64 * 0.01;
            rows.push((VcaFamily::Zoom, call(0.56 + jitter, 0.63).feature_vector()));
            rows.push((VcaFamily::Teams, call(0.85, 0.45 + jitter).feature_vector()));
            rows.push((VcaFamily::Meet, call(0.33 + jitter, 0.68).feature_vector()));
        }
        let m = CentroidModel::fit(&rows).expect("fit");
        assert_eq!(m.classify(&call(0.57, 0.64)), VcaFamily::Zoom);
        assert_eq!(m.classify(&call(0.86, 0.46)), VcaFamily::Teams);
        assert_eq!(m.classify(&call(0.34, 0.69)), VcaFamily::Meet);
        assert_eq!(m.name(), "centroid");
    }

    #[test]
    fn fit_requires_every_family() {
        let rows = vec![(VcaFamily::Meet, call(0.6, 0.02).feature_vector())];
        assert!(CentroidModel::fit(&rows).is_none());
        assert!(CentroidModel::fit(&[]).is_none());
    }

    #[test]
    fn artifact_round_trips_and_rejects_bad_schemas() {
        let mut rows = Vec::new();
        for f in VcaFamily::ALL {
            rows.push((f, call(0.5 + f.index() as f64 * 0.1, 0.05).feature_vector()));
        }
        let m = CentroidModel::fit(&rows).expect("fit");
        let text = m.to_json().expect("finite");
        let back = CentroidModel::from_json(&text).expect("round trip");
        assert_eq!(m, back);
        assert!(text.contains("\"schema\": \"vcabench-fingerprint-centroid/v1\""));
        let bad = text.replace("centroid/v1", "centroid/v9");
        assert!(CentroidModel::from_json(&bad)
            .unwrap_err()
            .contains("schema"));
        let bad = text.replace("up_video_mbps", "video_mbps_up");
        assert!(CentroidModel::from_json(&bad)
            .unwrap_err()
            .contains("feature list"));
        let bad = text.replace("\"Teams\"", "\"Skype\"");
        assert!(CentroidModel::from_json(&bad)
            .unwrap_err()
            .contains("family"));
        assert!(
            CentroidModel::from_json("{\"schema\":\"vcabench-fingerprint-centroid/v1\"}").is_err()
        );
    }

    #[test]
    fn degenerate_and_overflowed_numbers_neither_load_nor_freeze() {
        let mut m = CentroidModel::builtin();
        let text = m.to_json().expect("finite");
        // A zero scale divides every distance into NaN, and `classify`
        // then answers family 0 for anything.
        let scale = format!("\"scale\": [\n    {},", m.scale[0]);
        assert!(text.contains(&scale));
        let zeroed = text.replacen(&scale, "\"scale\": [\n    0,", 1);
        let err = CentroidModel::from_json(&zeroed).unwrap_err();
        assert!(err.contains("`scale[0]` is not positive"), "{err}");
        // `1e999` is a well-formed JSON number that parses to `inf`.
        let huge = text.replacen(&scale, "\"scale\": [\n    1e999,", 1);
        let err = CentroidModel::from_json(&huge).unwrap_err();
        assert!(err.contains("scale[0]: number is not finite"), "{err}");
        m.centroids[2][4] = f64::NAN;
        let err = m.to_json().unwrap_err();
        assert!(
            err.contains("centroids[2][4]: expected number, found null"),
            "{err}"
        );
    }

    #[test]
    fn builtin_artifact_loads_and_is_well_formed() {
        // The frozen artifact parses, has strictly positive scales, and
        // three distinct centroids (identification accuracy itself is
        // gated end-to-end by `repro infer`).
        let m = CentroidModel::builtin();
        assert!(m.scale.iter().all(|&s| s > 0.0));
        assert_ne!(m.centroids[0], m.centroids[1]);
        assert_ne!(m.centroids[1], m.centroids[2]);
        let round = CentroidModel::from_json(&m.to_json().expect("finite")).expect("round trip");
        assert_eq!(m, round);
    }
}
