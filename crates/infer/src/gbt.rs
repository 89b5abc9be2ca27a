//! Gradient-boosted regression trees over the passive window features:
//! the workspace's one learned estimator.
//!
//! How much of a window's bytes are media depends on the sender's FEC
//! regime: Zoom ships parity that a header-free observer cannot tell from
//! video, Meet and Teams ship little. One global discount helps Zoom but
//! taxes the FEC-light senders, because it cannot express "discount only
//! when the traffic looks FEC-elevated". Regression trees can — a split on
//! `full_fraction` (or on the rolling context fields) partitions windows
//! into FEC regimes and fits each side separately, which is exactly the
//! tree-ensemble approach of Sharma et al. ("Estimating WebRTC Video QoE
//! Metrics Without Using Application Headers") applied to this
//! simulator's passive taps.
//!
//! Everything here is dependency-free and deterministic: least-squares
//! boosting with greedy depth-limited splits, candidate thresholds at
//! sorted-value midpoints, `total_cmp` ordering with index tie-breaks,
//! and no randomness anywhere — refitting on the same rows reproduces
//! the committed artifact byte for byte. Models freeze to a
//! schema-versioned JSON artifact ([`GBT_MODEL_SCHEMA`]) committed at
//! `crates/infer/models/gbt-v1.json`, which [`GbtModel::builtin`] loads
//! through the typed loader every artifact goes through,
//! [`GbtModel::from_json`].

use serde::{DeError, Deserialize, Serialize};
use serde_json::Value;
use vcabench_telemetry::artifact;

use crate::estimator::{Estimator, WindowEstimate};
use crate::features::WindowFeatures;

/// Schema tag of the GBT model artifact.
pub const GBT_MODEL_SCHEMA: &str = "vcabench-infer-gbt/v1";

/// Number of input features the GBT sees.
pub const NUM_GBT_FEATURES: usize = 17;

/// Feature names, in the order [`gbt_feature_vector`] produces them.
/// Part of the artifact schema: a loaded model must list exactly these.
pub const GBT_FEATURE_NAMES: [&str; NUM_GBT_FEATURES] = [
    "video_mbps",
    "video_full_mbps",
    "full_fraction",
    "frames",
    "frames_decodable",
    "video_pkts",
    "small_pkts",
    "mean_video_kb",
    "video_std_kb",
    "iat_mean_ms",
    "iat_cv",
    "burst_max",
    "pkts_per_frame",
    "lag1_video_mbps",
    "lag1_full_fraction",
    "roll_video_mbps",
    "roll_full_fraction",
];

/// The GBT input vector for one window: rates, the full-sized packet
/// fraction and frame counts, the second-order in-window structure, and
/// the lagged/rolling context (see [`WindowFeatures`]).
pub fn gbt_feature_vector(w: &WindowFeatures) -> [f64; NUM_GBT_FEATURES] {
    let video_mbps = w.video_mbps();
    let pkts_per_frame = if w.frames == 0 {
        0.0
    } else {
        w.video_pkts as f64 / w.frames as f64
    };
    [
        video_mbps,
        video_mbps * w.full_fraction(),
        w.full_fraction(),
        w.frames as f64,
        w.frames_decodable as f64,
        w.video_pkts as f64,
        w.small_pkts as f64,
        w.mean_video_payload() * 1e-3,
        w.video_payload_std() * 1e-3,
        w.iat.mean_s() * 1e3,
        w.iat.cv(),
        w.burst_max as f64,
        pkts_per_frame,
        w.lag1_video_mbps,
        w.lag1_full_fraction,
        w.roll_video_mbps,
        w.roll_full_fraction,
    ]
}

/// Boosting hyperparameters, recorded in the artifact (`params`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Boosting rounds per target.
    pub trees: usize,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Shrinkage applied to every leaf value at fit time.
    pub learning_rate: f64,
    /// Minimum training rows on each side of a split.
    pub min_leaf: usize,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            trees: 60,
            max_depth: 3,
            learning_rate: 0.15,
            min_leaf: 8,
        }
    }
}

/// One node of a flattened regression tree. Interior nodes route
/// `x[feature] <= threshold` to `left`, else `right`; leaves carry the
/// (already shrunk) output in `value` with `feature == -1`.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Feature index to split on, or `-1` for a leaf.
    pub feature: i64,
    /// Split threshold (unused on leaves).
    pub threshold: f64,
    /// Child for `x[feature] <= threshold` (unused on leaves).
    pub left: usize,
    /// Child for `x[feature] > threshold` (unused on leaves).
    pub right: usize,
    /// Leaf output (unused on interior nodes).
    pub value: f64,
}

/// The artifact writes a node as the array `[feature, threshold, left,
/// right, value]`, not as an object.
impl Serialize for TreeNode {
    fn write_json(&self, out: &mut String) {
        let node = (
            self.feature,
            self.threshold,
            self.left,
            self.right,
            self.value,
        );
        node.write_json(out);
    }
}

impl Deserialize for TreeNode {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        let (feature, threshold, left, right, value) = Deserialize::from_json_value(v)?;
        Ok(TreeNode {
            feature,
            threshold,
            left,
            right,
            value,
        })
    }
}

/// A flattened regression tree; children always sit at higher indices
/// than their parent, so traversal terminates by construction (and the
/// artifact loader rejects anything else).
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    /// Nodes in preorder; index 0 is the root.
    pub nodes: Vec<TreeNode>,
}

/// The artifact writes a tree as the array of its nodes.
impl Serialize for Tree {
    fn write_json(&self, out: &mut String) {
        self.nodes.write_json(out);
    }
}

impl Deserialize for Tree {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        Deserialize::from_json_value(v).map(|nodes| Tree { nodes })
    }
}

impl Tree {
    fn predict(&self, x: &[f64; NUM_GBT_FEATURES]) -> f64 {
        let mut i = 0;
        loop {
            let n = &self.nodes[i];
            if n.feature < 0 {
                return n.value;
            }
            i = if x[n.feature as usize] <= n.threshold {
                n.left
            } else {
                n.right
            };
        }
    }
}

/// One boosted ensemble: `predict(x) = base + Σ tree(x)` (the learning
/// rate is baked into the leaf values at fit time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbtEnsemble {
    /// Weighted mean of the training target (the boosting start point).
    pub base: f64,
    /// Boosted trees, applied additively.
    pub trees: Vec<Tree>,
}

impl GbtEnsemble {
    /// Raw (unclamped) ensemble prediction.
    pub fn predict(&self, x: &[f64; NUM_GBT_FEATURES]) -> f64 {
        let mut y = self.base;
        for t in &self.trees {
            y += t.predict(x);
        }
        y
    }
}

/// Gradient-boosted estimator: one ensemble per target metric,
/// predictions clamped at zero. Freeze verdicts pass through from the
/// replica detector, like every other estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct GbtModel {
    /// Hyperparameters the ensembles were fit with.
    pub params: GbtParams,
    /// Media-bitrate ensemble (Mbps).
    pub bitrate: GbtEnsemble,
    /// Frame-rate ensemble (frames per window).
    pub fps: GbtEnsemble,
}

/// The `vcabench-infer-gbt/v1` artifact (`gbt-v1.json`) behind its tag: a
/// [`GbtModel`] under the feature list it was fitted on.
#[derive(Serialize, Deserialize)]
struct GbtArtifact {
    features: Vec<String>,
    params: GbtParams,
    bitrate: GbtEnsemble,
    fps: GbtEnsemble,
}

impl GbtArtifact {
    /// What decoding cannot know: the feature list is this build's, every
    /// tree has a root, splits name a feature that exists, leaves are
    /// marked `-1`, and children lie strictly after their parent inside
    /// the tree — so every traversal terminates.
    fn validate(&self) -> Result<(), String> {
        let what = "gbt artifact";
        artifact::expect_list(what, "feature", &self.features, &GBT_FEATURE_NAMES)?;
        for (key, ensemble) in [("bitrate", &self.bitrate), ("fps", &self.fps)] {
            for (ti, tree) in ensemble.trees.iter().enumerate() {
                if tree.nodes.is_empty() {
                    return Err(format!("{what}: `{key}.trees[{ti}]` is empty"));
                }
                for (ni, n) in tree.nodes.iter().enumerate() {
                    let inside = |child| child > ni && child < tree.nodes.len();
                    let fault = if n.feature >= NUM_GBT_FEATURES as i64 {
                        format!(
                            "splits on feature {}, only {NUM_GBT_FEATURES} exist",
                            n.feature
                        )
                    } else if n.feature < -1 {
                        format!("feature {} (leaves use -1)", n.feature)
                    } else if n.feature >= 0 && !(inside(n.left) && inside(n.right)) {
                        let (l, r) = (n.left, n.right);
                        format!(
                            "children ({l}, {r}) must lie strictly after the node within the tree"
                        )
                    } else {
                        continue;
                    };
                    return Err(format!("{what}: `{key}.trees[{ti}][{ni}]` {fault}"));
                }
            }
        }
        Ok(())
    }
}

/// Training rows: `(features, truth, weight)`, weights strictly positive.
type Rows = [([f64; NUM_GBT_FEATURES], f64, f64)];

impl GbtModel {
    /// Fit both targets by least-squares gradient boosting. Bitrate rows
    /// come from both taps and FPS rows from the receive side only, with
    /// weights chosen by the caller (the harness uses `1/truth²` for
    /// relative error). `None` when either target has no usable rows.
    /// Deterministic: fixed row order, `total_cmp` sorts, and index
    /// tie-breaks — no RNG anywhere. The hyperparameters are
    /// `GbtParams::default()`, recorded in the model's `params`.
    pub fn fit(bitrate_rows: &Rows, fps_rows: &Rows) -> Option<GbtModel> {
        let params = GbtParams::default();
        Some(GbtModel {
            bitrate: params.fit_ensemble(bitrate_rows)?,
            fps: params.fit_ensemble(fps_rows)?,
            params,
        })
    }

    /// The committed model artifact, compiled into the crate.
    pub fn builtin() -> GbtModel {
        GbtModel::from_json(include_str!("../models/gbt-v1.json"))
            .expect("committed GBT artifact is valid")
    }

    /// Serialize to the versioned artifact format (pretty JSON, fixed
    /// key order — artifacts are diffed and committed). Nodes flatten to
    /// `[feature, threshold, left, right, value]` arrays. A number that is
    /// not finite is an error.
    pub fn to_json(&self) -> Result<String, String> {
        let body = GbtArtifact {
            features: artifact::list(&GBT_FEATURE_NAMES),
            params: self.params.clone(),
            bitrate: self.bitrate.clone(),
            fps: self.fps.clone(),
        };
        artifact::frozen_json(GBT_MODEL_SCHEMA, &body)
    }

    /// Parse and validate an artifact: schema tag, typed nodes (an index
    /// with a fraction, a sign or beyond `usize` is an error, not a
    /// cast), then the semantic checks: exact feature list, rooted trees,
    /// splits on features that exist, children strictly after their
    /// parent (so every traversal terminates).
    pub fn from_json(text: &str) -> Result<GbtModel, String> {
        let a: GbtArtifact = artifact::from_json("gbt artifact", GBT_MODEL_SCHEMA, text)?;
        a.validate()?;
        Ok(GbtModel {
            params: a.params,
            bitrate: a.bitrate,
            fps: a.fps,
        })
    }
}

impl Estimator for GbtModel {
    fn name(&self) -> &'static str {
        "gbt"
    }

    fn estimate(&self, w: &WindowFeatures) -> WindowEstimate {
        let x = gbt_feature_vector(w);
        WindowEstimate {
            window: w.window,
            media_mbps: self.bitrate.predict(&x).max(0.0),
            fps: self.fps.predict(&x).max(0.0),
            freeze_count: w.freeze_count,
            freeze_time_s: w.freeze_time_s,
        }
    }
}

impl GbtParams {
    /// Fit one boosted ensemble on `(x, y, weight)` rows.
    fn fit_ensemble(&self, rows: &Rows) -> Option<GbtEnsemble> {
        if rows.is_empty() {
            return None;
        }
        let total_w: f64 = rows.iter().map(|r| r.2).sum();
        if total_w <= 0.0 {
            return None;
        }
        let base = rows.iter().map(|r| r.1 * r.2).sum::<f64>() / total_w;
        let mut residuals: Vec<f64> = rows.iter().map(|r| r.1 - base).collect();
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut trees = Vec::with_capacity(self.trees);
        for _ in 0..self.trees {
            let mut b = Builder {
                rows,
                residuals: &residuals,
                params: self,
                nodes: Vec::new(),
            };
            b.build(&all, 0);
            let tree = Tree { nodes: b.nodes };
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= tree.predict(&rows[i].0);
            }
            trees.push(tree);
        }
        Some(GbtEnsemble { base, trees })
    }
}

/// Recursive greedy tree builder over row indices.
struct Builder<'a> {
    rows: &'a Rows,
    residuals: &'a [f64],
    params: &'a GbtParams,
    nodes: Vec<TreeNode>,
}

impl Builder<'_> {
    /// Build the subtree for `idx`, returning its node index (preorder:
    /// a node precedes both children).
    fn build(&mut self, idx: &[usize], depth: usize) -> usize {
        if depth < self.params.max_depth && idx.len() >= 2 * self.params.min_leaf {
            if let Some((feature, threshold)) = self.best_split(idx) {
                let me = self.nodes.len();
                self.nodes.push(TreeNode {
                    feature: feature as i64,
                    threshold,
                    left: 0,
                    right: 0,
                    value: 0.0,
                });
                // Partition preserving row order (determinism).
                let (mut li, mut ri) = (Vec::new(), Vec::new());
                for &i in idx {
                    if self.rows[i].0[feature] <= threshold {
                        li.push(i);
                    } else {
                        ri.push(i);
                    }
                }
                let l = self.build(&li, depth + 1);
                let r = self.build(&ri, depth + 1);
                self.nodes[me].left = l;
                self.nodes[me].right = r;
                return me;
            }
        }
        let mut sw = 0.0;
        let mut swr = 0.0;
        for &i in idx {
            sw += self.rows[i].2;
            swr += self.rows[i].2 * self.residuals[i];
        }
        let me = self.nodes.len();
        self.nodes.push(TreeNode {
            feature: -1,
            threshold: 0.0,
            left: 0,
            right: 0,
            value: if sw > 0.0 {
                self.params.learning_rate * swr / sw
            } else {
                0.0
            },
        });
        me
    }

    /// The split of `idx` with the largest weighted-SSE reduction, or
    /// `None` when no split improves on the leaf. Candidates are
    /// midpoints between distinct consecutive sorted values; ties keep
    /// the earliest feature and lowest threshold (strict `>` on gain).
    fn best_split(&self, idx: &[usize]) -> Option<(usize, f64)> {
        let min_leaf = self.params.min_leaf;
        let mut total_w = 0.0;
        let mut total_wr = 0.0;
        for &i in idx {
            total_w += self.rows[i].2;
            total_wr += self.rows[i].2 * self.residuals[i];
        }
        let no_split = total_wr * total_wr / total_w;
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut order: Vec<usize> = Vec::with_capacity(idx.len());
        for feature in 0..NUM_GBT_FEATURES {
            order.clear();
            order.extend_from_slice(idx);
            order.sort_by(|&a, &b| {
                self.rows[a].0[feature]
                    .total_cmp(&self.rows[b].0[feature])
                    .then(a.cmp(&b))
            });
            let mut lw = 0.0;
            let mut lwr = 0.0;
            for k in 0..order.len() - 1 {
                let i = order[k];
                lw += self.rows[i].2;
                lwr += self.rows[i].2 * self.residuals[i];
                let (xa, xb) = (self.rows[i].0[feature], self.rows[order[k + 1]].0[feature]);
                if xa == xb || k + 1 < min_leaf || order.len() - k - 1 < min_leaf {
                    continue;
                }
                let (rw, rwr) = (total_w - lw, total_wr - lwr);
                if lw <= 0.0 || rw <= 0.0 {
                    continue;
                }
                let gain = lwr * lwr / lw + rwr * rwr / rw - no_split;
                if gain > best.map_or(1e-12, |b| b.0) {
                    best = Some((gain, feature, 0.5 * (xa + xb)));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic windows spanning FEC-free and FEC-heavy regimes.
    fn synthetic_rows() -> Vec<([f64; NUM_GBT_FEATURES], f64, f64)> {
        let mut rows = Vec::new();
        for i in 1..=60u64 {
            // FEC-free: partial tails every frame, media == payload.
            let mut w = WindowFeatures {
                window: i,
                video_payload_bytes: 20_000 * i,
                video_pkts: 30 + i,
                full_pkts: (30 + i) * 3 / 4,
                small_pkts: 50,
                frames: 30,
                frames_decodable: 30,
                ..WindowFeatures::default()
            };
            // Relative-error weighting (1/y²), like the harness fit.
            let x = gbt_feature_vector(&w);
            let y = w.video_mbps();
            rows.push((x, y, 1.0 / (y * y)));
            // FEC-heavy: all packets full-sized, media is 60% of payload.
            w.full_pkts = w.video_pkts;
            w.window += 100;
            let x = gbt_feature_vector(&w);
            let y = 0.6 * w.video_mbps();
            rows.push((x, y, 1.0 / (y * y)));
        }
        rows
    }

    #[test]
    fn fit_learns_a_regime_dependent_discount_no_linear_model_can() {
        let rows = synthetic_rows();
        let fps: Vec<_> = rows.iter().map(|(x, _, w)| (*x, 30.0, *w)).collect();
        let m = GbtModel::fit(&rows, &fps).expect("fit");
        let mut rels: Vec<f64> = rows
            .iter()
            .map(|(x, y, _)| (m.bitrate.predict(x).max(0.0) - y).abs() / y)
            .collect();
        rels.sort_by(f64::total_cmp);
        let median = rels[rels.len() / 2];
        assert!(median < 0.05, "median relative error {median:.3}");
        // The regime separation no linear model can express: mid-range
        // FEC-heavy windows are discounted to ~60% of the payload rate,
        // while FEC-free windows at the same payload rate are not.
        let (fec, free) = (&rows[61], &rows[60]); // i = 31, both regimes
        let fec_ratio = m.bitrate.predict(&fec.0) / (fec.1 / 0.6);
        let free_ratio = m.bitrate.predict(&free.0) / free.1;
        assert!((fec_ratio - 0.6).abs() < 0.1, "fec ratio {fec_ratio:.3}");
        assert!((free_ratio - 1.0).abs() < 0.1, "free ratio {free_ratio:.3}");
        assert_eq!(m.name(), "gbt");
    }

    #[test]
    fn fit_handles_degenerate_inputs() {
        assert!(GbtModel::fit(&[], &[]).is_none());
        // Constant rows: no split ever clears the gain bar, every tree
        // is a single zero-valued leaf, prediction is the base.
        let w = WindowFeatures {
            video_payload_bytes: 100_000,
            video_pkts: 90,
            full_pkts: 60,
            frames: 30,
            frames_decodable: 30,
            ..WindowFeatures::default()
        };
        let x = gbt_feature_vector(&w);
        let rows = vec![(x, 0.8, 1.0); 5];
        let m = GbtModel::fit(&rows, &[(x, 30.0, 1.0)]).expect("fit");
        assert!((m.bitrate.predict(&x) - 0.8).abs() < 1e-9);
        assert!((m.fps.predict(&x) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn artifact_round_trips_with_identical_predictions() {
        let rows = synthetic_rows();
        let fps: Vec<_> = rows.iter().map(|(x, _, w)| (*x, 30.0, *w)).collect();
        let m = GbtModel::fit(&rows, &fps).expect("fit");
        let text = m.to_json().expect("finite");
        assert!(text.contains("\"schema\": \"vcabench-infer-gbt/v1\""));
        let back = GbtModel::from_json(&text).expect("round trip");
        // Shortest-roundtrip float formatting makes the reload exact.
        for (x, _, _) in &rows {
            assert_eq!(m.bitrate.predict(x), back.bitrate.predict(x));
            assert_eq!(m.fps.predict(x), back.fps.predict(x));
        }
        // And re-serializing reproduces the bytes.
        assert_eq!(text, back.to_json().expect("finite"));
    }

    #[test]
    fn refit_is_byte_identical() {
        let rows = synthetic_rows();
        let fps: Vec<_> = rows.iter().map(|(x, _, w)| (*x, 30.0, *w)).collect();
        let a = GbtModel::fit(&rows, &fps).expect("fit");
        let b = GbtModel::fit(&rows, &fps).expect("fit");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn artifact_rejects_bad_schemas_features_and_trees() {
        let rows = synthetic_rows();
        let fps: Vec<_> = rows.iter().map(|(x, _, w)| (*x, 30.0, *w)).collect();
        let m = GbtModel::fit(&rows, &fps).expect("fit");
        let text = m.to_json().expect("finite");
        let bad = text.replace("gbt/v1", "gbt/v9");
        assert!(GbtModel::from_json(&bad).unwrap_err().contains("schema"));
        let bad = text.replace("iat_cv", "cv_iat");
        assert!(GbtModel::from_json(&bad)
            .unwrap_err()
            .contains("feature list"));
        assert!(GbtModel::from_json("{\"schema\":\"vcabench-infer-gbt/v1\"}").is_err());
        // A cyclic tree (child index not past the parent) is rejected.
        let cyclic = "{\"schema\":\"vcabench-infer-gbt/v1\",\
             \"features\":[\"video_mbps\",\"video_full_mbps\",\"full_fraction\",\
             \"frames\",\"frames_decodable\",\"video_pkts\",\"small_pkts\",\
             \"mean_video_kb\",\"video_std_kb\",\"iat_mean_ms\",\"iat_cv\",\
             \"burst_max\",\"pkts_per_frame\",\"lag1_video_mbps\",\
             \"lag1_full_fraction\",\"roll_video_mbps\",\"roll_full_fraction\"],\
             \"params\":{\"trees\":1,\"max_depth\":1,\"learning_rate\":0.1,\"min_leaf\":1},\
             \"bitrate\":{\"base\":0,\"trees\":[[[0,1.0,0,0,0.0]]]},\
             \"fps\":{\"base\":0,\"trees\":[]}}";
        assert!(GbtModel::from_json(cyclic)
            .unwrap_err()
            .contains("strictly after"));
        // Child indices are decoded, not cast: a fraction used to truncate
        // (children 1.5 and 2.9 loaded as 1 and 2) and a negative or huge
        // one to saturate (`right` loaded as `usize::MAX`).
        let leaf = "[-1,0,0,0,0.5]";
        for (node, at) in [
            ("[0,1.0,1.5,2.9,0.0]", "bitrate.trees[0][0][2]"),
            ("[-1,0,-7,1e300,0.5]", "bitrate.trees[0][0][2]"),
            ("[-1,0,0,1e300,0.5]", "bitrate.trees[0][0][3]"),
        ] {
            let coerced = cyclic.replace("[0,1.0,0,0,0.0]", &format!("{node},{leaf},{leaf}"));
            let err = GbtModel::from_json(&coerced).unwrap_err();
            assert!(err.contains(at), "{node}: {err}");
        }
        // An artifact nested past the parser's bound is an error, not a
        // stack overflow.
        let deep = format!(
            "{{\"schema\":\"vcabench-infer-gbt/v1\",\"bitrate\":{}",
            "[".repeat(200_000)
        );
        assert!(GbtModel::from_json(&deep)
            .unwrap_err()
            .contains("nesting too deep"));
    }

    #[test]
    fn overflowed_numbers_neither_load_nor_freeze() {
        let rows = synthetic_rows();
        let fps: Vec<_> = rows.iter().map(|(x, _, w)| (*x, 30.0, *w)).collect();
        let mut m = GbtModel::fit(&rows, &fps).expect("fit");
        // `1e999` is a well-formed JSON number that parses to `inf`.
        let text = m.to_json().expect("finite");
        let base = format!("\"base\": {}", m.bitrate.base);
        assert!(text.contains(&base));
        let err = GbtModel::from_json(&text.replacen(&base, "\"base\": 1e999", 1)).unwrap_err();
        assert!(err.contains("bitrate.base: number is not finite"), "{err}");
        m.fps.trees[0].nodes[0].value = f64::NAN;
        let err = m.to_json().expect_err("a NaN leaf was frozen");
        assert!(err.contains("fps.trees[0][0][4]: expected number"), "{err}");
    }

    #[test]
    fn builtin_artifact_loads_and_tracks_fec_free_traffic() {
        let m = GbtModel::builtin();
        assert!(!m.bitrate.trees.is_empty());
        assert!(!m.fps.trees.is_empty());
        assert!(m.params.trees >= m.bitrate.trees.len());
    }
}
