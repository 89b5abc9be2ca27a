//! The four kinds of op the workloads are made of, and the rules by which
//! an op fails.
//!
//! An op fails — and counts as missing any timing — if it returns an error
//! or panics, processes zero events, `validate_jsonl` rejects its trace,
//! its manifest reports dropped events, a constant-shaped two-party run's
//! steady rate exceeds its cap by more than 5 %, or a cached invocation
//! computes anything or returns a record line that differs from the
//! populate pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use crate::digest;
use crate::spans::Ctx;
use crate::surface::{self, Campaign, GroundTruth, Outcome, Run, Spec};

/// Tolerance of the shaping check: steady rate ≤ cap × this.
const CAP_SLACK: f64 = 1.05;

/// What one op produced, beyond its wall time.
#[derive(Debug, Clone, Default)]
pub struct OpOut {
    /// Simulated call-seconds the op delivered.
    pub sim_s: f64,
    /// Outcome digests; unused slots stay 0. Sim ops: the record line.
    /// Passive ops: windows + estimates, fingerprint + family, diagnosis.
    pub digests: [u64; 3],
    /// Relative bitrate errors of the GBT estimator (passive ops).
    pub errs: Vec<f64>,
    /// Whether the centroid model named the true family (passive ops).
    pub classified_ok: Option<bool>,
    /// Why the op failed, if it did.
    pub fail: Option<String>,
}

impl OpOut {
    /// `Err` naming `what` if the op failed (warm-up and probe ops must not).
    pub fn ok(&self, what: &str) -> Result<(), String> {
        match &self.fail {
            Some(why) => Err(format!("{what} failed: {why}")),
            None => Ok(()),
        }
    }

    fn failed(why: String) -> OpOut {
        OpOut {
            fail: Some(why),
            ..OpOut::default()
        }
    }
}

/// Models the passive ops share; loaded once in set-up.
pub struct Models {
    /// The builtin GBT QoE estimator.
    pub gbt: surface::Gbt,
    /// The builtin centroid classifier.
    pub centroid: surface::Centroid,
    /// Observe thresholds.
    pub observe: surface::ObserveCfg,
}

impl Models {
    /// Load both artifacts through the model registry.
    pub fn load(ctx: Ctx) -> Result<Models, String> {
        Ok(Models {
            gbt: surface::load_gbt(ctx)?,
            centroid: surface::load_centroid(ctx)?,
            observe: surface::observe_config(),
        })
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Run `body`, turning a panic or an `Err` into a failed op.
fn guarded(body: impl FnOnce() -> Result<OpOut, String>) -> OpOut {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(out)) => out,
        Ok(Err(why)) => OpOut::failed(why),
        Err(payload) => OpOut::failed(format!("panicked: {}", panic_text(payload))),
    }
}

/// The shaping check on a constant-shaped two-party outcome.
fn cap_violation(spec: &Spec, outcome: &Outcome) -> Option<String> {
    let info = surface::spec_info(spec);
    let (up, down) = surface::steady_rates(outcome)?;
    for (dir, rate, cap) in [
        ("up", up, info.up_cap_mbps),
        ("down", down, info.down_cap_mbps),
    ] {
        if let Some(cap) = cap {
            if rate > cap * CAP_SLACK {
                return Some(format!(
                    "steady {dir} rate {rate:.4} Mbps exceeds the {cap} Mbps cap by more than 5 %"
                ));
            }
        }
    }
    None
}

/// One simulated run with telemetry disabled. The outcome goes back to the
/// campaign executor, which serializes it; the digest is taken from that
/// record line by the caller.
pub fn sim_op(ctx: Ctx, spec: &Spec) -> (Outcome, OpOut) {
    let mut outcome = None;
    let out = guarded(|| {
        let (o, stats) = surface::run_spec_metered(ctx, spec);
        let fail = if stats.events_processed == 0 {
            Some("processed zero engine events".to_string())
        } else {
            cap_violation(spec, &o)
        };
        outcome = Some(o);
        Ok(OpOut {
            sim_s: surface::spec_info(spec).sim_s,
            fail,
            ..OpOut::default()
        })
    });
    (outcome.unwrap_or_else(surface::failed_outcome), out)
}

/// The three digests of a passive op — windows + estimates, fingerprint +
/// family, diagnosis — combined one way for online and offline alike.
fn passive_digests(
    windows: u64,
    estimates: u64,
    fingerprint: u64,
    family: &str,
    diagnosis_json: &str,
) -> [u64; 3] {
    [
        windows ^ estimates.rotate_left(1),
        fingerprint ^ digest::of_bytes(family.as_bytes()),
        digest::of_bytes(diagnosis_json.as_bytes()),
    ]
}

/// One scenario through the three online harness paths.
pub fn online_op(ctx: Ctx, models: &Models, run: &Run) -> OpOut {
    guarded(|| {
        let spec = &run.spec;
        let (inferred, stats) = surface::run_spec_infer(ctx, spec);
        let taps = [inferred.send.as_slice(), inferred.recv.as_slice()];
        let estimates = surface::estimate_all(ctx, &models.gbt, spec, &taps);
        let errs = surface::bitrate_errors(ctx, &run.label, &inferred, &models.gbt);
        let (fingerprint, _) = surface::run_spec_fingerprint(ctx, spec);
        let family = surface::classify(ctx, &models.centroid, &fingerprint);
        let (diagnosis, _) = surface::run_spec_observe(ctx, spec, &models.observe);
        let diagnosis = surface::diagnosis_json(ctx, &diagnosis);
        Ok(OpOut {
            sim_s: surface::spec_info(spec).sim_s,
            digests: passive_digests(
                surface::windows_digest(&taps),
                estimates,
                surface::fingerprint_digest(&fingerprint),
                family,
                &diagnosis,
            ),
            errs,
            classified_ok: Some(surface::is_true_family(spec, family)),
            fail: (stats.events_processed == 0).then(|| "processed zero engine events".to_string()),
        })
    })
}

/// One scenario through the artifact path: trace it, read the trace back,
/// validate it, replay it into each passive consumer, delete the files.
/// `truth` is the stats-API ground truth an online run recorded in set-up.
pub fn offline_op(ctx: Ctx, models: &Models, truth: &GroundTruth, run: &Run, dir: &Path) -> OpOut {
    guarded(|| {
        let spec = &run.spec;
        surface::run_spec_traced(ctx, &run.label, spec, dir);
        let artifact = |ext: &str| dir.join(format!("{}.{ext}", run.label));
        let text = surface::read_file(ctx, &artifact("events.jsonl"))?;
        let manifest = surface::read_file(ctx, &artifact("manifest.json"))?;
        let events = surface::validate_jsonl(ctx, &text)?;
        let dropped = surface::manifest_dropped(ctx, &manifest)?;
        let windows = surface::replay_taps(ctx, &text, spec)?;
        let taps = [windows[0].as_slice(), windows[1].as_slice()];
        let estimates = surface::estimate_all(ctx, &models.gbt, spec, &taps);
        let windows_digest = surface::windows_digest(&taps);
        let inferred = surface::infer_outcome(spec, windows, truth.clone());
        let errs = surface::bitrate_errors(ctx, &run.label, &inferred, &models.gbt);
        let fingerprint = surface::replay_fingerprint(ctx, &text, spec)?;
        let family = surface::classify(ctx, &models.centroid, &fingerprint);
        let diagnosis = surface::diagnose_jsonl(ctx, &text, spec, &models.observe)?;
        let diagnosis = surface::diagnosis_json(ctx, &diagnosis);
        for ext in ["events.jsonl", "series.csv", "manifest.json"] {
            std::fs::remove_file(artifact(ext)).map_err(|e| format!("remove {ext}: {e}"))?;
        }
        let fail = if events == 0 {
            Some("trace holds zero events".to_string())
        } else if dropped > 0 {
            Some(format!("manifest reports {dropped} dropped events"))
        } else {
            None
        };
        Ok(OpOut {
            sim_s: surface::spec_info(spec).sim_s,
            digests: passive_digests(
                windows_digest,
                estimates,
                surface::fingerprint_digest(&fingerprint),
                family,
                &diagnosis,
            ),
            errs,
            classified_ok: Some(surface::is_true_family(spec, family)),
            fail,
        })
    })
}

/// One 100 %-hit invocation over a populated store: nothing may be
/// computed and every record line must equal the populate pass's.
pub fn cached_op(
    ctx: Ctx,
    campaign: &Campaign,
    store: &Path,
    populated: &[String],
    sim_s: f64,
) -> OpOut {
    guarded(|| {
        let summary = surface::run_cached(ctx, campaign, 1, store, false, &|_, run: &Run| {
            panic!("cached invocation tried to compute `{}`", run.label)
        })?;
        let mut h = digest::Fnv::default();
        for record in &summary.results {
            h.bytes(record.line.as_bytes());
        }
        let fail = if summary.computed != 0 || summary.cached != populated.len() {
            Some(format!(
                "{} computed / {} cached, expected 0 / {}",
                summary.computed,
                summary.cached,
                populated.len()
            ))
        } else {
            summary
                .results
                .iter()
                .zip(populated)
                .position(|(got, want)| got.line != *want)
                .map(|i| format!("record {i} differs from the populate pass"))
        };
        Ok(OpOut {
            sim_s,
            digests: [h.finish(), 0, 0],
            fail,
            ..OpOut::default()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn probe_runs() -> Vec<Run> {
        let campaign = surface::parse_campaign(Ctx::default(), &workloads::probe_json(1)).unwrap();
        surface::expand(Ctx::default(), &campaign).unwrap()
    }

    #[test]
    fn digests_are_stable_across_two_passes_and_online_equals_offline() {
        let runs = probe_runs();
        let run = &runs[0];
        let models = Models::load(Ctx::default()).unwrap();
        let first = online_op(Ctx::default(), &models, run);
        let second = online_op(Ctx::default(), &models, run);
        assert_eq!(first.fail, None);
        assert_eq!(first.digests, second.digests);
        assert!(first.digests.iter().all(|&d| d != 0));
        assert_eq!(first.sim_s, 20.0);

        let truth = surface::run_spec_infer(Ctx::default(), &run.spec).0.stats;
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let offline = offline_op(Ctx::default(), &models, &truth, run, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(offline.fail, None);
        assert_eq!(offline.digests, first.digests, "online ≡ offline");
        assert_eq!(offline.errs, first.errs);
        assert_eq!(offline.classified_ok, first.classified_ok);

        // A different scenario digests differently.
        let other = online_op(Ctx::default(), &models, &runs[1]);
        assert_ne!(other.digests, first.digests);
    }

    #[test]
    fn a_panicking_op_is_a_failed_op() {
        let out = guarded(|| panic!("boom {}", 7));
        assert_eq!(out.fail.as_deref(), Some("panicked: boom 7"));
        let out = guarded(|| Err("bad input".to_string()));
        assert_eq!(out.fail.as_deref(), Some("bad input"));
    }

    #[test]
    fn shaped_runs_stay_under_their_cap() {
        let runs = probe_runs();
        let shaped = runs
            .iter()
            .find(|r| surface::spec_info(&r.spec).up_cap_mbps == Some(0.5))
            .expect("the probe set has an up-0.5 run");
        let (_, out) = sim_op(Ctx::default(), &shaped.spec);
        assert_eq!(out.fail, None);
    }
}
