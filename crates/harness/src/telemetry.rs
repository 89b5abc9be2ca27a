//! Traced execution: per-run telemetry artifacts next to the
//! content-addressed result cache.
//!
//! `repro campaign --trace-dir DIR` routes every run through
//! [`run_spec_traced`], which attaches an unbounded event log, executes
//! the scenario, and writes three files named by the run's deterministic
//! label:
//!
//! - `<label>.events.jsonl` — the versioned event trace
//!   (see [`vcabench_telemetry::validate_event_line`] for the schema);
//! - `<label>.series.csv` — the run's headline time series;
//! - `<label>.manifest.json` — a [`RunManifest`] tying the trace to the
//!   spec hash and seed of its cache entry.
//!
//! All artifact bytes are pure functions of the spec, so a traced
//! campaign produces byte-identical files regardless of `--jobs`. The
//! trace is streamed from the event log to its file
//! ([`vcabench_telemetry::write_events_jsonl`]); it is never in memory
//! as text next to the log it was made from.

use std::fs::File;
use std::io;
use std::path::Path;

use vcabench_campaign::{
    content_hash, run_cached_with, run_indexed, CampaignSpec, CampaignSummary, ExpandedRun,
    ScenarioOutcome, ScenarioSpec,
};
use vcabench_telemetry::{manifest_json, series_csv, write_events_jsonl, EventLog, RunManifest};

use crate::campaign::{record_run, summarise};

/// Execute one scenario with an unbounded event log attached, then write
/// its three trace artifacts under `trace_dir`.
///
/// Panics on I/O errors — a traced run whose evidence cannot be written
/// is useless, and the campaign executor has no error channel per run.
pub fn run_spec_traced(label: &str, spec: &ScenarioSpec, trace_dir: &Path) -> ScenarioOutcome {
    let (log, sim, _engine) = record_run(spec, EventLog::unbounded());
    let outcome = summarise(spec, sim);
    write_run_artifacts(label, spec, &log, &outcome, trace_dir);
    outcome
}

/// Write `<label>.events.jsonl`, `<label>.series.csv` and
/// `<label>.manifest.json` under `dir`.
fn write_run_artifacts(
    label: &str,
    spec: &ScenarioSpec,
    log: &EventLog,
    outcome: &ScenarioOutcome,
    dir: &Path,
) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create trace dir {}: {e}", dir.display()));
    let failed =
        |path: &Path, e: io::Error| -> ! { panic!("write trace artifact {}: {e}", path.display()) };
    // The trace is as large as the log it comes from, so it is streamed
    // to its file rather than held as text beside the still-live log.
    let path = dir.join(format!("{label}.events.jsonl"));
    File::create(&path)
        .and_then(|mut file| write_events_jsonl(log, &mut file))
        .unwrap_or_else(|e| failed(&path, e));
    let manifest = RunManifest::for_run(label, &content_hash(spec), spec.seed(), log);
    let files = [
        (format!("{label}.series.csv"), outcome_csv(outcome)),
        (format!("{label}.manifest.json"), manifest_json(&manifest)),
    ];
    for (name, body) in files {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap_or_else(|e| failed(&path, e));
    }
}

/// The headline time series of an outcome as a CSV document.
fn outcome_csv(outcome: &ScenarioOutcome) -> String {
    match outcome {
        ScenarioOutcome::TwoParty(r) => {
            let rows: Vec<Vec<f64>> = r
                .up_series
                .iter()
                .enumerate()
                .map(|(i, &(t, up))| vec![t, up, r.down_series.get(i).map_or(0.0, |s| s.1)])
                .collect();
            series_csv(&["t_secs", "up_mbps", "down_mbps"], &rows)
        }
        ScenarioOutcome::Competition(r) => {
            let at = |series: &[(f64, f64)], i: usize| series.get(i).map_or(0.0, |s| s.1);
            let rows: Vec<Vec<f64>> = r
                .inc_up
                .iter()
                .enumerate()
                .map(|(i, &(t, inc_up))| {
                    vec![
                        t,
                        inc_up,
                        at(&r.inc_down, i),
                        at(&r.comp_up, i),
                        at(&r.comp_down, i),
                    ]
                })
                .collect();
            series_csv(
                &[
                    "t_secs",
                    "inc_up_mbps",
                    "inc_down_mbps",
                    "comp_up_mbps",
                    "comp_down_mbps",
                ],
                &rows,
            )
        }
        ScenarioOutcome::Multiparty(r) => series_csv(
            &["c1_up_mbps", "c1_down_mbps"],
            &[vec![r.c1_up_mbps, r.c1_down_mbps]],
        ),
    }
}

/// Like [`crate::campaign::run_campaign_cached`], writing per-run trace
/// artifacts under `trace_dir`.
///
/// The result cache skips runs whose outcome is already stored, but a
/// trace is evidence about *this* invocation's artifacts: after the cached
/// pass, any run whose manifest is missing from `trace_dir` (served from
/// cache, or sharing a content hash with an earlier label) is re-simulated
/// just to produce its artifacts. Artifact bytes are pure in the spec, so
/// the directory converges to the same content regardless of cache state
/// or `jobs`.
pub fn run_campaign_cached_traced(
    campaign: &CampaignSpec,
    jobs: usize,
    dir: &Path,
    rerun: bool,
    trace_dir: &Path,
) -> Result<CampaignSummary, String> {
    let summary = run_cached_with(campaign, jobs, dir, rerun, &|run: &ExpandedRun| {
        run_spec_traced(&run.label, &run.spec, trace_dir)
    })?;
    let missing: Vec<ExpandedRun> = campaign
        .expand()?
        .into_iter()
        .filter(|run| {
            !trace_dir
                .join(format!("{}.manifest.json", run.label))
                .exists()
        })
        .collect();
    run_indexed(missing.len(), jobs, |i| {
        run_spec_traced(&missing[i].label, &missing[i].spec, trace_dir);
    });
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_campaign::{MultipartyRecord, TwoPartyRecord};

    #[test]
    fn outcome_csv_shapes() {
        let two = ScenarioOutcome::TwoParty(TwoPartyRecord {
            steady_up_mbps: 1.0,
            steady_down_mbps: 1.0,
            ttr_secs: None,
            nominal_mbps: None,
            firs_received: 0,
            freeze_secs: 0.0,
            frames_decoded: 0,
            target_series: vec![],
            up_series: vec![(0.0, 0.5), (0.1, 0.75)],
            down_series: vec![(0.0, 1.5), (0.1, 1.25)],
        });
        assert_eq!(
            outcome_csv(&two),
            "t_secs,up_mbps,down_mbps\n0,0.5,1.5\n0.1,0.75,1.25\n"
        );
        let multi = ScenarioOutcome::Multiparty(MultipartyRecord {
            c1_up_mbps: 2.5,
            c1_down_mbps: 5.0,
        });
        assert_eq!(outcome_csv(&multi), "c1_up_mbps,c1_down_mbps\n2.5,5\n");
    }
}
