//! Traced execution: per-run telemetry artifacts next to the
//! content-addressed result cache.
//!
//! `repro campaign --trace-dir DIR` routes every run through
//! [`run_spec_traced`], which attaches an unbounded event log, executes
//! the scenario, and writes three files named by the run's deterministic
//! label:
//!
//! - `<label>.events.jsonl` — the versioned event trace
//!   (see [`vcabench_telemetry::parse_event_line`] for the schema);
//! - `<label>.series.csv` — the run's headline time series;
//! - `<label>.manifest.json` — a [`RunManifest`] tying the trace to the
//!   spec hash and seed of its cache entry.
//!
//! All artifact bytes are pure functions of the spec, so a traced
//! campaign produces byte-identical files regardless of `--jobs`. The
//! trace is written while the call runs: the simulation records every
//! event into the log and into a [`vcabench_telemetry::trace_pipe`],
//! which hands them over in batches to a scoped writer thread that
//! formats and writes them in order. It is never in memory as text
//! beyond one 64 KiB chunk. The CSV and the manifest are written on the
//! simulation thread once the call is over.

use std::fs::File;
use std::io;
use std::path::Path;

use vcabench_campaign::{
    content_hash, run_cached_with, run_indexed, CampaignSpec, CampaignSummary, ExpandedRun,
    ScenarioOutcome, ScenarioSpec,
};
use vcabench_telemetry::{manifest_json, series_csv, trace_pipe, EventLog, RunManifest};

use crate::campaign::{record_run, summarise};

/// Execute one scenario with an unbounded event log attached, writing
/// its trace as it runs, then write the other two artifacts under
/// `trace_dir`.
///
/// Panics on I/O errors — a traced run whose evidence cannot be written
/// is useless, and the campaign executor has no error channel per run.
pub fn run_spec_traced(label: &str, spec: &ScenarioSpec, trace_dir: &Path) -> ScenarioOutcome {
    std::fs::create_dir_all(trace_dir)
        .unwrap_or_else(|e| panic!("create trace dir {}: {e}", trace_dir.display()));
    let path = trace_dir.join(format!("{label}.events.jsonl"));
    let file = File::create(&path).unwrap_or_else(|e| failed(&path, e));
    let (outcome, manifest) = record_traced(label, spec, file, &path);
    let files = [
        (format!("{label}.series.csv"), outcome_csv(&outcome)),
        (format!("{label}.manifest.json"), manifest_json(&manifest)),
    ];
    for (name, body) in files {
        let path = trace_dir.join(name);
        std::fs::write(&path, body).unwrap_or_else(|e| failed(&path, e));
    }
    outcome
}

/// Simulate `spec` into an event log while a writer thread formats the
/// same events as JSONL into `out` (`path` names it in the panic), and
/// return the run's outcome and manifest.
///
/// The simulation hands events over in batches through a
/// [`trace_pipe`]; the log stays on this thread for the manifest, which
/// is made while the writer finishes its last batches. A failed write
/// ends the writer at once and is reported when the run is over; a
/// panicking simulation drops its feed, which ends the writer too, so
/// the scope never waits on it.
fn record_traced(
    label: &str,
    spec: &ScenarioSpec,
    mut out: impl io::Write + Send,
    path: &Path,
) -> (ScenarioOutcome, RunManifest) {
    let (feed, writer) = trace_pipe();
    std::thread::scope(|s| {
        let written = s.spawn(move || writer.write_jsonl(&mut out));
        let ((log, feed), sim, _engine) = record_run(spec, (EventLog::unbounded(), feed));
        feed.finish();
        let outcome = summarise(spec, sim);
        let manifest = RunManifest::for_run(label, &content_hash(spec), spec.seed(), &log);
        written
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            .unwrap_or_else(|e| failed(path, e));
        (outcome, manifest)
    })
}

fn failed(path: &Path, e: io::Error) -> ! {
    panic!("write trace artifact {}: {e}", path.display())
}

/// The headline time series of an outcome as a CSV document.
fn outcome_csv(outcome: &ScenarioOutcome) -> String {
    let at = |series: &[(f64, f64)], i: usize| series.get(i).map_or(0.0, |s| s.1);
    match outcome {
        ScenarioOutcome::TwoParty(r) => series_csv(
            &["t_secs", "up_mbps", "down_mbps"],
            r.up_series
                .iter()
                .enumerate()
                .map(|(i, &(t, up))| [t, up, at(&r.down_series, i)]),
        ),
        ScenarioOutcome::Competition(r) => series_csv(
            &[
                "t_secs",
                "inc_up_mbps",
                "inc_down_mbps",
                "comp_up_mbps",
                "comp_down_mbps",
            ],
            r.inc_up.iter().enumerate().map(|(i, &(t, inc_up))| {
                [
                    t,
                    inc_up,
                    at(&r.inc_down, i),
                    at(&r.comp_up, i),
                    at(&r.comp_down, i),
                ]
            }),
        ),
        ScenarioOutcome::Multiparty(r) => series_csv(
            &["c1_up_mbps", "c1_down_mbps"],
            [[r.c1_up_mbps, r.c1_down_mbps]],
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
    use vcabench_vca::VcaKind;

    /// A file that fills up after `left` bytes.
    struct FillingSink {
        left: usize,
    }

    impl io::Write for FillingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("no space left"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    #[should_panic(expected = "write trace artifact d/call.events.jsonl: no space left")]
    fn a_trace_write_that_fails_mid_run_panics_with_the_artifact_path() {
        // The first chunk is taken and the second refused with most of the
        // call still to run: ten seconds are five batches, more than the
        // ring holds, so a feed that waited for the writer would hang.
        let spec = crate::campaign::unshaped_two_party(VcaKind::Zoom, 10.0, 1);
        record_traced(
            "call",
            &spec,
            FillingSink { left: 64 * 1024 },
            Path::new("d/call.events.jsonl"),
        );
    }

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
