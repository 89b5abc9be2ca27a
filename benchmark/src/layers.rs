//! Per-layer metrics: the probe, the isolated drivers and the layer table.
//!
//! Layer values are read off spans. A workload's own spans (set-up and
//! timed ops) are *in situ*; the *probe* is a fixed, small set of ops and
//! decomposition calls that touches every layer once, recorded under op 0.
//! Rows the issue defines in situ use the workload's own spans when it has
//! any and fall back to the probe; decomposition rows and driver rows are
//! always probe spans. So every workload reports every row, and a row is
//! in-situ exactly on the workloads that exercise its layer.

use std::collections::BTreeMap;
use std::path::Path;

use crate::calib::{self, Reading};
use crate::metrics::LAYERS;
use crate::ops::{self, Models};
use crate::report::MetricValue;
use crate::run::{self, Prepared, RunArgs, Tally};
use crate::spans::{self, Ctx, Span};
use crate::stats;
use crate::surface;
use crate::workloads;

/// The probe's span context.
const PROBE: Ctx = Ctx { op: 0, parent: 0 };

/// Repetitions of every isolated driver and campaign decomposition call.
const DRIVER_REPS: u64 = 3;

/// What the traced half of a run hands back.
pub struct LayerValues {
    /// One value per row of `metrics::LAYERS`, in that order.
    pub metrics: Vec<MetricValue>,
    /// Which rows fell back to the probe, and similar remarks.
    pub notes: Vec<String>,
    /// The `spans.jsonl` artifact.
    pub spans_jsonl: String,
    /// A failed reconciliation or a row without data.
    pub problem: Option<String>,
    /// Where the timed ops' wall time went: self-time share per span name.
    pub op_time_shares: Vec<(String, f64)>,
    /// What the reference kernels measured over the whole traced run; every
    /// time-valued row is divided by its speed factor.
    pub speed: Reading,
}

/// Which spans a row may use.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// Probe spans only (decomposition and driver rows).
    Probe,
    /// The workload's own spans when any match, else the probe's.
    InSituFirst,
}

/// A selection of spans and where it came from.
struct Sel<'a> {
    spans: Vec<&'a Span>,
    /// An in-situ row that found none of the workload's own spans.
    fell_back: bool,
}

impl Sel<'_> {
    fn dur(&self) -> f64 {
        self.spans.iter().map(|s| s.dur_ns() as f64).sum()
    }
    fn allocs(&self) -> f64 {
        self.spans.iter().map(|s| s.allocs as f64).sum()
    }
    fn count(&self, key: &str) -> f64 {
        self.spans.iter().map(|s| s.counts.get(key) as f64).sum()
    }
    fn n(&self) -> usize {
        self.spans.len()
    }
}

fn select<'a>(
    spans: &'a [Span],
    scope: Scope,
    name: &str,
    class: &str,
    pred: impl Fn(&Span) -> bool,
) -> Sel<'a> {
    let matching = |s: &Span| s.name == name && (class.is_empty() || s.class == class) && pred(s);
    if scope == Scope::InSituFirst {
        let own: Vec<&Span> = spans.iter().filter(|s| s.op != 0 && matching(s)).collect();
        if !own.is_empty() {
            return Sel {
                spans: own,
                fell_back: false,
            };
        }
    }
    Sel {
        spans: spans.iter().filter(|s| s.op == 0 && matching(s)).collect(),
        fell_back: scope == Scope::InSituFirst,
    }
}

fn div(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// The three passive probe scenarios: the up-1.0 call of each kind.
fn passive_probe_runs(runs: &[surface::Run]) -> Vec<&surface::Run> {
    runs.iter()
        .filter(|r| surface::spec_info(&r.spec).up_cap_mbps == Some(1.0))
        .collect()
}

/// Bitrate errors and classifier verdicts of the probe's online ops.
#[derive(Default)]
struct ProbeOut {
    errs: Vec<f64>,
    classified: (u64, u64),
}

/// Touch every layer once: one op of every kind, then the decomposition.
fn probe(seed: u64, scratch: &Path, prep: &Prepared) -> Result<ProbeOut, String> {
    let mut out = ProbeOut::default();
    let models = Models::load(PROBE)?;
    let campaign = surface::parse_campaign(PROBE, &workloads::probe_json(seed))?;
    let runs = surface::expand(PROBE, &campaign)?;
    let traces = scratch.join("probe-traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("create {}: {e}", traces.display()))?;

    for run in passive_probe_runs(&runs) {
        let spec = &run.spec;
        let online = ops::online_op(PROBE, &models, run);
        online.ok("probe online op")?;
        out.errs.extend_from_slice(&online.errs);
        if let Some(ok) = online.classified_ok {
            out.classified.0 += u64::from(ok);
            out.classified.1 += 1;
        }
        let truth = surface::run_spec_infer(PROBE, spec).0.stats;
        let offline = ops::offline_op(PROBE, &models, &truth, run, &traces);
        offline.ok("probe offline op")?;
        if offline.digests != online.digests {
            return Err(format!(
                "probe: online and offline digests differ on `{}`",
                run.label
            ));
        }

        // Decomposition: the same scenario taken apart call by call.
        ops::sim_op(PROBE, spec).1.ok("probe sim op")?;
        let (_, _, log) = surface::run_spec_logged(PROBE, spec);
        let text = surface::events_jsonl(PROBE, &log);
        let path = traces.join(format!("{}.decomp.jsonl", run.label));
        let back = surface::io_roundtrip(PROBE, &path, &text)?;
        surface::validate_jsonl(PROBE, &back)?;
        surface::replay_null(PROBE, &back)?;
        let fed = surface::feed_taps(PROBE, &log, spec);
        let replayed = surface::replay_taps(PROBE, &back, spec)?;
        let digest = |w: &[surface::Windows]| surface::windows_digest(&[&w[0], &w[1]]);
        if digest(&fed) != digest(&replayed) {
            return Err(format!(
                "probe: fed and replayed windows differ on `{}`",
                run.label
            ));
        }
        surface::feed_fingerprint(PROBE, &log, spec);
        let timeline = surface::feed_spans(PROBE, &log, spec, &models.observe);
        let diagnosis = surface::diagnose(PROBE, timeline, &models.observe);
        if !surface::diff_self(PROBE, &diagnosis) {
            return Err(format!("probe: `{}` differs from itself", run.label));
        }
    }

    // One run of each class the passive set lacks.
    let matrix = surface::parse_campaign(PROBE, &workloads::matrix_json(seed))?;
    for run in run::one_per_class(&surface::expand(PROBE, &matrix)?) {
        if surface::spec_info(&run.spec).class != "two_party" {
            ops::sim_op(PROBE, &run.spec)
                .1
                .ok(&format!("probe {}", run.label))?;
        }
    }

    // The campaign layer on the 12-run probe campaign: populate serially and
    // on the parallel worker count, then invoke fully cached.
    let mini = Prepared::for_campaign(campaign, runs, scratch.join("probe-campaign"));
    let mut lines = Vec::new();
    for (jobs, store) in [
        (1, "store-serial"),
        (workloads::parallel_jobs(), "store-parallel"),
    ] {
        let (pass, populated) =
            run::campaign_pass(PROBE, &mini, jobs, &mini.dir.join(store), false);
        if let Some(problem) = pass.problems.first() {
            return Err(format!("probe populate: {problem}"));
        }
        lines = populated;
    }
    for _ in 0..DRIVER_REPS {
        ops::cached_op(
            PROBE,
            &mini.campaign,
            &mini.dir.join("store-parallel"),
            &lines,
            0.0,
        )
        .ok("probe cached invocation")?;
        // Expansion and hashing are measured on the workload's own campaign.
        surface::expand(PROBE, &prep.campaign)?;
        surface::content_hashes(PROBE, &prep.runs);
    }
    Ok(out)
}

/// The isolated drivers, loaded with the in-situ queue depth.
fn drivers(seed: u64, queue_depth: u64) {
    for rep in 0..DRIVER_REPS {
        let t0 = std::time::Instant::now();
        surface::drive_queue(PROBE, queue_depth, 400_000, seed + rep);
        surface::drive_link(PROBE, "netsim.link.full", 1140, 200_000);
        surface::drive_link(PROBE, "netsim.link.small", 100, 200_000);
        surface::drive_forward(PROBE, 60);
        surface::drive_tcp(PROBE, 150_000);
        surface::drive_rtp_recv(PROBE, 400_000);
        surface::drive_controllers(PROBE, 50_000, seed + rep);
        surface::drive_source(PROBE, 300_000, seed + rep);
        surface::drive_assemble(PROBE, 400_000);
        calib::tick(PROBE, t0.elapsed().as_nanos() as u64);
    }
}

/// `harness.run_spec_metered` spans: the workload's own, else the probe's.
fn engine_runs(spans: &[Span]) -> Sel<'_> {
    select(
        spans,
        Scope::InSituFirst,
        "harness.run_spec_metered",
        "",
        |_| true,
    )
}

/// Σ busy time of the runs a `campaign.run_cached` span caused (and of the
/// reference kernels interleaved with them, which are not the executor's).
fn busy_under(spans: &[Span], parents: &Sel<'_>) -> f64 {
    let ids: Vec<u32> = parents.spans.iter().map(|s| s.id).collect();
    spans
        .iter()
        .filter(|s| {
            matches!(s.name, "harness.run_spec_metered" | "bench.calibration")
                && ids.contains(&s.parent)
        })
        .map(|s| s.dur_ns() as f64)
        .sum()
}

/// Compute every layer row. `errs`/`classified` are the workload's own
/// when it ran passive ops, else the probe's.
fn table(
    spans: &[Span],
    errs: &[f64],
    classified: (u64, u64),
) -> (BTreeMap<&'static str, (f64, usize)>, Vec<String>) {
    let mut rows: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut from_probe: Vec<&'static str> = Vec::new();
    macro_rules! put {
        ($name:expr, $value:expr, $sel:expr $(,)?) => {
            if let Some(v) = $value {
                rows.insert($name, (v, $sel.n()));
                if $sel.fell_back {
                    from_probe.push($name);
                }
            }
        };
    }
    let any = |_: &Span| true;
    // Decomposition and driver rows; rows the workload may exercise itself.
    let probe = |name: &str| select(spans, Scope::Probe, name, "", any);
    let own = |name: &str| select(spans, Scope::InSituFirst, name, "", any);

    // harness: the engine as a whole, by scenario class.
    for (name, class) in [
        ("harness.run_ns_per_event.two_party", "two_party"),
        ("harness.run_ns_per_event.competition", "competition"),
        ("harness.run_ns_per_event.multiparty", "multiparty"),
    ] {
        let s = select(
            spans,
            Scope::InSituFirst,
            "harness.run_spec_metered",
            class,
            any,
        );
        put!(name, div(s.dur(), s.count("events")), &s);
    }
    let engine = engine_runs(spans);
    let engine_ns_per_event = div(engine.dur(), engine.count("events"));
    put!(
        "harness.run_events_per_sim_s",
        div(engine.count("events"), engine.count("sim_us") / 1e6),
        &engine,
    );
    put!(
        "harness.run_allocs_per_event",
        div(engine.allocs(), engine.count("events")),
        &engine,
    );
    put!(
        "harness.peak_queue_depth",
        div(engine.count("peak_queue"), engine.n() as f64),
        &engine,
    );

    // Isolated drivers: cost per unit, and the share of engine time that
    // cost explains at the in-situ counts.
    let logged = select(
        spans,
        Scope::Probe,
        "harness.run_spec_metered.logged",
        "two_party",
        any,
    );
    let q = probe("simcore.event_queue");
    let queue_ns = div(q.dur(), q.count("ops"));
    put!("simcore.queue_ns_per_op", queue_ns, &q);
    put!(
        "simcore.queue_allocs_per_op",
        div(q.allocs(), q.count("ops")),
        &q
    );
    put!(
        "simcore.queue_est_share",
        queue_ns.zip(engine_ns_per_event).map(|(q, e)| q / e),
        &q,
    );
    let full = probe("netsim.link.full");
    let small = probe("netsim.link.small");
    let link_ns = div(full.dur(), full.count("packets"));
    put!("netsim.link_ns_per_packet_full", link_ns, &full);
    put!(
        "netsim.link_ns_per_packet_small",
        div(small.dur(), small.count("packets")),
        &small,
    );
    put!(
        "netsim.link_drop_share",
        div(full.count("dropped"), full.count("packets")),
        &full,
    );
    let enqueues_per_event = div(logged.count("enqueues"), logged.count("events"));
    put!(
        "netsim.link_est_share",
        link_ns
            .zip(enqueues_per_event)
            .zip(engine_ns_per_event)
            .map(|((l, per), e)| l * per / e),
        &full,
    );
    let fwd = probe("netsim.forward");
    put!(
        "netsim.forward_ns_per_event",
        div(fwd.dur(), fwd.count("events")),
        &fwd
    );
    put!(
        "netsim.forward_allocs_per_event",
        div(fwd.allocs(), fwd.count("events")),
        &fwd,
    );
    for (name, span, unit) in [
        ("transport.tcp_ns_per_ack", "transport.tcp", "acks"),
        (
            "transport.rtp_recv_ns_per_packet",
            "transport.rtp_recv",
            "packets",
        ),
        ("congestion.gcc_ns_per_report", "congestion.gcc", "reports"),
        (
            "congestion.fbra_ns_per_report",
            "congestion.fbra",
            "reports",
        ),
        (
            "congestion.teams_ns_per_report",
            "congestion.teams",
            "reports",
        ),
        ("media.source_ns_per_frame", "media.source", "frames"),
        ("media.assemble_ns_per_packet", "media.assemble", "packets"),
    ] {
        let s = probe(span);
        put!(name, div(s.dur(), s.count(unit)), &s);
    }

    // campaign: expansion, hashing, the store, the executor.
    let expand = probe("campaign.expand");
    let hash = probe("campaign.content_hash");
    let expand_ns = div(expand.dur(), expand.count("runs"));
    let hash_ns = div(hash.dur(), hash.count("runs"));
    put!(
        "campaign.expand_us_per_run",
        expand_ns.map(|ns| ns / 1e3),
        &expand
    );
    put!(
        "campaign.hash_us_per_run",
        hash_ns.map(|ns| ns / 1e3),
        &hash
    );
    let invocations = |pred: &dyn Fn(&Span) -> bool| {
        select(spans, Scope::InSituFirst, "campaign.run_cached", "", pred)
    };
    let hits = invocations(&|s| s.counts.get("computed") == 0 && s.counts.get("cached") > 0);
    put!(
        "campaign.cached_invoke_ms",
        div(hits.dur() / 1e6, hits.n() as f64),
        &hits,
    );
    put!(
        "campaign.store_bytes_per_run",
        div(hits.count("bytes"), hits.count("runs")),
        &hits,
    );
    // What is left of a 100 %-hit invocation after expansion and hashing is
    // reading and parsing the store and assembling the records.
    let store_ns = expand_ns
        .zip(hash_ns)
        .map(|(e, h)| (hits.dur() - hits.count("runs") * (e + h)).max(hits.dur() * 0.05));
    put!(
        "campaign.store_load_mb_per_s",
        store_ns.and_then(|ns| div(hits.count("bytes") * 1e3, ns)),
        &hits,
    );
    let computing =
        |jobs: u64| invocations(&|s| s.counts.get("computed") > 0 && s.counts.get("jobs") == jobs);
    let serial = computing(1);
    put!(
        "campaign.exec_overhead_share",
        div(busy_under(spans, &serial), serial.dur()).map(|busy| 1.0 - busy),
        &serial,
    );
    let jobs = workloads::parallel_jobs() as u64;
    let parallel = computing(jobs);
    put!(
        "campaign.worker_idle_share",
        div(busy_under(spans, &parallel), parallel.dur() * jobs as f64).map(|busy| 1.0 - busy),
        &parallel,
    );

    // telemetry: emit (logged run minus disabled run of the same scenarios),
    // export, validate, import, I/O.
    // The same three scenarios with telemetry off: the decomposition's own
    // runs, not the probe campaign's (those hang under `run_cached`).
    let disabled = select(
        spans,
        Scope::Probe,
        "harness.run_spec_metered",
        "two_party",
        |s| s.parent == 0,
    );
    put!(
        "telemetry.emit_ns_per_event",
        div(logged.dur() - disabled.dur(), logged.count("tel_events")),
        &logged,
    );
    put!(
        "telemetry.events_per_engine_event",
        div(logged.count("tel_events"), logged.count("events")),
        &logged,
    );
    let export = probe("telemetry.events_jsonl");
    put!(
        "telemetry.export_ns_per_event",
        div(export.dur(), export.count("tel_events")),
        &export,
    );
    put!(
        "telemetry.export_mb_per_s",
        div(export.count("bytes") * 1e3, export.dur()),
        &export,
    );
    put!(
        "telemetry.jsonl_bytes_per_event",
        div(export.count("bytes"), export.count("tel_events")),
        &export,
    );
    put!(
        "telemetry.export_allocs_per_event",
        div(export.allocs(), export.count("tel_events")),
        &export,
    );
    let validate = own("telemetry.validate_jsonl");
    put!(
        "telemetry.validate_ns_per_event",
        div(validate.dur(), validate.count("tel_events")),
        &validate,
    );
    let import = probe("telemetry.replay_jsonl.null");
    put!(
        "telemetry.import_ns_per_event",
        div(import.dur(), import.count("tel_events")),
        &import,
    );
    put!(
        "telemetry.import_allocs_per_event",
        div(import.allocs(), import.count("tel_events")),
        &import,
    );
    let io = probe("telemetry.io_roundtrip");
    put!(
        "telemetry.io_ms_per_run",
        div(io.dur() / 1e6, io.n() as f64),
        &io
    );
    let manifests = own("telemetry.manifest");
    put!(
        "telemetry.dropped_events",
        (manifests.n() > 0).then(|| manifests.count("dropped")),
        &manifests,
    );

    // infer / fingerprint / observe: extraction fed from memory, model
    // load, per-window and per-call prediction, quality.
    let taps = probe("infer.tapbank_record");
    put!(
        "infer.extract_ns_per_event",
        div(taps.dur(), taps.count("tel_events")),
        &taps,
    );
    let estimate = own("infer.estimate");
    put!(
        "infer.windows_per_sim_s",
        div(estimate.count("windows"), estimate.count("sim_us") / 1e6),
        &estimate,
    );
    put!(
        "infer.predict_ns_per_window",
        div(estimate.dur(), estimate.count("windows")),
        &estimate,
    );
    let gbt_load = own("infer.model_load");
    put!(
        "infer.model_load_ms",
        div(gbt_load.dur() / 1e6, gbt_load.count("loads")),
        &gbt_load,
    );
    if let Some(err) = stats::median_of(errs) {
        rows.insert("infer.bitrate_err_p50", (err, errs.len()));
    }
    let bank = probe("fingerprint.bank_record");
    put!(
        "fingerprint.extract_ns_per_event",
        div(bank.dur(), bank.count("tel_events")),
        &bank,
    );
    let centroid_load = own("fingerprint.model_load");
    put!(
        "fingerprint.model_load_ms",
        div(centroid_load.dur() / 1e6, centroid_load.count("loads")),
        &centroid_load,
    );
    let classify = own("fingerprint.classify");
    put!(
        "fingerprint.classify_us_per_call",
        div(classify.dur() / 1e3, classify.count("calls")),
        &classify,
    );
    if let Some(acc) = div(classified.0 as f64, classified.1 as f64) {
        rows.insert("fingerprint.accuracy", (acc, classified.1 as usize));
    }
    let builder = probe("observe.spanbuilder_record");
    put!(
        "observe.span_ns_per_event",
        div(builder.dur(), builder.count("tel_events")),
        &builder,
    );
    put!(
        "observe.spans_per_sim_s",
        div(builder.count("obs_spans"), builder.count("sim_us") / 1e6),
        &builder,
    );
    let diagnose = probe("observe.diagnose");
    put!(
        "observe.diagnose_us_per_run",
        div(diagnose.dur() / 1e3, diagnose.count("runs")),
        &diagnose,
    );
    let diff = probe("observe.diff_runs");
    put!(
        "observe.diff_us_per_pair",
        div(diff.dur() / 1e3, diff.count("pairs")),
        &diff,
    );

    let mut notes = Vec::new();
    if !from_probe.is_empty() {
        notes.push(format!(
            "not exercised by this workload, taken from the probe: {}",
            from_probe.join(", ")
        ));
    }
    (rows, notes)
}

/// Self time of the workload's timed-op spans, by span name, as shares of
/// their total — the "where did an op's wall time go" table. The reference
/// kernels run between ops, not inside them, and are left out.
fn op_time_shares(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(spans::self_times(spans)) {
        if s.op != 0 && s.op != run::SETUP_OP && s.name != "bench.calibration" {
            *by_name.entry(s.name).or_default() += self_ns as f64;
        }
    }
    let total: f64 = by_name.values().sum();
    let mut shares: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns / total))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// After the traced passes: run the probe and the drivers, stop recording,
/// reconcile the spans and compute the layer table.
pub fn traced_tail(
    args: &RunArgs,
    scratch: &Path,
    prep: &Prepared,
    tally: &Tally,
    speed_so_far: Reading,
) -> Result<LayerValues, String> {
    let t0 = std::time::Instant::now();
    let probed = probe(args.seed, scratch, prep)?;
    calib::tick(PROBE, t0.elapsed().as_nanos() as u64);
    let mut spans = spans::drain();
    let depth = {
        let engine = engine_runs(&spans);
        div(engine.count("peak_queue"), engine.n() as f64).map_or(64, |d| d.round().max(1.0) as u64)
    };
    drivers(args.seed, depth);
    spans::set_enabled(false);
    spans.extend(spans::drain());
    let speed = speed_so_far.plus(&calib::take());
    let phi = speed.factor();

    let passive_in_situ = tally.classified.1 > 0;
    let (errs, classified) = if passive_in_situ {
        (tally.errs.as_slice(), tally.classified)
    } else {
        (probed.errs.as_slice(), probed.classified)
    };
    let (rows, mut notes) = table(&spans, errs, classified);
    if !passive_in_situ {
        notes.push(
            "infer.bitrate_err_p50 and fingerprint.accuracy come from the probe's three online ops"
                .to_string(),
        );
    }
    notes.push(format!(
        "isolated event-queue driver held at the measured peak depth {depth}"
    ));

    let mut problem = match spans::reconcile(&spans) {
        Ok(pairs) => {
            notes.push(format!(
                "{} spans, {pairs} parent/child pairs reconcile",
                spans.len()
            ));
            None
        }
        Err(e) => Some(format!("spans do not reconcile: {e}")),
    };
    let mut metrics = Vec::with_capacity(LAYERS.len());
    for layer in &LAYERS {
        match rows.get(layer.name) {
            Some(&(value, n)) if value.is_finite() => metrics.push(MetricValue {
                name: layer.name.to_string(),
                // Times go onto the calibrated clock; counts and shares stay.
                value: match layer.unit {
                    "ns" | "us" | "ms" => value / phi,
                    "MB/s" => value * phi,
                    _ => value,
                },
                unit: layer.unit.to_string(),
                n,
            }),
            _ => {
                problem.get_or_insert(format!("layer metric {} has no data", layer.name));
            }
        }
    }
    Ok(LayerValues {
        metrics,
        notes,
        spans_jsonl: spans::to_jsonl(&spans),
        problem,
        op_time_shares: op_time_shares(&spans),
        speed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Counts;

    fn span(
        id: u32,
        op: u32,
        name: &'static str,
        class: &'static str,
        dur: u64,
        counts: Counts,
    ) -> Span {
        Span {
            id,
            parent: 0,
            op,
            name,
            class,
            start_ns: 0,
            end_ns: dur,
            allocs: 10,
            counts,
        }
    }

    #[test]
    fn in_situ_spans_win_and_the_probe_fills_gaps() {
        let events = |n| Counts::none().with("events", n).with("sim_us", 1_000_000);
        let spans = vec![
            span(
                1,
                0,
                "harness.run_spec_metered",
                "two_party",
                9_000,
                events(10),
            ),
            span(
                2,
                5,
                "harness.run_spec_metered",
                "two_party",
                2_000,
                events(10),
            ),
            span(
                3,
                0,
                "harness.run_spec_metered",
                "competition",
                4_000,
                events(10),
            ),
        ];
        let own = select(
            &spans,
            Scope::InSituFirst,
            "harness.run_spec_metered",
            "two_party",
            |_| true,
        );
        assert!(!own.fell_back);
        assert_eq!(div(own.dur(), own.count("events")), Some(200.0));
        let fallback = select(
            &spans,
            Scope::InSituFirst,
            "harness.run_spec_metered",
            "competition",
            |_| true,
        );
        assert!(fallback.fell_back);
        assert_eq!(fallback.n(), 1);
        let probe_only = select(
            &spans,
            Scope::Probe,
            "harness.run_spec_metered",
            "two_party",
            |_| true,
        );
        assert_eq!(probe_only.dur(), 9_000.0);

        let (rows, notes) = table(&spans, &[0.02, 0.04, 0.06], (2, 3));
        assert_eq!(rows["harness.run_ns_per_event.two_party"], (200.0, 1));
        assert_eq!(rows["harness.run_ns_per_event.competition"], (400.0, 1));
        assert_eq!(rows["infer.bitrate_err_p50"], (0.04, 3));
        assert!(notes[0].contains("harness.run_ns_per_event.competition"));
        assert!(!notes[0].contains("harness.run_ns_per_event.two_party"));
    }

    #[test]
    fn executor_overhead_is_wall_minus_busy() {
        let cached = Counts::none()
            .with("runs", 2)
            .with("computed", 2)
            .with("jobs", 1);
        let mut spans = vec![span(1, 7, "campaign.run_cached", "", 1_000, cached)];
        for id in [2, 3] {
            let mut child = span(
                id,
                7,
                "harness.run_spec_metered",
                "two_party",
                400,
                Counts::none().with("events", 1),
            );
            child.parent = 1;
            spans.push(child);
        }
        let (rows, _) = table(&spans, &[], (0, 0));
        let (share, n) = rows["campaign.exec_overhead_share"];
        assert!((share - 0.2).abs() < 1e-12);
        assert_eq!(n, 1);
    }
}
