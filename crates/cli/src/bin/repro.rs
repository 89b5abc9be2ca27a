//! `repro` — regenerate every table and figure of the paper, or run a
//! declarative experiment campaign; `repro --help` documents the surface.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vcabench_campaign::{slug, CampaignSpec, ScenarioSpec};
use vcabench_cli::{flag, help, parse, Args, Cmd, Exp, Failure, Opt, EXPERIMENTS, HELP};
use vcabench_fingerprint::CentroidModel;
use vcabench_harness::experiments::*;
use vcabench_harness::render::timeline;
use vcabench_harness::{self as harness, ObserveScenario, TwoPartyOutcome};
use vcabench_infer::GbtModel;
use vcabench_observe::{diagnose_jsonl, diff_runs, Diagnosis, DiffReport, ObserveConfig};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{artifact, RunManifest};
use vcabench_vca::VcaKind;

type Outcome = Result<ExitCode, Failure>;
type Scenarios = Vec<(String, ScenarioSpec)>;
/// The `--json` document: each result's compact text under its key.
type JsonOut = Option<serde_json::Map<String, Raw>>;

/// JSON text that is written as it is.
struct Raw(String);

impl serde::Serialize for Raw {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

fn main() -> ExitCode {
    let (status, message) = match run() {
        Ok(code) => return code,
        Err(Failure::Usage(message)) => (2, format!("{message}\ntry `repro {HELP}`")),
        Err(Failure::Runtime(message)) => (1, message),
    };
    eprintln!("repro: {message}");
    ExitCode::from(status)
}

fn run() -> Outcome {
    let Some(args) = parse(std::env::args().skip(1))? else {
        print!("{}", help());
        return Ok(ExitCode::SUCCESS);
    };
    prepare_outputs(&args)?;
    match args.command.id {
        Cmd::Experiment => experiments(&args),
        Cmd::Campaign => campaign(&args),
        Cmd::Infer => infer(&args),
        Cmd::Observe => observe(&args),
        Cmd::Diff => diff(&args),
        Cmd::ValidateTrace => validate_trace(&args),
    }
}

fn cannot(verb: &str, what: impl Display, e: impl Display) -> Failure {
    Failure::Runtime(format!("cannot {verb} {what}: {e}"))
}

/// Create every output location the invocation names before the first
/// simulation runs, so a long run cannot end in an unwritable path.
fn prepare_outputs(a: &Args) -> Result<(), Failure> {
    if let Some(path) = a.given(Opt::Json) {
        std::fs::File::create(path).map_err(|e| cannot("create", path, e))?;
    }
    let takes_out = flag(Opt::Out).on.contains(&a.command.id);
    let trace_dir = a.given(Opt::TraceDir).map(PathBuf::from);
    for dir in takes_out.then(|| a.out_dir()).into_iter().chain(trace_dir) {
        std::fs::create_dir_all(&dir).map_err(|e| cannot("create", dir.display(), e))?;
    }
    Ok(())
}

fn read(path: impl AsRef<Path>) -> Result<String, Failure> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| cannot("read", path.display(), e))
}

fn write_file(path: impl AsRef<Path>, contents: &str) -> Result<(), Failure> {
    let path = path.as_ref();
    std::fs::write(path, contents).map_err(|e| cannot("write", path.display(), e))
}

/// Write a just-fitted model to `<out>/<file>` and hand it on. A fit that
/// came back empty (its `Err` says why) or that will not freeze — a number
/// in it is not finite — is a runtime failure.
fn freeze<M>(
    a: &Args,
    what: &str,
    file: &str,
    fitted: Result<M, &str>,
    to_json: fn(&M) -> Result<String, String>,
) -> Result<M, Failure> {
    let model = fitted.map_err(|why| cannot("fit the", what, why))?;
    let text = to_json(&model).map_err(|why| cannot("fit the", what, why))?;
    let path = a.out_dir().join(file);
    write_file(&path, &text)?;
    println!("fitted {what} -> {}", path.display());
    Ok(model)
}

fn write_and_say(path: impl AsRef<Path>, contents: &str) -> Result<(), Failure> {
    write_file(&path, contents)?;
    println!("wrote {}", path.as_ref().display());
    Ok(())
}

fn write_artifact(a: &Args, name: &str, contents: &str) -> Result<(), Failure> {
    write_and_say(a.out_dir().join(name), contents)
}

fn mode(a: &Args) -> &'static str {
    if a.has(Opt::Quick) {
        "quick"
    } else {
        "full"
    }
}

/// Print one gate line and pass its outcome through.
fn gate(ok: bool, what: String) -> bool {
    println!("gate: {what} {}", if ok { "OK" } else { "FAIL" });
    ok
}

/// Print a command's verdict; a failed gate is exit 1.
fn verdict(gate: &str, pass: bool) -> Outcome {
    println!("{gate} gate: {}", if pass { "PASS" } else { "FAIL" });
    Ok(ExitCode::from(u8::from(!pass)))
}

fn load_campaign(path: &str) -> Result<CampaignSpec, Failure> {
    CampaignSpec::from_json(&read(path)?).map_err(|e| Failure::Runtime(format!("{path}: {e}")))
}

/// The expanded runs of the campaign spec the invocation names, if any.
fn load_scenarios(a: &Args) -> Result<Option<Scenarios>, Failure> {
    let Some(path) = a.operands.first() else {
        return Ok(None);
    };
    let campaign = load_campaign(path)?;
    let name = &campaign.name;
    let runs = campaign.expand();
    let runs = runs.map_err(|e| Failure::Runtime(format!("campaign `{name}`: {e}")))?;
    let (command, n, jobs) = (a.command.name, runs.len(), a.jobs());
    println!("{command}: campaign `{name}`, {n} runs, {jobs} job(s)");
    Ok(Some(runs.into_iter().map(|r| (r.label, r.spec)).collect()))
}

/// What `infer` identifies and scores: a campaign spec's runs, or the pinned
/// suite.
fn evaluation_scenarios(a: &Args) -> Result<Scenarios, Failure> {
    if let Some(scenarios) = load_scenarios(a)? {
        return Ok(scenarios);
    }
    let suite = harness::pinned_suite(a.has(Opt::Quick));
    let (command, n, mode, jobs) = (a.command.name, suite.len(), mode(a), a.jobs());
    println!("{command}: pinned suite ({n} scenarios, {mode} mode), {jobs} job(s)");
    Ok(suite)
}

fn campaign(a: &Args) -> Outcome {
    let campaign = load_campaign(&a.operands[0])?;
    let (name, out, trace_dir) = (&campaign.name, a.out_dir(), a.given(Opt::TraceDir));
    let (jobs, rerun) = (a.jobs(), a.has(Opt::Rerun));
    let summary = match trace_dir.map(Path::new) {
        Some(dir) => harness::run_campaign_cached_traced(&campaign, jobs, &out, rerun, dir),
        None => harness::run_campaign_cached(&campaign, jobs, &out, rerun),
    };
    let s = summary.map_err(|e| Failure::Runtime(format!("campaign `{name}`: {e}")))?;
    let (total, computed, cached, store) = (s.total, s.computed, s.cached, s.store_path.display());
    println!("campaign `{name}`: {total} runs ({computed} computed, {cached} cached) -> {store}");
    for record in &s.results {
        println!("  {} {}", &record.hash[..12], record.label);
    }
    if let Some(dir) = trace_dir {
        println!("trace artifacts -> {dir}");
    }
    Ok(ExitCode::SUCCESS)
}

fn infer(a: &Args) -> Outcome {
    let scenarios = evaluation_scenarios(a)?;
    let runs = harness::passive_suite(&scenarios, a.jobs());
    // Every fit is over the pinned training campaign, never the evaluated
    // scenarios.
    let training = harness::training_suite(a.has(Opt::Quick));
    let n = training.len();
    println!("fitting per-VCA GBTs over the pinned training campaign ({n} scenarios)");
    let training = harness::passive_suite(&training, a.jobs());
    // The pooled GBT estimator and the centroid classifier: the committed
    // artifacts, or both refit on the same training runs and frozen under
    // `--out` by their committed file names.
    let (gbt, centroid) = if a.has(Opt::Fit) {
        let rows: Vec<_> = training.iter().flat_map(|r| r.rows.clone()).collect();
        let gbt = harness::fit_gbt(&rows).ok_or("no usable training windows");
        let gbt = freeze(a, "GBT model", "gbt-v1.json", gbt, GbtModel::to_json)?;
        let centroid = harness::fit_centroid(&training).ok_or("a family has no training rows");
        let to_json = CentroidModel::to_json;
        let centroid = freeze(a, "centroid model", "centroid-v1.json", centroid, to_json)?;
        (gbt, centroid)
    } else {
        (GbtModel::builtin(), CentroidModel::builtin())
    };
    let identified = harness::build_identify_report(&runs, &centroid);
    print!("{}", harness::render_identify_report(&identified));
    let json = harness::identify_report_json(&identified);
    write_artifact(a, "IDENTIFY_report.json", &json)?;
    let report = harness::build_report(&runs, &gbt);
    print!("{}", harness::render_infer_report(&report));
    write_artifact(a, "INFER_report.json", &harness::infer_report_json(&report))?;
    let routed = harness::routed_report(&runs, &training, &centroid);
    print!("{}", harness::render_routed_report(&routed));
    let json = harness::routed_report_json(&routed);
    write_artifact(a, "ROUTED_report.json", &json)?;
    // The gates score the GBT and the centroid classifier; the heuristic
    // estimator and the rule classifier are reported as baselines. An empty
    // pool has no median, so a run that scored no window fails (the routed
    // medians pool the same windows).
    let gated = report.estimators.iter().find(|e| e.estimator == "gbt");
    let gated = gated.expect("report scores the GBT");
    let (max_err, min_recall) = (harness::MAX_BITRATE_ERR, harness::MIN_FREEZE_RECALL);
    let (bitrate, recall) = (&gated.bitrate, gated.freeze.recall);
    let (err, n) = (bitrate.median_rel_err, bitrate.n);
    let (err_pct, max_pct) = (err * 100.0, max_err * 100.0);
    let scored = format!("over {n} scored tap windows");
    let what = format!("median bitrate error {err_pct:.1}% {scored} (max {max_pct:.1}%)");
    let err_ok = gate(n > 0 && err <= max_err, what);
    let what = format!("freeze recall {recall:.2} (min {min_recall:.2})");
    let recall_ok = gate(recall >= min_recall, what);
    let max_delta = harness::MAX_ROUTED_DELTA;
    let (delta_pp, max_pp) = (routed.delta * 100.0, max_delta * 100.0);
    let what = format!("routed delta {delta_pp:+.2}pp (max {max_pp:+.2}pp)");
    let delta_ok = gate(routed.delta <= max_delta, what);
    let (acc, min_acc) = (identified.centroid_accuracy(), harness::MIN_ID_ACCURACY);
    let what = format!("centroid identification accuracy {acc:.3} (min {min_acc:.2})");
    let id_ok = gate(acc >= min_acc, what);
    verdict(a.command.name, err_ok && recall_ok && delta_ok && id_ok)
}

/// Validate one trace against the schema and against its sibling manifest
/// (`<label>.events.jsonl` → `<label>.manifest.json`), which says what the
/// trace held when it was written: a file that validates line by line but
/// holds other events (cut short at a line boundary, say) is a failure, and
/// so is one whose manifest says a bounded ring dropped events (only a
/// trace written elsewhere can: this build's logs keep every event). A
/// loose trace with no manifest next to it is checked against the schema
/// only; a manifest that is there but cannot be read (a directory, no
/// permission, not UTF-8) fails the trace.
fn validate_one(path: &str) -> Result<(), Failure> {
    let counts = vcabench_telemetry::validate_jsonl(&read(path)?)
        .map_err(|e| Failure::Runtime(format!("{path}: {e}")))?;
    let total: u64 = counts.values().sum();
    let kinds = |counts: &BTreeMap<String, u64>| {
        let kinds: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        kinds.join(", ")
    };
    println!("{path}: {total} events OK ({})", kinds(&counts));
    let Some(manifest_path) = path
        .strip_suffix(".events.jsonl")
        .map(|p| format!("{p}.manifest.json"))
    else {
        return Ok(());
    };
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(cannot("read", &manifest_path, e)),
    };
    let version = vcabench_telemetry::TRACE_SCHEMA_VERSION;
    let manifest: RunManifest =
        artifact::from_json(&manifest_path, version, &text).map_err(Failure::Runtime)?;
    let dropped = manifest.events_dropped;
    if dropped > 0 {
        let what = "dropped by a bounded ring: the trace is incomplete";
        let what = format!("manifest records {dropped} event(s) {what}");
        return Err(Failure::Runtime(format!("{path}: {what}")));
    }
    if total != manifest.events_stored || counts != manifest.event_counts {
        let (stored, recorded) = (manifest.events_stored, kinds(&manifest.event_counts));
        let what = format!("manifest records {stored} events ({recorded}), trace holds {total}");
        return Err(Failure::Runtime(format!("{path}: {what}")));
    }
    Ok(())
}

fn validate_trace(a: &Args) -> Outcome {
    let mut failed = false;
    for path in &a.operands {
        if let Err(Failure::Runtime(e) | Failure::Usage(e)) = validate_one(path) {
            eprintln!("repro: {e}");
            failed = true;
        }
    }
    Ok(ExitCode::from(u8::from(failed)))
}

fn observe(a: &Args) -> Outcome {
    // A campaign spec's expanded runs are reported only; the pinned
    // disruption suite is gated.
    let (scenarios, gated) = match load_scenarios(a)? {
        Some(runs) => {
            let unlabeled = |(name, spec)| ObserveScenario {
                name,
                expect: None,
                spec,
            };
            (runs.into_iter().map(unlabeled).collect(), false)
        }
        None => {
            let suite = harness::pinned_disruption_suite(a.has(Opt::Quick));
            let (n, mode, jobs) = (suite.len(), mode(a), a.jobs());
            println!("observe: pinned disruption suite ({n} runs, {mode} mode), {jobs} job(s)");
            (suite, true)
        }
    };
    let report = harness::observe_suite(&scenarios, a.jobs());
    print!("{}", harness::render_observe_report(&report));
    let out_dir = a.out_dir();
    for run in &report.runs {
        let spans_path = out_dir.join(format!("{}.spans.jsonl", run.name));
        write_file(spans_path, &run.diagnosis.timeline.spans_jsonl())?;
    }
    let artifact = out_dir.join("OBSERVE_report.json");
    let json = harness::observe_report_json(&report);
    write_file(&artifact, &json)?;
    let (path, n) = (artifact.display(), report.runs.len());
    println!("wrote {path} (+ {n} span timelines)");
    if !gated {
        return Ok(ExitCode::SUCCESS);
    }
    let failures = harness::gate_failures(&report);
    for f in &failures {
        println!("gate: {f}");
    }
    if failures.is_empty() {
        return verdict(a.command.name, true);
    }
    println!("observe gate: FAIL ({} run(s))", failures.len());
    Ok(ExitCode::FAILURE)
}

/// Offline-diagnose one exported `.events.jsonl` trace.
fn diagnose_trace_file(path: &Path) -> Result<Diagnosis, Failure> {
    diagnose_jsonl(&read(path)?, &ObserveConfig, None)
        .map_err(|e| Failure::Runtime(format!("{}: {e}", path.display())))
}

/// Labels of every `<label>.events.jsonl` in a trace directory, sorted.
fn trace_labels(dir: &Path) -> Result<Vec<String>, Failure> {
    let entries = std::fs::read_dir(dir).map_err(|e| cannot("read", dir.display(), e))?;
    let names = entries.filter_map(|e| e.ok()?.file_name().into_string().ok());
    let labels = names.filter_map(|n| n.strip_suffix(".events.jsonl").map(str::to_string));
    let mut labels: Vec<String> = labels.collect();
    labels.sort();
    Ok(labels)
}

fn diff(a: &Args) -> Outcome {
    let (side_a, side_b) = (a.operands[0].clone(), a.operands[1].clone());
    let (path_a, path_b) = (PathBuf::from(&side_a), PathBuf::from(&side_b));
    let pair = |label: &str, file_a: &Path, file_b: &Path| -> Result<_, Failure> {
        let da = diagnose_trace_file(file_a)?;
        Ok(diff_runs(label, &da, &diagnose_trace_file(file_b)?))
    };
    let mut report = DiffReport {
        side_a,
        side_b,
        entries: Vec::new(),
        only_a: Vec::new(),
        only_b: Vec::new(),
    };
    if path_a.is_dir() != path_b.is_dir() {
        let mixed = "diff sides must both be trace files or both be trace directories";
        return Err(Failure::Usage(mixed.into()));
    } else if path_a.is_dir() {
        let (labels_a, mut labels_b) = (trace_labels(&path_a)?, trace_labels(&path_b)?);
        let (shared, only_a): (Vec<_>, Vec<_>) =
            labels_a.iter().cloned().partition(|l| labels_b.contains(l));
        println!("diff: {} paired run(s), {} job(s)", shared.len(), a.jobs());
        let file = |dir: &Path, label: &str| dir.join(format!("{label}.events.jsonl"));
        let entries = vcabench_campaign::run_indexed(shared.len(), a.jobs(), |i| {
            let label = &shared[i];
            pair(label, &file(&path_a, label), &file(&path_b, label))
        });
        // The first failure in label order, whatever order the workers hit them in.
        report.entries = entries.into_iter().collect::<Result<_, Failure>>()?;
        labels_b.retain(|l| !labels_a.contains(l));
        (report.only_a, report.only_b) = (only_a, labels_b);
    } else {
        let name = path_a.file_name().and_then(|n| n.to_str());
        let label = name.map_or("trace", |n| n.strip_suffix(".events.jsonl").unwrap_or(n));
        report.entries.push(pair(label, &path_a, &path_b)?);
    }
    print!("{}", report.render());
    write_artifact(a, "DIFF_report.json", &report.to_json())?;
    Ok(ExitCode::SUCCESS)
}

/// The experiment's reduced preset under `--quick`, else its default.
fn preset<C: Default>(a: &Args, quick: fn() -> C) -> C {
    if a.has(Opt::Quick) {
        quick()
    } else {
        C::default()
    }
}

fn emit(json: &mut JsonOut, key: &str, v: impl serde::Serialize) {
    if let Some(map) = json {
        let text = serde_json::to_string(&v).expect("serializable result");
        map.insert(key.to_string(), Raw(text));
    }
}

/// Print a result and record it under `key`.
fn report<R: serde::Serialize>(json: &mut JsonOut, key: &str, r: R, print: fn(&R)) {
    print(&r);
    emit(json, key, &r);
}

fn print_timeline(label: &str, series: &[f64], cap: f64) {
    print!("{}", timeline(label, series, cap, Some(30.0), Some(150.0)));
}

fn experiments(a: &Args) -> Outcome {
    let mut json: JsonOut = a.has(Opt::Json).then(serde_json::Map::new);
    experiment(a.exp, a, &mut json);
    if let (Some(path), Some(map)) = (a.given(Opt::Json), json) {
        let text = serde_json::to_string_pretty(&map);
        write_and_say(path, &text.expect("serialize"))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Run one group on `--jobs` workers; unless noted, its result is keyed by
/// its first name.
fn experiment(exp: Exp, a: &Args, out: &mut JsonOut) {
    let group = &EXPERIMENTS[exp as usize];
    let (key, jobs) = (group.names[0], a.jobs());
    match exp {
        Exp::Table2 => {
            let cfg = preset(a, table2::Table2Config::quick);
            report(out, key, table2::run(&cfg, jobs), table2::print);
        }
        Exp::Fig1 => {
            let cfg = preset(a, fig1::Fig1Config::quick);
            report(out, key, fig1::run(&cfg, jobs), fig1::print);
        }
        Exp::Fig2 => {
            let cfg = preset(a, fig2::Fig2Config::quick);
            report(out, key, fig2::run(&cfg, jobs), fig2::print);
        }
        Exp::Fig3 => {
            let cfg = preset(a, fig3::Fig3Config::quick);
            report(out, key, fig3::run(&cfg, jobs), fig3::print);
        }
        Exp::Disruptions => {
            let cfg = preset(a, fig4_5_6::DisruptionConfig::quick);
            report(out, "fig4_5_6", fig4_5_6::run(&cfg, jobs), fig4_5_6::print);
        }
        Exp::Shares => {
            let cfg = preset(a, fig8_to_11::Fig8Config::quick);
            report(
                out,
                "fig8_10",
                fig8_to_11::run(&cfg, jobs),
                fig8_to_11::print,
            );
        }
        Exp::Timelines => {
            println!("Fig 9/11: single-run competition timelines (summaries)");
            let figs = ["fig9a", "fig9b", "fig11"];
            let pairings = [
                (VcaKind::Zoom, VcaKind::Zoom, 0.5),
                (VcaKind::Meet, VcaKind::Meet, 0.5),
                (VcaKind::Teams, VcaKind::Zoom, 1.0),
            ];
            let timelines = fig8_to_11::run_timelines(&pairings, jobs);
            for (fig, t) in figs.into_iter().zip(timelines) {
                let (inc, comp, cap) = (&t.incumbent, &t.competitor, t.capacity_mbps);
                let label = format!("{fig} {inc}-{comp} @{cap:.1}");
                let (from, to) = (SimTime::from_secs(90), SimTime::from_secs(150));
                let rate = |series: &[f64]| TwoPartyOutcome::rate_between(series, from, to);
                let (iu, cu) = (rate(&t.inc_up), rate(&t.comp_up));
                let (id, cd) = (rate(&t.inc_down), rate(&t.comp_down));
                println!("  {label}: up {iu:.2} vs {cu:.2} | down {id:.2} vs {cd:.2}");
                print_timeline("incumbent up", &t.inc_up, cap);
                print_timeline("competitor up", &t.comp_up, cap);
                // Stable snake_case key; the display label rides along
                // inside, as the last member.
                let mut text = serde_json::to_string(&t).expect("serializable timeline");
                text.pop();
                text.push_str(",\"label\":");
                serde::json::write_escaped(&mut text, &label);
                text.push('}');
                let key = slug(&format!("{fig} {inc} {comp} {cap:.1}"));
                emit(out, &key, Raw(text));
            }
        }
        Exp::Tcp => {
            let cfg = preset(a, fig12_13::Fig12Config::quick);
            let r = fig12_13::run(&cfg, jobs);
            fig12_13::print(&r);
            let f13 = fig12_13::run_fig13();
            let burst = &f13.burst_at_secs;
            println!("Fig 13: Zoom probe burst vs iPerf3 at 2 Mbps: burst at {burst:?} s");
            print_timeline("Zoom downlink", &f13.zoom, 1.6);
            print_timeline("iPerf3 downlink", &f13.iperf, 1.6);
            // Two results, one under each of the group's names.
            emit(out, key, &r);
            emit(out, group.names[1], &f13);
        }
        Exp::Fig14 => {
            report(out, key, fig14::run(), fig14::print);
        }
        Exp::Ext => {
            let cfg = preset(a, ext::ImpairmentsConfig::quick);
            let r = ext::impairments::run(&cfg, jobs);
            report(out, "ext_impairments", r, ext::impairments::print);
            let r = ext::ablation::run(jobs);
            report(out, "ext_ablation", r, ext::ablation::print);
        }
        Exp::Fig15 => {
            let cfg = preset(a, fig15::Fig15Config::quick);
            report(out, key, fig15::run(&cfg, jobs), fig15::print);
        }
        Exp::All => {
            let others = EXPERIMENTS.iter().filter(|e| e.id != Exp::All);
            return others.for_each(|e| experiment(e.id, a, out));
        }
    }
    println!();
}
