//! One workload, one process: set-up, timed passes, checks, metrics.
//!
//! A run sets up (three times or more untraced, reporting the median as
//! `setup_s`),
//! then executes whole passes of the workload's fixed op list, closed-loop,
//! until the pass count closest to `--seconds` is reached, and reports the
//! end-to-end metrics over the successful ops. With `--trace 1` the same
//! passes run with spans recorded, for half the time, and the rest goes to
//! the probe and the isolated drivers of `layers.rs`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc;
use crate::calib::{self, Reading};
use crate::digest;
use crate::layers;
use crate::metrics::{self, RUN_SECONDS};
use crate::ops::{self, Models, OpOut};
use crate::report::{MetricValue, RunReport};
use crate::spans::{self, Ctx};
use crate::stats;
use crate::surface::{self, Campaign, GroundTruth, Run};
use crate::workloads::{self, Workload, PASSIVE_SEEDS};

/// Full set-ups per untraced run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Full set-ups per untraced run, at most.
const MAX_SETUP_REPS: usize = 30;

/// A cheap set-up is repeated until this many seconds have gone into
/// set-ups, so its median is as steady as an expensive one's.
const SETUP_SECONDS: f64 = 2.0;

/// Span/op identifier of set-up work (op ids of timed ops start at 1;
/// the probe uses 0).
pub const SETUP_OP: u32 = u32::MAX;

/// Op identifier of a campaign pass as a whole; its runs are ops 1..=n.
const PASS_OP: u32 = u32::MAX - 1;

/// Command-line arguments of `bench run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: shifts every seed axis.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Where the full result, `spans.jsonl` and scratch files go.
    pub out_dir: PathBuf,
}

/// Everything set-up leaves behind for the passes.
pub struct Prepared {
    workload: Workload,
    /// Worker threads of the workload's campaign passes (timed or populate).
    jobs: usize,
    /// Scratch directory of this set-up.
    pub dir: PathBuf,
    /// The parsed campaign.
    pub campaign: Campaign,
    /// The op list, in op order.
    pub runs: Vec<Run>,
    models: Option<Models>,
    /// Ground truth per run (`trace_offline`).
    truth: Vec<GroundTruth>,
    /// Record lines of the populate pass (`cached_rerun`).
    populated: Vec<String>,
}

impl Prepared {
    /// A bare campaign to push through [`campaign_pass`] (the probe's).
    pub fn for_campaign(campaign: Campaign, runs: Vec<Run>, dir: PathBuf) -> Prepared {
        Prepared {
            workload: Workload::SimMatrix,
            jobs: 1,
            dir,
            campaign,
            runs,
            models: None,
            truth: Vec::new(),
            populated: Vec::new(),
        }
    }
}

/// One timed op.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Index into the workload's op list.
    pub index: usize,
    /// Wall time of the op, nanoseconds.
    pub wall_ns: u64,
    /// What the reference kernels measured right after it.
    pub speed: Reading,
    /// What it produced.
    pub out: OpOut,
}

/// One pass over (a slice of) the op list.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall time of the pass, without the share the interleaved reference
    /// kernels took (their time summed over threads / worker threads).
    pub wall_ns: u64,
    /// Process-wide heap allocations during the pass, the kernels' left out.
    pub allocs: u64,
    /// Its ops.
    pub samples: Vec<OpSample>,
    /// Pass-level check failures.
    pub problems: Vec<String>,
}

/// Wall time and allocations of `body`, net of the reference kernels that
/// ran inside it on `jobs` threads.
fn metered<T>(jobs: usize, body: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs0, kernel_allocs0, kernel0) =
        (alloc::total(), calib::kernel_allocs(), calib::peek());
    let t0 = Instant::now();
    let out = body();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let kernel_ns = calib::peek().total_ns() - kernel0.total_ns();
    let allocs = (alloc::total() - allocs0) - (calib::kernel_allocs() - kernel_allocs0);
    let net_ns = wall_ns.saturating_sub((kernel_ns / jobs as f64) as u64);
    (out, net_ns, allocs)
}

fn write_and_parse(ctx: Ctx, dir: &Path, name: &str, json: &str) -> Result<Campaign, String> {
    let path = dir.join(name);
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    surface::parse_campaign(ctx, &text)
}

/// The first run of each scenario class, in op order.
pub fn one_per_class(runs: &[Run]) -> Vec<&Run> {
    let mut seen: Vec<&str> = Vec::new();
    runs.iter()
        .filter(|r| {
            let class = surface::spec_info(&r.spec).class;
            let fresh = !seen.contains(&class);
            if fresh {
                seen.push(class);
            }
            fresh
        })
        .collect()
}

/// Run all of `campaign` through the cached executor into `store`, timing
/// each run inside the runner closure. With `ops_per_run` every run is an
/// op of its own (a timed pass); otherwise its spans stay under `ctx.op`
/// (set-up and probe). Returns the pass and the store's record lines.
pub fn campaign_pass(
    ctx: Ctx,
    prep: &Prepared,
    jobs: usize,
    store: &Path,
    ops_per_run: bool,
) -> (PassOut, Vec<String>) {
    let samples: Mutex<Vec<OpSample>> = Mutex::new(Vec::with_capacity(prep.runs.len()));
    let (summary, wall_ns, allocs) = metered(jobs, || {
        surface::run_cached(ctx, &prep.campaign, jobs, store, false, &|parent, run| {
            let op_ctx = Ctx {
                op: if ops_per_run {
                    run.index as u32 + 1
                } else {
                    parent.op
                },
                parent: parent.parent,
            };
            let t = Instant::now();
            let (outcome, out) = ops::sim_op(op_ctx, &run.spec);
            let wall_ns = t.elapsed().as_nanos() as u64;
            let speed = if ops_per_run {
                calib::tick(op_ctx, wall_ns)
            } else {
                Reading::default()
            };
            samples
                .lock()
                .expect("a sim op panicked while holding the sample list")
                .push(OpSample {
                    index: run.index,
                    wall_ns,
                    speed,
                    out,
                });
            outcome
        })
    });
    let mut samples = samples
        .into_inner()
        .expect("a sim op panicked while holding the sample list");
    samples.sort_by_key(|s| s.index);
    let mut pass = PassOut {
        wall_ns,
        allocs,
        samples,
        problems: Vec::new(),
    };
    let mut lines = Vec::new();
    match summary {
        Ok(s) => {
            if s.computed != prep.runs.len() || s.cached != 0 {
                pass.problems.push(format!(
                    "fresh store: {} computed / {} cached, expected {} / 0",
                    s.computed,
                    s.cached,
                    prep.runs.len()
                ));
            }
            for (sample, record) in pass.samples.iter_mut().zip(&s.results) {
                sample.out.digests[0] = digest::of_bytes(record.line.as_bytes());
            }
            lines = s.results.into_iter().map(|r| r.line).collect();
        }
        Err(e) => pass.problems.push(format!("run_cached: {e}")),
    }
    (pass, lines)
}

/// Set a workload up in `dir`. Spans go under `ctx` (set-up or probe).
pub fn setup(workload: Workload, seed: u64, dir: &Path, ctx: Ctx) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let passive = matches!(workload, Workload::OnlinePassive | Workload::TraceOffline);
    let campaign = if passive {
        write_and_parse(ctx, dir, "passive.json", &workloads::passive_json(seed))?
    } else {
        write_and_parse(ctx, dir, "matrix.json", &workloads::matrix_json(seed))?
    };
    let mut runs = surface::expand(ctx, &campaign)?;
    if passive {
        // Seed-major order, so the first twelve runs are one seed slice:
        // every kind × shape once (what `trace_offline` runs).
        runs.sort_by_key(|r| surface::spec_info(&r.spec).seed);
    }
    let mut prep = Prepared {
        workload,
        jobs: if workload == Workload::SimMatrix {
            1
        } else {
            workloads::parallel_jobs()
        },
        dir: dir.to_path_buf(),
        campaign,
        runs,
        models: None,
        truth: Vec::new(),
        populated: Vec::new(),
    };
    match workload {
        Workload::SimMatrix | Workload::SimMatrixParallel => {
            for run in one_per_class(&prep.runs) {
                ops::sim_op(ctx, &run.spec)
                    .1
                    .ok(&format!("warm-up {}", run.label))?;
            }
        }
        Workload::OnlinePassive => {
            let models = Models::load(ctx)?;
            ops::online_op(ctx, &models, &prep.runs[0]).ok("warm-up online op")?;
            prep.models = Some(models);
        }
        Workload::TraceOffline => {
            let models = Models::load(ctx)?;
            prep.truth = prep
                .runs
                .iter()
                .map(|r| surface::run_spec_infer(ctx, &r.spec).0.stats)
                .collect();
            let warm = ops::offline_op(
                ctx,
                &models,
                &prep.truth[0],
                &prep.runs[0],
                &dir.join("traces"),
            );
            warm.ok("warm-up offline op")?;
            prep.models = Some(models);
        }
        Workload::CachedRerun => {
            let (pass, lines) = campaign_pass(ctx, &prep, prep.jobs, &dir.join("store"), false);
            if let Some(problem) = pass.problems.first() {
                return Err(format!("populate: {problem}"));
            }
            if let Some(bad) = pass.samples.iter().find(|s| s.out.fail.is_some()) {
                return Err(format!(
                    "populate: `{}` failed: {}",
                    prep.runs[bad.index].label,
                    bad.out.fail.as_deref().unwrap_or_default()
                ));
            }
            prep.populated = lines;
            cached(ctx, &prep).ok("warm-up cached invocation")?;
        }
    }
    Ok(prep)
}

fn cached(ctx: Ctx, prep: &Prepared) -> OpOut {
    let sim_s = prep
        .runs
        .iter()
        .map(|r| surface::spec_info(&r.spec).sim_s)
        .sum();
    ops::cached_op(
        ctx,
        &prep.campaign,
        &prep.dir.join("store"),
        &prep.populated,
        sim_s,
    )
}

/// Time `op` as op number `index` of a serial pass.
fn timed(index: usize, op: impl FnOnce(Ctx) -> OpOut) -> OpSample {
    let ctx = Ctx::op(index as u32 + 1);
    let t = Instant::now();
    let out = op(ctx);
    let wall_ns = t.elapsed().as_nanos() as u64;
    OpSample {
        index,
        wall_ns,
        speed: calib::tick(ctx, wall_ns),
        out,
    }
}

/// One pass of the workload's ops.
pub fn pass(prep: &Prepared, pass_idx: usize) -> PassOut {
    match prep.workload {
        Workload::SimMatrix | Workload::SimMatrixParallel => {
            let store = prep.dir.join(format!("store-pass{pass_idx}"));
            let (out, _) = campaign_pass(Ctx::op(PASS_OP), prep, prep.jobs, &store, true);
            std::fs::remove_dir_all(&store).ok();
            out
        }
        Workload::CachedRerun => {
            serial_pass(std::iter::once_with(|| timed(0, |ctx| cached(ctx, prep))))
        }
        Workload::OnlinePassive => {
            let models = prep.models.as_ref().expect("set-up loaded the models");
            serial_pass(
                prep.runs
                    .iter()
                    .enumerate()
                    .map(|(i, run)| timed(i, |ctx| ops::online_op(ctx, models, run))),
            )
        }
        Workload::TraceOffline => {
            let models = prep.models.as_ref().expect("set-up loaded the models");
            // The first seed slice (every kind × shape once) on every pass, so
            // the op mix — and `allocs_per_op` — does not depend on how many
            // passes fit.
            let per_slice = prep.runs.len() / PASSIVE_SEEDS as usize;
            let traces = prep.dir.join("traces");
            serial_pass((0..per_slice).map(|i| {
                timed(i, |ctx| {
                    ops::offline_op(ctx, models, &prep.truth[i], &prep.runs[i], &traces)
                })
            }))
        }
    }
}

fn serial_pass(ops: impl Iterator<Item = OpSample>) -> PassOut {
    let (samples, wall_ns, allocs) = metered(1, || ops.collect());
    PassOut {
        wall_ns,
        allocs,
        samples,
        problems: Vec::new(),
    }
}

/// Run whole passes until the pass count closest to `seconds` is reached
/// (always at least one): after each pass, another follows only if half of
/// it still fits.
pub fn timed_passes(prep: &Prepared, seconds: f64) -> Vec<PassOut> {
    let mut passes = Vec::new();
    let t0 = Instant::now();
    loop {
        passes.push(pass(prep, passes.len()));
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 / 2.0 > seconds {
            return passes;
        }
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What the passes add up to, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Failure and check messages.
    pub failures: Vec<String>,
    /// Wall ms of every successful op on the calibrated clock: the raw
    /// reading divided by the speed factor measured right after the op.
    pub op_ms: Vec<f64>,
    /// The same ops on the raw clock.
    pub op_ms_raw: Vec<f64>,
    /// Σ simulated seconds of successful ops.
    pub sim_s: f64,
    /// Σ pass wall seconds.
    pub wall_s: f64,
    /// Σ pass allocations.
    pub allocs: u64,
    /// Σ op wall seconds (busy time of the workers).
    pub busy_s: f64,
    /// Pooled relative bitrate errors.
    pub errs: Vec<f64>,
    /// Classifier verdicts: (right, total).
    pub classified: (u64, u64),
    /// First-seen digests per op index.
    pub digests: BTreeMap<usize, [u64; 3]>,
}

/// Fold passes into a tally, applying the digest-repeat check.
pub fn tally(prep: &Prepared, passes: &[PassOut]) -> Tally {
    let mut t = Tally::default();
    for (pi, pass) in passes.iter().enumerate() {
        t.wall_s += pass.wall_ns as f64 / 1e9;
        t.allocs += pass.allocs;
        for problem in &pass.problems {
            t.failures.push(format!("pass {pi}: {problem}"));
        }
        for s in &pass.samples {
            t.attempted += 1;
            t.busy_s += s.wall_ns as f64 / 1e9;
            let label = &prep.runs[s.index].label;
            let mut fail = s.out.fail.clone();
            if fail.is_none() {
                let first = *t.digests.entry(s.index).or_insert(s.out.digests);
                if first != s.out.digests {
                    fail = Some("outcome digest differs from an earlier pass".to_string());
                }
            }
            match fail {
                Some(why) => {
                    t.failed += 1;
                    t.failures.push(format!("pass {pi}: `{label}`: {why}"));
                }
                None => {
                    let raw_ms = s.wall_ns as f64 / 1e6;
                    t.op_ms.push(raw_ms / s.speed.factor());
                    t.op_ms_raw.push(raw_ms);
                    t.sim_s += s.out.sim_s;
                    t.errs.extend_from_slice(&s.out.errs);
                    if let Some(ok) = s.out.classified_ok {
                        t.classified.0 += u64::from(ok);
                        t.classified.1 += 1;
                    }
                }
            }
        }
    }
    t
}

fn metric(name: &str, value: f64, n: usize) -> MetricValue {
    let unit = metrics::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| metrics::layer_metric(name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"));
    MetricValue {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        n,
    }
}

/// Median and the workload's tail percentile of a list of op times.
fn p50_and_tail(op_ms: &[f64], workload: Workload) -> Option<(f64, f64)> {
    let op_ms = stats::sorted(op_ms.to_vec());
    stats::median(&op_ms).zip(stats::percentile(&op_ms, workload.tail_percentile()))
}

/// Fill in the end-to-end metrics of a tally: times on the calibrated clock
/// (an op's or a set-up's raw time / the speed factor measured right after
/// it; the timed passes' raw time / the speed factor of all their ticks),
/// and the raw clock readings beside them for the full result.
fn end_to_end(
    report: &mut RunReport,
    workload: Workload,
    t: &Tally,
    setups: &[f64],
    setups_calibrated: &[f64],
    timed_speed: &Reading,
) -> Result<(), String> {
    let n = t.op_ms.len();
    let (p50, tail) = p50_and_tail(&t.op_ms, workload).ok_or("no successful op to time")?;
    let (raw_p50, raw_tail) =
        p50_and_tail(&t.op_ms_raw, workload).ok_or("no successful op to time")?;
    let raw_setup = stats::median_of(setups).ok_or("no set-up was timed")?;
    let setup = stats::median_of(setups_calibrated).ok_or("no set-up was timed")?;
    report.raw = vec![
        ("sim_s_per_wall_s".to_string(), t.sim_s / t.wall_s),
        ("op_ms_p50".to_string(), raw_p50),
        ("op_ms_tail".to_string(), raw_tail),
        ("setup_s".to_string(), raw_setup),
    ];
    report.metrics = vec![
        metric(
            "sim_s_per_wall_s",
            t.sim_s / t.wall_s * timed_speed.factor(),
            n,
        ),
        metric("op_ms_p50", p50, n),
        metric("op_ms_tail", tail, n),
        metric(
            "allocs_per_op",
            t.allocs as f64 / t.attempted as f64,
            t.attempted as usize,
        ),
        metric("peak_rss_mb", peak_rss_mb()?, 1),
        metric("setup_s", setup, setups.len()),
    ];
    Ok(())
}

/// Scratch directory of one run, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Execute `bench run`.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let scratch = Scratch(args.out_dir.join(format!("tmp-{}", std::process::id())));
    let mut report = RunReport::new(args);
    let setup_ctx = Ctx::op(SETUP_OP);
    if args.traced {
        spans::set_enabled(true);
    }
    // Raw wall seconds of each set-up, and the same on the calibrated clock
    // (each divided by the speed factor measured right after it).
    let mut setups: Vec<f64> = Vec::new();
    let mut setups_calibrated: Vec<f64> = Vec::new();
    let mut prep: Option<Prepared> = None;
    calib::take();
    while setups.len() < SETUP_REPS
        || (setups.len() < MAX_SETUP_REPS && setups.iter().sum::<f64>() < SETUP_SECONDS)
    {
        if let Some(old) = prep.take() {
            std::fs::remove_dir_all(&old.dir).ok();
        }
        let dir = scratch.0.join(format!("setup-{}", setups.len()));
        let t0 = Instant::now();
        let prepared = setup(args.workload, args.seed, &dir, setup_ctx)?;
        let wall = t0.elapsed();
        let speed = calib::tick(setup_ctx, wall.as_nanos() as u64);
        setups.push(wall.as_secs_f64());
        setups_calibrated.push(wall.as_secs_f64() / speed.factor());
        prep = Some(prepared);
        if args.traced {
            break;
        }
    }
    let prep = prep.expect("at least one set-up ran");
    let setup_speed = calib::take();
    report.jobs = if args.workload.is_parallel() {
        prep.jobs
    } else {
        1
    };

    let budget = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let passes = timed_passes(&prep, budget);
    let timed_speed = calib::take();
    let t = tally(&prep, &passes);
    report.passes = passes.len();
    report.attempted = t.attempted;
    report.failed = t.failed;
    report.failures = t.failures.clone();
    report.correct = t.failures.is_empty();
    report.setup_samples = setups.clone();
    report.tail_beyond = stats::beyond(t.op_ms.len(), report.tail_percentile);
    report.tail_rule = stats::tail_percentile(t.op_ms.len());
    report.sim_s = t.sim_s;
    report.wall_s = t.wall_s;
    report.busy_s = t.busy_s;
    report.op_ms_p50 = stats::median_of(&t.op_ms);
    report.speed = vec![("setup", setup_speed), ("timed", timed_speed)];
    report.bitrate_err_p50 = stats::median_of(&t.errs);
    report.digests = t
        .digests
        .iter()
        .map(|(&i, d)| (prep.runs[i].label.clone(), *d))
        .collect();

    if args.traced {
        let layer_values =
            layers::traced_tail(args, &scratch.0, &prep, &t, setup_speed.plus(&timed_speed))?;
        report.speed.push(("whole traced run", layer_values.speed));
        report.layer_notes = layer_values.notes;
        report.op_time_shares = layer_values.op_time_shares;
        report.metrics = layer_values.metrics;
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
        let spans_path = args
            .out_dir
            .join(format!("{}.spans.jsonl", args.workload.name()));
        std::fs::write(&spans_path, layer_values.spans_jsonl)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        report.spans_file = Some(spans_path.display().to_string());
        if let Some(problem) = layer_values.problem {
            report.failures.push(problem);
            report.correct = false;
        }
    } else {
        end_to_end(
            &mut report,
            args.workload,
            &t,
            &setups,
            &setups_calibrated,
            &timed_speed,
        )?;
    }
    if (args.seconds - RUN_SECONDS as f64).abs() > f64::EPSILON {
        report.layer_notes.push(format!(
            "--seconds {} is not the declared run length {RUN_SECONDS}",
            args.seconds
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: usize, ms: f64, digest: u64, fail: Option<&str>) -> OpSample {
        OpSample {
            index,
            wall_ns: (ms * 1e6) as u64,
            speed: Reading::default(),
            out: OpOut {
                sim_s: 20.0,
                digests: [digest, 0, 0],
                fail: fail.map(str::to_string),
                ..OpOut::default()
            },
        }
    }

    fn toy_prep() -> Prepared {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test-toy");
        let campaign =
            surface::parse_campaign(Ctx::default(), &workloads::probe_json(1)).expect("probe spec");
        let runs = surface::expand(Ctx::default(), &campaign).expect("probe spec expands");
        Prepared::for_campaign(campaign, runs, dir)
    }

    #[test]
    fn failed_ops_count_but_carry_no_timing() {
        let prep = toy_prep();
        let passes = vec![
            PassOut {
                wall_ns: 1_000_000_000,
                allocs: 300,
                samples: vec![sample(0, 10.0, 7, None), sample(1, 20.0, 8, Some("bad"))],
                problems: vec![],
            },
            PassOut {
                wall_ns: 1_000_000_000,
                allocs: 100,
                samples: vec![sample(0, 12.0, 7, None), sample(1, 30.0, 9, None)],
                problems: vec!["store mismatch".to_string()],
            },
        ];
        let t = tally(&prep, &passes);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.op_ms, vec![10.0, 12.0, 30.0]);
        assert_eq!(t.sim_s, 60.0);
        assert_eq!(t.allocs, 400);
        assert_eq!(t.failures.len(), 2);
        assert!(t.failures[0].contains("bad") && t.failures[1].contains("store mismatch"));
    }

    #[test]
    fn an_op_is_timed_on_the_speed_measured_right_after_it() {
        let prep = toy_prep();
        let mut slow = sample(0, 30.0, 7, None);
        // Both kernels took 1.5× their nominal cost after this op.
        slow.speed = Reading {
            des_ns: 1.5 * calib::DES_NOMINAL_US * 1e3,
            des_calls: 1.0,
            json_ns: 3.0 * calib::JSON_NOMINAL_US * 1e3,
            json_calls: 2.0,
        };
        let pass = PassOut {
            wall_ns: 1,
            allocs: 0,
            samples: vec![slow, sample(1, 30.0, 8, None)],
            problems: vec![],
        };
        let t = tally(&prep, &[pass]);
        assert_eq!(t.op_ms_raw, vec![30.0, 30.0]);
        assert!((t.op_ms[0] - 20.0).abs() < 1e-9, "{}", t.op_ms[0]);
        assert_eq!(t.op_ms[1], 30.0, "no reading leaves the raw time");
    }

    #[test]
    fn a_digest_that_changes_between_passes_fails_the_op() {
        let prep = toy_prep();
        let pass = |d| PassOut {
            wall_ns: 1,
            allocs: 0,
            samples: vec![sample(3, 1.0, d, None)],
            problems: vec![],
        };
        let t = tally(&prep, &[pass(5), pass(5), pass(6)]);
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!(t.failures[0].contains("digest differs"));
    }

    #[test]
    fn warm_up_covers_each_scenario_class_once() {
        let campaign = surface::parse_campaign(Ctx::default(), &workloads::matrix_json(1))
            .expect("matrix spec");
        let runs = surface::expand(Ctx::default(), &campaign).expect("matrix expands");
        let classes: Vec<&str> = one_per_class(&runs)
            .iter()
            .map(|r| surface::spec_info(&r.spec).class)
            .collect();
        assert_eq!(classes, ["two_party", "competition", "multiparty"]);
    }
}
