//! What one run reports: the printed table, the full result JSON, and the
//! one-line result the driver reads.

use serde_json::{Map, Value};

use crate::calib::{Reading, DES_NOMINAL_US, JSON_NOMINAL_US};
use crate::metrics::{self, Better};
use crate::run::RunArgs;
use crate::workloads;

/// Schema tag of every JSON file the benchmark writes.
pub const SCHEMA: &str = "vcabench-benchmark/v1";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Metric name (a row of `metrics::END_TO_END` or `metrics::LAYERS`).
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
}

/// The full result of `bench run`.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 1`.
    pub traced: bool,
    /// Worker threads the workload's ops ran on.
    pub jobs: usize,
    /// `available_parallelism` of the machine.
    pub nproc: usize,
    /// Whole passes run.
    pub passes: usize,
    /// Ops attempted in the timed passes.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Why (op failures and check failures).
    pub failures: Vec<String>,
    /// No failure and every check held.
    pub correct: bool,
    /// Wall seconds of each set-up.
    pub setup_samples: Vec<f64>,
    /// The percentile `op_ms_tail` reports.
    pub tail_percentile: u32,
    /// Samples beyond it in this run.
    pub tail_beyond: usize,
    /// What the ≥ 10-samples-beyond rule would pick at this sample count.
    pub tail_rule: Option<u32>,
    /// Σ simulated seconds delivered.
    pub sim_s: f64,
    /// Σ pass wall seconds.
    pub wall_s: f64,
    /// Σ op wall seconds.
    pub busy_s: f64,
    /// Median op wall ms (also in traced runs, for `trace_overhead_share`).
    pub op_ms_p50: Option<f64>,
    /// Pooled median relative bitrate error (passive workloads).
    pub bitrate_err_p50: Option<f64>,
    /// First-seen outcome digests, by op label.
    pub digests: Vec<(String, [u64; 3])>,
    /// End-to-end metrics (untraced) or layer metrics (traced).
    pub metrics: Vec<MetricValue>,
    /// Remarks on how layer values were obtained.
    pub layer_notes: Vec<String>,
    /// Where `spans.jsonl` went (traced).
    pub spans_file: Option<String>,
    /// Self-time share of the timed ops' wall time, by span name (traced).
    pub op_time_shares: Vec<(String, f64)>,
    /// What the reference kernels measured, per phase of the run.
    pub speed: Vec<(&'static str, Reading)>,
    /// Raw-clock readings of the time-valued end-to-end metrics.
    pub raw: Vec<(String, f64)>,
}

fn num(v: f64) -> Value {
    Value::F64(v)
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn opt(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::F64)
}

/// Build a JSON object from pairs.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl RunReport {
    /// An empty report for `args`.
    pub fn new(args: &RunArgs) -> RunReport {
        RunReport {
            workload: args.workload.name().to_string(),
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            jobs: 1,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            passes: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            correct: false,
            setup_samples: Vec::new(),
            tail_percentile: args.workload.tail_percentile(),
            tail_beyond: 0,
            tail_rule: None,
            sim_s: 0.0,
            wall_s: 0.0,
            busy_s: 0.0,
            op_ms_p50: None,
            bitrate_err_p50: None,
            digests: Vec::new(),
            metrics: Vec::new(),
            layer_notes: Vec::new(),
            spans_file: None,
            op_time_shares: Vec::new(),
            speed: Vec::new(),
            raw: Vec::new(),
        }
    }

    fn metrics_value(&self, with_n: bool) -> Value {
        let mut m = Map::new();
        for mv in &self.metrics {
            let mut pairs = vec![("value", num(mv.value)), ("unit", text(&mv.unit))];
            if with_n {
                pairs.push(("n", Value::U64(mv.n as u64)));
            }
            m.insert(mv.name.clone(), object(pairs));
        }
        Value::Object(m)
    }

    /// The full result as a JSON value.
    pub fn to_value(&self) -> Value {
        let digests = self
            .digests
            .iter()
            .map(|(label, d)| {
                let hex: Vec<Value> = d.iter().map(|x| text(&format!("{x:016x}"))).collect();
                object(vec![("op", text(label)), ("digests", Value::Array(hex))])
            })
            .collect();
        object(vec![
            ("schema", text(SCHEMA)),
            ("workload", text(&self.workload)),
            ("seed", Value::U64(self.seed)),
            ("seconds", num(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("jobs", Value::U64(self.jobs as u64)),
            ("nproc", Value::U64(self.nproc as u64)),
            ("passes", Value::U64(self.passes as u64)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "failed_share",
                num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "failures",
                Value::Array(self.failures.iter().map(|f| text(f)).collect()),
            ),
            (
                "setup_samples_s",
                Value::Array(self.setup_samples.iter().map(|&s| num(s)).collect()),
            ),
            (
                "tail_percentile",
                Value::U64(u64::from(self.tail_percentile)),
            ),
            ("tail_samples_beyond", Value::U64(self.tail_beyond as u64)),
            (
                "tail_percentile_by_rule",
                self.tail_rule
                    .map_or(Value::Null, |p| Value::U64(u64::from(p))),
            ),
            ("sim_s", num(self.sim_s)),
            ("wall_s", num(self.wall_s)),
            ("busy_s", num(self.busy_s)),
            ("op_ms_p50", opt(self.op_ms_p50)),
            ("bitrate_err_p50", opt(self.bitrate_err_p50)),
            ("metrics", self.metrics_value(true)),
            (
                "notes",
                Value::Array(self.layer_notes.iter().map(|n| text(n)).collect()),
            ),
            (
                "spans_file",
                self.spans_file.as_deref().map_or(Value::Null, text),
            ),
            (
                "op_time_shares",
                Value::Object(
                    self.op_time_shares
                        .iter()
                        .map(|(name, share)| (name.clone(), num(*share)))
                        .collect(),
                ),
            ),
            (
                "calibration",
                Value::Object(
                    self.speed
                        .iter()
                        .map(|(phase, r)| {
                            (
                                phase.to_string(),
                                object(vec![
                                    ("speed_factor", num(r.factor())),
                                    ("kernel_des_us", num(r.des_us())),
                                    ("kernel_des_nominal_us", num(DES_NOMINAL_US)),
                                    ("kernel_des_calls", num(r.des_calls)),
                                    ("kernel_json_us", num(r.json_us())),
                                    ("kernel_json_nominal_us", num(JSON_NOMINAL_US)),
                                    ("kernel_json_calls", num(r.json_calls)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "raw_clock",
                Value::Object(self.raw.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
            ),
            ("digests", Value::Array(digests)),
        ])
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn contract_line(&self) -> String {
        let line = object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", self.metrics_value(false)),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }

    /// Print every metric by name with unit, direction, sample count and
    /// bound, plus the counts behind them.
    pub fn print(&self) {
        println!(
            "workload {} seed {} seconds {} trace {} | jobs {} of nproc {} | {} passes",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.jobs,
            self.nproc,
            self.passes
        );
        println!(
            "  ops: {} attempted, {} failed (failed_share {:.4}) | {:.2} sim-s in {:.3} wall-s, workers busy {:.3} s",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.sim_s,
            self.wall_s,
            self.busy_s
        );
        println!(
            "  op_ms_tail = p{} ({} samples beyond; the >=10-beyond rule gives {})",
            self.tail_percentile,
            self.tail_beyond,
            self.tail_rule
                .map_or("none".to_string(), |p| format!("p{p}"))
        );
        for (phase, r) in &self.speed {
            println!(
                "  calibrated clock, {phase}: speed factor {:.4} (kernel_des {:.1} us vs {DES_NOMINAL_US} nominal, kernel_json {:.1} us vs {JSON_NOMINAL_US}; {} + {} calls)",
                r.factor(),
                r.des_us(),
                r.json_us(),
                r.des_calls,
                r.json_calls
            );
        }
        for (name, value) in &self.raw {
            println!("  raw clock: {name} = {value:.6}");
        }
        if let Some(err) = self.bitrate_err_p50 {
            println!("  bitrate_err_p50 = {err:.6} (pooled GBT vs stats-API ground truth)");
        }
        println!(
            "  {:<44} {:>16} {:<9} {:<7} {:>6} {:>6}",
            "metric", "value", "unit", "better", "n", "bound"
        );
        for mv in &self.metrics {
            let (better, bound) = describe(&mv.name);
            println!(
                "  {:<44} {:>16.6} {:<9} {:<7} {:>6} {:>6}",
                mv.name, mv.value, mv.unit, better, mv.n, bound
            );
        }
        if !self.op_time_shares.is_empty() {
            println!("  where the timed ops' wall time went (span self time):");
            for (name, share) in &self.op_time_shares {
                println!("    {:<44} {:>6.2}%", name, share * 100.0);
            }
        }
        for note in &self.layer_notes {
            println!("  note: {note}");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
        if let Some(path) = &self.spans_file {
            println!("  spans written to {path}");
        }
    }
}

/// Direction word and bound text of a metric, for the printed tables.
pub fn describe(name: &str) -> (&'static str, String) {
    if let Some(m) = metrics::end_to_end(name) {
        (m.better.word(), format!("{:.0}%", m.bound * 100.0))
    } else if let Some(m) = metrics::layer_metric(name) {
        (m.better.word(), "-".to_string())
    } else {
        (Better::Lower.word(), "-".to_string())
    }
}

/// Machine class of a result: what a reader needs to compare numbers.
pub fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    object(vec![
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        (
            "parallel_jobs",
            Value::U64(workloads::parallel_jobs() as u64),
        ),
        ("cpu", text(&cpu)),
        ("rustc", text(&rustc)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let args = RunArgs {
            workload: Workload::SimMatrix,
            seed: 1,
            seconds: 10.0,
            traced: false,
            out_dir: "out".into(),
        };
        let mut r = RunReport::new(&args);
        r.correct = true;
        r.attempted = 114;
        r.metrics = vec![MetricValue {
            name: "op_ms_p50".into(),
            value: 46.03125,
            unit: "ms".into(),
            n: 114,
        }];
        assert_eq!(
            r.contract_line(),
            r#"{"correct":true,"attempted":114,"failed":0,"metrics":{"op_ms_p50":{"value":46.03125,"unit":"ms"}}}"#
        );
        let full = r.to_value();
        assert_eq!(full.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            full.get("metrics")
                .and_then(|m| m.get("op_ms_p50"))
                .and_then(|m| m.get("n"))
                .and_then(Value::as_u64),
            Some(114)
        );
    }
}
