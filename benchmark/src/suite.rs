//! `bench all` and `bench aa`: one child process per workload run, merged.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{Map, Value};

use crate::metrics::{DERIVED, END_TO_END, LAYERS};
use crate::report::{self, object, SCHEMA};
use crate::workloads::{self, Workload};

/// Where `bench run` leaves its full result.
pub fn report_path(out_dir: &Path, workload: Workload, traced: bool) -> PathBuf {
    let kind = if traced { "traced" } else { "untraced" };
    out_dir.join(format!("{}.{kind}.json", workload.name()))
}

/// Pretty-print `value` into `path`, creating its directory.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("serialize {}: {e}", path.display()))?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read a JSON file.
pub fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in a child process of this same binary and read its
/// full result back. The child's table goes to our stdout.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the bench binary: {e}"))?;
    let status = Command::new(exe)
        .arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .status()
        .map_err(|e| format!("spawn bench run: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`bench run --workload {}` exited with {status}",
            workload.name()
        ));
    }
    read_json(&report_path(out_dir, workload, traced))
}

/// `report.metrics.<name>.value`.
pub fn metric_value(report: &Value, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `report.correct`.
fn is_correct(report: &Value) -> bool {
    report.get("correct").and_then(Value::as_bool) == Some(true)
}

/// `report.bitrate_err_p50`.
fn bitrate_err(report: &Value) -> Option<f64> {
    report.get("bitrate_err_p50").and_then(Value::as_f64)
}

fn digests(report: &Value) -> Vec<(String, Vec<String>)> {
    report
        .get("digests")
        .and_then(Value::as_array)
        .map(|rows| {
            rows.iter()
                .filter_map(|row| {
                    let op = row.get("op")?.as_str()?.to_string();
                    let ds = row
                        .get("digests")?
                        .as_array()?
                        .iter()
                        .filter_map(|d| d.as_str().map(str::to_string))
                        .collect();
                    Some((op, ds))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One cross-workload identity check.
fn check(name: &str, ok: bool, detail: String) -> Value {
    println!(
        "  check {name}: {} ({detail})",
        if ok { "ok" } else { "FAILED" }
    );
    object(vec![
        ("name", Value::String(name.to_string())),
        ("ok", Value::Bool(ok)),
        ("detail", Value::String(detail)),
    ])
}

/// `--jobs N` ≡ `--jobs 1`: the parallel campaign's digest list must equal
/// the serial one's.
fn jobs_identity(serial: &Value, parallel: &Value) -> Value {
    let (a, b) = (digests(serial), digests(parallel));
    let ok = !a.is_empty() && a == b;
    check(
        "sim_matrix_parallel digests == sim_matrix digests",
        ok,
        format!("{} vs {} ops", a.len(), b.len()),
    )
}

/// online ≡ offline: every scenario `trace_offline` ran must digest as in
/// `online_passive`, and the pooled bitrate error must agree when both ran
/// the same scenarios.
fn passive_identity(online: &Value, offline: &Value) -> Vec<Value> {
    let (on, off) = (digests(online), digests(offline));
    let mismatched: Vec<&str> = off
        .iter()
        .filter(|(op, ds)| on.iter().find(|(o, _)| o == op).map(|(_, d)| d) != Some(ds))
        .map(|(op, _)| op.as_str())
        .collect();
    let mut checks = vec![check(
        "trace_offline digests == online_passive digests",
        !off.is_empty() && mismatched.is_empty(),
        format!(
            "{} of {} offline scenarios differ",
            mismatched.len(),
            off.len()
        ),
    )];
    if off.len() == on.len() {
        let (a, b) = (bitrate_err(online), bitrate_err(offline));
        checks.push(check(
            "trace_offline bitrate_err_p50 == online_passive bitrate_err_p50",
            a.is_some() && a == b,
            format!("{a:?} vs {b:?}"),
        ));
    }
    checks
}

fn print_header(title: &str) {
    println!("\n== {title} ==");
}

/// Every end-to-end and layer metric by name with unit, direction, sample
/// count and bound, one value per workload.
fn print_summary(workloads: &Map<String, Value>) {
    let cell = |kind: &str, metric: &str| -> Vec<String> {
        Workload::ALL
            .iter()
            .map(|w| {
                let m = workloads
                    .get(&w.name().to_string())
                    .and_then(|r| r.get(kind)?.get("metrics")?.get(metric));
                let value = m.and_then(|m| m.get("value")?.as_f64());
                let n = m.and_then(|m| m.get("n")?.as_u64());
                match (value, n) {
                    (Some(v), Some(n)) => format!("{}={v:.6} (n={n})", w.name()),
                    _ => format!("{}=-", w.name()),
                }
            })
            .collect()
    };
    print_header("end-to-end metrics (untraced runs)");
    for m in &END_TO_END {
        println!(
            "  {} [{}] {} is better, bound {:.0}% - {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.what
        );
        println!("      {}", cell("untraced", m.name).join("  "));
    }
    print_header("layer metrics (traced runs)");
    for l in &LAYERS {
        println!("  {} [{}] {} is better", l.name, l.unit, l.better.word());
        println!("      {}", cell("traced", l.name).join("  "));
    }
    for (name, unit, what) in DERIVED {
        println!("  {name} [{unit}] derived: {what}");
    }
}

/// `bench all`: every workload untraced then traced, the cross-workload
/// identity checks, derived metrics, one merged JSON. Ends with
/// `"claim": null`: the benchmark claims no gain.
pub fn all(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    attach: &[(&str, &Path)],
    out: Option<&Path>,
) -> Result<bool, String> {
    let mut workloads_value = Map::new();
    let mut clean = true;
    let mut untraced: Vec<Value> = Vec::new();
    let mut overhead = Map::new();
    for w in Workload::ALL {
        print_header(&format!("{} (untraced)", w.name()));
        let plain = run_child(w, seed, seconds, false, out_dir)?;
        print_header(&format!("{} (traced)", w.name()));
        let traced = run_child(w, seed, seconds, true, out_dir)?;
        clean &= is_correct(&plain) && is_correct(&traced);
        let p50 = |r: &Value| r.get("op_ms_p50").and_then(Value::as_f64);
        if let (Some(t), Some(u)) = (p50(&traced), p50(&plain)) {
            overhead.insert(w.name().to_string(), Value::F64(t / u - 1.0));
        }
        untraced.push(plain.clone());
        workloads_value.insert(
            w.name().to_string(),
            object(vec![("untraced", plain), ("traced", traced)]),
        );
    }

    print_summary(&workloads_value);

    print_header("cross-workload checks");
    let by = |w: Workload| &untraced[Workload::ALL.iter().position(|x| *x == w).expect("listed")];
    let mut checks = vec![jobs_identity(
        by(Workload::SimMatrix),
        by(Workload::SimMatrixParallel),
    )];
    checks.extend(passive_identity(
        by(Workload::OnlinePassive),
        by(Workload::TraceOffline),
    ));
    clean &= checks
        .iter()
        .all(|c| c.get("ok").and_then(Value::as_bool) == Some(true));

    print_header("derived");
    let throughput = |w: Workload| metric_value(by(w), "sim_s_per_wall_s");
    let jobs = workloads::parallel_jobs() as f64;
    let efficiency = throughput(Workload::SimMatrixParallel)
        .zip(throughput(Workload::SimMatrix))
        .map(|(p, s)| p / (jobs * s));
    if let Some(e) = efficiency {
        println!("  campaign.parallel_efficiency = {e:.4} share (higher is better; jobs = {jobs})");
    }
    for (name, v) in overhead.iter() {
        println!(
            "  trace_overhead_share[{name}] = {:+.4} share (traced/untraced op_ms_p50 - 1)",
            v.as_f64().unwrap_or(f64::NAN)
        );
    }
    let derived = object(vec![
        (
            "campaign.parallel_efficiency",
            object(vec![
                ("value", efficiency.map_or(Value::Null, Value::F64)),
                ("unit", Value::String("share".to_string())),
                ("jobs", Value::U64(jobs as u64)),
            ]),
        ),
        ("trace_overhead_share", Value::Object(overhead)),
    ]);

    let mut merged = vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("kind", Value::String("all".to_string())),
        ("machine", report::machine()),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("workloads", Value::Object(workloads_value)),
        ("derived", derived),
        ("checks", Value::Array(checks)),
    ];
    // The A/A spread and the ten-seed spread measured on the same tree ride
    // along, so one committed file holds the whole picture.
    for (key, path) in attach {
        merged.push((key, read_json(path)?));
    }
    merged.push(("claim", Value::Null));
    let merged = object(merged);
    let path = out.map_or_else(|| out_dir.join("all.json"), Path::to_path_buf);
    write_json(&path, &merged)?;
    println!("\nmerged result written to {}", path.display());
    println!("\"claim\": null");
    Ok(clean)
}

/// Symmetric relative difference of two readings.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let mid = (a.abs() + b.abs()) / 2.0;
    if mid == 0.0 {
        0.0
    } else {
        (a - b).abs() / mid
    }
}

/// `bench aa`: every workload twice, in alternating order, same code and
/// seed. Fails if any end-to-end metric differs between the two readings by
/// more than its own bound; the measured spread is written out so it can be
/// committed next to the bounds.
pub fn aa(seed: u64, seconds: f64, out_dir: &Path, out: Option<&Path>) -> Result<bool, String> {
    let mut readings: Vec<Vec<Value>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..2 {
        let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let w = Workload::ALL[i];
            print_header(&format!("A/A round {round}: {}", w.name()));
            readings[i].push(run_child(w, seed, seconds, false, out_dir)?);
        }
    }
    print_header("A/A spread");
    let mut clean = true;
    let mut spread = Map::new();
    for (w, pair) in Workload::ALL.iter().zip(&readings) {
        let mut rows = Map::new();
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                metric_value(&pair[0], m.name),
                metric_value(&pair[1], m.name),
            ) else {
                return Err(format!("{}: no `{}` reading", w.name(), m.name));
            };
            let d = rel_diff(a, b);
            let ok = d <= m.bound;
            clean &= ok;
            println!(
                "  {:<20} {:<18} a={a:<14.6} b={b:<14.6} diff={:>7.3}% bound={:>3.0}% {}",
                w.name(),
                m.name,
                d * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDS ITS BOUND" }
            );
            rows.insert(
                m.name.to_string(),
                object(vec![
                    ("a", Value::F64(a)),
                    ("b", Value::F64(b)),
                    ("rel_diff", Value::F64(d)),
                    ("bound", Value::F64(m.bound)),
                    ("ok", Value::Bool(ok)),
                ]),
            );
        }
        // Exact repeats: deterministic counts must not wobble at all on the
        // single-threaded workloads.
        let mut exact = vec![(
            "bitrate_err_p50",
            bitrate_err(&pair[0]) == bitrate_err(&pair[1]),
        )];
        if !w.is_parallel() {
            exact.push((
                "allocs_per_op",
                metric_value(&pair[0], "allocs_per_op") == metric_value(&pair[1], "allocs_per_op"),
            ));
        }
        for (name, same) in exact {
            println!("  {:<20} {:<18} repeats exactly: {same}", w.name(), name);
            clean &= same;
            rows.insert(format!("{name}_repeats_exactly"), Value::Bool(same));
        }
        clean &= pair.iter().all(is_correct);
        spread.insert(w.name().to_string(), Value::Object(rows));
    }
    let result = object(vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("kind", Value::String("aa".to_string())),
        ("machine", report::machine()),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("rounds", Value::U64(2)),
        ("spread", Value::Object(spread)),
    ]);
    let path = out.map_or_else(|| out_dir.join("aa.json"), Path::to_path_buf);
    write_json(&path, &result)?;
    println!("\nA/A spread written to {}", path.display());
    Ok(clean)
}

/// The A/A relative difference recorded for `workload` × `metric` in a
/// merged result (`None` when the file carries no A/A section).
pub fn aa_spread(merged: &Value, workload: &str, metric: &str) -> Option<f64> {
    merged
        .get("aa")?
        .get("spread")?
        .get(workload)?
        .get(metric)?
        .get("rel_diff")?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_digests(rows: &[(&str, &str)]) -> Value {
        let rows = rows
            .iter()
            .map(|(op, d)| {
                object(vec![
                    ("op", Value::String(op.to_string())),
                    ("digests", Value::Array(vec![Value::String(d.to_string())])),
                ])
            })
            .collect();
        object(vec![
            ("digests", Value::Array(rows)),
            ("bitrate_err_p50", Value::F64(0.03)),
        ])
    }

    fn ok(v: &Value) -> bool {
        v.get("ok").and_then(Value::as_bool) == Some(true)
    }

    #[test]
    fn jobs_identity_needs_equal_lists() {
        let a = with_digests(&[("r0", "aa"), ("r1", "bb")]);
        assert!(ok(&jobs_identity(&a, &a.clone())));
        let b = with_digests(&[("r0", "aa"), ("r1", "cc")]);
        assert!(!ok(&jobs_identity(&a, &b)));
        assert!(!ok(&jobs_identity(&with_digests(&[]), &with_digests(&[]))));
    }

    #[test]
    fn offline_may_cover_a_subset_of_online() {
        let online = with_digests(&[("s0", "aa"), ("s1", "bb"), ("s2", "cc")]);
        let subset = with_digests(&[("s1", "bb")]);
        let checks = passive_identity(&online, &subset);
        assert_eq!(
            checks.len(),
            1,
            "bitrate error is compared only on equal sets"
        );
        assert!(ok(&checks[0]));
        let wrong = with_digests(&[("s1", "xx")]);
        assert!(!ok(&passive_identity(&online, &wrong)[0]));
        let full = passive_identity(&online, &online.clone());
        assert!(full.len() == 2 && full.iter().all(ok));
    }

    #[test]
    fn rel_diff_is_symmetric() {
        assert_eq!(rel_diff(100.0, 100.0), 0.0);
        assert!((rel_diff(95.0, 105.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(95.0, 105.0), rel_diff(105.0, 95.0));
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
