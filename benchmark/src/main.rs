//! `bench` — the vcabench benchmark.
//!
//! ```text
//! bench run --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one process
//! bench all [--seed n] [--seconds s] [--aa FILE] [--seed-spread FILE] [--out FILE]   every workload, untraced + traced, merged
//! bench aa [--seed n] [--seconds s] [--out FILE]                       every workload twice, alternating order
//! bench compare A.json B.json                                          verdict per workload x metric
//! bench manifest                                                       print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and the
//! predictions they are checked against.

mod alloc;
mod calib;
mod compare;
mod digest;
mod layers;
mod metrics;
mod ops;
mod report;
mod run;
mod spans;
mod stats;
mod suite;
mod surface;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::RunArgs;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where run outputs go unless `--out-dir` says otherwise (ignored by git).
const DEFAULT_OUT_DIR: &str = "benchmark/out";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| {
                    format!(
                        "unknown argument `{flag}` (expected one of --{})",
                        known.join(", --")
                    )
                })?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("`--{name} {text}` is not a valid number")),
            None => Ok(default),
        }
    }
}

fn seconds_arg(flags: &Flags) -> Result<f64, String> {
    let seconds: f64 = flags.number("seconds", metrics::RUN_SECONDS as f64)?;
    if seconds.is_finite() && seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("`--seconds {seconds}` is out of range (0, 600]"))
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "out-dir"])?;
    let name = flags
        .get("workload")
        .ok_or("`bench run` needs --workload <name>")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            names.join(", ")
        )
    })?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let run_args = RunArgs {
        workload,
        seed: flags.number("seed", 1)?,
        seconds: seconds_arg(&flags)?,
        traced,
        out_dir: PathBuf::from(flags.get("out-dir").unwrap_or(DEFAULT_OUT_DIR)),
    };
    let report = run::run(&run_args)?;
    report.print();
    let path = suite::report_path(&run_args.out_dir, workload, traced);
    suite::write_json(&path, &report.to_value())?;
    println!("  full result written to {}", path.display());
    println!("{}", report.contract_line());
    Ok(report.correct)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: bench <run|all|aa|compare|manifest> ... (see benchmark/README.md)")?;
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "all" => {
            let flags = Flags::parse(
                rest,
                &["seed", "seconds", "aa", "seed-spread", "out", "out-dir"],
            )?;
            let attach: Vec<(&str, &std::path::Path)> =
                [("aa", "aa"), ("seed_spread", "seed-spread")]
                    .into_iter()
                    .filter_map(|(key, flag)| Some((key, flags.get(flag)?.as_ref())))
                    .collect();
            suite::all(
                flags.number("seed", 1)?,
                seconds_arg(&flags)?,
                &PathBuf::from(flags.get("out-dir").unwrap_or(DEFAULT_OUT_DIR)),
                &attach,
                flags.get("out").map(PathBuf::from).as_deref(),
            )
        }
        "aa" => {
            let flags = Flags::parse(rest, &["seed", "seconds", "out", "out-dir"])?;
            suite::aa(
                flags.number("seed", 1)?,
                seconds_arg(&flags)?,
                &PathBuf::from(flags.get("out-dir").unwrap_or(DEFAULT_OUT_DIR)),
                flags.get("out").map(PathBuf::from).as_deref(),
            )
        }
        "compare" => match rest {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("usage: bench compare A.json B.json".to_string()),
        },
        "manifest" => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        other => Err(format!(
            "unknown subcommand `{other}` (expected run, all, aa, compare or manifest)"
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // The result was printed; the exit code says it was not clean.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
