//! # vcabench-cli
//!
//! Home of the `repro` binary; this library half declares its command line
//! once. The three `table!` invocations are the only place a command, an
//! experiment or an option is named: each row yields a variant of [`Cmd`] /
//! [`Exp`] / [`Opt`] (what command code matches on) and an entry of
//! [`COMMANDS`] / [`EXPERIMENTS`] / [`FLAGS`], and the parser ([`parse`]),
//! the whole of `--help` ([`help`]) and every usage error are derived from
//! those entries, so a new flag or subcommand is one new row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::str::FromStr;

/// Why `repro` stops early; `main` maps these to the exit status.
#[derive(Debug, PartialEq)]
pub enum Failure {
    /// A malformed invocation: exit 2, with a pointer at `--help`.
    Usage(String),
    /// A well-formed invocation that could not be carried out: exit 1.
    Runtime(String),
}

/// Declare an enum and its table together: each `Variant { fields.. }` row
/// becomes a variant of `$Enum` and the `$Row` at `$TABLE[variant as usize]`.
macro_rules! table {
    ($(#[$doc:meta])* $Enum:ident, $TABLE:ident: [$Row:ident] = $($id:ident { $($fields:tt)* })*) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // each variant is described by its row
        pub enum $Enum { $($id),* }
        #[doc = concat!("One row per [`", stringify!($Enum), "`], in `--help` order.")]
        pub const $TABLE: &[$Row] = &[$($Row { id: $Enum::$id, $($fields)* }),*];
    };
}

/// One row of [`COMMANDS`].
#[derive(Debug)]
pub struct Command {
    /// What the row dispatches to.
    pub id: Cmd,
    /// The word that selects it.
    pub name: &'static str,
    /// Its positional arguments as the synopsis shows them (empty: none).
    pub operands: &'static str,
    /// The fewest and the most positional arguments it accepts.
    pub arity: (usize, usize),
    /// One paragraph for `--help`.
    pub about: &'static str,
}

table! {
    /// What `repro` can be asked to do.
    Cmd, COMMANDS: [Command] =
    Experiment { name: "<experiment>", operands: "", arity: (0, 0),
        about: "regenerate one table or figure of the paper on the simulated substrate and print \
                the rows/series the paper reports; with no experiment named, run all of them" }
    Campaign { name: "campaign", operands: "<spec.json>", arity: (1, 1),
        about: "expand and run a declarative campaign spec; results are cached in a result \
                store under the output directory, keyed by content hash" }
    Infer { name: "infer", operands: "[<campaign.json>]", arity: (0, 1),
        about: "validate the passive pipeline: run the pinned suite (or a campaign spec's runs) \
                and the pinned training campaign once each with one extractor bank of packet taps \
                attached, and sum each call's fingerprint from it; score flow-level VCA \
                identification against the spec (IDENTIFY_report.json), the QoE estimates \
                against the stats-API ground truth (INFER_report.json), and per-VCA boosted trees \
                picked by the flow-level classifier against those picked by the spec's kind \
                (ROUTED_report.json); exit 1 if the boosted trees or the centroid classifier miss \
                a gate" }
    Observe { name: "observe", operands: "[<campaign.json>]", arity: (0, 1),
        about: "diagnose the pinned disruption suite (or, report only, a campaign spec's runs) \
                with the streaming span/anomaly diagnoser; write OBSERVE_report.json and per-run \
                span JSONL; in pinned mode, exit 1 unless every disrupted run carries the \
                disruption -> queue-buildup -> freeze chain and every unconstrained run is clean" }
    Diff { name: "diff", operands: "<a> <b>", arity: (2, 2),
        about: "diagnose two exported .events.jsonl traces (or two trace directories, matched by \
                label) offline and write what changed between them (per-window metric deltas, \
                anomalies, span durations) as a vcabench-diff/v1 DIFF_report.json" }
    ValidateTrace { name: "validate-trace", operands: "<file.jsonl>...", arity: (1, usize::MAX),
        about: "check JSONL event traces against the versioned telemetry schema, using the \
                same reader every offline consumer replays traces with (a trace passes exactly \
                when diff can read it), and against the event counts of a sibling \
                .manifest.json; exit 1 on any violation, and on a manifest that records \
                dropped events" }
}

/// One row of [`EXPERIMENTS`]: a group of paper figures that share runs.
#[derive(Debug)]
pub struct Experiment {
    /// The group.
    pub id: Exp,
    /// Every name that selects it; each also keys one result in `--json`.
    pub names: &'static [&'static str],
    /// One line for `--help`.
    pub about: &'static str,
}

table! {
    /// What an experiment name runs.
    Exp, EXPERIMENTS: [Experiment] =
    Table2 { names: &["table2"], about: "unconstrained utilization" }
    Fig1 { names: &["fig1"], about: "static shaping sweeps (a: up, b: down, c: browser/native)" }
    Fig2 { names: &["fig2"], about: "encoding parameters vs capacity (Meet, Teams-Chrome)" }
    Fig3 { names: &["fig3"], about: "freeze ratio and FIR counts" }
    Disruptions { names: &["fig4", "fig5", "fig6"],
        about: "up/downlink disruptions: timelines + TTR, C2 upstream" }
    Shares { names: &["fig8", "fig10"], about: "VCA vs VCA uplink and downlink shares" }
    Timelines { names: &["fig9", "fig11"], about: "VCA vs VCA timelines @0.5 and @1.0 Mbps" }
    Tcp { names: &["fig12", "fig13"], about: "VCA vs TCP (iPerf3), Zoom probe burst vs iPerf3" }
    Fig14 { names: &["fig14"], about: "Zoom vs Netflix" }
    Ext { names: &["ext"], about: "extensions: impairments grid + model ablations" }
    Fig15 { names: &["fig15"], about: "call modalities" }
    All { names: &["all"], about: "everything above, in this order" }
}

/// What a flag's value must be, and what stands in when the flag is absent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Switch,
    /// Any text (a path); absent means the behaviour is off.
    Text,
    /// A directory; absent means `<command>-results`.
    ResultsDir,
    /// An integer of at least 1, and its default.
    Count(usize),
}

impl Takes {
    fn default(self, command: &str) -> Option<String> {
        match self {
            Takes::Switch | Takes::Text => None,
            Takes::ResultsDir => Some(format!("{command}-results")),
            Takes::Count(d) => Some(d.to_string()),
        }
    }

    fn domain(self) -> Option<String> {
        match self {
            Takes::Switch | Takes::Text | Takes::ResultsDir => None,
            Takes::Count(_) => Some("an integer >= 1".into()),
        }
    }

    fn admits(self, v: &str) -> bool {
        match self {
            Takes::Switch | Takes::Text | Takes::ResultsDir => true,
            Takes::Count(_) => v.parse::<usize>().is_ok_and(|n| n >= 1),
        }
    }
}

/// One row of [`FLAGS`].
#[derive(Debug)]
pub struct Flag {
    /// The variant command code asks for it by.
    pub id: Opt,
    /// Its spelling on the command line.
    pub name: &'static str,
    /// How the synopsis names its value (empty for a switch).
    pub metavar: &'static str,
    /// What the value must be, and its default.
    pub takes: Takes,
    /// The commands that accept it; anywhere else it is a usage error.
    pub on: &'static [Cmd],
    /// One paragraph for `--help`.
    pub help: &'static str,
}

use Cmd::*;
table! {
    /// Names an option.
    Opt, FLAGS: [Flag] =
    Quick { name: "--quick", metavar: "", takes: Takes::Switch,
        on: &[Experiment, Infer, Observe],
        help: "reduced presets: coarser sweeps, fewer repetitions, shorter runs" }
    Json { name: "--json", metavar: "<path>", takes: Takes::Text, on: &[Experiment],
        help: "also write the machine-readable results to <path> (created before the first \
               simulation starts)" }
    Jobs { name: "--jobs", metavar: "<n>", takes: Takes::Count(1),
        on: &[Experiment, Campaign, Infer, Observe, Diff],
        help: "worker threads; every output byte is the same for any n" }
    Out { name: "--out", metavar: "<dir>", takes: Takes::ResultsDir,
        on: &[Campaign, Infer, Observe, Diff],
        help: "directory for the result store or the report artifacts" }
    Rerun { name: "--rerun", metavar: "", takes: Takes::Switch, on: &[Campaign],
        help: "recompute runs the result store already holds" }
    TraceDir { name: "--trace-dir", metavar: "<dir>", takes: Takes::Text, on: &[Campaign],
        help: "write per-run telemetry artifacts (<label>.events.jsonl / .series.csv / \
               .manifest.json) to <dir>" }
    Fit { name: "--fit", metavar: "", takes: Takes::Switch, on: &[Infer],
        help: "refit both frozen models (the gradient-boosted trees and the centroid \
               classifier) over the pinned training campaign (never the evaluated scenarios), \
               write them to gbt-v1.json and centroid-v1.json under --out, and score with them" }
}

/// The flag that prints [`help`] and exits 0 (`-h` is its short form).
pub const HELP: &str = "--help";

/// The row of `opt`.
pub fn flag(opt: Opt) -> &'static Flag {
    &FLAGS[opt as usize]
}

/// A checked invocation.
#[derive(Debug)]
pub struct Args {
    /// The command selected.
    pub command: &'static Command,
    /// The experiment group selected ([`Exp::All`] unless one was named).
    pub exp: Exp,
    /// The command's positional arguments, within its arity.
    pub operands: Vec<String>,
    /// The value each [`FLAGS`] row was given with, if it was.
    given: Vec<Option<String>>,
}

impl Args {
    /// Whether `opt` was given.
    pub fn has(&self, opt: Opt) -> bool {
        self.given(opt).is_some()
    }

    /// The value `opt` was given with (the last one, when repeated).
    pub fn given(&self, opt: Opt) -> Option<&str> {
        self.given[opt as usize].as_deref()
    }

    /// The value of `opt`: as given (checked at parse), else its default.
    pub fn value<T: FromStr>(&self, opt: Opt) -> T {
        let default = || flag(opt).takes.default(self.command.name);
        let text = self.given(opt).map(str::to_string).or_else(default);
        let parsed = text.and_then(|t| t.parse().ok());
        parsed.unwrap_or_else(|| panic!("{} has no such value", flag(opt).name))
    }

    /// `--jobs`.
    pub fn jobs(&self) -> usize {
        self.value(Opt::Jobs)
    }

    /// `--out`.
    pub fn out_dir(&self) -> PathBuf {
        self.value(Opt::Out)
    }
}

/// Check a command line (without the program name) against the tables:
/// values, arity, each flag's `on`. `Ok(None)` asks for [`help`].
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, Failure> {
    macro_rules! usage {
        ($($message:tt)*) => { return Err(Failure::Usage(format!($($message)*))) };
    }
    let (mut operands, mut given) = (Vec::new(), vec![None; FLAGS.len()]);
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg == HELP || arg == "-h" {
            return Ok(None);
        } else if let Some(f) = FLAGS.iter().find(|f| f.name == arg) {
            let switch = (f.takes == Takes::Switch).then(String::new);
            let Some(value) = switch.or_else(|| argv.next()) else {
                usage!("{arg} requires a {} argument", f.metavar);
            };
            if !f.takes.admits(&value) {
                let domain = f.takes.domain().unwrap_or_default();
                usage!("{arg} must be {domain}, got `{value}`");
            }
            given[f.id as usize] = Some(value);
        } else if !arg.starts_with('-') {
            operands.push(arg);
        } else {
            usage!("unknown option `{arg}`");
        }
    }
    // The first operand names a command or an experiment; no operand at all
    // means every experiment.
    let (mut command, mut exp) = (&COMMANDS[Cmd::Experiment as usize], Exp::All);
    if !operands.is_empty() {
        let name = operands.remove(0);
        let by_name = |c: &&Command| c.id != Cmd::Experiment && c.name == name;
        if let Some(c) = COMMANDS.iter().find(by_name) {
            command = c;
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.names.contains(&&*name)) {
            exp = e.id;
        } else {
            usage!("unknown experiment `{name}`");
        }
    }
    let Command { name, arity, .. } = command;
    if operands.len() < arity.0 {
        usage!("{name} requires {0}: repro {name} {0}", command.operands);
    }
    if let Some(extra) = operands.get(arity.1) {
        usage!("unexpected argument `{extra}` for {name}");
    }
    let args = Args {
        command,
        exp,
        operands,
        given,
    };
    let misplaced = |f: &&Flag| args.has(f.id) && !f.on.contains(&command.id);
    if let Some(f) = FLAGS.iter().find(misplaced) {
        let (flag, on) = (f.name, applies_to(f));
        usage!("{flag} does not apply to {name}; it applies to: {on}");
    }
    Ok(Some(args))
}

/// The names of the commands `f` applies to, in table order.
fn applies_to(f: &Flag) -> String {
    let names = COMMANDS.iter().filter(|c| f.on.contains(&c.id));
    names.map(|c| c.name).collect::<Vec<_>>().join(", ")
}

/// Append `lead` and then `items`, space-separated, breaking before the
/// item that would pass column 79; continuation lines are indented.
fn wrap(out: &mut String, lead: &str, indent: usize, items: &[&str]) {
    let mut line = lead.to_string();
    for item in items.iter().filter(|item| !item.is_empty()) {
        if line.len() + 1 + item.len() > 79 {
            *out += &(line + "\n");
            line = " ".repeat(indent - 1);
        }
        line = line + " " + item;
    }
    *out += &(line + "\n");
}

/// One `--help` entry: its `head` on a line of its own, `text` beneath.
fn entry(out: &mut String, head: &[&str], text: &str) {
    let words: Vec<&str> = text.split_whitespace().collect();
    wrap(out, " ", 8, head);
    wrap(out, "     ", 6, &words);
}

/// The whole of `repro --help`, rendered from the tables.
pub fn help() -> String {
    let mut out = format!("usage: repro [<command>] [<option>...]\n       repro {HELP}\n");
    out.push_str("\ncommands (each with the options it accepts):\n");
    for c in COMMANDS {
        let flags = FLAGS.iter().filter(|f| f.on.contains(&c.id));
        let flags = flags.map(|f| format!("[{} {}]", f.name, f.metavar).replace(" ]", "]"));
        let flags: Vec<String> = flags.collect();
        let mut head = vec![c.name, c.operands];
        head.extend(flags.iter().map(String::as_str));
        entry(&mut out, &head, c.about);
    }
    out.push_str("\nexperiments:\n");
    for e in EXPERIMENTS {
        out.push_str(&format!("  {:<18} {}\n", e.names.join(", "), e.about));
    }
    out.push_str("\noptions:\n");
    for f in FLAGS {
        let notes = [
            Some(applies_to(f)),
            f.takes.domain(),
            f.takes.default("<command>").map(|d| format!("default {d}")),
        ];
        let notes: Vec<String> = notes.into_iter().flatten().collect();
        let text = format!("{} [{}]", f.help, notes.join("; "));
        entry(&mut out, &[f.name, f.metavar], &text);
    }
    out
}
