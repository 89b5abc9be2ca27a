//! `repro`'s command line: what the tables in `vcabench_cli` say is what
//! the parser accepts, what the binary rejects with exit 2, and what
//! `--help` prints; runtime failures are exit 1, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use vcabench_cli::{parse, Cmd, Exp, Failure, Flag, Takes, COMMANDS, EXPERIMENTS, FLAGS, HELP};

fn repro<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vcabench-cli-{tag}-{}", std::process::id()))
}

fn temp_file(tag: &str, contents: &str) -> PathBuf {
    let path = temp_path(tag);
    std::fs::write(&path, contents).unwrap();
    path
}

/// All whitespace runs collapsed, so wrapped help text compares by words.
fn words(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn help_advertises_telemetry_surface() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--trace-dir",
        "validate-trace",
        "campaign",
        "infer",
        "--fit",
        "IDENTIFY_report.json",
        "ROUTED_report.json",
    ] {
        assert!(text.contains(needle), "help missing `{needle}`:\n{text}");
    }
    assert_eq!(repro(&["-h"]).stdout, out.stdout);
}

#[test]
fn malformed_invocations_exit_2() {
    let cases: &[&[&str]] = &[
        &["--trace-dir"],                     // missing value
        &["table2", "--trace-dir", "/tmp/x"], // not the campaign subcommand
        &["--trace-dir", "/tmp/x"],           // implicit `all` is not campaign
        &["validate-trace"],                  // needs at least one file
        &["campaign"],                        // needs a spec file
        &["no-such-experiment"],
        &["--jobs", "zero"],
        &["--jobs", "0"],
        &["--baseline"],                     // the bench flags are gone:
        &["table2", "--baseline", "/tmp/x"], // unknown options
        &["table2", "--label", "x"],
        &["--threshold", "0.5"],
        &["--threshold", "nan"],
        &["bench", "extra-positional"], // `bench` is an unknown experiment
        &["infer", "--no-such-flag"],   // unknown flag
        &["infer", "a.json", "b.json"], // at most one spec file
        &["bench", "--fit", "/tmp/x"],  // not the infer subcommand
        &["infer", "--baseline", "/tmp/x"], // unknown option
        &["infer", "--trace-dir", "/tmp/x"], // campaign-only flag on infer
        // `identify` is folded into infer: an unknown experiment, whatever follows
        &["identify"],
        &["identify", "a.json", "b.json"],
        &["identify", "--fit"],
        &["identify", "--quick", "--jobs", "2"],
        &["identify", "--identify"],
        &["identify", "--baseline", "/tmp/x"],
        &["identify", "--trace-dir", "/tmp/x"],
        // `--fit` is a switch, so both paths are spec files: one too many
        &["infer", "--fit", "a.json", "b.json"],
        &["infer", "--estimator", "gbt"], // gone: the gates score the GBT
        &["table2", "--fit", "/tmp/x"],   // not a fitting subcommand
        &["infer", "--identify"],         // unknown option: infer always writes the routed report
        &["infer", "--fit-gbt", "/tmp/x"], // gone: infer fits with --fit too
        &["observe", "--json", "/tmp/x.json"], // the report is OBSERVE_report.json
        &["bench"], // the second measuring harness is gone: an unknown experiment
        &["validate-trace", "f.jsonl", "--json", "/tmp/x.json"], // was swallowed
        &["table2", "--quick", "--out", "/tmp/x"], // ditto
        &["--profile"], // the second engine timer is gone: an unknown option
    ];
    for args in cases {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected exit 2 for {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // The gates are constants and `validate-trace` always fails on dropped
    // events: the flags that set them are gone.
    for (command, gone) in [
        ("infer", "--max-bitrate-err"),
        ("infer", "--min-freeze-recall"),
        ("identify", "--min-id-accuracy"),
        ("validate-trace", "--strict"),
    ] {
        let out = repro(&[command, gone, "0.5"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {gone}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option `{gone}`")),
            "{stderr}"
        );
    }
}

/// A value `f` accepts.
fn sample_value(f: &Flag) -> Option<String> {
    match f.takes {
        Takes::Switch => None,
        Takes::Text | Takes::ResultsDir => Some(temp_path("value").display().to_string()),
        Takes::Count(_) => Some("2".into()),
    }
}

#[test]
fn parser_binary_and_help_all_follow_the_tables() {
    let help = words(&String::from_utf8_lossy(&repro(&["--help"]).stdout));
    let help_text = vcabench_cli::help();
    for c in COMMANDS {
        // The shortest well-formed invocation of the command.
        let mut base: Vec<String> = Vec::new();
        if c.id != Cmd::Experiment {
            base.push(c.name.into());
        }
        base.extend((0..c.arity.0).map(|i| format!("operand-{i}")));
        let mut synopsis = vec![c.name.to_string(), c.operands.to_string()];
        for f in FLAGS {
            let mut argv = base.clone();
            argv.push(f.name.into());
            argv.extend(sample_value(f));
            let parsed = parse(argv.clone());
            if f.on.contains(&c.id) {
                let args = parsed.expect("table says accepted").expect("not --help");
                assert_eq!(args.command.id, c.id, "{argv:?}");
                assert!(args.has(f.id), "{argv:?}");
                synopsis.push(format!("[{} {}]", f.name, f.metavar).replace(" ]", "]"));
            } else {
                assert!(matches!(parsed, Err(Failure::Usage(_))), "{argv:?}");
                assert_eq!(repro(&argv).status.code(), Some(2), "{argv:?}");
            }
        }
        // `--help` lists exactly those flags, then the row's description.
        let entry = words(&format!("{} {}", synopsis.join(" "), c.about));
        assert!(help.contains(&entry), "help lacks `{entry}`");
    }
    for f in FLAGS {
        let on: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| f.on.contains(&c.id))
            .map(|c| c.name)
            .collect();
        let entry = words(&format!(
            "{} {} {} [{}",
            f.name,
            f.metavar,
            f.help,
            on.join(", ")
        ));
        assert!(help.contains(&entry), "help lacks `{entry}`");
        let head = format!("{} {}", f.name, f.metavar);
        let heads = help_text.lines().filter(|l| l.trim() == head.trim());
        assert_eq!(heads.count(), 1, "{} heads one help entry", f.name);
    }
    for e in EXPERIMENTS {
        for name in e.names {
            let args = parse([name.to_string()]).unwrap().unwrap();
            assert_eq!((args.command.id, args.exp), (Cmd::Experiment, e.id));
        }
        let entry = words(&format!("{} {}", e.names.join(", "), e.about));
        assert!(help.contains(&entry), "help lacks `{entry}`");
    }
    // A switch does not swallow the operand after it; no operand means `all`.
    let args = parse(["--quick".to_string(), "fig3".to_string()])
        .unwrap()
        .unwrap();
    assert_eq!(args.exp, Exp::Fig3);
    assert_eq!(parse([]).unwrap().unwrap().exp, Exp::All);
}

/// `--jobs` reaches the experiment groups and changes no output byte (Fig 3:
/// a cheap group of two grids, 16 calls).
#[test]
fn experiment_output_is_identical_for_any_jobs() {
    let serial = repro(&["fig3", "--quick", "--jobs", "1"]);
    let parallel = repro(&["fig3", "--quick", "--jobs", "3"]);
    assert_eq!(serial.status.code(), Some(0), "{serial:?}");
    assert_eq!(parallel.status.code(), Some(0), "{parallel:?}");
    assert!(String::from_utf8_lossy(&serial.stdout).contains("Fig 3b"));
    assert_eq!(serial.stdout, parallel.stdout);
    assert_eq!(serial.stderr, parallel.stderr);
}

#[test]
fn validate_trace_accepts_valid_and_rejects_invalid() {
    let good = temp_file(
        "good.jsonl",
        "{\"t\":1,\"kind\":\"fir\",\"client\":0,\"ssrc\":5,\"dir\":\"sent\"}\n",
    );
    let out = repro(&["validate-trace", good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 events OK"));

    let bad = temp_file("bad.jsonl", "{\"t\":1,\"kind\":\"no_such_kind\"}\n");
    let out = repro(&["validate-trace", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{:?}", out);

    let missing = repro(&["validate-trace", "/no/such/file.jsonl"]);
    assert_eq!(missing.status.code(), Some(1));

    // One grammar: a line `diff` cannot replay does not validate, and a
    // line that does not validate is not replayed.
    let out_dir = temp_path("one-grammar-out");
    for (tag, line) in [
        (
            "off-vocabulary",
            r#"{"t":1,"kind":"fir","client":0,"ssrc":5,"dir":"sideways"}"#,
        ),
        (
            "stray-key",
            r#"{"t":1,"kind":"fir","client":0,"ssrc":5,"dir":"sent","extra":1}"#,
        ),
    ] {
        let file = temp_file(&format!("{tag}.jsonl"), &format!("{line}\n"));
        let out = repro(&["validate-trace".as_ref(), file.as_os_str()]);
        assert_eq!(out.status.code(), Some(1), "validate-trace, {tag}: {out:?}");
        let out = repro(&[
            "diff".as_ref(),
            file.as_os_str(),
            file.as_os_str(),
            "--out".as_ref(),
            out_dir.as_os_str(),
        ]);
        assert_eq!(out.status.code(), Some(1), "diff, {tag}: {out:?}");
        let _ = std::fs::remove_file(&file);
    }
    let _ = std::fs::remove_dir_all(&out_dir);

    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

/// A trace cut at a line boundary is still line-by-line valid; only the
/// manifest written beside it knows what it held.
#[test]
fn validate_trace_checks_the_trace_against_its_manifest() {
    let spec = temp_file(
        "one-run.json",
        r#"{"name": "one", "scenarios": [{"label": "shaped", "base": {
            "type": "two_party", "kind": "Zoom", "up": {"constant_mbps": 0.5},
            "down": {"constant_mbps": 1000.0}, "duration_secs": 5.0, "seed": 1}}]}"#,
    );
    let (out_dir, trace_dir) = (temp_path("one-run-out"), temp_path("one-run-traces"));
    let out = repro(&[
        "campaign".as_ref(),
        spec.as_os_str(),
        "--out".as_ref(),
        out_dir.as_os_str(),
        "--trace-dir".as_ref(),
        trace_dir.as_os_str(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let trace = trace_dir.join("shaped.events.jsonl");
    let trace = trace.to_str().unwrap();

    let text = std::fs::read_to_string(trace).unwrap();
    let lines = text.lines().count();
    let out = repro(&["validate-trace", trace]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with(&format!("{trace}: {lines} events OK (cc_state=")));
    assert_eq!(
        (stdout.lines().count(), out.stderr.len()),
        (1, 0),
        "{out:?}"
    );

    // The manifest's metrics are typed: a histogram without its count is
    // refused, with the member named.
    let manifest = trace_dir.join("shaped.manifest.json");
    let written = std::fs::read_to_string(&manifest).unwrap();
    assert!(written.contains("\"link.queue_bytes\": {"), "{written}");
    std::fs::write(&manifest, written.replace("\"count\": ", "\"n\": ")).unwrap();
    let out = repro(&["validate-trace", trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = ": metrics.histograms.link.queue_bytes: missing field `count`\n";
    assert!(stderr.ends_with(want), "{stderr}");
    // A manifest that says a ring dropped events marks the trace incomplete.
    let dropped = written.replace("\"events_dropped\": 0,", "\"events_dropped\": 3,");
    assert_ne!(dropped, written);
    std::fs::write(&manifest, dropped).unwrap();
    let out = repro(&["validate-trace", trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    let want = format!("repro: {trace}: manifest records 3 event(s) dropped by a bounded ring");
    assert!(stderr.starts_with(&want), "{stderr}");
    std::fs::write(&manifest, written).unwrap();

    let kept: String = text
        .lines()
        .take(lines - 100)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(trace, kept).unwrap();
    let out = repro(&["validate-trace", trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    let (recorded, held) = (
        format!("manifest records {lines} events (cc_state="),
        lines - 100,
    );
    assert!(
        stderr.starts_with(&format!("repro: {trace}: {recorded}")),
        "{stderr}"
    );
    assert!(
        stderr.ends_with(&format!("), trace holds {held}\n")),
        "{stderr}"
    );

    // A manifest that is there but cannot be read fails the trace: only a
    // missing one makes it a loose trace.
    std::fs::remove_file(&manifest).unwrap();
    std::fs::create_dir(&manifest).unwrap();
    let out = repro(&["validate-trace", trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = format!("repro: cannot read {}: ", manifest.display());
    assert!(stderr.starts_with(&want), "{stderr}");
    std::fs::remove_dir(&manifest).unwrap();

    // Without a manifest beside it the same file is just a valid trace.
    assert_eq!(repro(&["validate-trace", trace]).status.code(), Some(0));

    let _ = std::fs::remove_file(&spec);
    for dir in [&out_dir, &trace_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Exit 1 with exactly one line on stderr, and not a panic message.
fn assert_runtime_failure(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("repro: cannot "), "{stderr}");
}

/// `repro infer <one-run spec> --quick --jobs 2 --out <dir> <extra>…` on a
/// campaign whose one call ends before its first window closes, as its
/// output and its `--out` directory (the caller removes it).
fn infer_blink(tag: &str, extra: &[&str]) -> (Output, PathBuf) {
    let spec = temp_file(
        &format!("{tag}.json"),
        r#"{"name": "blink", "scenarios": [{"label": "blink", "base": {
            "type": "two_party", "kind": "Zoom", "up": {"constant_mbps": 1000.0},
            "down": {"constant_mbps": 1000.0}, "duration_secs": 0.5, "seed": 1}}]}"#,
    );
    let out_dir = temp_path(&format!("{tag}-out"));
    let (spec_arg, out_arg) = (spec.display().to_string(), out_dir.display().to_string());
    let mut args = vec![
        "infer", &spec_arg, "--quick", "--jobs", "2", "--out", &out_arg,
    ];
    args.extend(extra);
    let out = repro(&args);
    let _ = std::fs::remove_file(&spec);
    (out, out_dir)
}

/// Nothing is scored, and an empty pool is not a 0% error.
#[test]
fn infer_fails_its_gate_when_no_window_is_scored() {
    let (out, out_dir) = infer_blink("blink", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout.contains("0 joined windows"), "{stdout}");
    let empty = "gate: median bitrate error 0.0% over 0 scored tap windows (max 5.0%) FAIL\n";
    assert!(stdout.contains(empty), "{stdout}");
    assert!(stdout.ends_with("infer gate: FAIL\n"), "{stdout}");
    for report in [
        "IDENTIFY_report.json",
        "INFER_report.json",
        "ROUTED_report.json",
    ] {
        let written = std::fs::metadata(out_dir.join(report));
        assert!(written.is_ok_and(|m| m.len() > 0), "{report} not written");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// `--fit` freezes both models under `--out` by their committed file names, fit
/// over the training campaign whatever the evaluated spec scores.
#[test]
fn infer_fit_freezes_both_models_under_out() {
    let (out, out_dir) = infer_blink("blink-fit", &["--fit"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let read = |name: &str| {
        let path = out_dir.join(name);
        assert!(
            stdout.contains(&format!("-> {}\n", path.display())),
            "{stdout}"
        );
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    vcabench_infer::GbtModel::from_json(&read("gbt-v1.json")).expect("a GBT artifact");
    let centroid = read("centroid-v1.json");
    vcabench_fingerprint::CentroidModel::from_json(&centroid).expect("a centroid artifact");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn unwritable_outputs_fail_before_the_first_simulation() {
    // A file where a directory is needed makes every path beneath it
    // unwritable, for any user.
    let blocker = temp_file("blocker", "");
    let under = |leaf: &str| blocker.join(leaf).display().to_string();
    let started = std::time::Instant::now();
    assert_runtime_failure(&repro(&["all", "--json", &under("all.json")]));
    assert_runtime_failure(&repro(&["infer", "--out", &under("out")]));
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/smoke.json"
    );
    assert_runtime_failure(&repro(&["campaign", spec, "--trace-dir", &under("traces")]));
    // `all` alone simulates for minutes; none of these got that far.
    assert!(started.elapsed().as_secs() < 20);
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn diff_of_directories_reports_an_unreadable_trace_as_exit_1() {
    let (dir_a, dir_b) = (temp_path("diff-a"), temp_path("diff-b"));
    for dir in [&dir_a, &dir_b] {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("run_1.events.jsonl"), "not a trace\n").unwrap();
        std::fs::write(dir.join("run_2.events.jsonl"), "not a trace\n").unwrap();
    }
    let out_dir = temp_path("diff-out");
    let out = repro(&[
        "diff".as_ref(),
        dir_a.as_os_str(),
        dir_b.as_os_str(),
        "--jobs".as_ref(),
        "2".as_ref(),
        "--out".as_ref(),
        out_dir.as_os_str(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    // The first failure in label order, whichever worker hit one first.
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("run_1.events.jsonl"), "{stderr}");
    for dir in [&dir_a, &dir_b, &out_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// README.md, DESIGN.md, EXPERIMENTS.md and `docs/*.md`: the documents a
/// reader copies `repro` invocations from (`benchmark/` documents its own
/// binary), as `(name, text)`.
fn documents() -> Vec<(String, String)> {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("readable docs/")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    let top = ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(|name| root.join(name));
    top.into_iter()
        .chain(docs)
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable document");
            let name = path.strip_prefix(&root).expect("under the root");
            (name.display().to_string(), text)
        })
        .collect()
}

/// The arguments `words` hands `repro` when they start with it (or with a
/// path ending in `/repro`).
fn after_repro<'a>(words: &[&'a str]) -> Option<Vec<&'a str>> {
    let (first, rest) = words.split_first()?;
    (*first == "repro" || first.ends_with("/repro")).then(|| rest.to_vec())
}

/// The arguments `words` hands `repro`, if they invoke it: as `repro …`, or
/// through `cargo run … --bin repro -- …`.
fn repro_args<'a>(words: &[&'a str]) -> Option<Vec<&'a str>> {
    after_repro(words).or_else(|| {
        let at = words.windows(2).position(|w| w == ["--bin", "repro"])?;
        let rest = &words[at + 2..];
        Some(rest.strip_prefix(&["--"]).unwrap_or(rest).to_vec())
    })
}

/// Whether every word of an inline `repro …` span names a command, an
/// experiment or a flag: or is a flag's value, a command's operand, a
/// `<…>` placeholder, an elision `…`, or a `|` between alternatives.
fn names_only_real_words(args: &[&str]) -> bool {
    let (mut value_next, mut operands) = (false, 0);
    args.iter().all(|&w| {
        if std::mem::take(&mut value_next) {
            return true;
        }
        if let Some(f) = FLAGS.iter().find(|f| f.name == w) {
            value_next = !f.metavar.is_empty();
            return true;
        }
        if let Some(c) = COMMANDS.iter().find(|c| c.name == w) {
            operands = c.arity.1;
            return true;
        }
        let placeholder = w.starts_with('<') && w.ends_with('>');
        let experiment = EXPERIMENTS.iter().any(|e| e.names.contains(&w));
        if placeholder || experiment || [HELP, "-h", "|", "…"].contains(&w) {
            return true;
        }
        operands > 0 && {
            operands -= 1;
            true
        }
    })
}

#[test]
fn docs_only_name_real_commands() {
    let mut wrong = Vec::new();
    for (doc, text) in documents() {
        // Fenced blocks: each shell line that runs `repro` (continuations
        // joined, its comment and any redirection or pipe cut) must parse.
        let (mut fenced, mut prose, mut line) = (false, String::new(), String::new());
        for (i, raw) in text.lines().enumerate() {
            if raw.trim_start().starts_with("```") {
                fenced = !fenced;
                prose.push('\n');
                continue;
            }
            if !fenced {
                prose.push_str(raw);
                prose.push('\n');
                continue;
            }
            prose.push('\n');
            line.push_str(raw);
            if let Some(joined) = line.strip_suffix('\\') {
                line = format!("{joined} ");
                continue;
            }
            let words: Vec<&str> = line
                .split_whitespace()
                .take_while(|w| !w.starts_with('#'))
                .take_while(|w| !["|", "||", "&&", ";"].contains(w) && !w.contains('>'))
                .collect();
            if let Some(args) = repro_args(&words) {
                let argv = args.iter().map(|w| w.to_string());
                if let Err(e) = parse(argv) {
                    wrong.push(format!("{doc}:{}: `{}`: {e:?}", i + 1, line.trim()));
                }
            }
            line.clear();
        }
        // Inline spans, within a paragraph; a span may wrap a line.
        for paragraph in prose.split("\n\n") {
            let mut pieces: Vec<&str> = paragraph.split('`').collect();
            if pieces.len().is_multiple_of(2) {
                pieces.pop(); // an unclosed backtick opens no span
            }
            for span in pieces.iter().skip(1).step_by(2) {
                let words: Vec<&str> = span.split_whitespace().collect();
                if after_repro(&words).is_some_and(|args| !names_only_real_words(&args)) {
                    wrong.push(format!("{doc}: `{span}` names no real command"));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
