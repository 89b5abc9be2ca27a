//! Source guards: each "there is one of these" the repository has reached,
//! kept by scanning the tree.
//!
//! One walker ([`tree`]), one table ([`RULES`]: what to look for, where it
//! may appear, why) and one checker ([`Rule::violations`]). A guard test
//! runs its rules over the real tree and fails listing `file:line`;
//! [`every_rule_fires_on_a_seeded_violation`] runs every needle of every
//! rule over a made-up tree that breaks it, so a rule that could not fail
//! does not sit here looking green.

use std::path::Path;

/// How much of a line a needle is looked for in.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    /// The whole line, comments included.
    Line,
    /// The line up to `//`.
    Code,
    /// [`Part::Code`], and only above the file's first `#[cfg(test)]` (a
    /// file's test items come last).
    Shipped,
}

/// Where a needle may appear within the rule's scope.
#[derive(Clone, Copy)]
enum May {
    /// Nowhere.
    Never,
    /// In these files (and in at least one of them: a stale list is a guard
    /// looking in the wrong place).
    OnlyIn(&'static [&'static str]),
    /// In exactly one file.
    OneFile,
    /// On exactly one line.
    OneLine,
}

struct Rule {
    /// The test that runs this rule.
    guard: &'static str,
    /// Literal substrings; a leading `\b` means "not preceded by an
    /// identifier character" (`\bMap::new()` is not `BTreeMap::new()`).
    needles: &'static [&'static str],
    /// Files or directories, relative to the root; `*` stands for one path
    /// component. Every entry must match at least one file.
    scope: &'static [&'static str],
    part: Part,
    may: May,
    why: &'static str,
}

const RUN_RS: &[&str] = &["crates/harness/src/run.rs"];
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];
const SIM_CRATES: &[&str] = &[
    "crates/simcore/src",
    "crates/netsim/src",
    "crates/transport/src",
    "crates/congestion/src",
    "crates/media/src",
    "crates/vca/src",
    "crates/apps/src",
];
const ARTIFACT_CRATES: &[&str] = &[
    "crates/telemetry/src",
    "crates/observe/src",
    "crates/infer/src",
    "crates/fingerprint/src",
    "crates/harness/src",
];
const STORE_RS: &[&str] = &["crates/campaign/src/store.rs"];

const ONE_RUNNER: &str = "scenarios_run_through_one_runner_per_topology_and_one_sweep";
const ONE_CODEC: &str = "artifacts_are_written_and_read_through_one_codec";
const ONE_FLOW_CORE: &str = "flow_heuristics_and_recorder_plumbing_are_defined_once";
const NO_HASH: &str = "simulation_crates_use_no_hash_containers";
const NO_TREES: &str = "store_names_no_tree_builders_outside_tests";
const STATED_ONCE: &str = "model_facts_are_stated_once";
const ONE_BUILD: &str = "no_cargo_feature_selects_a_second_build";
const ONE_HEAP: &str = "events_are_ordered_by_one_heap_and_carry_no_packet";
const KIND_ONCE: &str = "server_reads_its_kind_once";
const CLIENT_KIND_ONCE: &str = "client_reads_its_kind_once";
const ONE_SENDER: &str = "each_client_kind_is_one_sender";
const ONE_EVENT_PER_HOP: &str = "a_hop_is_one_engine_event";
const ONE_ESTIMATOR: &str = "the_gbt_is_the_one_learned_estimator";
const NO_CALLER: &str = "nothing_ships_without_a_caller";
const ONE_TIMER: &str = "the_engine_has_one_timer";
const ONE_GRAMMAR: &str = "traces_are_read_with_one_grammar";
const ONE_PASSIVE_SUITE: &str = "a_passive_suite_runs_each_scenario_once";
const HELD_ONCE: &str = "a_campaign_holds_each_result_once";
const REUSED: &str = "per_packet_state_reuses_its_buffers";
const GUARDS: [&str; 19] = [
    ONE_RUNNER,
    ONE_CODEC,
    ONE_FLOW_CORE,
    NO_HASH,
    NO_TREES,
    STATED_ONCE,
    ONE_BUILD,
    ONE_HEAP,
    KIND_ONCE,
    CLIENT_KIND_ONCE,
    ONE_SENDER,
    ONE_EVENT_PER_HOP,
    ONE_ESTIMATOR,
    NO_CALLER,
    ONE_TIMER,
    ONE_GRAMMAR,
    ONE_PASSIVE_SUITE,
    HELD_ONCE,
    REUSED,
];

const RULES: &[Rule] = &[
    Rule {
        guard: ONE_RUNNER,
        needles: &[".run_until("],
        scope: &["crates/harness/src"],
        part: Part::Code,
        may: May::OnlyIn(RUN_RS),
        why: "only `harness::run::{two_party, competition, multiparty}` step a simulation; \
              a grid of them goes through `experiments::sweep`",
    },
    Rule {
        guard: ONE_RUNNER,
        needles: &["Network::new", "wire_call", "topology::"],
        scope: &["crates/harness/src", "crates/testkit/src"],
        part: Part::Code,
        may: May::OnlyIn(RUN_RS),
        why: "only run.rs turns a spec into a wired network; the impairment study, the \
              fuzzer and the golden traces bring a hook or a reader to `run::*_on`",
    },
    Rule {
        guard: ONE_RUNNER,
        needles: &[
            "CompetitionConfig",
            "Competitor::",
            "ProfileSpec",
            "CrossTraffic",
            "ALL_KINDS",
        ],
        scope: EVERYWHERE,
        part: Part::Line,
        may: May::Never,
        why: "the second competition config and the test kit's second scenario language \
              are retired; a scenario is a `vcabench_campaign` spec",
    },
    Rule {
        guard: ONE_RUNNER,
        needles: &[
            "run_two_party",
            "run_competition",
            "run_multiparty",
            "competitor_from_spec",
        ],
        scope: &[
            "crates/harness",
            "crates/testkit",
            "crates/cli",
            "crates/campaign",
            "src",
            "tests",
            "examples",
        ],
        part: Part::Line,
        may: May::Never,
        why: "the positional runner ladder is retired from everything above the simulator",
    },
    Rule {
        guard: ONE_CODEC,
        needles: &["\"schema\"", "to_string_pretty"],
        scope: ARTIFACT_CRATES,
        part: Part::Shipped,
        may: May::OnlyIn(&["crates/telemetry/src/artifact.rs"]),
        why: "an artifact is a struct that derives Serialize / Deserialize, written with \
              artifact::to_json and read with artifact::from_json",
    },
    Rule {
        guard: ONE_CODEC,
        needles: &["\\bMap::new()"],
        scope: ARTIFACT_CRATES,
        part: Part::Shipped,
        may: May::Never,
        why: "an artifact is written as text, never built as a `Value` tree first: where a \
              struct cannot state the shape (a span's flattened `kind`, the diagnosis' \
              flattened timeline) the impl names its members with `serde::json::Members`",
    },
    Rule {
        guard: ONE_CODEC,
        needles: &["fn to_json_value"],
        scope: &["crates/*/src"],
        part: Part::Code,
        may: May::OnlyIn(&["crates/observe/src/anomaly.rs"]),
        why: "`Serialize` has one method, `write_json`; the one tree a caller is handed is \
              `Diagnosis::to_json_value`, which parses what the diagnosis writes",
    },
    Rule {
        guard: ONE_CODEC,
        needles: &[".get(\""],
        scope: &[
            "crates/infer/src/gbt.rs",
            "crates/fingerprint/src/classifier.rs",
        ],
        part: Part::Shipped,
        may: May::Never,
        why: "the model loaders decode typed structs instead of walking a `Value` by key",
    },
    Rule {
        guard: ONE_FLOW_CORE,
        needles: &[
            "const HEADER_BYTES",
            "const AUDIO_WIRE",
            "const FULL_WIRE",
            "const FRAME_CLOSE_GAP_S",
            "enum Vantage",
        ],
        scope: &["crates/*/src"],
        part: Part::Code,
        may: May::OneFile,
        why: "what a header-free observer reads off a packet is defined in \
              crates/infer/src/flow.rs, under both `infer` and `fingerprint`",
    },
    Rule {
        guard: ONE_FLOW_CORE,
        needles: &["Rc::try_unwrap"],
        scope: &["crates/harness/src"],
        part: Part::Code,
        may: May::OneFile,
        why: "recorders attach to a run, and come back, through harness::campaign::record_run",
    },
    Rule {
        guard: NO_HASH,
        needles: &["HashMap", "HashSet", "RandomState"],
        scope: SIM_CRATES,
        part: Part::Code,
        may: May::Never,
        why: "std's hash tables are randomly keyed (iteration is not a function of the \
              contents) and SipHash a per-packet path: use a dense Vec, \
              vcabench_simcore::SmallMap or BTreeMap",
    },
    Rule {
        guard: ONE_HEAP,
        needles: &["BinaryHeap", "NetEvent"],
        scope: &["crates/*/src"],
        part: Part::Line,
        may: May::Never,
        why: "pending events are ordered by vcabench_simcore::EventQueue's own vacant-root \
              heap (no std heap kept beside it), and the engine's event is a private \
              16-byte enum around a packet handle, not a public by-value packet carrier",
    },
    Rule {
        guard: NO_TREES,
        needles: &["serde_json::from_str", "to_json_value"],
        scope: STORE_RS,
        part: Part::Shipped,
        may: May::Never,
        why: "a record line is ~45 KB of series: read it with serde_json::read::Cursor and \
              write it with Serialize::write_json (the tree reader lives on as the oracle \
              in store/oracle.rs)",
    },
    Rule {
        guard: NO_TREES,
        needles: &["fn load_store", "fn record_line"],
        scope: STORE_RS,
        part: Part::Shipped,
        may: May::OneFile,
        why: "the rule above must be scanning the file that reads and writes the store",
    },
    Rule {
        guard: STATED_ONCE,
        needles: &["constant_mbps(1000.0)"],
        scope: &["crates/*/src", "src", "examples"],
        part: Part::Shipped,
        may: May::Never,
        why: "the open line is `harness::run::unconstrained()` / \
              `netsim::topology::UNCONSTRAINED_MBPS`",
    },
    Rule {
        guard: STATED_ONCE,
        needles: &["0.68"],
        scope: &["crates/media/src", "crates/vca/src"],
        part: Part::Shipped,
        may: May::OneLine,
        why: "Zoom's rates are `media::ZoomLadder::GALLERY`; the SFU's layer cut and the \
              client's encoder ceiling read them from there",
    },
    Rule {
        guard: ONE_BUILD,
        needles: &["cfg(feature", "cfg!(feature", "cfg_attr(feature"],
        scope: &["crates/*/src"],
        part: Part::Code,
        may: May::Never,
        why: "cargo unifies features across a workspace, so a feature-gated hook is in or \
              out of `repro` depending on what else was built; audits are ordinary code \
              behind `cfg!(debug_assertions)`, which the build itself decides",
    },
    Rule {
        guard: KIND_ONCE,
        needles: &["self.kind"],
        scope: &["crates/vca/src/server.rs"],
        part: Part::Shipped,
        may: May::Never,
        why: "`VcaServer::new` reads the VCA kind once to pick a forwarding policy \
              (simulcast, SVC or relay); past it the server asks the policy, never the kind",
    },
    Rule {
        guard: CLIENT_KIND_ONCE,
        needles: &["self.kind"],
        scope: &["crates/vca/src/client.rs"],
        part: Part::Shipped,
        may: May::Never,
        why: "`VcaClient::new` reads the VCA kind once to pick a `Sender` (Meet, Zoom or \
              Teams); past it the client asks the sender, never the kind",
    },
    Rule {
        guard: ONE_SENDER,
        needles: &["EncoderPolicy"],
        scope: &["crates/*/src"],
        part: Part::Line,
        may: May::Never,
        why: "each encoder policy's `plan` is inherent and a client's `Sender` variant owns \
              its policy; no trait with no-op defaults hides which kinds react to the layout",
    },
    Rule {
        guard: ONE_EVENT_PER_HOP,
        needles: &["LinkReady", "link_ready"],
        scope: &["crates/*/src"],
        part: Part::Line,
        may: May::Never,
        why: "a link fixes each packet's departure when it accepts it and the engine \
              schedules the packet's `Arrive` right then: no second event marks the end of \
              serialization",
    },
    Rule {
        guard: ONE_ESTIMATOR,
        needles: &[
            "LinearModel",
            "KindModels",
            "linear-v1",
            "linear-kinds",
            "fit_kind_models",
            "ESTIMATOR_NAMES",
        ],
        scope: &["crates/*/src", "src"],
        part: Part::Line,
        may: May::Never,
        why: "the GBT (`gbt-v1`, and per-family fits on the training campaign for the routed \
              report) is the one learned estimator and the one `infer` gates; the heuristic \
              is the report's training-free baseline, and nothing selects between them",
    },
    Rule {
        guard: NO_CALLER,
        needles: &[
            "two_party_call(",
            "multiparty_call(",
            "wire_call_at",
            "FecParams",
            "mean_between",
            "freeze_ratio_between",
            "firs_between",
            "share_of",
            "share_series",
            "lifetime_loss_fraction",
        ],
        scope: EVERYWHERE,
        part: Part::Line,
        may: May::Never,
        why: "a lab is built by `run::*_on`, or by hand from `topology::*_on` and one \
              `wire_call` that takes its join time; a link share is `vcabench_stats::share`; \
              public API that only its own tests called is gone, not parked",
    },
    Rule {
        guard: NO_CALLER,
        needles: &[
            "--max-bitrate-err",
            "--min-freeze-recall",
            "--min-id-accuracy",
            "\"--strict\"",
            "Takes::Unit",
            "Takes::Positive",
        ],
        scope: &["crates/cli/src"],
        part: Part::Shipped,
        may: May::Never,
        why: "the infer and identify gates are constants (`harness::MAX_BITRATE_ERR`, \
              `MIN_FREEZE_RECALL`, `MIN_ID_ACCURACY`, `MAX_ROUTED_DELTA`) and \
              `validate-trace` fails on any dropped event: no flag sets them",
    },
    Rule {
        guard: NO_CALLER,
        needles: &[
            "QueueTrack",
            "queue_enter_bytes",
            "lookback_secs",
            "oscillation_epochs",
            "size_class",
        ],
        scope: &["crates/*/src"],
        part: Part::Code,
        may: May::Never,
        why: "the span and anomaly thresholds are constants of `observe::span` and \
              `observe::anomaly`, not `ObserveConfig` fields; every open span lives in \
              `SpanBuilder`'s one table; the fingerprint keeps no size-class histogram \
              that nothing reads",
    },
    Rule {
        guard: NO_CALLER,
        needles: &["ModelEntry", "registry_entry", "schema_of", "fn register("],
        scope: &["crates/*/src"],
        part: Part::Code,
        may: May::Never,
        why: "each frozen model loads its committed artifact through its own typed loader \
              (`GbtModel::builtin`, `CentroidModel::builtin`), which checks the schema tag: \
              there is no name-keyed registry of two artifacts and no tag pre-scan",
    },
    Rule {
        guard: NO_CALLER,
        needles: &["model_registry("],
        scope: &["crates/*/src", "src", "examples"],
        part: Part::Shipped,
        may: May::OnlyIn(&["crates/harness/src/infer.rs"]),
        why: "`harness::model_registry` is a fixed two-row shim kept only because \
              `benchmark/src/surface.rs` names it; product code calls the `builtin()` loaders",
    },
    Rule {
        guard: NO_CALLER,
        needles: &["pub seed: u64", "cfg.seed", "cfg.capacity_mbps"],
        scope: &["crates/harness/src/experiments"],
        part: Part::Code,
        may: May::Never,
        why: "an experiment's seed and the fixed bottleneck of the competition figures are \
              constants of its module (`SEED`, `CAPACITY_MBPS`): no caller sets them, and \
              `pub capacity_mbps` is left to the result structs that report it",
    },
    Rule {
        guard: ONE_TIMER,
        needles: &[
            "Profiler",
            "enable_profiler",
            "vcabench-profile",
            "\"--profile\"",
        ],
        scope: &["crates/*/src"],
        part: Part::Line,
        may: May::Never,
        why: "the event loop only pops and handles: where simulation wall time goes is \
              answered by the benchmark's traced run (`bench run --trace 1`) on the workloads \
              people run, not by a second timer on a private workload",
    },
    Rule {
        guard: ONE_GRAMMAR,
        needles: &[
            "validate_event_line",
            "validate_general",
            "fn check_line",
            "fn type_ok",
            "FieldType",
        ],
        scope: &["crates/*/src"],
        part: Part::Line,
        may: May::Never,
        why: "a trace line is valid exactly when `parse_event_line` reads it: \
              `validate_jsonl` counts over the document loop `replay_jsonl` replays with, \
              so `validate-trace` cannot pass a trace an offline consumer refuses, or the \
              other way round",
    },
    Rule {
        guard: ONE_PASSIVE_SUITE,
        needles: &[
            "infer_suite",
            "fingerprint_suite",
            "infer_identify_suite",
            "run_spec_infer_identify",
            "LabeledFingerprint",
            "rows_by_family",
            "CONFLICTS",
            "\"--identify\"",
        ],
        scope: &["crates/*/src", "src"],
        part: Part::Line,
        may: May::Never,
        why: "a passive suite runs each scenario once, through `passive_suite`; `repro infer` \
              always writes the routed report",
    },
    Rule {
        guard: HELD_ONCE,
        needles: &["execute_runs_with", "RunResult", "read_to_string"],
        scope: &[
            "crates/campaign/src/store.rs",
            "crates/campaign/src/exec.rs",
        ],
        part: Part::Shipped,
        may: May::Never,
        why: "a run's record line is made on the worker that ran it, and the store is read \
              line by line, never whole",
    },
    Rule {
        guard: REUSED,
        needles: &["BTreeMap", "BTreeSet"],
        scope: &[
            "crates/media/src/receiver.rs",
            "crates/transport/src/tcp.rs",
            "crates/transport/src/rtp.rs",
        ],
        part: Part::Code,
        may: May::Never,
        why: "per-packet state reuses its buffers; a tree allocates nodes per loss episode",
    },
];

/// A source tree: `(path relative to the root, text)`.
type Tree = Vec<(String, String)>;

/// Every `.rs` file under `crates`, `src`, `tests` and `examples` but this
/// one (it spells every needle).
fn tree() -> Tree {
    fn walk(root: &Path, dir: &Path, out: &mut Tree) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(root, &path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let text = std::fs::read_to_string(&path).expect("readable source file");
                out.push((rel.display().to_string(), text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Tree::new();
    for dir in EVERYWHERE {
        walk(root, &root.join(dir), &mut out);
    }
    out.retain(|(rel, _)| rel != file!());
    out.sort();
    assert!(out.len() >= 120, "scan found only {} files", out.len());
    out
}

/// Whether `rel` is the file `pattern`, or lies under the directory.
fn within(rel: &str, pattern: &str) -> bool {
    let under = |rel: &str, dir: &str| {
        rel.strip_prefix(dir)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    };
    match pattern.split_once("*/") {
        None => under(rel, pattern),
        Some((before, after)) => rel
            .strip_prefix(before)
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| under(rest, after)),
    }
}

fn found(text: &str, needle: &str) -> bool {
    match needle.strip_prefix("\\b") {
        None => text.contains(needle),
        Some(needle) => text.match_indices(needle).any(|(at, _)| {
            let before = text[..at].chars().next_back();
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
        }),
    }
}

impl Rule {
    /// `file:line` of every line of `rel` this rule's `needle` counts on.
    fn hits(&self, rel: &str, text: &str, needle: &str) -> Vec<String> {
        let shipped = |line: &&str| self.part != Part::Shipped || line.trim() != "#[cfg(test)]";
        let lines = text.lines().take_while(shipped).enumerate();
        lines
            .filter(|(_, line)| match self.part {
                Part::Line => found(line, needle),
                Part::Code | Part::Shipped => found(line.split("//").next().unwrap_or(""), needle),
            })
            .map(|(i, _)| format!("{rel}:{}", i + 1))
            .collect()
    }

    /// What is wrong with `tree` by this rule, one line per needle.
    fn violations(&self, tree: &Tree) -> Vec<String> {
        let mut wrong = Vec::new();
        for pattern in self.scope {
            if !tree.iter().any(|(rel, _)| within(rel, pattern)) {
                wrong.push(format!("scope `{pattern}` matches no file"));
            }
        }
        let in_scope = |rel: &str| self.scope.iter().any(|pattern| within(rel, pattern));
        let mut in_allowed = 0;
        for needle in self.needles {
            // Per file in scope that has any: its `file:line` hits.
            let hits: Vec<(&str, Vec<String>)> = tree
                .iter()
                .filter(|(rel, _)| in_scope(rel))
                .map(|(rel, text)| (rel.as_str(), self.hits(rel, text, needle)))
                .filter(|(_, hits)| !hits.is_empty())
                .collect();
            let at = |hits: &[(&str, Vec<String>)]| {
                let lines = hits.iter().flat_map(|(_, h)| h.iter().map(String::as_str));
                lines.collect::<Vec<_>>().join(" ")
            };
            let lines: usize = hits.iter().map(|(_, h)| h.len()).sum();
            wrong.extend(match self.may {
                May::Never if lines > 0 => Some(format!("`{needle}`: {}", at(&hits))),
                May::OnlyIn(allowed) => {
                    let (inside, outside): (Vec<_>, Vec<_>) =
                        hits.into_iter().partition(|(rel, _)| allowed.contains(rel));
                    in_allowed += inside.len();
                    let outside_at = format!("`{needle}` outside {allowed:?}: {}", at(&outside));
                    (!outside.is_empty()).then_some(outside_at)
                }
                May::OneFile if hits.len() != 1 => {
                    let files = hits.len();
                    Some(format!(
                        "`{needle}` in {files} files, not one: {}",
                        at(&hits)
                    ))
                }
                May::OneLine if lines != 1 => Some(format!(
                    "`{needle}` on {lines} lines, not one: {}",
                    at(&hits)
                )),
                _ => None,
            });
        }
        if let (May::OnlyIn(allowed), 0) = (self.may, in_allowed) {
            wrong.push(format!("{allowed:?} names none of {:?}", self.needles));
        }
        wrong
    }
}

/// Run `guard`'s rules over the real tree.
fn holds(guard: &str) {
    let tree = tree();
    let rules = RULES.iter().filter(|rule| rule.guard == guard);
    let wrong: Vec<String> = rules
        .flat_map(|rule| {
            let wrong = rule.violations(&tree).join("\n  ");
            (!wrong.is_empty()).then(|| format!("{}:\n  {wrong}", rule.why))
        })
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn scenarios_run_through_one_runner_per_topology_and_one_sweep() {
    holds(ONE_RUNNER);
}

#[test]
fn artifacts_are_written_and_read_through_one_codec() {
    holds(ONE_CODEC);
}

#[test]
fn flow_heuristics_and_recorder_plumbing_are_defined_once() {
    holds(ONE_FLOW_CORE);
}

#[test]
fn simulation_crates_use_no_hash_containers() {
    holds(NO_HASH);
}

#[test]
fn store_names_no_tree_builders_outside_tests() {
    holds(NO_TREES);
}

#[test]
fn model_facts_are_stated_once() {
    holds(STATED_ONCE);
}

#[test]
fn no_cargo_feature_selects_a_second_build() {
    holds(ONE_BUILD);
}

#[test]
fn events_are_ordered_by_one_heap_and_carry_no_packet() {
    holds(ONE_HEAP);
}

#[test]
fn server_reads_its_kind_once() {
    holds(KIND_ONCE);
}

#[test]
fn client_reads_its_kind_once() {
    holds(CLIENT_KIND_ONCE);
}

#[test]
fn each_client_kind_is_one_sender() {
    holds(ONE_SENDER);
}

#[test]
fn a_hop_is_one_engine_event() {
    holds(ONE_EVENT_PER_HOP);
}

#[test]
fn the_gbt_is_the_one_learned_estimator() {
    holds(ONE_ESTIMATOR);
}

#[test]
fn nothing_ships_without_a_caller() {
    holds(NO_CALLER);
}

#[test]
fn the_engine_has_one_timer() {
    holds(ONE_TIMER);
}

#[test]
fn traces_are_read_with_one_grammar() {
    holds(ONE_GRAMMAR);
}

#[test]
fn a_passive_suite_runs_each_scenario_once() {
    holds(ONE_PASSIVE_SUITE);
}

#[test]
fn a_campaign_holds_each_result_once() {
    holds(HELD_ONCE);
}

#[test]
fn per_packet_state_reuses_its_buffers() {
    holds(REUSED);
}

/// A file path inside `pattern`.
fn seeded_path(pattern: &str, name: &str) -> String {
    let dir = pattern.replace('*', "seeded");
    if dir.ends_with(".rs") {
        dir
    } else {
        format!("{dir}/{name}.rs")
    }
}

#[test]
fn every_rule_fires_on_a_seeded_violation() {
    for rule in RULES {
        assert!(GUARDS.contains(&rule.guard), "no test runs {}", rule.guard);
        // A tree the rule accepts: every scope entry has a file, and the
        // needles sit where (and as often as) they may.
        let mut clean: Tree = rule
            .scope
            .iter()
            .map(|pattern| (seeded_path(pattern, "empty"), String::new()))
            .collect();
        let spelled: Vec<String> = rule
            .needles
            .iter()
            .map(|needle| format!("let x = {};\n", needle.trim_start_matches("\\b")))
            .collect();
        let home = match rule.may {
            May::Never => None,
            May::OnlyIn(allowed) => Some(allowed[0].to_string()),
            May::OneFile | May::OneLine => Some(seeded_path(rule.scope[0], "home")),
        };
        if let Some(home) = home {
            clean.retain(|(rel, _)| *rel != home);
            clean.push((home, spelled.concat()));
        }
        let accepts = |tree: &Tree, what: &str| {
            let wrong = rule.violations(tree);
            assert!(wrong.is_empty(), "{what}: {wrong:?}");
        };
        accepts(&clean, rule.why);

        for (needle, spelled) in rule.needles.iter().zip(&spelled) {
            // Out of scope, in a comment, or in a file's test items (as far
            // as the rule's `part` says), the needle does not count.
            let mut quiet = clean.clone();
            quiet.push(("elsewhere/out_of_scope.rs".to_string(), spelled.clone()));
            let mut unseen = String::new();
            if rule.part != Part::Line {
                unseen.push_str(&format!("// {spelled}"));
            }
            if rule.part == Part::Shipped {
                unseen.push_str(&format!("#[cfg(test)]\nmod tests {{ {spelled} }}\n"));
            }
            quiet.push((seeded_path(rule.scope[0], "quiet"), unseen));
            accepts(&quiet, needle);
            // One more spelling inside the scope breaks the rule.
            let mut broken = clean.clone();
            broken.push((seeded_path(rule.scope[0], "second"), spelled.clone()));
            let wrong = rule.violations(&broken);
            assert!(
                wrong.len() == 1 && wrong[0].contains(needle.trim_start_matches("\\b")),
                "`{needle}` seeded into {:?} went unnoticed: {wrong:?}",
                broken.last().map(|(rel, _)| rel)
            );
        }
        // A scope or an allow-list that went stale is reported too.
        let moved: Tree = clean
            .iter()
            .map(|(rel, text)| (format!("moved/{rel}"), text.clone()))
            .collect();
        assert!(!rule.violations(&moved).is_empty(), "{}", rule.why);
        if let May::OnlyIn(_) = rule.may {
            let without_home = clean[..clean.len() - 1].to_vec();
            assert!(!rule.violations(&without_home).is_empty(), "{}", rule.why);
        }
    }
    // `\b`: a longer path that ends in the needle is not the needle.
    assert!(found("let m = Map::new();", "\\bMap::new()"));
    assert!(!found("let m = BTreeMap::new();", "\\bMap::new()"));
    assert!(within("crates/vca/src/server.rs", "crates/*/src"));
    assert!(!within("crates/vca/tests/x.rs", "crates/*/src"));
    assert!(!within("crates/harness_extra/src/x.rs", "crates/harness"));
}
