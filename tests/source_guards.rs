//! Source guards: each "there is one of these" the repository has reached,
//! kept by scanning the tree.
//!
//! One walker ([`tree`]), one table ([`RULES`]: what to look for, where it
//! may appear, why) and one checker ([`Rule::violations`]). A guard test
//! runs its rules over the real tree and fails listing `file:line`;
//! [`every_rule_fires_on_a_seeded_violation`] runs every needle of every
//! rule over a made-up tree that breaks it, so a rule that could not fail
//! does not sit here looking green.

use std::collections::BTreeMap;
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
        needles: &[": FrameSegmenter", "FrameSegmenter::default()"],
        scope: &["crates/*/src"],
        part: Part::Shipped,
        may: May::OnlyIn(&["crates/infer/src/features.rs"]),
        why: "a tap is folded once: each packet that crosses it passes through the one frame \
              segmenter of its `infer::Extractor`, and a call fingerprint is summed from that \
              extractor's windows (`FlowFingerprint::of`)",
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
            "share_of",
            "share_series",
        ],
        scope: EVERYWHERE,
        part: Part::Line,
        may: May::Never,
        why: "a lab is built by `run::*_on`, or by hand from `topology::*_on` and one \
              `wire_call` that takes its join time; a link share is `vcabench_stats::share`",
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
        needles: &[
            "with_temporal_thinning",
            "thinning_aware",
            "stale_after",
            "pub start_mbps",
            "pub loss_threshold",
            "pub osc_period",
            "pub eta_per_s",
            "params: &GbtParams",
            "pub init_cwnd",
            "pub min_rto",
            "pub cubic_c",
            "pub init_ssthresh",
            "pub recovery_burst",
            "fn new(window",
        ],
        scope: &["crates/*/src"],
        part: Part::Code,
        may: May::Never,
        why: "a model value no sender chooses is a constant of its module: the controllers' \
              configs hold only what a VCA sets (`GccConfig::max_mbps`, \
              `FbraConfig::reprobe_jitter`, Teams-Chrome's six), `TcpConfig` and the trendline \
              detector have none, the frame assembler has one gap rule and a fixed stale \
              limit, and the GBT is fit with `GbtParams::default()`",
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

/// Every `.rs` file under `dirs`, relative to the root.
fn read_tree(dirs: &[&str]) -> Tree {
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
    for dir in dirs {
        walk(root, &root.join(dir), &mut out);
    }
    out.sort();
    out
}

/// Every `.rs` file under `crates`, `src`, `tests` and `examples` but this
/// one (it spells every needle).
fn tree() -> Tree {
    let mut out = read_tree(EVERYWHERE);
    out.retain(|(rel, _)| rel != file!());
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

/// A line's code: the text before `//`.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// Whether `line` starts a file's test items (they come last).
fn starts_tests(line: &str) -> bool {
    line.trim() == "#[cfg(test)]"
}

/// The lines above the first `#[cfg(test)]`.
fn shipped(text: &str) -> impl Iterator<Item = &str> {
    text.lines().take_while(|line| !starts_tests(line))
}

impl Rule {
    /// `file:line` of every line of `rel` this rule's `needle` counts on.
    fn hits(&self, rel: &str, text: &str, needle: &str) -> Vec<String> {
        let shipped = |line: &&str| self.part != Part::Shipped || !starts_tests(line);
        let lines = text.lines().take_while(shipped).enumerate();
        lines
            .filter(|(_, line)| match self.part {
                Part::Line => found(line, needle),
                Part::Code | Part::Shipped => found(code(line), needle),
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

/// Where the has-a-caller rule looks for `pub` items and their product
/// callers (with `examples`, whole). `crates/testkit` is test support: no
/// crate depends on it, so it neither declares nor calls for this rule.
const SHIPPED: &[&str] = &["crates/*/src", "src"];
const TEST_SUPPORT: &str = "crates/testkit";

/// The modules a parent declares under `#[cfg(test)]`, as paths without
/// `.rs` (`mod oracle;` in `expand.rs` is `expand/oracle`): test code,
/// though their files hold no `#[cfg(test)]` line of their own.
fn test_modules(tree: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    for (rel, text) in tree {
        let dir = match rel.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
            _ => rel.trim_end_matches(".rs"),
        };
        let mut gated = false;
        for line in text.lines() {
            let code = code(line).trim();
            if starts_tests(line) || (gated && code.starts_with("#[")) {
                gated = true;
                continue;
            }
            let declared = code.strip_prefix("pub(crate) ").unwrap_or(code);
            let declared = declared.strip_prefix("pub ").unwrap_or(declared);
            let name = declared
                .strip_prefix("mod ")
                .and_then(|d| d.strip_suffix(';'));
            if let (true, Some(name)) = (gated, name) {
                out.push(format!("{dir}/{name}"));
            }
            gated = false;
        }
    }
    out
}

/// The files the has-a-caller rule reads as product code: `SHIPPED`, bar
/// `TEST_SUPPORT` and the files of [`test_modules`] and everything under
/// them.
fn product_files(tree: &Tree) -> impl Iterator<Item = &(String, String)> {
    let tests = test_modules(tree);
    let test_file = move |rel: &str| {
        let module = rel.strip_suffix(".rs");
        tests
            .iter()
            .any(|m| module == Some(m.as_str()) || within(rel, m))
    };
    tree.iter().filter(move |(rel, _)| {
        SHIPPED.iter().any(|p| within(rel, p)) && !within(rel, TEST_SUPPORT) && !test_file(rel)
    })
}

/// The `pub` items that ship with no product caller, each with the reader
/// that needs it public: `benchmark/src`, which times these names from
/// outside and is not edited with the code it measures, or the test that
/// reads the item. A row fails once its reader stops naming the item, once
/// the item gains a product caller, or once no item has its name.
const EXEMPT: &[(&str, &str)] = &[
    ("quiet", "benchmark/src"),
    ("add_agent", "benchmark/src"),
    ("to_json_value", "benchmark/src"),
    ("int_range", "benchmark/src"),
    ("cancel", "benchmark/src"),
    ("dropped_events", "benchmark/src"),
    ("with_log", "benchmark/src"),
    ("model_registry", "benchmark/src"),
    ("run_spec_infer_metered", "benchmark/src"),
    ("run_spec_fingerprint_metered", "benchmark/src"),
    ("events_jsonl", "benchmark/src"),
    ("NullRecorder", "benchmark/src"),
    ("poll", "benchmark/src"),
    ("pending_frames", "crates/media/tests/assembler_oracle.rs"),
    ("to_jsonl_line", "crates/telemetry/tests/oracle.rs"),
    ("parse_event_line", "crates/telemetry/tests/oracle.rs"),
    ("binned_bytes", "crates/netsim/tests/closed_form.rs"),
    ("invariant_checks", "crates/testkit/src/scenario.rs"),
    ("SyntheticLink", "benchmark/src"),
    ("cwnd", "crates/transport/tests/tcp_oracle.rs"),
    ("events_processed", "benchmark/src"),
    ("marker", "benchmark/src"),
    ("unrouted_drops", "crates/testkit/src/scenario.rs"),
    ("wan_up", "crates/testkit/src/scenario.rs"),
    ("wan_down", "crates/testkit/src/scenario.rs"),
    ("c2_down", "crates/testkit/src/scenario.rs"),
    ("enq_pkts", "crates/observe/tests/span_oracle.rs"),
    ("frames_dropped", "crates/media/tests/assembler_oracle.rs"),
    ("firs_sent", "tests/api_surface.rs"),
    ("fast_retransmits", "crates/transport/tests/tcp_oracle.rs"),
    ("timeouts", "crates/transport/tests/tcp_oracle.rs"),
    (
        "ANOMALY_CLASSES",
        "crates/harness/tests/experiments_golden.rs",
    ),
];

/// The identifiers in `code`.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.split(move |c: char| !ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// Where `word`, a slice of `code`, starts in it.
fn offset(code: &str, word: &str) -> usize {
    word.as_ptr() as usize - code.as_ptr() as usize
}

/// The name a `pub fn|struct|enum|trait|type|const|static` line declares
/// (not a macro's `$name`).
fn pub_item(code: &str) -> Option<&str> {
    let mut words = idents(code.trim_start().strip_prefix("pub ")?).peekable();
    while let Some(word) = words.next() {
        match word {
            "unsafe" | "async" => {}
            "const" if words.peek() == Some(&"fn") => {}
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" => {
                return words
                    .next()
                    .filter(|name| !code[..offset(code, name)].ends_with('$'));
            }
            _ => return None,
        }
    }
    None
}

/// The type an `impl` header line is for: `Foo` in `impl<T> Trait for Foo<T> {`.
fn impl_self(code: &str) -> Option<&str> {
    let header = code.trim_start().strip_prefix("impl")?;
    let target = match header.rsplit_once(" for ") {
        Some((_, target)) => target,
        None if header.starts_with('<') => header.split_once("> ")?.1,
        None => header.strip_prefix(' ')?,
    };
    idents(target.split(['<', '{']).next()?).last()
}

/// Whether `word`, an identifier sliced out of `code`, is named as a field:
/// `.word` with no call (`(` or a turbofish `::<`) after it, or `word:`.
/// A function named only so is never called.
fn as_field(code: &str, word: &str) -> bool {
    let at = offset(code, word);
    let (before, after) = (&code[..at], &code[at + word.len()..]);
    let dotted = before.ends_with('.') && !before.ends_with("..");
    let called = after.starts_with('(') || after.starts_with("::<");
    (dotted && !called) || (after.starts_with(':') && !after.starts_with("::"))
}

/// How far `line` is indented.
fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// What a has-a-caller name is declared as, and so which use of it counts:
/// an item is named as a caller names it, a struct field is read, an enum
/// variant is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Decl {
    Item,
    Field,
    Variant,
}

/// Whether the attribute lines `attrs` derive `name`.
fn derives(attrs: &str, name: &str) -> bool {
    attrs.contains("derive(") && idents(attrs).any(|w| w == name)
}

/// The struct fields and enum variants `lines` declare, by line index. A
/// body's members sit one indent in from its header, which ends in `{`, and
/// its `}` closes at the header's indent (rustfmt's layout). Left out: a
/// `pub(crate)` body or field, the fields of a `derive(Serialize)` struct
/// that are not `serde(skip)`ped (writing them out reads them) and the
/// variants of a `derive(Deserialize)` enum (the parser builds them).
fn members<'a>(lines: &[&'a str]) -> BTreeMap<usize, (Decl, &'a str)> {
    let mut out = BTreeMap::new();
    let mut attrs = String::new();
    // The open body: what it declares, its header's indent, and whether a
    // derive uses every member.
    let mut body: Option<(Decl, usize, bool)> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = code(line).trim();
        if code.starts_with("#[") {
            attrs.push_str(code);
            continue;
        }
        match body {
            Some((_, at, _)) if code == "}" && indent(line) == at => body = None,
            Some((decl, at, derived)) if indent(line) == at + 4 && !code.contains('$') => {
                let name = match decl {
                    Decl::Field => code.strip_prefix("pub ").unwrap_or(code).split(':').next(),
                    _ => code
                        .split(|c: char| !c.is_alphanumeric() && c != '_')
                        .next(),
                };
                let name = name.filter(|name| idents(name).eq([*name]));
                let used = derived && !attrs.contains("serde(skip");
                if let (Some(name), false) = (name, used) {
                    out.insert(i, (decl, name));
                }
            }
            Some(_) => {}
            None if code.ends_with('{') => {
                let bare = code.strip_prefix("pub ").unwrap_or(code);
                body = if bare.starts_with("struct ") {
                    Some((Decl::Field, indent(line), derives(&attrs, "Serialize")))
                } else if bare.starts_with("enum ") {
                    Some((Decl::Variant, indent(line), derives(&attrs, "Deserialize")))
                } else {
                    None
                };
            }
            None => {}
        }
        if !code.is_empty() {
            attrs.clear();
        }
    }
    out
}

/// Whether `word`, an identifier sliced out of `code`, is a field read:
/// `.word`, not called and not the target of `=` or a compound assignment.
fn read(code: &str, word: &str) -> bool {
    let at = offset(code, word);
    let (before, after) = (&code[..at], code[at + word.len()..].trim_start());
    let assigned = [
        "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
    ]
    .iter()
    .any(|op| after.starts_with(op))
        && !after.starts_with("==")
        && !after.starts_with("=>");
    as_field(code, word) && before.ends_with('.') && !assigned
}

/// The fields a `..` destructure on line `i` of `lines` names: between the
/// `{` and `..}` of a pattern on that line, or the members of a pattern
/// whose `..` stands on a line of its own.
fn destructured<'a>(lines: &[&'a str], i: usize) -> Vec<&'a str> {
    if code(lines[i]).trim() == ".." {
        let fields = lines[..i]
            .iter()
            .rev()
            .take_while(|l| indent(l) >= indent(lines[i]));
        let fields = fields.filter(|l| indent(l) == indent(lines[i]));
        return fields.filter_map(|l| idents(code(l)).next()).collect();
    }
    let code = code(lines[i]);
    let rest = |at: usize| code[at + 2..].trim_start().starts_with('}');
    let Some((end, _)) = code.match_indices("..").find(|(at, _)| rest(*at)) else {
        return Vec::new();
    };
    let start = code[..end].rfind('{').map_or(0, |at| at + 1);
    idents(&code[start..end]).collect()
}

/// Whether `word`, an identifier sliced out of line `i` of `lines`, sits in
/// a pattern: before a match arm's `=>` (or in an alternative split over
/// lines), left of a `let`'s `=`, or inside `matches!`.
fn in_pattern(lines: &[&str], i: usize, word: &str) -> bool {
    let code = code(lines[i]);
    let at = offset(code, word);
    let (before, after) = (&code[..at], &code[at..]);
    let next_alternative = lines
        .get(i + 1)
        .is_some_and(|l| l.trim_start().starts_with('|'));
    let let_left = before
        .rsplit_once("let ")
        .is_some_and(|(_, rest)| !rest.contains('='));
    after.contains("=>")
        || before.trim_start().starts_with('|')
        || next_alternative
        || let_left
        || before.contains("matches!(")
}

/// How many times shipped code and the examples use each declared name:
/// an item as a caller would name it, not counting `pub use` re-exports, the
/// name a `pub` item line declares, the type an `impl` header is for, a
/// type named inside its own `impl` blocks (rustfmt closes a block at its
/// header's indent) or a field mention ([`as_field`]); a field by a [`read`]
/// or a `..` destructure ([`destructured`]); a variant anywhere but its
/// declaration and a pattern ([`in_pattern`]).
fn product_uses(tree: &Tree) -> BTreeMap<(Decl, &str), usize> {
    let mut uses = BTreeMap::new();
    let examples = tree.iter().filter(|(rel, _)| within(rel, "examples"));
    for (_, text) in product_files(tree).chain(examples) {
        let lines: Vec<&str> = shipped(text).collect();
        let members = members(&lines);
        let mut re_export = false;
        // The type whose `impl` block the scan is in, with the block's indent.
        let mut in_impl: Option<(&str, usize)> = None;
        for (i, line) in lines.iter().enumerate() {
            let code = code(line);
            if re_export || code.trim_start().starts_with("pub use ") {
                re_export = !code.contains(';');
                continue;
            }
            if in_impl.is_some_and(|(_, at)| line.trim() == "}" && indent(line) == at) {
                in_impl = None;
            }
            let own = pub_item(code).or_else(|| impl_self(code));
            if let (None, Some(ty)) = (in_impl, impl_self(code)) {
                if !code.trim_end().ends_with('}') {
                    in_impl = Some((ty, indent(line)));
                }
            }
            let own_type = in_impl.map(|(ty, _)| ty);
            let declared = members.get(&i).map(|(_, name)| *name);
            let mut used = Vec::new();
            for word in idents(code) {
                if Some(word) != own && Some(word) != own_type && !as_field(code, word) {
                    used.push((Decl::Item, word));
                }
                if read(code, word) {
                    used.push((Decl::Field, word));
                }
                if Some(word) != declared && !in_pattern(&lines, i, word) {
                    used.push((Decl::Variant, word));
                }
            }
            used.extend(
                destructured(&lines, i)
                    .into_iter()
                    .map(|f| (Decl::Field, f)),
            );
            for key in used {
                *uses.entry(key).or_insert(0) += 1;
            }
        }
    }
    uses
}

/// What is wrong with `tree` by the has-a-caller rule: every `pub` item,
/// struct field and enum variant ([`members`]) in the shipped part of the
/// [`product_files`] has a product use ([`product_uses`]), or
/// an `exempt` row whose reader (in `tree`, or `bench` for `benchmark/src`)
/// names it.
fn uncalled(tree: &Tree, bench: &Tree, exempt: &[(&str, &str)]) -> Vec<String> {
    let uses = product_uses(tree);
    let mut declared = BTreeMap::new();
    for (rel, text) in product_files(tree) {
        let lines: Vec<&str> = shipped(text).collect();
        let members = members(&lines);
        for (i, line) in lines.iter().enumerate() {
            let item = pub_item(code(line)).map(|name| (Decl::Item, name));
            if let Some(key) = item.or_else(|| members.get(&i).copied()) {
                declared.entry(key).or_insert(format!("{rel}:{}", i + 1));
            }
        }
    }
    let unused: Vec<(&(Decl, &str), &String)> = declared
        .iter()
        .filter(|(key, _)| !uses.contains_key(*key))
        .collect();
    let mut wrong: Vec<String> = unused
        .iter()
        .filter(|((_, name), _)| !exempt.iter().any(|(row, _)| row == name))
        .map(|((decl, name), at)| {
            let what = match decl {
                Decl::Item => "has no caller",
                Decl::Field => "is read by nothing",
                Decl::Variant => "is built by nothing",
            };
            format!("`{name}` ({at}) {what} in shipped code or examples")
        })
        .collect();
    for (name, reader) in exempt {
        let readers = if within(reader, "benchmark") {
            bench
        } else {
            tree
        };
        let reads = |(rel, text): &(String, String)| {
            within(rel, reader) && text.lines().any(|l| idents(code(l)).any(|w| w == *name))
        };
        if !declared.keys().any(|(_, n)| n == name) {
            wrong.push(format!(
                "exempt `{name}` names no shipped item, field or variant"
            ));
        } else if !unused.iter().any(|((_, n), _)| n == name) {
            let n: usize = uses
                .iter()
                .filter(|((_, n), _)| n == name)
                .map(|(_, n)| n)
                .sum();
            wrong.push(format!(
                "exempt `{name}` has {n} product uses: drop its row"
            ));
        }
        if !readers.iter().any(reads) {
            wrong.push(format!("exempt `{name}`: `{reader}` no longer names it"));
        }
    }
    wrong
}

/// Where every model number is a named `const` whose doc ends in a tag.
const TAGGED: &[&str] = &["crates/congestion/src", "crates/transport/src"];
/// The tags, in DESIGN.md's column order: the measurement paper's own
/// number, a value of an algorithm the repository cites, a value chosen to
/// reproduce a figure (or `unattributed`), a guard with no behavioural
/// claim.
const TAGS: [&str; 4] = ["paper:", "published:", "fitted:", "engineering:"];
/// What a `published:` tag may cite: the sources the repository cites.
const CITED: [&str; 4] = ["RFC 8312", "RFC 6298", "Carlucci", "Nagy"];
/// Float literals that are units rather than model numbers.
const UNIT_VALUES: [f64; 8] = [0.0, 1.0, 2.0, 0.5, 8.0, 100.0, 1000.0, 1e6];

/// `code` with the contents of its string literals blanked out.
fn unquoted(code: &str) -> String {
    let (mut out, mut quoted, mut escaped) = (String::new(), false, false);
    for c in code.chars() {
        match (quoted, escaped, c) {
            (true, false, '\\') => escaped = true,
            (true, true, _) => escaped = false,
            (_, _, '"') => {
                quoted = !quoted;
                out.push(c);
            }
            (true, _, _) => {}
            (false, _, _) => out.push(c),
        }
    }
    out
}

/// The float literals in `code` that are not [`UNIT_VALUES`], and the
/// literal arguments of `SimDuration::from_*`.
fn model_numbers(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Inside an identifier, or a tuple field (`t.0`; `..` is a range).
        let prev = |back: usize| i.checked_sub(back).map(|j| bytes[j]);
        let in_word = prev(1).is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
        let field = prev(1) == Some(b'.') && prev(2) != Some(b'.');
        if !bytes[i].is_ascii_digit() || in_word || field {
            i += 1;
            continue;
        }
        let start = i;
        let digits = |i: &mut usize| {
            while *i < bytes.len() && (bytes[*i].is_ascii_digit() || bytes[*i] == b'_') {
                *i += 1;
            }
        };
        digits(&mut i);
        let mut float = false;
        if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
            i += 1;
            digits(&mut i);
            float = true;
        }
        if bytes.get(i) == Some(&b'e') {
            let sign = usize::from(bytes.get(i + 1).is_some_and(|b| b"+-".contains(b)));
            if bytes.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
                i += 1 + sign;
                digits(&mut i);
                float = true;
            }
        }
        let literal = &code[start..i];
        if code[i..].starts_with("f64") || code[i..].starts_with("f32") {
            float = true;
        }
        let value: f64 = literal.replace('_', "").parse().unwrap_or(f64::NAN);
        if float && !UNIT_VALUES.contains(&value) {
            found.push(format!("float `{literal}`"));
        }
    }
    for (at, _) in code.match_indices("SimDuration::from_") {
        let rest = code[at..].split_once('(').map_or("", |(_, arg)| arg);
        if rest.starts_with(|c: char| c.is_ascii_digit()) {
            let arg = rest.split(')').next().unwrap_or(rest);
            found.push(format!("`SimDuration` of literal `{arg}`"));
        }
    }
    found
}

/// The tag a `const`'s doc ends in (`fitted:` split into a figure and
/// `fitted: unattributed`), or what is wrong with the doc: a tag line is
/// the doc's last paragraph, the only one, and names what its tag needs.
fn tag_of(doc: &[&str]) -> Result<&'static str, String> {
    let text: Vec<&str> = doc
        .iter()
        .map(|l| l.trim_start().trim_start_matches("///").trim())
        .collect();
    let tagged: Vec<usize> = (0..text.len())
        .filter(|&i| TAGS.iter().any(|tag| text[i].starts_with(tag)))
        .collect();
    let &[at] = &tagged[..] else {
        return Err(format!("{} tags, not one", tagged.len()));
    };
    if text[at..].contains(&"") {
        return Err("the tag is not the doc's last paragraph".into());
    }
    let (tag, note) = text[at].split_once(':').expect("a tag ends in `:`");
    let note = note.trim();
    let source = ["Fig ", "Table ", "§"].iter().any(|s| note.contains(s));
    match tag {
        "paper" if source => Ok("paper"),
        "published" if CITED.iter().any(|cited| note.contains(cited)) => Ok("published"),
        "fitted" if note.starts_with("unattributed") => Ok("fitted: unattributed"),
        "fitted" if note.starts_with("Fig ") || note.starts_with("Table ") => Ok("fitted"),
        "engineering" if !note.is_empty() => Ok("engineering"),
        _ => Err(format!("`{}` does not say what its tag needs", text[at])),
    }
}

/// Per crate in [`TAGGED`], how many `const`s end in each tag (DESIGN.md's
/// column order), and what is wrong with the shipped code: a model number
/// outside a `const`, or a `const` without one valid tag.
fn tagged_numbers(tree: &Tree) -> (BTreeMap<String, [usize; 5]>, Vec<String>) {
    let columns = [
        "paper",
        "published",
        "fitted",
        "fitted: unattributed",
        "engineering",
    ];
    let (mut counts, mut wrong) = (BTreeMap::new(), Vec::new());
    for (rel, text) in tree
        .iter()
        .filter(|(rel, _)| TAGGED.iter().any(|p| within(rel, p)))
    {
        let krate = rel.split('/').nth(1).unwrap_or_default().to_string();
        let count: &mut [usize; 5] = counts.entry(krate).or_default();
        let (mut doc, mut in_const) = (Vec::new(), false);
        for (i, line) in shipped(text).enumerate() {
            let at = format!("{rel}:{}", i + 1);
            let trimmed = line.trim_start();
            if trimmed.starts_with("///") {
                doc.push(line);
                continue;
            }
            if trimmed.starts_with("#[") {
                continue;
            }
            let code = unquoted(code(line));
            let item = code.trim_start();
            let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
            let item = item.strip_prefix("pub ").unwrap_or(item);
            if !in_const && item.starts_with("const ") && !item.starts_with("const fn") {
                in_const = true;
                match tag_of(&doc) {
                    Ok(tag) => count[columns.iter().position(|c| *c == tag).unwrap()] += 1,
                    Err(why) => wrong.push(format!("{at}: const {why}")),
                }
            }
            if in_const {
                in_const = !code.contains(';');
            } else {
                let numbers = model_numbers(&code);
                wrong.extend(
                    numbers
                        .into_iter()
                        .map(|n| format!("{at}: {n} outside a `const`")),
                );
            }
            doc.clear();
        }
    }
    (counts, wrong)
}

/// DESIGN.md's count of tagged `const`s for `krate`, from its table row.
fn design_counts(design: &str, krate: &str) -> Option<Vec<usize>> {
    let row = design
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("| `{krate}` |")))?;
    let cells = row
        .split('|')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .skip(1);
    Some(cells.map(|c| c.parse().unwrap_or(usize::MAX)).collect())
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
    let wrong = uncalled(&tree(), &read_tree(&["benchmark/src"]), EXEMPT);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Every number in the rate controllers and TCP is a named `const` whose
/// doc ends in its source, and DESIGN.md's table counts them right.
#[test]
fn model_numbers_are_tagged_constants() {
    let (counts, wrong) = tagged_numbers(&tree());
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("readable DESIGN.md");
    assert_eq!(counts.len(), TAGGED.len(), "{counts:?}");
    for (krate, count) in counts {
        assert_eq!(
            design_counts(&design, &krate),
            Some(count.to_vec()),
            "DESIGN.md's tag table row for `{krate}`"
        );
    }
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

    let (real, bench) = (tree(), read_tree(&["benchmark/src"]));

    // A second fold of a tap in another crate, as `fingerprint` kept one
    // until its fingerprints were summed from the extractor's windows,
    // breaks the one-fold rule on both needles.
    let one_fold = RULES
        .iter()
        .find(|rule| rule.needles.contains(&"FrameSegmenter::default()"))
        .expect("the one-fold rule");
    let second_fold = "pub struct FlowAccumulator {\n    segmenter: FrameSegmenter,\n}\n\
        fn new() -> FlowAccumulator {\n    FlowAccumulator {\n        \
        segmenter: FrameSegmenter::default(),\n    }\n}\n";
    let mut folded_twice = real.clone();
    let fingerprint = "crates/fingerprint/src/features.rs";
    for (rel, text) in &mut folded_twice {
        if rel == fingerprint {
            *text = format!("{second_fold}{text}");
        }
    }
    assert_eq!(one_fold.violations(&real), Vec::<String>::new());
    let wrong = one_fold.violations(&folded_twice);
    assert!(
        wrong.len() == 2 && wrong.iter().all(|w| w.contains(fingerprint)),
        "{wrong:?}"
    );

    // The has-a-caller rule fails on a `pub` item that only tests, test
    // support, comments, re-exports and its own `impl` headers name — each
    // dead-name needle it replaced among them — and passes once an example
    // calls it.
    let with = |extra: &[(&str, String)], bench: &Tree, exempt: &[(&str, &str)]| {
        let mut tree = real.clone();
        for (rel, text) in extra {
            tree.push((rel.to_string(), text.clone()));
        }
        uncalled(&tree, bench, exempt)
    };
    let retired = [
        "FecParams",
        "mean_between",
        "freeze_ratio_between",
        "firs_between",
        "lifetime_loss_fraction",
    ];
    for name in retired.into_iter().chain(["Orphan"]) {
        let item = match name {
            "Orphan" => {
                "pub struct Orphan;\nimpl Orphan {}\nimpl<T> From<T> for Orphan {}\n".into()
            }
            _ => format!("pub fn {name}() {{}}\n"),
        };
        let call = format!("fn t() {{ {name}(); }}\n");
        let seeded = [
            ("crates/seeded/src/lib.rs", item),
            ("crates/seeded/tests/t.rs", call.clone()),
            ("crates/testkit/src/seeded.rs", call.clone()),
            (
                "crates/seeded/src/other.rs",
                format!("pub use crate::{{\n    {name},\n}};\n// {call}#[cfg(test)]\n{call}"),
            ),
        ];
        let wrong = with(&seeded, &bench, EXEMPT);
        assert!(
            wrong.len() == 1 && wrong[0].contains(&format!("`{name}`")),
            "`{name}` shipped without a caller went unnoticed: {wrong:?}"
        );
        let called = [&seeded[..], &[("examples/seeded.rs", call)]].concat();
        assert_eq!(with(&called, &bench, EXEMPT), Vec::<String>::new());
    }
    // A file that its parent declares under `#[cfg(test)]` (further
    // attributes between them or not, from `lib.rs` or from a sibling
    // module's file, and everything under it) is a test, whatever it
    // holds: its calls keep nothing alive and its items need no caller.
    // Declared without the gate, the same file is product code.
    let oracle_call = "fn t() {\n    seeded_canon();\n}\npub fn seeded_oracle_only() {}\n";
    for (parent, gate, child) in [
        (
            "crates/seeded/src/spec.rs",
            "#[cfg(test)]\n",
            "crates/seeded/src/spec/oracle.rs",
        ),
        (
            "crates/seeded/src/lib.rs",
            "#[cfg(test)]\n#[allow(dead_code)]\n",
            "crates/seeded/src/oracle.rs",
        ),
        (
            "crates/seeded/src/spec.rs",
            "#[cfg(test)]\n",
            "crates/seeded/src/spec/oracle/deep.rs",
        ),
    ] {
        let declaring = |gate: &str| {
            let item = format!("pub fn seeded_canon() {{}}\n{gate}mod oracle;\n");
            let seeded = [(parent, item), (child, oracle_call.to_string())];
            with(&seeded, &bench, EXEMPT)
        };
        let wrong = declaring(gate);
        assert!(
            wrong.len() == 1 && wrong[0].contains("`seeded_canon`"),
            "a caller in {child} kept `seeded_canon` alive: {wrong:?}"
        );
        let wrong = declaring("");
        assert!(
            wrong.len() == 1 && wrong[0].contains("`seeded_oracle_only`"),
            "{child} declared without a gate is not product code: {wrong:?}"
        );
    }

    // A function named only as a field (`.depth`, `depth:`) and a type
    // named only inside its own `impl` blocks have no caller either; a
    // turbofish is a call. Each passes once an example calls it.
    let field_only = "pub fn seeded_depth() -> u64 {\n    0\n}\n\
        pub fn seeded_pick<T>() {}\n\
        fn f(s: &S) -> u64 {\n    s.seeded_pick::<u8>();\n    T { seeded_depth: 1 }.seeded_depth + s.seeded_depth\n}\n";
    let own_impl = "pub struct SeededLonely;\n\
        impl SeededLonely {\n    pub fn seeded_make() -> Self {\n        SeededLonely\n    }\n}\n\
        fn g() {\n    other::seeded_make();\n}\n";
    for (name, item, call) in [
        ("seeded_depth", field_only, "fn t() { seeded_depth(); }"),
        (
            "SeededLonely",
            own_impl,
            "fn t() { SeededLonely::seeded_make(); }",
        ),
    ] {
        let seeded = [("crates/seeded/src/lib.rs", item.to_string())];
        let wrong = with(&seeded, &bench, EXEMPT);
        assert!(
            wrong.len() == 1 && wrong[0].contains(&format!("`{name}`")),
            "`{name}` went unnoticed: {wrong:?}"
        );
        let called = [&seeded[..], &[("examples/seeded.rs", call.to_string())]].concat();
        assert_eq!(with(&called, &bench, EXEMPT), Vec::<String>::new());
    }
    let field = |code: &str, word: &str| {
        let at = code.find(word).expect("the word is in the code");
        as_field(code, &code[at..at + word.len()])
    };
    assert!(field("x.depth + 1", "depth") && field("T { depth: 1 }", "depth"));
    assert!(!field("x.depth()", "depth") && !field("net.pick::<u8>(n)", "pick"));
    assert!(!field("0..depth", "depth") && !field("depth::f()", "depth"));
    assert_eq!(pub_item("        pub const $TABLE: &[$Row] = &[];"), None);

    // A struct field that shipped code only declares, assigns (`=`, `+=`)
    // and initializes is read by nothing, a `serde(skip)`ped field is not
    // output, and a variant that code only matches (an arm, an alternative
    // split over lines, `if let`, `matches!`) is built by nothing. Each
    // passes once an example reads it (`.f`, or a `..` destructure on one
    // line or several) or builds it; every other field of a
    // `derive(Serialize)` struct is output, so read.
    let written = "pub struct SeededS {\n    pub seeded_set: u64,\n}\n\
        fn f(s: &mut SeededS) {\n    s.seeded_set = 1;\n    s.seeded_set += 2;\n    \
        let _ = SeededS { seeded_set: 0 };\n    let seeded_set = s.other == 3;\n    \
        let _ = SeededS { seeded_set };\n}\n";
    let skipped = "#[derive(Debug, Serialize)]\npub struct SeededOut {\n    \
        pub seeded_out: u64,\n    #[serde(skip)]\n    pub seeded_skip: u64,\n}\n\
        fn g(_: SeededOut) {}\n";
    let matched = "pub enum SeededE {\n    SeededBuilt,\n    SeededNever(u8),\n}\n\
        fn h(e: SeededE) -> SeededE {\n    match e {\n        SeededE::SeededNever(_) => {}\n        \
        SeededE::SeededNever(1)\n        | SeededE::SeededBuilt => {}\n    }\n    \
        if let SeededE::SeededNever(_) = e {}\n    let _ = matches!(e, SeededE::SeededNever(_));\n    \
        SeededE::SeededBuilt\n}\n";
    for (name, item, what, uses) in [
        (
            "seeded_set",
            written,
            "is read by nothing",
            &[
                "fn t(s: &S) -> u64 { s.seeded_set }",
                "fn t(s: S) { let S { seeded_set, .. } = s; }",
                "fn t(s: S) {\n    let S {\n        seeded_set,\n        ..\n    } = s;\n}\n",
            ][..],
        ),
        (
            "seeded_skip",
            skipped,
            "is read by nothing",
            &["fn t(o: &O) -> bool { o.seeded_skip == 0 }"][..],
        ),
        (
            "SeededNever",
            matched,
            "is built by nothing",
            &["fn t() -> E { SeededE::SeededNever(1) }"][..],
        ),
    ] {
        let seeded = [("crates/seeded/src/lib.rs", item.to_string())];
        let wrong = with(&seeded, &bench, EXEMPT);
        assert!(
            wrong.len() == 1 && wrong[0].contains(&format!("`{name}`")) && wrong[0].contains(what),
            "`{name}` went unnoticed: {wrong:?}"
        );
        for call in uses {
            let called = [&seeded[..], &[("examples/seeded.rs", call.to_string())]].concat();
            assert_eq!(
                with(&called, &bench, EXEMPT),
                Vec::<String>::new(),
                "{call}"
            );
        }
    }
    fn lines(code: &str) -> Vec<&str> {
        code.lines().collect()
    }
    let at = |code: &'static str, word: &str| {
        let at = code.find(word).expect("the word is in the code");
        (code, &code[at..at + word.len()])
    };
    for (code, word, is_read) in [
        ("x.f = 1", "f", false),
        ("x.f += 1", "f", false),
        ("x.f >>= 1", "f", false),
        ("x.f == 1", "f", true),
        ("x.f.push(1)", "f", true),
        ("x.f(1)", "f", false),
        ("T { f: 1 }", "f", false),
        ("0..f", "f", false),
    ] {
        let (code, word) = at(code, word);
        assert_eq!(read(code, word), is_read, "{code}");
    }
    assert_eq!(
        destructured(&lines("let T { a, b: c, .. } = t;"), 0),
        ["a", "b", "c"]
    );
    assert_eq!(
        destructured(&lines("let _ = T { a, ..t };"), 0),
        Vec::<&str>::new()
    );
    let (code, word) = at("if x == E::V && matches!(y, E::W) {", "V");
    assert!(!in_pattern(&lines(code), 0, word));
    let (code, word) = at("if let Some(E::V) = x {", "V");
    assert!(in_pattern(&lines(code), 0, word));
    let declared = members(&lines(
        "pub(crate) struct A {\n    pub a: u8,\n}\nstruct B {\n    b: u8,\n    pub(crate) c: u8,\n}\n\
         #[derive(Deserialize)]\nenum C {\n    V,\n}\nenum D {\n    W { x: u8 },\n    X(u8),\n}\n",
    ));
    let names: Vec<(Decl, &str)> = declared.into_values().collect();
    assert_eq!(
        names,
        [
            (Decl::Field, "b"),
            (Decl::Variant, "W"),
            (Decl::Variant, "X")
        ]
    );

    // Each field row's reader is what keeps it: without the reader the row
    // fails, and a product read makes it stale.
    for (name, reader) in EXEMPT.iter().filter(|(_, r)| !within(r, "benchmark")) {
        let unread: Tree = real
            .iter()
            .filter(|(rel, _)| !within(rel, reader))
            .cloned()
            .collect();
        let wrong = uncalled(&unread, &bench, EXEMPT);
        let stale = format!("exempt `{name}`: `{reader}` no longer names it");
        assert!(wrong.contains(&stale), "{stale}: {wrong:?}");
    }
    let read_in_product = [(
        "crates/seeded/src/lib.rs",
        "fn f(s: &S) -> u64 {\n    s.fast_retransmits\n}\n".into(),
    )];
    let wrong = with(&read_in_product, &bench, EXEMPT);
    assert!(
        wrong.len() == 1 && wrong[0].contains("`fast_retransmits` has"),
        "{wrong:?}"
    );

    // An exempt item that gains a product caller, a reader that stops
    // naming its item, and a row that names no item each fail it.
    let call = [(
        "crates/seeded/src/lib.rs",
        "fn f() { model_registry(); }".into(),
    )];
    let wrong = with(&call, &bench, EXEMPT);
    assert!(
        wrong.len() == 1 && wrong[0].contains("`model_registry` has"),
        "{wrong:?}"
    );
    let pinned = EXEMPT.iter().filter(|row| row.1 == "benchmark/src");
    let wrong = with(&[], &Tree::new(), EXEMPT);
    assert_eq!(wrong.len(), pinned.count(), "{wrong:?}");
    let extra = [EXEMPT, &[("no_such_item", "benchmark/src")]].concat();
    let wrong = with(&[], &bench, &extra);
    assert!(
        wrong.iter().any(|w| w.contains("`no_such_item` names no")),
        "{wrong:?}"
    );
    assert_eq!(pub_item("    pub const fn f<T>() {"), Some("f"));
    assert_eq!(pub_item("pub const N: usize = 1;"), Some("N"));
    assert_eq!(pub_item("pub(crate) fn f() {"), None);
    assert_eq!(
        impl_self("impl<T: Fn(u8)> Trait<T> for a::Foo<T> {"),
        Some("Foo")
    );
    assert_eq!(impl_self("impl<T> Foo<T> {"), Some("Foo"));
    assert_eq!(impl_self("implied_rate();"), None);

    // The tagged-number rule fails, in either crate, on a non-unit float
    // literal, a literal `SimDuration` argument and a `const` without one
    // valid tag as its doc's last paragraph; unit values, numbers inside a
    // tagged `const`, comments, strings, tuple fields, test items and other
    // crates do not count.
    let (shipped_part, test_part) = (
        "/// A gain.\n///\n/// fitted: Fig 4a, the ramp.\npub const GAIN: f64 = 0.3;\n\
         /// A hold.\n///\n/// engineering: a guard.\n#[allow(dead_code)]\n\
         const HOLD: SimDuration =\n    SimDuration::from_millis(300);\n\
         fn f(x: f64, t: ((u8, u8), u8)) -> f64 {\n    // 0.3\n    let _ = (\"0.3\", t.0.1);\n\
         \x20   x.max(0.5 * GAIN * 1e6 + 1_000.0 + 2f64)\n}\n",
        "#[cfg(test)]\nmod tests {\n    const X: f64 = 0.3;\n    \
         fn t() {\n        SimDuration::from_millis(300);\n    }\n}\n",
    );
    let numbers = |dir: &str, seed: &str| {
        let text = format!("{shipped_part}{seed}\n{test_part}");
        tagged_numbers(&vec![(format!("{dir}/seeded.rs"), text)])
    };
    let (counts, wrong) = numbers("crates/congestion/src", "");
    assert_eq!(wrong, Vec::<String>::new());
    assert_eq!(counts["congestion"], [0, 0, 1, 0, 1]);
    let seeds = [
        ("fn g() -> f64 {\n    0.3\n}", "float `0.3`"),
        ("fn g() -> f64 {\n    3e-3\n}", "float `3e-3`"),
        (
            "fn g(x: f64) -> bool {\n    (0.0..0.95).contains(&x)\n}",
            "float `0.95`",
        ),
        ("fn g() {\n    SimDuration::from_secs(8);\n}", "literal `8`"),
        ("pub const K: f64 = 0.3;", "0 tags"),
        (
            "/// fitted: Fig 1.\n/// engineering: a cap.\nconst K: f64 = 0.3;",
            "2 tags",
        ),
        (
            "/// published: Smith et al.\nconst K: f64 = 0.3;",
            "does not say",
        ),
        ("/// fitted: by hand.\nconst K: f64 = 0.3;", "does not say"),
        ("/// paper: the paper.\nconst K: f64 = 0.3;", "does not say"),
        (
            "/// engineering: a cap.\n///\n/// More.\nconst K: f64 = 0.3;",
            "last paragraph",
        ),
    ];
    for dir in TAGGED {
        for (seed, why) in seeds {
            let (_, wrong) = numbers(dir, seed);
            assert!(
                wrong.len() == 1 && wrong[0].contains(why),
                "`{seed}` in {dir} went unnoticed: {wrong:?}"
            );
        }
    }
    assert_eq!(
        numbers("crates/media/src", seeds[0].0).1,
        Vec::<String>::new()
    );
    assert_eq!(
        design_counts("  | `x` | 1 | 22 |\n| `xy` | 3 |", "x"),
        Some(vec![1, 22])
    );

    // `\b`: a longer path that ends in the needle is not the needle.
    assert!(found("let m = Map::new();", "\\bMap::new()"));
    assert!(!found("let m = BTreeMap::new();", "\\bMap::new()"));
    assert!(within("crates/vca/src/server.rs", "crates/*/src"));
    assert!(!within("crates/vca/tests/x.rs", "crates/*/src"));
    assert!(!within("crates/harness_extra/src/x.rs", "crates/harness"));
}
