//! Content-addressed result store.
//!
//! Each campaign writes one append-only JSONL file, one record per run, keyed
//! by a stable content hash of the run's *normalized* scenario spec plus a
//! format salt (crate version). Re-running a campaign skips every run whose
//! hash is already present; editing a spec (or bumping the crate version)
//! changes the hash and forces recomputation of exactly the affected runs.

use crate::exec::run_indexed_with;
use crate::expand::{CampaignSpec, ExpandedRun};
use crate::outcome::ScenarioOutcome;
use crate::spec::ScenarioSpec;
use serde::{json, Serialize};
use serde_json::read::{Cursor, Token};
use std::borrow::Cow;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Write as _};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};

/// Salt mixed into every content hash. Bumping the crate version invalidates
/// all cached results; a model change under the same crate version does not,
/// and is served from the store until a `--rerun`.
const FORMAT_SALT: &str = concat!("vcabench-campaign/", env!("CARGO_PKG_VERSION"), "/v1\n");

/// Stable 128-bit content hash of a scenario, as 32 lowercase hex chars.
///
/// Two independent FNV-1a 64-bit passes (distinct offset bases) over the
/// salt + canonical JSON. Not cryptographic — it only needs to be stable
/// across runs and platforms and collision-free at campaign scale.
pub fn content_hash(spec: &ScenarioSpec) -> String {
    Digest::of(spec, &mut String::new()).as_str().to_owned()
}

/// A [`content_hash`] held inline: its 32 hex digits, no heap. It derefs to
/// `str`, so it reads, compares and slices (`&hash[..12]`) as the string.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The content hash of `spec`, its canonical JSON written into `buf`
    /// (cleared first, so one buffer serves a whole campaign).
    fn of(spec: &ScenarioSpec, buf: &mut String) -> Digest {
        buf.clear();
        spec.write_canonical(buf);
        let hash = |offset| fnv1a(fnv1a(offset, FORMAT_SALT.as_bytes()), buf.as_bytes());
        let bits =
            u128::from(hash(0xcbf2_9ce4_8422_2325)) << 64 | u128::from(hash(0x6c62_272e_07bb_0142));
        let mut hex = [0; 32];
        for (i, digit) in hex.iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[((bits >> (124 - 4 * i)) & 0xf) as usize];
        }
        Digest(hex)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

impl Deref for Digest {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// FNV-1a over `bytes`, continuing from state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Outcome of one `run_cached` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Expanded runs in the campaign.
    pub total: usize,
    /// Runs actually simulated this invocation.
    pub computed: usize,
    /// Runs served from the store.
    pub cached: usize,
    /// The campaign's JSONL file.
    pub store_path: PathBuf,
    /// Every record, in expansion order (cached and fresh alike).
    pub results: Vec<StoredRecord>,
}

/// One stored (or just-computed) run record.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// Content hash of the normalized spec.
    pub hash: Digest,
    /// Run label at the time it was (first) computed.
    pub label: String,
    /// The record's JSONL line (compact JSON, no trailing newline).
    pub line: String,
}

/// Where a record's hash or label sits: a byte range of its line, or its
/// own copy when the line spells it with an escape.
#[derive(Debug)]
enum Field {
    At(Range<usize>),
    Owned(String),
}

impl Field {
    /// `value`, as the scanner read it from `line`: a string it did not have
    /// to unescape is a slice of `line`, and is kept as its range.
    fn within(line: &str, value: Cow<'_, str>) -> Field {
        match value {
            Cow::Borrowed(value) => {
                let at = value.as_ptr() as usize - line.as_ptr() as usize;
                Field::At(at..at + value.len())
            }
            Cow::Owned(value) => Field::Owned(value),
        }
    }
}

/// A record as the store holds it: its line, the only copy of its bytes,
/// and where its hash and label are.
#[derive(Debug)]
struct Entry {
    line: String,
    hash: Field,
    label: Field,
}

impl Entry {
    fn field<'a>(&'a self, field: &'a Field) -> &'a str {
        match field {
            Field::At(range) => &self.line[range.clone()],
            Field::Owned(value) => value,
        }
    }

    fn hash(&self) -> &str {
        self.field(&self.hash)
    }

    fn label(&self) -> &str {
        self.field(&self.label)
    }
}

/// The records of a store, sorted by hash, one per hash.
#[derive(Debug, Default)]
struct Records(Vec<Entry>);

impl Records {
    /// The position of the record for `hash`.
    fn find(&self, hash: &str) -> Option<usize> {
        self.0.binary_search_by(|e| e.hash().cmp(hash)).ok()
    }
}

/// Bytes of the loader's read buffer, and the capacity its one line buffer
/// and each worker's line buffer start with (a longer line grows it, and it
/// stays grown for the rest of the file or the worker's share).
const LINE_CAPACITY: usize = 64 * 1024;

/// The record's line: `{"hash":…,"label":…,"spec":…,"outcome":…}`, streamed
/// from the typed spec and outcome into `buf` (cleared first, so one buffer
/// serves a worker's whole share) and copied out at its exact length (a
/// campaign holds every line it made until it returns).
fn record_line(
    buf: &mut String,
    hash: &str,
    label: &str,
    spec: &ScenarioSpec,
    outcome: &ScenarioOutcome,
) -> String {
    buf.clear();
    buf.push_str("{\"hash\":");
    json::write_escaped(buf, hash);
    buf.push_str(",\"label\":");
    json::write_escaped(buf, label);
    buf.push_str(",\"spec\":");
    spec.write_canonical(buf);
    buf.push_str(",\"outcome\":");
    outcome.write_json(buf);
    buf.push('}');
    buf.as_str().to_owned()
}

/// Find `(hash, label)` in one record line in a single pass. The whole line
/// is checked against the JSON grammar, but only these two top-level
/// strings are read; a repeated key keeps its last value, a `hash` that is
/// not a string is an error and a `label` that is not one reads as empty.
fn scan_record(line: &str) -> Result<(Field, Field), String> {
    let bad = |e: serde_json::Error| format!("bad record: {e}");
    let mut c = Cursor::new(line);
    if !matches!(c.value().map_err(bad)?, Token::Object) {
        return Err("bad record: not a JSON object".to_string());
    }
    let (mut hash, mut label) = (None, None);
    c.open().map_err(bad)?;
    while let Some(key) = c.key().map_err(bad)? {
        let slot = match &*key {
            "hash" => &mut hash,
            "label" => &mut label,
            _ => {
                c.skip_value().map_err(bad)?;
                continue;
            }
        };
        *slot = match c.value().map_err(bad)? {
            Token::Str(s) => Some(s),
            Token::Array | Token::Object => {
                c.skip_value().map_err(bad)?;
                None
            }
            _ => None,
        };
    }
    c.end().map_err(bad)?;
    let hash = hash.ok_or("record missing hash")?;
    let label = label.map_or(Field::At(0..0), |label| Field::within(line, label));
    Ok((Field::within(line, hash), label))
}

/// Read a store file's records. Unreadable lines are an error (the store is
/// machine-written; silent tolerance would mask corruption).
fn load_store(path: &Path) -> Result<Records, String> {
    let file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Records::default()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    parse_store(BufReader::with_capacity(LINE_CAPACITY, file))
        .map_err(|e| format!("{}:{e}", path.display()))
}

/// The records of a store file, read one line at a time: one per non-blank
/// line, and a hash that occurs on two lines keeps the later one. Lines end
/// as in [`str::lines`] (`\n`, or `\r\n`; the last may have neither), and
/// each record's `line` is the only copy of its bytes. Errors start with the
/// 1-based line number.
fn parse_store(mut input: impl BufRead) -> Result<Records, String> {
    let mut records = Vec::new();
    let mut buf = Vec::with_capacity(LINE_CAPACITY);
    for ln in 1.. {
        buf.clear();
        let read = input.read_until(b'\n', &mut buf);
        if read.map_err(|e| format!("{ln}: read: {e}"))? == 0 {
            break;
        }
        let mut bytes = buf.as_slice();
        if let Some(rest) = bytes.strip_suffix(b"\n") {
            bytes = rest.strip_suffix(b"\r").unwrap_or(rest);
        }
        let line =
            std::str::from_utf8(bytes).map_err(|e| format!("{ln}: bad record: not UTF-8: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let (hash, label) = scan_record(line).map_err(|e| format!("{ln}: {e}"))?;
        records.push(Entry {
            line: line.to_owned(),
            hash,
            label,
        });
    }
    // Reversed, a stable sort puts the later of two lines with one hash
    // first, and `dedup_by` keeps the first.
    records.reverse();
    records.sort_by(|a, b| a.hash().cmp(b.hash()));
    records.dedup_by(|a, b| a.hash() == b.hash());
    Ok(Records(records))
}

/// Execute `campaign`, serving runs from the store under `dir` where possible.
///
/// The store file is `<dir>/<campaign name>.jsonl`. Runs whose content hash
/// already appears there are not recomputed (unless `rerun`, which recomputes
/// everything and rewrites the file). Fresh records are appended in expansion
/// order, so the file's record order is stable across jobs counts and across
/// cached/uncached invocations.
pub fn run_cached(
    campaign: &CampaignSpec,
    jobs: usize,
    dir: &Path,
    rerun: bool,
    runner: &(impl Fn(&ScenarioSpec) -> ScenarioOutcome + Sync),
) -> Result<CampaignSummary, String> {
    run_cached_with(campaign, jobs, dir, rerun, &|run: &ExpandedRun| {
        runner(&run.spec)
    })
}

/// Where a run's record comes from.
#[derive(Clone, Copy)]
enum Source {
    /// The loaded record at this position.
    Stored(usize),
    /// The line computed for the run at this index, the first of its hash.
    Fresh(usize),
}

/// Take `line` at its record's last use; copy it before.
fn take_at_last(line: &mut String, last: bool) -> String {
    if last {
        std::mem::take(line)
    } else {
        line.clone()
    }
}

/// Like [`run_cached`], but the runner sees the whole [`ExpandedRun`]
/// (label included) — used by the traced campaign path, which writes
/// per-run telemetry artifacts named by the deterministic run labels.
pub fn run_cached_with(
    campaign: &CampaignSpec,
    jobs: usize,
    dir: &Path,
    rerun: bool,
    runner: &(impl Fn(&ExpandedRun) -> ScenarioOutcome + Sync),
) -> Result<CampaignSummary, String> {
    let runs = campaign.expand()?;
    let store_path = dir.join(format!("{}.jsonl", crate::spec::slug(&campaign.name)));
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut records = if rerun {
        Records::default()
    } else {
        load_store(&store_path)?
    };

    // A campaign may expand two identical specs under different labels.
    // Runs grouped by hash, each group in expansion order: its first run
    // computes a record the store lacks, and its last takes the line.
    let mut buf = String::new();
    let hashes: Vec<Digest> = runs.iter().map(|r| Digest::of(&r.spec, &mut buf)).collect();
    let mut by_hash: Vec<usize> = (0..runs.len()).collect();
    by_hash.sort_unstable_by_key(|&i| (hashes[i], i));
    let mut plan = vec![(Source::Fresh(0), false); runs.len()];
    let mut to_compute: Vec<usize> = Vec::new();
    for group in by_hash.chunk_by(|&a, &b| hashes[a] == hashes[b]) {
        let source = records.find(&hashes[group[0]]).map_or_else(
            || {
                to_compute.push(group[0]);
                Source::Fresh(group[0])
            },
            Source::Stored,
        );
        for &i in group {
            plan[i] = (source, false);
        }
        plan[group[group.len() - 1]].1 = true;
    }
    to_compute.sort_unstable();

    // Each fresh record's line is made on the worker that ran it, in that
    // worker's one buffer, and the outcome is dropped there; the slots keep
    // expansion order.
    let worker_buf = || String::with_capacity(LINE_CAPACITY);
    let mut lines: Vec<String> = run_indexed_with(to_compute.len(), jobs, worker_buf, |buf, k| {
        let (run, hash) = (&runs[to_compute[k]], &hashes[to_compute[k]]);
        record_line(buf, hash, &run.label, &run.spec, &runner(run))
    });

    // Append the new lines (or rewrite the file entirely under --rerun).
    // `to_compute` holds the first use of every new hash, in expansion order.
    if rerun || !to_compute.is_empty() {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(!rerun)
            .write(true)
            .truncate(rerun)
            .open(&store_path)
            .map_err(|e| format!("open {}: {e}", store_path.display()))?;
        for line in &lines {
            file.write_all(line.as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .map_err(|e| format!("write {}: {e}", store_path.display()))?;
        }
    }

    // The full record list in expansion order. A record keeps the run's own
    // label when it is the stored one, and its line moves out at the last
    // run that uses it; only a hash shared by several labels is ever copied.
    let total = runs.len();
    let mut results: Vec<StoredRecord> = Vec::with_capacity(total);
    for ((i, run), &(source, last)) in runs.into_iter().enumerate().zip(&plan) {
        let (label, line) = match source {
            Source::Stored(j) => {
                let entry = &mut records.0[j];
                let label = if entry.label() == run.label {
                    run.label
                } else {
                    entry.label().to_owned()
                };
                (label, take_at_last(&mut entry.line, last))
            }
            // The record is labelled by its first run, served before this one.
            Source::Fresh(first) => {
                let label = if first == i || results[first].label == run.label {
                    run.label
                } else {
                    results[first].label.clone()
                };
                let k = to_compute
                    .binary_search(&first)
                    .expect("a fresh run was computed");
                (label, take_at_last(&mut lines[k], last))
            }
        };
        results.push(StoredRecord {
            hash: hashes[i],
            label,
            line,
        });
    }

    Ok(CampaignSummary {
        total,
        computed: to_compute.len(),
        cached: total - to_compute.len(),
        store_path,
        results,
    })
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{Axes, ScenarioTemplate, SeedAxis};
    use crate::outcome::MultipartyRecord;
    use crate::spec::MultipartySpec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vcabench_vca::VcaKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vcabench-campaign-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(super) fn toy_campaign(name: &str, seeds: u64) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            scenarios: vec![ScenarioTemplate {
                label: None,
                base: ScenarioSpec::Multiparty(MultipartySpec {
                    kind: VcaKind::Meet,
                    n: 4,
                    pin_c1: None,
                    duration_secs: 20.0,
                    seed: 0,
                }),
                axes: Some(Axes {
                    kinds: None,
                    up_mbps: None,
                    down_mbps: None,
                    capacity_mbps: None,
                    competitors: None,
                    seeds: Some(SeedAxis::Range {
                        base: 1,
                        count: seeds,
                    }),
                }),
            }],
        }
    }

    #[test]
    fn hash_is_stable_and_spec_sensitive() {
        let campaign = toy_campaign("h", 2);
        let runs = campaign.expand().unwrap();
        assert_eq!(content_hash(&runs[0].spec), content_hash(&runs[0].spec));
        assert_ne!(content_hash(&runs[0].spec), content_hash(&runs[1].spec));
        assert_eq!(content_hash(&runs[0].spec).len(), 32);
    }

    #[test]
    fn content_hashes_are_pinned_with_every_default_left_out() {
        use crate::spec::{ClientKnobs, CompetitionSpec, CompetitorSpec, TwoPartySpec};
        use vcabench_netsim::RateProfile;
        use vcabench_simcore::SimTime;
        let two_party = |knobs| {
            ScenarioSpec::TwoParty(TwoPartySpec {
                kind: VcaKind::Teams,
                up: RateProfile::constant_mbps(1.0).step(SimTime::from_secs(60), 0.25e6),
                down: RateProfile::constant_mbps(1000.0),
                duration_secs: 150.0,
                seed: 7,
                knobs,
            })
        };
        let pins = [
            (two_party(None), "cfcecc2621d4961a051d6eda0fa38e2b"),
            (
                two_party(Some(ClientKnobs {
                    teams_width_bug: Some(true),
                    min_rate_mbps: Some(0.1),
                    max_rate_mbps: Some(2.0),
                })),
                "c4a3aa367d754d1eb87f40be3c306dff",
            ),
            (
                ScenarioSpec::Competition(CompetitionSpec::paper(
                    VcaKind::Meet,
                    CompetitorSpec::Vca(VcaKind::Zoom),
                    0.5,
                    81,
                )),
                "9da3507f1548bc56377b62aaee9a5ea3",
            ),
            (
                ScenarioSpec::Multiparty(MultipartySpec {
                    kind: VcaKind::Zoom,
                    n: 5,
                    pin_c1: None,
                    duration_secs: 40.0,
                    seed: 5,
                }),
                "6a9c53098da2334d7c8dd46c7b158dfc",
            ),
        ];
        for (spec, hash) in pins {
            assert_eq!(content_hash(&spec), hash, "{}", spec.canonical_json());
        }
    }

    #[test]
    fn cache_hit_miss_and_rerun() {
        let dir = temp_dir("cache");
        let calls = AtomicUsize::new(0);
        let runner = |spec: &ScenarioSpec| {
            calls.fetch_add(1, Ordering::Relaxed);
            ScenarioOutcome::Multiparty(MultipartyRecord {
                c1_up_mbps: spec.seed() as f64,
                c1_down_mbps: 0.0,
            })
        };
        let campaign = toy_campaign("c", 3);

        let first = run_cached(&campaign, 2, &dir, false, &runner).unwrap();
        assert_eq!((first.total, first.computed, first.cached), (3, 3, 0));
        assert_eq!(calls.load(Ordering::Relaxed), 3);

        let second = run_cached(&campaign, 2, &dir, false, &runner).unwrap();
        assert_eq!((second.total, second.computed, second.cached), (3, 0, 3));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(first.results, second.results);

        // Growing the campaign computes only the new runs.
        let grown = toy_campaign("c", 5);
        let third = run_cached(&grown, 2, &dir, false, &runner).unwrap();
        assert_eq!((third.total, third.computed, third.cached), (5, 2, 3));
        assert_eq!(calls.load(Ordering::Relaxed), 5);

        // --rerun recomputes everything and rewrites the file.
        let fourth = run_cached(&grown, 2, &dir, true, &runner).unwrap();
        assert_eq!((fourth.total, fourth.computed, fourth.cached), (5, 5, 0));
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert_eq!(fourth.results, third.results);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hash_two_labels_share_is_computed_once_under_its_first_label() {
        let dir = temp_dir("shared");
        let mut campaign = toy_campaign("shared", 2);
        let mut second = campaign.scenarios[0].clone();
        second.label = Some("again".to_string());
        campaign.scenarios.push(second);
        let runner = |spec: &ScenarioSpec| {
            ScenarioOutcome::Multiparty(MultipartyRecord {
                c1_up_mbps: spec.seed() as f64,
                c1_down_mbps: 0.0,
            })
        };
        let first = run_cached(&campaign, 2, &dir, false, &runner).unwrap();
        let second = run_cached(&campaign, 2, &dir, false, &runner).unwrap();
        for summary in [&first, &second] {
            let labels: Vec<&str> = summary.results.iter().map(|r| &*r.label).collect();
            assert_eq!(labels, ["shared_s1", "shared_s2", "shared_s1", "shared_s2"]);
            assert_eq!(summary.results[0], summary.results[2]);
            assert_eq!(summary.results[1], summary.results[3]);
        }
        assert_eq!((first.computed, first.cached), (2, 2));
        assert_eq!((second.computed, second.cached), (0, 4));
        assert_eq!(first.results, second.results);
        let stored = std::fs::read_to_string(&first.store_path).unwrap();
        assert_eq!(stored.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_refused_with_its_number() {
        let dir = temp_dir("utf8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        let mut bytes =
            b"{\"hash\":\"a\"}\n{\"hash\":\"b\"}\n{\"hash\":\"c\",\"label\":\"".to_vec();
        bytes.extend_from_slice(b"\xff\"}\n{\"hash\":\"d\"}\n");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_store(&path).unwrap_err();
        let want = format!("{}:3: bad record: not UTF-8", path.display());
        assert!(err.starts_with(&want), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_file_is_byte_identical_across_jobs() {
        let runner = |spec: &ScenarioSpec| {
            ScenarioOutcome::Multiparty(MultipartyRecord {
                c1_up_mbps: (spec.seed() * 7) as f64 / 3.0,
                c1_down_mbps: (spec.seed() * 11) as f64 / 7.0,
            })
        };
        let campaign = toy_campaign("jobs", 9);
        let dir1 = temp_dir("jobs1");
        let dir4 = temp_dir("jobs4");
        run_cached(&campaign, 1, &dir1, false, &runner).unwrap();
        run_cached(&campaign, 4, &dir4, false, &runner).unwrap();
        let name = "jobs.jsonl";
        let bytes1 = std::fs::read(dir1.join(name)).unwrap();
        let bytes4 = std::fs::read(dir4.join(name)).unwrap();
        assert!(!bytes1.is_empty());
        assert_eq!(bytes1, bytes4);
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
    }
}
