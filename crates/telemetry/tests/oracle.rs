//! Differential test of the typed trace codec against the code it
//! replaced.
//!
//! Trace lines used to go through a `serde_json::Value` tree: the writer
//! built one and serialized it, and two readers each parsed one and
//! picked fields out — a validator strict on shape and blind to
//! vocabulary, an importer the reverse. Those three bodies live on here,
//! test-only, as the oracle. The one reader there is now accepts a line
//! exactly when both old readers did: over generated events of all ten
//! kinds and a corpus of mutated lines, [`parse_event_line`] must accept
//! and reject what the two oracles accept together and parse the same
//! [`Event`], and [`Event::write_jsonl`] must produce the oracle's bytes.
//!
//! The reader forks once inside: a line in canonical form is read by
//! [`EventKind::read_canonical`], the writer's generated mirror, and only
//! the rest by the scanner. The last section holds that fork to its
//! contract on the same inputs — the mirror is *sound* (what it reads,
//! the general path alone reads identically) and *taken* (it reads what
//! the writer writes, so a schema edit cannot quietly send every line the
//! slow way).

use proptest::prelude::*;
use serde_json::{Map, Value};
use vcabench_simcore::SimTime;
use vcabench_telemetry::import::parse_general;
use vcabench_telemetry::{
    parse_event_line, replay_jsonl, validate_jsonl, Event, EventKind, NullRecorder, MAX_TRACE_T_US,
};

mod common;
use common::{decode_kind, sequence_of, splitmix};

// ------------------------------------------------------------------ oracle

/// The event as a `Value` tree with the schema's fixed key order.
fn oracle_value(ev: &Event) -> Value {
    let mut m = Map::new();
    m.insert("t".to_string(), Value::U64(ev.at.as_micros()));
    m.insert(
        "kind".to_string(),
        Value::String(ev.kind.name().to_string()),
    );
    let s = |v: &str| Value::String(v.to_string());
    match &ev.kind {
        EventKind::PacketEnqueued {
            link,
            flow,
            pkt,
            bytes,
            queue_bytes,
            queue_pkts,
        } => {
            m.insert("link".to_string(), Value::U64(*link));
            m.insert("flow".to_string(), Value::U64(*flow));
            m.insert("pkt".to_string(), Value::U64(*pkt));
            m.insert("bytes".to_string(), Value::U64(*bytes));
            m.insert("queue_bytes".to_string(), Value::U64(*queue_bytes));
            m.insert("queue_pkts".to_string(), Value::U64(*queue_pkts));
        }
        EventKind::PacketDequeued {
            link,
            flow,
            pkt,
            bytes,
            queue_bytes,
        } => {
            m.insert("link".to_string(), Value::U64(*link));
            m.insert("flow".to_string(), Value::U64(*flow));
            m.insert("pkt".to_string(), Value::U64(*pkt));
            m.insert("bytes".to_string(), Value::U64(*bytes));
            m.insert("queue_bytes".to_string(), Value::U64(*queue_bytes));
        }
        EventKind::PacketDropped {
            link,
            flow,
            pkt,
            bytes,
            queue_bytes,
            reason,
        } => {
            m.insert("link".to_string(), Value::U64(*link));
            m.insert("flow".to_string(), Value::U64(*flow));
            m.insert("pkt".to_string(), Value::U64(*pkt));
            m.insert("bytes".to_string(), Value::U64(*bytes));
            m.insert("queue_bytes".to_string(), Value::U64(*queue_bytes));
            m.insert("reason".to_string(), s(reason));
        }
        EventKind::RateStep { link, bps } => {
            m.insert("link".to_string(), Value::U64(*link));
            m.insert("bps".to_string(), Value::F64(*bps));
        }
        EventKind::CcState {
            client,
            controller,
            state,
            signal,
            target_mbps,
        } => {
            m.insert("client".to_string(), Value::U64(*client));
            m.insert("controller".to_string(), s(controller));
            m.insert("state".to_string(), s(state));
            m.insert("signal".to_string(), signal.map(s).unwrap_or(Value::Null));
            m.insert("target_mbps".to_string(), Value::F64(*target_mbps));
        }
        EventKind::FecRatio {
            client,
            fraction,
            fec_per_media,
        } => {
            m.insert("client".to_string(), Value::U64(*client));
            m.insert("fraction".to_string(), Value::F64(*fraction));
            m.insert("fec_per_media".to_string(), Value::F64(*fec_per_media));
        }
        EventKind::LayerSwitch {
            client,
            streams,
            top_width,
            top_fps,
        } => {
            m.insert("client".to_string(), Value::U64(*client));
            m.insert("streams".to_string(), Value::U64(*streams));
            m.insert("top_width".to_string(), Value::U64(*top_width));
            m.insert("top_fps".to_string(), Value::F64(*top_fps));
        }
        EventKind::Fir { client, ssrc, dir } => {
            m.insert("client".to_string(), Value::U64(*client));
            m.insert("ssrc".to_string(), Value::U64(*ssrc));
            m.insert("dir".to_string(), s(dir));
        }
        EventKind::Freeze {
            client,
            sender,
            count,
            total_ms,
        } => {
            m.insert("client".to_string(), Value::U64(*client));
            m.insert("sender".to_string(), Value::U64(*sender));
            m.insert("count".to_string(), Value::U64(*count));
            m.insert("total_ms".to_string(), Value::F64(*total_ms));
        }
        EventKind::InvariantViolation { invariant, detail } => {
            m.insert("invariant".to_string(), Value::String(invariant.clone()));
            m.insert("detail".to_string(), Value::String(detail.clone()));
        }
    }
    Value::Object(m)
}

/// Expected type of one schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldType {
    /// A non-negative integer (u64).
    UInt,
    /// Any JSON number (integers are fine: `1e6` serializes as `1000000`).
    Num,
    /// A string.
    Str,
    /// A string or `null`.
    StrOrNull,
}

/// Field table for one event kind, in required serialization order.
fn fields_for(kind: &str) -> Option<&'static [(&'static str, FieldType)]> {
    use FieldType::*;
    Some(match kind {
        "packet_enqueue" => &[
            ("link", UInt),
            ("flow", UInt),
            ("pkt", UInt),
            ("bytes", UInt),
            ("queue_bytes", UInt),
            ("queue_pkts", UInt),
        ],
        "packet_dequeue" => &[
            ("link", UInt),
            ("flow", UInt),
            ("pkt", UInt),
            ("bytes", UInt),
            ("queue_bytes", UInt),
        ],
        "packet_drop" => &[
            ("link", UInt),
            ("flow", UInt),
            ("pkt", UInt),
            ("bytes", UInt),
            ("queue_bytes", UInt),
            ("reason", Str),
        ],
        "rate_step" => &[("link", UInt), ("bps", Num)],
        "cc_state" => &[
            ("client", UInt),
            ("controller", Str),
            ("state", Str),
            ("signal", StrOrNull),
            ("target_mbps", Num),
        ],
        "fec_ratio" => &[("client", UInt), ("fraction", Num), ("fec_per_media", Num)],
        "layer_switch" => &[
            ("client", UInt),
            ("streams", UInt),
            ("top_width", UInt),
            ("top_fps", Num),
        ],
        "fir" => &[("client", UInt), ("ssrc", UInt), ("dir", Str)],
        "freeze" => &[
            ("client", UInt),
            ("sender", UInt),
            ("count", UInt),
            ("total_ms", Num),
        ],
        "invariant_violation" => &[("invariant", Str), ("detail", Str)],
        _ => return None,
    })
}

fn type_ok(v: &Value, ty: FieldType) -> bool {
    match ty {
        FieldType::UInt => matches!(v, Value::U64(_)) || matches!(v, Value::I64(n) if *n >= 0),
        FieldType::Num => matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_)),
        FieldType::Str => matches!(v, Value::String(_)),
        FieldType::StrOrNull => matches!(v, Value::String(_) | Value::Null),
    }
}

/// The validator as it was: parse to a `Value`, then check.
fn oracle_validate_event_line(line: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let obj = v.as_object().ok_or("line is not a JSON object")?;
    let t = v.get("t").ok_or("missing field `t`")?;
    if !type_ok(t, FieldType::UInt) {
        return Err("field `t` must be a non-negative integer".to_string());
    }
    if t.as_u64().is_some_and(|t| t > MAX_TRACE_T_US) {
        return Err("field `t` is beyond the trace limit".to_string());
    }
    let kind = v
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or("missing or non-string field `kind`")?
        .to_string();
    let fields = fields_for(&kind).ok_or_else(|| format!("unknown event kind `{kind}`"))?;
    for (name, ty) in fields {
        let val = v
            .get(name)
            .ok_or_else(|| format!("`{kind}` is missing field `{name}`"))?;
        if !type_ok(val, *ty) {
            return Err(format!("`{kind}` field `{name}` has the wrong type"));
        }
    }
    let expected = fields.len() + 2; // + t, kind
    let actual = obj.len();
    if actual != expected {
        return Err(format!(
            "`{kind}` has {actual} fields, schema expects {expected} (closed schema)"
        ));
    }
    Ok(kind)
}

/// Closed vocabulary for `packet_drop.reason`.
const REASONS: [&str; 2] = ["impairment", "queue_full"];
/// Closed vocabulary for `fir.dir`.
const DIRS: [&str; 2] = ["received", "sent"];
/// Closed vocabulary for `cc_state.controller`.
const CONTROLLERS: [&str; 3] = ["fbra", "gcc", "teams"];
/// Closed vocabulary for `cc_state.state` (union over controllers).
const STATES: [&str; 11] = [
    "decay",
    "decrease",
    "fall",
    "hold",
    "increase",
    "probe",
    "probe-hold",
    "ramp",
    "recover",
    "stay",
    "track",
];
/// Closed vocabulary for `cc_state.signal`.
const SIGNALS: [&str; 3] = ["normal", "overuse", "underuse"];

/// Intern `s` against a sorted vocabulary table, recovering the
/// `&'static str` the exporter serialized.
fn intern(table: &[&'static str], s: &str, field: &str) -> Result<&'static str, String> {
    table
        .iter()
        .find(|&&t| t == s)
        .copied()
        .ok_or_else(|| format!("unknown `{field}` value `{s}`"))
}

fn get_u64(v: &Value, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("missing or non-uint field `{field}`"))
}

fn get_f64(v: &Value, field: &str) -> Result<f64, String> {
    v.get(field)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("missing or non-numeric field `{field}`"))
}

fn get_str<'a>(v: &'a Value, field: &str) -> Result<&'a str, String> {
    v.get(field)
        .and_then(|x| x.as_str())
        .ok_or_else(|| format!("missing or non-string field `{field}`"))
}

/// The importer as it was: parse to a `Value`, then pick fields out.
fn oracle_parse_event_line(line: &str) -> Result<Event, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("line is not a JSON object".to_string());
    }
    let at = SimTime::from_micros(get_u64(&v, "t")?);
    if at.as_micros() > MAX_TRACE_T_US {
        return Err("field `t` is beyond the trace limit".to_string());
    }
    let kind_tag = get_str(&v, "kind")?;
    let kind = match kind_tag {
        "packet_enqueue" => EventKind::PacketEnqueued {
            link: get_u64(&v, "link")?,
            flow: get_u64(&v, "flow")?,
            pkt: get_u64(&v, "pkt")?,
            bytes: get_u64(&v, "bytes")?,
            queue_bytes: get_u64(&v, "queue_bytes")?,
            queue_pkts: get_u64(&v, "queue_pkts")?,
        },
        "packet_dequeue" => EventKind::PacketDequeued {
            link: get_u64(&v, "link")?,
            flow: get_u64(&v, "flow")?,
            pkt: get_u64(&v, "pkt")?,
            bytes: get_u64(&v, "bytes")?,
            queue_bytes: get_u64(&v, "queue_bytes")?,
        },
        "packet_drop" => EventKind::PacketDropped {
            link: get_u64(&v, "link")?,
            flow: get_u64(&v, "flow")?,
            pkt: get_u64(&v, "pkt")?,
            bytes: get_u64(&v, "bytes")?,
            queue_bytes: get_u64(&v, "queue_bytes")?,
            reason: intern(&REASONS, get_str(&v, "reason")?, "reason")?,
        },
        "rate_step" => EventKind::RateStep {
            link: get_u64(&v, "link")?,
            bps: get_f64(&v, "bps")?,
        },
        "cc_state" => EventKind::CcState {
            client: get_u64(&v, "client")?,
            controller: intern(&CONTROLLERS, get_str(&v, "controller")?, "controller")?,
            state: intern(&STATES, get_str(&v, "state")?, "state")?,
            signal: match v.get("signal") {
                None | Some(Value::Null) => None,
                Some(Value::String(s)) => Some(intern(&SIGNALS, s, "signal")?),
                Some(other) => {
                    return Err(format!("field `signal` has kind {}", other.kind()));
                }
            },
            target_mbps: get_f64(&v, "target_mbps")?,
        },
        "fec_ratio" => EventKind::FecRatio {
            client: get_u64(&v, "client")?,
            fraction: get_f64(&v, "fraction")?,
            fec_per_media: get_f64(&v, "fec_per_media")?,
        },
        "layer_switch" => EventKind::LayerSwitch {
            client: get_u64(&v, "client")?,
            streams: get_u64(&v, "streams")?,
            top_width: get_u64(&v, "top_width")?,
            top_fps: get_f64(&v, "top_fps")?,
        },
        "fir" => EventKind::Fir {
            client: get_u64(&v, "client")?,
            ssrc: get_u64(&v, "ssrc")?,
            dir: intern(&DIRS, get_str(&v, "dir")?, "dir")?,
        },
        "freeze" => EventKind::Freeze {
            client: get_u64(&v, "client")?,
            sender: get_u64(&v, "sender")?,
            count: get_u64(&v, "count")?,
            total_ms: get_f64(&v, "total_ms")?,
        },
        "invariant_violation" => EventKind::InvariantViolation {
            invariant: get_str(&v, "invariant")?.to_string(),
            detail: get_str(&v, "detail")?.to_string(),
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(Event { at, kind })
}

// ------------------------------------------------------------ differential

/// The one reader against both old ones on one line: `Ok` exactly when
/// both oracles accept it, with the event the old importer parsed. Error
/// texts are free to differ.
fn assert_agree(line: &str) {
    let new = parse_event_line(line);
    let old = oracle_validate_event_line(line).and_then(|_| oracle_parse_event_line(line));
    assert_eq!(
        new.as_ref().ok(),
        old.as_ref().ok(),
        "reader disagrees on {line:?}\n new: {new:?}\n old: {old:?}"
    );
}

fn assert_writer_matches(ev: &Event) {
    let mut line = String::from("kept:");
    ev.write_jsonl(&mut line);
    let want = serde_json::to_string(&oracle_value(ev)).unwrap();
    assert_eq!(line, format!("kept:{want}"), "{ev:?}");
    assert_eq!(ev.to_jsonl_line(), want);
}

/// A line as raw `(key, value)` JSON text pairs, so a mutation replaces
/// whole tokens and never cuts a string by accident.
type Members = Vec<(String, String)>;

fn members_of(ev: &Event) -> Members {
    let Value::Object(map) = oracle_value(ev) else {
        unreachable!("events serialize to objects")
    };
    map.iter()
        .map(|(k, v)| {
            let key = serde_json::to_string(&Value::String(k.clone())).unwrap();
            (key, serde_json::to_string(v).unwrap())
        })
        .collect()
}

/// Render members with `ws` at every place JSON allows whitespace.
fn render(members: &[(String, String)], ws: &str) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{ws}{k}{ws}:{ws}{v}{ws}"))
        .collect();
    format!("{ws}{{{}}}{ws}", body.join(","))
}

/// Value tokens substituted for (or added beside) real ones: every JSON
/// type, number spellings on both sides of each reader's coercion rules,
/// in- and out-of-vocabulary strings, every escape form, and a few
/// tokens that are not JSON at all.
const VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "[]",
    "{}",
    "[1,{\"a\":[null,\"x\"]}]",
    "{\"t\":1,\"kind\":\"fir\"}",
    "0",
    "-0",
    "-0.0",
    "-1",
    "007",
    "1e3",
    "1E+2",
    "1e-2",
    "1.5",
    "5.0",
    "2.",
    "-.5",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "-9223372036854775809",
    "1e19",
    "1.8446744073709552e19",
    "1e20",
    "1e999",
    "-",
    "1e",
    "1e+",
    "+1",
    ".5",
    "1x",
    "\"\"",
    "\"queue_full\"",
    "\"impairment\"",
    "\"sent\"",
    "\"gcc\"",
    "\"hold\"",
    "\"overuse\"",
    "\"bogus\"",
    "\"fir\"",
    "\"packet_enqueue\"",
    "\"a\\nb\\tc\\rd\\be\\ff\\/g\"",
    "\"q\\\"q\\\\\"",
    "\"\\u0041\"",
    "\"s\\u0065nt\"",
    "\"\\u00e9\\ud800\\udc00\"",
    "\"\\u+041\"",
    "\"\\u12\"",
    "\"\\u12\u{e9}\"",
    "\"\\uzzzz\"",
    "\"\\x\"",
    "\"\u{e9}\u{65e5}\u{672c}\u{1f600}\"",
    "\"tab\there\"",
    "\"unterminated",
    "nul",
    "[1,]",
    "[1 2]",
    "{\"a\" 1}",
    "{\"a\":}",
    "",
];

/// One event of every kind (both `signal` forms), plus strings that need
/// every kind of escaping and floats at the edges of `{}` formatting.
fn corpus_events() -> Vec<Event> {
    let mut kinds: Vec<EventKind> = (0..10)
        .map(|k| decode_kind(0x0123_4567_89ab_cd00 + k))
        .collect();
    kinds.push(EventKind::CcState {
        client: 1,
        controller: "fbra",
        state: "probe-hold",
        signal: None,
        target_mbps: 1.25,
    });
    kinds.push(EventKind::CcState {
        client: 0,
        controller: "gcc",
        state: "decrease",
        signal: Some("overuse"),
        target_mbps: 0.75,
    });
    kinds.push(EventKind::InvariantViolation {
        invariant: "q\"uote\\back/slash".to_string(),
        detail: "line1\nline2\ttab\rcr \u{1}\u{1f} \u{e9}\u{65e5}\u{672c} \u{1f600}".to_string(),
    });
    kinds.push(EventKind::PacketDropped {
        link: u64::MAX,
        flow: 0,
        pkt: u64::MAX - 1,
        bytes: 1,
        queue_bytes: 0,
        reason: "not \"in\" the vocabulary",
    });
    for bps in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e300,
        5e-324,
        0.1 + 0.2,
        1e21,
        123_456_789.125,
        -2.5,
        f64::MAX,
        f64::MIN_POSITIVE,
    ] {
        kinds.push(EventKind::RateStep { link: 3, bps });
    }
    let mut events: Vec<Event> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Event {
            at: SimTime::from_micros(1_000_003 * i as u64),
            kind,
        })
        .collect();
    events.push(Event {
        at: SimTime::from_micros(u64::MAX),
        kind: decode_kind(7),
    });
    events
}

/// Like [`decode_kind`], but with full-range integers, floats from raw
/// bit patterns (NaN, infinities, subnormals) and strings over the first
/// 0x300 code points (controls, quotes, backslash, Latin-1 and beyond).
fn wild_event(raw: u64) -> Event {
    let wild_string = |bits: u64| -> String {
        (0..bits % 12)
            .map(|i| char::from_u32((bits.rotate_right(5 * i as u32) % 0x300) as u32).unwrap())
            .collect()
    };
    let f = f64::from_bits(raw.rotate_left(23));
    let g = f64::from_bits(raw.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut kind = decode_kind(raw);
    match &mut kind {
        EventKind::PacketEnqueued {
            pkt, queue_bytes, ..
        } => (*pkt, *queue_bytes) = (raw, !raw),
        EventKind::RateStep { bps, .. } => *bps = f,
        EventKind::CcState { target_mbps, .. } => *target_mbps = f,
        EventKind::FecRatio {
            fraction,
            fec_per_media,
            ..
        } => (*fraction, *fec_per_media) = (f, g),
        EventKind::LayerSwitch {
            top_width, top_fps, ..
        } => (*top_width, *top_fps) = (raw, g),
        EventKind::Freeze { total_ms, .. } => *total_ms = f,
        EventKind::InvariantViolation { invariant, detail } => {
            (*invariant, *detail) = (wild_string(raw >> 8), wild_string(!raw));
        }
        _ => {}
    }
    Event {
        at: SimTime::from_micros(raw.rotate_left(7)),
        kind,
    }
}

/// Every single-token mutation of `ev`'s canonical line.
fn mutations(ev: &Event) -> Vec<String> {
    let members = members_of(ev);
    let mut lines = Vec::new();
    // Whitespace, everywhere JSON allows it.
    for ws in ["", " ", "\t", "\r", "\n", " \t\r\n "] {
        lines.push(render(&members, ws));
    }
    // Key order: every rotation, and reversed.
    for shift in 1..members.len() {
        let mut m = members.clone();
        m.rotate_left(shift);
        lines.push(render(&m, ""));
    }
    let mut reversed = members.clone();
    reversed.reverse();
    lines.push(render(&reversed, " "));
    // Keys spelled with escapes still name the same field.
    let mut escaped = members.clone();
    escaped[0].0 = "\"\\u0074\"".to_string();
    escaped[1].0 = "\"k\\u0069nd\"".to_string();
    lines.push(render(&escaped, ""));
    for i in 0..members.len() {
        // Missing field.
        let mut m = members.clone();
        m.remove(i);
        lines.push(render(&m, ""));
        for value in VALUES {
            // Wrong type / spelling / vocabulary in place.
            let mut m = members.clone();
            m[i].1 = value.to_string();
            lines.push(render(&m, ""));
            // Duplicate key: the last occurrence wins, whichever it is.
            let mut m = members.clone();
            m.insert(i, (members[i].0.clone(), value.to_string()));
            lines.push(render(&m, ""));
            let mut m = members.clone();
            m.push((members[i].0.clone(), value.to_string()));
            lines.push(render(&m, ""));
        }
    }
    // Extra fields: a key no kind has, and keys other kinds have.
    for key in ["\"extra\"", "\"ssrc\"", "\"signal\"", "\"\"", "\"T\""] {
        for value in VALUES {
            let mut m = members.clone();
            m.push((key.to_string(), value.to_string()));
            lines.push(render(&m, ""));
            m.rotate_right(1);
            lines.push(render(&m, ""));
        }
    }
    // Truncation at every character, and bytes after the object.
    let canonical = render(&members, "");
    lines.extend(
        canonical
            .char_indices()
            .map(|(i, _)| canonical[..i].to_string()),
    );
    for tail in ["x", "}", ",", "{}", "\u{0}", "\u{a0}"] {
        lines.push(format!("{canonical}{tail}"));
    }
    lines.push(format!("[{canonical}]"));
    lines
}

#[test]
fn writer_matches_the_value_serializer_on_the_corpus() {
    for ev in corpus_events() {
        assert_writer_matches(&ev);
    }
}

#[test]
fn readers_agree_with_the_oracle_on_the_mutation_corpus() {
    let (mut lines, mut accepted) = (0, 0);
    for ev in corpus_events() {
        for line in mutations(&ev) {
            assert_agree(&line);
            lines += 1;
            accepted += parse_event_line(&line).is_ok() as usize;
        }
    }
    // The corpus must sit on both sides of the reader, or agreement means
    // nothing.
    assert!(lines > 10_000, "{lines}");
    assert!(
        accepted > 300 && accepted < lines / 2,
        "{accepted} of {lines}"
    );
}

#[test]
fn what_one_old_reader_alone_let_through_is_refused() {
    // The old validator took shape strictly and any string; the old
    // importer took vocabulary strictly and coerced or skipped the rest.
    // Each line here passed exactly one of them, and every reader refuses
    // it now, as a line and as a document.
    let lines = [
        // Integral floats for uints: only the importer coerced them.
        r#"{"t":1e3,"kind":"fir","client":0,"ssrc":5,"dir":"sent"}"#,
        r#"{"t":1,"kind":"fir","client":2.0,"ssrc":5,"dir":"sent"}"#,
        // A key outside the kind: only the importer skipped it.
        r#"{"t":1,"kind":"fir","client":0,"ssrc":5,"dir":"sent","extra":1}"#,
        r#"{"t":1,"kind":"fir","client":0,"ssrc":5,"dir":"sent","signal":null}"#,
        // No `signal`: only the importer read it as `null`.
        r#"{"t":1,"kind":"cc_state","client":0,"controller":"gcc","state":"hold","target_mbps":1}"#,
        // Off-vocabulary strings: only the validator took any string.
        r#"{"t":1,"kind":"fir","client":0,"ssrc":5,"dir":"sideways"}"#,
        r#"{"t":1,"kind":"cc_state","client":0,"controller":"bbr","state":"hold","signal":null,"target_mbps":1}"#,
    ];
    for line in lines {
        let (validated, parsed) = (
            oracle_validate_event_line(line).is_ok(),
            oracle_parse_event_line(line).is_ok(),
        );
        assert!(validated != parsed, "one old reader alone: {line}");
        assert!(parse_event_line(line).is_err(), "{line}");
        assert!(parse_general(line).is_err(), "{line}");
        let document = format!("{line}\n");
        let refused = validate_jsonl(&document).unwrap_err();
        assert!(refused.starts_with("line 1: "), "{refused}");
        let replayed = replay_jsonl(&document, &mut NullRecorder);
        assert_eq!(replayed, Err(refused), "{line}");
    }
}

// ------------------------------------------------- canonical vs general

/// If the mirror reads the front of `text`, the general path alone must
/// read the same event from the same bytes, to the bit, and the public
/// reader must answer with it. Returns whether the mirror read it.
fn assert_mirror_sound(text: &str) -> bool {
    let Some((t, kind, used)) = EventKind::read_canonical(text) else {
        return false;
    };
    let line = &text[..used];
    let line = line.strip_suffix('\n').unwrap_or(line);
    let at = SimTime::from_micros(t);
    let general = parse_general(line);
    assert_eq!(general, Ok((t, kind.clone())), "general path on {line:?}");
    // `==` on an f64 cannot tell -0 from 0; the bytes can.
    let rewritten = |kind| Event { at, kind }.to_jsonl_line();
    assert_eq!(
        rewritten(general.unwrap().1),
        rewritten(kind.clone()),
        "{line:?}"
    );
    assert_eq!(parse_event_line(line), Ok(Event { at, kind }));
    true
}

#[test]
fn the_mirror_is_sound_on_the_mutation_corpus() {
    let (mut lines, mut read) = (0, 0);
    for ev in corpus_events() {
        for line in mutations(&ev) {
            lines += 1;
            read += assert_mirror_sound(&line) as usize;
        }
    }
    // Most mutations leave the canonical form; the ones that keep it (a
    // value swapped for another canonical one) are the ones that count.
    assert!(lines > 10_000, "{lines}");
    assert!(read > 100 && read < lines / 10, "{read} of {lines}");
}

#[test]
fn the_mirror_is_sound_on_bit_flipped_canonical_lines() {
    // Canonical lines one bit away from canonical: the inputs most likely
    // to match the mirror halfway.
    let mut seed = 19;
    let raw: Vec<u64> = (0..200).map(|_| splitmix(&mut seed)).collect();
    let lines: Vec<String> = corpus_events()
        .iter()
        .chain(&sequence_of(&raw))
        .map(Event::to_jsonl_line)
        .collect();
    let (mut read, mut declined) = (0, 0);
    for _ in 0..1000 {
        let line = &lines[splitmix(&mut seed) as usize % lines.len()];
        let mut bytes = line.clone().into_bytes();
        let bit = splitmix(&mut seed) as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match assert_mirror_sound(&String::from_utf8_lossy(&bytes)) {
            true => read += 1,
            false => declined += 1,
        }
    }
    // A flipped digit is another digit as often as not; a flipped key,
    // quote or brace is the general reader's to refuse.
    assert!(read > 30 && declined > 300, "{read} read, {declined} not");
}

/// Whether the mirror is expected to read `ev`'s own line: everything the
/// reader accepts except free text (any escape may occur in it) and a
/// negative zero (written `-0`, which every reader takes for the integer).
/// It also leaves integers of twenty digits, 10^19 and up, to the general
/// reader; no event used below has one that the reader accepts.
fn mirror_should_read(ev: &Event, line: &str) -> bool {
    let negative_zero = |f: &f64| *f == 0.0 && f.is_sign_negative();
    let nums: Vec<f64> = match ev.kind {
        EventKind::InvariantViolation { .. } => return false,
        EventKind::RateStep { bps, .. } => vec![bps],
        EventKind::CcState { target_mbps, .. } => vec![target_mbps],
        EventKind::FecRatio {
            fraction,
            fec_per_media,
            ..
        } => vec![fraction, fec_per_media],
        EventKind::LayerSwitch { top_fps, .. } => vec![top_fps],
        EventKind::Freeze { total_ms, .. } => vec![total_ms],
        _ => vec![],
    };
    parse_general(line).is_ok() && !nums.iter().any(negative_zero)
}

#[test]
fn the_mirror_reads_what_the_writer_writes() {
    // Event by event: were the schema table, the writer or the mirror
    // edited out of step, the readers would still agree (the general path
    // catches what the mirror declines) and only the speed would go.
    let mut seed = 7;
    let raw: Vec<u64> = (0..500).map(|_| splitmix(&mut seed)).collect();
    let (mut read, mut kinds) = (0, std::collections::BTreeSet::new());
    for ev in corpus_events().iter().chain(&sequence_of(&raw)) {
        let line = ev.to_jsonl_line();
        let got = EventKind::read_canonical(&line);
        if mirror_should_read(ev, &line) {
            let want = (ev.at.as_micros(), ev.kind.clone(), line.len());
            assert_eq!(got, Some(want), "{line}");
            read += 1;
            kinds.insert(ev.kind.name());
        } else {
            assert_eq!(got, None, "{line}");
        }
    }
    assert!(read > 100, "{read}");
    assert_eq!(kinds.len(), 9, "every kind without free text: {kinds:?}");

    // A whole document with the make-up of a real trace, 99 % packet
    // events: walked line by line the way the document readers walk it.
    let raw: Vec<u64> = (0..10_000)
        .map(|i| match (splitmix(&mut seed), i % 100) {
            (r, 99) => r,
            (r, _) => r / 10 * 10 + r % 3,
        })
        .collect();
    let events = sequence_of(&raw);
    let text: String = events.iter().map(|ev| ev.to_jsonl_line() + "\n").collect();
    let (mut rest, mut taken) = (text.as_str(), 0);
    for ev in &events {
        let line_len = rest.find('\n').expect("one line per event") + 1;
        let free_text = matches!(ev.kind, EventKind::InvariantViolation { .. });
        match EventKind::read_canonical(rest) {
            Some((t, kind, used)) => {
                assert_eq!((t, &kind, used), (ev.at.as_micros(), &ev.kind, line_len));
                taken += 1;
            }
            None => assert!(free_text, "declined: {}", &rest[..line_len]),
        }
        rest = &rest[line_len..];
    }
    assert!(rest.is_empty());
    assert!(taken >= 9_900, "{taken} of 10000 lines took the fast path");
}

proptest! {
    /// The mirror against the general path on generated lines: every
    /// kind's canonical line, and full-range integers, raw-bit floats and
    /// arbitrary strings.
    #[test]
    fn the_mirror_is_sound_on_generated_events(raw in proptest::collection::vec(any::<u64>(), 0..100)) {
        for (ev, &r) in sequence_of(&raw).iter().zip(&raw) {
            let line = ev.to_jsonl_line();
            let free_text = matches!(ev.kind, EventKind::InvariantViolation { .. });
            prop_assert_eq!(assert_mirror_sound(&line), !free_text, "{}", line);
            assert_mirror_sound(&wild_event(r).to_jsonl_line());
        }
    }

    /// Byte-for-byte writer equality over arbitrary field values.
    #[test]
    fn writer_matches_the_value_serializer(raw in proptest::collection::vec(any::<u64>(), 0..200)) {
        for ev in sequence_of(&raw) {
            assert_writer_matches(&ev);
        }
        for &r in &raw {
            assert_writer_matches(&wild_event(r));
        }
    }

    /// Reader agreement on generated lines and one random mutation each.
    #[test]
    fn readers_agree_with_the_oracle(raw in proptest::collection::vec(any::<u64>(), 0..100)) {
        for (ev, &r) in sequence_of(&raw).iter().zip(&raw) {
            assert_agree(&ev.to_jsonl_line());
            assert_agree(&wild_event(r).to_jsonl_line());
            let mut m = members_of(ev);
            let i = (r >> 48) as usize % m.len();
            let value = VALUES[(r >> 52) as usize % VALUES.len()].to_string();
            match (r >> 44) % 4 {
                0 => m[i].1 = value,
                1 => m.insert(i, (m[i].0.clone(), value)),
                2 => m.push((m[i].0.clone(), value)),
                _ => m.swap(i, 0),
            }
            assert_agree(&render(&m, if r >> 63 == 0 { "" } else { " " }));
        }
    }
}
