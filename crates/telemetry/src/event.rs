//! Typed, sim-timestamped trace events and the one table that defines
//! their JSONL schema.
//!
//! Every event serializes to one JSON object with a fixed key order:
//! `t` (microseconds of sim time), `kind` (a stable snake_case tag), then
//! the kind's fields in declaration order. The order is part of the trace
//! schema ([`crate::TRACE_SCHEMA_VERSION`]) — byte-identical traces across
//! runs and worker counts are a hard requirement, so nothing here may
//! iterate a hash map or consult a wall clock.
//!
//! The schema is written down once, in the `event_schema!` invocation
//! below. From it come the [`EventKind`] enum, the line writer
//! ([`Event::write_jsonl`]), its mirror image
//! ([`EventKind::read_canonical`], which reads back exactly the bytes the
//! writer produces and declines everything else), the typed constructor
//! the general reader uses on the lines the mirror declines, and the
//! `KINDS` table that names each kind's keys.

use serde::json::{write_escaped, write_f64, write_u64};

use vcabench_simcore::SimTime;

use crate::scan::{Canonical, Line};

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

/// One event kind: its tag and fields in serialization order.
pub(crate) struct KindSchema {
    /// The `kind` tag.
    pub(crate) tag: &'static str,
    /// Field keys after `t` and `kind`, in serialization order.
    pub(crate) fields: &'static [&'static str],
}

macro_rules! rust_type {
    (UInt) => { u64 };
    (Num) => { f64 };
    (Vocab) => { &'static str };
    (OptVocab) => { Option<&'static str> };
    (Text) => { String };
}

/// Append one field's value in its canonical form.
macro_rules! write_value {
    (UInt, $out:expr, $v:expr) => {
        write_u64($out, *$v)
    };
    (Num, $out:expr, $v:expr) => {
        write_f64($out, *$v)
    };
    (Vocab, $out:expr, $v:expr) => {
        write_escaped($out, $v)
    };
    (OptVocab, $out:expr, $v:expr) => {
        match $v {
            Some(s) => write_escaped($out, s),
            None => $out.push_str("null"),
        }
    };
    (Text, $out:expr, $v:expr) => {
        write_escaped($out, $v)
    };
}

/// Read one field's value off a canonical line: the inverse of
/// `write_value!`, `None` for any other spelling.
macro_rules! read_canonical_value {
    (UInt, $c:expr) => {
        $c.uint()?
    };
    (Num, $c:expr) => {
        $c.num()?
    };
    (Vocab($table:ident), $c:expr) => {
        $c.vocab(&$table)?
    };
    (OptVocab($table:ident), $c:expr) => {
        $c.opt_vocab(&$table)?
    };
    // Free text may hold any escape: always the general scanner's.
    (Text, $c:expr) => {
        None?
    };
}

/// Read one field back out of a scanned line.
macro_rules! read_value {
    (UInt, $v:expr, $name:expr) => {
        $v.to_u64($name)
    };
    (Num, $v:expr, $name:expr) => {
        $v.to_f64($name)
    };
    (Vocab($table:ident), $v:expr, $name:expr) => {
        $v.to_str($name).and_then(|s| intern(&$table, s, $name))
    };
    (OptVocab($table:ident), $v:expr, $name:expr) => {
        $v.to_opt_str($name)
            .and_then(|s| s.map(|s| intern(&$table, s, $name)).transpose())
    };
    (Text, $v:expr, $name:expr) => {
        $v.to_str($name).map(str::to_string)
    };
}

/// Declares the trace schema: per kind, the enum variant, its `kind` tag,
/// and its fields (`name: WireType`) in serialization order. Every field
/// is required, and no other key is allowed. The five wire types, each
/// one Rust type in [`EventKind`] (see `rust_type!`):
///
/// - `UInt`: an integer literal that is not negative (`u64`); `5.0` and
///   `1e3` are not uints.
/// - `Num`: any JSON number (`f64`; integers are fine: `1e6` serializes
///   as `1000000`). Non-finite values are written as `null`, which no
///   reader accepts back.
/// - `Vocab(TABLE)`: a string from the closed vocabulary `TABLE`
///   (`&'static str`); any other string is refused.
/// - `OptVocab(TABLE)`: a `Vocab` string or `null`
///   (`Option<&'static str>`); the key is required all the same.
/// - `Text`: free text (`String`).
macro_rules! event_schema {
    ($(
        $(#[$kind_doc:meta])*
        $variant:ident = $tag:literal {
            $(
                $(#[$field_doc:meta])*
                $field:ident: $ty:ident $(($table:ident))?
            ),+ $(,)?
        }
    )+) => {
        /// What happened, without the timestamp. See [`Event`] for the full record.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $(
                $(#[$kind_doc])*
                $variant {
                    $(
                        $(#[$field_doc])*
                        $field: rust_type!($ty),
                    )+
                },
            )+
        }

        /// The schema as data, in declaration order.
        pub(crate) const KINDS: [KindSchema; N_KINDS] = [
            $(KindSchema {
                tag: $tag,
                fields: &[$(stringify!($field)),+],
            },)+
        ];

        impl EventKind {
            /// Stable snake_case tag identifying the event kind in the JSONL schema.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $tag,)+
                }
            }

            /// Append `,"kind":"tag"` (one literal: tags need no escape),
            /// then `,"field":value` for every field, in schema order.
            fn write_kind_and_fields(&self, out: &mut String) {
                match self {
                    $(EventKind::$variant { $($field),+ } => {
                        out.push_str(concat!(",\"kind\":\"", $tag, "\""));
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            write_value!($ty, out, $field);
                        )+
                    })+
                }
            }

            /// Position of this kind in `KINDS`.
            pub(crate) fn index(&self) -> usize {
                enum Index { $($variant,)+ }
                match self {
                    $(EventKind::$variant { .. } => Index::$variant as usize,)+
                }
            }

            /// Read the line at the front of `text` if it is in canonical
            /// form — byte for byte what [`Event::write_jsonl`] writes,
            /// closed by `\n` or the end of `text` — as its `t`, its
            /// kind, and the bytes it took, newline included.
            ///
            /// `None` is not a verdict: whitespace, another key order, an
            /// escape, an exponent, a free-text field, a `t` beyond
            /// [`MAX_TRACE_T_US`] or a string off its vocabulary only
            /// mean the line is the general path's to accept or refuse
            /// (the one reader, [`crate::parse_event_line`], takes that
            /// path next). `Some` is a verdict: the general path returns
            /// the same event.
            pub fn read_canonical(text: &str) -> Option<(u64, EventKind, usize)> {
                let mut c = Canonical { rest: text.as_bytes() };
                c.lit("{\"t\":")?;
                let t = c.uint().filter(|&t| t <= MAX_TRACE_T_US)?;
                c.lit(",\"kind\":\"")?;
                let kind = $(if c.lit(concat!($tag, "\"")).is_some() {
                    EventKind::$variant {
                        $($field: {
                            c.lit(concat!(",\"", stringify!($field), "\":"))?;
                            read_canonical_value!($ty $(($table))?, c)
                        },)+
                    }
                } else)+ {
                    return None;
                };
                c.lit("}")?;
                c.end_of_line()?;
                Some((t, kind, text.len() - c.rest.len()))
            }

            /// Build the kind tagged `tag` from a scanned line: every
            /// field present, with its wire type — an integer literal for
            /// a uint, a member of its vocabulary for a vocabulary string.
            /// Keys outside the kind are the caller's to refuse.
            pub(crate) fn from_line(tag: &str, line: &Line<'_>) -> Result<EventKind, String> {
                Ok(match tag {
                    $($tag => EventKind::$variant {
                        $($field: {
                            const SLOT: usize = slot_of(stringify!($field));
                            read_value!($ty $(($table))?, line.get(SLOT), stringify!($field))?
                        },)+
                    },)+
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }
        }
    };
}

event_schema! {
    /// A packet was accepted by a link (head-of-line or queued). Queue
    /// depths are sampled *after* the enqueue.
    PacketEnqueued = "packet_enqueue" {
        /// Link index the packet entered.
        link: UInt,
        /// Flow the packet belongs to.
        flow: UInt,
        /// Simulator-global packet id.
        pkt: UInt,
        /// Packet size in bytes.
        bytes: UInt,
        /// Queued bytes behind the packet in service, after this enqueue.
        queue_bytes: UInt,
        /// Queued packets behind the packet in service, after this enqueue.
        queue_pkts: UInt,
    }
    /// A packet finished serialization and left the link. Queue depth is
    /// sampled after the departure.
    PacketDequeued = "packet_dequeue" {
        /// Link index the packet left.
        link: UInt,
        /// Flow the packet belongs to.
        flow: UInt,
        /// Simulator-global packet id.
        pkt: UInt,
        /// Packet size in bytes.
        bytes: UInt,
        /// Queued bytes remaining after this departure.
        queue_bytes: UInt,
    }
    /// A packet was dropped at a link.
    PacketDropped = "packet_drop" {
        /// Link index that dropped the packet.
        link: UInt,
        /// Flow the packet belonged to.
        flow: UInt,
        /// Simulator-global packet id.
        pkt: UInt,
        /// Packet size in bytes.
        bytes: UInt,
        /// Queued bytes at drop time.
        queue_bytes: UInt,
        /// Why: `"queue_full"` (tail drop) or `"impairment"` (the
        /// deterministic drop-every-N loss model).
        reason: Vocab(REASONS),
    }
    /// A link's shaping profile stepped to a new service rate.
    RateStep = "rate_step" {
        /// Link index whose rate changed.
        link: UInt,
        /// New service rate in bits per second.
        bps: Num,
    }
    /// A congestion controller changed state (FBRA ramp/probe/…,
    /// GCC increase/hold/decrease, Teams recover/track).
    CcState = "cc_state" {
        /// Client index owning the controller.
        client: UInt,
        /// Controller family: `"gcc"`, `"fbra"`, or `"teams"`.
        controller: Vocab(CONTROLLERS),
        /// New state name (stable per-controller vocabulary).
        state: Vocab(STATES),
        /// Detector signal that caused the transition (GCC only:
        /// `"overuse"` / `"underuse"` / `"normal"`).
        signal: OptVocab(SIGNALS),
        /// Controller send-rate target after the transition, Mbps.
        target_mbps: Num,
    }
    /// The sender's planned FEC ratio changed.
    FecRatio = "fec_ratio" {
        /// Client index.
        client: UInt,
        /// Controller-requested FEC fraction of the total budget.
        fraction: Num,
        /// Realized FEC-to-media ratio after stream planning.
        fec_per_media: Num,
    }
    /// The encoder's layer/simulcast plan changed shape.
    LayerSwitch = "layer_switch" {
        /// Client index.
        client: UInt,
        /// Number of simulcast streams in the new plan.
        streams: UInt,
        /// Width in pixels of the top layer (0 when no streams).
        top_width: UInt,
        /// Frame rate of the top layer (0 when no streams).
        top_fps: Num,
    }
    /// A Full Intra Request was sent or received.
    Fir = "fir" {
        /// Client index observing the FIR.
        client: UInt,
        /// SSRC the request refers to.
        ssrc: UInt,
        /// `"sent"` or `"received"`.
        dir: Vocab(DIRS),
    }
    /// The receive-side freeze detector flagged a new freeze.
    Freeze = "freeze" {
        /// Client index whose render path froze.
        client: UInt,
        /// Index of the sending client.
        sender: UInt,
        /// Cumulative freeze count for this sender.
        count: UInt,
        /// Cumulative freeze time for this sender, milliseconds.
        total_ms: Num,
    }
    /// An invariant violation, interleaved with the packet events that
    /// led up to it (the audit hooks run in builds with debug assertions
    /// only, so a release build never emits one).
    InvariantViolation = "invariant_violation" {
        /// Name of the violated invariant.
        invariant: Text,
        /// Human-readable violation detail.
        detail: Text,
    }
}

/// Number of event kinds.
pub(crate) const N_KINDS: usize = EventKind::NAMES.len();
/// Most fields any kind has (after `t` and `kind`).
pub(crate) const MAX_FIELDS: usize = 6;
/// Distinct JSON keys over the whole schema, `t` and `kind` included
/// (checked where [`KEYS`] is built; a scanned [`Line`] tracks them in a
/// `u32` mask).
pub(crate) const N_KEYS: usize = 27;
const _: () = assert!(N_KEYS <= u32::BITS as usize);
/// [`KEYS`] index of `t`.
pub(crate) const T_SLOT: usize = 0;
/// [`KEYS`] index of `kind`.
pub(crate) const KIND_SLOT: usize = 1;

/// Largest `t` a trace reader accepts, microseconds: one day of simulated
/// time, some 300× the longest pinned scenario. Per-second consumers
/// (window extractors, span builders) allocate per elapsed second, so the
/// bound on what they can be made to allocate is set here, where the
/// bytes are read — a [`crate::Recorder`] has no error channel of its own.
pub const MAX_TRACE_T_US: u64 = 86_400_000_000;

/// `t`, unless it lies beyond [`MAX_TRACE_T_US`].
pub(crate) fn check_t(t: u64) -> Result<u64, String> {
    if t > MAX_TRACE_T_US {
        return Err(format!(
            "field `t` is {t} us, beyond the one-day trace limit ({MAX_TRACE_T_US} us)"
        ));
    }
    Ok(t)
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

const fn position(keys: &[&str], name: &str) -> Option<usize> {
    let mut i = 0;
    while i < keys.len() {
        if str_eq(keys[i], name) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Every key of the schema once: `t`, `kind`, then the fields of
/// [`KINDS`] in first-appearance order (the packet kinds come first, so
/// the keys of the bulk of a trace sit at the front). A key's index here
/// is its slot in a scanned [`Line`].
pub(crate) const KEYS: [&str; N_KEYS] = {
    let mut keys = [""; N_KEYS];
    keys[T_SLOT] = "t";
    keys[KIND_SLOT] = "kind";
    let mut n = 2;
    let mut k = 0;
    while k < N_KINDS {
        let fields = KINDS[k].fields;
        let mut f = 0;
        while f < fields.len() {
            if position(&keys, fields[f]).is_none() {
                keys[n] = fields[f];
                n += 1;
            }
            f += 1;
        }
        k += 1;
    }
    assert!(n == N_KEYS, "N_KEYS is out of date");
    keys
};

/// [`KEYS`] index of a schema key (compile-time error for any other name).
const fn slot_of(name: &str) -> usize {
    match position(&KEYS, name) {
        Some(i) => i,
        None => panic!("not a schema key"),
    }
}

/// Per kind (parallel to [`KINDS`]), the [`Line`] slot of each field; a
/// kind with fewer than [`MAX_FIELDS`] fields pads with [`T_SLOT`].
pub(crate) const FIELD_SLOTS: [[usize; MAX_FIELDS]; N_KINDS] = {
    let mut slots = [[0; MAX_FIELDS]; N_KINDS];
    let mut k = 0;
    while k < N_KINDS {
        let fields = KINDS[k].fields;
        let mut f = 0;
        while f < fields.len() {
            slots[k][f] = slot_of(fields[f]);
            f += 1;
        }
        k += 1;
    }
    slots
};

/// Intern `s` against a vocabulary table, recovering the `&'static str`
/// the exporter serialized.
fn intern(table: &[&'static str], s: &str, field: &str) -> Result<&'static str, String> {
    table
        .iter()
        .find(|&&t| t == s)
        .copied()
        .ok_or_else(|| format!("unknown `{field}` value `{s}`"))
}

/// A trace event: when plus what.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time of emission.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl EventKind {
    /// All kind tags the schema defines, sorted (for validators and docs).
    pub const NAMES: [&'static str; 10] = [
        "cc_state",
        "fec_ratio",
        "fir",
        "freeze",
        "invariant_violation",
        "layer_switch",
        "packet_dequeue",
        "packet_drop",
        "packet_enqueue",
        "rate_step",
    ];
}

impl Event {
    /// Append this event's canonical JSONL line (no trailing newline) to
    /// `out`: no whitespace, `t`, `kind`, then the kind's fields in
    /// declaration order.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"t\":");
        write_u64(out, self.at.as_micros());
        self.kind.write_kind_and_fields(out);
        out.push('}');
    }

    /// Serialize to one compact JSONL line (no trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_fixed_and_kind_tags_are_stable() {
        let ev = Event {
            at: SimTime::from_millis(1500),
            kind: EventKind::PacketDropped {
                link: 2,
                flow: 7,
                pkt: 901,
                bytes: 1200,
                queue_bytes: 65_536,
                reason: "queue_full",
            },
        };
        assert_eq!(
            ev.to_jsonl_line(),
            "{\"t\":1500000,\"kind\":\"packet_drop\",\"link\":2,\"flow\":7,\
             \"pkt\":901,\"bytes\":1200,\"queue_bytes\":65536,\"reason\":\"queue_full\"}"
        );
    }

    #[test]
    fn names_list_is_sorted_and_complete() {
        let mut sorted = EventKind::NAMES;
        sorted.sort_unstable();
        assert_eq!(sorted, EventKind::NAMES);
        let mut tags = KINDS.map(|k| k.tag);
        tags.sort_unstable();
        assert_eq!(tags, EventKind::NAMES);
    }

    /// The writer pushes each `kind` tag as a literal, unescaped: that is
    /// sound only while no tag (nor any vocabulary word, which the
    /// canonical reader matches as a literal) holds a byte JSON escapes.
    #[test]
    fn tags_and_vocabulary_words_need_no_escape() {
        let words = KINDS.iter().map(|k| k.tag).chain(
            [&REASONS[..], &DIRS, &CONTROLLERS, &STATES, &SIGNALS]
                .into_iter()
                .flatten()
                .copied(),
        );
        for word in words {
            assert!(!word.is_empty());
            assert!(
                word.bytes()
                    .all(|b| b.is_ascii_graphic() && b != b'"' && b != b'\\'),
                "`{word}` needs an escape"
            );
            let mut escaped = String::new();
            write_escaped(&mut escaped, word);
            assert_eq!(escaped, format!("\"{word}\""));
        }
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let ev = Event {
            at: SimTime::ZERO,
            kind: EventKind::RateStep {
                link: 0,
                bps: f64::INFINITY,
            },
        };
        assert_eq!(
            ev.to_jsonl_line(),
            "{\"t\":0,\"kind\":\"rate_step\",\"link\":0,\"bps\":null}"
        );
    }
}
