//! Reading trace text: the document loop, the one line reader under it,
//! and the two ways that reader walks a line's bytes.
//!
//! A line in canonical form — the exporter's own bytes, which is what
//! nearly every line of every stored trace is — is read by
//! [`EventKind::read_canonical`], the generated mirror image of the
//! writer; [`Canonical`] is the cursor it advances. It can only decline.
//! Every other line, and so every error, belongs to the general path,
//! [`crate::import::parse_general`]: a trace line is a flat JSON object
//! over a small closed set of keys ([`KEYS`]), so reading one needs no
//! value tree: [`scan_line`] walks the bytes once and leaves each schema
//! key's value in a fixed slot of a [`Line`]. Strings borrow from the
//! input unless they contain an escape; numbers are parsed from their
//! text slice. The general path is the definition of what the reader
//! under `validate_jsonl`, `replay_jsonl` and `parse_event_line` accepts
//! (its grammar is written down in [`crate::import`]): whenever the
//! mirror reads a line, the general path reads the same event from it
//! (`tests/oracle.rs`).
//!
//! The JSON grammar is not decided here: the bytes are walked by
//! [`serde_json::read::Cursor`], the same reader `serde_json::from_str`
//! builds its trees on, so a line is well-formed for the trace reader
//! exactly when it is for the vendored parser (its leniencies and its
//! 128-deep nesting bound are documented there). What this module adds
//! is the slotting: any key order, a repeated key keeps its last value,
//! and a nested value — never a schema field — is checked and skipped.

use std::borrow::Cow;

use serde_json::read::{Cursor, Token};

use crate::event::{EventKind, KEYS, N_KEYS};
use crate::import::parse_general;

/// Read one line: in canonical form by the mirror, otherwise by the
/// general path.
pub(crate) fn read_line(line: &str) -> Result<(u64, EventKind), String> {
    match EventKind::read_canonical(line) {
        Some((t, kind, used)) if used == line.len() => Ok((t, kind)),
        _ => parse_general(line),
    }
}

/// The one loop over a JSONL document: hands `each` the `(t, kind)` of
/// every line in order, or stops at the first bad line with its 1-based
/// number. A canonical line is touched once — the mirror consumes its
/// newline too; a line it declines is cut out the way `str::lines` would
/// (a `\r` before the `\n` is not part of it) and given to the general
/// path. Timestamps must not decrease: sim-time order is part of the
/// export contract.
pub(crate) fn read_document(
    text: &str,
    mut each: impl FnMut(u64, EventKind),
) -> Result<(), String> {
    let (mut rest, mut number, mut last_t) = (text, 0u64, 0);
    while !rest.is_empty() {
        number += 1;
        let (t, kind) = match EventKind::read_canonical(rest) {
            Some((t, kind, used)) => {
                rest = &rest[used..];
                (t, kind)
            }
            None => {
                let line = rest.lines().next().unwrap_or_default();
                rest = rest.split_once('\n').map_or("", |(_, after)| after);
                parse_general(line).map_err(|e| format!("line {number}: {e}"))?
            }
        };
        if t < last_t {
            return Err(format!("line {number}: timestamp {t} goes backwards"));
        }
        last_t = t;
        each(t, kind);
    }
    Ok(())
}

/// A position in text that must continue, byte for byte, the way
/// [`crate::Event::write_jsonl`] would have written it: each method
/// takes exactly one such piece off the front or answers `None`. No
/// method is more lenient than the general path on the same bytes —
/// that, not completeness, is what makes the fast path safe.
pub(crate) struct Canonical<'a> {
    /// What is left of the text.
    pub(crate) rest: &'a [u8],
}

/// Length of the run of ASCII digits at the front of `bytes`.
fn digits(bytes: &[u8]) -> usize {
    bytes.iter().take_while(|b| b.is_ascii_digit()).count()
}

impl Canonical<'_> {
    /// Exactly `literal`.
    pub(crate) fn lit(&mut self, literal: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(literal.as_bytes())?;
        Some(())
    }

    /// A run of 1–19 digits, which cannot overflow. A twentieth is left
    /// in place, where it fails the literal that has to follow.
    pub(crate) fn uint(&mut self) -> Option<u64> {
        let (mut n, mut len) = (0u64, 0);
        for &b in self.rest.iter().take(19) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            n = n * 10 + u64::from(digit);
            len += 1;
        }
        self.rest = &self.rest[len..];
        (len > 0).then_some(n)
    }

    /// `-?d+(.d+)?`, all `write_f64` emits for a finite value, through
    /// the `str::parse` the general lexer ends in. A negative zero is
    /// declined: the writer spells it `-0`, an integer literal, which
    /// the general lexer reads as the integer 0.
    pub(crate) fn num(&mut self) -> Option<f64> {
        let mut len = usize::from(self.rest.first() == Some(&b'-'));
        let mut run = digits(&self.rest[len..]);
        len += run;
        if run > 0 && self.rest.get(len) == Some(&b'.') {
            run = digits(&self.rest[len + 1..]);
            len += 1 + run;
        }
        if run == 0 {
            return None;
        }
        let (literal, rest) = self.rest.split_at(len);
        let value: f64 = std::str::from_utf8(literal).ok()?.parse().ok()?;
        self.rest = rest;
        (value != 0.0 || value.is_sign_positive()).then_some(value)
    }

    /// A quoted member of `table`; none of them needs an escape.
    pub(crate) fn vocab(&mut self, table: &[&'static str]) -> Option<&'static str> {
        self.lit("\"")?;
        let len = self.rest.iter().position(|&b| b == b'"')?;
        let (word, rest) = self.rest.split_at(len);
        self.rest = &rest[1..];
        table.iter().copied().find(|w| w.as_bytes() == word)
    }

    /// A [`vocab`](Self::vocab) string or `null`.
    pub(crate) fn opt_vocab(&mut self, table: &[&'static str]) -> Option<Option<&'static str>> {
        match self.lit("null") {
            Some(()) => Some(None),
            None => self.vocab(table).map(Some),
        }
    }

    /// The `\n` that closes the line, or the end of the text.
    pub(crate) fn end_of_line(&mut self) -> Option<()> {
        if self.rest.is_empty() {
            return Some(());
        }
        self.lit("\n")
    }
}

/// The value scanned for one key.
#[derive(Debug, PartialEq)]
pub(crate) enum Scalar<'a> {
    /// The key did not occur.
    Absent,
    /// `null`.
    Null,
    /// An integer literal that fits `u64`.
    UInt(u64),
    /// Any other integer literal that fits `i64` (negative, or `-0`).
    Int(i64),
    /// A literal with a fraction or exponent, or an integer beyond 64 bits.
    Float(f64),
    /// A string, owned only when it contained an escape.
    Str(Cow<'a, str>),
    /// A boolean, array or object — never valid in a trace line.
    Other,
}

impl Scalar<'_> {
    /// Unsigned read: an integer literal that is not negative. A float is
    /// not a uint, not even `5.0`.
    pub(crate) fn to_u64(&self, field: &str) -> Result<u64, String> {
        match *self {
            Scalar::UInt(n) => Ok(n),
            Scalar::Int(n) if n >= 0 => Ok(n as u64),
            _ => Err(format!("missing or non-uint field `{field}`")),
        }
    }

    /// Float read: any number literal.
    pub(crate) fn to_f64(&self, field: &str) -> Result<f64, String> {
        match *self {
            Scalar::Float(f) => Ok(f),
            Scalar::Int(n) => Ok(n as f64),
            Scalar::UInt(n) => Ok(n as f64),
            _ => Err(format!("missing or non-numeric field `{field}`")),
        }
    }

    /// String read.
    pub(crate) fn to_str(&self, field: &str) -> Result<&str, String> {
        match self {
            Scalar::Str(s) => Ok(s),
            _ => Err(format!("missing or non-string field `{field}`")),
        }
    }

    /// Optional string read: `null` is `None`; an absent key is an error
    /// like any other.
    pub(crate) fn to_opt_str(&self, field: &str) -> Result<Option<&str>, String> {
        match self {
            Scalar::Null => Ok(None),
            Scalar::Str(s) => Ok(Some(s)),
            _ => Err(format!(
                "missing field `{field}`, or neither a string nor null"
            )),
        }
    }
}

/// The members of one scanned line, by schema key.
#[derive(Debug)]
pub(crate) struct Line<'a> {
    /// Last value seen for each key of [`KEYS`].
    slots: [Scalar<'a>; N_KEYS],
    /// Bit `i` set when `KEYS[i]` occurred.
    seen: u32,
    /// First key outside [`KEYS`], if any.
    stray: Option<Cow<'a, str>>,
}

impl<'a> Line<'a> {
    /// The value of `KEYS[slot]`.
    pub(crate) fn get(&self, slot: usize) -> &Scalar<'a> {
        &self.slots[slot]
    }

    /// A key that occurred in the line but is not among the `allowed`
    /// slots (a bit mask over [`KEYS`]), if there is one.
    pub(crate) fn key_outside(&self, allowed: u32) -> Option<&str> {
        match self.seen & !allowed {
            0 => self.stray.as_deref(),
            extra => Some(KEYS[extra.trailing_zeros() as usize]),
        }
    }

    fn put(&mut self, key: Cow<'a, str>, value: Scalar<'a>) {
        match KEYS.iter().position(|k| *k == key) {
            Some(slot) => {
                self.slots[slot] = value;
                self.seen |= 1 << slot;
            }
            None => {
                self.stray.get_or_insert(key);
            }
        }
    }
}

/// Scan one line. Errors are JSON syntax errors or a top-level value that
/// is not an object; what the members mean is the caller's business.
pub(crate) fn scan_line(text: &str) -> Result<Line<'_>, String> {
    let mut line = Line {
        slots: [const { Scalar::Absent }; N_KEYS],
        seen: 0,
        stray: None,
    };
    let syntax = |e: serde_json::Error| format!("not valid JSON: {e}");
    let mut c = Cursor::new(text);
    if !matches!(c.value(), Ok(Token::Object)) {
        return Err("line is not a JSON object".to_string());
    }
    c.open().map_err(syntax)?;
    while let Some(key) = c.key().map_err(syntax)? {
        let value = match c.value().map_err(syntax)? {
            Token::Null => Scalar::Null,
            Token::UInt(n) => Scalar::UInt(n),
            Token::Int(n) => Scalar::Int(n),
            Token::Float(f) => Scalar::Float(f),
            Token::Str(s) => Scalar::Str(s),
            Token::Bool(_) => Scalar::Other,
            Token::Array | Token::Object => {
                c.skip_value().map_err(syntax)?;
                Scalar::Other
            }
        };
        line.put(key, value);
    }
    c.end().map_err(syntax)?;
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{KIND_SLOT, T_SLOT};

    #[test]
    fn strings_borrow_unless_escaped() {
        let line = scan_line(r#"{"kind":"fir","t":7,"detail":"a\u0041\n\"","x":1}"#).unwrap();
        assert!(matches!(
            line.get(KIND_SLOT),
            Scalar::Str(Cow::Borrowed("fir"))
        ));
        assert_eq!(line.get(T_SLOT), &Scalar::UInt(7));
        let detail = KEYS.iter().position(|k| *k == "detail").unwrap();
        assert!(
            matches!(line.get(detail), Scalar::Str(Cow::Owned(s)) if s == "aA\n\""),
            "{:?}",
            line.get(detail)
        );
        assert_eq!(line.key_outside(u32::MAX), Some("x"));
        assert_eq!(line.key_outside(0b11), Some("detail"));
    }

    #[test]
    fn number_literals_classify_like_the_value_parser() {
        let check = |literal: &str, want: Option<Scalar<'static>>| {
            let text = format!("{{\"t\":{literal}}}");
            match (scan_line(&text), want) {
                (Ok(line), Some(want)) => assert_eq!(line.get(T_SLOT), &want, "{literal}"),
                (Err(_), None) => {}
                (got, want) => panic!("{literal}: got {got:?}, want {want:?}"),
            }
        };
        check("18446744073709551615", Some(Scalar::UInt(u64::MAX)));
        check(
            "18446744073709551616",
            Some(Scalar::Float(1.8446744073709552e19)),
        );
        check("-0", Some(Scalar::Int(0)));
        check("-3", Some(Scalar::Int(-3)));
        check("007", Some(Scalar::UInt(7)));
        check("1e3", Some(Scalar::Float(1000.0)));
        check("2.", Some(Scalar::Float(2.0)));
        check("-", None);
        check("1e", None);
        check("+1", None);
    }

    #[test]
    fn duplicates_keep_the_last_value_and_nesting_is_bounded() {
        let line = scan_line(r#" { "t" : [1,{"a":null}] , "t" : 2 } "#).unwrap();
        assert_eq!(line.get(T_SLOT), &Scalar::UInt(2));
        let deep = format!("{{\"t\":{}1{}}}", "[".repeat(500), "]".repeat(500));
        assert!(scan_line(&deep).unwrap_err().contains("too deep"));
        for bad in [
            "",
            "[1]",
            "{",
            "{\"t\":1,}",
            "{\"t\" 1}",
            "{\"t\":1} x",
            "{\"t\":\"\\q\"}",
        ] {
            assert!(scan_line(bad).is_err(), "accepted: {bad}");
        }
    }
}
