//! One borrowing pass over a trace line.
//!
//! A trace line is a flat JSON object over a small closed set of keys
//! ([`KEYS`]), so reading one needs no value tree: [`scan_line`] walks the
//! bytes once and leaves each schema key's value in a fixed slot of a
//! [`Line`]. Strings borrow from the input unless they contain an escape;
//! numbers are parsed from their text slice. The validator and the
//! importer are both thin readers of a `Line`.
//!
//! The grammar accepted is exactly that of the vendored `serde_json`
//! parser the readers were first written against, quirks included: any
//! key order, JSON whitespace anywhere, a repeated key keeps its last
//! value, leading zeros and a bare trailing `.` pass, and an unpaired
//! `\u` surrogate decodes to U+FFFD. The one difference: values nested
//! deeper than [`MAX_DEPTH`] are an error instead of unbounded recursion.

use std::borrow::Cow;

use crate::event::{KEYS, N_KEYS};

/// Deepest array/object nesting tolerated inside a line (nested values
/// are never schema fields; they are only skipped).
const MAX_DEPTH: u32 = 128;

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
    /// Strict unsigned view: an integer literal that is not negative.
    pub(crate) fn as_uint(&self) -> Option<u64> {
        match *self {
            Scalar::UInt(n) => Some(n),
            Scalar::Int(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// String view.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True for any number literal.
    pub(crate) fn is_number(&self) -> bool {
        matches!(self, Scalar::UInt(_) | Scalar::Int(_) | Scalar::Float(_))
    }

    /// Lenient unsigned read: also takes an integral, in-range float
    /// (`1e3` reads as 1000).
    pub(crate) fn to_u64(&self, field: &str) -> Result<u64, String> {
        match *self {
            Scalar::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => self.as_uint(),
        }
        .ok_or_else(|| format!("missing or non-uint field `{field}`"))
    }

    /// Lenient float read: any number literal.
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
        self.as_str()
            .ok_or_else(|| format!("missing or non-string field `{field}`"))
    }

    /// Optional string read: an absent key and `null` are both `None`.
    pub(crate) fn to_opt_str(&self, field: &str) -> Result<Option<&str>, String> {
        match self {
            Scalar::Absent | Scalar::Null => Ok(None),
            Scalar::Str(s) => Ok(Some(s)),
            _ => Err(format!("field `{field}` is neither a string nor null")),
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
    let mut s = Scanner { text, pos: 0 };
    s.skip_ws();
    if s.peek() != Some(b'{') {
        return Err("line is not a JSON object".to_string());
    }
    s.container(0, &mut |key, value| line.put(key, value))?;
    s.skip_ws();
    if s.pos != text.len() {
        return Err(s.err("trailing characters after JSON value"));
    }
    Ok(line)
}

struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, msg: &str) -> String {
        format!("not valid JSON: {msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    /// Walk the array or object starting at `pos`, handing each member of
    /// an object to `on_member`. Everything nested is checked and dropped.
    fn container(
        &mut self,
        depth: u32,
        on_member: &mut impl FnMut(Cow<'a, str>, Scalar<'a>),
    ) -> Result<(), String> {
        if depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let close = if self.peek() == Some(b'{') {
            b'}'
        } else {
            b']'
        };
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if close == b'}' {
                let key = self.string()?;
                self.skip_ws();
                if self.peek() != Some(b':') {
                    return Err(self.err("expected `:`"));
                }
                self.pos += 1;
                self.skip_ws();
                let value = self.value(depth)?;
                on_member(key, value);
            } else {
                self.value(depth)?;
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or a closing bracket")),
            }
        }
    }

    fn value(&mut self, depth: u32) -> Result<Scalar<'a>, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') if self.eat("null") => Ok(Scalar::Null),
            Some(b't') if self.eat("true") => Ok(Scalar::Other),
            Some(b'f') if self.eat("false") => Ok(Scalar::Other),
            Some(b'[' | b'{') => {
                self.container(depth + 1, &mut |_, _| {})?;
                Ok(Scalar::Other)
            }
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected `\"`"));
        }
        self.pos += 1;
        let text = self.text;
        // `run` starts the stretch not yet copied into `owned`; it and
        // `pos` only ever rest next to an ASCII byte, so slicing is safe.
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let code = text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    });
                    self.pos += 1;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<Scalar<'a>, String> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let literal = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = literal.parse::<u64>() {
                return Ok(Scalar::UInt(n));
            }
            if let Ok(n) = literal.parse::<i64>() {
                return Ok(Scalar::Int(n));
            }
        }
        literal
            .parse::<f64>()
            .map(Scalar::Float)
            .map_err(|_| self.err("invalid number"))
    }
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
