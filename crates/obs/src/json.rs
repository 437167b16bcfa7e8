//! The workspace's JSON module: a value type, a deterministic writer and a
//! strict, depth-bounded parser.
//!
//! The workspace has no crates.io dependencies, so instead of `serde_json` every
//! machine-readable document goes through this module: `results.json`,
//! `BENCH.json`, `baselines.json`, run-journal lines, the `piccolo-events/v1`
//! event log and the `piccolo-metrics/v1` document. It lives in `piccolo-obs`,
//! the lowest crate that needs it, and `piccolo` re-exports it as
//! `piccolo::json`. It covers:
//!
//! * a [`Json`] value tree with ordered object keys (so output is deterministic),
//! * a writer ([`Json::to_string`] / [`Json::write`]) whose number formatting is
//!   bit-reproducible across runs — required for the sequential-vs-parallel parity
//!   check in CI, which byte-compares two `results.json` files,
//! * `u64` quantities that may exceed 2^53 carried as decimal *strings*, the
//!   workspace's lossless number convention ([`Json::as_u64`] reads both carriers;
//!   see `docs/results-schema.md`),
//! * a recursive-descent parser ([`parse`]) for text that arrives from files and
//!   sockets. It never panics, rejects raw control characters inside strings
//!   (RFC 8259 §7), and rejects documents nested deeper than 128 levels, so a
//!   hostile document cannot exhaust a thread's stack.
//!
//! # Example
//!
//! ```
//! use piccolo_obs::json::{parse, Json};
//!
//! let v = Json::obj([("speedup", Json::Num(2.5)), ("name", Json::str("fig10"))]);
//! let text = v.to_string();
//! assert_eq!(text, r#"{"speedup":2.5,"name":"fig10"}"#);
//! let back = parse(&text).unwrap();
//! assert_eq!(back.get("speedup").and_then(Json::as_f64), Some(2.5));
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The deepest document the
/// workspace writes (`results.json`) nests 5 levels.
const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values serialize as `null` (JSON has no NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered list of key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from an iterator of pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object: the first occurrence of a duplicated key;
    /// `None` for other variants or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Reads a `u64` in either carrier: a decimal string (the lossless codec
    /// for values that may exceed 2^53) or a plain non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => s.parse().ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes the value into `out` (compact form, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes the value to a compact string.
    #[expect(
        clippy::inherent_to_string,
        reason = "the writer appends to a String; a Display impl would add a second path to the same bytes"
    )]
    #[must_use]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// Writes `n` deterministically: integers below 9e15 without a fraction, every other
/// finite value via Rust's shortest-round-trip `Display` (never exponent notation,
/// always bit-stable for a given value), non-finite values as `null`.
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        // Within the exactly-representable integer range: print as an integer.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a JSON string, escaping quotes, backslashes and every control
/// character.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document. Rejects trailing garbage.
///
/// # Errors
///
/// The first syntax error, with its byte offset.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes the byte `b` or fails.
    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than 128 levels"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Reads a string, copying each run of plain bytes at once and decoding
    /// escapes one at a time.
    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end of the `&str` input, so it
            // holds whole characters and the check never fails.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in this writer's output; they
                            // (and any other invalid scalar) read back as U+FFFD.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_all_value_kinds() {
        let v = Json::obj([
            ("a", Json::Null),
            ("b", Json::Bool(true)),
            ("c", Json::Num(1.5)),
            ("d", Json::str("x\"y\n")),
            ("e", Json::Arr(vec![Json::Num(1.0), Json::Num(-2.0)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":null,"b":true,"c":1.5,"d":"x\"y\n","e":[1,-2]}"#
        );
    }

    #[test]
    fn number_formatting_is_deterministic_and_roundtrips() {
        for n in [
            0.0,
            1.0,
            -1.0,
            0.5,
            1e-7,
            123456789.123,
            9.0e15,
            std::f64::consts::PI,
        ] {
            let s = Json::Num(n).to_string();
            let again = Json::Num(n).to_string();
            assert_eq!(s, again);
            let parsed = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(parsed, n, "{s} should round-trip");
        }
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn numbers_follow_the_workspace_convention() {
        let mut s = String::new();
        write_number(&mut s, 3.0);
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "3null");
        let mut s = String::new();
        write_number(&mut s, 0.15);
        assert_eq!(s, "0.15");
        assert_eq!(parse("0.15").unwrap(), Json::Num(0.15));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#" { "figures": [ {"name":"fig10", "points":[{"label":"GM","value":2.25}]} ],
                        "ok": true, "n": null } "#;
        let v = parse(doc).unwrap();
        let figures = v.get("figures").unwrap().as_array().unwrap();
        assert_eq!(figures.len(), 1);
        assert_eq!(figures[0].get("name").and_then(Json::as_str), Some("fig10"));
        let pts = figures[0].get("points").unwrap().as_array().unwrap();
        assert_eq!(pts[0].get("value").and_then(Json::as_f64), Some(2.25));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1,2,]x",
            "{}x",
            r#"{"a" 1}"#,
            r#"{"a":}"#,
            "01a",
            "-",
            "1e",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// String-level malformations, including raw control characters: RFC 8259 §7
    /// requires them escaped, and the writer always escapes them.
    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "\"unterminated",
            "\"a\\",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"a\u{0}b\"",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "{\"k\u{1f}\":1}",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len(), "{bad:?}: {err}");
        }
        assert_eq!(
            parse("\"a\u{1}\"").unwrap_err().message,
            "raw control character in string"
        );
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first_occurrence() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Json::Num(1.0)));
        // Both pairs survive in order, so a rewrite is byte-identical.
        assert_eq!(v.to_string(), r#"{"k":1,"k":2}"#);
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&too_deep).unwrap_err().offset, MAX_DEPTH);
        // Hostile inputs that overflow the stack of an unbounded recursive parser.
        for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert!(parse(&hostile).is_err());
        }
    }

    #[test]
    fn roundtrip_through_writer_and_parser() {
        let v = Json::obj([
            ("scale", Json::obj([("shift", Json::Num(12.0))])),
            (
                "values",
                Json::Arr(vec![Json::Num(0.125), Json::str("α β"), Json::Bool(false)]),
            ),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn roundtrips_compact_documents() {
        let doc = r#"{"a":1,"b":"x\ny","c":[true,null,-2.5],"d":{"k":"18446744073709551615"}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(
            v.get("d").and_then(|d| d.get("k")).and_then(Json::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn escapes_control_characters() {
        let s = Json::str("\u{1}").to_string();
        assert_eq!(s, "\"\\u0001\"");
        assert_eq!(parse(&s).unwrap(), Json::str("\u{1}"));
    }

    #[test]
    fn control_characters_escape_and_parse_back() {
        let v = Json::str("a\u{1}b\"c\\d");
        let text = v.to_string();
        assert_eq!(text, "\"a\\u0001b\\\"c\\\\d\"");
        assert_eq!(parse(&text).unwrap(), v);
        // Every control character, written and read back.
        let all: String = (0u8..0x20).map(char::from).collect();
        assert_eq!(
            parse(&Json::str(all.as_str()).to_string()).unwrap(),
            Json::str(all)
        );
    }

    #[test]
    fn u64_reads_both_carriers() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse(r#""12""#).unwrap().as_u64(), Some(12));
    }
}
