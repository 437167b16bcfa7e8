//! Checksummed single-line records — the shared line codec.
//!
//! One format serves every line-framed record: the campaign run journal, the
//! coordinator's wire frames and the `piccolo-events/v1` event log written by
//! [`crate::sink::JsonlSink`]:
//!
//! ```text
//! <16 lowercase hex digits of FNV-1a-64 over the payload bytes> <payload>\n
//! ```
//!
//! The payload is an opaque single-line string (usually compact JSON). A
//! reader verifies each line's checksum and **ignores** lines that fail — a
//! torn final line from a killed process, or a flipped byte anywhere, costs
//! exactly the entries it touches, never the whole file. Appends are atomic per
//! line at the OS level for the short lines this pipeline writes (`O_APPEND` +
//! one `write`).

use crate::hash::fnv64;
use std::io::{BufRead, Write};
use std::path::Path;

/// Width of the hex checksum prefix (FNV-1a 64 in lowercase hex).
const CHECKSUM_HEX: usize = 16;

/// Encodes one line (without trailing newline): checksum prefix + payload.
///
/// # Panics
///
/// Panics if `payload` contains a newline — an entry is one line by contract
/// (both the campaign layer and the event sink write compact JSON, which never
/// contains raw newlines).
#[must_use]
pub fn encode_line(payload: &str) -> String {
    assert!(
        !payload.contains('\n') && !payload.contains('\r'),
        "journal payloads must be single-line"
    );
    format!("{:016x} {payload}", fnv64(payload.as_bytes()))
}

/// Decodes one line: returns the payload if the checksum verifies, `None` for
/// anything malformed (wrong prefix length, bad hex, checksum mismatch,
/// missing separator). Trailing `\n`/`\r\n` is tolerated.
#[must_use]
pub fn decode_line(line: &str) -> Option<&str> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.len() < CHECKSUM_HEX + 1 || line.as_bytes()[CHECKSUM_HEX] != b' ' {
        return None;
    }
    let (hex, rest) = line.split_at(CHECKSUM_HEX);
    let payload = &rest[1..];
    // The encoder emits lowercase hex only; reject uppercase so a case-flipped
    // checksum byte (a single-bit flip on an ASCII letter) cannot still verify.
    if !hex
        .bytes()
        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    let stored = u64::from_str_radix(hex, 16).ok()?;
    (stored == fnv64(payload.as_bytes())).then_some(payload)
}

/// Appends one encoded line (payload + checksum + `\n`) to `out` in a single write.
///
/// # Errors
///
/// Propagates the underlying I/O error from the single `write_all`.
pub fn append_line(out: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let mut line = encode_line(payload);
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Result of scanning a checksummed-line file: the payloads whose checksums
/// verified, in file order, plus the number of lines dropped as corrupt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalLines {
    /// Verified payloads, in file order.
    pub payloads: Vec<String>,
    /// Lines whose checksum (or framing) did not verify — ignored, never fatal.
    pub corrupt: usize,
}

/// Reads a checksummed-line file, verifying every line. Corrupt lines — a torn
/// final line from a killed writer, a checksum mismatch, or bytes that are not
/// valid UTF-8 (a flipped high bit must cost one line, never the whole file) —
/// are counted and skipped; empty lines are ignored outright.
///
/// # Errors
///
/// I/O errors (other than the caller-handled missing file) propagate.
pub fn read_lines(path: &Path) -> std::io::Result<JournalLines> {
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::new(file);
    let mut out = JournalLines::default();
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Ok(out);
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            out.corrupt += 1;
            continue;
        };
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        match decode_line(line) {
            Some(payload) => out.payloads.push(payload.to_string()),
            None => out.corrupt += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_reject() {
        let line = encode_line(r#"{"unit":3}"#);
        assert_eq!(decode_line(&line), Some(r#"{"unit":3}"#));
        assert_eq!(decode_line(&format!("{line}\n")), Some(r#"{"unit":3}"#));
        let mut bad = line.clone().into_bytes();
        bad[0] = if bad[0] == b'0' { b'1' } else { b'0' };
        assert_eq!(decode_line(std::str::from_utf8(&bad).unwrap()), None);
        let mut bad = line.into_bytes();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(decode_line(std::str::from_utf8(&bad).unwrap()), None);
        assert_eq!(decode_line("not a journal line"), None);
        assert_eq!(decode_line(""), None);
        assert_eq!(decode_line("0123456789abcdef"), None);
    }

    /// The exact bytes of one line, recorded before the codec and its hasher
    /// moved into this crate: journals and event logs written by any earlier build
    /// must keep verifying.
    #[test]
    fn encode_line_output_is_pinned() {
        let payload = r#"{"unit":7,"result":"ok"}"#;
        let line = encode_line(payload);
        assert_eq!(line, r#"ca3744f604e7de2d {"unit":7,"result":"ok"}"#);
        assert_eq!(decode_line(&line), Some(payload));
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn multiline_payloads_are_rejected() {
        let _ = encode_line("a\nb");
    }

    #[test]
    fn read_lines_skips_corrupt_entries() {
        let dir = std::env::temp_dir().join(format!("piccolo-obs-lines-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.log");
        {
            let mut f = std::fs::File::create(&path).unwrap();
            append_line(&mut f, "first").unwrap();
            f.write_all(b"garbage line\n").unwrap();
            append_line(&mut f, "second").unwrap();
            let mut flipped = encode_line("bitrot").into_bytes();
            flipped[20] |= 0x80;
            flipped.push(b'\n');
            f.write_all(&flipped).unwrap();
            append_line(&mut f, "third").unwrap();
            f.write_all(encode_line("torn").as_bytes().split_at(8).0)
                .unwrap();
        }
        let lines = read_lines(&path).unwrap();
        assert_eq!(lines.payloads, ["first", "second", "third"]);
        assert_eq!(lines.corrupt, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
