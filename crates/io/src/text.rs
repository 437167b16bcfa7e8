//! Streaming text parsers: plain edge lists, SNAP-style TSV, MatrixMarket coordinate.
//!
//! All three parsers stream the text through the reader's buffer, so only the edge
//! vector — never the text — is materialized in memory. Malformed input fails with an
//! [`IoError::Parse`] carrying the 1-based line (and field) position.
//!
//! The edge-list reader (plain and SNAP) parses complete lines straight out of the
//! reader's buffer and carries a line that straddles a refill in one reused buffer.
//! Each line takes one of two paths:
//!
//! * the **fast path** takes lines of the form `d{1,9} [ \t]+ d{1,9} ([ \t]+ d{1,9})?
//!   [ \t]* \r? \n` with a digit loop: no `String`, no UTF-8 pass, no `str::parse`.
//!   Nine digits cannot overflow a `u32`.
//! * the **exact path** takes every other line — comments, blank lines, signs, ids of
//!   ten or more digits, vertical tabs, form feeds, non-ASCII whitespace, invalid
//!   UTF-8, a fourth field, a last line without a newline. It validates UTF-8 (failing
//!   with the `InvalidData` error `BufRead::read_line` raises), then trims, splits on
//!   ASCII whitespace and parses each field with `str::parse`.
//!
//! The fast path accepts only lines the exact path parses to the same edge, so what
//! the reader accepts, the edges it returns and every error it raises are those of the
//! exact path alone; a differential test against a `read_line` oracle pins this at
//! several buffer sizes. MatrixMarket files are read line by line through `read_line`.
//!
//! Unweighted edges receive a deterministic pseudo-random weight in `0..=255` derived
//! from the endpoint pair (SplitMix64 finalizer), mirroring the paper's rule of
//! assigning random byte weights to originally-unweighted graphs while staying
//! reproducible across runs, machines and line orderings.

use crate::error::IoError;
use piccolo_graph::{Edge, EdgeList, VertexId, Weight};
use std::io::BufRead;
use std::path::Path;

/// The text formats the ingestion layer understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextFormat {
    /// Plain whitespace-separated `src dst [weight]` lines; `#`/`%` lines are comments.
    EdgeList,
    /// SNAP-style TSV: `#`-prefixed header comments, tab- or space-separated
    /// `src dst [weight]` rows. Parses identically to [`TextFormat::EdgeList`]; the
    /// variant exists so detection and tooling can name the source convention.
    SnapTsv,
    /// MatrixMarket `coordinate` format: `%%MatrixMarket matrix coordinate
    /// <pattern|integer|real> <general|symmetric>` header, `%` comments, a
    /// `rows cols nnz` size line, then 1-based `i j [value]` entries.
    MatrixMarket,
}

impl TextFormat {
    /// All formats, for tooling that enumerates them.
    pub const ALL: [TextFormat; 3] = [
        TextFormat::EdgeList,
        TextFormat::SnapTsv,
        TextFormat::MatrixMarket,
    ];

    /// Short machine-readable name (`edgelist`, `snap`, `mtx`).
    pub fn name(&self) -> &'static str {
        match self {
            TextFormat::EdgeList => "edgelist",
            TextFormat::SnapTsv => "snap",
            TextFormat::MatrixMarket => "mtx",
        }
    }

    /// Parses a format name as accepted by `graphtool --format` and the drivers.
    pub fn parse_name(name: &str) -> Option<TextFormat> {
        match name {
            "edgelist" | "el" | "txt" => Some(TextFormat::EdgeList),
            "snap" | "tsv" => Some(TextFormat::SnapTsv),
            "mtx" | "matrixmarket" => Some(TextFormat::MatrixMarket),
            _ => None,
        }
    }

    /// Guesses the format from a file extension (`.mtx`, `.tsv`/`.snap`, everything
    /// else defaults to the plain edge list, which also accepts SNAP files). A
    /// trailing compression extension (`.gz`, `.zst`) is stripped first, so
    /// `web.tsv.gz` detects as SNAP TSV.
    pub fn from_path(path: &Path) -> TextFormat {
        let path = crate::compress::strip_extension(path);
        match path.extension().and_then(|e| e.to_str()) {
            Some("mtx") => TextFormat::MatrixMarket,
            Some("tsv") | Some("snap") => TextFormat::SnapTsv,
            _ => TextFormat::EdgeList,
        }
    }
}

impl std::fmt::Display for TextFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic default weight in `0..=255` for an unweighted edge: a SplitMix64
/// finalizer over the packed endpoint pair, so the weight depends only on `(src, dst)`
/// — not on line order, file format or load count.
pub fn default_weight(src: VertexId, dst: VertexId) -> Weight {
    let mut z = (((src as u64) << 32) | dst as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) & 0xff) as Weight
}

/// Opens `path` and parses it as `format`, streaming the text through a buffered
/// reader. The vertex count is the maximum endpoint + 1 (or the declared dimension for
/// MatrixMarket). A gzip- or zstd-compressed file (recognized by magic bytes, see
/// [`crate::compress`]) is decompressed first and parses identically to its plain
/// form.
pub fn load_text(path: &Path, format: TextFormat) -> Result<EdgeList, IoError> {
    parse_source(path, format, crate::compress::decompress_file(path)?)
}

/// Parses `path` as `format`, from `inflated` when the caller has already decompressed
/// it (see [`crate::compress::decompress_file`]), else from the plain file through a
/// 1 MiB buffered reader.
pub(crate) fn parse_source(
    path: &Path,
    format: TextFormat,
    inflated: Option<Vec<u8>>,
) -> Result<EdgeList, IoError> {
    if let Some(bytes) = inflated {
        return read_text(std::io::Cursor::new(bytes), format, path);
    }
    let file = std::fs::File::open(path).map_err(|e| IoError::io(path, e))?;
    read_text(
        std::io::BufReader::with_capacity(1 << 20, file),
        format,
        path,
    )
}

/// Parses an already-open reader as `format`; `origin` labels error messages.
pub fn read_text<R: BufRead>(
    mut reader: R,
    format: TextFormat,
    origin: &Path,
) -> Result<EdgeList, IoError> {
    match format {
        TextFormat::EdgeList | TextFormat::SnapTsv => read_edge_lines(&mut reader, origin),
        TextFormat::MatrixMarket => read_matrix_market(&mut reader, origin),
    }
}

fn parse_vertex(field: &str, origin: &Path, line: u64, col: u64) -> Result<VertexId, IoError> {
    field.parse::<VertexId>().map_err(|_| {
        IoError::parse(
            origin,
            line,
            Some(col),
            format!("invalid vertex id '{field}' (expected an integer in 0..2^32-1)"),
        )
    })
}

fn parse_weight(field: &str, origin: &Path, line: u64, col: u64) -> Result<Weight, IoError> {
    field.parse::<Weight>().map_err(|_| {
        IoError::parse(
            origin,
            line,
            Some(col),
            format!("invalid weight '{field}' (expected a non-negative integer < 2^32)"),
        )
    })
}

/// Shared reader for the plain and SNAP edge-list formats.
///
/// Complete lines are parsed straight out of the reader's buffer (`fill_buf` /
/// `consume`); a line that straddles a refill is carried over in one reused buffer.
/// Every line goes to [`fast_line`] first and to [`exact_line`] when the fast path
/// declines it, so the accepted inputs, the edges and every error are those of the
/// exact path alone.
fn read_edge_lines<R: BufRead>(reader: &mut R, origin: &Path) -> Result<EdgeList, IoError> {
    let mut sink = EdgeSink {
        origin,
        edges: Vec::new(),
        max_vertex: 0,
        line_no: 0,
    };
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            // `read_line` retries interrupted reads; so does this loop.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(IoError::io(origin, e)),
        };
        let used = if carry.is_empty() {
            sink.lines(buf)?
        } else if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            // Complete the line carried over from the previous buffer.
            carry.extend_from_slice(&buf[..=nl]);
            sink.lines(&carry)?;
            carry.clear();
            nl + 1 + sink.lines(&buf[nl + 1..])?
        } else {
            0
        };
        carry.extend_from_slice(&buf[used..]);
        let len = buf.len();
        reader.consume(len);
    }
    if !carry.is_empty() {
        // A last line without a newline.
        sink.exact(&carry)?;
    }
    let EdgeSink {
        edges,
        max_vertex,
        line_no,
        ..
    } = sink;
    if max_vertex > VertexId::MAX as u64 {
        return Err(IoError::parse(
            origin,
            line_no,
            None,
            format!("vertex count {max_vertex} exceeds the u32 id space"),
        ));
    }
    EdgeList::try_from_edges(max_vertex as u32, edges).map_err(|e| IoError::graph(origin, e))
}

/// The edges [`read_edge_lines`] has parsed so far, and the number of lines read.
struct EdgeSink<'a> {
    origin: &'a Path,
    edges: Vec<Edge>,
    /// Largest endpoint + 1.
    max_vertex: u64,
    line_no: u64,
}

impl EdgeSink<'_> {
    fn push(&mut self, src: VertexId, dst: VertexId, weight: Weight) {
        self.max_vertex = self.max_vertex.max(src as u64 + 1).max(dst as u64 + 1);
        self.edges.push(Edge::new(src, dst, weight));
    }

    /// Parses the complete lines at the front of `buf` and returns the number of bytes
    /// they span; the bytes after the last `\n` are left to the caller.
    fn lines(&mut self, buf: &[u8]) -> Result<usize, IoError> {
        let mut pos = 0;
        loop {
            let rest = &buf[pos..];
            if let Some((src, dst, weight, len)) = fast_line(rest) {
                self.line_no += 1;
                self.push(src, dst, weight);
                pos += len;
            } else if let Some(nl) = rest.iter().position(|&b| b == b'\n') {
                self.exact(&rest[..=nl])?;
                pos += nl + 1;
            } else {
                return Ok(pos);
            }
        }
    }

    fn exact(&mut self, line: &[u8]) -> Result<(), IoError> {
        self.line_no += 1;
        if let Some((src, dst, weight)) = exact_line(line, self.origin, self.line_no)? {
            self.push(src, dst, weight);
        }
        Ok(())
    }
}

/// The fast path: a line of the form `d{1,9} [ \t]+ d{1,9} ([ \t]+ d{1,9})? [ \t]*
/// \r? \n` at the front of `bytes`, parsed with a digit loop — no `String`, no UTF-8
/// pass, no `str::parse`. Returns the edge and the length of the line including its
/// `\n`, or `None` for any other line, including one cut off by the end of `bytes`.
/// The exact path parses every line this one accepts to the same edge.
#[inline]
fn fast_line(bytes: &[u8]) -> Option<(VertexId, VertexId, Weight, usize)> {
    let (src, end) = digits(bytes, 0)?;
    let at = blanks(bytes, end);
    if at == end {
        return None;
    }
    let (dst, end) = digits(bytes, at)?;
    let mut at = blanks(bytes, end);
    let mut weight = None;
    if at > end {
        if let Some((w, end)) = digits(bytes, at) {
            weight = Some(w);
            at = blanks(bytes, end);
        }
    }
    if bytes.get(at) == Some(&b'\r') {
        at += 1;
    }
    if bytes.get(at) != Some(&b'\n') {
        return None;
    }
    let weight = weight.unwrap_or_else(|| default_weight(src, dst));
    Some((src, dst, weight, at + 1))
}

/// The value of the ASCII digits at `bytes[at..]` and the index after them; `None`
/// when there are none or more than nine, so the value cannot overflow a `u32`.
#[inline]
fn digits(bytes: &[u8], at: usize) -> Option<(u32, usize)> {
    let mut value = 0u32;
    let mut i = at;
    while let Some(&b) = bytes.get(i) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        if i - at == 9 {
            return None;
        }
        value = value * 10 + u32::from(digit);
        i += 1;
    }
    (i > at).then_some((value, i))
}

/// The index of the first byte at or after `at` that is neither a space nor a tab.
#[inline]
fn blanks(bytes: &[u8], mut at: usize) -> usize {
    while matches!(bytes.get(at), Some(b' ' | b'\t')) {
        at += 1;
    }
    at
}

/// The exact path, for every line the fast path declines: UTF-8 validation, `trim`,
/// `split_ascii_whitespace`, [`parse_vertex`] and [`parse_weight`]. `line_no` is the
/// 1-based number of `line`. Blank and comment lines yield `None`.
fn exact_line(
    line: &[u8],
    origin: &Path,
    line_no: u64,
) -> Result<Option<(VertexId, VertexId, Weight)>, IoError> {
    let text = std::str::from_utf8(line).map_err(|_| {
        // The error `BufRead::read_line` raises on the same bytes.
        IoError::io(
            origin,
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ),
        )
    })?;
    let line = text.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
        return Ok(None);
    }
    let mut fields = line.split_ascii_whitespace();
    let src = match fields.next() {
        // Unreachable in practice: a trimmed non-empty line has a first field.
        None => return Err(IoError::parse(origin, line_no, None, "empty edge line")),
        Some(f) => parse_vertex(f, origin, line_no, 1)?,
    };
    let dst = match fields.next() {
        Some(f) => parse_vertex(f, origin, line_no, 2)?,
        None => {
            return Err(IoError::parse(
                origin,
                line_no,
                None,
                "expected 'src dst [weight]', got 1 field",
            ))
        }
    };
    let weight = match fields.next() {
        Some(f) => parse_weight(f, origin, line_no, 3)?,
        None => default_weight(src, dst),
    };
    if let Some(extra) = fields.next() {
        return Err(IoError::parse(
            origin,
            line_no,
            Some(4),
            format!("unexpected trailing field '{extra}' (expected 'src dst [weight]')"),
        ));
    }
    Ok(Some((src, dst, weight)))
}

/// Value kind declared by a MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MtxField {
    Pattern,
    Integer,
    Real,
}

fn read_matrix_market<R: BufRead>(reader: &mut R, origin: &Path) -> Result<EdgeList, IoError> {
    let mut buf = String::new();
    let mut line_no: u64 = 0;

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let n = reader
        .read_line(&mut buf)
        .map_err(|e| IoError::io(origin, e))?;
    line_no += 1;
    if n == 0 {
        return Err(IoError::parse(origin, 1, None, "empty file"));
    }
    let header: Vec<&str> = buf.trim().split_ascii_whitespace().collect();
    if header.first().map(|h| h.to_ascii_lowercase()) != Some("%%matrixmarket".to_string()) {
        return Err(IoError::parse(
            origin,
            1,
            Some(1),
            "expected a '%%MatrixMarket' banner",
        ));
    }
    if header.len() != 5 || !header[1].eq_ignore_ascii_case("matrix") {
        return Err(IoError::parse(
            origin,
            1,
            None,
            "expected '%%MatrixMarket matrix coordinate <field> <symmetry>'",
        ));
    }
    if !header[2].eq_ignore_ascii_case("coordinate") {
        return Err(IoError::parse(
            origin,
            1,
            Some(3),
            format!("unsupported layout '{}' (only 'coordinate')", header[2]),
        ));
    }
    let field = match header[3].to_ascii_lowercase().as_str() {
        "pattern" => MtxField::Pattern,
        "integer" => MtxField::Integer,
        "real" => MtxField::Real,
        other => {
            return Err(IoError::parse(
                origin,
                1,
                Some(4),
                format!("unsupported value type '{other}' (pattern, integer or real)"),
            ))
        }
    };
    let symmetric = match header[4].to_ascii_lowercase().as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(IoError::parse(
                origin,
                1,
                Some(5),
                format!("unsupported symmetry '{other}' (general or symmetric)"),
            ))
        }
    };

    // Size line: rows cols nnz (after % comments).
    let (rows, cols, nnz) = loop {
        buf.clear();
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| IoError::io(origin, e))?;
        if n == 0 {
            return Err(IoError::parse(
                origin,
                line_no,
                None,
                "missing 'rows cols nnz' size line",
            ));
        }
        line_no += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        if fields.len() != 3 {
            return Err(IoError::parse(
                origin,
                line_no,
                None,
                format!("expected 'rows cols nnz', got {} field(s)", fields.len()),
            ));
        }
        let mut dims = [0u64; 3];
        for (i, f) in fields.iter().enumerate() {
            dims[i] = f.parse::<u64>().map_err(|_| {
                IoError::parse(
                    origin,
                    line_no,
                    Some(i as u64 + 1),
                    format!("invalid count '{f}' (expected a non-negative integer)"),
                )
            })?;
        }
        break (dims[0], dims[1], dims[2]);
    };
    let num_vertices = rows.max(cols);
    if num_vertices > VertexId::MAX as u64 {
        return Err(IoError::parse(
            origin,
            line_no,
            None,
            format!("dimension {num_vertices} exceeds the u32 id space"),
        ));
    }

    // Entries: nnz lines of `i j [value]`, 1-based.
    let mut edges: Vec<Edge> = Vec::with_capacity(nnz.min(1 << 24) as usize);
    let mut seen: u64 = 0;
    loop {
        buf.clear();
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| IoError::io(origin, e))?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        seen += 1;
        if seen > nnz {
            return Err(IoError::parse(
                origin,
                line_no,
                None,
                format!("more than the declared {nnz} entries"),
            ));
        }
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        let expected = if field == MtxField::Pattern { 2 } else { 3 };
        if fields.len() != expected {
            return Err(IoError::parse(
                origin,
                line_no,
                None,
                format!("expected {expected} field(s), got {}", fields.len()),
            ));
        }
        let endpoint = |idx: usize, bound: u64| -> Result<VertexId, IoError> {
            let raw = fields[idx].parse::<u64>().map_err(|_| {
                IoError::parse(
                    origin,
                    line_no,
                    Some(idx as u64 + 1),
                    format!(
                        "invalid index '{}' (expected a positive integer)",
                        fields[idx]
                    ),
                )
            })?;
            if raw == 0 || raw > bound {
                return Err(IoError::parse(
                    origin,
                    line_no,
                    Some(idx as u64 + 1),
                    format!("index {raw} out of range 1..={bound}"),
                ));
            }
            Ok((raw - 1) as VertexId)
        };
        let src = endpoint(0, rows)?;
        let dst = endpoint(1, cols)?;
        let weight = match field {
            MtxField::Pattern => default_weight(src, dst),
            MtxField::Integer => parse_weight(fields[2], origin, line_no, 3)?,
            MtxField::Real => {
                let v = fields[2].parse::<f64>().map_err(|_| {
                    IoError::parse(
                        origin,
                        line_no,
                        Some(3),
                        format!("invalid value '{}'", fields[2]),
                    )
                })?;
                if !v.is_finite() || v < 0.0 || v > Weight::MAX as f64 {
                    return Err(IoError::parse(
                        origin,
                        line_no,
                        Some(3),
                        format!("value {v} out of the representable weight range"),
                    ));
                }
                v.round() as Weight
            }
        };
        edges.push(Edge::new(src, dst, weight));
        if symmetric && src != dst {
            edges.push(Edge::new(dst, src, weight));
        }
    }
    if seen < nnz {
        return Err(IoError::parse(
            origin,
            line_no,
            None,
            format!("truncated: header declares {nnz} entries, found {seen}"),
        ));
    }
    EdgeList::try_from_edges(num_vertices as u32, edges).map_err(|e| IoError::graph(origin, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_graph::rng::Rng64;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn origin() -> PathBuf {
        PathBuf::from("test-input")
    }

    fn parse(text: &str, format: TextFormat) -> Result<EdgeList, IoError> {
        read_text(Cursor::new(text), format, &origin())
    }

    #[test]
    fn plain_edge_list_with_and_without_weights() {
        let el = parse("0 1 10\n2 0\n# comment\n\n1 2 7\n", TextFormat::EdgeList).unwrap();
        assert_eq!(el.num_vertices(), 3);
        assert_eq!(el.num_edges(), 3);
        assert_eq!(el.edges()[0], Edge::new(0, 1, 10));
        assert_eq!(el.edges()[1].weight, default_weight(2, 0));
    }

    #[test]
    fn snap_tsv_skips_hash_comments() {
        let text = "# Directed graph\n# Nodes: 3 Edges: 2\n0\t1\n1\t2\n";
        let el = parse(text, TextFormat::SnapTsv).unwrap();
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.num_vertices(), 3);
    }

    #[test]
    fn matrix_market_general_integer() {
        let text = "%%MatrixMarket matrix coordinate integer general\n\
                    % a comment\n3 3 2\n1 2 5\n3 1 9\n";
        let el = parse(text, TextFormat::MatrixMarket).unwrap();
        assert_eq!(el.num_vertices(), 3);
        assert_eq!(el.edges()[0], Edge::new(0, 1, 5));
        assert_eq!(el.edges()[1], Edge::new(2, 0, 9));
    }

    #[test]
    fn matrix_market_symmetric_pattern_mirrors_edges() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n";
        let el = parse(text, TextFormat::MatrixMarket).unwrap();
        // (2,1) mirrors to (1,2); the diagonal (3,3) does not.
        assert_eq!(el.num_edges(), 3);
        assert_eq!(el.edges()[0].weight, el.edges()[1].weight);
    }

    #[test]
    fn matrix_market_real_rounds() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.7\n";
        let el = parse(text, TextFormat::MatrixMarket).unwrap();
        assert_eq!(el.edges()[0].weight, 4);
    }

    #[test]
    fn errors_carry_line_and_field_context() {
        let err = parse("0 1\nx 2\n", TextFormat::EdgeList).unwrap_err();
        match err {
            IoError::Parse { line, col, .. } => {
                assert_eq!(line, 2);
                assert_eq!(col, Some(1));
            }
            other => panic!("expected a parse error, got {other}"),
        }
        assert!(format!("{}", parse("0", TextFormat::EdgeList).unwrap_err()).contains(":1:"));
    }

    #[test]
    fn rejects_malformed_matrix_market() {
        // Not a MatrixMarket banner.
        assert!(parse("0 1\n", TextFormat::MatrixMarket).is_err());
        // Truncated: fewer entries than declared.
        let trunc = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n";
        let err = parse(trunc, TextFormat::MatrixMarket).unwrap_err();
        assert!(format!("{err}").contains("truncated"), "{err}");
        // Out-of-range 1-based index.
        let oob = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n4 1\n";
        assert!(parse(oob, TextFormat::MatrixMarket).is_err());
        // Zero is out of range in a 1-based format.
        let zero = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 1\n";
        assert!(parse(zero, TextFormat::MatrixMarket).is_err());
        // Negative counts are rejected.
        let neg = "%%MatrixMarket matrix coordinate pattern general\n3 3 -1\n";
        assert!(parse(neg, TextFormat::MatrixMarket).is_err());
        // Extra entries beyond nnz are rejected.
        let extra = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n";
        assert!(parse(extra, TextFormat::MatrixMarket).is_err());
    }

    #[test]
    fn rejects_negative_and_overflowing_ids() {
        assert!(parse("-1 2\n", TextFormat::EdgeList).is_err());
        assert!(parse("0 4294967296\n", TextFormat::EdgeList).is_err());
        assert!(parse("0 1 -3\n", TextFormat::EdgeList).is_err());
        assert!(parse("0 1 2 3\n", TextFormat::EdgeList).is_err());
    }

    /// The edge-list reader before the fast path: `read_line` into a `String`, then
    /// the per-line logic that is now [`exact_line`]. The differential test's oracle.
    fn oracle_read_edge_lines<R: BufRead>(
        reader: &mut R,
        origin: &Path,
    ) -> Result<EdgeList, IoError> {
        let mut edges: Vec<Edge> = Vec::new();
        let mut max_vertex: u64 = 0; // max endpoint + 1
        let mut buf = String::new();
        let mut line_no: u64 = 0;
        loop {
            buf.clear();
            let n = reader
                .read_line(&mut buf)
                .map_err(|e| IoError::io(origin, e))?;
            if n == 0 {
                break;
            }
            line_no += 1;
            let line = buf.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            let mut fields = line.split_ascii_whitespace();
            let src = match fields.next() {
                None => return Err(IoError::parse(origin, line_no, None, "empty edge line")),
                Some(f) => parse_vertex(f, origin, line_no, 1)?,
            };
            let dst = match fields.next() {
                Some(f) => parse_vertex(f, origin, line_no, 2)?,
                None => {
                    return Err(IoError::parse(
                        origin,
                        line_no,
                        None,
                        "expected 'src dst [weight]', got 1 field",
                    ))
                }
            };
            let weight = match fields.next() {
                Some(f) => parse_weight(f, origin, line_no, 3)?,
                None => default_weight(src, dst),
            };
            if let Some(extra) = fields.next() {
                return Err(IoError::parse(
                    origin,
                    line_no,
                    Some(4),
                    format!("unexpected trailing field '{extra}' (expected 'src dst [weight]')"),
                ));
            }
            max_vertex = max_vertex.max(src as u64 + 1).max(dst as u64 + 1);
            edges.push(Edge::new(src, dst, weight));
        }
        if max_vertex > VertexId::MAX as u64 {
            return Err(IoError::parse(
                origin,
                line_no,
                None,
                format!("vertex count {max_vertex} exceeds the u32 id space"),
            ));
        }
        EdgeList::try_from_edges(max_vertex as u32, edges).map_err(|e| IoError::graph(origin, e))
    }

    /// Seeded edge-list documents: mostly canonical lines, with each odd construct
    /// (signs, long ids, `\r`, `\x0B`, `\x0C`, U+00A0, U+3000, invalid UTF-8, comments,
    /// 1 to 4 fields, no final newline) drawn with a per-document probability.
    struct DocGen {
        rng: Rng64,
        odd: f64,
    }

    impl DocGen {
        fn pick<'a>(&mut self, items: &[&'a [u8]]) -> &'a [u8] {
            items[self.rng.gen_index(items.len())]
        }

        /// `min` to `min + spread - 1` random digits.
        fn digits(&mut self, out: &mut Vec<u8>, min: u32, spread: u32) {
            let n = min + self.rng.gen_u32_below(spread);
            for _ in 0..n {
                out.push(b'0' + self.rng.gen_u32_below(10) as u8);
            }
        }

        fn field(&mut self, out: &mut Vec<u8>) {
            if !self.rng.gen_bool(self.odd) {
                let spread = if self.rng.gen_bool(0.8) { 3 } else { 9 };
                return self.digits(out, 1, spread);
            }
            match self.rng.gen_u32_below(6) {
                0 => {
                    out.extend_from_slice(self.pick(&[
                        b"4294967295",
                        b"4294967296",
                        b"999999999",
                        b"1000000000",
                        b"0000000000",
                        b"00000000001",
                    ]));
                }
                1 => {
                    out.extend_from_slice(self.pick(&[b"+", b"-", b"++", b"+-"]));
                    self.digits(out, 1, 3);
                }
                2 => {
                    let zeros = 1 + self.rng.gen_u32_below(9);
                    out.resize(out.len() + zeros as usize, b'0');
                    self.digits(out, 1, 3);
                }
                3 => self.digits(out, 9, 3),
                4 => {
                    self.digits(out, 1, 1);
                    out.extend_from_slice(self.pick(&[b"x", b".5", b"\xff", b"\xc3", b"#", b"%"]));
                }
                _ => out.extend_from_slice(self.pick(&[b"x", b"", b"#", b"%", b"\xc2\xa0"])),
            }
        }

        fn sep(&mut self, out: &mut Vec<u8>) {
            if !self.rng.gen_bool(self.odd) {
                let n = 1 + self.rng.gen_index(3);
                for _ in 0..n {
                    out.push(if self.rng.gen_bool(0.7) { b' ' } else { b'\t' });
                }
                return;
            }
            out.extend_from_slice(self.pick(&[
                b"\r",
                b"\x0b",
                b"\x0c",
                b"\xc2\xa0",
                b"\xe3\x80\x80",
                b"\xff",
                b" \r ",
                b"\t\x0b",
            ]));
        }

        fn line(&mut self, out: &mut Vec<u8>) {
            if self.rng.gen_bool(self.odd) {
                match self.rng.gen_u32_below(4) {
                    0 => out.extend_from_slice(self.pick(&[b"#", b"%", b"# c", b"%%x \xff"])),
                    1 => self.sep(out),
                    2 => {}
                    _ => {
                        self.sep(out);
                        self.field(out);
                    }
                }
            } else {
                let fields = match self.rng.gen_u32_below(20) {
                    0 => 1,
                    1 => 4,
                    n => 2 + n % 2,
                };
                for i in 0..fields {
                    if i > 0 {
                        self.sep(out);
                    }
                    self.field(out);
                }
                if self.rng.gen_bool(0.2) {
                    self.sep(out);
                }
            }
        }

        fn doc(&mut self) -> Vec<u8> {
            self.odd = [0.0, 0.02, 0.1, 0.3][self.rng.gen_index(4)];
            let mut out = Vec::new();
            let lines = self.rng.gen_index(7);
            for i in 0..lines {
                self.line(&mut out);
                if i + 1 == lines && self.rng.gen_bool(0.2) {
                    break; // no final newline
                }
                if self.rng.gen_bool(self.odd) {
                    out.extend_from_slice(self.pick(&[b"\r\n", b"\r\r\n", b"\x0b\n"]));
                } else {
                    out.push(b'\n');
                }
            }
            out
        }
    }

    /// A result with the error reduced to its variant, io kind and `Display` text.
    fn outcome(r: Result<EdgeList, IoError>) -> Result<EdgeList, String> {
        r.map_err(|e| {
            let variant = match &e {
                IoError::Io { source, .. } => format!("io {:?}", source.kind()),
                IoError::Parse { .. } => "parse".to_string(),
                IoError::Format { .. } => "format".to_string(),
                IoError::Graph { .. } => "graph".to_string(),
            };
            format!("{variant}: {e}")
        })
    }

    #[test]
    fn edge_list_reader_matches_the_line_oracle_at_every_buffer_size() {
        let mut gen = DocGen {
            rng: Rng64::seed_from_u64(0x5eed_0016),
            odd: 0.0,
        };
        let (mut accepted, mut rejected) = (0, 0);
        for doc_index in 0..20_000 {
            let doc = gen.doc();
            let want = outcome(oracle_read_edge_lines(&mut &doc[..], &origin()));
            match &want {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
            for capacity in [1, 2, 3, 5, 16, 65_536] {
                let reader = std::io::BufReader::with_capacity(capacity, &doc[..]);
                let got = outcome(read_text(reader, TextFormat::EdgeList, &origin()));
                assert_eq!(
                    got,
                    want,
                    "document {doc_index} at capacity {capacity}: {:?}",
                    String::from_utf8_lossy(&doc)
                );
            }
        }
        // Both outcomes must be well represented, or the grammar has drifted.
        assert!(
            accepted > 600 && rejected > 600,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn format_names_round_trip() {
        for f in TextFormat::ALL {
            assert_eq!(TextFormat::parse_name(f.name()), Some(f));
            assert_eq!(format!("{f}"), f.name());
        }
        assert_eq!(TextFormat::parse_name("bogus"), None);
        assert_eq!(
            TextFormat::from_path(Path::new("a/b.mtx")),
            TextFormat::MatrixMarket
        );
        assert_eq!(
            TextFormat::from_path(Path::new("a/b.tsv")),
            TextFormat::SnapTsv
        );
        assert_eq!(
            TextFormat::from_path(Path::new("a/b.txt")),
            TextFormat::EdgeList
        );
    }

    #[test]
    fn default_weight_is_deterministic_and_byte_sized() {
        for (s, d) in [(0u32, 1u32), (7, 7), (123_456, 654_321)] {
            let w = default_weight(s, d);
            assert_eq!(w, default_weight(s, d));
            assert!(w <= 255);
        }
        assert_ne!(default_weight(0, 1), default_weight(1, 0));
    }
}
