//! The `.pcsr` binary CSR snapshot format (version 1).
//!
//! A `.pcsr` file is a deterministic little-endian serialization of a
//! [`piccolo_graph::Csr`]; writing the same graph always produces the same bytes, so
//! snapshot files can be byte-compared in CI. The full byte-for-byte specification
//! lives in `docs/pcsr-format.md`; the layout is:
//!
//! ```text
//! offset  size                 contents
//! 0       4                    magic "PCSR"
//! 4       4                    format version, u32 LE (currently 1)
//! 8       8                    num_vertices, u64 LE
//! 16      8                    num_edges, u64 LE
//! 24      8                    FNV-1a 64 checksum of bytes 0..24, u64 LE
//! 32      (V+1)*8              row_offsets, u64 LE each
//! ..      8                    FNV-1a 64 checksum of the row_offsets bytes
//! ..      E*4                  col_indices, u32 LE each
//! ..      8                    FNV-1a 64 checksum of the col_indices bytes
//! ..      E*4                  weights, u32 LE each
//! ..      8                    FNV-1a 64 checksum of the weights bytes
//! EOF                          (trailing bytes are an error)
//! ```
//!
//! The reader verifies every checksum and then routes the arrays through
//! [`Csr::try_from_raw`], so a corrupt or hand-edited snapshot fails with a typed
//! [`IoError`] — never a panic, never a silently wrong graph.

use crate::bytes::{le_u32, le_u64};
use crate::error::IoError;
use piccolo_graph::Csr;
use piccolo_obs::hash::{update_pair, Fnv64};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic, the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"PCSR";
/// Current format version.
pub const VERSION: u32 = 1;

/// Cap on the vertex/edge counts a header may declare (2^40). Headers are
/// checksummed, so this only guards against truly pathological hand-written files
/// asking the reader to allocate petabytes.
const MAX_COUNT: u64 = 1 << 40;

/// Serializes `graph` into `w` in the layout above. The output is deterministic:
/// identical graphs produce identical bytes.
pub fn write_pcsr<W: Write>(mut w: W, graph: &Csr) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    header.extend_from_slice(&graph.num_edges().to_le_bytes());
    let mut hasher = Fnv64::new();
    hasher.update(&header);
    header.extend_from_slice(&hasher.finish().to_le_bytes());
    w.write_all(&header)?;

    let mut hasher = Fnv64::new();
    let row_offsets = graph.row_offsets().iter().map(|v| v.to_le_bytes());
    write_elems(&mut w, row_offsets, |bytes| hasher.update(bytes))?;
    w.write_all(&hasher.finish().to_le_bytes())?;
    let (col_indices, weights) = (graph.col_indices(), graph.weights());
    let (ci_sum, w_sum) = edge_checksums(col_indices, weights);
    write_elems(&mut w, col_indices.iter().map(|v| v.to_le_bytes()), |_| {})?;
    w.write_all(&ci_sum.to_le_bytes())?;
    write_elems(&mut w, weights.iter().map(|v| v.to_le_bytes()), |_| {})?;
    w.write_all(&w_sum.to_le_bytes())?;
    Ok(())
}

/// Streams section bytes to `w` through a 64 KiB buffer, showing each buffered chunk
/// to `inspect` before writing it.
fn write_elems<W: Write, const N: usize>(
    w: &mut W,
    elems: impl Iterator<Item = [u8; N]>,
    mut inspect: impl FnMut(&[u8]),
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(64 * 1024);
    for bytes in elems {
        buf.extend_from_slice(&bytes);
        if buf.len() >= 64 * 1024 {
            inspect(&buf);
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    inspect(&buf);
    w.write_all(&buf)
}

/// The checksums of the `col_indices` and `weights` sections, the FNV-1a of their
/// little-endian bytes, in one two-lane pass ([`update_pair`]) over 16 KiB chunks.
fn edge_checksums(col_indices: &[u32], weights: &[u32]) -> (u64, u64) {
    const CHUNK: usize = 4096;
    fn le_chunk<'a>(elems: &[u32], i: usize, buf: &'a mut [u8; CHUNK * 4]) -> &'a [u8] {
        let rest = elems.get(i * CHUNK..).unwrap_or_default();
        let elems = &rest[..rest.len().min(CHUNK)];
        for (out, v) in buf.chunks_exact_mut(4).zip(elems) {
            out.copy_from_slice(&v.to_le_bytes());
        }
        &buf[..elems.len() * 4]
    }
    let (mut ci, mut w) = (Fnv64::new(), Fnv64::new());
    let (mut ci_buf, mut w_buf) = ([0u8; CHUNK * 4], [0u8; CHUNK * 4]);
    for i in 0..col_indices.len().max(weights.len()).div_ceil(CHUNK) {
        let (a, b) = (
            le_chunk(col_indices, i, &mut ci_buf),
            le_chunk(weights, i, &mut w_buf),
        );
        update_pair(&mut ci, &mut w, a, b);
    }
    (ci.finish(), w.finish())
}

/// Writes `graph` to `path` (buffered), creating or truncating the file.
pub fn save_pcsr(path: &Path, graph: &Csr) -> Result<(), IoError> {
    let file = std::fs::File::create(path).map_err(|e| IoError::io(path, e))?;
    let mut w = std::io::BufWriter::new(file);
    write_pcsr(&mut w, graph).map_err(|e| IoError::io(path, e))?;
    w.flush().map_err(|e| IoError::io(path, e))
}

/// The validated counts from a `.pcsr` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcsrHeader {
    /// Declared vertex count (fits the `u32` id space).
    pub num_vertices: u64,
    /// Declared edge count.
    pub num_edges: u64,
}

impl PcsrHeader {
    /// Exact file size a snapshot with these counts must have.
    pub fn expected_len(&self) -> u64 {
        32 + (self.num_vertices + 1) * 8 + 8 + self.num_edges * 4 + 8 + self.num_edges * 4 + 8
    }
}

/// Parses and validates the 32-byte header: magic, version, checksum, count bounds.
pub fn parse_header(header: &[u8], origin: &Path) -> Result<PcsrHeader, IoError> {
    if header.len() < 32 {
        return Err(IoError::format(origin, "truncated header (need 32 bytes)"));
    }
    if header[0..4] != MAGIC {
        return Err(IoError::format(origin, "bad magic (not a .pcsr file)"));
    }
    let version = le_u32(header, 4);
    if version != VERSION {
        return Err(IoError::format(
            origin,
            format!("unsupported version {version} (this reader understands {VERSION})"),
        ));
    }
    let num_vertices = le_u64(header, 8);
    let num_edges = le_u64(header, 16);
    let stored = le_u64(header, 24);
    let mut hasher = Fnv64::new();
    hasher.update(&header[0..24]);
    if hasher.finish() != stored {
        return Err(IoError::format(origin, "header checksum mismatch"));
    }
    if num_vertices > u32::MAX as u64 {
        return Err(IoError::format(
            origin,
            format!("vertex count {num_vertices} exceeds the u32 id space"),
        ));
    }
    if num_vertices >= MAX_COUNT || num_edges >= MAX_COUNT {
        return Err(IoError::format(origin, "implausible header counts"));
    }
    Ok(PcsrHeader {
        num_vertices,
        num_edges,
    })
}

/// Bytes per section read: a multiple of both element widths.
const READ_CHUNK: usize = 64 * 1024;

/// Reads and fully validates the snapshot that fills `r` into owned memory; `origin`
/// labels error messages.
///
/// The stream length is checked against the header before any section is read, so a
/// short or padded input fails at once and each section is allocated at its exact
/// size, which that check bounds by the input length. `row_offsets` is hashed as it is
/// read; `col_indices` and `weights` are read in step, one chunk of each, so one
/// two-lane pass ([`update_pair`]) verifies both checksums, naming a `col_indices`
/// mismatch first. The arrays then go through [`Csr::try_from_raw`].
pub fn read_pcsr<R: Read + Seek>(mut r: R, origin: &Path) -> Result<Csr, IoError> {
    let mut header = [0u8; 32];
    r.read_exact(&mut header)
        .map_err(|_| IoError::format(origin, "truncated header (need 32 bytes)"))?;
    let header = parse_header(&header, origin)?;
    let len = r
        .seek(SeekFrom::End(0))
        .map_err(|e| IoError::io(origin, e))?;
    let expected = header.expected_len();
    if len < expected {
        return Err(IoError::format(
            origin,
            format!("truncated snapshot: {len} bytes, header declares {expected}"),
        ));
    }
    if len > expected {
        return Err(IoError::format(
            origin,
            "trailing bytes after the weights section",
        ));
    }

    let (mut a, mut b) = (vec![0u8; READ_CHUNK], vec![0u8; READ_CHUNK]);
    let ro_len = (header.num_vertices + 1) * 8;
    let mut row_offsets = Vec::with_capacity(header.num_vertices as usize + 1);
    let mut ro_sum = Fnv64::new();
    for at in (0..ro_len).step_by(READ_CHUNK) {
        let ro = &mut a[..(ro_len - at).min(READ_CHUNK as u64) as usize];
        read_at(&mut r, 32 + at, ro, origin, "row_offsets section")?;
        ro_sum.update(ro);
        row_offsets.extend(ro.chunks_exact(8).map(|c| le_u64(c, 0)));
    }
    verify(&mut r, 32 + ro_len, &ro_sum, origin, "row_offsets")?;

    let e_len = header.num_edges * 4;
    let ci_start = 32 + ro_len + 8;
    let w_start = ci_start + e_len + 8;
    let mut col_indices = Vec::with_capacity(header.num_edges as usize);
    let mut weights = Vec::with_capacity(header.num_edges as usize);
    let (mut ci_sum, mut w_sum) = (Fnv64::new(), Fnv64::new());
    for at in (0..e_len).step_by(READ_CHUNK) {
        let take = (e_len - at).min(READ_CHUNK as u64) as usize;
        let (ci, w) = (&mut a[..take], &mut b[..take]);
        read_at(&mut r, ci_start + at, ci, origin, "col_indices section")?;
        read_at(&mut r, w_start + at, w, origin, "weights section")?;
        update_pair(&mut ci_sum, &mut w_sum, ci, w);
        col_indices.extend(ci.chunks_exact(4).map(|c| le_u32(c, 0)));
        weights.extend(w.chunks_exact(4).map(|c| le_u32(c, 0)));
    }
    verify(&mut r, ci_start + e_len, &ci_sum, origin, "col_indices")?;
    verify(&mut r, w_start + e_len, &w_sum, origin, "weights")?;

    Csr::try_from_raw(row_offsets, col_indices, weights).map_err(|e| IoError::graph(origin, e))
}

/// Fills `buf` from byte `pos` of `r`; a short read is a truncated `what`.
fn read_at<R: Read + Seek>(
    r: &mut R,
    pos: u64,
    buf: &mut [u8],
    origin: &Path,
    what: &str,
) -> Result<(), IoError> {
    r.seek(SeekFrom::Start(pos))
        .map_err(|e| IoError::io(origin, e))?;
    r.read_exact(buf)
        .map_err(|_| IoError::format(origin, format!("truncated {what}")))
}

/// Checks the hash of section `name` against the checksum stored at byte `pos`.
fn verify<R: Read + Seek>(
    r: &mut R,
    pos: u64,
    sum: &Fnv64,
    origin: &Path,
    name: &str,
) -> Result<(), IoError> {
    let mut stored = [0u8; 8];
    read_at(r, pos, &mut stored, origin, &format!("{name} checksum"))?;
    if sum.finish() != u64::from_le_bytes(stored) {
        return Err(IoError::format(origin, format!("{name} checksum mismatch")));
    }
    Ok(())
}

/// Opens and reads a snapshot file with [`read_pcsr`].
pub fn load_pcsr(path: &Path) -> Result<Csr, IoError> {
    let file = std::fs::File::open(path).map_err(|e| IoError::io(path, e))?;
    read_pcsr(file, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_graph::generate;
    use std::io::Cursor;

    fn read(bytes: &[u8]) -> Result<Csr, IoError> {
        read_pcsr(Cursor::new(bytes), Path::new("test.pcsr"))
    }

    fn bytes_of(g: &Csr) -> Vec<u8> {
        let mut out = Vec::new();
        write_pcsr(&mut out, g).unwrap();
        out
    }

    #[test]
    fn roundtrip_is_identity_and_deterministic() {
        let g = generate::kronecker(10, 6, 5);
        let bytes = bytes_of(&g);
        assert_eq!(bytes, bytes_of(&g), "serialization must be deterministic");
        assert_eq!(read(&bytes).unwrap(), g);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Csr::try_from_raw(vec![0], vec![], vec![]).unwrap();
        let back = read(&bytes_of(&g)).unwrap();
        assert_eq!(back.num_vertices(), 0);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let g = generate::uniform(100, 400, 3);
        let good = bytes_of(&g);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(read(&bad_magic).is_err());

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(read(&bad_version).is_err());

        // Truncations at every section boundary fail cleanly.
        for cut in [10, 31, 40, good.len() - 1] {
            assert!(read(&good[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Trailing garbage is rejected.
        let mut padded = good;
        padded.push(0);
        assert!(read(&padded).is_err());
    }

    #[test]
    fn rejects_checksum_and_payload_corruption() {
        let g = generate::uniform(64, 256, 9);
        let good = bytes_of(&g);
        // Flip one byte in every region: header counts, offsets, cols, weights.
        for pos in [9, 40, good.len() / 2, good.len() - 12] {
            let mut bad = good.clone();
            bad[pos] ^= 0xff;
            let err = read(&bad).expect_err("corruption must be detected");
            let msg = format!("{err}");
            assert!(
                msg.contains("checksum") || msg.contains("inconsistent") || msg.contains("counts"),
                "pos {pos}: {msg}"
            );
        }
    }

    #[test]
    fn forged_header_with_valid_checksum_fails_without_huge_allocation() {
        // FNV is keyless, so a hand-written header can always carry a "valid"
        // checksum. A count just under MAX_COUNT must fail on the length check,
        // not abort the process trying to reserve terabytes.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&1024u64.to_le_bytes());
        header.extend_from_slice(&(1u64 << 39).to_le_bytes()); // 2^39 "edges"
        let mut h = Fnv64::new();
        h.update(&header);
        header.extend_from_slice(&h.finish().to_le_bytes());
        let err = read(&header).expect_err("must fail cleanly");
        assert!(format!("{err}").contains("truncated"), "{err}");
    }

    #[test]
    fn names_col_indices_before_weights() {
        let g = generate::uniform(120, 500, 31);
        let good = bytes_of(&g);
        let ci = 32 + (g.num_vertices() as usize + 1) * 8 + 8;
        let w = ci + g.num_edges() as usize * 4 + 8;
        for (flips, named) in [
            (&[ci][..], "col_indices"),
            (&[w][..], "weights"),
            (&[ci, w][..], "col_indices"),
        ] {
            let mut bad = good.clone();
            for &pos in flips {
                bad[pos] ^= 0x5a;
            }
            let err = read(&bad).expect_err("corruption must be detected");
            assert!(
                format!("{err}").contains(&format!("{named} checksum")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes_before_reading_a_section() {
        let g = generate::uniform(50, 200, 7);
        let good = bytes_of(&g);
        let declared = good.len();

        let err = read(&good[..declared - 3]).expect_err("truncation must fail");
        assert_eq!(
            format!("{err}"),
            format!(
                "test.pcsr: truncated snapshot: {} bytes, header declares {declared}",
                declared - 3
            )
        );

        let mut padded = good.clone();
        padded.push(0);
        let err = read(&padded).expect_err("trailing bytes must fail");
        assert!(format!("{err}").contains("trailing bytes"), "{err}");

        assert_eq!(read(&good).unwrap(), g);
    }

    #[test]
    fn rejects_implausible_counts_before_allocating() {
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&u64::MAX.to_le_bytes());
        header.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut h = Fnv64::new();
        h.update(&header);
        header.extend_from_slice(&h.finish().to_le_bytes());
        assert!(read(&header).is_err());
    }
}
