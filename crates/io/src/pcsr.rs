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

use crate::bytes::{le_array, le_u32, le_u64};
use crate::error::IoError;
use crate::mmap::Mapping;
use piccolo_graph::{Csr, SharedSlice};
use piccolo_obs::hash::{fnv64, update_pair, Fnv64};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

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

/// Reads and fully validates a snapshot from `r`; `origin` labels error messages.
pub fn read_pcsr<R: Read>(mut r: R, origin: &Path) -> Result<Csr, IoError> {
    let mut header = [0u8; 32];
    r.read_exact(&mut header)
        .map_err(|_| IoError::format(origin, "truncated header (need 32 bytes)"))?;
    let PcsrHeader {
        num_vertices,
        num_edges,
    } = parse_header(&header, origin)?;

    let row_offsets: Vec<u64> = read_section(
        &mut r,
        num_vertices as usize + 1,
        origin,
        "row_offsets",
        u64::from_le_bytes,
    )?;
    let col_indices: Vec<u32> = read_section(
        &mut r,
        num_edges as usize,
        origin,
        "col_indices",
        u32::from_le_bytes,
    )?;
    let weights: Vec<u32> = read_section(
        &mut r,
        num_edges as usize,
        origin,
        "weights",
        u32::from_le_bytes,
    )?;

    let mut trailing = [0u8; 1];
    match r.read(&mut trailing) {
        Ok(0) => {}
        Ok(_) => {
            return Err(IoError::format(
                origin,
                "trailing bytes after the weights section",
            ))
        }
        Err(e) => return Err(IoError::io(origin, e)),
    }

    Csr::try_from_raw(row_offsets, col_indices, weights).map_err(|e| IoError::graph(origin, e))
}

/// Reads one checksummed section of `count` fixed-width elements.
fn read_section<R: Read, T, const N: usize>(
    r: &mut R,
    count: usize,
    origin: &Path,
    name: &str,
    decode: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, IoError> {
    // Clamp the up-front reservation: header counts are attacker-controlled (FNV has
    // no key, so a forged header can carry a valid checksum), and a count just under
    // MAX_COUNT must hit the truncated-section error below — not an allocation abort.
    let mut out = Vec::with_capacity(count.min(1 << 20));
    let mut hasher = Fnv64::new();
    let mut buf = vec![0u8; 64 * 1024 - (64 * 1024 % N)];
    let mut remaining = count * N;
    while remaining > 0 {
        let take = remaining.min(buf.len());
        r.read_exact(&mut buf[..take])
            .map_err(|_| IoError::format(origin, format!("truncated {name} section")))?;
        hasher.update(&buf[..take]);
        for chunk in buf[..take].chunks_exact(N) {
            out.push(decode(le_array(chunk, 0)));
        }
        remaining -= take;
    }
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored)
        .map_err(|_| IoError::format(origin, format!("truncated {name} checksum")))?;
    if hasher.finish() != u64::from_le_bytes(stored) {
        return Err(IoError::format(origin, format!("{name} checksum mismatch")));
    }
    Ok(out)
}

/// Opens and reads a snapshot file into owned memory (never maps): the reference the
/// mapped reader is tested against.
#[cfg(test)]
pub(crate) fn load_pcsr_owned(path: &Path) -> Result<Csr, IoError> {
    let file = std::fs::File::open(path).map_err(|e| IoError::io(path, e))?;
    read_pcsr(std::io::BufReader::new(file), path)
}

/// Opens and reads a snapshot file through [`MappedPcsr`].
///
/// The returned graph borrows its sections zero-copy from a mapping of the file
/// (owned memory where [`Mapping`] cannot map). The full validation of [`read_pcsr`]
/// applies and the resulting [`Csr`] is bit-identical to the owned reader's.
pub fn load_pcsr(path: &Path) -> Result<Csr, IoError> {
    MappedPcsr::open(path)?.to_csr()
}

/// One lazily-verified section of a mapped snapshot.
struct MappedSection<T: Send + Sync + 'static> {
    /// Byte range of the element data within the file; the 8-byte checksum follows.
    data: std::ops::Range<usize>,
    /// Set on first touch: the verified zero-copy (or decoded) view, or the
    /// verification error message.
    cell: OnceLock<Result<SharedSlice<T>, String>>,
}

impl<T: Send + Sync + 'static> MappedSection<T> {
    fn new(data: std::ops::Range<usize>) -> Self {
        Self {
            data,
            cell: OnceLock::new(),
        }
    }
}

/// Reinterprets little-endian element bytes as a typed slice when the platform allows
/// a zero-copy view (little-endian target, aligned pointer); `None` otherwise.
#[expect(
    unsafe_code,
    reason = "reinterprets mapped section bytes in place; the zero-copy load needs it"
)]
fn cast_le_slice<T: Copy>(bytes: &[u8]) -> Option<&[T]> {
    if cfg!(not(target_endian = "little")) {
        return None;
    }
    let size = std::mem::size_of::<T>();
    if !bytes.len().is_multiple_of(size)
        || !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
    {
        return None;
    }
    // SAFETY: alignment and length were just checked; `T` here is only ever `u32` or
    // `u64` (plain-old-data, any bit pattern valid), and on little-endian targets the
    // in-memory representation matches the file's little-endian encoding.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) })
}

/// A `.pcsr` snapshot opened through [`Mapping`], with sections verified lazily.
///
/// The 32-byte header and the exact file length are validated eagerly on
/// [`MappedPcsr::open`]. Each section's checksum is verified on *first touch* of that
/// section (`row_offsets()` / `col_indices()` / `weights()`), and the verdict is
/// cached: a checksum flip in, say, the weights section is only reported when weights
/// are first accessed — and then on every subsequent access. On little-endian targets
/// the returned [`SharedSlice`]s borrow directly from the mapping (zero copy); the
/// mapping stays alive as long as any view (or a [`Csr`] built from them) does.
pub struct MappedPcsr {
    map: Arc<Mapping>,
    origin: PathBuf,
    header: PcsrHeader,
    row_offsets: MappedSection<u64>,
    col_indices: MappedSection<u32>,
    weights: MappedSection<u32>,
}

impl std::fmt::Debug for MappedPcsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedPcsr")
            .field("origin", &self.origin)
            .field("num_vertices", &self.header.num_vertices)
            .field("num_edges", &self.header.num_edges)
            .field("mapped", &self.map.is_mapped())
            .finish()
    }
}

impl MappedPcsr {
    /// Opens `path`, validating the header and total file length. Section payloads are
    /// *not* touched (and on a real mapping, not paged in) until first access.
    pub fn open(path: &Path) -> Result<Self, IoError> {
        let map = Mapping::open(path).map_err(|e| IoError::io(path, e))?;
        Self::from_mapping(Arc::new(map), path)
    }

    /// Like [`MappedPcsr::open`] but never maps — reads the file into an owned buffer,
    /// the path [`Mapping::open`] falls back to where it cannot map.
    #[cfg(test)]
    pub(crate) fn open_owned(path: &Path) -> Result<Self, IoError> {
        let map = Mapping::open_owned(path).map_err(|e| IoError::io(path, e))?;
        Self::from_mapping(Arc::new(map), path)
    }

    fn from_mapping(map: Arc<Mapping>, path: &Path) -> Result<Self, IoError> {
        let bytes = map.bytes();
        let header = parse_header(bytes, path)?;
        let expected = header.expected_len();
        if (bytes.len() as u64) < expected {
            return Err(IoError::format(
                path,
                format!(
                    "truncated snapshot: {} bytes, header declares {expected}",
                    bytes.len()
                ),
            ));
        }
        if bytes.len() as u64 > expected {
            return Err(IoError::format(
                path,
                "trailing bytes after the weights section",
            ));
        }
        let ro_len = (header.num_vertices as usize + 1) * 8;
        let ci_len = header.num_edges as usize * 4;
        let ro_start = 32;
        let ci_start = ro_start + ro_len + 8;
        let w_start = ci_start + ci_len + 8;
        Ok(Self {
            map,
            origin: path.to_path_buf(),
            header,
            row_offsets: MappedSection::new(ro_start..ro_start + ro_len),
            col_indices: MappedSection::new(ci_start..ci_start + ci_len),
            weights: MappedSection::new(w_start..w_start + ci_len),
        })
    }

    /// The validated header counts.
    pub fn header(&self) -> PcsrHeader {
        self.header
    }

    /// Whether the underlying bytes are an actual memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// A section's verdict given the FNV-1a of its bytes: the verified view, or the
    /// mismatch message.
    fn verdict<T: Copy + Send + Sync + 'static>(
        &self,
        sec: &MappedSection<T>,
        name: &str,
        sum: u64,
        decode: fn(&[u8]) -> Vec<T>,
    ) -> Result<SharedSlice<T>, String> {
        let bytes = self.map.bytes();
        let data = &bytes[sec.data.clone()];
        if sum != le_u64(bytes, sec.data.end) {
            return Err(format!("{name} checksum mismatch"));
        }
        let range = sec.data.clone();
        match cast_le_slice::<T>(data) {
            Some(_) => Ok(SharedSlice::from_arc_with(Arc::clone(&self.map), |m| {
                // Recompute inside the projection so the borrow ties to the owner
                // `Arc`, not to `self`. The cast succeeded above on the same bytes.
                #[expect(
                    clippy::unwrap_used,
                    reason = "the identical cast succeeded two lines up on the same bytes; \
                              the projection closure has no error channel"
                )]
                let view = cast_le_slice::<T>(&m.bytes()[range]).unwrap();
                view
            })),
            None => Ok(SharedSlice::from_vec(decode(data))),
        }
    }

    fn section<T: Copy + Send + Sync + 'static>(
        &self,
        sec: &MappedSection<T>,
        name: &str,
        decode: fn(&[u8]) -> Vec<T>,
    ) -> Result<SharedSlice<T>, IoError> {
        let out = sec.cell.get_or_init(|| {
            let sum = fnv64(&self.map.bytes()[sec.data.clone()]);
            self.verdict(sec, name, sum, decode)
        });
        match out {
            Ok(view) => Ok(view.clone()),
            Err(msg) => Err(IoError::format(&self.origin, msg.clone())),
        }
    }

    /// The row-offset section, checksum-verified on first touch.
    pub fn row_offsets(&self) -> Result<SharedSlice<u64>, IoError> {
        self.section(&self.row_offsets, "row_offsets", |data| {
            data.chunks_exact(8).map(|c| le_u64(c, 0)).collect()
        })
    }

    /// The column-index section, checksum-verified on first touch.
    pub fn col_indices(&self) -> Result<SharedSlice<u32>, IoError> {
        self.section(&self.col_indices, "col_indices", decode_u32)
    }

    /// The weights section, checksum-verified on first touch.
    pub fn weights(&self) -> Result<SharedSlice<u32>, IoError> {
        self.section(&self.weights, "weights", decode_u32)
    }

    /// Builds a [`Csr`] borrowing all three sections (verifying any not yet touched),
    /// running the same structural validation as the owned reader. When neither
    /// `col_indices` nor `weights` has been touched, both are verified in one two-lane
    /// pass and both verdicts are cached; a `col_indices` error is reported first.
    pub fn to_csr(&self) -> Result<Csr, IoError> {
        let ro = self.row_offsets()?;
        let (cs, ws) = (&self.col_indices, &self.weights);
        if cs.cell.get().is_none() && ws.cell.get().is_none() {
            let bytes = self.map.bytes();
            let (mut c_sum, mut w_sum) = (Fnv64::new(), Fnv64::new());
            update_pair(
                &mut c_sum,
                &mut w_sum,
                &bytes[cs.data.clone()],
                &bytes[ws.data.clone()],
            );
            let c = self.verdict(cs, "col_indices", c_sum.finish(), decode_u32);
            let w = self.verdict(ws, "weights", w_sum.finish(), decode_u32);
            // A concurrent first touch may have cached a verdict meanwhile; it is the
            // same verdict, so either one stands.
            let _ = cs.cell.set(c);
            let _ = ws.cell.set(w);
        }
        let ci = self.col_indices()?;
        let w = self.weights()?;
        Csr::try_from_shared(ro, ci, w).map_err(|e| IoError::graph(&self.origin, e))
    }
}

fn decode_u32(data: &[u8]) -> Vec<u32> {
    data.chunks_exact(4).map(|c| le_u32(c, 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_graph::generate;
    use std::path::PathBuf;

    fn origin() -> PathBuf {
        PathBuf::from("test.pcsr")
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
        let back = read_pcsr(&bytes[..], &origin()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Csr::try_from_raw(vec![0], vec![], vec![]).unwrap();
        let back = read_pcsr(&bytes_of(&g)[..], &origin()).unwrap();
        assert_eq!(back.num_vertices(), 0);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let g = generate::uniform(100, 400, 3);
        let good = bytes_of(&g);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(read_pcsr(&bad_magic[..], &origin()).is_err());

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(read_pcsr(&bad_version[..], &origin()).is_err());

        // Truncations at every section boundary fail cleanly.
        for cut in [10, 31, 40, good.len() - 1] {
            assert!(
                read_pcsr(&good[..cut], &origin()).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = good;
        padded.push(0);
        assert!(read_pcsr(&padded[..], &origin()).is_err());
    }

    #[test]
    fn rejects_checksum_and_payload_corruption() {
        let g = generate::uniform(64, 256, 9);
        let good = bytes_of(&g);
        // Flip one byte in every region: header counts, offsets, cols, weights.
        for pos in [9, 40, good.len() / 2, good.len() - 12] {
            let mut bad = good.clone();
            bad[pos] ^= 0xff;
            let err = read_pcsr(&bad[..], &origin()).expect_err("corruption must be detected");
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
        // checksum. A count just under MAX_COUNT must fail on section truncation,
        // not abort the process trying to reserve terabytes.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&1024u64.to_le_bytes());
        header.extend_from_slice(&(1u64 << 39).to_le_bytes()); // 2^39 "edges"
        let mut h = Fnv64::new();
        h.update(&header);
        header.extend_from_slice(&h.finish().to_le_bytes());
        let err = read_pcsr(&header[..], &origin()).expect_err("must fail cleanly");
        assert!(format!("{err}").contains("truncated"), "{err}");
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("piccolo-pcsr-{}-{name}", std::process::id()))
    }

    #[test]
    fn mapped_reader_matches_owned_reader() {
        let g = generate::kronecker(9, 7, 11);
        let path = tmp_path("mapped-match.pcsr");
        save_pcsr(&path, &g).unwrap();

        let mapped = MappedPcsr::open(&path).unwrap();
        assert_eq!(mapped.header().num_vertices, g.num_vertices() as u64);
        assert_eq!(mapped.header().num_edges, g.num_edges());
        let via_map = mapped.to_csr().unwrap();
        let via_read = load_pcsr_owned(&path).unwrap();
        assert_eq!(via_map, via_read);
        assert_eq!(via_map, g);

        // Zero-copy on mapped little-endian targets: the row-offset slice points into
        // the file mapping, not the heap.
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        assert!(mapped.is_mapped());

        // The Csr (and its clones) keep the mapping alive after the reader is gone.
        drop(mapped);
        assert_eq!(via_map.num_edges(), g.num_edges());
        let clone = via_map.clone();
        drop(via_map);
        assert_eq!(clone, g);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_reader_verifies_sections_lazily_on_first_touch() {
        let g = generate::uniform(200, 800, 21);
        let mut bytes = bytes_of(&g);
        // Flip one byte inside the *weights* payload (last section, before its final
        // 8-byte checksum).
        let w_payload = bytes.len() - 10;
        bytes[w_payload] ^= 0xff;
        let path = tmp_path("lazy-corrupt.pcsr");
        std::fs::write(&path, &bytes).unwrap();

        let mapped = MappedPcsr::open(&path).expect("header is intact, open must succeed");
        // Untouched sections verify clean.
        assert!(mapped.row_offsets().is_ok());
        assert!(mapped.col_indices().is_ok());
        // First touch of the corrupted section reports the flip...
        let err = mapped
            .weights()
            .expect_err("corrupt weights must be detected");
        assert!(format!("{err}").contains("weights checksum"), "{err}");
        // ...and so does every later touch (the verdict is cached, not forgotten).
        assert!(mapped.weights().is_err());
        assert!(mapped.to_csr().is_err());

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_to_csr_names_col_indices_before_weights() {
        let g = generate::uniform(120, 500, 31);
        let good = bytes_of(&g);
        let ci = 32 + (g.num_vertices() as usize + 1) * 8 + 8;
        let w = ci + g.num_edges() as usize * 4 + 8;
        let path = tmp_path("precedence.pcsr");
        for (flips, named) in [
            (&[ci][..], "col_indices"),
            (&[w][..], "weights"),
            (&[ci, w][..], "col_indices"),
        ] {
            let mut bad = good.clone();
            for &pos in flips {
                bad[pos] ^= 0x5a;
            }
            std::fs::write(&path, &bad).unwrap();
            let mapped = MappedPcsr::open(&path).unwrap();
            let err = mapped.to_csr().expect_err("corruption must be detected");
            assert!(
                format!("{err}").contains(&format!("{named} checksum")),
                "{err}"
            );
            // The accessors agree with the verdicts `to_csr` reached (or cached).
            assert_eq!(mapped.col_indices().is_err(), flips.contains(&ci));
            assert_eq!(mapped.weights().is_err(), flips.contains(&w));
            assert!(mapped.row_offsets().is_ok());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn owned_fallback_reads_the_same_graph_as_the_mapping() {
        // The owned buffer is the path `Mapping::open` takes where it cannot map
        // (non-Unix targets, empty files); it must read the same graph.
        let g = generate::kronecker(8, 5, 3);
        let path = tmp_path("owned.pcsr");
        save_pcsr(&path, &g).unwrap();
        let mapped = MappedPcsr::open(&path).unwrap().to_csr().unwrap();
        let owned = MappedPcsr::open_owned(&path).unwrap();
        assert!(!owned.is_mapped());
        assert_eq!(mapped, owned.to_csr().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_reader_rejects_truncation_and_trailing_bytes_eagerly() {
        let g = generate::uniform(50, 200, 7);
        let good = bytes_of(&g);
        let path = tmp_path("sized.pcsr");

        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(
            MappedPcsr::open(&path).is_err(),
            "truncation must fail open"
        );

        let mut padded = good.clone();
        padded.push(0);
        std::fs::write(&path, &padded).unwrap();
        assert!(
            MappedPcsr::open(&path).is_err(),
            "trailing bytes must fail open"
        );

        std::fs::write(&path, &good).unwrap();
        assert!(MappedPcsr::open(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
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
        assert!(read_pcsr(&header[..], &origin()).is_err());
    }
}
