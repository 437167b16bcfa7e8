//! The partitioned snapshot format: a `.pcsr.d/` directory.
//!
//! A single `.pcsr` file holds the whole graph; a `.pcsr.d/` directory splits it into
//! tiles over contiguous vertex ranges so ingestion never needs more than one tile of
//! transient storage at a time — the GraphH/GraphD partition-by-partition shape from
//! the paper's lineage, applied to host-side loading. The layout (full byte spec in
//! `docs/pcsr-format.md`):
//!
//! ```text
//! graph.pcsr.d/
//!   manifest.txt        checksummed lines (journal line format, piccolo_obs::linecodec)
//!   part-00000.pcsr     tile 0: vertices [start, end), .pcsr-framed
//!   part-00001.pcsr     tile 1 ...
//! ```
//!
//! Each tile is a `.pcsr`-framed file whose header counts the tile's *local* vertex
//! span; its row offsets are rebased to start at 0 and its column indices keep their
//! **global** vertex ids (so a tile is not a loadable standalone graph — it is a slice
//! of one). The manifest pins the global counts, every tile's vertex range, edge
//! count, byte size, and whole-file FNV-1a-64 fingerprint, and every manifest line
//! carries its own checksum. Single-byte corruption anywhere — any tile, any section,
//! the manifest itself — is detected at load time; a wrong-but-plausible graph can
//! never be assembled.

use crate::error::IoError;
use crate::hash::hash_file;
use crate::pcsr::{write_pcsr_raw, MappedPcsr};
use piccolo_graph::Csr;
use piccolo_obs::linecodec::{decode_line, encode_line};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a `.pcsr.d/` directory.
pub const MANIFEST: &str = "manifest.txt";

/// Magic token opening every manifest header line.
const DIR_MAGIC: &str = "pcsr-dir";
/// Partitioned-format version.
const DIR_VERSION: u32 = 1;

/// One tile's manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartInfo {
    /// Tile index (file order).
    pub index: usize,
    /// First vertex of the tile's range.
    pub start: u64,
    /// One past the last vertex of the tile's range.
    pub end: u64,
    /// Edges whose source lies in the range.
    pub edges: u64,
    /// Exact tile file size in bytes.
    pub bytes: u64,
    /// FNV-1a-64 of the tile file's bytes, 16 lowercase hex digits.
    pub fnv: String,
    /// Tile file name within the directory.
    pub file: String,
}

/// Decoded, validated manifest of a `.pcsr.d/` directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcsrDirInfo {
    /// Global vertex count.
    pub num_vertices: u64,
    /// Global edge count.
    pub num_edges: u64,
    /// Tiles, in vertex order.
    pub parts: Vec<PartInfo>,
}

/// Whether `path` looks like a partitioned snapshot directory (has a manifest).
pub fn is_pcsr_dir(path: &Path) -> bool {
    path.is_dir() && path.join(MANIFEST).is_file()
}

/// Writes `graph` as a partitioned snapshot with (up to) `parts` tiles of roughly
/// equal edge count. The directory is created if needed; existing contents are
/// replaced. Output is deterministic: the same graph and part count always produce
/// identical tiles and manifest.
pub fn save_pcsr_dir(dir: &Path, graph: &Csr, parts: usize) -> Result<(), IoError> {
    let parts = parts.max(1);
    if dir.is_dir() {
        // Replace wholesale so stale tiles from a previous layout cannot linger.
        std::fs::remove_dir_all(dir).map_err(|e| IoError::io(dir, e))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| IoError::io(dir, e))?;

    let ro = graph.row_offsets();
    let num_vertices = graph.num_vertices() as u64;
    let num_edges = graph.num_edges();

    // Cut at edge quantiles so tiles balance by |E|, not |V|; duplicate boundaries
    // (tiny graphs, huge hubs) collapse, so the realized part count may be smaller.
    let mut bounds: Vec<u64> = vec![0];
    for k in 1..parts as u64 {
        let target = num_edges * k / parts as u64;
        let cut = ro.partition_point(|&off| off < target) as u64;
        let cut = cut.min(num_vertices);
        if cut > bounds.last().copied().unwrap_or(0) && cut < num_vertices {
            bounds.push(cut);
        }
    }
    bounds.push(num_vertices);
    if num_vertices == 0 {
        bounds = vec![0, 0];
    }

    let mut entries = Vec::new();
    for (index, win) in bounds.windows(2).enumerate() {
        let (start, end) = (win[0], win[1]);
        let e_start = ro[start as usize];
        let e_end = ro[end as usize];
        let file = format!("part-{index:05}.pcsr");
        let path = dir.join(&file);
        {
            let f = std::fs::File::create(&path).map_err(|e| IoError::io(&path, e))?;
            let mut w = std::io::BufWriter::new(f);
            write_pcsr_raw(
                &mut w,
                end - start,
                e_end - e_start,
                ro[start as usize..=end as usize]
                    .iter()
                    .map(move |&off| off - e_start),
                &graph.col_indices()[e_start as usize..e_end as usize],
                &graph.weights()[e_start as usize..e_end as usize],
            )
            .map_err(|e| IoError::io(&path, e))?;
            w.flush().map_err(|e| IoError::io(&path, e))?;
        }
        let bytes = std::fs::metadata(&path)
            .map_err(|e| IoError::io(&path, e))?
            .len();
        let fnv = format!(
            "{:016x}",
            hash_file(&path).map_err(|e| IoError::io(&path, e))?
        );
        entries.push(PartInfo {
            index,
            start,
            end,
            edges: e_end - e_start,
            bytes,
            fnv,
            file,
        });
    }

    let manifest_path = dir.join(MANIFEST);
    let mut out = String::new();
    out.push_str(&encode_line(&format!(
        "{DIR_MAGIC} v{DIR_VERSION} vertices={num_vertices} edges={num_edges} parts={}",
        entries.len()
    )));
    out.push('\n');
    for p in &entries {
        out.push_str(&encode_line(&format!(
            "part index={} start={} end={} edges={} bytes={} fnv={} file={}",
            p.index, p.start, p.end, p.edges, p.bytes, p.fnv, p.file
        )));
        out.push('\n');
    }
    let f = std::fs::File::create(&manifest_path).map_err(|e| IoError::io(&manifest_path, e))?;
    let mut w = std::io::BufWriter::new(f);
    w.write_all(out.as_bytes())
        .map_err(|e| IoError::io(&manifest_path, e))?;
    w.flush().map_err(|e| IoError::io(&manifest_path, e))
}

fn tok<'a>(t: Option<&'a str>, origin: &Path) -> Result<&'a str, IoError> {
    t.ok_or_else(|| IoError::format(origin, "manifest: truncated line"))
}

fn field<'a>(token: &'a str, key: &str, origin: &Path) -> Result<&'a str, IoError> {
    token
        .strip_prefix(key)
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| {
            IoError::format(
                origin,
                format!("manifest: expected `{key}=...`, got `{token}`"),
            )
        })
}

fn num(token: &str, key: &str, origin: &Path) -> Result<u64, IoError> {
    field(token, key, origin)?
        .parse::<u64>()
        .map_err(|_| IoError::format(origin, format!("manifest: bad number in `{token}`")))
}

/// Reads and validates the manifest of a `.pcsr.d/` directory. Every line must decode
/// (unlike the run journal, a corrupt manifest line is fatal, not skippable) and the
/// tile ranges must exactly cover `0..num_vertices` with edge counts summing to
/// `num_edges`.
pub fn pcsr_dir_info(dir: &Path) -> Result<PcsrDirInfo, IoError> {
    let manifest_path = dir.join(MANIFEST);
    let raw =
        std::fs::read_to_string(&manifest_path).map_err(|e| IoError::io(&manifest_path, e))?;
    let mut lines = raw.lines().filter(|l| !l.trim().is_empty());

    let header = lines
        .next()
        .ok_or_else(|| IoError::format(&manifest_path, "manifest: empty file"))?;
    let header = decode_line(header).ok_or_else(|| {
        IoError::format(&manifest_path, "manifest: header line checksum mismatch")
    })?;
    let mut toks = header.split(' ');
    if toks.next() != Some(DIR_MAGIC) {
        return Err(IoError::format(&manifest_path, "manifest: bad magic"));
    }
    match toks.next() {
        Some(v) if v == format!("v{DIR_VERSION}") => {}
        other => {
            return Err(IoError::format(
                &manifest_path,
                format!(
                "manifest: unsupported version {other:?} (this reader understands v{DIR_VERSION})"
            ),
            ))
        }
    }
    let num_vertices = num(
        tok(toks.next(), &manifest_path)?,
        "vertices",
        &manifest_path,
    )?;
    let num_edges = num(tok(toks.next(), &manifest_path)?, "edges", &manifest_path)?;
    let parts_declared = num(tok(toks.next(), &manifest_path)?, "parts", &manifest_path)? as usize;

    let mut parts = Vec::with_capacity(parts_declared);
    for line in lines {
        let payload = decode_line(line).ok_or_else(|| {
            IoError::format(&manifest_path, "manifest: part line checksum mismatch")
        })?;
        let mut t = payload.split(' ');
        if t.next() != Some("part") {
            return Err(IoError::format(
                &manifest_path,
                "manifest: expected a part line",
            ));
        }
        let index = num(tok(t.next(), &manifest_path)?, "index", &manifest_path)? as usize;
        let start = num(tok(t.next(), &manifest_path)?, "start", &manifest_path)?;
        let end = num(tok(t.next(), &manifest_path)?, "end", &manifest_path)?;
        let edges = num(tok(t.next(), &manifest_path)?, "edges", &manifest_path)?;
        let bytes = num(tok(t.next(), &manifest_path)?, "bytes", &manifest_path)?;
        let fnv = field(tok(t.next(), &manifest_path)?, "fnv", &manifest_path)?.to_string();
        let file = field(tok(t.next(), &manifest_path)?, "file", &manifest_path)?.to_string();
        if fnv.len() != 16 || !fnv.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(IoError::format(&manifest_path, "manifest: bad fingerprint"));
        }
        if file.contains('/') || file.contains("..") {
            return Err(IoError::format(
                &manifest_path,
                "manifest: tile name escapes the directory",
            ));
        }
        parts.push(PartInfo {
            index,
            start,
            end,
            edges,
            bytes,
            fnv,
            file,
        });
    }

    if parts.len() != parts_declared {
        return Err(IoError::format(
            &manifest_path,
            format!(
                "manifest: {} part lines, header declares {parts_declared}",
                parts.len()
            ),
        ));
    }
    let mut cursor = 0u64;
    let mut edge_sum = 0u64;
    for (i, p) in parts.iter().enumerate() {
        if p.index != i {
            return Err(IoError::format(
                &manifest_path,
                "manifest: part index out of order",
            ));
        }
        if p.start != cursor || p.end < p.start {
            return Err(IoError::format(
                &manifest_path,
                "manifest: tile ranges not contiguous",
            ));
        }
        cursor = p.end;
        edge_sum += p.edges;
    }
    if cursor != num_vertices || edge_sum != num_edges {
        return Err(IoError::format(
            &manifest_path,
            "manifest: tile ranges do not cover the declared graph",
        ));
    }
    Ok(PcsrDirInfo {
        num_vertices,
        num_edges,
        parts,
    })
}

/// Loads a partitioned snapshot, assembling the global CSR tile by tile.
///
/// Tiles are opened one at a time (memory-mapped when enabled), so transient storage
/// beyond the final arrays is bounded by the largest single tile. Every tile's header
/// and section checksums are verified during assembly, the tile's counts are checked
/// against the manifest, and the assembled arrays run through the full
/// [`Csr::try_from_raw`] validation.
pub fn load_pcsr_dir(dir: &Path) -> Result<Csr, IoError> {
    let info = pcsr_dir_info(dir)?;
    if info.num_vertices > u32::MAX as u64 {
        let m = dir.join(MANIFEST);
        return Err(IoError::format(&m, "vertex count exceeds the u32 id space"));
    }

    let mut row_offsets: Vec<u64> = Vec::with_capacity(info.num_vertices as usize + 1);
    let mut col_indices: Vec<u32> = Vec::with_capacity(info.num_edges as usize);
    let mut weights: Vec<u32> = Vec::with_capacity(info.num_edges as usize);
    row_offsets.push(0);

    for p in &info.parts {
        let path = dir.join(&p.file);
        let actual = std::fs::metadata(&path)
            .map_err(|e| IoError::io(&path, e))?
            .len();
        if actual != p.bytes {
            return Err(IoError::format(
                &path,
                format!("tile is {actual} bytes, manifest says {}", p.bytes),
            ));
        }
        let tile = MappedPcsr::open(&path)?;
        let h = tile.header();
        if h.num_vertices != p.end - p.start || h.num_edges != p.edges {
            return Err(IoError::format(
                &path,
                "tile header counts disagree with the manifest",
            ));
        }
        let base = col_indices.len() as u64;
        let ro = tile.row_offsets()?;
        if ro.first() != Some(&0) || ro.last() != Some(&p.edges) {
            return Err(IoError::format(
                &path,
                "tile row offsets do not span its edges",
            ));
        }
        // Skip the tile's leading 0: the boundary vertex's offset is already present
        // (as `base`) from the previous tile.
        row_offsets.extend(ro[1..].iter().map(|&off| off + base));
        col_indices.extend_from_slice(&tile.col_indices()?);
        weights.extend_from_slice(&tile.weights()?);
        // `tile` (and its mapping) drops here, before the next tile opens.
    }

    Csr::try_from_raw(row_offsets, col_indices, weights)
        .map_err(|e| IoError::graph(&dir.join(MANIFEST), e))
}

/// Fully audits a partitioned snapshot: manifest decode + per-tile whole-file
/// fingerprint check + full load. Returns the assembled graph's counts on success.
pub fn verify_pcsr_dir(dir: &Path) -> Result<PcsrDirInfo, IoError> {
    let info = pcsr_dir_info(dir)?;
    for p in &info.parts {
        let path = dir.join(&p.file);
        let actual = format!(
            "{:016x}",
            hash_file(&path).map_err(|e| IoError::io(&path, e))?
        );
        if actual != p.fnv {
            return Err(IoError::format(
                &path,
                format!(
                    "tile fingerprint {actual} does not match manifest {}",
                    p.fnv
                ),
            ));
        }
    }
    load_pcsr_dir(dir)?;
    Ok(info)
}

/// Conventional partitioned-snapshot path for `source`: `source` with `.pcsr.d`
/// appended to its file name (e.g. `graph.tsv` → `graph.tsv.pcsr.d`).
pub fn pcsr_dir_path(source: &Path) -> PathBuf {
    let mut name = source
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "graph".to_string());
    name.push_str(".pcsr.d");
    source.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_graph::generate;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("piccolo-part-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn partitioned_roundtrip_is_identity_for_many_part_counts() {
        let g = generate::kronecker(10, 6, 77);
        for parts in [1, 2, 3, 7, 64, 10_000] {
            let dir = tmp_dir(&format!("rt{parts}"));
            save_pcsr_dir(&dir, &g, parts).unwrap();
            let info = pcsr_dir_info(&dir).unwrap();
            assert_eq!(info.num_vertices, g.num_vertices() as u64);
            assert_eq!(info.num_edges, g.num_edges());
            assert!(!info.parts.is_empty() && info.parts.len() <= parts);
            let back = load_pcsr_dir(&dir).unwrap();
            assert_eq!(back, g, "parts={parts}");
            verify_pcsr_dir(&dir).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn empty_and_tiny_graphs_roundtrip() {
        for (v, e) in [(0u64, 0u64), (1, 0), (5, 1)] {
            let mut ro = vec![0u64; v as usize + 1];
            if e > 0 {
                for slot in ro.iter_mut().skip(1) {
                    *slot = e;
                }
            }
            let g = Csr::try_from_raw(ro, vec![0; e as usize], vec![7; e as usize]).unwrap();
            let dir = tmp_dir(&format!("tiny-{v}-{e}"));
            save_pcsr_dir(&dir, &g, 4).unwrap();
            assert_eq!(load_pcsr_dir(&dir).unwrap(), g);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn save_is_deterministic() {
        let g = generate::uniform(300, 1500, 5);
        let (a, b) = (tmp_dir("det-a"), tmp_dir("det-b"));
        save_pcsr_dir(&a, &g, 4).unwrap();
        save_pcsr_dir(&b, &g, 4).unwrap();
        let read = |d: &Path| {
            let mut names: Vec<_> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            let blobs: Vec<Vec<u8>> = names
                .iter()
                .map(|n| std::fs::read(d.join(n)).unwrap())
                .collect();
            (names, blobs)
        };
        assert_eq!(read(&a), read(&b));
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn detects_single_byte_corruption_in_every_tile_and_manifest_position() {
        // The property loop of the issue: flip one byte at a stride through *every*
        // file of the directory; the load must fail each time — and when it succeeds
        // (it never should), the graph must at least not be silently wrong.
        let g = generate::uniform(120, 600, 13);
        let dir = tmp_dir("corrupt");
        save_pcsr_dir(&dir, &g, 3).unwrap();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(files.len() >= 4, "3 tiles + manifest");
        for file in &files {
            let pristine = std::fs::read(file).unwrap();
            let stride = (pristine.len() / 37).max(1);
            for pos in (0..pristine.len()).step_by(stride) {
                let mut bad = pristine.clone();
                bad[pos] ^= 0x20; // also exercises case/whitespace-ish flips in text
                std::fs::write(file, &bad).unwrap();
                match load_pcsr_dir(&dir) {
                    Err(_) => {}
                    Ok(loaded) => panic!(
                        "flip at {pos} in {} produced a graph (eq to original: {})",
                        file.display(),
                        loaded == g
                    ),
                }
            }
            std::fs::write(file, &pristine).unwrap();
        }
        // Pristine again: loads clean.
        assert_eq!(load_pcsr_dir(&dir).unwrap(), g);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detects_truncated_and_missing_tiles() {
        let g = generate::uniform(80, 400, 3);
        let dir = tmp_dir("missing");
        save_pcsr_dir(&dir, &g, 2).unwrap();
        let tile = dir.join("part-00001.pcsr");
        let bytes = std::fs::read(&tile).unwrap();
        std::fs::write(&tile, &bytes[..bytes.len() - 1]).unwrap();
        assert!(load_pcsr_dir(&dir).is_err(), "truncated tile");
        std::fs::remove_file(&tile).unwrap();
        assert!(load_pcsr_dir(&dir).is_err(), "missing tile");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_swapped_tiles_even_though_each_is_internally_consistent() {
        // Internal checksums can't catch tile files swapped with each other; the
        // manifest's per-tile counts/sizes (and verify's fingerprints) must.
        let g = generate::kronecker(8, 8, 2);
        let dir = tmp_dir("swap");
        save_pcsr_dir(&dir, &g, 2).unwrap();
        let (a, b) = (dir.join("part-00000.pcsr"), dir.join("part-00001.pcsr"));
        let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::write(&a, &bb).unwrap();
        std::fs::write(&b, &ba).unwrap();
        assert!(
            load_pcsr_dir(&dir).is_err() || verify_pcsr_dir(&dir).is_err(),
            "swapped tiles must not verify"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_path_convention() {
        assert_eq!(
            pcsr_dir_path(Path::new("/data/web.tsv")),
            Path::new("/data/web.tsv.pcsr.d")
        );
        assert!(!is_pcsr_dir(Path::new("/nonexistent")));
    }
}
