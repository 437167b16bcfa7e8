//! Content-hash-keyed snapshot cache: parse a text graph once, hit `.pcsr` forever.
//!
//! The cache directory holds one snapshot per distinct *content* of a source file:
//! the key is the FNV-1a 64 hash of the raw file bytes (plus the format tag), so
//! editing, replacing or regenerating the source file automatically invalidates its
//! snapshot — there is no timestamp heuristic to go stale. A corrupt snapshot (failed
//! checksum) is treated as a miss and rewritten, never trusted.
//!
//! The directory is an explicit argument of [`load_graph_with`]; the drivers pass
//! `--snapshot-dir` or, without it, [`default_snapshot_dir`]
//! (`target/piccolo-snapshots` under the current working directory).

use crate::compress;
use crate::error::IoError;
use crate::hash::hash_file;
use crate::pcsr::{load_pcsr, save_pcsr};
use crate::text::{parse_source, TextFormat};
use piccolo_graph::Csr;
use piccolo_obs::hash::{fnv64, Fnv64};
use std::path::{Path, PathBuf};

/// How a [`load_graph_with`] call obtained its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// The snapshot cache had a valid `.pcsr` for this content hash — no parsing.
    Hit,
    /// The source was parsed and a snapshot was written for next time.
    Miss,
    /// The input was already a `.pcsr` file; the cache was not involved.
    Direct,
}

impl std::fmt::Display for SnapshotStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SnapshotStatus::Hit => "hit",
            SnapshotStatus::Miss => "miss",
            SnapshotStatus::Direct => "direct",
        })
    }
}

/// A graph loaded through the snapshot cache.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The parsed (or snapshot-restored) graph.
    pub graph: Csr,
    /// Whether the snapshot cache hit, missed, or was bypassed.
    pub status: SnapshotStatus,
    /// The snapshot file backing this graph (`None` only for
    /// [`SnapshotStatus::Direct`] loads).
    pub snapshot: Option<PathBuf>,
}

/// The default snapshot cache directory: `target/piccolo-snapshots` under the
/// current working directory.
pub fn default_snapshot_dir() -> PathBuf {
    PathBuf::from("target").join("piccolo-snapshots")
}

/// Loads a graph file through the snapshot cache.
///
/// * A `.pcsr` input is read directly ([`SnapshotStatus::Direct`]) into owned memory
///   ([`crate::pcsr::read_pcsr`]).
/// * Otherwise the file's content hash keys a snapshot in `cache_dir`: a valid
///   snapshot is loaded without touching the text ([`SnapshotStatus::Hit`]); a missing
///   or corrupt one re-parses the text and (re)writes the snapshot
///   ([`SnapshotStatus::Miss`]). Compressed sources (gzip/zstd) hash by their
///   *decompressed* content, so they share the cache entry — and the snapshot bytes —
///   of their plain-text equivalent.
///
/// `format` overrides extension-based detection ([`TextFormat::from_path`]).
pub fn load_graph_with(
    path: &Path,
    format: Option<TextFormat>,
    cache_dir: &Path,
) -> Result<LoadedGraph, IoError> {
    if path.extension().and_then(|e| e.to_str()) == Some("pcsr") {
        return Ok(LoadedGraph {
            graph: load_pcsr(path)?,
            status: SnapshotStatus::Direct,
            snapshot: None,
        });
    }
    let format = format.unwrap_or_else(|| TextFormat::from_path(path));
    // A compressed source is inflated once: the same bytes key the cache and, on a
    // miss, feed the parser.
    let mut inflated = compress::decompress_file(path)?;
    let content = content_hash(path, inflated.as_deref())?;
    let snapshot = keyed_path(path, format, cache_dir, content);

    if snapshot.is_file() {
        // A hit never needs the text, so it is freed before the snapshot is read.
        drop(inflated.take());
        if let Ok(graph) = load_pcsr(&snapshot) {
            return Ok(LoadedGraph {
                graph,
                status: SnapshotStatus::Hit,
                snapshot: Some(snapshot),
            });
        }
        // A corrupt snapshot (torn write, disk fault) is a miss, not an error: inflate
        // the source again and rebuild the snapshot from its text.
        inflated = compress::decompress_file(path)?;
    }

    let graph = parse_source(path, format, inflated)?.into_csr();
    std::fs::create_dir_all(cache_dir).map_err(|e| IoError::io(cache_dir, e))?;
    // Write via a unique temp file + rename so a concurrent loader — another process
    // *or* another thread of this one — never observes a half-written snapshot.
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = snapshot.with_extension(format!("pcsr.tmp{}-{seq}", std::process::id()));
    let written = save_pcsr(&tmp, &graph)
        .and_then(|()| std::fs::rename(&tmp, &snapshot).map_err(|e| IoError::io(&snapshot, e)));
    if let Err(e) = written {
        // The load fails either way; the temp file must not outlive it.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(LoadedGraph {
        graph,
        status: SnapshotStatus::Miss,
        snapshot: Some(snapshot),
    })
}

/// The snapshot file a given source file maps to: `<stem>-<content-hash>.pcsr` inside
/// `cache_dir`, where the hash covers the format tag and the *decompressed* source
/// bytes (for a plain file those are its raw bytes). A compressed source therefore
/// maps to the same snapshot file as its decompressed equivalent: one cache entry,
/// byte-identical snapshots, regardless of how the text arrived.
pub fn snapshot_path(
    path: &Path,
    format: TextFormat,
    cache_dir: &Path,
) -> Result<PathBuf, IoError> {
    let content = content_hash(path, compress::decompress_file(path)?.as_deref())?;
    Ok(keyed_path(path, format, cache_dir, content))
}

/// FNV-1a 64 of the source's content: of `inflated`, the decompressed bytes of a
/// compressed source, or else of the plain file, streamed.
fn content_hash(path: &Path, inflated: Option<&[u8]>) -> Result<u64, IoError> {
    match inflated {
        Some(bytes) => Ok(fnv64(bytes)),
        None => hash_file(path).map_err(|e| IoError::io(path, e)),
    }
}

/// `<stem>-<key>.pcsr` in `cache_dir`, the key hashing the format tag and `content`.
fn keyed_path(path: &Path, format: TextFormat, cache_dir: &Path, content: u64) -> PathBuf {
    let mut key = Fnv64::new();
    key.update(format.name().as_bytes());
    key.update(&content.to_le_bytes());
    let stripped = compress::strip_extension(path);
    let stem: String = stripped
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("graph")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    cache_dir.join(format!("{stem}-{:016x}.pcsr", key.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::gzip_bytes;
    use piccolo_graph::generate;
    use std::io::Write;

    /// A unique scratch directory per test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("piccolo-io-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn write_edge_file(path: &Path, g: &Csr) {
        let mut f = std::fs::File::create(path).unwrap();
        for e in g.iter_edges() {
            writeln!(f, "{}\t{}\t{}", e.src, e.dst, e.weight).unwrap();
        }
    }

    #[test]
    fn second_load_hits_the_cache_with_an_identical_graph() {
        let scratch = Scratch::new("cache-hit");
        let g = generate::kronecker(9, 4, 17);
        let src = scratch.path("g.tsv");
        write_edge_file(&src, &g);
        let cache = scratch.path("snaps");

        let first = load_graph_with(&src, None, &cache).unwrap();
        assert_eq!(first.status, SnapshotStatus::Miss);
        assert_eq!(first.graph, g);
        let snap = first.snapshot.unwrap();
        assert!(snap.is_file());

        let second = load_graph_with(&src, None, &cache).unwrap();
        assert_eq!(second.status, SnapshotStatus::Hit);
        assert_eq!(second.graph, g);
        assert_eq!(second.snapshot.as_deref(), Some(snap.as_path()));
    }

    #[test]
    fn editing_the_source_invalidates_the_snapshot() {
        let scratch = Scratch::new("invalidate");
        let src = scratch.path("g.txt");
        let cache = scratch.path("snaps");
        std::fs::write(&src, "0 1\n1 2\n").unwrap();
        let first = load_graph_with(&src, None, &cache).unwrap();
        assert_eq!(first.status, SnapshotStatus::Miss);

        std::fs::write(&src, "0 1\n1 2\n2 0\n").unwrap();
        let second = load_graph_with(&src, None, &cache).unwrap();
        assert_eq!(second.status, SnapshotStatus::Miss, "new content, new key");
        assert_eq!(second.graph.num_edges(), 3);
        assert_ne!(first.snapshot, second.snapshot);
    }

    #[test]
    fn corrupt_snapshot_is_rebuilt_not_trusted() {
        let scratch = Scratch::new("corrupt");
        let src = scratch.path("g.txt");
        let cache = scratch.path("snaps");
        std::fs::write(&src, "0 1\n1 0\n").unwrap();
        let first = load_graph_with(&src, None, &cache).unwrap();
        let snap = first.snapshot.unwrap();
        // Corrupt the snapshot payload.
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap, bytes).unwrap();

        let again = load_graph_with(&src, None, &cache).unwrap();
        assert_eq!(again.status, SnapshotStatus::Miss, "corruption is a miss");
        assert_eq!(again.graph, first.graph);
        // And the snapshot is healthy again.
        assert_eq!(
            load_graph_with(&src, None, &cache).unwrap().status,
            SnapshotStatus::Hit
        );
    }

    /// Recorded before the hasher moved into `piccolo-obs`: snapshots cached by
    /// earlier builds must keep their names, or every cache entry goes cold.
    #[test]
    fn snapshot_file_name_is_pinned() {
        let scratch = Scratch::new("pinned-name");
        let src = scratch.path("tiny.txt");
        std::fs::write(&src, "0 1\n1 2\n2 0\n").unwrap();
        let snap = snapshot_path(&src, TextFormat::EdgeList, &scratch.path("cache")).unwrap();
        assert_eq!(
            snap.file_name().and_then(|n| n.to_str()),
            Some("tiny-23ee5e9d16565a32.pcsr")
        );
    }

    #[test]
    fn failed_snapshot_rename_leaves_no_temporary_file() {
        let scratch = Scratch::new("tmp-leak");
        let src = scratch.path("g.txt");
        let cache = scratch.path("snaps");
        std::fs::write(&src, "0 1\n1 2\n").unwrap();
        // A directory squatting on the snapshot path makes the final rename fail.
        let snap = snapshot_path(&src, TextFormat::EdgeList, &cache).unwrap();
        std::fs::create_dir_all(&snap).unwrap();
        assert!(load_graph_with(&src, None, &cache).is_err());
        let left: Vec<PathBuf> = std::fs::read_dir(&cache)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        assert_eq!(left, vec![snap], "only the squatting directory may remain");
    }

    #[test]
    fn compressed_and_plain_sources_share_one_cache_entry() {
        let scratch = Scratch::new("compressed-key");
        let g = generate::kronecker(8, 5, 23);
        let plain = scratch.path("demo.tsv");
        write_edge_file(&plain, &g);
        let gz = scratch.path("demo.tsv.gz");
        std::fs::write(&gz, gzip_bytes(&std::fs::read(&plain).unwrap())).unwrap();
        let cache = scratch.path("snaps");

        // Same key for plain and gzip: the gzip load misses once, the plain load
        // then *hits* the very same snapshot file.
        let from_gz = load_graph_with(&gz, None, &cache).unwrap();
        assert_eq!(from_gz.status, SnapshotStatus::Miss);
        let from_plain = load_graph_with(&plain, None, &cache).unwrap();
        assert_eq!(
            from_plain.status,
            SnapshotStatus::Hit,
            "plain text must hit the snapshot written by its compressed twin"
        );
        assert_eq!(from_gz.snapshot, from_plain.snapshot);
        assert_eq!(from_gz.graph, g);
        assert_eq!(from_plain.graph, g);
        let entries = std::fs::read_dir(&cache).unwrap().count();
        assert_eq!(entries, 1, "exactly one cache entry for both inputs");
    }

    #[test]
    fn corrupt_snapshot_of_a_compressed_source_is_rebuilt() {
        let scratch = Scratch::new("corrupt-gz");
        let gz = scratch.path("g.txt.gz");
        let cache = scratch.path("snaps");
        std::fs::write(&gz, gzip_bytes(b"0 1 5\n1 2 7\n2 0 9\n")).unwrap();
        let first = load_graph_with(&gz, None, &cache).unwrap();
        let snap = first.snapshot.clone().unwrap();
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap, bytes).unwrap();

        let again = load_graph_with(&gz, None, &cache).unwrap();
        assert_eq!(again.status, SnapshotStatus::Miss, "corruption is a miss");
        assert_eq!(again.graph, first.graph);
        assert_eq!(
            load_graph_with(&gz, None, &cache).unwrap().status,
            SnapshotStatus::Hit
        );
    }

    #[test]
    fn directory_input_is_refused_with_an_io_error() {
        // A leftover partitioned `.pcsr.d` directory from an older build is input
        // like any other: it must fail typed, before the cache directory is made.
        let scratch = Scratch::new("dir-refused");
        let dir = scratch.path("g.pcsr.d");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.txt"), "pcsr-dir v1\n").unwrap();
        let cache = scratch.path("snaps");
        let err = load_graph_with(&dir, None, &cache).expect_err("a directory is no graph");
        assert!(matches!(err, IoError::Io { .. }), "{err}");
        assert!(!cache.exists(), "a refused input must not touch the cache");
    }

    #[test]
    fn pcsr_input_bypasses_the_cache() {
        let scratch = Scratch::new("direct");
        let g = generate::uniform(200, 800, 4);
        let file = scratch.path("g.pcsr");
        crate::pcsr::save_pcsr(&file, &g).unwrap();
        let loaded = load_graph_with(&file, None, &scratch.path("snaps")).unwrap();
        assert_eq!(loaded.status, SnapshotStatus::Direct);
        assert_eq!(loaded.graph, g);
        assert!(loaded.snapshot.is_none());
    }
}
