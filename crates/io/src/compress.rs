//! Compressed text ingestion: magic-byte sniffing and gzip/zstd decompression.
//!
//! A compressed edge list (`web.tsv.gz`, `web.tsv.zst`) feeds the same text parsers
//! as plain text: [`decompress_file`] recognizes the container by its leading
//! magic bytes — never by extension — and returns the decompressed bytes. Both
//! containers are decoded by the system binary, `gzip -dc` or `zstd -dc`; a corrupt
//! or truncated file, or a missing binary, is a typed error naming the tool. No
//! crate dependency either way.
//!
//! The snapshot cache keys compressed sources by their *decompressed* content hash
//! (see [`crate::snapshot`]), so `web.tsv`, `web.tsv.gz` and `web.tsv.zst` with the
//! same underlying text share one cache entry and produce byte-identical snapshots.

use crate::error::IoError;
use std::io::Read;
use std::path::{Path, PathBuf};

/// gzip member magic (RFC 1952).
pub const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

/// zstd frame magic (RFC 8878).
pub const ZSTD_MAGIC: [u8; 4] = [0x28, 0xb5, 0x2f, 0xfd];

/// A compression container recognized by magic bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// gzip (RFC 1952), decoded via the system `gzip` binary.
    Gzip,
    /// zstd (RFC 8878), decoded via the system `zstd` binary.
    Zstd,
}

impl Compression {
    /// The system binary that decodes this container.
    fn tool(self) -> &'static str {
        match self {
            Compression::Gzip => "gzip",
            Compression::Zstd => "zstd",
        }
    }
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tool())
    }
}

/// Sniffs the compression container of `path` from its first bytes. `Ok(None)` means
/// the file is not a recognized container (treat as plain text).
pub fn sniff_file(path: &Path) -> Result<Option<Compression>, IoError> {
    let mut file = std::fs::File::open(path).map_err(|e| IoError::io(path, e))?;
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match file
            .read(&mut magic[got..])
            .map_err(|e| IoError::io(path, e))?
        {
            0 => break,
            n => got += n,
        }
    }
    Ok(sniff_bytes(&magic[..got]))
}

/// Sniffs a compression container from leading bytes.
pub fn sniff_bytes(magic: &[u8]) -> Option<Compression> {
    if magic.len() >= 2 && magic[0..2] == GZIP_MAGIC {
        Some(Compression::Gzip)
    } else if magic.len() >= 4 && magic[0..4] == ZSTD_MAGIC {
        Some(Compression::Zstd)
    } else {
        None
    }
}

/// Strips one trailing compression extension (`.gz`, `.zst`, `.zstd`) from `path`,
/// so format detection and snapshot naming see the underlying file name. Returns the
/// path unchanged if it has no such extension.
pub fn strip_extension(path: &Path) -> PathBuf {
    match path.extension().and_then(|e| e.to_str()) {
        Some("gz") | Some("zst") | Some("zstd") => path.with_extension(""),
        _ => path.to_path_buf(),
    }
}

/// Decompresses `path` if its magic bytes mark a recognized container; `Ok(None)` for
/// plain files. The whole decompressed content is returned — the text parsers then
/// stream over it.
pub fn decompress_file(path: &Path) -> Result<Option<Vec<u8>>, IoError> {
    match sniff_file(path)? {
        None => Ok(None),
        Some(kind) => decode_with(kind.tool(), path).map(Some),
    }
}

/// Runs `<tool> -dcq -- <path>` and captures stdout; the `--` keeps a path that starts
/// with `-` from being read as options. Both binaries ship on stock CI images and most
/// developer machines; a missing one, or any nonzero exit (corruption, truncation,
/// trailing junk), is a typed error, not a panic.
fn decode_with(tool: &str, path: &Path) -> Result<Vec<u8>, IoError> {
    let out = std::process::Command::new(tool)
        .arg("-dcq")
        .arg("--")
        .arg(path)
        .output()
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                IoError::format(
                    path,
                    format!(
                        "compressed input, but no `{tool}` binary on PATH \
                         (install {tool} or decompress the file manually)"
                    ),
                )
            } else {
                IoError::io(path, e)
            }
        })?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let detail = match stderr.trim() {
            "" => String::new(),
            text => format!(": {text}"),
        };
        return Err(IoError::format(
            path,
            format!("`{tool} -dc` failed ({}){detail}", out.status),
        ));
    }
    Ok(out.stdout)
}

/// gzip-compresses `data` through the system `gzip -cn`, for tests that need `.gz`
/// inputs.
#[cfg(test)]
pub(crate) fn gzip_bytes(data: &[u8]) -> Vec<u8> {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let mut child = Command::new("gzip")
        .arg("-cn")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("`gzip` on PATH");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // Fed from a second thread: an input larger than the pipe buffer would otherwise
    // block this thread on stdin while gzip blocks on its full stdout.
    let out = std::thread::scope(|s| {
        let feeder = s.spawn(move || stdin.write_all(data));
        let out = child.wait_with_output().expect("gzip runs");
        feeder
            .join()
            .expect("feeder thread")
            .expect("gzip reads stdin");
        out
    });
    assert!(out.status.success(), "gzip -cn failed: {}", out.status);
    out.stdout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{load_text, TextFormat};
    use piccolo_graph::rng::Rng64;

    fn tmp(name: &str, contents: &[u8]) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("piccolo-compress-{}-{name}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn sniffs_by_magic_not_extension() {
        let gz = tmp("actually-gzip.tsv", &gzip_bytes(b"0 1\n"));
        assert_eq!(sniff_file(&gz).unwrap(), Some(Compression::Gzip));
        let plain = tmp("plain.gz", b"0 1\n1 2\n");
        assert_eq!(sniff_file(&plain).unwrap(), None);
        let short = tmp("short", b"x");
        assert_eq!(sniff_file(&short).unwrap(), None);
        assert_eq!(sniff_bytes(&ZSTD_MAGIC), Some(Compression::Zstd));
        for p in [gz, plain, short] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn gzip_round_trips_through_the_system_binary() {
        // Two members, as `cat a.gz b.gz` makes: the decoded text is their concatenation.
        let mut two = gzip_bytes(b"# comment\n0 1 5\n");
        two.extend_from_slice(&gzip_bytes(b"1 2 9\n"));
        let gz = tmp("roundtrip.tsv.gz", &two);
        assert_eq!(
            decompress_file(&gz).unwrap().unwrap(),
            b"# comment\n0 1 5\n1 2 9\n"
        );
        std::fs::remove_file(gz).unwrap();
    }

    #[test]
    fn plain_files_pass_through_as_none() {
        let p = tmp("plain.tsv", b"0 1\n");
        assert_eq!(decompress_file(&p).unwrap(), None);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn corrupt_gzip_is_a_typed_error() {
        let mut bad = gzip_bytes(b"0 1\n1 2\n");
        let n = bad.len();
        bad[n - 6] ^= 0xff; // CRC byte
        let p = tmp("corrupt.gz", &bad);
        let err = decompress_file(&p).unwrap_err();
        assert!(matches!(err, IoError::Format { .. }), "{err}");
        assert!(format!("{err}").to_lowercase().contains("crc"), "{err}");
        std::fs::remove_file(p).unwrap();
    }

    /// Without its first magic byte a gzip file is sniffed as plain text, and its
    /// binary body is malformed text: a parse error, not a failed read.
    #[test]
    fn a_gzip_file_without_its_magic_is_a_parse_error() {
        let mut gz = gzip_bytes(b"0 1\n1 2\n");
        gz[0] ^= 0xff;
        let p = tmp("no-magic.tsv.gz", &gz);
        assert_eq!(sniff_file(&p).unwrap(), None);
        let err = load_text(&p, TextFormat::EdgeList).unwrap_err();
        std::fs::remove_file(p).unwrap();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn a_missing_decoder_is_a_typed_error() {
        let p = tmp("no-decoder.gz", &gzip_bytes(b"0 1\n"));
        let err = decode_with("piccolo-no-such-decoder", &p).unwrap_err();
        assert!(matches!(err, IoError::Format { .. }), "{err}");
        assert!(
            format!("{err}").contains("`piccolo-no-such-decoder`"),
            "{err}"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn zstd_round_trips_when_the_binary_exists() {
        // Exercised for real in CI (ubuntu runners ship zstd); skipped silently on
        // machines without the binary so the suite stays hermetic.
        let text = b"0 1 3\n2 0 4\n";
        let plain = tmp("forzstd.tsv", text);
        let zst = plain.with_extension("tsv.zst");
        let status = std::process::Command::new("zstd")
            .arg("-q")
            .arg("-f")
            .arg(&plain)
            .arg("-o")
            .arg(&zst)
            .status();
        if let Ok(s) = status {
            if s.success() {
                assert_eq!(sniff_file(&zst).unwrap(), Some(Compression::Zstd));
                assert_eq!(decompress_file(&zst).unwrap().unwrap(), text);
                std::fs::remove_file(&zst).unwrap();
            }
        }
        std::fs::remove_file(&plain).unwrap();
    }

    /// Seeded mutants of a gzipped edge list: each must load as the original graph or
    /// fail with a typed format error, never a panic and never a different graph.
    #[test]
    fn gzip_mutants_load_exactly_or_fail_typed() {
        let text: String = (0..64u32)
            .map(|i| format!("{} {} {}\n", i, (i * 7 + 3) % 64, i % 5))
            .collect();
        let original_gz = gzip_bytes(text.as_bytes());
        let source = tmp("mutant-source.tsv", text.as_bytes());
        let original = load_text(&source, TextFormat::EdgeList).unwrap();
        std::fs::remove_file(source).unwrap();

        // Every mutant keeps the two magic bytes, so every one reaches the decoder:
        // without them the file is plain text, which the text parser's tests cover.
        let body = original_gz.len() - GZIP_MAGIC.len();
        let mut rng = Rng64::seed_from_u64(0x5eed_0021);
        for case in 0..200 {
            let mut mutant = original_gz.clone();
            match rng.gen_index(3) {
                0 => mutant[2 + rng.gen_index(body)] ^= 1 << rng.gen_index(8),
                1 => mutant.truncate(2 + rng.gen_index(body)),
                _ => mutant.insert(2 + rng.gen_index(body + 1), rng.next_u64() as u8),
            }
            let p = tmp("mutant.tsv.gz", &mutant);
            match load_text(&p, TextFormat::EdgeList) {
                Ok(edges) => assert_eq!(edges, original, "case {case}: a different graph"),
                Err(err) => assert!(matches!(err, IoError::Format { .. }), "case {case}: {err}"),
            }
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn strip_extension_only_touches_compression_suffixes() {
        assert_eq!(
            strip_extension(Path::new("a/web.tsv.gz")),
            Path::new("a/web.tsv")
        );
        assert_eq!(
            strip_extension(Path::new("web.mtx.zst")),
            Path::new("web.mtx")
        );
        assert_eq!(strip_extension(Path::new("web.tsv")), Path::new("web.tsv"));
        assert_eq!(strip_extension(Path::new("web")), Path::new("web"));
    }
}
