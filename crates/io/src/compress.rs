//! Compressed text ingestion: magic-byte sniffing, gzip and zstd decompression.
//!
//! A compressed edge list (`web.tsv.gz`, `web.tsv.zst`) feeds the same text parsers
//! as plain text: [`decompress_file`] recognizes the container by its leading
//! magic bytes — never by extension — and returns the decompressed bytes. gzip is
//! decoded entirely in-process by the hand-rolled [`crate::inflate`] decoder; zstd is
//! streamed through the system `zstd -dc` binary (a typed error is returned if it is
//! not installed — no crate dependency either way).
//!
//! The snapshot cache keys compressed sources by their *decompressed* content hash
//! (see [`crate::snapshot`]), so `web.tsv`, `web.tsv.gz` and `web.tsv.zst` with the
//! same underlying text share one cache entry and produce byte-identical snapshots.

use crate::error::IoError;
use crate::inflate::{gunzip, GZIP_MAGIC};
use std::io::Read;
use std::path::{Path, PathBuf};

/// zstd frame magic (RFC 8878).
pub const ZSTD_MAGIC: [u8; 4] = [0x28, 0xb5, 0x2f, 0xfd];

/// A compression container recognized by magic bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// gzip (RFC 1952), decoded in-process.
    Gzip,
    /// zstd (RFC 8878), decoded via the system `zstd` binary.
    Zstd,
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Compression::Gzip => "gzip",
            Compression::Zstd => "zstd",
        })
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
        Some(Compression::Gzip) => {
            let raw = std::fs::read(path).map_err(|e| IoError::io(path, e))?;
            gunzip(&raw)
                .map(Some)
                .map_err(|e| IoError::format(path, e.to_string()))
        }
        Some(Compression::Zstd) => zstd_decompress(path).map(Some),
    }
}

/// Runs `zstd -dc <path>` and captures stdout. The binary ships on stock CI images
/// and most developer machines; its absence is a typed error, not a panic.
fn zstd_decompress(path: &Path) -> Result<Vec<u8>, IoError> {
    let out = std::process::Command::new("zstd")
        .arg("-dcq")
        .arg(path)
        .output()
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                IoError::format(
                    path,
                    "zstd-compressed input, but no `zstd` binary on PATH \
                     (install zstd or decompress the file manually)",
                )
            } else {
                IoError::io(path, e)
            }
        })?;
    if !out.status.success() {
        return Err(IoError::format(
            path,
            format!(
                "`zstd -dc` failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ),
        ));
    }
    Ok(out.stdout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::gzip_compress;

    fn tmp(name: &str, contents: &[u8]) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("piccolo-compress-{}-{name}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn sniffs_by_magic_not_extension() {
        let gz = tmp("actually-gzip.tsv", &gzip_compress(b"0 1\n"));
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
    fn gzip_decompresses_in_process() {
        let text = b"# comment\n0 1 5\n1 2 9\n";
        let gz = tmp("roundtrip.tsv.gz", &gzip_compress(text));
        assert_eq!(decompress_file(&gz).unwrap().unwrap(), text);
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
        let mut bad = gzip_compress(b"0 1\n1 2\n");
        let n = bad.len();
        bad[n - 6] ^= 0xff; // CRC byte
        let p = tmp("corrupt.gz", &bad);
        let err = decompress_file(&p).unwrap_err();
        assert!(format!("{err}").contains("CRC"), "{err}");
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
