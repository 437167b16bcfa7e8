//! Whole-file FNV-1a 64-bit hashing: the content hash that keys the snapshot cache.
//! The hasher itself is [`piccolo_obs::hash`]; workspace code imports it from there.

use std::io::Read;
use std::path::Path;

/// Kept only because perfbench imports `piccolo_io::hash::{fnv64, Fnv64}`; delete it
/// when perfbench next changes and import [`piccolo_obs::hash`] there instead.
pub use piccolo_obs::hash::{fnv64, Fnv64};

/// Streams a file through FNV-1a in 64 KiB chunks (never materializes the file).
pub fn hash_file(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut hasher = Fnv64::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(hasher.finish());
        }
        hasher.update(&buf[..n]);
    }
}
