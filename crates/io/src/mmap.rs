//! Read-only file memory mapping, hand-rolled on `mmap(2)`.
//!
//! The out-of-core snapshot path maps `.pcsr` files instead of reading them into owned
//! heap memory, so a graph's topology costs address space proportional to the file —
//! paged in on demand — rather than resident heap proportional to `|V| + |E|`. No
//! `memmap`-style crate is used: on 64-bit Unix targets we declare the two syscalls we
//! need directly; everywhere else (and for empty files) [`Mapping::open`] falls back to
//! reading the file into an owned buffer, preserving behaviour.

use std::fs::File;
use std::io::Read;
use std::path::Path;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        // `off_t` is 64-bit on every 64-bit Unix ABI, which the cfg above guarantees.
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

enum Backing {
    /// Owned fallback buffer (non-Unix targets and empty files).
    Owned(Vec<u8>),
    /// A live `mmap(2)` region, unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped { ptr: *const u8, len: usize },
}

/// A read-only view of a file's bytes: memory-mapped where possible, owned otherwise.
///
/// Dereference or call [`Mapping::bytes`] to access the contents. The mapping is
/// private (`MAP_PRIVATE`) and read-only; concurrent truncation of the underlying file
/// by another process is outside the supported contract (as with any mmap consumer).
pub struct Mapping {
    backing: Backing,
}

#[expect(
    unsafe_code,
    reason = "a raw pointer field opts out of auto Send; the mapping is as sendable as &[u8]"
)]
// SAFETY: the mapped region is read-only for the lifetime of the value and unmapped
// only on drop, so sharing/sending a `Mapping` is as safe as sharing `&[u8]`.
unsafe impl Send for Mapping {}
#[expect(
    unsafe_code,
    reason = "a raw pointer field opts out of auto Sync; the mapping is as shareable as &[u8]"
)]
// SAFETY: same argument as `Send` directly above — the region is immutable for the
// value's lifetime, so concurrent shared reads are as safe as `&[u8]`.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Opens `path`, mapping it where the platform supports it, otherwise reading it
    /// into an owned buffer.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = File::open(path)?;
        if let Some(mapped) = Self::try_map(&file)? {
            return Ok(mapped);
        }
        Self::read_owned(file)
    }

    /// Opens `path` reading it fully into an owned buffer, never mapping.
    #[cfg(test)]
    pub(crate) fn open_owned(path: &Path) -> std::io::Result<Self> {
        Self::read_owned(File::open(path)?)
    }

    fn read_owned(mut file: File) -> std::io::Result<Self> {
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(Self {
            backing: Backing::Owned(buf),
        })
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    fn try_map(file: &File) -> std::io::Result<Option<Self>> {
        use std::os::unix::io::AsRawFd;

        let len = file.metadata()?.len();
        if len == 0 {
            // Zero-length mappings are invalid; the owned fallback handles empty files.
            return Ok(None);
        }
        let len =
            usize::try_from(len).map_err(|_| std::io::Error::other("file too large to map"))?;
        #[expect(unsafe_code, reason = "mmap(2) is a foreign function")]
        // SAFETY: we request a fresh read-only private mapping of a file descriptor we
        // own; the kernel picks the address. The region is only ever read and is
        // unmapped exactly once, in `Drop`.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Some(Self {
            backing: Backing::Mapped {
                ptr: ptr as *const u8,
                len,
            },
        }))
    }

    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn try_map(_file: &File) -> std::io::Result<Option<Self>> {
        Ok(None)
    }

    /// The file contents.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            Backing::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64"))]
            #[expect(
                unsafe_code,
                reason = "views the live mapping as a slice; mapped reads need it"
            )]
            Backing::Mapped { ptr, len } => {
                // SAFETY: `ptr`/`len` describe a live read-only mapping owned by `self`.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    /// Whether this view is an actual memory mapping (as opposed to the owned fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            Backing::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped { .. } => true,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, len } = self.backing {
            #[expect(unsafe_code, reason = "munmap(2) is a foreign function")]
            // SAFETY: `ptr`/`len` came from a successful `mmap` call and are unmapped
            // exactly once, here.
            unsafe {
                sys::munmap(ptr as *mut std::os::raw::c_void, len);
            }
        }
    }
}

impl std::ops::Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("piccolo-mmap-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp_file("basic", b"hello mapping");
        let m = Mapping::open(&path).unwrap();
        assert_eq!(&*m, b"hello mapping");
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(m.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn owned_fallback_matches() {
        let path = tmp_file("owned", b"same bytes either way");
        let m = Mapping::open_owned(&path).unwrap();
        assert!(!m.is_mapped());
        assert_eq!(m.bytes(), b"same bytes either way");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_uses_owned_fallback() {
        let path = tmp_file("empty", b"");
        let m = Mapping::open(&path).unwrap();
        assert!(!m.is_mapped());
        assert!(m.bytes().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mapping::open(Path::new("/nonexistent/piccolo-mmap")).is_err());
    }
}
