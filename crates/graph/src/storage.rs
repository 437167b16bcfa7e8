//! Shared, immutable slice storage backing [`crate::Csr`] sections.
//!
//! The paper's premise is graphs larger than fast memory; on the host side the repro
//! mirrors that by letting CSR sections be *views* into storage owned elsewhere — an
//! owned `Vec` for graphs built in memory, or a memory-mapped snapshot (`piccolo-io`)
//! for out-of-core graphs. [`SharedSlice`] abstracts over both: a `(ptr, len)` view
//! plus a reference-counted owner that keeps the underlying bytes alive. Cloning is a
//! refcount bump, never a copy, so `Csr::clone` stays cheap even for mapped graphs.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable slice of `T` whose backing storage is kept alive by a shared owner.
///
/// Constructed either from an owned `Vec<T>` ([`SharedSlice::from_vec`]) or as a
/// projection out of an arbitrary shared owner ([`SharedSlice::from_arc_with`], used by
/// `piccolo-io` to expose sections of a memory-mapped snapshot without copying).
///
/// # Example
///
/// ```
/// use piccolo_graph::storage::SharedSlice;
/// let s = SharedSlice::from_vec(vec![1u64, 2, 3]);
/// assert_eq!(&s[..], &[1, 2, 3]);
/// let t = s.clone(); // refcount bump, no copy
/// assert_eq!(s, t);
/// ```
pub struct SharedSlice<T: 'static> {
    ptr: *const T,
    len: usize,
    /// Keeps the storage behind `ptr` alive. Dropped last.
    owner: Arc<dyn Any + Send + Sync>,
}

#[expect(
    unsafe_code,
    reason = "a raw pointer field opts out of auto Send; the view is as sendable as &[T]"
)]
// SAFETY: a `SharedSlice` is an immutable view plus an `Arc` owner; sharing or sending
// it is exactly as safe as sharing `&[T]` and `Arc<O>`, both of which require the
// element/owner types to be `Send + Sync`. The owner is type-erased but the
// constructors require `Send + Sync` owners, and `T` is constrained here.
unsafe impl<T: Send + Sync> Send for SharedSlice<T> {}
#[expect(
    unsafe_code,
    reason = "a raw pointer field opts out of auto Sync; the view is as shareable as &[T]"
)]
// SAFETY: same argument as `Send` directly above — the view is immutable, and a
// `&SharedSlice<T>` exposes nothing `&[T]`/`&Arc<O>` would not.
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T: 'static> SharedSlice<T> {
    /// Wraps an owned vector. The vector becomes the shared owner; no copy is made.
    pub fn from_vec(v: Vec<T>) -> Self
    where
        T: Send + Sync,
    {
        let owner: Arc<Vec<T>> = Arc::new(v);
        let ptr = owner.as_ptr();
        let len = owner.len();
        Self { ptr, len, owner }
    }

    /// Projects a slice out of a shared owner.
    ///
    /// `project` receives a borrow of the owner and returns the sub-slice this view
    /// covers. The owner is held in an `Arc` for the lifetime of the view (and all its
    /// clones), so the returned pointer stays valid as long as the owner's buffer is
    /// stable — which holds for any owner without interior mutability (a `Vec`, a
    /// memory mapping, a boxed byte buffer). Owners that can reallocate or unmap their
    /// storage while shared must not be used here.
    pub fn from_arc_with<O, F>(owner: Arc<O>, project: F) -> Self
    where
        O: Send + Sync + 'static,
        F: FnOnce(&O) -> &[T],
    {
        let slice = project(&owner);
        let ptr = slice.as_ptr();
        let len = slice.len();
        Self { ptr, len, owner }
    }

    /// The view as a plain slice.
    #[expect(
        unsafe_code,
        reason = "rebuilds the slice from the pointer the owner keeps alive; zero-copy views need it"
    )]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were derived from a live slice of the owner's storage,
        // and `owner` (an `Arc` we hold) keeps that storage alive and unmoved.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: 'static> Deref for SharedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: 'static> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        Self {
            ptr: self.ptr,
            len: self.len,
            owner: Arc::clone(&self.owner),
        }
    }
}

impl<T: fmt::Debug + 'static> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: PartialEq + 'static> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq + 'static> Eq for SharedSlice<T> {}

impl<T: Send + Sync + 'static> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_vec(v)
    }
}

impl<T: Send + Sync + 'static> Default for SharedSlice<T> {
    fn default() -> Self {
        Self::from_vec(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_round_trips() {
        let s = SharedSlice::from_vec(vec![3u32, 1, 4, 1, 5]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(&s[..], &[3, 1, 4, 1, 5]);
        assert_eq!(s.iter().sum::<u32>(), 14);
    }

    #[test]
    fn clone_shares_storage() {
        let s = SharedSlice::from_vec(vec![7u64; 1024]);
        let base = s.as_slice().as_ptr();
        let t = s.clone();
        assert_eq!(t.as_slice().as_ptr(), base, "clone must not copy");
        drop(s);
        assert_eq!(t[0], 7, "storage survives dropping the original view");
    }

    #[test]
    fn projection_keeps_owner_alive() {
        let owner = Arc::new(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let view: SharedSlice<u8> = SharedSlice::from_arc_with(owner, |o| &o[2..6]);
        assert_eq!(&view[..], &[2, 3, 4, 5]);
    }

    #[test]
    fn equality_is_by_content() {
        let a = SharedSlice::from_vec(vec![1u32, 2, 3]);
        let b = SharedSlice::from_vec(vec![1u32, 2, 3]);
        let c = SharedSlice::from_vec(vec![1u32, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(SharedSlice::<u32>::default().len(), 0);
        assert!(!format!("{a:?}").is_empty());
    }
}
