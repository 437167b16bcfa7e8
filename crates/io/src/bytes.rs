//! Panic-free little-endian byte readers.
//!
//! `slice.try_into().unwrap()` on a length-guaranteed slice is infallible in context,
//! but it trips the crate's `clippy::unwrap_used` panic policy and restates the length
//! proof at every call site. These helpers move the proof into one place: bytes past
//! the end of the input read as zero. No caller relies on the padding — each has already
//! length-checked, and the `.pcsr` header/section checksums reject short data
//! downstream regardless.

/// The `N` bytes of `bytes` starting at `off`, zero-padded past the end.
pub(crate) fn le_array<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    let src = bytes.get(off..).unwrap_or_default();
    let n = src.len().min(N);
    out[..n].copy_from_slice(&src[..n]);
    out
}

/// Little-endian `u32` at `off` (zero-padded past the end).
pub(crate) fn le_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(le_array(bytes, off))
}

/// Little-endian `u64` at `off` (zero-padded past the end).
pub(crate) fn le_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(le_array(bytes, off))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_bounds_values() {
        let bytes = [1u8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(le_u32(&bytes, 0), 1);
        assert_eq!(le_u32(&bytes, 4), 2);
        assert_eq!(le_u64(&bytes, 4), 2);
    }

    #[test]
    fn zero_pads_past_the_end() {
        let bytes = [0xff_u8, 0xff];
        assert_eq!(le_u32(&bytes, 0), 0xffff);
        assert_eq!(le_u64(&bytes, 1), 0xff);
        assert_eq!(le_u32(&bytes, 10), 0);
        assert_eq!(le_array::<4>(&bytes, 1), [0xff, 0, 0, 0]);
    }
}
