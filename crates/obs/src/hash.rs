//! FNV-1a 64-bit hashing, the workspace's one implementation: the checksum of
//! every [`crate::linecodec`] line (run journals and event logs), the
//! `.pcsr` section checksums and snapshot-cache keys of `piccolo-io`, the
//! structural fingerprint of externally loaded graphs, and the campaign plan
//! hash. Self-contained and stable across platforms: the hash bytes are part of
//! the on-disk formats.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Folds `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds `a` into `ha` and `b` into `hb` in one loop of two independent FNV-1a
/// chains, so each chain's multiply overlaps the other's instead of waiting on its own.
/// The result equals `ha.update(a); hb.update(b)` for any two lengths.
pub fn update_pair(ha: &mut Fnv64, hb: &mut Fnv64, a: &[u8], b: &[u8]) {
    let common = a.len().min(b.len());
    let (mut x, mut y) = (ha.0, hb.0);
    for (&p, &q) in a[..common].iter().zip(&b[..common]) {
        x = (x ^ u64::from(p)).wrapping_mul(FNV_PRIME);
        y = (y ^ u64::from(q)).wrapping_mul(FNV_PRIME);
    }
    (ha.0, hb.0) = (x, y);
    ha.update(&a[common..]);
    hb.update(&b[common..]);
}

/// Hashes a whole byte slice in one call.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    /// The `i`-th 10-byte chunk of `s`, empty past its end.
    fn chunk(s: &[u8], i: usize) -> &[u8] {
        let rest = s.get(i * 10..).unwrap_or_default();
        &rest[..rest.len().min(10)]
    }

    #[test]
    fn pair_equals_two_single_chains_for_any_lengths() {
        let bytes: Vec<u8> = (0..97u32).map(|i| (i * 37 + 11) as u8).collect();
        for la in 0..bytes.len() {
            for lb in [0, 1, 7, 48, la, 96] {
                let (a, b) = (&bytes[..la], &bytes[bytes.len() - lb..]);
                let (mut ha, mut hb) = (Fnv64::new(), Fnv64::new());
                update_pair(&mut ha, &mut hb, a, b);
                assert_eq!(
                    (ha.finish(), hb.finish()),
                    (fnv64(a), fnv64(b)),
                    "{la} {lb}"
                );
                // Chunked, as the snapshot writer feeds it.
                let (mut ha, mut hb) = (Fnv64::new(), Fnv64::new());
                for i in 0..=la.max(lb) / 10 {
                    update_pair(&mut ha, &mut hb, chunk(a, i), chunk(b, i));
                }
                assert_eq!(
                    (ha.finish(), hb.finish()),
                    (fnv64(a), fnv64(b)),
                    "{la} {lb}"
                );
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }
}
