//! Way masks: the sets of ways a lookup or a victim search considers, one bit per way.
//!
//! Every cache model in this crate stores its per-line state in flat arrays and finds
//! ways by building a mask over all the ways of a set at once, with no early exit, and
//! taking the lowest set bit. A victim search walks the candidate bits in way order, so
//! it breaks ties exactly as a scan with `Iterator::min_by_key` over ways `0..ways` would.

/// The most ways a set may have: one bit per way in a `u64` mask.
pub(crate) const MAX_WAYS: u32 = 64;

/// The mask with one bit for each of `ways` ways.
pub(crate) fn all(ways: u32) -> u64 {
    u64::MAX >> (u64::BITS - ways)
}

/// The mask whose bit `w` is the `w`-th item of `matches`.
pub(crate) fn mask(matches: impl DoubleEndedIterator<Item = bool>) -> u64 {
    // Shifting the mask left one way at a time, from the last way down, compiles to
    // simpler code than setting bit `w` of each item with a per-item shift.
    matches.rev().fold(0, |m, hit| (m << 1) | u64::from(hit))
}

/// The positions of the set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The replacement choice every model makes: the lowest way in `preferred` when there
/// is one (an empty way or slot, which loses no data), otherwise the lowest-numbered
/// way in `candidates` whose `key` is smallest.
///
/// # Panics
///
/// Panics if both masks are empty.
pub(crate) fn victim(preferred: u64, candidates: u64, key: impl Fn(usize) -> u64) -> usize {
    if preferred != 0 {
        return preferred.trailing_zeros() as usize;
    }
    bits(candidates)
        .min_by_key(|&w| key(w))
        .expect("a victim needs a candidate way")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_and_bits_agree() {
        assert_eq!(all(1), 1);
        assert_eq!(all(8), 0xff);
        assert_eq!(all(64), u64::MAX);
        let m = mask([false, true, true, false, true].into_iter());
        assert_eq!(m, 0b10110);
        assert_eq!(bits(m).collect::<Vec<_>>(), [1, 2, 4]);
        assert_eq!(bits(0).count(), 0);
    }

    #[test]
    fn victims_prefer_the_lowest_preferred_way_then_the_first_minimum() {
        let keys = [5u64, 3, 7, 3, 3];
        assert_eq!(victim(0b10100, 0b11111, |w| keys[w]), 2);
        assert_eq!(victim(0, 0b11111, |w| keys[w]), 1);
        assert_eq!(victim(0, 0b11001, |w| keys[w]), 3);
    }
}
