//! Division by a divisor fixed when a cache is built.
//!
//! Splitting an address into line, set and tag divides by the line size and the set
//! count on every access, and the set count need not be a power of two (a 9 KiB cache
//! has 18 sets of 8 64 B ways). A hardware divide costs tens of cycles; this is the
//! round-up multiply-and-shift of Granlund and Montgomery, "Division by Invariant
//! Integers using Multiplication" (PLDI 1994, Fig. 4.1), which is exact for every
//! 64-bit dividend and every divisor, with no branch.

/// A divisor with its precomputed multiplier and shifts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u64,
    multiplier: u64,
    shift1: u32,
    shift2: u32,
}

impl Divisor {
    /// Precomputes division by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is 0.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        // l = ceil(log2 d); the multiplier is floor(2^64 (2^l - d) / d) + 1, which fits
        // in 64 bits because 2^l - d < d.
        let l = u64::BITS - (d - 1).leading_zeros();
        let multiplier =
            (((1u128 << 64) * ((1u128 << l) - u128::from(d))) / u128::from(d) + 1) as u64;
        Self {
            d,
            multiplier,
            shift1: l.min(1),
            shift2: l.saturating_sub(1),
        }
    }

    /// The divisor.
    pub(crate) fn get(&self) -> u64 {
        self.d
    }

    /// `(n / d, n % d)`.
    pub(crate) fn div_rem(&self, n: u64) -> (u64, u64) {
        let t = ((u128::from(self.multiplier) * u128::from(n)) >> 64) as u64;
        let q = (t + ((n - t) >> self.shift1)) >> self.shift2;
        (q, n - q * self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_hardware_division() {
        let mut divisors = vec![1, 2, 3, 5, 7, 8, 9, 16, 18, 89, 99, 121, 1 << 32, u64::MAX];
        divisors.extend([(1u64 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX - 1]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for &d in &divisors {
            let div = Divisor::new(d);
            let mut dividends = vec![0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1];
            for _ in 0..2000 {
                // xorshift64: dividends of every magnitude.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                dividends.push(x >> (x % 64));
            }
            for n in dividends {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }
}
