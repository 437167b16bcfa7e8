//! Clean fixture: budgeted unsafe and an audited waiver.

/// One budgeted `unsafe` with its safety argument.
pub fn first_byte(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assert above guarantees the slice is non-empty, so its base
    // pointer is valid to read.
    unsafe { *bytes.as_ptr() }
}

/// A waived wall-clock read, with the mandatory reason.
pub fn waived() -> u128 {
    // lint: allow(no-wall-clock, fixture exercising an audited suppression)
    std::time::Instant::now().elapsed().as_nanos()
}

#[cfg(test)]
mod tests {
    #[test]
    fn wall_clock_is_fine_in_tests() {
        let t = std::time::Instant::now();
        assert!(t.elapsed().as_nanos() < u128::MAX);
    }
}
