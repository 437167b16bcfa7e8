//! Violation fixture: outside repro.rs the bench crate may not read the clock.

pub fn stamp() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
