//! Clean fixture: repro's stats-line timer may read the clock, and the bench
//! crate may format floats.

pub fn timed() -> String {
    let start = std::time::Instant::now();
    let secs: f64 = start.elapsed().as_secs_f64();
    format!("{secs:.3}")
}
