//! Violation fixture: an `unsafe` that puts piccolo-graph over its budget.

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
