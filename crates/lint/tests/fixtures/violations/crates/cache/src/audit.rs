//! Violation fixture: suppression audit — unknown rule, missing reason, unused waiver.

pub fn noop() {
    // lint: allow(totally-made-up-rule, the rule name is wrong on purpose)
    // lint: allow(no-wall-clock)
}

pub fn no_clock_here() -> u32 {
    // lint: allow(no-wall-clock, stale: nothing below reads a clock)
    7
}
