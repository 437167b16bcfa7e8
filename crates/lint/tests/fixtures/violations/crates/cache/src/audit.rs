//! Violation fixture: suppression audit — unknown rule name, missing reason.

pub fn noop() {
    // lint: allow(totally-made-up-rule, the rule name is wrong on purpose)
    // lint: allow(no-wall-clock)
}
