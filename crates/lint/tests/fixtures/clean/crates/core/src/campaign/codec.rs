//! Clean fixture: the unit-result codec is the one place floats may be formatted.

pub fn fmt(x: f64) -> String {
    format!("{x:.17}")
}
