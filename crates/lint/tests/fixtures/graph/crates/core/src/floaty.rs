//! Fixture: D004 — raw float-literal comparison and ordering.

pub fn exact(x: f64) -> bool {
    x == 0.0 || x != 1.0
}

pub fn ordered(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).is_some()
}
