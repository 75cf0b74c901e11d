//! Fixture: a real D004 violation, suppressed by an allowlist entry
//! that gives no reason — A002 fires at the entry, A001 stays quiet.

pub fn read(x: f64) -> bool {
    x == 0.5
}
