//! Fixture: a violation silenced by a reasoned allowlist entry.

pub fn checked(x: f64) -> bool {
    x == 0.5
}
