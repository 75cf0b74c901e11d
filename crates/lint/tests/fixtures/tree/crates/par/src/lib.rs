//! Fixture: D004 applies in every crate, and no `lint.toml` excuses it.

pub fn idle(load: f64) -> bool {
    load == 0.0
}
