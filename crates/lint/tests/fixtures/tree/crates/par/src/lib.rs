//! Fixture: C002 — no `lint.toml` here, so not even `crates/par` may thread.

use std::thread;

pub fn fan_out() -> u32 {
    let h = thread::spawn(|| 7);
    h.join().unwrap_or(0)
}
