//! Fixture: C002 — concurrency tokens with no covering grant. This
//! tree has no `lint.toml` at all, so nothing is granted to any crate
//! and every concurrency token in it is reported.

use std::sync::Mutex;

pub fn make() -> Mutex<u32> {
    Mutex::new(0)
}
