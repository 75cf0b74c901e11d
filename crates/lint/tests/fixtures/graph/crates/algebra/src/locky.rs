//! Fixture: C002 — a lock in a crate with no `locks` grant.

use std::sync::Mutex;

pub fn make() -> Mutex<u32> {
    Mutex::new(0)
}
