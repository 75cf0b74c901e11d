//! Fixture: C002 — concurrency tokens in a crate with no covering
//! grant in the tree's lint.toml.

use std::sync::Mutex;

pub fn make() -> Mutex<u32> {
    Mutex::new(0)
}
