//! Fixture: `crates/par` owns work distribution — atomics here are
//! granted in the tree's lint.toml and must stay silent.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed) + 1
}
