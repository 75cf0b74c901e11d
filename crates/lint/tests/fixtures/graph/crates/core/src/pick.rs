//! Fixture: P002 — every index expression in production code is a
//! finding, whether or not anything calls the function it sits in.

use std::collections::BTreeMap;

pub fn pick(v: &[u32], i: usize) -> u32 {
    v[i]
}

fn never_called(v: &[u32]) -> u32 {
    v[0]
}

/// A map index panics on a missing key as a slice index does past its
/// end; clippy's `indexing_slicing` lets this one through.
pub fn price(m: &BTreeMap<String, u32>, k: String) -> u32 {
    m[&k]
}
