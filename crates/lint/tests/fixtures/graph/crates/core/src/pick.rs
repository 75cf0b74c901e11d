//! Fixture: the reachable panic sites — P002 reports each here, with the
//! witness call path from the guarded public API.

pub fn pick(v: &[u32]) -> u32 {
    v[0]
}

pub fn unreached(v: &[u32]) -> u32 {
    v[1]
}

/// The shape of the real workspace finds: slice indexing below the
/// guarded API, reported with the call path that reaches it.
pub fn nth(v: &[u32], i: usize) -> u32 {
    v[i]
}
