//! Fixture: the reachable panic site — P002 reports it here, with the
//! witness call path from the guarded public API.

pub fn pick(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn unreached() -> u32 {
    panic!("never called from a guarded root")
}

/// The shape of the real workspace finds: slice indexing below the
/// guarded API, reported with the call path that reaches it.
pub fn nth(v: &[u32], i: usize) -> u32 {
    v[i]
}
