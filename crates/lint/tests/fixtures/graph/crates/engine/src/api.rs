//! Fixture: P002 — the guarded public surface. `run` never panics
//! itself; the violation lives two calls away in `pcqe_core::pick`.

pub fn run(v: &[u32]) -> u32 {
    step(v)
}

fn step(v: &[u32]) -> u32 {
    pcqe_core::pick(v)
}

pub fn lookup(v: &[u32], i: usize) -> u32 {
    pcqe_core::nth(v, i)
}
