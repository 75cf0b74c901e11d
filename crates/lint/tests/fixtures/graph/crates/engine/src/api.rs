//! Fixture: P002 — the guarded public surface. `run` never panics
//! itself; the violation lives two calls away in `pcqe_core::pick`.

pub fn run(x: Option<u32>) -> u32 {
    step(x)
}

fn step(x: Option<u32>) -> u32 {
    pcqe_core::pick(x)
}

pub fn lookup(v: &[u32], i: usize) -> u32 {
    pcqe_core::nth(v, i)
}
