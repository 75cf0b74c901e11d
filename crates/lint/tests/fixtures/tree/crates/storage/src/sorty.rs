//! Fixture: D004 — float ordering outside `pcqe_storage::real_cmp`.

pub fn before(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)
}
