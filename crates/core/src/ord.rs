//! The one sanctioned total order over `f64`.
//!
//! Confidence values, gains and costs are `f64`s, and the solvers sort,
//! heap and tie-break on them constantly. `f64` is only [`PartialOrd`]
//! (`NaN` breaks totality), which historically pushed each call site to
//! hand-roll its own `total_cmp`-based `Ord` impl — and every hand-rolled
//! comparator is one more place a future edit can silently introduce a
//! platform- or ordering-dependent result. `clippy.toml` therefore bans
//! `f64::total_cmp` and rule `PCQE-D004` bans `.partial_cmp()` and
//! float-literal `==`: wrap the value in [`OrdF64`] and derive/compose
//! orderings structurally.
//!
//! The wrapper compares through [`pcqe_storage::real_cmp`], the
//! workspace's one home of the IEEE 754 `totalOrder` predicate:
//! `-NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < NaN`, which is
//! bit-deterministic on every platform.
//!
//! ```
//! use pcqe_core::ord::OrdF64;
//! let mut xs = vec![2.5, f64::NAN, 0.1, -0.0, 0.0];
//! xs.sort_by_key(|&x| OrdF64(x));
//! assert_eq!(xs[0], 0.1_f64.min(-0.0)); // -0.0 first
//! assert!(xs[4].is_nan()); // NaN sorts last, deterministically
//! ```

use pcqe_storage::real_cmp;
use std::cmp::Ordering;

/// An `f64` carrying the IEEE 754 total order — `Eq`/`Ord`, so it can be
/// a sort key, heap entry field, or map key without a hand-written
/// comparator.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        real_cmp(self.0, other.0) == Ordering::Equal
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        real_cmp(self.0, other.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(x: f64) -> OrdF64 {
        OrdF64(x)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;

    #[test]
    fn total_order_is_total_and_deterministic() {
        let mut xs = [
            f64::NAN,
            1.0,
            -1.0,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        xs.sort_by_key(|&x| OrdF64(x));
        assert_eq!(xs[0], f64::NEG_INFINITY);
        assert_eq!(xs[1], -1.0);
        // -0.0 strictly before +0.0 under totalOrder.
        assert!(xs[2].is_sign_negative() && xs[2] == 0.0);
        assert!(xs[3].is_sign_positive() && xs[3] == 0.0);
        assert_eq!(xs[4], 1.0);
        assert_eq!(xs[5], f64::INFINITY);
        assert!(xs[6].is_nan());
    }

    #[test]
    fn eq_distinguishes_zero_signs_and_equates_nans() {
        assert_ne!(OrdF64(0.0), OrdF64(-0.0));
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN));
        assert_eq!(OrdF64(2.5), OrdF64(2.5));
    }

    #[test]
    fn works_as_heap_and_tuple_key() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<(OrdF64, Reverse<usize>)> = BinaryHeap::new();
        heap.push((OrdF64(0.5), Reverse(3)));
        heap.push((OrdF64(2.0), Reverse(1)));
        heap.push((OrdF64(0.5), Reverse(2)));
        assert_eq!(heap.pop().unwrap(), (OrdF64(2.0), Reverse(1)));
        // Equal gains: the lower index wins via Reverse.
        assert_eq!(heap.pop().unwrap(), (OrdF64(0.5), Reverse(2)));
        assert_eq!(heap.pop().unwrap(), (OrdF64(0.5), Reverse(3)));
    }
}
