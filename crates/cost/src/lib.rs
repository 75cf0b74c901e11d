//! Confidence-increment cost models.
//!
//! The paper assumes "each data item in the database is associated with a
//! cost function that indicates the cost for improving the confidence value
//! of this data item" (Section 1), and its experiments draw per-tuple cost
//! functions from "the binomial, exponential and logarithm functions"
//! (Section 5.1). This crate provides those families plus linear and
//! piecewise-linear models behind one [`CostFn`] type.
//!
//! Every model is a monotone potential `g(p)`; the cost of raising a
//! tuple's confidence from `p` to `p*` is `g(p*) − g(p)` (and `0` when
//! `p* ≤ p` — lowering confidence is free, matching the greedy algorithm's
//! roll-back phase).
//!
//! ```
//! use pcqe_cost::CostFn;
//!
//! let c = CostFn::linear(100.0).unwrap(); // paper: "+0.1 costs 10"
//! assert!((c.cost(0.4, 0.5) - 10.0).abs() < 1e-12);
//! assert_eq!(c.cost(0.5, 0.4), 0.0);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod error;
pub mod model;

pub use error::CostError;
pub use model::CostFn;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CostError>;
