//! Boolean lineage and confidence computation for PCQE.
//!
//! The paper (Section 3) computes the confidence of each query result from
//! the confidence values of the base tuples it derives from, via *lineage
//! propagation* in the style of Trio and of Dalvi–Suciu probabilistic query
//! evaluation. A result's lineage is a boolean formula over base-tuple
//! variables; under tuple independence, its confidence is the probability
//! that the formula is true.
//!
//! The running example's result has lineage `(t02 ∨ t03) ∧ t13`, giving
//! `p38 = (p02 + p03 − p02·p03) · p13 = 0.058`:
//!
//! ```
//! use pcqe_lineage::{CircuitCache, Evaluator, Lineage, VarId};
//!
//! let l = Lineage::and(vec![
//!     Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
//!     Lineage::var(13),
//! ]);
//! let mut pool = CircuitCache::new();
//! for (v, p) in [(2, 0.3), (3, 0.4), (13, 0.1)] {
//!     pool.set_prob(VarId(v), p);
//! }
//! let p = pool.score_lineage(&l, &Evaluator::default()).unwrap();
//! assert!((p - 0.058).abs() < 1e-12);
//! ```
//!
//! Exact confidence is computed in one place, the circuit pool
//! ([`CircuitCache`]): independence where the children of a connective
//! share no variable, Shannon expansion on the most-shared variable where
//! they do, under a budget of expansions ([`Evaluator`]). A formula past
//! the budget has only its one-pass Fréchet interval ([`bounds`]).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod bound;
pub mod cache;
pub mod compile;
pub mod error;
pub mod expr;
pub mod factor;
pub mod rng;

pub use bound::{bounds, Bounds, ProbSource};
pub use cache::{CacheStats, CircuitCache, CircuitId, Evaluator};
pub use compile::CompiledLineage;
pub use error::LineageError;
pub use expr::{Lineage, VarId};
pub use factor::factor;
pub use rng::{Rng64, SplitMix64};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LineageError>;
