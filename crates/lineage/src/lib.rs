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
//! use pcqe_lineage::{Lineage, VarId, Evaluator};
//!
//! let l = Lineage::and(vec![
//!     Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
//!     Lineage::var(13),
//! ]);
//! let probs = |v: VarId| match v.0 {
//!     2 => Some(0.3),
//!     3 => Some(0.4),
//!     13 => Some(0.1),
//!     _ => None,
//! };
//! let p = Evaluator::default().probability(&l, &probs).unwrap();
//! assert!((p - 0.058).abs() < 1e-12);
//! ```

pub mod bound;
pub mod cache;
pub mod compile;
pub mod error;
pub mod expr;
pub mod factor;
pub mod prob;
pub mod rng;

pub use bound::{bounds, Bounds};
pub use cache::{CacheStats, CircuitCache, CircuitId};
pub use compile::CompiledLineage;
pub use error::LineageError;
pub use expr::{Lineage, VarId};
pub use factor::factor;
pub use prob::{Evaluator, ProbSource};
pub use rng::{Rng64, SplitMix64};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LineageError>;
