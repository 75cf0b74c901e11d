//! Lineage-propagating relational algebra.
//!
//! The paper's query-evaluation component "computes the query Q and the
//! confidence level of each query result based on the confidence values of
//! base tuples" (Section 3.2). This crate implements that component: a
//! small relational algebra whose operators carry boolean lineage through
//! every step, so the confidence of any derived tuple can be computed by
//! `pcqe-lineage`.
//!
//! Lineage rules (standard probabilistic-database semantics, matching the
//! paper's running example):
//!
//! * **scan** — each base tuple's lineage is its own variable;
//! * **select** — lineage is unchanged;
//! * **join / product** — lineage is the conjunction of the inputs;
//! * **distinct projection / union** — duplicates merge, lineage is the
//!   disjunction of the merged rows (this is how `p25 = p02 ∨ p03` arises);
//! * **difference** — `l ∧ ¬(r₁ ∨ … ∨ r_m)` over the matching right rows.
//!
//! ```
//! use pcqe_algebra::{execute_vectorized_with, lower, Plan, ScalarExpr};
//! use pcqe_par::Parallelism;
//! use pcqe_storage::{Catalog, Column, DataType, Schema, Value};
//!
//! let mut catalog = Catalog::new();
//! catalog.create_table("t", Schema::new(vec![
//!     Column::new("x", DataType::Int),
//! ]).unwrap()).unwrap();
//! catalog.insert("t", vec![Value::Int(1)], 0.9).unwrap();
//! catalog.insert("t", vec![Value::Int(2)], 0.5).unwrap();
//!
//! let plan = Plan::scan("t").select(
//!     ScalarExpr::column(0).gt(ScalarExpr::literal(Value::Int(1))),
//! );
//! let physical = lower(&plan, &catalog).unwrap();
//! let result = execute_vectorized_with(&physical, &catalog, &Parallelism::sequential()).unwrap();
//! assert_eq!(result.rows().len(), 1);
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
pub mod expr;
pub mod optimize;
pub mod physical;
pub mod plan;
pub mod result;

pub use error::AlgebraError;
pub use expr::{BinaryOp, ScalarExpr, UnaryOp};
pub use optimize::optimize;
pub use physical::{
    execute_vectorized_profiled, execute_vectorized_with, lower, render_side_by_side, ExecProfile,
    OperatorProfile, PhysicalPlan,
};
pub use plan::{Plan, ProjItem};
pub use result::{DerivedTuple, GatedScore, ResultSet, ScoredTuple};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AlgebraError>;
