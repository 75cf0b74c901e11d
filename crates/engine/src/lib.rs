//! The PCQE framework — the end-to-end pipeline of the paper's Figure 1.
//!
//! Five components cooperate:
//!
//! 1. **confidence assignment** — base tuples get confidences, either
//!    directly or assessed from provenance (`pcqe-provenance`);
//! 2. **query evaluation** — SQL is parsed, planned and executed with
//!    lineage propagation (`pcqe-sql`, `pcqe-algebra`), and each result is
//!    scored (`pcqe-lineage`);
//! 3. **policy evaluation** — the confidence policy for the user's role
//!    and purpose filters the scored results (`pcqe-policy`);
//! 4. **strategy finding** — when fewer than the requested fraction of
//!    results survive, the cheapest confidence increments are computed
//!    (`pcqe-core`) and reported as an [`ImprovementProposal`];
//! 5. **data-quality improvement** — accepting the proposal applies the
//!    increments to the database and re-evaluates the query.
//!
//! ```
//! use pcqe_engine::{Database, EngineConfig, QueryRequest, User};
//! use pcqe_policy::ConfidencePolicy;
//! use pcqe_storage::{Column, DataType, Schema, Value};
//!
//! let mut db = Database::new(EngineConfig::default());
//! db.create_table("t", Schema::new(vec![
//!     Column::new("x", DataType::Int),
//! ]).unwrap()).unwrap();
//! db.insert("t", vec![Value::Int(1)], 0.9).unwrap();
//! db.add_policy(ConfidencePolicy::new("analyst", "report", 0.5).unwrap());
//!
//! let user = User::new("alice", "analyst");
//! let resp = db.query(&user, &QueryRequest::new("SELECT x FROM t", "report")).unwrap();
//! assert_eq!(resp.released.len(), 1);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod audit;
pub mod config;
pub mod database;
pub mod error;
pub mod improve;
pub mod persist;
mod plans;
pub mod response;

pub use audit::AuditEntry;
pub use config::EngineConfig;
pub use database::{Database, QueryRequest, StatementOutcome, User};
pub use error::EngineError;
pub use response::{
    BatchResponse, ImprovementProposal, NoProposal, ProposedIncrement, QueryResponse, ReleasedTuple,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
