//! # PCQE — Policy-Compliant Query Evaluation
//!
//! A faithful, from-scratch reproduction of *"Query Processing Techniques
//! for Compliance with Data Confidence Policies"* (Dai, Lin, Kantarcioglu,
//! Bertino, Celikel, Thuraisingham; SDM 2009, co-located with VLDB).
//!
//! The facade crate re-exports every subsystem:
//!
//! * [`storage`] — confidence-carrying in-memory tables.
//! * [`lineage`] — boolean lineage and confidence computation.
//! * [`algebra`] — lineage-propagating relational algebra.
//! * [`sql`] — SQL-subset front-end.
//! * [`provenance`] — confidence assignment from provenance.
//! * [`policy`] — confidence policies ⟨role, purpose, β⟩.
//! * [`cost`] — per-tuple confidence-increment cost models.
//! * [`core`] — the paper's strategy-finding algorithms (heuristic
//!   branch-and-bound, two-phase greedy, divide-and-conquer).
//! * [`engine`] — the end-to-end PCQE framework of the paper's Figure 1.
//! * [`workload`] — the synthetic evaluation workloads of Section 5.
//! * [`obs`] — hermetic observability: metrics, spans, `EXPLAIN
//!   ANALYZE` plumbing, JSON/Prometheus exporters.
//! * [`par`] — the deterministic chunked scheduler.
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! # One confidence, one check
//!
//! A base tuple's confidence is a [`storage::Confidence`]. Its one
//! constructor refuses NaN, ±∞ and values outside [0, 1], and keeps −0.0
//! as +0.0, so one confidence has one encoding:
//!
//! ```
//! use pcqe::storage::{Confidence, StoredTuple};
//!
//! let half = Confidence::new(0.5);
//! assert_eq!(half.map(Confidence::get), Some(0.5));
//! assert!(Confidence::new(f64::NAN).is_none());
//! assert_eq!(Confidence::new(-0.0).map(|c| c.get().to_bits()), Some(0));
//!
//! fn set(row: &mut StoredTuple, to: Confidence) {
//!     row.confidence = to;
//! }
//! ```
//!
//! Its field is private, so no code outside `pcqe-storage` can wrap a raw
//! `f64` around the check:
//!
//! ```compile_fail,E0423
//! let unchecked = pcqe::storage::Confidence(0.5);
//! ```
//!
//! and a stored tuple's confidence cannot be set from one:
//!
//! ```compile_fail,E0308
//! fn set(row: &mut pcqe::storage::StoredTuple) {
//!     row.confidence = 0.5;
//! }
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub use pcqe_algebra as algebra;
pub use pcqe_core as core;
pub use pcqe_cost as cost;
pub use pcqe_engine as engine;
pub use pcqe_lineage as lineage;
pub use pcqe_obs as obs;
pub use pcqe_par as par;
pub use pcqe_policy as policy;
pub use pcqe_provenance as provenance;
pub use pcqe_sql as sql;
pub use pcqe_storage as storage;
pub use pcqe_workload as workload;
