//! Confidence policies — the paper's third key element.
//!
//! A confidence policy is a triple ⟨r, pu, β⟩ (Definition 1): "when a user
//! under a role `r` issues a database query `q` for purpose `pu`, the user
//! is allowed to access the results of `q` only if these results have
//! confidence value higher than `β`". Policies complement conventional
//! RBAC: they apply to *query results*, after evaluation, not to base
//! tuples before it.
//!
//! This crate provides roles (with an RBAC-style seniority hierarchy),
//! purposes, the policy store with most-specific-match selection, and the
//! policy-evaluation step that splits scored results into released and
//! withheld sets.
//!
//! ```
//! use pcqe_policy::{ConfidencePolicy, PolicyStore, Role, Purpose};
//!
//! let mut store = PolicyStore::new();
//! store.add(ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap());
//! store.add(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
//!
//! let beta = store
//!     .threshold_for(&Role::new("Manager"), &Purpose::new("investment"))
//!     .unwrap();
//! assert_eq!(beta, 0.06);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod decision;
pub mod error;
pub mod policy;
pub mod role;
pub mod store;

pub use decision::{evaluate_results, PolicyDecision};
pub use error::PolicyError;
pub use policy::{ConfidencePolicy, PurposeSpec, SubjectSpec};
pub use role::{Hierarchy, Purpose, PurposeHierarchy, Role, RoleHierarchy};
pub use store::PolicyStore;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PolicyError>;
