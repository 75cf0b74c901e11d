//! Synthetic evaluation workloads (Section 5.1, Table 4).
//!
//! The paper "use\[s\] synthetic datasets in order to cover all general
//! scenarios": base tuples get "a randomly generated confidence value
//! around 0.1 and a cost function" drawn from "the binomial, exponential
//! and logarithm functions", each result tuple is associated with a number
//! of base tuples, and queries are randomly generated DAGs. This crate
//! reproduces that setup deterministically (seeded), with the Table 4
//! parameter grid encoded in [`WorkloadParams`]:
//!
//! | parameter | paper setting |
//! |---|---|
//! | data size | 10, 1K, 10K, …, 100K |
//! | base tuples per result | 5, 10, 25, 50, 100 |
//! | confidence increment δ | 0.1 |
//! | percentage of required results θ | 50 % |
//! | confidence level β | 0.6 |
//!
//! Results are generated with latent *clusters* of base tuples so that the
//! shared-base graph has the weakly-coupled group structure the
//! divide-and-conquer algorithm exploits, plus a configurable fraction of
//! cross-cluster references.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod gen;
pub mod params;

pub use gen::{generate, generate_batch};
pub use params::WorkloadParams;
