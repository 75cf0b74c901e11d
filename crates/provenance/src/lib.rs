//! Provenance-based confidence assignment — the paper's first key element.
//!
//! The paper obtains base-tuple confidences "by using techniques like those
//! proposed by Dai et al. \[5\] which determine the confidence value of a
//! data item based on various factors, such as the trustworthiness of data
//! providers and the way in which the data has been collected"
//! (Section 1). That system is external to the paper; this crate is a
//! self-contained substrate in its spirit:
//!
//! * each [`ProvenanceRecord`] contributes a *record confidence* equal to
//!   the source's trust, attenuated by every intermediate agent it passed
//!   through, by the [`CollectionMethod`]'s reliability, and by an
//!   exponential freshness decay;
//! * records from **distinct** sources corroborate each other (noisy-OR
//!   combination, damped by a configurable corroboration factor), while
//!   repeated records from the same source only count once (their best
//!   record);
//! * the result is a confidence in `[0, 1]`, ready to be stored on a base
//!   tuple.
//!
//! ```
//! use pcqe_provenance::{Assigner, CollectionMethod, ProvenanceRecord, Source};
//!
//! let registry = Source::new("cancer-registry", 0.9).unwrap();
//! let survey = Source::new("patient-survey", 0.5).unwrap();
//! let assigner = Assigner::default();
//!
//! let lone = assigner.assess(&[
//!     ProvenanceRecord::new(survey.clone(), CollectionMethod::Survey),
//! ]).unwrap();
//! let corroborated = assigner.assess(&[
//!     ProvenanceRecord::new(survey, CollectionMethod::Survey),
//!     ProvenanceRecord::new(registry, CollectionMethod::Audited),
//! ]).unwrap();
//! assert!(corroborated > lone);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod assign;
pub mod error;
pub mod model;

pub use assign::Assigner;
pub use error::ProvenanceError;
pub use model::{Agent, CollectionMethod, ProvenanceRecord, Source};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ProvenanceError>;
