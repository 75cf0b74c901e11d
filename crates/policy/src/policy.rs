//! The confidence-policy type (the paper's Definition 1, plus wildcards).

use crate::error::PolicyError;
use crate::role::{Purpose, Role};
use crate::Result;
use pcqe_storage::Confidence;
use std::fmt;

/// The subject a policy applies to: a specific role, or any role.
#[derive(Debug, Clone, PartialEq)]
pub enum SubjectSpec {
    /// Applies to one role (and, through the hierarchy, its seniors).
    Role(Role),
    /// Applies to every role (an organisation-wide floor).
    Any,
}

/// The purpose a policy covers: a specific purpose, or any purpose.
#[derive(Debug, Clone, PartialEq)]
pub enum PurposeSpec {
    /// Applies to one declared purpose.
    Purpose(Purpose),
    /// Applies to every purpose.
    Any,
}

/// A confidence policy ⟨r, pu, β⟩ (Definition 1): results may be released
/// to role `r` querying for purpose `pu` only when their confidence is
/// strictly higher than `β`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidencePolicy {
    /// Who the policy applies to.
    pub subject: SubjectSpec,
    /// Which data-use purpose it covers.
    pub purpose: PurposeSpec,
    /// Minimum confidence (exclusive bound), a checked [`Confidence`]
    /// (so a `-0.0` is kept as `0.0`).
    pub threshold: f64,
}

impl ConfidencePolicy {
    /// Policy for a specific role and purpose, e.g. the paper's
    /// `P2 = ⟨Manager, investment, 0.06⟩`.
    pub fn new(
        role: impl Into<Role>,
        purpose: impl Into<Purpose>,
        threshold: f64,
    ) -> Result<ConfidencePolicy> {
        let purpose = PurposeSpec::Purpose(purpose.into());
        ConfidencePolicy::with(SubjectSpec::Role(role.into()), purpose, threshold)
    }

    /// Policy for a role, all purposes.
    pub fn for_role(role: impl Into<Role>, threshold: f64) -> Result<ConfidencePolicy> {
        ConfidencePolicy::with(SubjectSpec::Role(role.into()), PurposeSpec::Any, threshold)
    }

    /// Policy for a purpose, all roles.
    pub fn for_purpose(purpose: impl Into<Purpose>, threshold: f64) -> Result<ConfidencePolicy> {
        let purpose = PurposeSpec::Purpose(purpose.into());
        ConfidencePolicy::with(SubjectSpec::Any, purpose, threshold)
    }

    /// Catch-all policy (all roles, all purposes).
    pub fn default_floor(threshold: f64) -> Result<ConfidencePolicy> {
        ConfidencePolicy::with(SubjectSpec::Any, PurposeSpec::Any, threshold)
    }

    /// The policy ⟨subject, purpose, β⟩, β refused unless it is a
    /// [`Confidence`].
    fn with(subject: SubjectSpec, purpose: PurposeSpec, beta: f64) -> Result<ConfidencePolicy> {
        let threshold = Confidence::new(beta).ok_or(PolicyError::InvalidThreshold)?;
        Ok(ConfidencePolicy {
            subject,
            purpose,
            threshold: threshold.get(),
        })
    }

    /// Does a result with this confidence satisfy the policy?
    /// Definition 1 requires confidence strictly *higher than* β.
    pub fn admits(&self, confidence: f64) -> bool {
        confidence > self.threshold
    }
}

impl fmt::Display for ConfidencePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let subject = match &self.subject {
            SubjectSpec::Role(r) => r.name(),
            SubjectSpec::Any => "*",
        };
        let purpose = match &self.purpose {
            PurposeSpec::Purpose(p) => p.name(),
            PurposeSpec::Any => "*",
        };
        write!(f, "⟨{subject}, {purpose}, {}⟩", self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policies_construct() {
        let p1 = ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap();
        let p2 = ConfidencePolicy::new("Manager", "investment", 0.06).unwrap();
        assert_eq!(p1.to_string(), "⟨Secretary, analysis, 0.05⟩");
        assert!(p2.threshold > p1.threshold);
    }

    #[test]
    fn admits_is_strict() {
        let p = ConfidencePolicy::new("Manager", "investment", 0.06).unwrap();
        assert!(!p.admits(0.058), "paper: 0.058 is rejected at β=0.06");
        assert!(!p.admits(0.06), "equality does not admit");
        assert!(p.admits(0.065));
    }

    #[test]
    fn thresholds_validated() {
        assert!(ConfidencePolicy::new("r", "p", -0.1).is_err());
        assert!(ConfidencePolicy::new("r", "p", 1.1).is_err());
        assert!(ConfidencePolicy::new("r", "p", f64::NAN).is_err());
        assert!(ConfidencePolicy::default_floor(0.0).is_ok());
    }
}
