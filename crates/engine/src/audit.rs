//! An audit trail of policy decisions.
//!
//! Confidence policies are an access-control mechanism, and access-control
//! decisions should be accountable: every query records who asked, under
//! which role and purpose, which threshold governed, and how many results
//! were released versus withheld — plus every accepted improvement with
//! its cost. The log is in-memory and append-only; inspect it with
//! [`crate::Database::audit_log`].

use std::fmt;
use std::sync::Arc;

/// One entry in the audit trail.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEntry {
    /// A query was evaluated and policy-checked.
    Query {
        /// Requesting user name, shared with the [`crate::User`].
        user: Arc<str>,
        /// Role under which the policy was selected, shared with it.
        role: Arc<str>,
        /// Stated purpose, shared with the request's.
        purpose: Arc<str>,
        /// The governing threshold β.
        threshold: f64,
        /// Results released.
        released: usize,
        /// Results withheld.
        withheld: usize,
        /// Whether an improvement proposal was attached.
        proposed: bool,
    },
    /// An improvement proposal was accepted and applied.
    Improvement {
        /// Number of base tuples raised.
        tuples: usize,
        /// Total cost paid.
        cost: f64,
    },
}

impl fmt::Display for AuditEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEntry::Query {
                user,
                role,
                purpose,
                threshold,
                released,
                withheld,
                proposed,
            } => write!(
                f,
                "query by {user} ({role}, {purpose}): β={threshold}, {released} released, {withheld} withheld{}",
                if *proposed { ", proposal attached" } else { "" }
            ),
            AuditEntry::Improvement { tuples, cost } => {
                write!(f, "improvement applied: {tuples} tuple(s), cost {cost}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_render() {
        let q = AuditEntry::Query {
            user: "mark".into(),
            role: "Manager".into(),
            purpose: "investment".into(),
            threshold: 0.06,
            released: 0,
            withheld: 1,
            proposed: true,
        };
        let text = q.to_string();
        assert!(text.contains("mark"));
        assert!(text.contains("proposal attached"));
        let i = AuditEntry::Improvement {
            tuples: 1,
            cost: 10.0,
        };
        assert!(i.to_string().contains("cost 10"));
    }
}
