//! The policy store with most-specific-match selection.

use crate::error::PolicyError;
use crate::policy::{ConfidencePolicy, PurposeSpec, SubjectSpec};
use crate::role::{Purpose, PurposeHierarchy, Role, RoleHierarchy};
use crate::Result;

/// A collection of confidence policies plus the role hierarchy used to
/// match them.
///
/// Selection follows "the confidence policy associated with the role of
/// user U, his query purpose and the data U wants to access" (Section 3.2):
/// among applicable policies the most specific wins, where specificity
/// orders by (purpose match, role closeness); ties resolve to the highest
/// threshold (most restrictive).
#[derive(Debug, Clone, Default)]
pub struct PolicyStore {
    policies: Vec<ConfidencePolicy>,
    hierarchy: RoleHierarchy,
    purposes: PurposeHierarchy,
}

impl PolicyStore {
    /// An empty store with a flat hierarchy.
    pub fn new() -> Self {
        PolicyStore::default()
    }

    /// Add a policy.
    pub fn add(&mut self, policy: ConfidencePolicy) {
        self.policies.push(policy);
    }

    /// Borrow the role hierarchy mutably (to add inheritance edges).
    pub fn hierarchy_mut(&mut self) -> &mut RoleHierarchy {
        &mut self.hierarchy
    }

    /// Borrow the role hierarchy (used by persistence).
    pub fn hierarchy(&self) -> &RoleHierarchy {
        &self.hierarchy
    }

    /// Borrow the purpose hierarchy mutably (to declare specialisations).
    pub fn purposes_mut(&mut self) -> &mut PurposeHierarchy {
        &mut self.purposes
    }

    /// Borrow the purpose hierarchy.
    pub fn purposes(&self) -> &PurposeHierarchy {
        &self.purposes
    }

    /// All stored policies.
    pub fn policies(&self) -> &[ConfidencePolicy] {
        &self.policies
    }

    /// The policy that governs `role` querying for `purpose`.
    pub fn select(&self, role: &Role, purpose: &Purpose) -> Result<&ConfidencePolicy> {
        // Specificity: the closest purpose match (exact = distance 0,
        // then generalisations via the purpose hierarchy) beats
        // purpose-any; then the closest role match (exact, then the
        // hierarchy) beats role-any. Ties pick the highest threshold.
        let mut best: Option<(&ConfidencePolicy, (i64, i64))> = None;
        for p in &self.policies {
            let purpose_score: i64 = match &p.purpose {
                PurposeSpec::Purpose(pp) => match self.purposes.distance(purpose, pp) {
                    Some(d) => i64::MAX - d as i64,
                    None => continue,
                },
                PurposeSpec::Any => 0,
            };
            let role_score: i64 = match &p.subject {
                SubjectSpec::Role(pr) => match self.hierarchy.distance(role, pr) {
                    // Closer is better: score decreases with distance but
                    // always beats the Any case.
                    Some(d) => i64::MAX - d as i64,
                    None => continue,
                },
                SubjectSpec::Any => 0,
            };
            let score = (purpose_score, role_score);
            let better = match &best {
                None => true,
                Some((cur, cur_score)) => {
                    score > *cur_score || (score == *cur_score && p.threshold > cur.threshold)
                }
            };
            if better {
                best = Some((p, score));
            }
        }
        best.map(|(p, _)| p)
            .ok_or_else(|| PolicyError::NoApplicablePolicy {
                role: role.name().to_owned(),
                purpose: purpose.name().to_owned(),
            })
    }

    /// Shortcut: just the threshold that governs (role, purpose).
    pub fn threshold_for(&self, role: &Role, purpose: &Purpose) -> Result<f64> {
        Ok(self.select(role, purpose)?.threshold)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;

    fn paper_store() -> PolicyStore {
        let mut s = PolicyStore::new();
        s.add(ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap());
        s.add(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
        s
    }

    #[test]
    fn exact_match_selects_paper_policies() {
        let s = paper_store();
        assert_eq!(
            s.threshold_for(&"Secretary".into(), &"analysis".into())
                .unwrap(),
            0.05
        );
        assert_eq!(
            s.threshold_for(&"Manager".into(), &"investment".into())
                .unwrap(),
            0.06
        );
    }

    #[test]
    fn missing_policy_is_an_error() {
        let s = paper_store();
        assert!(matches!(
            s.threshold_for(&"Intern".into(), &"analysis".into()),
            Err(PolicyError::NoApplicablePolicy { .. })
        ));
    }

    #[test]
    fn wildcard_fallbacks_apply_in_specificity_order() {
        let mut s = paper_store();
        s.add(ConfidencePolicy::default_floor(0.01).unwrap());
        s.add(ConfidencePolicy::for_role("Manager", 0.03).unwrap());
        s.add(ConfidencePolicy::for_purpose("audit", 0.5).unwrap());
        // Exact beats role-wildcard beats floor.
        assert_eq!(
            s.threshold_for(&"Manager".into(), &"investment".into())
                .unwrap(),
            0.06
        );
        // Manager with unlisted purpose → role-any policy.
        assert_eq!(
            s.threshold_for(&"Manager".into(), &"reporting".into())
                .unwrap(),
            0.03
        );
        // Purpose-specific wildcard beats role-any for that purpose.
        assert_eq!(
            s.threshold_for(&"Manager".into(), &"audit".into()).unwrap(),
            0.5
        );
        // Unknown role and purpose → floor.
        assert_eq!(
            s.threshold_for(&"Intern".into(), &"reporting".into())
                .unwrap(),
            0.01
        );
    }

    #[test]
    fn hierarchy_inherits_policies_from_juniors() {
        let mut s = paper_store();
        s.hierarchy_mut()
            .add(&"Director".into(), &"Manager".into())
            .unwrap();
        // Director inherits the Manager investment policy.
        assert_eq!(
            s.threshold_for(&"Director".into(), &"investment".into())
                .unwrap(),
            0.06
        );
        // But an exact Director policy wins over the inherited one.
        s.add(ConfidencePolicy::new("Director", "investment", 0.08).unwrap());
        assert_eq!(
            s.threshold_for(&"Director".into(), &"investment".into())
                .unwrap(),
            0.08
        );
    }

    #[test]
    fn purpose_hierarchy_generalises_policies() {
        let mut s = paper_store();
        s.purposes_mut()
            .add(&"due-diligence".into(), &"investment".into())
            .unwrap();
        // A due-diligence query falls under the investment policy.
        assert_eq!(
            s.threshold_for(&"Manager".into(), &"due-diligence".into())
                .unwrap(),
            0.06
        );
        // An exact due-diligence policy wins over the generalisation.
        s.add(ConfidencePolicy::new("Manager", "due-diligence", 0.09).unwrap());
        assert_eq!(
            s.threshold_for(&"Manager".into(), &"due-diligence".into())
                .unwrap(),
            0.09
        );
        // The closest generalisation wins over a farther one.
        let mut s = PolicyStore::new();
        s.purposes_mut().add(&"b".into(), &"a".into()).unwrap();
        s.purposes_mut().add(&"c".into(), &"b".into()).unwrap();
        s.add(ConfidencePolicy::new("r", "a", 0.2).unwrap());
        s.add(ConfidencePolicy::new("r", "b", 0.3).unwrap());
        assert_eq!(s.threshold_for(&"r".into(), &"c".into()).unwrap(), 0.3);
    }

    #[test]
    fn ties_resolve_to_most_restrictive() {
        let mut s = PolicyStore::new();
        s.add(ConfidencePolicy::new("R", "p", 0.2).unwrap());
        s.add(ConfidencePolicy::new("R", "p", 0.4).unwrap());
        assert_eq!(s.threshold_for(&"R".into(), &"p".into()).unwrap(), 0.4);
    }
}
