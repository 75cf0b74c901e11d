//! Policy evaluation over scored results.

use crate::policy::ConfidencePolicy;

/// The outcome of checking scored results against one policy: which result
/// indexes pass (are released) and which are withheld.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// The governing threshold β.
    pub threshold: f64,
    /// Indexes of results whose confidence is strictly above β.
    pub released: Vec<usize>,
    /// Indexes of results filtered out by the policy.
    pub withheld: Vec<usize>,
}

/// Split a slice of result confidences into released/withheld index sets
/// according to `policy` — the policy-evaluation component of Figure 1.
pub fn evaluate_results(policy: &ConfidencePolicy, confidences: &[f64]) -> PolicyDecision {
    let mut released = Vec::new();
    let mut withheld = Vec::new();
    for (i, &c) in confidences.iter().enumerate() {
        if policy.admits(c) {
            released.push(i);
        } else {
            withheld.push(i);
        }
    }
    PolicyDecision {
        threshold: policy.threshold,
        released,
        withheld,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_manager_sees_nothing() {
        let p2 = ConfidencePolicy::new("Manager", "investment", 0.06).unwrap();
        let d = evaluate_results(&p2, &[0.058]);
        assert!(d.released.is_empty());
        assert_eq!(d.withheld, vec![0]);
    }

    #[test]
    fn paper_secretary_sees_the_result() {
        let p1 = ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap();
        let d = evaluate_results(&p1, &[0.058]);
        assert_eq!(d.released, vec![0]);
        assert!(d.withheld.is_empty());
    }

    #[test]
    fn mixed_results_split_at_beta() {
        let p = ConfidencePolicy::default_floor(0.5).unwrap();
        let d = evaluate_results(&p, &[0.2, 0.6, 0.7, 0.5]);
        assert_eq!(d.released, vec![1, 2]);
        assert_eq!(d.withheld, vec![0, 3]);
    }

    #[test]
    fn empty_results() {
        let p = ConfidencePolicy::default_floor(0.5).unwrap();
        let d = evaluate_results(&p, &[]);
        assert!(d.released.is_empty() && d.withheld.is_empty());
    }
}
