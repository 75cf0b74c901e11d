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

impl PolicyDecision {
    /// Fraction of results released (the paper's θ′). Zero when there are
    /// no results at all.
    pub fn released_fraction(&self) -> f64 {
        let n = self.released.len() + self.withheld.len();
        if n == 0 {
            0.0
        } else {
            self.released.len() as f64 / n as f64
        }
    }
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
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;

    #[test]
    fn paper_manager_sees_nothing() {
        let p2 = ConfidencePolicy::new("Manager", "investment", 0.06).unwrap();
        let d = evaluate_results(&p2, &[0.058]);
        assert!(d.released.is_empty());
        assert_eq!(d.withheld, vec![0]);
        assert_eq!(d.released_fraction(), 0.0);
    }

    #[test]
    fn paper_secretary_sees_the_result() {
        let p1 = ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap();
        let d = evaluate_results(&p1, &[0.058]);
        assert_eq!(d.released, vec![0]);
        assert_eq!(d.released_fraction(), 1.0);
    }

    #[test]
    fn fractions_and_mixed_results() {
        let p = ConfidencePolicy::default_floor(0.5).unwrap();
        let d = evaluate_results(&p, &[0.2, 0.6, 0.7, 0.5]);
        assert_eq!(d.released, vec![1, 2]);
        assert_eq!(d.withheld, vec![0, 3]);
        assert!((d.released_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_results() {
        let p = ConfidencePolicy::default_floor(0.5).unwrap();
        let d = evaluate_results(&p, &[]);
        assert_eq!(d.released_fraction(), 0.0);
    }
}
