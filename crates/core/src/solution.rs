//! Solutions and their validation.

use crate::error::CoreError;
use crate::problem::ProblemInstance;
use crate::Result;

/// One suggested confidence increment for a base tuple — what the strategy
/// finder reports to the user ("the increment cost and the data whose
/// confidence needs to be improved will be reported to the manager",
/// Section 3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Increment {
    /// Index of the base variable in the problem.
    pub base_index: usize,
    /// External id of the base tuple.
    pub id: u64,
    /// Confidence before.
    pub from: f64,
    /// Confidence after.
    pub to: f64,
    /// Cost of this increment.
    pub cost: f64,
}

/// A solution: final confidence levels, total cost, and the satisfied
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Final confidence per base variable (grid-aligned).
    pub levels: Vec<f64>,
    /// Total increment cost.
    pub cost: f64,
    /// Indexes of results whose confidence exceeds β under `levels`.
    pub satisfied: Vec<usize>,
}

impl Solution {
    /// The non-trivial increments (bases actually raised).
    pub fn increments(&self, problem: &ProblemInstance) -> Vec<Increment> {
        let mut out = Vec::new();
        for (i, (&to, base)) in self.levels.iter().zip(&problem.bases).enumerate() {
            if to > base.initial + 1e-12 {
                out.push(Increment {
                    base_index: i,
                    id: base.id,
                    from: base.initial,
                    to,
                    cost: base.cost.cost(base.initial, to),
                });
            }
        }
        out
    }

    /// Validate the solution against its problem: levels in range and on
    /// the grid, the satisfied set correct, the quota met, and the cost
    /// consistent with the levels.
    pub fn validate(&self, problem: &ProblemInstance) -> Result<()> {
        if self.levels.len() != problem.bases.len() {
            return Err(CoreError::InvalidProblem(format!(
                "solution has {} levels for {} bases",
                self.levels.len(),
                problem.bases.len()
            )));
        }
        let mut cost = 0.0;
        for (i, (&l, base)) in self.levels.iter().zip(&problem.bases).enumerate() {
            if l < base.initial - 1e-9 || l > base.max + 1e-9 {
                return Err(CoreError::InvalidProblem(format!(
                    "level {l} of base {i} outside [{}, {}]",
                    base.initial, base.max
                )));
            }
            let steps = (l - base.initial) / problem.delta;
            let on_grid = (steps - steps.round()).abs() < 1e-6 || (l - base.max).abs() < 1e-9;
            if !on_grid {
                return Err(CoreError::InvalidProblem(format!(
                    "level {l} of base {i} is off the δ grid"
                )));
            }
            cost += base.cost.cost(base.initial, l);
        }
        if (cost - self.cost).abs() > 1e-6 * (1.0 + cost.abs()) {
            return Err(CoreError::InvalidProblem(format!(
                "declared cost {} but levels cost {cost}",
                self.cost
            )));
        }
        let mut satisfied = Vec::new();
        let mut probs = Vec::new();
        for (ri, r) in problem.results.iter().enumerate() {
            probs.clear();
            probs.extend(r.bases.iter().map(|&b| self.levels[b]));
            if r.conf.eval(&probs) > problem.beta {
                satisfied.push(ri);
            }
        }
        if satisfied != self.satisfied {
            return Err(CoreError::InvalidProblem(format!(
                "declared satisfied set {:?} but recomputed {:?}",
                self.satisfied, satisfied
            )));
        }
        if satisfied.len() < problem.required {
            return Err(CoreError::Infeasible {
                achievable: satisfied.len(),
                required: problem.required,
            });
        }
        Ok(())
    }
}

/// A solution together with solver-specific statistics.
#[derive(Debug, Clone)]
pub struct SolveOutcome<S> {
    /// The solution found.
    pub solution: Solution,
    /// Solver statistics (nodes visited, iterations, …).
    pub stats: S,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    fn problem() -> ProblemInstance {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(7, 0.1, CostFn::linear(10.0).unwrap());
        b.result_from_lineage(&Lineage::var(7)).unwrap();
        b.require(1).build().unwrap()
    }

    #[test]
    fn increments_report_raised_bases() {
        let p = problem();
        let s = Solution {
            levels: vec![0.6],
            cost: 5.0,
            satisfied: vec![0],
        };
        s.validate(&p).unwrap();
        let incs = s.increments(&p);
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].id, 7);
        assert!((incs[0].cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_wrong_cost_and_sets() {
        let p = problem();
        let bad_cost = Solution {
            levels: vec![0.6],
            cost: 1.0,
            satisfied: vec![0],
        };
        assert!(bad_cost.validate(&p).is_err());
        let bad_set = Solution {
            levels: vec![0.6],
            cost: 5.0,
            satisfied: vec![],
        };
        assert!(bad_set.validate(&p).is_err());
        let off_grid = Solution {
            levels: vec![0.55],
            cost: 4.5,
            satisfied: vec![0],
        };
        assert!(off_grid.validate(&p).is_err());
        let below_quota = Solution {
            levels: vec![0.1],
            cost: 0.0,
            satisfied: vec![],
        };
        assert!(matches!(
            below_quota.validate(&p),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn strictly_above_beta_counts() {
        let p = problem();
        // Level exactly 0.5 does NOT satisfy (strict inequality).
        let s = Solution {
            levels: vec![0.5],
            cost: 4.0,
            satisfied: vec![],
        };
        assert!(matches!(s.validate(&p), Err(CoreError::Infeasible { .. })));
    }
}
