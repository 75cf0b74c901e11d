//! Solutions: final confidence levels and the increments they imply.

use crate::problem::ProblemInstance;

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
/// The reference check of a solver's answer, shared with the workspace
/// tests; every solver's unit tests hold its answers to it.
#[path = "../../../tests/common/solution_check.rs"]
pub(crate) mod check;

#[cfg(test)]
mod tests {
    use super::check::check_solution;
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
        check_solution(&s, &p).unwrap();
        let incs = s.increments(&p);
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].id, 7);
        assert!((incs[0].cost - 5.0).abs() < 1e-9);
    }
}
