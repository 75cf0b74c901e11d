//! Multiple-query strategy finding (the extension sketched at the end of
//! Section 4: "the search space has to be extended to include all distinct
//! base tuples associated with all queries … we need to check whether a
//! solution is found for all queries").
//!
//! A batch is a query with several quotas: [`MultiQueryProblem::merge`]
//! widens the base-tuple pool, and the stopping test over all queries is
//! [`crate::state::EvalState`]'s. The algorithm is [`crate::greedy`]'s.

use crate::error::CoreError;
use crate::greedy::{self, GreedyOptions, GreedyStats};
use crate::problem::{ProblemBuilder, ProblemInstance};
use crate::solution::SolveOutcome;
use crate::Result;
use std::collections::BTreeMap;

pub use crate::state::QuerySlice;

/// A batch of confidence-increment problems that share base tuples (the
/// same user issuing several queries within a short time period).
///
/// All queries must agree on δ; each keeps its own threshold β and quota.
#[derive(Debug, Clone)]
pub struct MultiQueryProblem {
    flat: ProblemInstance,
    queries: Vec<QuerySlice>,
}

impl MultiQueryProblem {
    /// Merge single-query instances into one multi-query problem. Base
    /// tuples with the same external id are identified (first definition
    /// wins; initial confidences and cost functions must agree in any
    /// sane use).
    pub fn merge(instances: &[ProblemInstance]) -> Result<MultiQueryProblem> {
        let Some(first) = instances.first() else {
            return Err(CoreError::InvalidProblem("no queries supplied".into()));
        };
        let delta = first.delta;
        for (qi, p) in instances.iter().enumerate() {
            if (p.delta - delta).abs() > 1e-12 {
                return Err(CoreError::InvalidProblem(format!(
                    "query {qi} uses δ = {} but query 0 uses {delta}",
                    p.delta
                )));
            }
        }
        let beta_max = instances.iter().map(|p| p.beta).fold(0.0f64, f64::max);
        let mut builder = ProblemBuilder::new(beta_max, delta);
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        let mut queries = Vec::with_capacity(instances.len());
        let mut start = 0;
        for p in instances {
            let local: Vec<usize> = p
                .bases
                .iter()
                .map(|b| {
                    *by_id.entry(b.id).or_insert_with(|| {
                        builder.base_capped(b.id, b.initial, b.max, b.cost.clone())
                    })
                })
                .collect();
            for r in &p.results {
                let bases: Option<Vec<usize>> =
                    r.bases.iter().map(|&b| local.get(b).copied()).collect();
                let bases = bases.ok_or_else(|| {
                    CoreError::InvalidProblem("a result names a base its query lacks".into())
                })?;
                builder.result_with(bases, r.conf.clone());
            }
            queries.push(QuerySlice {
                start,
                len: p.results.len(),
                beta: p.beta,
                required: p.required,
            });
            start += p.results.len();
        }
        Ok(MultiQueryProblem {
            flat: builder.build()?,
            queries,
        })
    }

    /// The merged instance: the base-tuple pool deduplicated by external
    /// id, and every query's results remapped onto it, query after query.
    /// Thresholds and quotas are per query ([`Self::queries`]); the
    /// instance's own `beta` and `required` stand for none of them.
    pub fn problem(&self) -> &ProblemInstance {
        &self.flat
    }

    /// Each query's slice of the merged result list, with its threshold
    /// and quota.
    pub fn queries(&self) -> &[QuerySlice] {
        &self.queries
    }
}

/// Solve a multi-query problem greedily: phase 1 raises the base tuple
/// with the best summed gain over *all* queries' unsatisfied results until
/// every query's quota holds; phase 2 rolls increments back as long as every
/// quota survives.
pub fn solve_greedy(
    multi: &MultiQueryProblem,
    options: &GreedyOptions,
) -> Result<SolveOutcome<GreedyStats>> {
    greedy::solve_queries(&multi.flat, &multi.queries, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    fn linear(rate: f64) -> CostFn {
        CostFn::linear(rate).unwrap()
    }

    fn query(beta: f64, ids: &[u64], required: usize) -> ProblemInstance {
        let mut b = ProblemBuilder::new(beta, 0.1);
        for &id in ids {
            b.base(id, 0.1, linear(10.0 + id as f64));
        }
        for &id in ids {
            b.result_from_lineage(&Lineage::var(id)).unwrap();
        }
        b.require(required).build().unwrap()
    }

    #[test]
    fn merge_identifies_shared_bases() {
        let q1 = query(0.5, &[0, 1], 1);
        let q2 = query(0.6, &[1, 2], 1);
        let m = MultiQueryProblem::merge(&[q1, q2]).unwrap();
        assert_eq!(m.problem().bases.len(), 3, "base 1 is shared");
        assert_eq!(m.problem().results.len(), 4);
        assert_eq!(m.queries()[1].start, 2);
    }

    #[test]
    fn solves_both_quotas() {
        let q1 = query(0.5, &[0, 1], 1);
        let q2 = query(0.6, &[1, 2], 2);
        let m = MultiQueryProblem::merge(&[q1, q2]).unwrap();
        let out = solve_greedy(&m, &GreedyOptions::default()).unwrap();
        // Query 2 needs both of its results above 0.6.
        let q2_satisfied = out.solution.satisfied.iter().filter(|&&ri| ri >= 2).count();
        assert_eq!(q2_satisfied, 2);
        // Query 1 needs one above 0.5 — base 1 (shared) already serves q2.
        assert!(out.solution.satisfied.iter().any(|&ri| ri < 2));
    }

    #[test]
    fn shared_base_serves_both_queries_cheaply() {
        // Both queries watch the same single tuple; raising it once must
        // satisfy both (no double cost).
        let q1 = query(0.5, &[7], 1);
        let q2 = query(0.4, &[7], 1);
        let m = MultiQueryProblem::merge(&[q1, q2]).unwrap();
        let out = solve_greedy(&m, &GreedyOptions::default()).unwrap();
        // 0.1 → 0.6 on a rate-17 linear cost: 0.5 · 17.
        assert!((out.solution.cost - 0.5 * 17.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_delta_rejected() {
        let q1 = query(0.5, &[0], 1);
        let mut q2 = query(0.5, &[1], 1);
        q2.delta = 0.2;
        assert!(matches!(
            MultiQueryProblem::merge(&[q1, q2]),
            Err(CoreError::InvalidProblem(_))
        ));
    }

    #[test]
    fn infeasible_query_detected() {
        let q1 = query(0.5, &[0], 1);
        let mut b = ProblemBuilder::new(0.9, 0.1);
        b.base_capped(9, 0.1, 0.2, linear(1.0));
        b.result_from_lineage(&Lineage::var(9)).unwrap();
        let q2 = b.require(1).build().unwrap();
        let m = MultiQueryProblem::merge(&[q1, q2]).unwrap();
        assert!(matches!(
            solve_greedy(&m, &GreedyOptions::default()),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(MultiQueryProblem::merge(&[]).is_err());
    }

    #[test]
    fn two_phase_trims_multi_query_cost() {
        let q1 = query(0.5, &[0, 1, 2], 2);
        let q2 = query(0.55, &[1, 2, 3], 2);
        let m = MultiQueryProblem::merge(&[q1, q2]).unwrap();
        let two = solve_greedy(&m, &GreedyOptions::default()).unwrap();
        let one = solve_greedy(&m, &GreedyOptions::one_phase()).unwrap();
        assert!(two.solution.cost <= one.solution.cost + 1e-9);
    }
}
