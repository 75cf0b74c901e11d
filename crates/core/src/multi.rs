//! Multiple-query strategy finding (the extension sketched at the end of
//! Section 4: "the search space has to be extended to include all distinct
//! base tuples associated with all queries … we need to check whether a
//! solution is found for all queries").

use crate::clock::Stopwatch;
use crate::error::CoreError;
use crate::greedy::{GainMode, GreedyOptions, GreedyStats};
use crate::ord::OrdF64;
use crate::problem::{BaseVar, ProblemInstance, ResultSpec};
use crate::solution::{Solution, SolveOutcome};
use crate::state::EvalState;
use crate::Result;
use std::collections::BTreeMap;

/// A batch of confidence-increment problems that share base tuples (the
/// same user issuing several queries within a short time period).
///
/// All queries must agree on δ; each keeps its own threshold β and quota.
#[derive(Debug, Clone)]
pub struct MultiQueryProblem {
    /// The merged base-tuple pool (deduplicated by external id).
    pub bases: Vec<BaseVar>,
    /// Every result across all queries, remapped onto the merged pool.
    pub results: Vec<ResultSpec>,
    /// `(first result index, result count, β, required)` per query.
    pub queries: Vec<QuerySlice>,
    /// Shared increment granularity δ.
    pub delta: f64,
}

/// One query's slice of the merged result list, with its own threshold and
/// quota.
#[derive(Debug, Clone, Copy)]
pub struct QuerySlice {
    /// Index of the query's first result in [`MultiQueryProblem::results`].
    pub start: usize,
    /// Number of results belonging to the query.
    pub len: usize,
    /// The query's threshold β.
    pub beta: f64,
    /// Results that must exceed β.
    pub required: usize,
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
        let mut bases: Vec<BaseVar> = Vec::new();
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        let mut results = Vec::new();
        let mut queries = Vec::new();
        for p in instances {
            let local: Vec<usize> = p
                .bases
                .iter()
                .map(|b| {
                    *by_id.entry(b.id).or_insert_with(|| {
                        bases.push(b.clone());
                        bases.len() - 1
                    })
                })
                .collect();
            let start = results.len();
            for r in &p.results {
                results.push(ResultSpec {
                    bases: r.bases.iter().map(|&b| local[b]).collect(),
                    conf: r.conf.clone(),
                });
            }
            queries.push(QuerySlice {
                start,
                len: p.results.len(),
                beta: p.beta,
                required: p.required,
            });
        }
        Ok(MultiQueryProblem {
            bases,
            results,
            queries,
            delta,
        })
    }

    /// Flatten into a single [`ProblemInstance`] whose β is the *maximum*
    /// across queries — only usable for feasibility probing, since each
    /// query keeps its own threshold in the real solve.
    fn as_flat_instance(&self) -> Result<ProblemInstance> {
        let beta_max = self.queries.iter().map(|q| q.beta).fold(0.0f64, f64::max);
        let mut builder = crate::problem::ProblemBuilder::new(beta_max, self.delta);
        for b in &self.bases {
            builder.base_capped(b.id, b.initial, b.max, b.cost.clone());
        }
        for r in &self.results {
            builder.result_with(r.bases.clone(), r.conf.clone());
        }
        builder.build()
    }
}

/// Solve a multi-query problem greedily: phase 1 raises the base tuple
/// with the best summed gain over *all* queries' unsatisfied results until
/// every query's quota holds; phase 2 rolls increments back while every
/// quota survives.
pub fn solve_greedy(
    multi: &MultiQueryProblem,
    options: &GreedyOptions,
) -> Result<SolveOutcome<GreedyStats>> {
    let watch = Stopwatch::start();
    let flat = multi.as_flat_instance()?;
    let mut state = EvalState::new_par(&flat, &options.parallelism);
    let mut stats = GreedyStats::default();

    // Feasibility: every query must be satisfiable at max confidence.
    {
        let all: Vec<usize> = (0..flat.bases.len()).collect();
        for (qi, q) in multi.queries.iter().enumerate() {
            let achievable = optimistic_for_query(&mut state, multi, qi, &all);
            if achievable < q.required {
                return Err(CoreError::Infeasible {
                    achievable,
                    required: q.required,
                });
            }
        }
    }

    let useful = options.gain == GainMode::Useful;
    let quotas_met = |state: &EvalState<'_>| {
        multi
            .queries
            .iter()
            .enumerate()
            .all(|(qi, q)| satisfied_for_query(state, multi, qi) >= q.required)
    };

    let mut last_gain = vec![f64::NAN; multi.bases.len()];
    let mut raised: Vec<usize> = Vec::new();
    while !quotas_met(&state) {
        if stats.iterations >= options.max_iterations {
            return Err(CoreError::GaveUp("multi-query greedy iteration cap".into()));
        }
        let mut best: Option<(f64, usize)> = None;
        let mut fallback: Option<(f64, usize)> = None;
        for i in 0..multi.bases.len() {
            let step_cost = state.next_step_cost(i);
            if !step_cost.is_finite() {
                continue;
            }
            let gain_num = gain_for(&mut state, multi, i, useful);
            let touches = gain_num > 0.0
                || flat.results_of_base(i).iter().any(|&ri| {
                    let (qi, q) = query_of(multi, ri);
                    state.confidence(ri) <= q.beta
                        && satisfied_for_query(&state, multi, qi) < q.required
                });
            let gain = if step_cost > 0.0 {
                gain_num / step_cost
            } else if gain_num > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            if gain > 0.0 && best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, i));
            }
            if touches && fallback.is_none_or(|(c, _)| step_cost < c) {
                fallback = Some((step_cost, i));
            }
        }
        let (gain, pick) = best.or(fallback).ok_or_else(|| {
            CoreError::GaveUp("no base tuple can help any unsatisfied query".into())
        })?;
        state.step_up(pick);
        if last_gain[pick].is_nan() {
            raised.push(pick);
        }
        last_gain[pick] = gain;
        stats.iterations += 1;
    }

    if options.two_phase {
        raised.sort_by_key(|&a| (OrdF64(last_gain[a]), a));
        for &i in &raised {
            loop {
                if state.steps_of(i) == 0 {
                    break;
                }
                state.step_down(i);
                if quotas_met(&state) {
                    stats.reductions += 1;
                } else {
                    state.step_up(i);
                    break;
                }
            }
        }
    }

    stats.evals = state.evals;
    stats.elapsed = watch.elapsed();
    // Satisfied set: results above their own query's β.
    let satisfied: Vec<usize> = (0..multi.results.len())
        .filter(|&ri| {
            let (_, q) = query_of(multi, ri);
            state.confidence(ri) > q.beta
        })
        .collect();
    let solution = Solution {
        levels: (0..multi.bases.len()).map(|i| state.level(i)).collect(),
        cost: state.total_cost(),
        satisfied,
    };
    Ok(SolveOutcome { solution, stats })
}

fn query_of(multi: &MultiQueryProblem, ri: usize) -> (usize, &QuerySlice) {
    for (qi, q) in multi.queries.iter().enumerate() {
        if ri >= q.start && ri < q.start + q.len {
            return (qi, q);
        }
    }
    unreachable!("result index {ri} outside every query slice")
}

fn satisfied_for_query(state: &EvalState<'_>, multi: &MultiQueryProblem, qi: usize) -> usize {
    let q = &multi.queries[qi];
    (q.start..q.start + q.len)
        .filter(|&ri| state.confidence(ri) > q.beta)
        .count()
}

fn optimistic_for_query(
    state: &mut EvalState<'_>,
    multi: &MultiQueryProblem,
    qi: usize,
    all: &[usize],
) -> usize {
    // Raise everything to max, count this query's passing results, restore.
    let saved: Vec<u32> = (0..multi.bases.len()).map(|i| state.steps_of(i)).collect();
    for &i in all {
        let max = state.problem().max_steps(i);
        state.set_steps(i, max);
    }
    let count = satisfied_for_query(state, multi, qi);
    for (i, &s) in saved.iter().enumerate() {
        state.set_steps(i, s);
    }
    count
}

/// Summed ΔF of one δ step on base `i` over unsatisfied results of
/// unsatisfied queries.
fn gain_for(state: &mut EvalState<'_>, multi: &MultiQueryProblem, i: usize, useful: bool) -> f64 {
    let flat = state.problem();
    let s = state.steps_of(i);
    if s >= flat.max_steps(i) {
        return 0.0;
    }
    let mut gain = 0.0;
    let results: Vec<usize> = flat.results_of_base(i).to_vec();
    let old = state.confidences_snapshot(&results);
    // Probe by temporarily committing the step (cheap and exact).
    state.set_steps(i, s + 1);
    for (k, &ri) in results.iter().enumerate() {
        let (_, q) = query_of(multi, ri);
        if useful && old[k] > q.beta {
            continue;
        }
        gain += (state.confidence(ri) - old[k]).max(0.0);
    }
    state.set_steps(i, s);
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
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
        assert_eq!(m.bases.len(), 3, "base 1 is shared");
        assert_eq!(m.results.len(), 4);
        assert_eq!(m.queries[1].start, 2);
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
