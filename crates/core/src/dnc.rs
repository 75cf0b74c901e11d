//! The divide-and-conquer algorithm (Section 4.3, Figure 10).
//!
//! 1. **Partition** the intermediate results into groups by merge-
//!    clustering the shared-base-tuple graph (see [`crate::partition`]).
//! 2. **Solve** each group independently with the greedy algorithm; for
//!    groups with fewer than τ base tuples additionally run the heuristic
//!    branch-and-bound, seeded with the group's greedy solution as the
//!    initial cost upper bound. The groups share nothing, so they are
//!    dispatched as morsels over the caller's [`pcqe_par::Parallelism`]
//!    and folded back in group order.
//! 3. **Combine**: overlapping base tuples take the maximum confidence
//!    across group solutions (never reducing any group's results).
//! 4. **Refine**: a phase-2-style roll-back, starting from the base tuple
//!    with the minimum gain*, trims increments the combined answer no
//!    longer needs.

use crate::error::CoreError;
use crate::greedy::{self, GreedyOptions, GreedyStats};
use crate::heuristic::{self, HeuristicOptions};
use crate::ord::OrdF64;
use crate::partition::partition;
use crate::problem::{BaseVar, ProblemInstance};
use crate::solution::SolveOutcome;
use crate::state::EvalState;
use crate::Result;
use std::collections::BTreeMap;

/// The branch-and-bound cutoff τ: a group with fewer base tuples also
/// runs branch-and-bound after its greedy.
const TAU: usize = 10;

/// Node limit of each group's branch-and-bound run.
const GROUP_NODE_LIMIT: u64 = 100_000;

/// Options for the divide-and-conquer solver.
#[derive(Debug, Clone, Default)]
pub struct DncOptions {
    /// Greedy configuration used inside each group.
    pub greedy: GreedyOptions,
}

/// Statistics from a divide-and-conquer run.
#[derive(Debug, Clone, Default)]
pub struct DncStats {
    /// Number of groups after partitioning.
    pub groups: usize,
    /// Base tuples in the largest group.
    pub largest_group_bases: usize,
    /// Groups that also ran branch-and-bound.
    pub bb_groups: usize,
    /// Total branch-and-bound nodes across groups.
    pub bb_nodes: u64,
    /// Aggregate greedy statistics across groups.
    pub greedy: GreedyStats,
    /// Steps removed by the final refinement.
    pub refinement_reductions: u64,
}

/// Solve with divide-and-conquer.
pub fn solve(problem: &ProblemInstance, options: &DncOptions) -> Result<SolveOutcome<DncStats>> {
    let mut state = EvalState::new(problem);
    state.check_feasible()?;
    let mut stats = DncStats::default();

    // --- Partition ---------------------------------------------------
    let groups = partition(problem);
    stats.groups = groups.len();

    // --- Solve each group --------------------------------------------
    // One morsel per group. Whether spawning pays is decided by the grid
    // points the groups' searches range over (one grid per result–base
    // reference), against the policy's threshold. The
    // fold below runs after the join, in group order, so statistics and
    // the per-base maximum come out as the sequential loop's would at any
    // worker count; so does the error, which is the first in group order.
    let weight: usize = groups
        .iter()
        .flatten()
        .filter_map(|&ri| problem.results.get(ri))
        .flat_map(|r| &r.bases)
        .filter_map(|&b| state.grid(b))
        .map(<[_]>::len)
        .sum();
    let outcomes = pcqe_par::morsel::try_map_morsels(
        &options.greedy.parallelism,
        &groups,
        weight,
        |_, group| solve_group(problem, group, options),
    )?;
    // Final step counts per global base index (max across groups).
    let mut combined_steps: Vec<u32> = vec![0; problem.bases.len()];
    for outcome in outcomes {
        stats.largest_group_bases = stats.largest_group_bases.max(outcome.bases);
        stats.greedy.iterations += outcome.greedy.iterations;
        stats.greedy.reductions += outcome.greedy.reductions;
        stats.greedy.evals += outcome.greedy.evals;
        if let Some(nodes) = outcome.bb_nodes {
            stats.bb_groups += 1;
            stats.bb_nodes += nodes;
        }
        for (global_idx, steps) in outcome.steps {
            if let Some(combined) = combined_steps.get_mut(global_idx) {
                *combined = (*combined).max(steps);
            }
        }
    }

    // --- Combine -------------------------------------------------------
    for (i, &steps) in combined_steps.iter().enumerate() {
        if steps > 0 {
            state.set_steps(i, steps);
        }
    }
    // Defensive top-up. With monotone lineage the combination meets the
    // quota: a group that targets the whole quota meets it alone, and
    // otherwise the groups target all they can reach, which sums to what
    // the whole problem can reach; taking the maximum step per base
    // unsatisfies nothing. Only negated lineage could regress, and
    // `ProblemBuilder` refuses it; should rounding ever leave the quota
    // short, finish the job with greedy steps.
    if !state.meets_quota() {
        greedy::run(&mut state, &options.greedy, &mut stats.greedy)?;
    }

    // --- Refine ---------------------------------------------------------
    // Roll back from the lowest gain* upward (Section 4.3: "starts from
    // the base tuple with the minimum gain*"). After combination the
    // relevant gain of a raised base is what its increments actually buy:
    // the confidence its results would lose were it reset, per unit of
    // cost refunded — bases delivering the least confidence per cost are
    // rolled back first.
    // Each candidate enters as `(refund, base, steps)` and leaves as
    // `(gain, base, steps)`.
    let mut candidates: Vec<(f64, usize, u32)> = state.raised().collect();
    let mut now: Vec<Option<f64>> = Vec::new();
    for (gain, i, steps) in &mut candidates {
        let (refund, i, steps) = (*gain, *i, *steps);
        let results = problem.results_of_base(i);
        now.clear();
        now.extend(results.iter().map(|&ri| state.confidence(ri)));
        state.set_steps(i, 0);
        let loss: f64 = (now.iter().zip(results))
            .filter_map(|(&was, &ri)| Some((was? - state.confidence(ri)?).max(0.0)))
            .sum();
        state.set_steps(i, steps);
        *gain = if refund > 0.0 {
            loss / refund
        } else {
            f64::INFINITY
        };
    }
    candidates.sort_by_key(|&(g, i, _)| (OrdF64(g), i));
    let order: Vec<usize> = candidates.into_iter().map(|(_, i, _)| i).collect();
    stats.refinement_reductions = greedy::roll_back(&mut state, &order);

    debug_assert!(state.meets_quota());
    let solution = state.to_solution();
    if solution.satisfied.len() < problem.required {
        return Err(CoreError::GaveUp(
            "combination failed to meet the quota (non-monotone confidence function?)".into(),
        ));
    }
    Ok(SolveOutcome { solution, stats })
}

/// What one group hands to the combination.
struct GroupOutcome {
    /// Base tuples in the group.
    bases: usize,
    /// The group's greedy run (all zero when the group needed nothing).
    greedy: GreedyStats,
    /// Nodes of the group's branch-and-bound, if it ran.
    bb_nodes: Option<u64>,
    /// `(global base index, grid steps)` of the group's solution.
    steps: Vec<(usize, u32)>,
}

/// Solve one group: greedy, then branch-and-bound seeded with the greedy
/// answer when the group has fewer than τ base tuples.
fn solve_group(
    problem: &ProblemInstance,
    group: &[usize],
    options: &DncOptions,
) -> Result<GroupOutcome> {
    let (sub, base_map) = sub_problem(problem, group)?;
    let mut outcome = GroupOutcome {
        bases: sub.bases.len(),
        greedy: GreedyStats::default(),
        bb_nodes: None,
        steps: Vec::new(),
    };
    if sub.required == 0 {
        return Ok(outcome);
    }
    let g = greedy::solve(&sub, &options.greedy)?;
    outcome.greedy = g.stats;
    let solution = if sub.bases.len() < TAU {
        let opts = HeuristicOptions {
            node_limit: Some(GROUP_NODE_LIMIT),
            ..HeuristicOptions::all().with_seed(g.solution)
        };
        let h = heuristic::solve(&sub, &opts)?;
        outcome.bb_nodes = Some(h.stats.nodes);
        h.solution
    } else {
        g.solution
    };
    outcome.steps = base_map
        .iter()
        .zip(&sub.bases)
        .zip(&solution.levels)
        .map(|((&global_idx, base), &level)| (global_idx, grid_step(base, sub.delta, level)))
        .collect();
    Ok(outcome)
}

/// The grid step of `base` that a solver's `level` sits on. Solvers
/// only set grid points, so this is exact where rounding
/// `(level − initial) / δ` is not: a base clamped at a maximum that lies
/// less than half a step above the grid point below it would lose its top
/// step.
fn grid_step(base: &BaseVar, delta: f64, level: f64) -> u32 {
    (1..=base.max_steps(delta))
        .take_while(|&s| base.level_at(delta, s) <= level)
        .count() as u32
}

/// Build the sub-problem for one group of result indexes. Returns the
/// instance plus the mapping from sub-base index to global base index.
fn sub_problem(
    problem: &ProblemInstance,
    group: &[usize],
) -> Result<(ProblemInstance, Vec<usize>)> {
    let mut builder = crate::problem::ProblemBuilder::new(problem.beta, problem.delta);
    let mut base_map: Vec<usize> = Vec::new();
    let mut global_to_sub: BTreeMap<usize, usize> = BTreeMap::new();
    for r in group.iter().filter_map(|&ri| problem.results.get(ri)) {
        let mut bases = Vec::with_capacity(r.bases.len());
        for &g in &r.bases {
            let sub = match global_to_sub.get(&g) {
                Some(&sub) => sub,
                None => {
                    let b = problem.bases.get(g).ok_or_else(|| {
                        CoreError::InvalidProblem("result references an unknown base".into())
                    })?;
                    let sub = builder.base_capped(b.id, b.initial, b.max, b.cost.clone());
                    global_to_sub.insert(g, sub);
                    base_map.push(g);
                    sub
                }
            };
            bases.push(sub);
        }
        builder.result_with(bases, r.conf.clone());
    }
    let mut sub = builder.build()?;
    // Paper: a group with x results targets min(x, y) where y is the whole
    // query's requirement — further capped by what the group can actually
    // achieve, so per-group solving never reports a spurious Infeasible.
    let achievable = {
        let mut s = EvalState::new(&sub);
        let all: Vec<usize> = (0..sub.bases.len()).collect();
        s.optimistic_satisfied(&all)
    };
    sub.required = group.len().min(problem.required).min(achievable);
    Ok((sub, base_map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic;
    use crate::problem::ProblemBuilder;
    use crate::solution::check::check_solution;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    fn linear(rate: f64) -> CostFn {
        CostFn::linear(rate).unwrap()
    }

    /// Two independent clusters of results plus one singleton.
    fn clustered_instance(required: usize) -> ProblemInstance {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        for i in 0..9u64 {
            b.base(i, 0.1, linear(10.0 + (i as f64) * 5.0));
        }
        // Cluster A over bases 0-3.
        b.result_from_lineage(&Lineage::or(vec![
            Lineage::var(0),
            Lineage::and(vec![Lineage::var(1), Lineage::var(2)]),
        ]))
        .unwrap();
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(1), Lineage::var(3)]))
            .unwrap();
        // Cluster B over bases 4-7.
        b.result_from_lineage(&Lineage::or(vec![
            Lineage::var(4),
            Lineage::and(vec![Lineage::var(5), Lineage::var(6)]),
        ]))
        .unwrap();
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(5), Lineage::var(7)]))
            .unwrap();
        // Singleton over base 8.
        b.result_from_lineage(&Lineage::var(8)).unwrap();
        b.require(required).build().unwrap()
    }

    #[test]
    fn solves_and_validates() {
        let p = clustered_instance(3);
        let out = solve(&p, &DncOptions::default()).unwrap();
        check_solution(&out.solution, &p).unwrap();
        assert!(out.stats.groups >= 2, "clusters must not collapse");
    }

    #[test]
    fn matches_exact_optimum_on_small_instances() {
        for required in 1..=4 {
            let p = clustered_instance(required);
            let exact = heuristic::solve(&p, &HeuristicOptions::all()).unwrap();
            let dnc = solve(&p, &DncOptions::default()).unwrap();
            check_solution(&dnc.solution, &p).unwrap();
            assert!(
                dnc.solution.cost <= exact.solution.cost * 1.5 + 1e-9,
                "required={required}: dnc {} vs optimal {}",
                dnc.solution.cost,
                exact.solution.cost
            );
            assert!(
                dnc.solution.cost >= exact.solution.cost - 1e-9,
                "dnc cannot beat the optimum"
            );
        }
    }

    #[test]
    fn group_bb_refinement_kicks_in_for_small_groups() {
        // Every group has at most four bases, under τ.
        let p = clustered_instance(3);
        let out = solve(&p, &DncOptions::default()).unwrap();
        assert!(out.stats.bb_groups > 0);
        assert!(out.stats.bb_nodes > 0);
    }

    #[test]
    fn full_quota_across_all_groups() {
        let p = clustered_instance(5);
        let out = solve(&p, &DncOptions::default()).unwrap();
        check_solution(&out.solution, &p).unwrap();
        assert_eq!(out.solution.satisfied.len(), 5);
    }

    #[test]
    fn infeasible_detected() {
        let mut b = ProblemBuilder::new(0.9, 0.1);
        b.base_capped(0, 0.1, 0.3, linear(1.0));
        b.result_from_lineage(&Lineage::var(0)).unwrap();
        let p = b.require(1).build().unwrap();
        assert!(matches!(
            solve(&p, &DncOptions::default()),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn overlapping_groups_take_max_confidence() {
        // One base shared between two results: weight 1 does not exceed
        // γ, so they land in different groups.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, linear(10.0));
        b.base(1, 0.1, linear(10.0));
        b.base(2, 0.1, linear(10.0));
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(0), Lineage::var(1)]))
            .unwrap();
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(1), Lineage::var(2)]))
            .unwrap();
        let p = b.require(2).build().unwrap();
        let out = solve(&p, &DncOptions::default()).unwrap();
        check_solution(&out.solution, &p).unwrap();
        assert_eq!(out.stats.groups, 2);
    }
}
