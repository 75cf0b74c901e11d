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

use crate::clock::Stopwatch;
use crate::error::CoreError;
use crate::greedy::{self, GreedyOptions, GreedyStats};
use crate::heuristic::{self, HeuristicOptions};
use crate::ord::OrdF64;
use crate::partition::{partition, PartitionOptions};
use crate::problem::ProblemInstance;
use crate::solution::SolveOutcome;
use crate::state::EvalState;
use crate::Result;
use std::collections::BTreeMap;
use std::time::Duration;

/// Options for the divide-and-conquer solver.
#[derive(Debug, Clone)]
pub struct DncOptions {
    /// Graph-partitioning weight threshold γ (merge while `w_max > γ`).
    pub gamma: f64,
    /// Run branch-and-bound refinement in groups with fewer than τ base
    /// tuples.
    pub tau: usize,
    /// Node budget for each per-group branch-and-bound run.
    pub bb_node_budget: u64,
    /// Greedy configuration used inside each group.
    pub greedy: GreedyOptions,
    /// Cap on base tuples per group (forwarded to the partitioner).
    pub max_group_bases: Option<usize>,
}

impl Default for DncOptions {
    fn default() -> Self {
        DncOptions {
            gamma: 1.0,
            tau: 10,
            bb_node_budget: 100_000,
            greedy: GreedyOptions::default(),
            max_group_bases: Some(4096),
        }
    }
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
    /// Time spent partitioning.
    pub partition_elapsed: Duration,
    /// Wall-clock time of the group-solving section (all workers).
    pub groups_elapsed: Duration,
    /// Branch-and-bound time summed over the groups, so it exceeds
    /// [`Self::groups_elapsed`] when groups ran side by side.
    pub bb_elapsed: Duration,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

/// Solve with divide-and-conquer.
pub fn solve(problem: &ProblemInstance, options: &DncOptions) -> Result<SolveOutcome<DncStats>> {
    let watch = Stopwatch::start();
    let mut state = EvalState::new_par(problem, &options.greedy.parallelism);
    state.check_feasible()?;
    let mut stats = DncStats::default();

    // --- Partition ---------------------------------------------------
    let part_watch = Stopwatch::start();
    let groups = partition(
        problem,
        &PartitionOptions {
            gamma: options.gamma,
            max_group_bases: options.max_group_bases,
        },
    );
    stats.partition_elapsed = part_watch.elapsed();
    stats.groups = groups.len();

    // --- Solve each group --------------------------------------------
    // One morsel per group. Whether spawning pays is decided by the grid
    // points the groups' searches range over (one grid per result–base
    // reference), against the same threshold as every other batch. The
    // fold below runs after the join, in group order, so statistics and
    // the per-base maximum come out as the sequential loop's would at any
    // worker count; so does the error, which is the first in group order.
    let weight: usize = groups
        .iter()
        .flatten()
        .flat_map(|&ri| &problem.results[ri].bases)
        .map(|&b| state.max_steps(b) as usize + 1)
        .sum();
    let groups_watch = Stopwatch::start();
    let outcomes = pcqe_par::morsel::try_map_morsels(
        &options.greedy.parallelism,
        &groups,
        weight,
        |_, group| solve_group(problem, group, options),
        None,
    )?;
    stats.groups_elapsed = groups_watch.elapsed();
    // Final step counts per global base index (max across groups).
    let mut combined_steps: Vec<u32> = vec![0; problem.bases.len()];
    for outcome in outcomes {
        stats.largest_group_bases = stats.largest_group_bases.max(outcome.bases);
        stats.greedy.iterations += outcome.greedy.iterations;
        stats.greedy.reductions += outcome.greedy.reductions;
        stats.greedy.evals += outcome.greedy.evals;
        if let Some((nodes, elapsed)) = outcome.bb {
            stats.bb_groups += 1;
            stats.bb_nodes += nodes;
            stats.bb_elapsed += elapsed;
        }
        for (global_idx, steps) in outcome.steps {
            combined_steps[global_idx] = combined_steps[global_idx].max(steps);
        }
    }

    // --- Combine -------------------------------------------------------
    for (i, &steps) in combined_steps.iter().enumerate() {
        if steps > 0 {
            state.set_steps(i, steps);
        }
    }
    // Defensive top-up: with monotone confidence functions the combination
    // always meets the quota, but non-monotone custom functions could
    // regress; finish the job with greedy steps if needed.
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
    let mut candidates: Vec<(f64, usize)> = Vec::new();
    let mut now: Vec<f64> = Vec::new();
    for i in 0..problem.bases.len() {
        let steps = state.steps_of(i);
        if steps == 0 {
            continue;
        }
        let refund = state.cost_at(i, steps);
        let results = problem.results_of_base(i);
        now.clear();
        now.extend(results.iter().map(|&ri| state.confidence(ri)));
        state.set_steps(i, 0);
        let loss: f64 = now
            .iter()
            .zip(results)
            .map(|(a, &ri)| (a - state.confidence(ri)).max(0.0))
            .sum();
        state.set_steps(i, steps);
        let gain = if refund > 0.0 {
            loss / refund
        } else {
            f64::INFINITY
        };
        candidates.push((gain, i));
    }
    candidates.sort_by_key(|&(g, i)| (OrdF64(g), i));
    let order: Vec<usize> = candidates.into_iter().map(|(_, i)| i).collect();
    stats.refinement_reductions = greedy::roll_back(&mut state, &order);

    stats.elapsed = watch.elapsed();
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
    /// Nodes and time of the group's branch-and-bound, if it ran.
    bb: Option<(u64, Duration)>,
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
        bb: None,
        steps: Vec::new(),
    };
    if sub.required == 0 {
        return Ok(outcome);
    }
    let g = greedy::solve(&sub, &options.greedy)?;
    outcome.greedy = g.stats;
    let solution = if sub.bases.len() < options.tau {
        let opts = HeuristicOptions {
            node_limit: Some(options.bb_node_budget),
            ..HeuristicOptions::all().with_seed(g.solution)
        };
        let h = heuristic::solve(&sub, &opts)?;
        outcome.bb = Some((h.stats.nodes, h.stats.elapsed));
        h.solution
    } else {
        g.solution
    };
    outcome.steps = base_map
        .iter()
        .enumerate()
        .map(|(sub_idx, &global_idx)| {
            let steps = ((solution.levels[sub_idx] - sub.bases[sub_idx].initial) / sub.delta)
                .round() as u32;
            (global_idx, steps)
        })
        .collect();
    Ok(outcome)
}

/// Build the sub-problem for one group of result indexes. Returns the
/// instance plus the mapping from sub-base index to global base index.
fn sub_problem(
    problem: &ProblemInstance,
    group: &[usize],
) -> Result<(ProblemInstance, Vec<usize>)> {
    let mut base_map: Vec<usize> = Vec::new();
    let mut global_to_sub: BTreeMap<usize, usize> = BTreeMap::new();
    for &ri in group {
        for &b in &problem.results[ri].bases {
            global_to_sub.entry(b).or_insert_with(|| {
                base_map.push(b);
                base_map.len() - 1
            });
        }
    }
    let mut builder = crate::problem::ProblemBuilder::new(problem.beta, problem.delta);
    for &g in &base_map {
        let b = &problem.bases[g];
        builder.base_capped(b.id, b.initial, b.max, b.cost.clone());
    }
    for &ri in group {
        let r = &problem.results[ri];
        builder.result_with(
            r.bases.iter().map(|&b| global_to_sub[&b]).collect(),
            r.conf.clone(),
        );
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
        out.solution.validate(&p).unwrap();
        assert!(out.stats.groups >= 2, "clusters must not collapse");
    }

    #[test]
    fn matches_exact_optimum_on_small_instances() {
        for required in 1..=4 {
            let p = clustered_instance(required);
            let exact = heuristic::solve(&p, &HeuristicOptions::all()).unwrap();
            let dnc = solve(&p, &DncOptions::default()).unwrap();
            dnc.solution.validate(&p).unwrap();
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
        let p = clustered_instance(3);
        let out = solve(
            &p,
            &DncOptions {
                tau: 100,
                ..DncOptions::default()
            },
        )
        .unwrap();
        assert!(out.stats.bb_groups > 0);
        assert!(out.stats.bb_nodes > 0);
    }

    #[test]
    fn tau_zero_disables_group_bb() {
        let p = clustered_instance(3);
        let out = solve(
            &p,
            &DncOptions {
                tau: 0,
                ..DncOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.stats.bb_groups, 0);
        out.solution.validate(&p).unwrap();
    }

    #[test]
    fn full_quota_across_all_groups() {
        let p = clustered_instance(5);
        let out = solve(&p, &DncOptions::default()).unwrap();
        out.solution.validate(&p).unwrap();
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
        // One base shared between two results that land in different
        // groups when γ is high enough to keep them apart.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, linear(10.0));
        b.base(1, 0.1, linear(10.0));
        b.base(2, 0.1, linear(10.0));
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(0), Lineage::var(1)]))
            .unwrap();
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(1), Lineage::var(2)]))
            .unwrap();
        let p = b.require(2).build().unwrap();
        let out = solve(
            &p,
            &DncOptions {
                gamma: 5.0, // keep the two results in separate groups
                ..DncOptions::default()
            },
        )
        .unwrap();
        out.solution.validate(&p).unwrap();
        assert_eq!(out.stats.groups, 2);
    }
}
