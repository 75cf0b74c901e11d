//! The heuristic branch-and-bound algorithm (Section 4.1).
//!
//! A depth-first search assigns each base tuple a grid confidence value in
//! turn (Figure 3). Pruning devices, each independently toggleable so that
//! Figure 11(a)/(d) can be reproduced:
//!
//! * **bound** (always on — the paper's "Naive" keeps it): abandon a value
//!   branch once the accumulated cost reaches the best known cost;
//! * **H1** — visit base tuples in *descending* order of `costβ`, the
//!   minimum cost at which raising the tuple alone pushes some result over
//!   the threshold (tuples that cannot do so get the penalised
//!   `cost · β / F_max` value);
//! * **H2** — once every result touching the current tuple is satisfied,
//!   skip its remaining (higher, costlier) values;
//! * **H3** — if even raising all remaining tuples to their maximum cannot
//!   meet the quota, abandon the subtree;
//! * **H4** — if the current cost plus the cheapest possible single δ step
//!   on any remaining tuple already reaches the best cost, abandon the
//!   subtree.
//!
//! With no pruning beyond the bound the search is exact but exponential
//! (`O(d^k)`); with a greedy seed (Figure 11(d)) the initial upper bound is
//! tight from the start.

use crate::clock::{Deadline, Stopwatch};
use crate::error::CoreError;
use crate::ord::OrdF64;
use crate::problem::ProblemInstance;
use crate::solution::{Solution, SolveOutcome};
use crate::state::EvalState;
use crate::Result;
use std::cmp::Reverse;
use std::time::Duration;

/// Options for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct HeuristicOptions {
    /// H1: costβ-descending base ordering.
    pub h1_ordering: bool,
    /// H2: prune right siblings when all touched results pass.
    pub h2_sibling_prune: bool,
    /// H3: prune when the optimistic completion misses the quota.
    pub h3_optimistic_prune: bool,
    /// H4: prune on the cheapest-remaining-step lower bound.
    pub h4_cost_bound: bool,
    /// Seed solution (e.g. from greedy) supplying the initial upper bound.
    pub seed: Option<Solution>,
    /// Abort after this many search nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
    /// Abort after this much wall-clock time (`None` = unlimited).
    pub time_limit: Option<Duration>,
}

impl Default for HeuristicOptions {
    fn default() -> Self {
        HeuristicOptions::all()
    }
}

impl HeuristicOptions {
    /// All four heuristics enabled (the paper's "All").
    pub fn all() -> HeuristicOptions {
        HeuristicOptions {
            h1_ordering: true,
            h2_sibling_prune: true,
            h3_optimistic_prune: true,
            h4_cost_bound: true,
            seed: None,
            node_limit: None,
            time_limit: None,
        }
    }

    /// Only the cost upper bound (the paper's "Naive").
    pub fn naive() -> HeuristicOptions {
        HeuristicOptions {
            h1_ordering: false,
            h2_sibling_prune: false,
            h3_optimistic_prune: false,
            h4_cost_bound: false,
            seed: None,
            node_limit: None,
            time_limit: None,
        }
    }

    /// Naive plus exactly one heuristic, by number 1–4 (for Figure 11(a)).
    pub fn only(heuristic: u8) -> HeuristicOptions {
        let mut o = HeuristicOptions::naive();
        match heuristic {
            1 => o.h1_ordering = true,
            2 => o.h2_sibling_prune = true,
            3 => o.h3_optimistic_prune = true,
            4 => o.h4_cost_bound = true,
            _ => panic!("heuristic number must be 1..=4"),
        }
        o
    }

    /// Attach a seed solution as the initial upper bound (Figure 11(d)).
    pub fn with_seed(mut self, seed: Solution) -> HeuristicOptions {
        self.seed = Some(seed);
        self
    }
}

/// Statistics from a branch-and-bound run.
#[derive(Debug, Clone, Default)]
pub struct HeuristicStats {
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Times the incumbent solution improved.
    pub incumbent_updates: u64,
    /// Value branches cut by the cost bound.
    pub pruned_bound: u64,
    /// Sibling sets cut by H2.
    pub pruned_h2: u64,
    /// Subtrees cut by H3.
    pub pruned_h3: u64,
    /// Subtrees cut by H4.
    pub pruned_h4: u64,
    /// Confidence-function evaluations.
    pub evals: u64,
    /// Whether the search ran to completion (false on node/time limit).
    pub complete: bool,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Solve exactly (given enough budget) with branch-and-bound.
pub fn solve(
    problem: &ProblemInstance,
    options: &HeuristicOptions,
) -> Result<SolveOutcome<HeuristicStats>> {
    let watch = Stopwatch::start();
    let mut state = EvalState::new(problem);
    state.check_feasible()?;

    let order: Vec<usize> = if options.h1_ordering {
        cost_beta_order(problem, &mut state)
    } else {
        (0..problem.bases.len()).collect()
    };

    // Precompute suffix minima of the cheapest-possible δ step, for H4.
    let mut suffix_min_step = vec![f64::INFINITY; order.len() + 1];
    for d in (0..order.len()).rev() {
        suffix_min_step[d] = suffix_min_step[d + 1].min(problem.min_step_cost(order[d]));
    }

    let mut search = Search {
        problem,
        options,
        order,
        suffix_min_step,
        best_cost: options
            .seed
            .as_ref()
            .map(|s| s.cost)
            .unwrap_or(f64::INFINITY),
        best: options.seed.clone(),
        stats: HeuristicStats {
            complete: true,
            ..HeuristicStats::default()
        },
        deadline: Deadline::after(options.time_limit),
    };
    search.dfs(&mut state, 0);
    search.stats.evals = state.evals;
    search.stats.elapsed = watch.elapsed();

    match search.best {
        Some(solution) => Ok(SolveOutcome {
            solution,
            stats: search.stats,
        }),
        None => Err(CoreError::GaveUp(format!(
            "no solution within limits after {} nodes",
            search.stats.nodes
        ))),
    }
}

struct Search<'p, 'o> {
    problem: &'p ProblemInstance,
    options: &'o HeuristicOptions,
    order: Vec<usize>,
    suffix_min_step: Vec<f64>,
    best_cost: f64,
    best: Option<Solution>,
    stats: HeuristicStats,
    deadline: Deadline,
}

impl Search<'_, '_> {
    fn out_of_budget(&mut self) -> bool {
        if let Some(limit) = self.options.node_limit {
            if self.stats.nodes >= limit {
                self.stats.complete = false;
                return true;
            }
        }
        // Check the clock only occasionally; reading it is not free. An
        // unbounded deadline short-circuits without touching the clock.
        if self.stats.nodes.is_multiple_of(1024) && self.deadline.expired() {
            self.stats.complete = false;
            return true;
        }
        false
    }

    fn dfs(&mut self, state: &mut EvalState<'_>, depth: usize) {
        self.stats.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        if state.meets_quota() {
            // Deeper assignments only add cost; record and backtrack.
            if state.total_cost() < self.best_cost {
                self.best_cost = state.total_cost();
                self.best = Some(state.to_solution());
                self.stats.incumbent_updates += 1;
            }
            return;
        }
        if depth == self.order.len() {
            return;
        }
        if self.options.h3_optimistic_prune {
            let rest = &self.order[depth..];
            if state.optimistic_satisfied(rest) < self.problem.required {
                self.stats.pruned_h3 += 1;
                return;
            }
        }
        if self.options.h4_cost_bound
            && state.total_cost() + self.suffix_min_step[depth] >= self.best_cost
        {
            // The quota is unmet, so any solution below must raise at
            // least one remaining tuple by at least one δ step.
            self.stats.pruned_h4 += 1;
            return;
        }
        let base = self.order[depth];
        for steps in 0..=state.max_steps(base) {
            state.set_steps(base, steps);
            if state.total_cost() >= self.best_cost {
                // Higher values of this base only cost more.
                self.stats.pruned_bound += 1;
                break;
            }
            self.dfs(state, depth + 1);
            if self.options.h2_sibling_prune
                && self
                    .problem
                    .results_of_base(base)
                    .iter()
                    .all(|&ri| state.is_satisfied(ri))
            {
                // Raising this base further only helps results that
                // already pass — the optimum is not to the right.
                self.stats.pruned_h2 += 1;
                break;
            }
        }
        state.set_steps(base, 0);
    }
}

/// H1: order base tuples by descending `costβ` — the minimum cost at which
/// raising the tuple *alone* lifts at least one of its results over β.
fn cost_beta_order(problem: &ProblemInstance, state: &mut EvalState<'_>) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = (0..problem.bases.len())
        .map(|i| (cost_beta(problem, state, i), i))
        .collect();
    // Descending by costβ; ties keep index order for determinism.
    keyed.sort_by_key(|&(c, i)| (Reverse(OrdF64(c)), i));
    keyed.into_iter().map(|(_, i)| i).collect()
}

fn cost_beta(problem: &ProblemInstance, state: &mut EvalState<'_>, i: usize) -> f64 {
    let max_steps = state.max_steps(i);
    let mut best = f64::INFINITY;
    let mut best_unreachable = f64::INFINITY;
    for &ri in problem.results_of_base(i) {
        let mut reached = None;
        let mut f_max = 0.0;
        for s in 1..=max_steps {
            state.set_steps(i, s);
            let f = state.confidence(ri);
            f_max = f;
            if f > problem.beta {
                reached = Some(state.cost_at(i, s));
                break;
            }
        }
        state.set_steps(i, 0);
        match reached {
            Some(c) => best = best.min(c),
            None => {
                // Paper: adjust to cost / (F_max / β) when even the maximum
                // cannot reach β.
                if f_max > 0.0 {
                    let adjusted = state.cost_at(i, max_steps) / (f_max / problem.beta);
                    best_unreachable = best_unreachable.min(adjusted);
                }
            }
        }
    }
    if best.is_finite() {
        best
    } else {
        best_unreachable
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::greedy::{self, GreedyOptions};
    use crate::problem::ProblemBuilder;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    fn linear(rate: f64) -> CostFn {
        CostFn::linear(rate).unwrap()
    }

    /// A small instance with a known optimum: the paper's running example.
    fn paper_instance() -> ProblemInstance {
        let mut b = ProblemBuilder::new(0.06, 0.1);
        b.base(2, 0.3, linear(1000.0));
        b.base(3, 0.4, linear(100.0));
        b.base(13, 0.1, linear(500.0));
        b.result_from_lineage(&Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]))
        .unwrap();
        b.require(1).build().unwrap()
    }

    #[test]
    fn finds_the_paper_optimum() {
        let p = paper_instance();
        let out = solve(&p, &HeuristicOptions::all()).unwrap();
        out.solution.validate(&p).unwrap();
        // Optimal: raise tuple 03 by one step (0.4 → 0.5), cost 10,
        // giving p38 = 0.065 > 0.06.
        assert!((out.solution.cost - 10.0).abs() < 1e-9);
        assert!((out.solution.levels[1] - 0.5).abs() < 1e-9);
        assert!(out.stats.complete);
    }

    #[test]
    fn every_pruning_config_agrees_on_the_optimum() {
        let p = paper_instance();
        let reference = solve(&p, &HeuristicOptions::naive()).unwrap();
        for config in [
            HeuristicOptions::only(1),
            HeuristicOptions::only(2),
            HeuristicOptions::only(3),
            HeuristicOptions::only(4),
            HeuristicOptions::all(),
        ] {
            let out = solve(&p, &config).unwrap();
            assert!(
                (out.solution.cost - reference.solution.cost).abs() < 1e-9,
                "config {config:?} returned {} vs {}",
                out.solution.cost,
                reference.solution.cost
            );
        }
    }

    #[test]
    fn pruning_reduces_nodes() {
        let p = harder_instance();
        let naive = solve(&p, &HeuristicOptions::naive()).unwrap();
        let all = solve(&p, &HeuristicOptions::all()).unwrap();
        assert!((naive.solution.cost - all.solution.cost).abs() < 1e-9);
        assert!(
            all.stats.nodes < naive.stats.nodes,
            "all-heuristics {} nodes vs naive {}",
            all.stats.nodes,
            naive.stats.nodes
        );
    }

    /// 6 bases, 4 overlapping results, quota 3 — small enough for naive,
    /// big enough that pruning matters.
    fn harder_instance() -> ProblemInstance {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        let rates = [10.0, 40.0, 25.0, 60.0, 15.0, 35.0];
        for (i, r) in rates.iter().enumerate() {
            b.base(i as u64, 0.1, linear(*r));
        }
        for w in 0..4u64 {
            b.result_from_lineage(&Lineage::or(vec![
                Lineage::var(w),
                Lineage::and(vec![Lineage::var(w + 1), Lineage::var(w + 2)]),
            ]))
            .unwrap();
        }
        b.require(3).build().unwrap()
    }

    #[test]
    fn greedy_seed_keeps_optimality_and_shrinks_search() {
        let p = harder_instance();
        let seed = greedy::solve(&p, &GreedyOptions::default())
            .unwrap()
            .solution;
        let unseeded = solve(&p, &HeuristicOptions::all()).unwrap();
        let seeded = solve(&p, &HeuristicOptions::all().with_seed(seed)).unwrap();
        assert!((seeded.solution.cost - unseeded.solution.cost).abs() < 1e-9);
        assert!(seeded.stats.nodes <= unseeded.stats.nodes);
        seeded.solution.validate(&p).unwrap();
    }

    #[test]
    fn optimum_is_never_above_greedy() {
        let p = harder_instance();
        let g = greedy::solve(&p, &GreedyOptions::default()).unwrap();
        let h = solve(&p, &HeuristicOptions::all()).unwrap();
        assert!(h.solution.cost <= g.solution.cost + 1e-9);
    }

    #[test]
    fn node_limit_reports_incomplete() {
        let p = harder_instance();
        let opts = HeuristicOptions {
            node_limit: Some(3),
            ..HeuristicOptions::naive()
        };
        // With almost no budget and no seed, the search may fail to find
        // any solution — that must surface as GaveUp, not a wrong answer.
        match solve(&p, &opts) {
            Ok(out) => assert!(!out.stats.complete),
            Err(CoreError::GaveUp(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn time_limit_terminates_incomplete() {
        let p = harder_instance();
        let opts = HeuristicOptions {
            time_limit: Some(Duration::from_nanos(1)),
            ..HeuristicOptions::naive()
        };
        match solve(&p, &opts) {
            Ok(out) => assert!(!out.stats.complete, "a 1ns budget cannot finish"),
            Err(CoreError::GaveUp(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        // With a seed, the search still returns a valid answer.
        let seed = greedy::solve(&p, &GreedyOptions::default())
            .unwrap()
            .solution;
        let opts = HeuristicOptions {
            time_limit: Some(Duration::from_nanos(1)),
            ..HeuristicOptions::all().with_seed(seed)
        };
        let out = solve(&p, &opts).unwrap();
        out.solution.validate(&p).unwrap();
    }

    #[test]
    fn seed_survives_when_budget_is_tiny() {
        let p = harder_instance();
        let seed = greedy::solve(&p, &GreedyOptions::default())
            .unwrap()
            .solution;
        let opts = HeuristicOptions {
            node_limit: Some(1),
            ..HeuristicOptions::all().with_seed(seed.clone())
        };
        let out = solve(&p, &opts).unwrap();
        assert!(out.solution.cost <= seed.cost + 1e-9);
    }

    #[test]
    fn zero_required_is_trivially_free() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, linear(10.0));
        b.result_from_lineage(&Lineage::var(0)).unwrap();
        let p = b.require(0).build().unwrap();
        let out = solve(&p, &HeuristicOptions::all()).unwrap();
        assert_eq!(out.solution.cost, 0.0);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut b = ProblemBuilder::new(0.9, 0.1);
        b.base_capped(0, 0.1, 0.3, linear(10.0));
        b.result_from_lineage(&Lineage::var(0)).unwrap();
        let p = b.require(1).build().unwrap();
        assert!(matches!(
            solve(&p, &HeuristicOptions::all()),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn h1_uses_adjusted_cost_for_capped_tuples() {
        // Base 1 can never reach β alone (capped at 0.4), so its costβ is
        // the paper's adjusted value cost·β/F_max = 30·(0.5/0.4) = 37.5,
        // larger than base 0's direct costβ of 10·(0.6−0.1) = 5 — so H1
        // (descending costβ) places base 1 first.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, linear(10.0));
        b.base_capped(1, 0.1, 0.4, linear(100.0));
        b.result_from_lineage(&Lineage::var(0)).unwrap();
        b.result_from_lineage(&Lineage::var(1)).unwrap();
        let p = b.require(1).build().unwrap();
        let mut state = EvalState::new(&p);
        assert!((cost_beta(&p, &mut state, 0) - 5.0).abs() < 1e-9);
        assert!((cost_beta(&p, &mut state, 1) - 37.5).abs() < 1e-9);
        let order = cost_beta_order(&p, &mut state);
        assert_eq!(order, vec![1, 0]);
    }
}
