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
//! * **H3** — if even raising every remaining tuple as far as the budget
//!   left below the best known cost buys cannot meet the quota, abandon
//!   the subtree (with no incumbent the budget is unbounded and every
//!   remaining tuple goes to its maximum: the paper's H3). Before each
//!   value above the first, one such check also bounds that value and
//!   every higher one at once: the branching tuple raised to its own
//!   affordable step, the tuples after it to what the budget buys from
//!   the child's cost. A miss cuts the whole run of siblings. It holds
//!   because grid costs never fall as the step rises (nor does a float
//!   sum), so each of those siblings' own H3 raises every tuple no
//!   higher;
//! * **H4** — if the current cost plus the cheapest possible single δ step
//!   on any remaining tuple already reaches the best cost, abandon the
//!   subtree.
//!
//! A node's cost is the sum of its assigned tuples' grid costs, added in
//! search order, so it is a function of the assignment alone and every
//! device above compares the same bits whichever path reached the node.
//! Each cuts only subtrees holding nothing strictly cheaper than the
//! incumbent, so every configuration with the same ordering returns the
//! same solution, bit for bit: the first of the cheapest in search order.
//!
//! With no pruning beyond the bound the search is exact but exponential
//! (`O(d^k)`); with a greedy seed (Figure 11(d)) the initial upper bound is
//! tight from the start.

use crate::error::CoreError;
use crate::ord::OrdF64;
use crate::problem::ProblemInstance;
use crate::solution::{Solution, SolveOutcome};
use crate::state::EvalState;
use crate::Result;
use std::cmp::Reverse;

/// Options for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct HeuristicOptions {
    /// H1: costβ-descending base ordering.
    pub h1_ordering: bool,
    /// H2: prune right siblings when all touched results pass.
    pub h2_sibling_prune: bool,
    /// H3: prune when the affordable optimistic completion misses the quota.
    pub h3_optimistic_prune: bool,
    /// H4: prune on the cheapest-remaining-step lower bound.
    pub h4_cost_bound: bool,
    /// Seed solution (e.g. from greedy) supplying the initial upper bound.
    pub seed: Option<Solution>,
    /// Abort after this many search nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
}

/// One of the four pruning heuristics, as [`HeuristicOptions::only`]
/// switches it on alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heuristic {
    /// H1: costβ-descending base ordering.
    H1Ordering,
    /// H2: prune right siblings when all touched results pass.
    H2SiblingPrune,
    /// H3: prune when the affordable optimistic completion misses the quota.
    H3OptimisticPrune,
    /// H4: prune on the cheapest-remaining-step lower bound.
    H4CostBound,
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
        }
    }

    /// Naive plus exactly one heuristic (for Figure 11(a)).
    pub fn only(heuristic: Heuristic) -> HeuristicOptions {
        let mut o = HeuristicOptions::naive();
        match heuristic {
            Heuristic::H1Ordering => o.h1_ordering = true,
            Heuristic::H2SiblingPrune => o.h2_sibling_prune = true,
            Heuristic::H3OptimisticPrune => o.h3_optimistic_prune = true,
            Heuristic::H4CostBound => o.h4_cost_bound = true,
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
    /// Subtrees cut by H3; a run of siblings cut by one check counts once.
    pub pruned_h3: u64,
    /// Subtrees cut by H4.
    pub pruned_h4: u64,
    /// Result evaluations: bringing a compiled result up to date through
    /// one slot's cone counts as one, and so does each result H3 evaluates
    /// afresh at its raised levels.
    pub evals: u64,
    /// Whether the search ran to completion (false on the node limit).
    pub complete: bool,
}

/// Solve exactly (given enough budget) with branch-and-bound.
pub fn solve(
    problem: &ProblemInstance,
    options: &HeuristicOptions,
) -> Result<SolveOutcome<HeuristicStats>> {
    let mut state = EvalState::new(problem);
    state.check_feasible()?;

    let order: Vec<usize> = if options.h1_ordering {
        cost_beta_order(problem, &mut state)
    } else {
        (0..problem.bases.len()).collect()
    };

    // Precompute suffix minima of the cheapest-possible δ step, for H4.
    let mut suffix_min_step = vec![f64::INFINITY; order.len() + 1];
    let mut min = f64::INFINITY;
    for (slot, &b) in suffix_min_step.iter_mut().zip(&order).rev() {
        if let Some(base) = problem.bases.get(b) {
            min = min.min(base.min_step_cost(problem.delta));
        }
        *slot = min;
    }

    let mut search = Search {
        problem,
        options,
        order: &order,
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
    };
    search.dfs(&mut state, 0, 0.0);
    search.stats.evals = state.evals;

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
    order: &'o [usize],
    suffix_min_step: Vec<f64>,
    best_cost: f64,
    best: Option<Solution>,
    stats: HeuristicStats,
}

impl Search<'_, '_> {
    fn out_of_budget(&mut self) -> bool {
        let out = self
            .options
            .node_limit
            .is_some_and(|l| self.stats.nodes >= l);
        if out {
            self.stats.complete = false;
        }
        out
    }

    /// Search below the node that assigns `order[..depth]` at `cost`:
    /// their grid costs summed in search order.
    fn dfs(&mut self, state: &mut EvalState<'_>, depth: usize, cost: f64) {
        self.stats.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        if state.meets_quota() {
            // Deeper assignments only add cost; record and backtrack.
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best = Some(Solution {
                    cost,
                    ..state.to_solution()
                });
                self.stats.incumbent_updates += 1;
            }
            return;
        }
        let Some(rest @ &[base, ..]) = self.order.get(depth..) else {
            return;
        };
        let required = self.problem.required;
        let min_step = self.suffix_min_step.get(depth).copied().unwrap_or(0.0);
        if self.options.h4_cost_bound && cost + min_step >= self.best_cost {
            // The quota is unmet, so any solution below must raise at
            // least one remaining tuple by at least one δ step.
            self.stats.pruned_h4 += 1;
            return;
        }
        let mut steps = 0;
        while let Some(point) = state.point(base, steps) {
            let child = cost + point.cost;
            if child >= self.best_cost {
                // Higher values of this base only cost more.
                self.stats.pruned_bound += 1;
                break;
            }
            if self.options.h3_optimistic_prune
                && state.affordable_satisfied(rest, cost, child, self.best_cost) < required
            {
                // H3 for this value and every higher one at once: a cheaper
                // solution below raises no open tuple past what the budget
                // buys, and by monotonicity satisfies no more results than
                // those raised levels do; each higher value's own check
                // raises `base` no higher and the open tuples after it from
                // a cost no lower. At `steps = 0` (`child == cost`) this is
                // the node's own H3.
                self.stats.pruned_h3 += 1;
                break;
            }
            state.set_steps(base, steps);
            self.dfs(state, depth + 1, child);
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
            steps += 1;
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
    let mut best = f64::INFINITY;
    let mut best_unreachable = f64::INFINITY;
    for &ri in problem.results_of_base(i) {
        // The cost and the result's confidence at the highest step tried:
        // the first that lifts it over β, else the top of the grid.
        let mut top = None;
        let mut s = 1;
        while let Some(point) = state.point(i, s) {
            state.set_steps(i, s);
            top = state.confidence(ri).map(|f| (point.cost, f));
            if top.is_some_and(|(_, f)| f > problem.beta) {
                break;
            }
            s += 1;
        }
        state.set_steps(i, 0);
        match top {
            Some((c, f)) if f > problem.beta => best = best.min(c),
            // Paper: adjust to cost / (F_max / β) when even the maximum
            // cannot reach β.
            Some((c, f_max)) if f_max > 0.0 => {
                best_unreachable = best_unreachable.min(c / (f_max / problem.beta));
            }
            _ => {}
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
    use crate::solution::check::check_solution;
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
        check_solution(&out.solution, &p).unwrap();
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
            HeuristicOptions::only(Heuristic::H1Ordering),
            HeuristicOptions::only(Heuristic::H2SiblingPrune),
            HeuristicOptions::only(Heuristic::H3OptimisticPrune),
            HeuristicOptions::only(Heuristic::H4CostBound),
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
        check_solution(&seeded.solution, &p).unwrap();
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
