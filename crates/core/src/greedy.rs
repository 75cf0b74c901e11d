//! The two-phase greedy algorithm (Section 4.2, Figure 6).
//!
//! Phase 1 repeatedly raises the base tuple with the highest
//! `gain* = Σ_λ ΔF_λ / cost` by one δ step until enough results exceed the
//! threshold. Phase 2 walks the raised tuples in ascending order of their
//! latest `gain*` and rolls increments back wherever the quota survives —
//! the paper measured this refinement to cut cost by more than 30 % at
//! negligible extra time (Figure 11(b)/(e)).
//!
//! There is one loop ([`run`]) and it works on an [`EvalState`], which
//! owns every threshold and quota: a single query, D&C's top-up and a
//! batch of queries ([`crate::multi`]) differ only in the state they hand
//! it. Phase 1 picks what Figure 6's `O(k)` rescan per iteration picks,
//! bit for bit, from a lazy max-heap that re-probes only the bases a step
//! can have changed; the rescan itself lives on as the reference in
//! `tests/common`.

use crate::clock::Stopwatch;
use crate::error::CoreError;
use crate::ord::OrdF64;
use crate::problem::ProblemInstance;
use crate::solution::SolveOutcome;
use crate::state::{EvalState, QuerySlice};
use crate::Result;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// How `gain*` sums confidence increments over affected results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainMode {
    /// Sum ΔF only over results still at or below the threshold — the
    /// increment that actually moves the quota. Default.
    #[default]
    Useful,
    /// Sum ΔF over every affected result (the literal Equation 2).
    Raw,
}

/// Options for the greedy solver.
#[derive(Debug, Clone)]
pub struct GreedyOptions {
    /// Run the roll-back refinement (phase 2). On by default; Figure 11(e)
    /// is the ablation.
    pub two_phase: bool,
    /// Gain definition.
    pub gain: GainMode,
    /// Safety cap on phase-1 iterations.
    pub max_iterations: u64,
    /// Worker threads for the initial scoring of every result (and, under
    /// [`crate::dnc`], for solving groups side by side). The answer is the
    /// same bit for bit at any setting. Defaults to sequential.
    pub parallelism: pcqe_par::Parallelism,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            two_phase: true,
            gain: GainMode::Useful,
            max_iterations: 50_000_000,
            parallelism: pcqe_par::Parallelism::sequential(),
        }
    }
}

impl GreedyOptions {
    /// The one-phase variant (no roll-back), for the Figure 11(b)/(e)
    /// comparison.
    pub fn one_phase() -> GreedyOptions {
        GreedyOptions {
            two_phase: false,
            ..GreedyOptions::default()
        }
    }
}

/// Statistics reported by the greedy solver.
#[derive(Debug, Clone, Default)]
pub struct GreedyStats {
    /// Phase-1 increment steps taken.
    pub iterations: u64,
    /// Phase-2 roll-back steps kept.
    pub reductions: u64,
    /// Confidence-function evaluations.
    pub evals: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Solve with the two-phase greedy algorithm.
pub fn solve(
    problem: &ProblemInstance,
    options: &GreedyOptions,
) -> Result<SolveOutcome<GreedyStats>> {
    solve_queries(problem, &[QuerySlice::whole(problem)], options)
}

/// [`solve`] for the queries that tile `problem`'s results, each with its
/// own threshold and quota.
pub(crate) fn solve_queries(
    problem: &ProblemInstance,
    queries: &[QuerySlice],
    options: &GreedyOptions,
) -> Result<SolveOutcome<GreedyStats>> {
    let watch = Stopwatch::start();
    let mut state = EvalState::for_queries(problem, queries, &options.parallelism);
    state.check_feasible()?;
    let mut stats = GreedyStats::default();
    run(&mut state, options, &mut stats)?;
    stats.evals = state.evals;
    stats.elapsed = watch.elapsed();
    let solution = state.to_solution();
    Ok(SolveOutcome { solution, stats })
}

/// Both phases from wherever `state` stands: raise until every quota is
/// met, then (unless `options` says one phase) roll back what that raised.
/// Step counts are added to `stats`, whose `iterations` the cap is held
/// against.
pub(crate) fn run(
    state: &mut EvalState<'_>,
    options: &GreedyOptions,
    stats: &mut GreedyStats,
) -> Result<()> {
    let raised = phase1(state, options, stats)?;
    if options.two_phase {
        stats.reductions += roll_back(state, &raised);
    }
    Ok(())
}

/// `gain*` of one more δ step on base `i`; 0 where there is no step left
/// or (in `Useful` mode, without evaluating F) no unsatisfied result to
/// move.
fn gain_of(state: &mut EvalState<'_>, i: usize, useful: bool) -> f64 {
    let step_cost = state.next_step_cost(i);
    if !step_cost.is_finite() {
        return 0.0;
    }
    let results = state.problem().results_of_base(i);
    if useful && results.iter().all(|&ri| state.is_satisfied(ri)) {
        return 0.0;
    }
    let num = state.probe_step_gain(i, useful);
    if step_cost > 0.0 {
        num / step_cost
    } else if num > 0.0 {
        // A free step with any gain is infinitely attractive.
        f64::INFINITY
    } else {
        0.0
    }
}

/// Heap entries: (gain under the sanctioned total order, Reverse(index),
/// version). `OrdF64` makes the whole tuple derivably `Ord`, so the max
/// heap pops the highest gain, lowest index first; the version only
/// breaks ties between stale revisions of the same base, which the
/// liveness check filters anyway.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry(OrdF64, Reverse<usize>, u64);

/// Phase 1: one δ step at a time on the base with the highest `gain*`
/// (lowest index among equals) until every quota is met. Returns the bases
/// it raised, in ascending order of their latest `gain*` — the order phase
/// 2 walks (Figure 6, line 13).
///
/// Gains sit in a max-heap with version-stamped lazy invalidation. After a
/// step on base `b`, only bases sharing a result with `b` can see their
/// gain change (the shared results are the only F values that moved, and
/// `b` itself is the only base whose next-step cost moved), so exactly
/// that neighbourhood is recomputed and re-pushed.
fn phase1(
    state: &mut EvalState<'_>,
    options: &GreedyOptions,
    stats: &mut GreedyStats,
) -> Result<Vec<usize>> {
    let problem = state.problem();
    let useful = options.gain == GainMode::Useful;
    let k = problem.bases.len();
    // `last_gain[i]` is the gain* of the most recent step on base i.
    let mut last_gain: Vec<f64> = vec![f64::NAN; k];
    let mut raised: Vec<usize> = Vec::new();

    let mut versions: Vec<u64> = vec![0; k];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k);
    for i in 0..k {
        let g = gain_of(state, i, useful);
        if g > 0.0 {
            heap.push(Entry(OrdF64(g), Reverse(i), 0));
        }
    }

    let mut affected: Vec<usize> = Vec::new();
    while !state.meets_quota() {
        if stats.iterations >= options.max_iterations {
            return Err(CoreError::GaveUp(format!(
                "greedy phase 1 exceeded {} iterations",
                options.max_iterations
            )));
        }
        // Pop until a live entry emerges.
        let live = loop {
            match heap.pop() {
                Some(Entry(g, Reverse(i), v)) if v == versions[i] => break Some((g.get(), i)),
                Some(_) => {}
                None => break None,
            }
        };
        // On a flat gain plateau (every probe gave ΔF = 0, e.g. a conjunct
        // still at zero), fall back to the cheapest step that touches an
        // unsatisfied result of an unmet query so progress is still
        // possible. Such a step has ΔF = 0, so 0 — not its cost — is the
        // gain* phase 2 sorts it by.
        let (gain, pick) = match live {
            Some(p) => p,
            None => {
                let mut fallback: Option<(f64, usize)> = None;
                for i in 0..k {
                    let c = state.next_step_cost(i);
                    if c.is_finite()
                        && fallback.is_none_or(|(fc, _)| c < fc)
                        && problem
                            .results_of_base(i)
                            .iter()
                            .any(|&ri| state.is_wanted(ri))
                    {
                        fallback = Some((c, i));
                    }
                }
                let Some((_, i)) = fallback else {
                    return Err(CoreError::GaveUp(
                        "no base tuple can still be raised towards an unsatisfied result".into(),
                    ));
                };
                (0.0, i)
            }
        };
        state.step_up(pick);
        if last_gain[pick].is_nan() {
            raised.push(pick);
        }
        last_gain[pick] = gain;
        stats.iterations += 1;

        // Recompute the affected neighbourhood: every base sharing a
        // result with `pick` (which includes `pick` itself).
        affected.clear();
        for &ri in problem.results_of_base(pick) {
            for &b in &problem.results[ri].bases {
                if !affected.contains(&b) {
                    affected.push(b);
                }
            }
        }
        for &b in &affected {
            versions[b] += 1;
            let g = gain_of(state, b, useful);
            if g > 0.0 {
                heap.push(Entry(OrdF64(g), Reverse(b), versions[b]));
            }
        }
    }
    raised.sort_by_key(|&a| (OrdF64(last_gain[a]), a));
    Ok(raised)
}

/// Phase 2: walk `candidates` in the given order, lowering each base while
/// every quota survives; restores the last step that broke one. Returns
/// the number of δ steps rolled back.
pub(crate) fn roll_back(state: &mut EvalState<'_>, candidates: &[usize]) -> u64 {
    let mut reductions = 0;
    for &i in candidates {
        while state.step_down(i) {
            if !state.meets_quota() {
                state.step_up(i);
                break;
            }
            reductions += 1;
        }
    }
    reductions
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    fn linear(rate: f64) -> CostFn {
        CostFn::linear(rate).unwrap()
    }

    #[test]
    fn picks_by_gain_per_cost_on_the_paper_example() {
        // Paper Section 3.1 instance. Greedy maximises ΔF/cost: one δ step
        // on t13 moves F by 0.058 at cost 50 (ratio 1.16e-3), beating one
        // step on t03 (0.007 at cost 10, ratio 7e-4) — and a single t13
        // step already satisfies β = 0.06. The exact optimum (raise t03,
        // cost 10) is found by the heuristic algorithm instead; this is
        // precisely the approximation gap Figure 11(f) shows.
        let mut b = ProblemBuilder::new(0.06, 0.1);
        b.base(2, 0.3, linear(1000.0));
        b.base(3, 0.4, linear(100.0));
        b.base(13, 0.1, linear(500.0));
        b.result_from_lineage(&Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]))
        .unwrap();
        let p = b.require(1).build().unwrap();
        let out = solve(&p, &GreedyOptions::default()).unwrap();
        out.solution.validate(&p).unwrap();
        assert!(
            (out.solution.levels[2] - 0.2).abs() < 1e-12,
            "t13 raised one step"
        );
        assert!((out.solution.cost - 50.0).abs() < 1e-9);
        // The expensive tuple 02 is never touched.
        assert!((out.solution.levels[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn cheaper_tuple_wins_when_gains_are_symmetric() {
        // Two tuples with identical ΔF per step but different cost: the
        // cheap one must be chosen (the paper's "first solution is more
        // expensive" observation).
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(2, 0.1, linear(1000.0));
        b.base(3, 0.1, linear(100.0));
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(2), Lineage::var(3)]))
            .unwrap();
        let p = b.require(1).build().unwrap();
        let out = solve(&p, &GreedyOptions::default()).unwrap();
        out.solution.validate(&p).unwrap();
        assert!((out.solution.levels[0] - 0.1).abs() < 1e-12);
        assert!(out.solution.levels[1] > 0.4);
    }

    #[test]
    fn quota_already_met_is_free() {
        let mut b = ProblemBuilder::new(0.05, 0.1);
        b.base(0, 0.5, linear(10.0));
        b.result_from_lineage(&Lineage::var(0)).unwrap();
        let p = b.require(1).build().unwrap();
        let out = solve(&p, &GreedyOptions::default()).unwrap();
        assert_eq!(out.solution.cost, 0.0);
        assert_eq!(out.stats.iterations, 0);
    }

    #[test]
    fn infeasible_detected_upfront() {
        let mut b = ProblemBuilder::new(0.9, 0.1);
        b.base_capped(0, 0.1, 0.5, linear(10.0));
        b.result_from_lineage(&Lineage::var(0)).unwrap();
        let p = b.require(1).build().unwrap();
        assert!(matches!(
            solve(&p, &GreedyOptions::default()),
            Err(CoreError::Infeasible {
                achievable: 0,
                required: 1
            })
        ));
    }

    #[test]
    fn two_phase_never_costs_more_than_one_phase() {
        // Several overlapping results; phase 1 overshoots, phase 2 trims.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        for i in 0..6u64 {
            b.base(i, 0.1, linear(10.0 + i as f64 * 7.0));
        }
        for w in 0..4u64 {
            b.result_from_lineage(&Lineage::or(vec![
                Lineage::var(w),
                Lineage::and(vec![Lineage::var(w + 1), Lineage::var(w + 2)]),
            ]))
            .unwrap();
        }
        let p = b.require(3).build().unwrap();
        let two = solve(&p, &GreedyOptions::default()).unwrap();
        let one = solve(&p, &GreedyOptions::one_phase()).unwrap();
        two.solution.validate(&p).unwrap();
        one.solution.validate(&p).unwrap();
        assert!(two.solution.cost <= one.solution.cost + 1e-9);
    }

    #[test]
    fn partial_quota_stops_early() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, linear(10.0));
        b.base(1, 0.1, linear(10.0));
        b.result_from_lineage(&Lineage::var(0)).unwrap();
        b.result_from_lineage(&Lineage::var(1)).unwrap();
        let p = b.require(1).build().unwrap();
        let out = solve(&p, &GreedyOptions::default()).unwrap();
        // Exactly one of the two singletons is raised.
        let raised = out
            .solution
            .levels
            .iter()
            .filter(|&&l| l > 0.1 + 1e-12)
            .count();
        assert_eq!(raised, 1);
    }

    #[test]
    fn escapes_zero_gain_plateau() {
        // F = t0 · t1 with both at 0: every single step has ΔF = 0, so the
        // fallback must still raise something.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.0, linear(10.0));
        b.base(1, 0.0, linear(20.0));
        b.result_from_lineage(&Lineage::and(vec![Lineage::var(0), Lineage::var(1)]))
            .unwrap();
        let p = b.require(1).build().unwrap();
        let out = solve(&p, &GreedyOptions::default()).unwrap();
        out.solution.validate(&p).unwrap();
        assert!(out.solution.levels[0] * out.solution.levels[1] > 0.5);
    }

    #[test]
    fn raw_gain_mode_also_solves() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, linear(10.0));
        b.base(1, 0.1, linear(10.0));
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(0), Lineage::var(1)]))
            .unwrap();
        let p = b.require(1).build().unwrap();
        let opts = GreedyOptions {
            gain: GainMode::Raw,
            ..GreedyOptions::default()
        };
        let out = solve(&p, &opts).unwrap();
        out.solution.validate(&p).unwrap();
    }

    #[test]
    fn iteration_cap_reports_give_up() {
        let mut b = ProblemBuilder::new(0.9, 0.01);
        for i in 0..4u64 {
            b.base(i, 0.0, linear(1.0));
        }
        b.result_from_lineage(&Lineage::and(vec![
            Lineage::var(0),
            Lineage::var(1),
            Lineage::var(2),
            Lineage::var(3),
        ]))
        .unwrap();
        let p = b.require(1).build().unwrap();
        let opts = GreedyOptions {
            max_iterations: 3,
            ..GreedyOptions::default()
        };
        assert!(matches!(solve(&p, &opts), Err(CoreError::GaveUp(_))));
    }
}
