//! The two-phase greedy algorithm (Section 4.2, Figure 6).
//!
//! Phase 1 repeatedly raises the base tuple with the highest
//! `gain* = Σ_λ ΔF_λ / cost` by one δ step until enough results exceed the
//! threshold. Phase 2 walks the raised tuples in ascending order of their
//! latest `gain*` and rolls increments back wherever the quota survives —
//! the paper measured this refinement to cut cost by more than 30 % at
//! negligible extra time (Figure 11(b)/(e)).

use crate::clock::Stopwatch;
use crate::error::CoreError;
use crate::ord::OrdF64;
use crate::problem::ProblemInstance;
use crate::solution::SolveOutcome;
use crate::state::EvalState;
use crate::Result;
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
    /// Maintain gains in a lazy max-heap, recomputing only the bases whose
    /// gain a step can actually change, instead of the paper's full
    /// `O(k)` rescan per iteration. Picks the same tuples (ties broken by
    /// index in both modes); an engineering extension beyond the paper,
    /// off by default so the figures reproduce the published complexity.
    pub incremental: bool,
    /// Fan the per-iteration gain rescan (and the initial scoring of every
    /// result) out across worker threads. Picks the same tuples at the
    /// same costs bit-for-bit — the scan is read-only and the reduction
    /// replays the sequential tie-breaking — so this only changes speed.
    /// Defaults to sequential.
    pub parallelism: pcqe_par::Parallelism,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            two_phase: true,
            gain: GainMode::Useful,
            max_iterations: 50_000_000,
            incremental: false,
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

    /// The incremental (lazy-heap) variant.
    pub fn incremental() -> GreedyOptions {
        GreedyOptions {
            incremental: true,
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

/// One parallel probe record per base tuple: `(step cost,
/// touches-an-unsatisfied-result, gain numerator, F-evaluations)`.
/// `None` marks a base already at its maximum confidence.
type ProbeRecord = Option<(f64, bool, f64, u64)>;

/// Solve with the two-phase greedy algorithm.
pub fn solve(
    problem: &ProblemInstance,
    options: &GreedyOptions,
) -> Result<SolveOutcome<GreedyStats>> {
    let watch = Stopwatch::start();
    let mut state = EvalState::new_par(problem, &options.parallelism);
    check_feasible(&mut state)?;
    let mut stats = GreedyStats::default();

    // Phase 1: aggressive increments.
    // `last_gain[i]` remembers the gain* value at the most recent step on
    // base i; phase 2 sorts by it (Figure 6, line 13).
    let mut last_gain: Vec<f64> = vec![f64::NAN; problem.bases.len()];
    let mut raised: Vec<usize> = Vec::new();
    phase1(&mut state, options, &mut stats, &mut last_gain, &mut raised)?;

    // Phase 2: roll back unnecessary increments, cheapest gain first.
    if options.two_phase {
        raised.sort_by_key(|&a| (OrdF64(last_gain[a]), a));
        stats.reductions = roll_back(&mut state, &raised);
    }

    stats.evals = state.evals;
    stats.elapsed = watch.elapsed();
    let solution = state.to_solution();
    Ok(SolveOutcome { solution, stats })
}

/// Phase 1 of the greedy algorithm, operating on an arbitrary starting
/// state (divide-and-conquer reuses this for its top-up pass).
pub(crate) fn phase1(
    state: &mut EvalState<'_>,
    options: &GreedyOptions,
    stats: &mut GreedyStats,
    last_gain: &mut [f64],
    raised: &mut Vec<usize>,
) -> Result<()> {
    if options.incremental {
        return phase1_incremental(state, options, stats, last_gain, raised);
    }
    let problem = state.problem();
    let useful = options.gain == GainMode::Useful;
    let k = problem.bases.len();
    let base_ids: Vec<usize> = (0..k).collect();
    let parallel_scan = options.parallelism.workers_for(k) > 1;
    while !state.meets_quota() {
        if stats.iterations >= options.max_iterations {
            return Err(CoreError::GaveUp(format!(
                "greedy phase 1 exceeded {} iterations",
                options.max_iterations
            )));
        }
        // Full rescan each iteration — the paper's O(k · l1) loop. With a
        // parallel policy, the (read-only) probes are fanned out across
        // workers first and the best-pick reduction replays the sequential
        // loop's exact tie-breaking over the collected records, so both
        // paths pick identical tuples at identical gain values.
        let mut best: Option<(f64, usize)> = None;
        let mut cheapest_fallback: Option<(f64, usize)> = None;
        let probed: Option<Vec<ProbeRecord>> = parallel_scan.then(|| {
            let shared: &EvalState<'_> = state;
            pcqe_par::map(&options.parallelism, &base_ids, |&i| {
                let step_cost = shared.next_step_cost(i);
                if !step_cost.is_finite() {
                    return None; // already at max
                }
                let touches_unsatisfied = problem
                    .results_of_base(i)
                    .iter()
                    .any(|&ri| !shared.is_satisfied(ri));
                if useful && !touches_unsatisfied {
                    return Some((step_cost, false, 0.0, 0));
                }
                let (gain_num, evals) = shared.probe_step_gain_readonly(i, useful);
                Some((step_cost, touches_unsatisfied, gain_num, evals))
            })
        });
        for i in 0..k {
            let (step_cost, touches_unsatisfied, gain_num) = match &probed {
                Some(records) => {
                    let Some((step_cost, touches, gain_num, evals)) = records[i] else {
                        continue; // already at max
                    };
                    state.evals += evals;
                    if useful && !touches {
                        continue;
                    }
                    (step_cost, touches, gain_num)
                }
                None => {
                    let step_cost = state.next_step_cost(i);
                    if !step_cost.is_finite() {
                        continue; // already at max
                    }
                    // A base whose every result is satisfied cannot add
                    // useful gain; in Useful mode skip it without
                    // evaluating F.
                    let touches_unsatisfied = problem
                        .results_of_base(i)
                        .iter()
                        .any(|&ri| !state.is_satisfied(ri));
                    if useful && !touches_unsatisfied {
                        continue;
                    }
                    let gain_num = state.probe_step_gain(i, useful);
                    (step_cost, touches_unsatisfied, gain_num)
                }
            };
            let gain = if step_cost > 0.0 {
                gain_num / step_cost
            } else {
                // A free step with any gain is infinitely attractive.
                if gain_num > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            };
            if gain > 0.0 && best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, i));
            }
            if touches_unsatisfied && cheapest_fallback.is_none_or(|(c, _)| step_cost < c) {
                cheapest_fallback = Some((step_cost, i));
            }
        }
        // On a flat gain plateau (every probe gave ΔF = 0, e.g. a conjunct
        // still at zero), fall back to the cheapest step that touches an
        // unsatisfied result so progress is still possible. Such a step has
        // ΔF = 0, so 0 — not its cost — is the gain* phase 2 sorts it by.
        let (gain, pick) = match best.or(cheapest_fallback.map(|(_, i)| (0.0, i))) {
            Some(x) => x,
            None => {
                return Err(CoreError::GaveUp(
                    "no base tuple can still be raised towards an unsatisfied result".into(),
                ))
            }
        };
        state.step_up(pick);
        if last_gain[pick].is_nan() {
            raised.push(pick);
        }
        last_gain[pick] = gain;
        stats.iterations += 1;
    }
    Ok(())
}

/// The lazy-heap variant of phase 1: a max-heap of `(gain, index)` entries
/// with version-stamped lazy invalidation. After a step on base `b`, only
/// bases sharing a result with `b` can see their gain change (the shared
/// results are the only F values that moved, and `b` itself is the only
/// base whose next-step cost moved), so exactly that neighbourhood is
/// recomputed and re-pushed.
fn phase1_incremental(
    state: &mut EvalState<'_>,
    options: &GreedyOptions,
    stats: &mut GreedyStats,
    last_gain: &mut [f64],
    raised: &mut Vec<usize>,
) -> Result<()> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let problem = state.problem();
    let useful = options.gain == GainMode::Useful;
    let k = problem.bases.len();

    let gain_of = |state: &mut EvalState<'_>, i: usize| -> f64 {
        let step_cost = state.next_step_cost(i);
        if !step_cost.is_finite() {
            return 0.0;
        }
        if useful
            && !problem
                .results_of_base(i)
                .iter()
                .any(|&ri| !state.is_satisfied(ri))
        {
            return 0.0;
        }
        let num = state.probe_step_gain(i, useful);
        if step_cost > 0.0 {
            num / step_cost
        } else if num > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    };

    // Heap entries: (gain under the sanctioned total order, Reverse(index),
    // version). `OrdF64` makes the whole tuple derivably `Ord`, so the max
    // heap pops the highest gain, lowest index first; the version only
    // breaks ties between stale revisions of the same base, which the
    // liveness check below filters anyway.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Entry(OrdF64, Reverse<usize>, u64);

    let mut versions: Vec<u64> = vec![0; k];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k);
    for i in 0..k {
        let g = gain_of(state, i);
        if g > 0.0 {
            heap.push(Entry(OrdF64(g), Reverse(i), 0));
        }
    }

    while !state.meets_quota() {
        if stats.iterations >= options.max_iterations {
            return Err(CoreError::GaveUp(format!(
                "greedy phase 1 exceeded {} iterations",
                options.max_iterations
            )));
        }
        // Pop until a live entry emerges.
        let pick = loop {
            match heap.pop() {
                Some(Entry(g, Reverse(i), v)) => {
                    if v == versions[i] {
                        break Some((g.get(), i));
                    }
                }
                None => break None,
            }
        };
        let (gain, pick) = match pick {
            Some(p) => p,
            None => {
                // Gain plateau: fall back to the cheapest step towards an
                // unsatisfied result (same rule as the faithful loop).
                let mut fallback: Option<(f64, usize)> = None;
                for i in 0..k {
                    let c = state.next_step_cost(i);
                    if !c.is_finite() {
                        continue;
                    }
                    let touches = problem
                        .results_of_base(i)
                        .iter()
                        .any(|&ri| !state.is_satisfied(ri));
                    if touches && fallback.is_none_or(|(fc, _)| c < fc) {
                        fallback = Some((c, i));
                    }
                }
                match fallback {
                    Some((_, i)) => (0.0, i),
                    None => {
                        return Err(CoreError::GaveUp(
                            "no base tuple can still be raised towards an unsatisfied result"
                                .into(),
                        ))
                    }
                }
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
        let mut affected: Vec<usize> = Vec::new();
        for &ri in problem.results_of_base(pick) {
            for &b in &problem.results[ri].bases {
                if !affected.contains(&b) {
                    affected.push(b);
                }
            }
        }
        for b in affected {
            versions[b] += 1;
            let g = gain_of(state, b);
            if g > 0.0 {
                heap.push(Entry(OrdF64(g), Reverse(b), versions[b]));
            }
        }
    }
    Ok(())
}

/// Phase 2: walk `candidates` in the given order, lowering each base while
/// the quota survives; restores the last step that broke the quota.
/// Returns the number of δ steps rolled back.
pub(crate) fn roll_back(state: &mut EvalState<'_>, candidates: &[usize]) -> u64 {
    let mut reductions = 0;
    for &i in candidates {
        loop {
            if state.steps_of(i) == 0 {
                break;
            }
            state.step_down(i);
            if state.meets_quota() {
                reductions += 1;
            } else {
                state.step_up(i);
                break;
            }
        }
    }
    reductions
}

/// Reject problems that cannot be satisfied even at maximum confidence.
pub(crate) fn check_feasible(state: &mut EvalState<'_>) -> Result<()> {
    let problem = state.problem();
    let all: Vec<usize> = (0..problem.bases.len()).collect();
    let achievable = state.optimistic_satisfied(&all);
    if achievable < problem.required {
        return Err(CoreError::Infeasible {
            achievable,
            required: problem.required,
        });
    }
    Ok(())
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
    fn incremental_matches_the_faithful_loop() {
        // Same picks, same cost, same levels — the heap is an engineering
        // change, not an algorithmic one.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        for i in 0..8u64 {
            b.base(i, 0.08 + 0.01 * i as f64, linear(10.0 + 13.0 * i as f64));
        }
        for w in 0..5u64 {
            b.result_from_lineage(&Lineage::or(vec![
                Lineage::var(w),
                Lineage::and(vec![Lineage::var(w + 1), Lineage::var(w + 2)]),
                Lineage::var(w + 3),
            ]))
            .unwrap();
        }
        let p = b.require(3).build().unwrap();
        let faithful = solve(&p, &GreedyOptions::default()).unwrap();
        let incremental = solve(&p, &GreedyOptions::incremental()).unwrap();
        incremental.solution.validate(&p).unwrap();
        assert_eq!(faithful.solution.levels, incremental.solution.levels);
        assert_eq!(faithful.solution.cost, incremental.solution.cost);
        assert_eq!(faithful.stats.iterations, incremental.stats.iterations);
    }

    #[test]
    fn parallel_gain_scan_matches_sequential_bitwise() {
        // Enough overlap and tie opportunities that any divergence in
        // tie-breaking or float arithmetic would change the answer.
        let mut b = ProblemBuilder::new(0.55, 0.1);
        for i in 0..24u64 {
            b.base(
                i,
                0.05 + 0.004 * (i % 9) as f64,
                linear(10.0 + 3.0 * (i % 5) as f64),
            );
        }
        for w in 0..16u64 {
            b.result_from_lineage(&Lineage::or(vec![
                Lineage::var(w),
                Lineage::and(vec![Lineage::var(w + 2), Lineage::var(w + 5)]),
                Lineage::and(vec![Lineage::var(w + 1), Lineage::var(w + 7)]),
            ]))
            .unwrap();
        }
        let p = b.require(10).build().unwrap();
        let sequential = solve(&p, &GreedyOptions::default()).unwrap();
        for workers in [2usize, 8] {
            let opts = GreedyOptions {
                parallelism: pcqe_par::Parallelism {
                    worker_threads: Some(workers),
                    parallel_threshold: 1,
                },
                ..GreedyOptions::default()
            };
            let parallel = solve(&p, &opts).unwrap();
            let seq_bits: Vec<u64> = sequential
                .solution
                .levels
                .iter()
                .map(|l| l.to_bits())
                .collect();
            let par_bits: Vec<u64> = parallel
                .solution
                .levels
                .iter()
                .map(|l| l.to_bits())
                .collect();
            assert_eq!(seq_bits, par_bits, "workers={workers}");
            assert_eq!(
                sequential.solution.cost.to_bits(),
                parallel.solution.cost.to_bits()
            );
            assert_eq!(sequential.solution.satisfied, parallel.solution.satisfied);
            assert_eq!(sequential.stats.iterations, parallel.stats.iterations);
            assert_eq!(sequential.stats.evals, parallel.stats.evals);
        }
    }

    #[test]
    fn incremental_handles_plateaus_too() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.0, linear(10.0));
        b.base(1, 0.0, linear(20.0));
        b.result_from_lineage(&Lineage::and(vec![Lineage::var(0), Lineage::var(1)]))
            .unwrap();
        let p = b.require(1).build().unwrap();
        let out = solve(&p, &GreedyOptions::incremental()).unwrap();
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
