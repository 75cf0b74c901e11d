//! Incremental evaluation state shared by the solvers, and the one place
//! that knows what "satisfied", "quota met" and "useful gain" mean.
//!
//! A state serves one or several queries over one base-tuple pool (the
//! multiple-query remark at the end of Section 4): every result carries
//! its own query's threshold, every query its own quota, and the state is
//! done when no query is left unmet. A [`ProblemInstance`] is the
//! one-query case.

use crate::error::CoreError;
use crate::problem::ProblemInstance;
use crate::solution::Solution;
use crate::Result;

/// One query's slice of a problem's result list, with its own threshold
/// and quota.
#[derive(Debug, Clone, Copy)]
pub struct QuerySlice {
    /// Index of the query's first result.
    pub start: usize,
    /// Number of results belonging to the query.
    pub len: usize,
    /// The query's threshold β.
    pub beta: f64,
    /// Results that must exceed β.
    pub required: usize,
}

impl QuerySlice {
    /// `problem` as the one query it is.
    pub(crate) fn whole(problem: &ProblemInstance) -> QuerySlice {
        QuerySlice {
            start: 0,
            len: problem.results.len(),
            beta: problem.beta,
            required: problem.required,
        }
    }
}

/// One query's quota and how much of it the current levels fill.
#[derive(Debug, Clone, Copy)]
struct Quota {
    required: usize,
    satisfied: usize,
}

impl Quota {
    fn met(&self) -> bool {
        self.satisfied >= self.required
    }
}

/// Mutable solver state: per-base grid positions, per-result confidences,
/// per-query satisfied counts and the running cost — all maintained
/// incrementally so one base-level change only re-evaluates the results it
/// touches.
#[derive(Debug, Clone)]
pub struct EvalState<'p> {
    problem: &'p ProblemInstance,
    /// Grid steps above the initial confidence, per base.
    steps: Vec<u32>,
    /// Cached confidence level per base.
    levels: Vec<f64>,
    /// Cached cost contribution per base.
    costs: Vec<f64>,
    /// Cached confidence per result.
    confidences: Vec<f64>,
    /// Per result: the threshold of the query it belongs to.
    thresholds: Vec<f64>,
    /// Per result: the index of its query in `quotas`.
    query_of: Vec<usize>,
    /// Per query: its quota and its currently satisfied results.
    quotas: Vec<Quota>,
    /// Queries whose quota the current levels do not meet.
    unmet: usize,
    total_cost: f64,
    /// Scratch buffer for confidence-function arguments.
    scratch: Vec<f64>,
    /// Scratch buffer for the levels [`Self::optimistic_satisfied`] saves.
    saved_levels: Vec<f64>,
    /// Base `i`'s grid occupies `grid_start[i]..grid_start[i + 1]` of the
    /// two tables below, one entry per step `0..=max_steps(i)`.
    grid_start: Vec<usize>,
    /// [`ProblemInstance::level_at`] for every grid point.
    grid_levels: Vec<f64>,
    /// [`ProblemInstance::cost_at`] for every grid point.
    grid_costs: Vec<f64>,
    /// Count of confidence-function evaluations (for statistics).
    pub evals: u64,
}

impl<'p> EvalState<'p> {
    /// Fresh state: every base at its initial confidence.
    pub fn new(problem: &'p ProblemInstance) -> EvalState<'p> {
        Self::new_par(problem, &pcqe_par::Parallelism::sequential())
    }

    /// [`Self::new`] with the initial scoring of every result fanned out
    /// across worker threads. Byte-identical to the sequential
    /// construction for any policy: each result's confidence is a pure
    /// function of the (fixed) initial levels, and results are written
    /// back in index order.
    pub fn new_par(problem: &'p ProblemInstance, par: &pcqe_par::Parallelism) -> EvalState<'p> {
        Self::for_queries(problem, &[QuerySlice::whole(problem)], par)
    }

    /// [`Self::new_par`] for several queries over one pool: `queries` tile
    /// `problem.results` in order, each with its own threshold and quota
    /// (`problem.beta` and `problem.required` are not read).
    ///
    /// Each base's grid is tabulated here once, with the expressions of
    /// [`ProblemInstance::level_at`] and [`ProblemInstance::cost_at`]
    /// themselves, so a search node reads the very bits those calls would
    /// return without redoing the division, `ceil` and cost potentials.
    pub(crate) fn for_queries(
        problem: &'p ProblemInstance,
        queries: &[QuerySlice],
        par: &pcqe_par::Parallelism,
    ) -> EvalState<'p> {
        let mut grid_start = Vec::with_capacity(problem.bases.len() + 1);
        let mut grid_levels = Vec::new();
        let mut grid_costs = Vec::new();
        for i in 0..problem.bases.len() {
            grid_start.push(grid_levels.len());
            for s in 0..=problem.max_steps(i) {
                grid_levels.push(problem.level_at(i, s));
                grid_costs.push(problem.cost_at(i, s));
            }
        }
        grid_start.push(grid_levels.len());
        let levels: Vec<f64> = problem.bases.iter().map(|b| b.initial).collect();
        let confidences = pcqe_par::map(par, &problem.results, |r| {
            let args: Vec<f64> = r.bases.iter().map(|&b| levels[b]).collect();
            r.conf.eval(&args)
        });
        let mut thresholds = Vec::with_capacity(confidences.len());
        let mut query_of = Vec::with_capacity(confidences.len());
        let mut quotas = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            debug_assert_eq!(q.start, thresholds.len(), "query slices tile the results");
            thresholds.resize(q.start + q.len, q.beta);
            query_of.resize(q.start + q.len, qi);
            let satisfied = confidences[q.start..q.start + q.len]
                .iter()
                .filter(|&&c| c > q.beta)
                .count();
            quotas.push(Quota {
                required: q.required,
                satisfied,
            });
        }
        debug_assert_eq!(thresholds.len(), confidences.len());
        EvalState {
            problem,
            steps: vec![0; problem.bases.len()],
            levels,
            costs: vec![0.0; problem.bases.len()],
            evals: problem.results.len() as u64,
            confidences,
            thresholds,
            query_of,
            unmet: quotas.iter().filter(|q| !q.met()).count(),
            quotas,
            total_cost: 0.0,
            scratch: Vec::new(),
            saved_levels: Vec::new(),
            grid_start,
            grid_levels,
            grid_costs,
        }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &'p ProblemInstance {
        self.problem
    }

    /// Current confidence level of base `i`.
    pub fn level(&self, i: usize) -> f64 {
        self.levels[i]
    }

    /// Current grid steps of base `i`.
    pub fn steps_of(&self, i: usize) -> u32 {
        self.steps[i]
    }

    /// Grid steps available to base `i` — [`ProblemInstance::max_steps`]
    /// read off the table.
    pub(crate) fn max_steps(&self, i: usize) -> u32 {
        (self.grid_start[i + 1] - self.grid_start[i] - 1) as u32
    }

    /// [`ProblemInstance::level_at`] on the grid (`steps <= max_steps(i)`).
    pub(crate) fn level_at(&self, i: usize, steps: u32) -> f64 {
        debug_assert!(
            steps <= self.max_steps(i),
            "step {steps} off base {i}'s grid"
        );
        self.grid_levels[self.grid_start[i] + steps as usize]
    }

    /// [`ProblemInstance::cost_at`] on the grid (`steps <= max_steps(i)`).
    pub(crate) fn cost_at(&self, i: usize, steps: u32) -> f64 {
        debug_assert!(
            steps <= self.max_steps(i),
            "step {steps} off base {i}'s grid"
        );
        self.grid_costs[self.grid_start[i] + steps as usize]
    }

    /// Current confidence of result `ri`.
    pub fn confidence(&self, ri: usize) -> f64 {
        self.confidences[ri]
    }

    /// Is result `ri` currently satisfied (confidence strictly above its
    /// query's β)?
    pub fn is_satisfied(&self, ri: usize) -> bool {
        self.confidences[ri] > self.thresholds[ri]
    }

    /// Would satisfying result `ri` still move a quota: it is unsatisfied
    /// and its query is unmet.
    pub(crate) fn is_wanted(&self, ri: usize) -> bool {
        !self.is_satisfied(ri) && !self.quotas[self.query_of[ri]].met()
    }

    /// Number of satisfied results.
    pub fn satisfied_count(&self) -> usize {
        self.quotas.iter().map(|q| q.satisfied).sum()
    }

    /// Does the current state meet every query's quota?
    pub fn meets_quota(&self) -> bool {
        self.unmet == 0
    }

    /// Total increment cost of the current state.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    fn eval_result(&mut self, ri: usize) -> f64 {
        let r = &self.problem.results[ri];
        self.scratch.clear();
        self.scratch.extend(r.bases.iter().map(|&b| self.levels[b]));
        self.evals += 1;
        r.conf.eval(&self.scratch)
    }

    /// Set base `i` to `steps` grid steps, updating affected results,
    /// satisfied counts, and cost.
    pub fn set_steps(&mut self, i: usize, steps: u32) {
        let steps = steps.min(self.max_steps(i));
        if steps == self.steps[i] {
            return;
        }
        self.steps[i] = steps;
        self.levels[i] = self.level_at(i, steps);
        let new_cost = self.cost_at(i, steps);
        self.total_cost += new_cost - self.costs[i];
        self.costs[i] = new_cost;
        let problem = self.problem;
        for &ri in problem.results_of_base(i) {
            let threshold = self.thresholds[ri];
            let was = self.confidences[ri] > threshold;
            let c = self.eval_result(ri);
            self.confidences[ri] = c;
            let now = c > threshold;
            if was != now {
                self.flip(ri, now);
            }
        }
    }

    /// Result `ri` has just become satisfied (`now`) or stopped being so:
    /// move its query's count, and the unmet count with it when the quota
    /// is crossed.
    fn flip(&mut self, ri: usize, now: bool) {
        let quota = &mut self.quotas[self.query_of[ri]];
        let was_met = quota.met();
        if now {
            quota.satisfied += 1;
        } else {
            quota.satisfied -= 1;
        }
        match (was_met, quota.met()) {
            (false, true) => self.unmet -= 1,
            (true, false) => self.unmet += 1,
            _ => {}
        }
    }

    /// Raise base `i` by one δ step (no-op at max). Returns whether a step
    /// was taken.
    pub fn step_up(&mut self, i: usize) -> bool {
        let s = self.steps[i];
        if s >= self.max_steps(i) {
            return false;
        }
        self.set_steps(i, s + 1);
        true
    }

    /// Lower base `i` by one δ step (no-op at initial). Returns whether a
    /// step was taken.
    pub fn step_down(&mut self, i: usize) -> bool {
        let s = self.steps[i];
        if s == 0 {
            return false;
        }
        self.set_steps(i, s - 1);
        true
    }

    /// Marginal cost of the next δ step on base `i` (∞ at max).
    pub fn next_step_cost(&self, i: usize) -> f64 {
        let s = self.steps[i];
        if s >= self.max_steps(i) {
            return f64::INFINITY;
        }
        self.cost_at(i, s + 1) - self.cost_at(i, s)
    }

    /// Sum of confidence gains over `i`'s results if it took one δ step —
    /// without committing the step: only the level is substituted, so
    /// confidences, counts and the running cost keep their bits.
    /// `useful_only` restricts the sum to currently-unsatisfied results
    /// (the gain that actually moves a quota).
    pub fn probe_step_gain(&mut self, i: usize, useful_only: bool) -> f64 {
        let s = self.steps[i];
        if s >= self.max_steps(i) {
            return 0.0;
        }
        let old_level = self.levels[i];
        self.levels[i] = self.level_at(i, s + 1);
        let mut gain = 0.0;
        let problem = self.problem;
        for &ri in problem.results_of_base(i) {
            if useful_only && self.is_satisfied(ri) {
                continue;
            }
            let c = self.eval_result(ri);
            gain += (c - self.confidences[ri]).max(0.0);
        }
        self.levels[i] = old_level;
        gain
    }

    /// Snapshot the current state as a [`Solution`].
    pub fn to_solution(&self) -> Solution {
        Solution {
            levels: self.levels.clone(),
            cost: self.total_cost,
            satisfied: (0..self.confidences.len())
                .filter(|&ri| self.is_satisfied(ri))
                .collect(),
        }
    }

    /// Call `hit(query)` for every result that is satisfied now or would
    /// be if every base in `rest` were raised to its maximum while the
    /// others keep their current level.
    fn optimistic_each(&mut self, rest: &[usize], mut hit: impl FnMut(usize)) {
        let mut saved = std::mem::take(&mut self.saved_levels);
        saved.clear();
        saved.extend(rest.iter().map(|&i| self.levels[i]));
        for &i in rest {
            self.levels[i] = self.problem.bases[i].max;
        }
        for ri in 0..self.confidences.len() {
            if self.is_satisfied(ri) || self.eval_result(ri) > self.thresholds[ri] {
                hit(self.query_of[ri]);
            }
        }
        for (&i, &l) in rest.iter().zip(&saved) {
            self.levels[i] = l;
        }
        self.saved_levels = saved;
    }

    /// Count results that would be satisfied if every base in `rest` were
    /// raised to its maximum while others keep their current level — the
    /// optimistic bound used by heuristic H3.
    pub fn optimistic_satisfied(&mut self, rest: &[usize]) -> usize {
        let mut count = 0;
        self.optimistic_each(rest, |_| count += 1);
        count
    }

    /// Reject a problem in which some query's quota is out of reach even
    /// with every base at its maximum confidence; the error names the
    /// first such query's numbers.
    pub(crate) fn check_feasible(&mut self) -> Result<()> {
        let all: Vec<usize> = (0..self.levels.len()).collect();
        let mut reachable = vec![0usize; self.quotas.len()];
        self.optimistic_each(&all, |q| reachable[q] += 1);
        for (quota, &achievable) in self.quotas.iter().zip(&reachable) {
            if achievable < quota.required {
                return Err(CoreError::Infeasible {
                    achievable,
                    required: quota.required,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    fn two_result_problem() -> ProblemInstance {
        // r0 = t0 ∨ t1, r1 = t1 ∧ t2; β = 0.5, δ = 0.1.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, CostFn::linear(10.0).unwrap());
        b.base(1, 0.1, CostFn::linear(20.0).unwrap());
        b.base(2, 0.1, CostFn::linear(30.0).unwrap());
        b.result_from_lineage(&Lineage::or(vec![Lineage::var(0), Lineage::var(1)]))
            .unwrap();
        b.result_from_lineage(&Lineage::and(vec![Lineage::var(1), Lineage::var(2)]))
            .unwrap();
        b.require(1).build().unwrap()
    }

    #[test]
    fn initial_state_matches_direct_evaluation() {
        let p = two_result_problem();
        let s = EvalState::new(&p);
        assert!((s.confidence(0) - (0.1 + 0.1 - 0.01)).abs() < 1e-12);
        assert!((s.confidence(1) - 0.01).abs() < 1e-12);
        assert_eq!(s.satisfied_count(), 0);
        assert_eq!(s.total_cost(), 0.0);
    }

    #[test]
    fn steps_update_confidences_and_cost_incrementally() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        s.set_steps(1, 5); // t1: 0.1 → 0.6
        assert!((s.level(1) - 0.6).abs() < 1e-12);
        assert!((s.total_cost() - 20.0 * 0.5).abs() < 1e-9);
        // r0 = 0.1 + 0.6 - 0.06 = 0.64 > 0.5 → satisfied.
        assert!(s.is_satisfied(0));
        assert!(!s.is_satisfied(1));
        assert_eq!(s.satisfied_count(), 1);
        assert!(s.meets_quota());
        // Lower back down and everything reverts.
        s.set_steps(1, 0);
        assert_eq!(s.satisfied_count(), 0);
        assert!(s.total_cost().abs() < 1e-12);
    }

    #[test]
    fn quotas_are_per_query() {
        // The same two results as two one-result queries: r0 must pass 0.5,
        // r1 only 0.2.
        let p = two_result_problem();
        let slice = |start, beta| QuerySlice {
            start,
            len: 1,
            beta,
            required: 1,
        };
        let queries = [slice(0, 0.5), slice(1, 0.2)];
        let mut s = EvalState::for_queries(&p, &queries, &pcqe_par::Parallelism::sequential());
        s.set_steps(1, 5); // r0 = 0.64 > 0.5, r1 = 0.6 · 0.1
        assert!(s.is_satisfied(0) && !s.is_satisfied(1));
        assert!(!s.meets_quota(), "query 1 is still unmet");
        assert!(!s.is_wanted(0) && s.is_wanted(1));
        s.set_steps(2, 3); // r1 = 0.6 · 0.4 > 0.2, though not > 0.5
        assert!(s.meets_quota());
        assert_eq!(s.to_solution().satisfied, vec![0, 1]);
        s.set_steps(1, 0);
        assert_eq!(s.satisfied_count(), 0);
        assert!(!s.meets_quota());
    }

    #[test]
    fn step_up_down_respect_bounds() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        assert!(!s.step_down(0));
        for _ in 0..20 {
            s.step_up(0);
        }
        assert!((s.level(0) - 1.0).abs() < 1e-12);
        assert!(!s.step_up(0));
        assert_eq!(s.next_step_cost(0), f64::INFINITY);
    }

    #[test]
    fn probe_gain_does_not_mutate() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        let before = s.to_solution();
        let gain = s.probe_step_gain(1, false);
        // t1 appears in both results; one step raises r0 by (1-0.1)·0.1 and
        // r1 by 0.1·0.1.
        assert!((gain - (0.9 * 0.1 + 0.1 * 0.1)).abs() < 1e-9);
        assert_eq!(s.to_solution(), before);
        // Useful-only gain skips satisfied results.
        s.set_steps(0, 9); // r0 satisfied via t0
        let useful = s.probe_step_gain(1, true);
        assert!((useful - 0.1 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn parallel_construction_matches_sequential_bitwise() {
        let p = two_result_problem();
        let seq = EvalState::new(&p);
        let par = EvalState::new_par(
            &p,
            &pcqe_par::Parallelism {
                worker_threads: Some(8),
                parallel_threshold: 1,
            },
        );
        for ri in 0..p.results.len() {
            assert_eq!(seq.confidence(ri).to_bits(), par.confidence(ri).to_bits());
        }
        assert_eq!(seq.satisfied_count(), par.satisfied_count());
        assert_eq!(seq.evals, par.evals);
    }

    #[test]
    fn optimistic_satisfied_bounds_from_above() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        // With every base at max, both results hit 1.0 > β.
        assert_eq!(s.optimistic_satisfied(&[0, 1, 2]), 2);
        // With only t0 at max, r1 stays at 0.01.
        assert_eq!(s.optimistic_satisfied(&[0]), 1);
        // Probe must not leave residue.
        assert_eq!(s.satisfied_count(), 0);
        assert!((s.level(0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn to_solution_validates() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        s.set_steps(0, 5);
        let sol = s.to_solution();
        sol.validate(&p).unwrap();
    }
}
