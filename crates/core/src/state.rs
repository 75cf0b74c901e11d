//! Incremental evaluation state shared by the solvers, and the one place
//! that knows what "satisfied", "quota met" and "useful gain" mean.
//!
//! A state serves one or several queries over one base-tuple pool (the
//! multiple-query remark at the end of Section 4): every result carries
//! its own query's threshold, every query its own quota, and the state is
//! done when no query is left unmet. A [`ProblemInstance`] is the
//! one-query case.

use crate::error::CoreError;
use crate::problem::{ProblemInstance, ResultSpec};
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
/// incrementally, so one base-level change only re-evaluates the results
/// it touches, and in each of those only the nodes that read the base
/// (its slot's cone, see [`pcqe_lineage::CompiledLineage::update`]).
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
    /// The node values of every result's circuit at the current levels,
    /// back to back (see [`Spans`]).
    values: Vec<f64>,
    spans: Spans,
    /// Per result: the threshold of the query it belongs to.
    thresholds: Vec<f64>,
    /// Per result: the index of its query in `quotas`.
    query_of: Vec<usize>,
    /// Per query: its quota and its currently satisfied results.
    quotas: Vec<Quota>,
    /// Queries whose quota the current levels do not meet.
    unmet: usize,
    total_cost: f64,
    /// Scratch buffer for the node values of a one-off evaluation.
    scratch_values: Vec<f64>,
    /// Scratch buffer for the levels [`Self::optimistic_satisfied`] saves.
    saved_levels: Vec<f64>,
    /// Base `i`'s grid occupies `grid_start[i]..grid_start[i + 1]` of the
    /// two tables below, one entry per step `0..=max_steps(i)`.
    grid_start: Vec<usize>,
    /// [`ProblemInstance::level_at`] for every grid point.
    grid_levels: Vec<f64>,
    /// [`ProblemInstance::cost_at`] for every grid point.
    grid_costs: Vec<f64>,
    /// Count of result (re-)evaluations, a cone update counting as one
    /// (for statistics).
    pub evals: u64,
}

impl<'p> EvalState<'p> {
    /// Fresh state: every base at its initial confidence.
    pub fn new(problem: &'p ProblemInstance) -> EvalState<'p> {
        Self::for_queries(problem, &[QuerySlice::whole(problem)])
    }

    /// [`Self::new`] for several queries over one pool: `queries` tile
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
        let results = &problem.results;
        let mut confidences = Vec::with_capacity(results.len());
        let mut values = Vec::with_capacity(results.iter().map(|r| r.conf.node_count()).sum());
        let mut starts = Vec::with_capacity(results.len() + 1);
        starts.push(0);
        for r in results {
            let start = values.len();
            values.resize(start + r.conf.node_count(), 0.0);
            let nodes = values.get_mut(start..).unwrap_or_default();
            confidences.push(evaluate(r, &levels, None, nodes));
            starts.push(values.len());
        }
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
            values,
            spans: Spans(starts),
            thresholds,
            query_of,
            unmet: quotas.iter().filter(|q| !q.met()).count(),
            quotas,
            total_cost: 0.0,
            scratch_values: Vec::new(),
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

    /// Does the current state meet every query's quota?
    pub fn meets_quota(&self) -> bool {
        self.unmet == 0
    }

    fn result(&self, ri: usize) -> &'p ResultSpec {
        &self.problem.results[ri]
    }

    /// Result `ri` evaluated afresh at the current levels, in a scratch
    /// buffer: its kept node values are not touched.
    fn eval_result(&mut self, ri: usize) -> f64 {
        let r = self.result(ri);
        self.evals += 1;
        let values = &mut self.scratch_values;
        values.clear();
        values.resize(r.conf.node_count(), 0.0);
        evaluate(r, &self.levels, None, values)
    }

    /// Result `ri` brought up to date after base `i`'s level changed: its
    /// kept node values follow the change through `i`'s slot's cone.
    fn refresh(&mut self, ri: usize, i: usize) -> f64 {
        let r = self.result(ri);
        let values = self.spans.of(ri, &mut self.values);
        evaluate(r, &self.levels, slot_of(r, i), values)
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
            self.evals += 1;
            let c = self.refresh(ri, i);
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

    /// Sum of confidence gains over `i`'s currently-unsatisfied results
    /// (the gain that actually moves a quota) if it took one δ step —
    /// without committing the step: only the level is substituted, and
    /// then put back, so confidences, node values, counts and the running
    /// cost keep their bits.
    pub fn probe_step_gain(&mut self, i: usize) -> f64 {
        let s = self.steps[i];
        if s >= self.max_steps(i) {
            return 0.0;
        }
        let old_level = self.levels[i];
        self.levels[i] = self.level_at(i, s + 1);
        let mut gain = 0.0;
        let problem = self.problem;
        for &ri in problem.results_of_base(i) {
            if !self.is_satisfied(ri) {
                self.evals += 1;
                let c = self.refresh(ri, i);
                gain += (c - self.confidences[ri]).max(0.0);
            }
        }
        self.levels[i] = old_level;
        // The same cones at the old level restore the old node values.
        for &ri in problem.results_of_base(i) {
            if !self.is_satisfied(ri) {
                self.refresh(ri, i);
            }
        }
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
    /// be if every base `i` in `rest` were raised to `raised(self, i)`
    /// while the others keep their current level.
    fn optimistic_each(
        &mut self,
        rest: &[usize],
        raised: impl Fn(&Self, usize) -> f64,
        mut hit: impl FnMut(usize),
    ) {
        let mut saved = std::mem::take(&mut self.saved_levels);
        saved.clear();
        saved.extend(rest.iter().map(|&i| self.levels[i]));
        for &i in rest {
            self.levels[i] = raised(self, i);
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
    /// paper's optimistic bound for heuristic H3.
    pub fn optimistic_satisfied(&mut self, rest: &[usize]) -> usize {
        let mut count = 0;
        self.optimistic_each(rest, |s, i| s.problem.bases[i].max, |_| count += 1);
        count
    }

    /// Heuristic H3 below a search node that costs `cost` with the bases
    /// in `rest` still at their initial level: the results satisfied now,
    /// or with each base `i` in `rest` raised to its highest grid step `s`
    /// at which `cost + cost_at(i, s)` stays below `budget`, the others
    /// kept. Summed after `cost` in any order, a cheaper assignment below
    /// the node holds every base of `rest` at or under that step; with
    /// monotone confidences and costs it satisfies no result these levels
    /// do not. An unbounded `budget` raises every base to its top step.
    ///
    /// The first base of `rest` is raised from `cost` and every other one
    /// from `child`. With `child == cost` this is the node's own bound.
    /// With `child` the cost of the child that sets the first base to step
    /// `s`, it bounds every child from `s` up at once: each of their own
    /// bounds raises the first base no higher and the others from a cost
    /// no lower. The first base may meanwhile stand at any step up to its
    /// affordable one.
    pub(crate) fn affordable_satisfied(
        &mut self,
        rest: &[usize],
        cost: f64,
        child: f64,
        budget: f64,
    ) -> usize {
        let first = rest.first().copied();
        let affordable = |s: &Self, i: usize| {
            let from = if first == Some(i) { cost } else { child };
            let mut steps = (0..=s.max_steps(i)).rev();
            let top = steps.find(|&step| from + s.cost_at(i, step) < budget);
            s.level_at(i, top.unwrap_or(0))
        };
        let mut count = 0;
        self.optimistic_each(rest, affordable, |_| count += 1);
        count
    }

    /// Reject a problem in which some query's quota is out of reach even
    /// with every base at its maximum confidence; the error names the
    /// first such query's numbers.
    pub(crate) fn check_feasible(&mut self) -> Result<()> {
        let all: Vec<usize> = (0..self.levels.len()).collect();
        let mut reachable = vec![0usize; self.quotas.len()];
        self.optimistic_each(&all, |s, i| s.problem.bases[i].max, |q| reachable[q] += 1);
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

/// Where each result's node values sit in a flat buffer: result `ri`'s
/// are `values[self.0[ri]..self.0[ri + 1]]`.
#[derive(Debug, Clone)]
struct Spans(Vec<usize>);

impl Spans {
    fn of<'v>(&self, ri: usize, values: &'v mut [f64]) -> &'v mut [f64] {
        let start = |at: usize| self.0.get(at).copied().unwrap_or(0);
        values.get_mut(start(ri)..start(ri + 1)).unwrap_or_default()
    }
}

/// Base `i`'s slot in `r`: its position in `r.bases`.
fn slot_of(r: &ResultSpec, i: usize) -> Option<usize> {
    r.bases.iter().position(|&b| b == i)
}

/// Result `r`'s confidence at `levels`, with `values` — its circuit's node
/// values — brought to those levels: by a full forward pass (`changed`
/// `None`), or, when `values` hold a pass at levels that differ from
/// `levels` only in the base in slot `s` (`Some(s)`), by recomputing that
/// slot's cone. Either way the result has the bits of a fresh
/// [`pcqe_lineage::CompiledLineage::eval`].
fn evaluate(r: &ResultSpec, levels: &[f64], changed: Option<usize>, values: &mut [f64]) -> f64 {
    let prob = |slot: usize| {
        let level = r.bases.get(slot).and_then(|&b| levels.get(b));
        level.copied().unwrap_or(0.0)
    };
    match changed {
        Some(slot) => r.conf.update(slot, prob, values),
        None => r.conf.eval_into(prob, values),
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use crate::solution::check::check_solution;
    use pcqe_cost::CostFn;
    use pcqe_lineage::Lineage;

    /// The per-query counters summed: what `meets_quota`, `is_wanted` and
    /// the unmet count are kept from.
    fn counted(s: &EvalState) -> usize {
        s.quotas.iter().map(|q| q.satisfied).sum()
    }

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
        assert_eq!(counted(&s), 0);
        assert_eq!(s.total_cost, 0.0);
    }

    #[test]
    fn steps_update_confidences_and_cost_incrementally() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        s.set_steps(1, 5); // t1: 0.1 → 0.6
        assert!((s.levels[1] - 0.6).abs() < 1e-12);
        assert!((s.total_cost - 20.0 * 0.5).abs() < 1e-9);
        // r0 = 0.1 + 0.6 - 0.06 = 0.64 > 0.5 → satisfied.
        assert!(s.is_satisfied(0));
        assert!(!s.is_satisfied(1));
        assert_eq!(counted(&s), 1);
        assert!(s.meets_quota());
        // Lower back down and everything reverts.
        s.set_steps(1, 0);
        assert_eq!(counted(&s), 0);
        assert!(s.total_cost.abs() < 1e-12);
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
        let mut s = EvalState::for_queries(&p, &queries);
        s.set_steps(1, 5); // r0 = 0.64 > 0.5, r1 = 0.6 · 0.1
        assert!(s.is_satisfied(0) && !s.is_satisfied(1));
        assert!(!s.meets_quota(), "query 1 is still unmet");
        assert!(!s.is_wanted(0) && s.is_wanted(1));
        s.set_steps(2, 3); // r1 = 0.6 · 0.4 > 0.2, though not > 0.5
        assert!(s.meets_quota());
        assert_eq!(s.to_solution().satisfied, vec![0, 1]);
        s.set_steps(1, 0);
        assert_eq!(counted(&s), 0);
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
        assert!((s.levels[0] - 1.0).abs() < 1e-12);
        assert!(!s.step_up(0));
        assert_eq!(s.next_step_cost(0), f64::INFINITY);
    }

    #[test]
    fn probe_gain_does_not_mutate() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        let before = s.to_solution();
        let gain = s.probe_step_gain(1);
        // t1 appears in both results; one step raises r0 by (1-0.1)·0.1 and
        // r1 by 0.1·0.1.
        assert!((gain - (0.9 * 0.1 + 0.1 * 0.1)).abs() < 1e-9);
        assert_eq!(s.to_solution(), before);
        // The gain skips satisfied results.
        s.set_steps(0, 9); // r0 satisfied via t0
        let gain = s.probe_step_gain(1);
        assert!((gain - 0.1 * 0.1).abs() < 1e-9);
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
        assert_eq!(counted(&s), 0);
        assert!((s.levels[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn to_solution_validates() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        s.set_steps(0, 5);
        let sol = s.to_solution();
        check_solution(&sol, &p).unwrap();
    }

    /// After every `set_steps` of a random walk, each query's counter is
    /// the number of its results `is_satisfied` reports, and the unmet
    /// count is the number of queries whose counter falls short.
    #[test]
    fn quota_counters_follow_random_steps() {
        let mut rng = pcqe_lineage::Rng64::seed_from_u64(0x57A7_E001);
        for _ in 0..40 {
            let k = rng.range_usize(2, 6);
            let mut b = ProblemBuilder::new(0.5, 0.1);
            for id in 0..k as u64 {
                let initial = rng.below_u64(5) as f64 / 10.0;
                b.base(id, initial, CostFn::linear(1.0 + id as f64).unwrap());
            }
            let n = rng.range_usize(2, 7);
            for _ in 0..n {
                let vars = (0..rng.range_usize(1, 4))
                    .map(|_| Lineage::var(rng.below_u64(k as u64)))
                    .collect();
                let lineage = if rng.chance(0.5) {
                    Lineage::or(vars)
                } else {
                    Lineage::and(vars)
                };
                b.result_from_lineage(&lineage).unwrap();
            }
            let p = b.build().unwrap();
            // Tile the results into queries of random length, β and quota.
            let (mut queries, mut start) = (Vec::new(), 0);
            while start < n {
                let len = rng.range_usize(1, n - start + 1);
                queries.push(QuerySlice {
                    start,
                    len,
                    beta: 0.2 + 0.6 * rng.next_f64(),
                    required: rng.below_usize(len + 1),
                });
                start += len;
            }
            let mut s = EvalState::for_queries(&p, &queries);
            for _ in 0..30 {
                s.set_steps(rng.below_usize(k), rng.below_u64(12) as u32);
                let mut unmet = 0;
                for (q, quota) in queries.iter().zip(&s.quotas) {
                    let satisfied = (q.start..q.start + q.len)
                        .filter(|&ri| s.is_satisfied(ri))
                        .count();
                    assert_eq!(quota.satisfied, satisfied, "{q:?}");
                    unmet += usize::from(satisfied < q.required);
                }
                assert_eq!(s.unmet, unmet);
                assert_eq!(s.meets_quota(), unmet == 0);
            }
        }
    }
}
