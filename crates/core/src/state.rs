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
use std::ops::Range;

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

/// One point of a base's grid: [`crate::problem::BaseVar::level_at`] and
/// [`crate::problem::BaseVar::cost_at`] at that step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridPoint {
    /// Confidence level at the step.
    pub(crate) level: f64,
    /// Cost of holding the base at the step.
    pub(crate) cost: f64,
}

/// One base's position on its grid.
#[derive(Debug, Clone, Copy)]
struct Base {
    /// Grid steps above the initial confidence.
    steps: u32,
    /// The base's grid is `grid[start..=start + max_steps]`.
    start: usize,
    max_steps: u32,
    /// Cached confidence level.
    level: f64,
    /// Cached cost contribution.
    cost: f64,
}

/// One result's cached confidence and the query it answers to.
#[derive(Debug, Clone)]
struct Tracked<'p> {
    spec: &'p ResultSpec,
    confidence: f64,
    /// The threshold of the result's query.
    threshold: f64,
    /// The index of the result's query in `quotas`.
    query: usize,
    /// Where the result's circuit node values sit in `values`.
    span: Range<usize>,
}

impl Tracked<'_> {
    /// Confidence strictly above the query's β.
    fn satisfied(&self) -> bool {
        self.confidence > self.threshold
    }

    /// The confidence after base `i`'s level changed to the one in
    /// `bases`: the kept node values follow the change through `i`'s
    /// slot's cone.
    fn refresh(&self, bases: &[Base], values: &mut [f64], i: usize) -> f64 {
        let nodes = values.get_mut(self.span.clone()).unwrap_or_default();
        evaluate(self.spec, bases, slot_of(self.spec, i), nodes)
    }
}

/// Mutable solver state: per-base grid positions, per-result confidences,
/// per-query satisfied counts and the running cost — all maintained
/// incrementally, so one base-level change only re-evaluates the results
/// it touches, and in each of those only the nodes that read the base
/// (its slot's cone, see [`pcqe_lineage::CompiledLineage::update`]).
/// Bases and results are named by their index in the problem.
#[derive(Debug, Clone)]
pub struct EvalState<'p> {
    problem: &'p ProblemInstance,
    bases: Vec<Base>,
    results: Vec<Tracked<'p>>,
    /// The node values of every result's circuit at the current levels,
    /// back to back (see [`Tracked::span`]).
    values: Vec<f64>,
    /// Per query: its quota and its currently satisfied results.
    quotas: Vec<Quota>,
    /// Queries whose quota the current levels do not meet.
    unmet: usize,
    total_cost: f64,
    /// Scratch buffer for the node values of a one-off evaluation.
    scratch_values: Vec<f64>,
    /// Scratch buffer for the `(base, level)`s
    /// [`Self::optimistic_satisfied`] saves.
    saved_levels: Vec<(usize, f64)>,
    /// Every base's grid, one point per step `0..=max_steps`, back to
    /// back.
    grid: Vec<GridPoint>,
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
    /// Each base's grid is tabulated here once, with
    /// [`crate::problem::BaseVar::level_at`] and
    /// [`crate::problem::BaseVar::cost_at`] themselves, so a search node
    /// reads the very bits those calls would return without redoing the
    /// division, `ceil` and cost potentials.
    pub(crate) fn for_queries(
        problem: &'p ProblemInstance,
        queries: &[QuerySlice],
    ) -> EvalState<'p> {
        let delta = problem.delta;
        let mut grid = Vec::new();
        let bases: Vec<Base> = (problem.bases.iter())
            .map(|b| {
                let (start, max_steps) = (grid.len(), b.max_steps(delta));
                grid.extend((0..=max_steps).map(|s| GridPoint {
                    level: b.level_at(delta, s),
                    cost: b.cost_at(delta, s),
                }));
                Base {
                    steps: 0,
                    start,
                    max_steps,
                    level: b.initial,
                    cost: 0.0,
                }
            })
            .collect();
        let specs = &problem.results;
        let mut values = Vec::with_capacity(specs.iter().map(|r| r.conf.node_count()).sum());
        let mut results = Vec::with_capacity(specs.len());
        let mut quotas = Vec::with_capacity(queries.len());
        let mut specs = specs.iter();
        for (query, q) in queries.iter().enumerate() {
            debug_assert_eq!(q.start, results.len(), "query slices tile the results");
            let mut satisfied = 0;
            for spec in specs.by_ref().take(q.len) {
                let start = values.len();
                values.resize(start + spec.conf.node_count(), 0.0);
                let nodes = values.get_mut(start..).unwrap_or_default();
                let confidence = evaluate(spec, &bases, None, nodes);
                satisfied += usize::from(confidence > q.beta);
                results.push(Tracked {
                    spec,
                    confidence,
                    threshold: q.beta,
                    query,
                    span: start..values.len(),
                });
            }
            quotas.push(Quota {
                required: q.required,
                satisfied,
            });
        }
        debug_assert_eq!(results.len(), problem.results.len());
        EvalState {
            problem,
            bases,
            evals: problem.results.len() as u64,
            results,
            values,
            unmet: quotas.iter().filter(|q| !q.met()).count(),
            quotas,
            total_cost: 0.0,
            scratch_values: Vec::new(),
            saved_levels: Vec::new(),
            grid,
        }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &'p ProblemInstance {
        self.problem
    }

    /// Current grid steps of base `i`; `None` if the problem has no base
    /// `i`.
    pub fn steps_of(&self, i: usize) -> Option<u32> {
        self.bases.get(i).map(|b| b.steps)
    }

    /// Base `i`'s grid point `steps` steps up; `None` past its top.
    pub(crate) fn point(&self, i: usize, steps: u32) -> Option<GridPoint> {
        self.grid(i)?.get(steps as usize).copied()
    }

    /// Base `i`'s grid, one point per step `0..=max_steps`.
    pub(crate) fn grid(&self, i: usize) -> Option<&[GridPoint]> {
        let b = self.bases.get(i)?;
        self.grid.get(b.start..=b.start + b.max_steps as usize)
    }

    /// The bases above their initial level, as `(cost, base, steps)`.
    pub(crate) fn raised(&self) -> impl Iterator<Item = (f64, usize, u32)> + '_ {
        (self.bases.iter().enumerate())
            .filter(|(_, b)| b.steps > 0)
            .map(|(i, b)| (b.cost, i, b.steps))
    }

    /// Current confidence of result `ri`; `None` if the problem has no
    /// result `ri`.
    pub fn confidence(&self, ri: usize) -> Option<f64> {
        self.results.get(ri).map(|r| r.confidence)
    }

    /// Is result `ri` currently satisfied (confidence strictly above its
    /// query's β)?
    pub fn is_satisfied(&self, ri: usize) -> bool {
        self.results.get(ri).is_some_and(Tracked::satisfied)
    }

    /// Would satisfying result `ri` still move a quota: it is unsatisfied
    /// and its query is unmet.
    pub(crate) fn is_wanted(&self, ri: usize) -> bool {
        self.results
            .get(ri)
            .is_some_and(|r| !r.satisfied() && self.quotas.get(r.query).is_some_and(|q| !q.met()))
    }

    /// Does the current state meet every query's quota?
    pub fn meets_quota(&self) -> bool {
        self.unmet == 0
    }

    /// Set base `i` to `steps` grid steps, updating affected results,
    /// satisfied counts, and cost.
    pub fn set_steps(&mut self, i: usize, steps: u32) {
        let Some(base) = self.bases.get_mut(i) else {
            return;
        };
        let steps = steps.min(base.max_steps);
        let point = self.grid.get(base.start + steps as usize);
        let Some(&point) = point.filter(|_| steps != base.steps) else {
            return;
        };
        base.steps = steps;
        base.level = point.level;
        self.total_cost += point.cost - base.cost;
        base.cost = point.cost;
        let problem = self.problem;
        for &ri in problem.results_of_base(i) {
            let Some(r) = self.results.get_mut(ri) else {
                continue;
            };
            let was = r.satisfied();
            self.evals += 1;
            r.confidence = r.refresh(&self.bases, &mut self.values, i);
            let now = r.satisfied();
            if was != now {
                let query = r.query;
                self.flip(query, now);
            }
        }
    }

    /// A result of `query` has just become satisfied (`now`) or stopped
    /// being so: move the query's count, and the unmet count with it when
    /// the quota is crossed.
    fn flip(&mut self, query: usize, now: bool) {
        let Some(quota) = self.quotas.get_mut(query) else {
            return;
        };
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
        let below_top = self.bases.get(i).filter(|b| b.steps < b.max_steps);
        let Some(&Base { steps, .. }) = below_top else {
            return false;
        };
        self.set_steps(i, steps + 1);
        true
    }

    /// Lower base `i` by one δ step (no-op at initial). Returns whether a
    /// step was taken.
    pub fn step_down(&mut self, i: usize) -> bool {
        let raised = self.bases.get(i).filter(|b| b.steps > 0);
        let Some(&Base { steps, .. }) = raised else {
            return false;
        };
        self.set_steps(i, steps - 1);
        true
    }

    /// The grid points base `i` stands on and one step above it, `None`
    /// at its top.
    fn next_step(&self, i: usize) -> Option<(GridPoint, GridPoint)> {
        let s = self.steps_of(i)?;
        match self.grid(i)?.get(s as usize..) {
            Some(&[here, next, ..]) => Some((here, next)),
            _ => None,
        }
    }

    /// Marginal cost of the next δ step on base `i` (∞ at max).
    pub fn next_step_cost(&self, i: usize) -> f64 {
        match self.next_step(i) {
            Some((here, next)) => next.cost - here.cost,
            None => f64::INFINITY,
        }
    }

    /// Sum of confidence gains over `i`'s currently-unsatisfied results
    /// (the gain that actually moves a quota) if it took one δ step —
    /// without committing the step: only the level is substituted, and
    /// then put back, so confidences, node values, counts and the running
    /// cost keep their bits.
    pub fn probe_step_gain(&mut self, i: usize) -> f64 {
        let Some((_, next)) = self.next_step(i) else {
            return 0.0;
        };
        let Some(old_level) = self.set_level(i, next.level) else {
            return 0.0;
        };
        let mut gain = 0.0;
        let (problem, results) = (self.problem, &self.results);
        let open = || {
            let tracked = problem.results_of_base(i).iter();
            tracked
                .filter_map(|&ri| results.get(ri))
                .filter(|r| !r.satisfied())
        };
        for r in open() {
            self.evals += 1;
            let c = r.refresh(&self.bases, &mut self.values, i);
            gain += (c - r.confidence).max(0.0);
        }
        if let Some(base) = self.bases.get_mut(i) {
            base.level = old_level;
        }
        // The same cones at the old level restore the old node values.
        for r in open() {
            r.refresh(&self.bases, &mut self.values, i);
        }
        gain
    }

    /// Put base `i` at `level` without touching anything computed from
    /// it; the level it had, or `None` if there is no such base.
    fn set_level(&mut self, i: usize, level: f64) -> Option<f64> {
        let base = self.bases.get_mut(i)?;
        Some(std::mem::replace(&mut base.level, level))
    }

    /// Snapshot the current state as a [`Solution`].
    pub fn to_solution(&self) -> Solution {
        Solution {
            levels: self.bases.iter().map(|b| b.level).collect(),
            cost: self.total_cost,
            satisfied: (self.results.iter().enumerate())
                .filter(|(_, r)| r.satisfied())
                .map(|(ri, _)| ri)
                .collect(),
        }
    }

    /// Call `hit(query)` for every result that is satisfied now or would
    /// be if every base `i` in `rest` were raised to `raised(self, i)`
    /// while the others keep their current level.
    fn optimistic_each(
        &mut self,
        rest: &[usize],
        raised: impl Fn(&Self, usize) -> Option<f64>,
        mut hit: impl FnMut(usize),
    ) {
        let mut saved = std::mem::take(&mut self.saved_levels);
        saved.clear();
        for &i in rest {
            if let Some(old) = raised(self, i).and_then(|level| self.set_level(i, level)) {
                saved.push((i, old));
            }
        }
        let (bases, values) = (&self.bases, &mut self.scratch_values);
        for r in &self.results {
            let pass = r.satisfied() || {
                self.evals += 1;
                values.clear();
                values.resize(r.spec.conf.node_count(), 0.0);
                evaluate(r.spec, bases, None, values) > r.threshold
            };
            if pass {
                hit(r.query);
            }
        }
        // Backwards, so a base listed twice ends at the level it started at.
        for &(i, level) in saved.iter().rev() {
            self.set_level(i, level);
        }
        self.saved_levels = saved;
    }

    /// Count results that would be satisfied if every base in `rest` were
    /// raised to its maximum while others keep their current level — the
    /// paper's optimistic bound for heuristic H3.
    pub fn optimistic_satisfied(&mut self, rest: &[usize]) -> usize {
        let mut count = 0;
        self.optimistic_each(rest, Self::max_level, |_| count += 1);
        count
    }

    /// Base `i`'s maximum confidence.
    fn max_level(&self, i: usize) -> Option<f64> {
        self.problem.bases.get(i).map(|b| b.max)
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
            let grid = s.grid(i)?;
            let top = grid.iter().rev().find(|p| from + p.cost < budget);
            top.or(grid.first()).map(|p| p.level)
        };
        let mut count = 0;
        self.optimistic_each(rest, affordable, |_| count += 1);
        count
    }

    /// Reject a problem in which some query's quota is out of reach even
    /// with every base at its maximum confidence; the error names the
    /// first such query's numbers.
    pub(crate) fn check_feasible(&mut self) -> Result<()> {
        let all: Vec<usize> = (0..self.bases.len()).collect();
        let mut reachable = vec![0usize; self.quotas.len()];
        self.optimistic_each(&all, Self::max_level, |q| {
            if let Some(n) = reachable.get_mut(q) {
                *n += 1;
            }
        });
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

/// Base `i`'s slot in `r`: its position in `r.bases`.
fn slot_of(r: &ResultSpec, i: usize) -> Option<usize> {
    r.bases.iter().position(|&b| b == i)
}

/// Result `r`'s confidence at the levels of `bases`, with `values` — its
/// circuit's node values — brought to those levels: by a full forward
/// pass (`changed` `None`), or, when `values` hold a pass at levels that
/// differ from these only in the base in slot `s` (`Some(s)`), by
/// recomputing that slot's cone. Either way the result has the bits of a
/// fresh [`pcqe_lineage::CompiledLineage::eval`].
fn evaluate(r: &ResultSpec, bases: &[Base], changed: Option<usize>, values: &mut [f64]) -> f64 {
    let prob = |slot: usize| {
        let base = r.bases.get(slot).and_then(|&b| bases.get(b));
        base.map_or(0.0, |b| b.level)
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
        assert!((s.confidence(0).unwrap() - (0.1 + 0.1 - 0.01)).abs() < 1e-12);
        assert!((s.confidence(1).unwrap() - 0.01).abs() < 1e-12);
        assert_eq!(counted(&s), 0);
        assert_eq!(s.total_cost, 0.0);
    }

    #[test]
    fn steps_update_confidences_and_cost_incrementally() {
        let p = two_result_problem();
        let mut s = EvalState::new(&p);
        s.set_steps(1, 5); // t1: 0.1 → 0.6
        assert!((s.bases[1].level - 0.6).abs() < 1e-12);
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
        assert!((s.bases[0].level - 1.0).abs() < 1e-12);
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
        assert!((s.bases[0].level - 0.1).abs() < 1e-12);
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
