//! The confidence-increment problem model (the constraint-optimisation
//! problem of Section 3.2).

use crate::error::CoreError;
use crate::Result;
use pcqe_cost::CostFn;
use pcqe_lineage::{CircuitCache, CompiledLineage, Lineage};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One base tuple in the optimisation problem: its external id, initial
/// confidence `p`, maximum achievable confidence, and cost function.
#[derive(Debug, Clone)]
pub struct BaseVar {
    /// External identifier (the engine uses the global tuple id).
    pub id: u64,
    /// Initial confidence `p_λ0`.
    pub initial: f64,
    /// Maximum achievable confidence (usually `1.0`).
    pub max: f64,
    /// Cost of raising this tuple's confidence.
    pub cost: CostFn,
}

/// A user-supplied confidence function over a slice of probabilities.
pub type CustomConfFn = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// The confidence function `F(p_1 … p_k)` of one intermediate result.
///
/// The function receives the probabilities of the result's base tuples in
/// the order of [`ResultSpec::bases`].
#[derive(Clone)]
pub enum ConfFn {
    /// Compiled lineage formula (the usual case).
    Compiled(Arc<CompiledLineage>),
    /// Arbitrary user-supplied function (must be monotone non-decreasing in
    /// every argument for the algorithms' pruning rules to be sound).
    Custom(CustomConfFn),
}

impl std::fmt::Debug for ConfFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfFn::Compiled(c) => write!(f, "ConfFn::Compiled({} vars)", c.vars().len()),
            ConfFn::Custom(_) => f.write_str("ConfFn::Custom"),
        }
    }
}

impl ConfFn {
    /// Evaluate the function on the probabilities of the result's bases.
    pub fn eval(&self, probs: &[f64]) -> f64 {
        match self {
            ConfFn::Compiled(c) => c.eval(probs),
            ConfFn::Custom(f) => f(probs),
        }
    }
}

/// One intermediate result: which base tuples it depends on (as indexes
/// into [`ProblemInstance::bases`]) and its confidence function.
#[derive(Debug, Clone)]
pub struct ResultSpec {
    /// Base-variable indexes, in the order the confidence function expects.
    pub bases: Vec<usize>,
    /// Confidence function over those bases.
    pub conf: ConfFn,
}

/// A complete confidence-increment problem.
///
/// A result is *satisfied* when its confidence is strictly greater than
/// [`ProblemInstance::beta`] (matching Definition 1's "higher than β").
/// A solution must satisfy at least [`ProblemInstance::required`] results
/// while minimising the summed increment cost.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    /// The base tuples.
    pub bases: Vec<BaseVar>,
    /// The intermediate results.
    pub results: Vec<ResultSpec>,
    /// Confidence threshold β.
    pub beta: f64,
    /// Number of results that must be satisfied.
    pub required: usize,
    /// Confidence-increment granularity δ.
    pub delta: f64,
    /// For each base index, the result indexes it participates in.
    base_to_results: Vec<Vec<usize>>,
}

impl ProblemInstance {
    /// Results affected by a change to base `i`.
    pub fn results_of_base(&self, i: usize) -> &[usize] {
        &self.base_to_results[i]
    }

    /// Number of grid steps available to base `i` (from initial to max).
    pub fn max_steps(&self, i: usize) -> u32 {
        let b = &self.bases[i];
        if b.max <= b.initial {
            return 0;
        }
        ((b.max - b.initial) / self.delta).ceil() as u32
    }

    /// Confidence level of base `i` after `steps` grid steps.
    pub fn level_at(&self, i: usize, steps: u32) -> f64 {
        let b = &self.bases[i];
        (b.initial + steps as f64 * self.delta).min(b.max)
    }

    /// Cost of holding base `i` at `steps` grid steps.
    pub fn cost_at(&self, i: usize, steps: u32) -> f64 {
        let b = &self.bases[i];
        b.cost.cost(b.initial, self.level_at(i, steps))
    }

    /// The cheapest possible single-δ step anywhere on base `i`'s grid —
    /// a safe lower bound for heuristic H4 regardless of the cost
    /// function's convexity.
    pub fn min_step_cost(&self, i: usize) -> f64 {
        let steps = self.max_steps(i);
        let mut best = f64::INFINITY;
        for s in 0..steps {
            let c = self.cost_at(i, s + 1) - self.cost_at(i, s);
            if c < best {
                best = c;
            }
        }
        best
    }
}

/// Builder for [`ProblemInstance`].
#[derive(Debug)]
pub struct ProblemBuilder {
    bases: Vec<BaseVar>,
    results: Vec<ResultSpec>,
    beta: f64,
    delta: f64,
    required: usize,
    id_to_index: BTreeMap<u64, usize>,
    lineage_budget: usize,
    /// The pool [`ProblemBuilder::result_from_lineage`] compiles through.
    pool: CircuitCache,
}

impl ProblemBuilder {
    /// Start a problem with threshold `beta` and granularity `delta`.
    pub fn new(beta: f64, delta: f64) -> ProblemBuilder {
        ProblemBuilder {
            bases: Vec::new(),
            results: Vec::new(),
            beta,
            delta,
            required: 0,
            id_to_index: BTreeMap::new(),
            lineage_budget: 4096,
            pool: CircuitCache::new(),
        }
    }

    /// Shannon-expansion budget used when compiling result lineage.
    pub fn lineage_budget(mut self, budget: usize) -> ProblemBuilder {
        self.lineage_budget = budget;
        self
    }

    /// Add a base tuple with maximum confidence 1.0; returns its index.
    pub fn base(&mut self, id: u64, initial: f64, cost: CostFn) -> usize {
        self.base_capped(id, initial, 1.0, cost)
    }

    /// Add a base tuple with an explicit maximum confidence.
    pub fn base_capped(&mut self, id: u64, initial: f64, max: f64, cost: CostFn) -> usize {
        let index = self.bases.len();
        self.id_to_index.insert(id, index);
        self.bases.push(BaseVar {
            id,
            initial,
            max,
            cost,
        });
        index
    }

    /// Add a result whose confidence function is a lineage formula over
    /// base *ids* previously registered with [`ProblemBuilder::base`],
    /// compiled through a pool the builder owns.
    pub fn result_from_lineage(&mut self, lineage: &Lineage) -> Result<usize> {
        let mut pool = std::mem::take(&mut self.pool);
        let added = self.result_from_lineage_cached(lineage, &mut pool);
        self.pool = pool;
        added
    }

    /// Like [`ProblemBuilder::result_from_lineage`], but compiling through
    /// the caller's [`CircuitCache`]: results whose lineage (or
    /// subformulas thereof) were already compiled for this query reuse the
    /// pooled circuit instead of re-expanding. Budget success/failure and
    /// the compiled circuit's variables and arithmetic do not depend on
    /// what the pool already holds.
    pub fn result_from_lineage_cached(
        &mut self,
        lineage: &Lineage,
        cache: &mut CircuitCache,
    ) -> Result<usize> {
        let id = cache
            .compile(lineage, self.lineage_budget)
            .map_err(|e| CoreError::Lineage(e.to_string()))?;
        let compiled = cache.compiled(id).cloned().ok_or_else(|| {
            CoreError::InvalidProblem("circuit cache returned a dangling handle".to_owned())
        })?;
        let mut bases = Vec::with_capacity(compiled.vars().len());
        for v in compiled.vars() {
            let idx = self.id_to_index.get(&v.0).copied().ok_or_else(|| {
                CoreError::InvalidProblem(format!("lineage references unknown base id {}", v.0))
            })?;
            bases.push(idx);
        }
        self.results.push(ResultSpec {
            bases,
            conf: ConfFn::Compiled(compiled),
        });
        Ok(self.results.len() - 1)
    }

    /// Add a result with a custom (monotone) confidence function over the
    /// given base indexes.
    pub fn result_custom<F>(&mut self, bases: Vec<usize>, f: F) -> usize
    where
        F: Fn(&[f64]) -> f64 + Send + Sync + 'static,
    {
        self.result_with(bases, ConfFn::Custom(Arc::new(f)))
    }

    /// Add a result with an existing confidence function over the given
    /// base indexes (how a derived problem reuses its parent's circuits).
    pub fn result_with(&mut self, bases: Vec<usize>, conf: ConfFn) -> usize {
        self.results.push(ResultSpec { bases, conf });
        self.results.len() - 1
    }

    /// Require at least `n` results to be satisfied.
    pub fn require(mut self, n: usize) -> ProblemBuilder {
        self.required = n;
        self
    }

    /// Finish, validating the problem.
    pub fn build(self) -> Result<ProblemInstance> {
        if !self.beta.is_finite() || !(0.0..=1.0).contains(&self.beta) {
            // The offending β is deliberately not interpolated: typed
            // errors surface to clients (PCQE-F002).
            return Err(CoreError::InvalidProblem(
                "threshold β outside [0, 1] or not finite".to_owned(),
            ));
        }
        if !(self.delta > 0.0 && self.delta <= 1.0) {
            return Err(CoreError::InvalidProblem(format!(
                "granularity δ = {} outside (0, 1]",
                self.delta
            )));
        }
        if self.required > self.results.len() {
            return Err(CoreError::InvalidProblem(format!(
                "{} results required but only {} exist",
                self.required,
                self.results.len()
            )));
        }
        for (i, b) in self.bases.iter().enumerate() {
            if !b.initial.is_finite() || !(0.0..=1.0).contains(&b.initial) {
                // Indexes identify the bad base; the confidence value
                // itself stays out of the message (PCQE-F003).
                return Err(CoreError::InvalidProblem(format!(
                    "base {i} initial confidence outside [0, 1]"
                )));
            }
            if !b.max.is_finite() || b.max < b.initial || b.max > 1.0 {
                return Err(CoreError::InvalidProblem(format!(
                    "base {i} max confidence below initial, above 1, or not finite"
                )));
            }
        }
        for (i, r) in self.results.iter().enumerate() {
            for &b in &r.bases {
                if b >= self.bases.len() {
                    return Err(CoreError::InvalidProblem(format!(
                        "result {i} references base index {b} out of range"
                    )));
                }
            }
        }
        let mut base_to_results = vec![Vec::new(); self.bases.len()];
        for (ri, r) in self.results.iter().enumerate() {
            for &b in &r.bases {
                if !base_to_results[b].contains(&ri) {
                    base_to_results[b].push(ri);
                }
            }
        }
        Ok(ProblemInstance {
            bases: self.bases,
            results: self.results,
            beta: self.beta,
            required: self.required,
            delta: self.delta,
            base_to_results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> CostFn {
        CostFn::linear(10.0).unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        let i0 = b.base(100, 0.1, linear());
        let i1 = b.base(200, 0.2, linear());
        b.result_from_lineage(&Lineage::and(vec![Lineage::var(100), Lineage::var(200)]))
            .unwrap();
        let p = b.require(1).build().unwrap();
        assert_eq!(p.bases.len(), 2);
        assert_eq!(p.results[0].bases, vec![i0, i1]);
        assert_eq!(p.results_of_base(i0), &[0]);
        assert_eq!(p.results_of_base(i1), &[0]);
    }

    #[test]
    fn grid_arithmetic() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        let i = b.base(0, 0.1, linear());
        b.result_custom(vec![i], |p| p[0]);
        let p = b.require(0).build().unwrap();
        assert_eq!(p.max_steps(i), 9);
        assert!((p.level_at(i, 0) - 0.1).abs() < 1e-12);
        assert!((p.level_at(i, 4) - 0.5).abs() < 1e-12);
        assert!((p.level_at(i, 99) - 1.0).abs() < 1e-12, "clamped at max");
        assert!((p.cost_at(i, 2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn min_step_cost_handles_concave_functions() {
        // Logarithmic cost: steps get cheaper at higher confidence, so the
        // minimum step is the last one, not the first.
        let mut b = ProblemBuilder::new(0.5, 0.1);
        let i = b.base(0, 0.1, CostFn::logarithmic(10.0, 20.0).unwrap());
        b.result_custom(vec![i], |p| p[0]);
        let p = b.require(0).build().unwrap();
        let last_step = p.cost_at(i, p.max_steps(i)) - p.cost_at(i, p.max_steps(i) - 1);
        assert!((p.min_step_cost(i) - last_step).abs() < 1e-9);
    }

    #[test]
    fn unknown_lineage_id_rejected() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 0.1, linear());
        assert!(b.result_from_lineage(&Lineage::var(999)).is_err());
    }

    #[test]
    fn validation_catches_bad_inputs() {
        assert!(ProblemBuilder::new(1.5, 0.1).build().is_err());
        assert!(ProblemBuilder::new(0.5, 0.0).build().is_err());
        assert!(ProblemBuilder::new(0.5, 0.1).require(1).build().is_err());
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base(0, 1.5, linear());
        assert!(b.build().is_err());
        let mut b = ProblemBuilder::new(0.5, 0.1);
        b.base_capped(0, 0.5, 0.4, linear());
        assert!(b.build().is_err());
    }

    #[test]
    fn custom_conf_fn_evaluates() {
        let mut b = ProblemBuilder::new(0.5, 0.1);
        let i = b.base(0, 0.3, linear());
        let j = b.base(1, 0.4, linear());
        b.result_custom(vec![i, j], |p| (p[0] + p[1]) / 2.0);
        let p = b.require(1).build().unwrap();
        assert!((p.results[0].conf.eval(&[0.3, 0.4]) - 0.35).abs() < 1e-12);
    }
}
