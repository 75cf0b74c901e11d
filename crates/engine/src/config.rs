//! Engine configuration.

use pcqe_cost::CostFn;
use pcqe_lineage::Evaluator;

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Confidence-increment granularity δ (Table 4 default: 0.1).
    pub delta: f64,
    /// Confidence evaluator used to score query results.
    pub evaluator: Evaluator,
    /// Cost function assumed for base tuples without an explicit one.
    pub default_cost: CostFn,
    /// Shannon budget when compiling lineage into the strategy problem.
    pub lineage_budget: usize,
    /// Worker threads for the engine's one parallel site: the strategy
    /// finder's divide-and-conquer, which solves its groups side by side
    /// once they range over [`pcqe_par::DEFAULT_PARALLEL_THRESHOLD`] grid
    /// points. Plan execution, result scoring and every solver's initial
    /// scoring run on the calling thread. `None` uses every available
    /// core; `Some(1)` reproduces the sequential engine bit-for-bit (any
    /// setting produces identical answers — threads only change speed).
    pub worker_threads: Option<usize>,
}

impl Default for EngineConfig {
    #[expect(clippy::expect_used, reason = "a literal constant is provably valid")]
    fn default() -> Self {
        EngineConfig {
            delta: 0.1,
            evaluator: Evaluator::default(),
            // The constructor rejects only non-finite or negative rates,
            // and `Default::default()` cannot return a `Result`.
            default_cost: CostFn::linear(100.0).expect("constant is valid"),
            lineage_budget: 4096,
            worker_threads: None,
        }
    }
}

impl EngineConfig {
    /// The [`pcqe_par::Parallelism`] policy this configuration encodes.
    pub fn parallelism(&self) -> pcqe_par::Parallelism {
        pcqe_par::Parallelism {
            worker_threads: self.worker_threads,
            ..pcqe_par::Parallelism::default()
        }
    }

    /// This configuration restricted to one worker thread (the sequential
    /// engine of the paper).
    pub fn sequential(mut self) -> Self {
        self.worker_threads = Some(1);
        self
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_4() {
        let c = EngineConfig::default();
        assert_eq!(c.delta, 0.1);
    }
}
