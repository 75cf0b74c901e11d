//! The multi-query extension (end of Section 4) and the advance-time
//! statistics (Section 6): a user issues several queries in a short
//! period; one strategy must satisfy all of them, and past solve times
//! predict how far in advance the next batch should be submitted.
//!
//! Run with `cargo run --example batch_queries`.

use pcqe::core::greedy::GreedyOptions;
use pcqe::core::multi::{solve_greedy, MultiQueryProblem};
use pcqe::core::problem::ProblemBuilder;
use pcqe::cost::CostFn;
use pcqe::lineage::Lineage;
use pcqe::obs::clock::{Clock, SystemClock};
use pcqe::workload::{generate, WorkloadParams};
use std::time::Duration;

/// Advance-time estimation (the future-work sketch in Section 6): "since
/// actually improving data quality may take some time, the user can
/// submit the query in advance … and statistics can be used to let the
/// user know 'how much time' in advance he needs to issue the query."
///
/// Collects `(problem size, solve seconds)` samples from past
/// strategy-finding runs and fits a log–log least-squares line (solver
/// runtimes are polynomial in the data size, so the log–log relationship
/// is near-linear).
#[derive(Default)]
struct RuntimeEstimator {
    /// `(ln size, ln seconds)` samples.
    samples: Vec<(f64, f64)>,
}

/// A fitted power law `seconds ≈ a · size^b`.
struct PowerLawFit {
    a: f64,
    b: f64,
}

impl RuntimeEstimator {
    /// Record one observed run. Sizes below 1 and non-positive durations
    /// are ignored (they carry no information on the log scale).
    fn record(&mut self, size: usize, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        if size >= 1 && secs > 0.0 {
            self.samples.push(((size as f64).ln(), secs.ln()));
        }
    }

    /// Least-squares fit of `ln t = ln a + b · ln n`. Needs ≥ 2 samples
    /// with distinct sizes.
    fn fit(&self) -> Option<PowerLawFit> {
        if self.samples.len() < 2 {
            return None;
        }
        let n = self.samples.len() as f64;
        let sx: f64 = self.samples.iter().map(|s| s.0).sum();
        let sy: f64 = self.samples.iter().map(|s| s.1).sum();
        let sxx: f64 = self.samples.iter().map(|s| s.0 * s.0).sum();
        let sxy: f64 = self.samples.iter().map(|s| s.0 * s.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None; // all sizes identical
        }
        let b = (n * sxy - sx * sy) / denom;
        let ln_a = (sy - b * sx) / n;
        Some(PowerLawFit { a: ln_a.exp(), b })
    }

    /// How far in advance a user should issue a query of the given size:
    /// the predicted solve time inflated by `safety_factor` (at least 1,
    /// never advising less time than predicted).
    fn lead_time(&self, size: usize, safety_factor: f64) -> Option<Duration> {
        let fit = self.fit()?;
        let secs = fit.a * (size.max(1) as f64).powf(fit.b);
        Some(Duration::from_secs_f64(
            (secs * safety_factor.max(1.0)).clamp(0.0, 1e9),
        ))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Two queries sharing base tuples --------------------------------
    // Query 1 (audit, β = 0.5) and query 2 (forecast, β = 0.6) both touch
    // supplier records 10 and 11.
    let mut q1 = ProblemBuilder::new(0.5, 0.1);
    q1.base(10, 0.2, CostFn::linear(100.0)?);
    q1.base(11, 0.15, CostFn::linear(60.0)?);
    q1.base(12, 0.1, CostFn::linear(40.0)?);
    q1.result_from_lineage(&Lineage::or(vec![Lineage::var(10), Lineage::var(12)]))?;
    q1.result_from_lineage(&Lineage::var(11))?;
    let q1 = q1.require(2).build()?;

    let mut q2 = ProblemBuilder::new(0.6, 0.1);
    q2.base(10, 0.2, CostFn::linear(100.0)?);
    q2.base(11, 0.15, CostFn::linear(60.0)?);
    q2.base(20, 0.1, CostFn::linear(30.0)?);
    q2.result_from_lineage(&Lineage::and(vec![Lineage::var(10), Lineage::var(20)]))?;
    q2.result_from_lineage(&Lineage::var(11))?;
    let q2 = q2.require(1).build()?;

    let multi = MultiQueryProblem::merge(&[q1, q2])?;
    println!(
        "merged batch: {} distinct base tuples across {} results in {} queries",
        multi.problem().bases.len(),
        multi.problem().results.len(),
        multi.queries().len()
    );

    let out = solve_greedy(&multi, &GreedyOptions::default())?;
    let increments = out.solution.increments(multi.problem());
    println!(
        "one strategy satisfies every quota: cost {:.1}, {} tuples raised",
        out.solution.cost,
        increments.len()
    );
    for inc in increments {
        println!("  tuple {}: {:.2} -> {:.2}", inc.id, inc.from, inc.to);
    }

    // --- Advance-time estimation ----------------------------------------
    // Record solve times at a few sizes, then predict the lead time for a
    // larger batch (Section 6's future-work sketch).
    let mut estimator = RuntimeEstimator::default();
    for size in [200usize, 400, 800, 1600] {
        let problem = generate(&WorkloadParams::scalability_point(size).with_seed(1))?;
        let started = SystemClock.monotonic();
        let _ = pcqe::core::greedy::solve(&problem, &GreedyOptions::default())?;
        estimator.record(size, SystemClock.monotonic().saturating_sub(started));
    }
    let fit = estimator.fit().expect("four samples fit a line");
    println!(
        "\nruntime model: seconds ≈ {:.2e} · size^{:.2}",
        fit.a, fit.b
    );
    let lead = estimator
        .lead_time(10_000, 2.0)
        .expect("prediction available");
    println!(
        "a 10K-tuple improvement should be requested ≈ {:.1?} in advance (2x safety)",
        lead
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    #[test]
    fn fits_exact_power_law() {
        // t = 0.001 · n^2
        let mut e = RuntimeEstimator::default();
        for n in [10usize, 100, 1000] {
            e.record(n, secs(0.001 * (n as f64).powi(2)));
        }
        let fit = e.fit().unwrap();
        assert!((fit.b - 2.0).abs() < 1e-9, "exponent {}", fit.b);
        assert!((fit.a - 0.001).abs() < 1e-9, "multiplier {}", fit.a);
        // 0.001 · (10⁴)² = 10⁵ seconds.
        let p = e.lead_time(10_000, 1.0).unwrap();
        assert!((p.as_secs_f64() - 1e5).abs() < 1e-3);
    }

    #[test]
    fn fits_linear_runtimes() {
        let mut e = RuntimeEstimator::default();
        for n in [100usize, 1000, 10_000] {
            e.record(n, secs(n as f64 * 1e-4));
        }
        let fit = e.fit().unwrap();
        assert!((fit.b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn needs_two_distinct_sizes() {
        let mut e = RuntimeEstimator::default();
        assert!(e.fit().is_none());
        e.record(100, secs(1.0));
        assert!(e.fit().is_none());
        e.record(100, secs(1.1));
        assert!(e.fit().is_none(), "identical sizes cannot fix a slope");
        e.record(200, secs(2.0));
        assert!(e.fit().is_some());
    }

    #[test]
    fn ignores_degenerate_samples() {
        let mut e = RuntimeEstimator::default();
        e.record(0, secs(1.0));
        e.record(10, secs(0.0));
        assert!(e.samples.is_empty());
    }

    #[test]
    fn lead_time_applies_safety_factor() {
        let mut e = RuntimeEstimator::default();
        e.record(10, secs(1.0));
        e.record(100, secs(10.0));
        let plain = e.lead_time(1000, 1.0).unwrap().as_secs_f64();
        let padded = e.lead_time(1000, 2.0).unwrap().as_secs_f64();
        assert!((padded - 2.0 * plain).abs() < 1e-9);
        // Factors below 1 are clamped up to 1 (never advise less time
        // than predicted).
        let clamped = e.lead_time(1000, 0.5).unwrap().as_secs_f64();
        assert!((clamped - plain).abs() < 1e-9);
    }
}
