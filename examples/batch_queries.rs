//! The multi-query extension (end of Section 4) and the advance-time
//! statistics (Section 6): a user issues several queries in a short
//! period; one strategy must satisfy all of them, and past solve times
//! predict how far in advance the next batch should be submitted.
//!
//! Run with `cargo run --example batch_queries`.

use pcqe::core::clock::Stopwatch;
use pcqe::core::estimator::RuntimeEstimator;
use pcqe::core::greedy::GreedyOptions;
use pcqe::core::multi::{solve_greedy, MultiQueryProblem};
use pcqe::core::problem::ProblemBuilder;
use pcqe::cost::CostFn;
use pcqe::lineage::Lineage;
use pcqe::workload::{generate, WorkloadParams};

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
    let mut estimator = RuntimeEstimator::new();
    for size in [200usize, 400, 800, 1600] {
        let problem = generate(&WorkloadParams::scalability_point(size).with_seed(1))?;
        let watch = Stopwatch::start();
        let _ = pcqe::core::greedy::solve(&problem, &GreedyOptions::default())?;
        estimator.record(size, watch.elapsed());
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
