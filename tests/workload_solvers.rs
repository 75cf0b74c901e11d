//! Solver checks on realistic generated workloads, plus an independent
//! brute-force optimality oracle for tiny instances.

mod common;

use common::for_each_case;
use common::solution_check::check_solution;
use pcqe::core::dnc::{self, DncOptions};
use pcqe::core::greedy::{self, GreedyOptions};
use pcqe::core::heuristic::{self, HeuristicOptions};
use pcqe::core::problem::{ProblemBuilder, ProblemInstance};
use pcqe::cost::CostFn;
use pcqe::lineage::{Lineage, Rng64};
use pcqe::workload::{generate, WorkloadParams};

/// Brute force: enumerate *every* grid assignment and return the cheapest
/// cost meeting the quota. Exponential — tiny instances only.
fn brute_force_optimum(problem: &ProblemInstance) -> Option<f64> {
    let k = problem.bases.len();
    let steps: Vec<u32> = problem
        .bases
        .iter()
        .map(|b| b.max_steps(problem.delta))
        .collect();
    let mut assignment = vec![0u32; k];
    let mut best: Option<f64> = None;
    loop {
        // Evaluate this assignment.
        let levels: Vec<f64> = (problem.bases.iter().zip(&assignment))
            .map(|(b, &s)| b.level_at(problem.delta, s))
            .collect();
        let mut satisfied = 0;
        for r in &problem.results {
            let probs: Vec<f64> = r.bases.iter().map(|&b| levels[b]).collect();
            if r.conf.eval(&probs) > problem.beta {
                satisfied += 1;
            }
        }
        if satisfied >= problem.required {
            let cost: f64 = (problem.bases.iter().zip(&assignment))
                .map(|(b, &s)| b.cost_at(problem.delta, s))
                .sum();
            if best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
        // Odometer increment.
        let mut d = 0;
        loop {
            if d == k {
                return best;
            }
            if assignment[d] < steps[d] {
                assignment[d] += 1;
                break;
            }
            assignment[d] = 0;
            d += 1;
        }
    }
}

/// Tiny random instances with a coarse grid (δ = 0.25 keeps the
/// brute-force space around 4^k).
fn tiny_instance(rng: &mut Rng64) -> ProblemInstance {
    let k = 2 + rng.below_u64(3);
    let required = rng.range_usize(1, 3);
    let mut b = ProblemBuilder::new(0.5, 0.25);
    for i in 0..k {
        b.base(
            i,
            rng.range_f64(0.0, 0.4),
            CostFn::linear(rng.range_f64(1.0, 50.0)).expect("positive"),
        );
    }
    let vars: Vec<Lineage> = (0..k).map(Lineage::var).collect();
    for _ in 0..2 {
        let l = match rng.below_usize(3) {
            0 => Lineage::or(vars.clone()),
            1 => Lineage::and(vars[..2.min(vars.len())].to_vec()),
            _ => Lineage::or(vec![vars[0].clone(), Lineage::and(vars[1..].to_vec())]),
        };
        b.result_from_lineage(&l).expect("registered vars");
    }
    b.require(required.min(2)).build().expect("valid")
}

#[test]
fn branch_and_bound_matches_brute_force() {
    for_each_case(32, 0x3011_0001, |rng| {
        let problem = tiny_instance(rng);
        let brute = brute_force_optimum(&problem);
        match heuristic::solve(&problem, &HeuristicOptions::all()) {
            Ok(out) => {
                let brute = brute.expect("solver found a solution, oracle must too");
                assert!(
                    (out.solution.cost - brute).abs() < 1e-6,
                    "B&B {} vs brute force {}",
                    out.solution.cost,
                    brute
                );
            }
            Err(pcqe::core::CoreError::Infeasible { .. }) => {
                assert!(
                    brute.is_none(),
                    "oracle found {brute:?} but solver said infeasible"
                );
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    });
}

#[test]
fn all_solvers_handle_generated_workloads() {
    let sized = |seed| {
        WorkloadParams {
            data_size: 300,
            ..WorkloadParams::default()
        }
        .with_seed(seed)
    };
    // The Figure 11(a) preset too: the tiny instance the figure solves.
    for params in [sized(1), sized(7), sized(42), WorkloadParams::fig11a()] {
        let problem = generate(&params).unwrap();
        let g = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        check_solution(&g.solution, &problem).unwrap();
        let d = dnc::solve(&problem, &DncOptions::default()).unwrap();
        check_solution(&d.solution, &problem).unwrap();
        // Quotas met exactly or above, never below.
        assert!(g.solution.satisfied.len() >= problem.required);
        assert!(d.solution.satisfied.len() >= problem.required);
    }
}

#[test]
fn two_phase_saves_cost_on_generated_workloads() {
    // The Figure 11(e) effect must be visible on a small workload too.
    let problem = generate(
        &WorkloadParams {
            data_size: 500,
            ..WorkloadParams::default()
        }
        .with_seed(5),
    )
    .unwrap();
    let one = greedy::solve(&problem, &GreedyOptions::one_phase()).unwrap();
    let two = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
    assert!(
        two.solution.cost < one.solution.cost,
        "phase 2 saved nothing: {} vs {}",
        two.solution.cost,
        one.solution.cost
    );
}
