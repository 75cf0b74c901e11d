//! Timing sweep for Figure 11(a)/(d): the heuristic branch-and-bound
//! under each pruning configuration, with and without the greedy seed.

use pcqe_bench::timing::{bench, group};
use pcqe_core::greedy::{self, GreedyOptions};
use pcqe_core::heuristic::{self, Heuristic, HeuristicOptions};
use pcqe_workload::{generate, WorkloadParams};

fn main() {
    let problem = generate(&WorkloadParams::fig11a().with_seed(42)).expect("valid workload");
    let greedy_seed = greedy::solve(&problem, &GreedyOptions::default())
        .expect("feasible")
        .solution;

    let configs: Vec<(&str, HeuristicOptions)> = vec![
        ("naive", HeuristicOptions::naive()),
        ("h1", HeuristicOptions::only(Heuristic::H1Ordering)),
        ("h2", HeuristicOptions::only(Heuristic::H2SiblingPrune)),
        ("h3", HeuristicOptions::only(Heuristic::H3OptimisticPrune)),
        ("h4", HeuristicOptions::only(Heuristic::H4CostBound)),
        ("all", HeuristicOptions::all()),
    ];

    group("fig11a_heuristics");
    for (label, opts) in &configs {
        bench(&format!("no_bound/{label}"), 10, || {
            heuristic::solve(&problem, opts).expect("feasible")
        });
        let seeded = HeuristicOptions {
            seed: Some(greedy_seed.clone()),
            ..opts.clone()
        };
        bench(&format!("greedy_bound/{label}"), 10, || {
            heuristic::solve(&problem, &seeded).expect("feasible")
        });
    }
}
