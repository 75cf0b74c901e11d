//! Ablation benches for the design choices called out in DESIGN.md:
//! the D&C partition threshold γ, the per-group branch-and-bound cutoff τ,
//! and the greedy gain definition (Useful vs Raw).

use pcqe_bench::timing::{bench, group};
use pcqe_core::dnc::{self, DncOptions};
use pcqe_core::greedy::{self, GainMode, GreedyOptions};
use pcqe_core::multi::solve_greedy;
use pcqe_workload::{generate, generate_batch, WorkloadParams};

fn bench_gamma() {
    let problem = generate(&WorkloadParams::scalability_point(2_000).with_seed(42)).expect("valid");
    group("ablation_gamma");
    for gamma in [0.0f64, 1.0, 2.0, 4.0] {
        let opts = DncOptions {
            gamma,
            ..DncOptions::default()
        };
        bench(&format!("gamma/{gamma}"), 10, || {
            dnc::solve(&problem, &opts).expect("feasible")
        });
    }
}

fn bench_tau() {
    let problem = generate(&WorkloadParams::scalability_point(1_000).with_seed(42)).expect("valid");
    group("ablation_tau");
    for tau in [0usize, 8, 12] {
        let opts = DncOptions {
            tau,
            bb_node_budget: 20_000,
            ..DncOptions::default()
        };
        bench(&format!("tau/{tau}"), 10, || {
            dnc::solve(&problem, &opts).expect("feasible")
        });
    }
}

fn bench_gain_mode() {
    let problem = generate(&WorkloadParams::scalability_point(1_000).with_seed(42)).expect("valid");
    group("ablation_gain_mode");
    for (label, gain) in [("useful", GainMode::Useful), ("raw", GainMode::Raw)] {
        let opts = GreedyOptions {
            gain,
            ..GreedyOptions::default()
        };
        bench(&format!("gain/{label}"), 10, || {
            greedy::solve(&problem, &opts).expect("feasible")
        });
    }
}

fn bench_multi_query() {
    group("multi_query_batches");
    for n_queries in [1usize, 2, 4] {
        let params = WorkloadParams {
            data_size: 400,
            ..WorkloadParams::default()
        }
        .with_seed(42);
        let multi = generate_batch(&params, n_queries).expect("valid batch");
        bench(&format!("queries/{n_queries}"), 10, || {
            solve_greedy(&multi, &GreedyOptions::default()).expect("feasible")
        });
    }
}

fn main() {
    bench_gamma();
    bench_tau();
    bench_gain_mode();
    bench_multi_query();
}
