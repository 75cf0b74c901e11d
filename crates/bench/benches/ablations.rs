//! Ablation bench beyond the paper: the greedy solving a batch of queries
//! jointly (the multiple-query remark at the end of Section 4) at one,
//! two and four queries.

use pcqe_bench::timing::{bench, group};
use pcqe_core::greedy::GreedyOptions;
use pcqe_core::multi::solve_greedy;
use pcqe_workload::{generate_batch, WorkloadParams};

fn main() {
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
