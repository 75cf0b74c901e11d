//! Figure runners.

use pcqe_core::dnc::{self, DncOptions};
use pcqe_core::greedy::{self, GreedyOptions};
use pcqe_core::heuristic::{self, Heuristic, HeuristicOptions};
use pcqe_core::problem::ProblemInstance;
use pcqe_workload::{generate, WorkloadParams};
use std::time::Instant;

/// One bar of Figure 11(a)/(d): a pruning configuration, its response
/// time, solution cost and node count.
#[derive(Debug, Clone)]
pub struct Fig11aRow {
    /// Configuration label (Naive, H1…H4, All).
    pub config: String,
    /// Whether the greedy solution seeded the upper bound (Figure 11(d)).
    pub greedy_bound: bool,
    /// Response time in seconds.
    pub seconds: f64,
    /// Minimum cost found (identical across configs — all are exact).
    pub cost: f64,
    /// Search nodes visited.
    pub nodes: u64,
}

/// Run Figure 11(a) (no greedy bound) or 11(d) (greedy bound): the
/// heuristic algorithm under each pruning configuration on the 10-tuple
/// micro-workload.
pub fn run_fig11a(greedy_bound: bool, seed: u64) -> Vec<Fig11aRow> {
    let params = WorkloadParams::fig11a().with_seed(seed);
    let problem = generate(&params).expect("fig11a workload is valid");
    run_fig11a_on(&problem, greedy_bound)
}

/// [`run_fig11a`] on a caller-supplied problem (the unit tests' smaller
/// instance).
pub fn run_fig11a_on(problem: &ProblemInstance, greedy_bound: bool) -> Vec<Fig11aRow> {
    let seed_solution = greedy_bound.then(|| {
        greedy::solve(problem, &GreedyOptions::default())
            .expect("fig11a workload is feasible")
            .solution
    });
    let configs: Vec<(String, HeuristicOptions)> = vec![
        ("Naive".into(), HeuristicOptions::naive()),
        ("H1".into(), HeuristicOptions::only(Heuristic::H1Ordering)),
        ("H2".into(), HeuristicOptions::only(Heuristic::H2SiblingPrune)),
        ("H3".into(), HeuristicOptions::only(Heuristic::H3OptimisticPrune)),
        ("H4".into(), HeuristicOptions::only(Heuristic::H4CostBound)),
        ("All".into(), HeuristicOptions::all()),
    ];
    configs
        .into_iter()
        .map(|(label, mut opts)| {
            opts.seed = seed_solution.clone();
            let start = Instant::now();
            let out = heuristic::solve(problem, &opts).expect("feasible");
            let seconds = start.elapsed().as_secs_f64();
            Fig11aRow {
                config: label,
                greedy_bound,
                seconds,
                cost: out.solution.cost,
                nodes: out.stats.nodes,
            }
        })
        .collect()
}

/// One point of Figure 11(b)/(e): the one- and two-phase greedy variants
/// at a given data size.
#[derive(Debug, Clone)]
pub struct Fig11beRow {
    /// Data size (number of base tuples).
    pub data_size: usize,
    /// One-phase response time (s) and cost.
    pub one_phase_seconds: f64,
    /// One-phase solution cost.
    pub one_phase_cost: f64,
    /// Two-phase response time (s) and cost.
    pub two_phase_seconds: f64,
    /// Two-phase solution cost.
    pub two_phase_cost: f64,
}

/// Run Figure 11(b) (response time) and 11(e) (cost) in one sweep.
pub fn run_fig11be(sizes: &[usize], seed: u64) -> Vec<Fig11beRow> {
    sizes
        .iter()
        .map(|&data_size| {
            let params = WorkloadParams {
                data_size,
                ..WorkloadParams::default()
            }
            .with_seed(seed);
            let problem = generate(&params).expect("workload is valid");
            let (one_secs, one) =
                timed(|| greedy::solve(&problem, &GreedyOptions::one_phase()).expect("feasible"));
            let (two_secs, two) =
                timed(|| greedy::solve(&problem, &GreedyOptions::default()).expect("feasible"));
            Fig11beRow {
                data_size,
                one_phase_seconds: one_secs,
                one_phase_cost: one.solution.cost,
                two_phase_seconds: two_secs,
                two_phase_cost: two.solution.cost,
            }
        })
        .collect()
}

/// One point of Figure 11(c)/(f): one algorithm at one data size.
#[derive(Debug, Clone)]
pub struct Fig11cfRow {
    /// Data size (number of base tuples).
    pub data_size: usize,
    /// Algorithm label (Heuristic, Greedy, Divide-and-Conquer).
    pub algorithm: String,
    /// Response time in seconds; `None` when the algorithm was skipped at
    /// this size (heuristic beyond its tractable range).
    pub seconds: Option<f64>,
    /// Solution cost.
    pub cost: Option<f64>,
}

/// Run the Figure 11(c)/(f) scalability sweep: response time and minimum
/// cost for all three algorithms across data sizes. The heuristic runs
/// only up to `heuristic_max` base tuples (the paper, too, ran it only on
/// "very small datasets (less than one hundred)"), greedy-seeded and cut
/// at 50 M search nodes, so its row is the same on any machine.
pub fn run_fig11cf(sizes: &[usize], heuristic_max: usize, seed: u64) -> Vec<Fig11cfRow> {
    let mut rows = Vec::new();
    for &data_size in sizes {
        let params = WorkloadParams::scalability_point(data_size).with_seed(seed);
        let problem = generate(&params).expect("workload is valid");

        if data_size <= heuristic_max {
            let seed_sol = greedy::solve(&problem, &GreedyOptions::default())
                .expect("feasible")
                .solution;
            let opts = HeuristicOptions {
                node_limit: Some(50_000_000),
                ..HeuristicOptions::all().with_seed(seed_sol)
            };
            let (secs, out) = timed(|| heuristic::solve(&problem, &opts).expect("feasible"));
            rows.push(Fig11cfRow {
                data_size,
                algorithm: "Heuristic".into(),
                seconds: Some(secs),
                cost: Some(out.solution.cost),
            });
        } else {
            rows.push(Fig11cfRow {
                data_size,
                algorithm: "Heuristic".into(),
                seconds: None,
                cost: None,
            });
        }

        let (g_secs, g) =
            timed(|| greedy::solve(&problem, &GreedyOptions::default()).expect("feasible"));
        rows.push(Fig11cfRow {
            data_size,
            algorithm: "Greedy".into(),
            seconds: Some(g_secs),
            cost: Some(g.solution.cost),
        });

        let (d_secs, d) = timed(|| dnc::solve(&problem, &DncOptions::default()).expect("feasible"));
        rows.push(Fig11cfRow {
            data_size,
            algorithm: "Divide-and-Conquer".into(),
            seconds: Some(d_secs),
            cost: Some(d.solution.cost),
        });
    }
    rows
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11d_all_configs_agree_on_cost() {
        // A scaled-down fig11a instance (7 bases) keeps the Naive config
        // fast in debug builds; the full 10-tuple sweep is the `figures`
        // binary's job.
        let params = pcqe_workload::WorkloadParams {
            data_size: 7,
            bases_per_result: 4,
            num_results: Some(4),
            cluster_size: Some(7),
            cross_cluster_prob: 0.0,
            ..pcqe_workload::WorkloadParams::default()
        }
        .with_seed(7);
        let problem = generate(&params).expect("valid workload");
        let rows = run_fig11a_on(&problem, true);
        assert_eq!(rows.len(), 6);
        let reference = rows[0].cost;
        for r in &rows {
            assert!(
                (r.cost - reference).abs() < 1e-6,
                "{} found {} vs {}",
                r.config,
                r.cost,
                reference
            );
        }
        // All-heuristics must search no more nodes than Naive.
        let naive = rows.iter().find(|r| r.config == "Naive").unwrap();
        let all = rows.iter().find(|r| r.config == "All").unwrap();
        assert!(all.nodes <= naive.nodes);
    }

    #[test]
    fn fig11be_two_phase_cheaper_or_equal() {
        let rows = run_fig11be(&[300, 600], 11);
        for r in &rows {
            assert!(r.two_phase_cost <= r.one_phase_cost + 1e-6);
            assert!(r.one_phase_cost > 0.0);
        }
    }

    #[test]
    fn fig11cf_small_sweep_runs_all_algorithms() {
        let rows = run_fig11cf(&[10, 300], 50, 13);
        // size 10: all three; size 300: heuristic skipped.
        let h300 = rows
            .iter()
            .find(|r| r.data_size == 300 && r.algorithm == "Heuristic")
            .unwrap();
        assert!(h300.seconds.is_none());
        let h10 = rows
            .iter()
            .find(|r| r.data_size == 10 && r.algorithm == "Heuristic")
            .unwrap();
        let g10 = rows
            .iter()
            .find(|r| r.data_size == 10 && r.algorithm == "Greedy")
            .unwrap();
        // The heuristic is exact: never costlier than greedy.
        assert!(h10.cost.unwrap() <= g10.cost.unwrap() + 1e-6);
    }
}
