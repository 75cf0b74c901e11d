//! End-to-end determinism of the parallel engine: the SAME database
//! queried with one worker thread and with eight must produce
//! byte-identical answers — released rows, withheld counts, confidence
//! bits, and improvement proposals. Threads may only change speed, never
//! results. The same holds one layer down for divide-and-conquer, whose
//! groups are solved side by side.

mod common;

use common::solution_check::check_solution;
use common::DbSpec;
use pcqe::core::dnc::{self, DncOptions};
use pcqe::core::greedy::GreedyOptions;
use pcqe::core::problem::{ProblemBuilder, ProblemInstance};
use pcqe::core::CoreError;
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::{Lineage, Rng64};
use pcqe::par::Parallelism;
use pcqe::storage::{DataType, Value};

/// Populate a database identically regardless of configuration: 10,000
/// rows whose values and confidences come from a fixed seeded stream.
fn populated(config: EngineConfig, rows: usize) -> Database {
    let mut rng = Rng64::seed_from_u64(20_240_806);
    let readings: Vec<(f64, Vec<Value>)> = (0..rows)
        .map(|_| {
            let (sensor, value) = (rng.below_u64(64) as i64, rng.below_u64(1000) as i64);
            (
                rng.range_f64(0.05, 0.99),
                vec![Value::Int(sensor), Value::Int(value)],
            )
        })
        .collect();
    let sensors: Vec<_> = (0..64)
        .map(|id| (rng.range_f64(0.5, 0.99), vec![Value::Int(id)]))
        .collect();
    let int = DataType::Int;
    let spec = DbSpec::default()
        .table("readings", &[("sensor", int), ("value", int)])
        .rows(readings)
        .table("sensors", &[("id", int)])
        .rows(sensors);
    let mut db = spec.database(config, false);
    db.add_policy(pcqe::policy::ConfidencePolicy::new("analyst", "report", 0.55).unwrap());
    db
}

/// The default engine at the given worker count.
fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        worker_threads: Some(workers),
        ..EngineConfig::default()
    }
}

/// Render a response into a canonical, bit-exact transcript.
fn transcript(resp: &pcqe::engine::QueryResponse) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "released {} withheld {}",
        resp.released.len(),
        resp.withheld
    );
    for r in &resp.released {
        let _ = writeln!(
            s,
            "{} | {} | {:016x}",
            r.tuple,
            r.lineage,
            r.confidence.to_bits()
        );
    }
    if let Some(p) = &resp.proposal {
        let _ = writeln!(s, "proposal cost {:016x}", p.cost.to_bits());
        for inc in &p.increments {
            let _ = writeln!(
                s,
                "raise {} {:016x} -> {:016x} ({:016x})",
                inc.tuple_id,
                inc.from.to_bits(),
                inc.to.to_bits(),
                inc.cost.to_bits()
            );
        }
    }
    s
}

#[test]
fn ten_thousand_rows_identical_across_thread_counts() {
    // DISTINCT over a 10k-row table merges duplicate sensor ids into OR
    // lineage; the join multiplies in a second confidence source.
    let sql = "SELECT DISTINCT r.sensor FROM readings r JOIN sensors s \
               ON r.sensor = s.id WHERE r.value < 800";
    let user = User::new("ana", "analyst");
    // Expect a modest fraction so the run stops at policy evaluation
    // (the solver path is exercised separately below).
    let request = QueryRequest::new(sql, "report").expecting(0.2);

    let mut sequential = populated(config(1), 10_000);
    let reference = sequential.query(&user, &request).unwrap();
    assert!(
        !reference.released.is_empty(),
        "workload must release something for the comparison to be meaningful"
    );

    for workers in [2usize, 8] {
        let mut parallel = populated(config(workers), 10_000);
        let got = parallel.query(&user, &request).unwrap();
        assert_eq!(
            transcript(&reference),
            transcript(&got),
            "{workers}-worker run diverged from sequential"
        );
    }
}

#[test]
fn improvement_proposals_identical_across_thread_counts() {
    // A smaller instance where some results are withheld and the full
    // strategy-finding path (the solver's parallel initial scoring
    // included) runs.
    let sql = "SELECT DISTINCT r.sensor FROM readings r JOIN sensors s \
               ON r.sensor = s.id WHERE r.value < 500";
    let user = User::new("ana", "analyst");
    let request = QueryRequest::new(sql, "report");

    let mut sequential = populated(config(1), 600);
    let reference = sequential.query(&user, &request).unwrap();
    assert!(reference.withheld > 0, "some results must be withheld");

    for workers in [2usize, 8] {
        let mut parallel = populated(config(workers), 600);
        let got = parallel.query(&user, &request).unwrap();
        assert_eq!(
            transcript(&reference),
            transcript(&got),
            "{workers}-worker proposal diverged from sequential"
        );
        assert_eq!(reference.proposal.is_some(), got.proposal.is_some());
    }
}

#[test]
fn sequential_config_helper_pins_one_worker() {
    let c = EngineConfig::default().sequential();
    assert_eq!(c.worker_threads, Some(1));
}

/// Vectorized execution is a pure performance decision: at one worker
/// and at eight, the engine releases exactly what the reference pipeline
/// (the tuple-at-a-time reference executor, the reference interpreter)
/// releases, and audits the same counts.
#[test]
fn vectorized_engine_matches_the_tuple_at_a_time_reference() {
    let sql = "SELECT DISTINCT r.sensor FROM readings r JOIN sensors s \
               ON r.sensor = s.id WHERE r.value < 500";
    let user = User::new("ana", "analyst");
    let request = QueryRequest::new(sql, "report");
    let policy = pcqe::policy::ConfidencePolicy::new("analyst", "report", 0.55).unwrap();

    for workers in [1usize, 8] {
        let mut db = populated(config(workers), 600);
        let expected = common::reference(sql, db.catalog(), &policy);
        assert!(expected.withheld > 0, "some results must be withheld");
        let got = db.query(&user, &request).unwrap();
        common::assert_matches_reference(&got, &expected, &policy, &format!("{workers} workers"));
        assert_eq!(
            common::audited_counts(&db),
            vec![(expected.released.len(), expected.withheld)],
            "audit log diverged from the reference at {workers} workers"
        );
    }
}

/// Work that runs on the calling thread reports no scheduler telemetry:
/// what a query leaves in the recorder depends on the data alone, so its
/// comparable metrics at 2 and 4 workers are the 1-worker ones line for
/// line, and none names a `par.` metric. Plan execution and scoring run on
/// the calling thread, and the dispatcher's one caller, D&C, reports
/// nothing.
///
/// With an index on `sensors.id` the hash join becomes an index join: the
/// plan has one operator fewer.
#[test]
fn scheduler_structure_is_pinned_per_worker_count() {
    let distinct = "SELECT DISTINCT r.sensor FROM readings r JOIN sensors s \
                    ON r.sensor = s.id WHERE r.value < 800";
    let hash_join = "SELECT r.sensor, r.value FROM readings r JOIN sensors s \
                     ON r.sensor = s.id WHERE r.value < 100";
    // (query, sensors.id indexed, exec.operators)
    let pinned: [(&str, bool, u64); 3] = [
        (distinct, false, 4),
        (hash_join, false, 4),
        (hash_join, true, 3),
    ];
    let user = User::new("ana", "analyst");
    for (sql, indexed, operators) in pinned {
        let metrics = |workers: usize| {
            let mut db = populated(config(workers), 10_000);
            if indexed {
                db.create_index("sensors", "id").unwrap();
            }
            db.query(&user, &QueryRequest::new(sql, "report").expecting(0.2))
                .unwrap();
            common::comparable_metrics(&db.metrics_snapshot())
        };
        let one = metrics(1);
        let ops = format!("counter exec.operators = {operators}");
        assert!(one.contains(&ops), "indexed={indexed}: {sql}\n{one:#?}");
        let par = one.iter().find(|line| {
            line.split(' ')
                .nth(1)
                .is_some_and(|n| n.starts_with("par."))
        });
        assert_eq!(par, None, "indexed={indexed}: {sql}");
        for workers in [2, 4] {
            assert_eq!(
                metrics(workers),
                one,
                "{workers} workers against 1, indexed={indexed}: {sql}"
            );
        }
    }
    // The index join: one operator fewer.
    let (without, with) = (pinned[1], pinned[2]);
    assert_eq!(without.0, with.0);
    assert_eq!(with.2 + 1, without.2);
}

/// Worker counts every D&C comparison runs at; `None` is the host's.
const WORKERS: [Option<usize>; 4] = [Some(1), Some(2), Some(4), None];

/// D&C options whose groups fan out even on a small instance.
fn dnc_options(worker_threads: Option<usize>, greedy: GreedyOptions) -> DncOptions {
    DncOptions {
        greedy: GreedyOptions {
            parallelism: Parallelism {
                worker_threads,
                parallel_threshold: 1,
            },
            ..greedy
        },
    }
}

/// 72 results in 36 clusters of two. The results of a cluster share two
/// base tuples (weight 2 > γ, so they merge); neighbouring clusters share
/// one (weight 1, so they stay apart and the combination has to take the
/// per-base maximum across groups).
fn overlapping_instance() -> ProblemInstance {
    let clusters = 36u64;
    let mut b = ProblemBuilder::new(0.5, 0.1);
    for i in 0..=4 * clusters {
        b.base(
            i,
            0.05 + 0.01 * (i % 23) as f64,
            CostFn::linear(10.0 + 7.0 * (i % 11) as f64).unwrap(),
        );
    }
    for c in 0..clusters {
        let o = 4 * c;
        b.result_from_lineage(&Lineage::or(vec![
            Lineage::var(o),
            Lineage::and(vec![Lineage::var(o + 1), Lineage::var(o + 2)]),
        ]))
        .unwrap();
        b.result_from_lineage(&Lineage::or(vec![
            Lineage::and(vec![Lineage::var(o + 1), Lineage::var(o + 3)]),
            Lineage::and(vec![Lineage::var(o + 2), Lineage::var(o + 4)]),
        ]))
        .unwrap();
    }
    b.require(50).build().unwrap()
}

#[test]
fn dnc_groups_solved_side_by_side_match_the_sequential_solve() {
    let problem = overlapping_instance();
    let reference = dnc::solve(&problem, &dnc_options(Some(1), GreedyOptions::default())).unwrap();
    check_solution(&reference.solution, &problem).unwrap();
    assert_eq!(reference.stats.groups, 36, "one group per cluster");
    assert_eq!(reference.stats.bb_groups, 36, "every group is below τ");
    for workers in WORKERS {
        let got = dnc::solve(&problem, &dnc_options(workers, GreedyOptions::default())).unwrap();
        let bits = |levels: &[f64]| levels.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&reference.solution.levels),
            bits(&got.solution.levels),
            "levels at {workers:?} workers"
        );
        assert_eq!(
            reference.solution.cost.to_bits(),
            got.solution.cost.to_bits()
        );
        assert_eq!(reference.solution.satisfied, got.solution.satisfied);
        let counters = |s: &dnc::DncStats| {
            (
                (s.groups, s.largest_group_bases, s.bb_groups, s.bb_nodes),
                (s.greedy.iterations, s.greedy.reductions, s.greedy.evals),
                s.refinement_reductions,
            )
        };
        assert_eq!(
            counters(&reference.stats),
            counters(&got.stats),
            "statistics at {workers:?} workers"
        );
    }
}

/// Groups cannot be infeasible — each one's quota is capped by what it can
/// reach — so the error a group can raise is the greedy iteration cap.
/// Five singleton groups; only the middle one, starting on a zero-gain
/// plateau, needs more steps than the cap allows.
#[test]
fn a_group_that_gives_up_fails_the_same_way_at_any_worker_count() {
    let mut b = ProblemBuilder::new(0.5, 0.1);
    for j in 0..5u64 {
        let initial = if j == 2 { 0.0 } else { 0.6 };
        b.base(2 * j, initial, CostFn::linear(10.0).unwrap());
        b.base(2 * j + 1, initial, CostFn::linear(20.0).unwrap());
        b.result_from_lineage(&Lineage::and(vec![
            Lineage::var(2 * j),
            Lineage::var(2 * j + 1),
        ]))
        .unwrap();
    }
    let problem = b.require(5).build().unwrap();
    let capped = GreedyOptions {
        max_iterations: 8,
        ..GreedyOptions::default()
    };
    let reference = dnc::solve(&problem, &dnc_options(Some(1), capped.clone())).unwrap_err();
    assert!(matches!(reference, CoreError::GaveUp(_)), "{reference}");
    for workers in WORKERS {
        let got = dnc::solve(&problem, &dnc_options(workers, capped.clone())).unwrap_err();
        assert_eq!(reference, got, "error at {workers:?} workers");
    }
    // Without the cap the same instance solves: the error was the group's.
    dnc::solve(&problem, &dnc_options(None, GreedyOptions::default())).unwrap();
}

/// 72 withheld `DISTINCT` results, each an OR of three claim ∧ evidence
/// pairs; neighbouring groups share one evidence tuple. More than 64
/// results, so the engine's size rule picks divide-and-conquer, and its
/// groups range over 4 227 grid points, past the
/// [`pcqe::par::DEFAULT_PARALLEL_THRESHOLD`] of 1 024 at which D&C spawns
/// them.
fn claims_database(config: EngineConfig) -> Database {
    let mut rng = Rng64::seed_from_u64(20_260_930);
    let groups = 72i64;
    let claims: Vec<_> = (0..groups)
        .flat_map(|g| (2 * g..=2 * g + 2).map(move |k| (g, k)))
        .map(|(g, k)| (rng.range_f64(0.05, 0.3), vec![Value::Int(g), Value::Int(k)]))
        .collect();
    let evidence: Vec<_> = (0..=2 * groups)
        .map(|k| (rng.range_f64(0.05, 0.3), vec![Value::Int(k)]))
        .collect();
    let int = DataType::Int;
    let spec = DbSpec::default()
        .table("claims", &[("grp", int), ("k", int)])
        .rows(claims)
        .table("evidence", &[("k", int)])
        .rows(evidence);
    let mut db = spec.database(config, false);
    db.add_policy(pcqe::policy::ConfidencePolicy::new("analyst", "report", 0.6).unwrap());
    db
}

#[test]
fn dnc_proposals_identical_across_thread_counts() {
    let sql = "SELECT DISTINCT c.grp FROM claims c JOIN evidence e ON c.k = e.k";
    let user = User::new("ana", "analyst");
    let request = QueryRequest::new(sql, "report").expecting(0.5);
    let at = |worker_threads| EngineConfig {
        worker_threads,
        ..config(1)
    };

    let mut sequential = claims_database(at(Some(1)));
    let reference = sequential.query(&user, &request).unwrap();
    assert_eq!(reference.withheld, 72);
    assert!(reference.proposal.is_some(), "a strategy must be found");
    assert_eq!(
        sequential
            .metrics_snapshot()
            .counter("solver.dnc.bb_groups"),
        72,
        "the solve must have gone through divide-and-conquer"
    );

    for workers in WORKERS {
        let mut parallel = claims_database(at(workers));
        let got = parallel.query(&user, &request).unwrap();
        assert_eq!(
            transcript(&reference),
            transcript(&got),
            "proposal at {workers:?} workers diverged from sequential"
        );
        assert_eq!(
            sequential.audit_log(),
            parallel.audit_log(),
            "audit log at {workers:?} workers"
        );
    }
}
