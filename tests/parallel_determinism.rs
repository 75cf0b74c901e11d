//! End-to-end determinism of the parallel engine: the SAME database
//! queried with one worker thread and with eight must produce
//! byte-identical answers — released rows, withheld counts, confidence
//! bits, and improvement proposals. Threads may only change speed, never
//! results. The same holds one layer down for divide-and-conquer, whose
//! groups are solved side by side.

mod common;

use pcqe::core::dnc::{self, DncOptions};
use pcqe::core::greedy::GreedyOptions;
use pcqe::core::problem::{ProblemBuilder, ProblemInstance};
use pcqe::core::CoreError;
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::{Lineage, Rng64};
use pcqe::par::Parallelism;
use pcqe::storage::{Column, DataType, Schema, Value};

/// Populate a database identically regardless of configuration: 10,000
/// rows whose values and confidences come from a fixed seeded stream.
fn populated(config: EngineConfig, rows: usize) -> Database {
    let mut db = Database::new(config);
    db.create_table(
        "readings",
        Schema::new(vec![
            Column::new("sensor", DataType::Int),
            Column::new("value", DataType::Int),
        ])
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "sensors",
        Schema::new(vec![Column::new("id", DataType::Int)]).unwrap(),
    )
    .unwrap();
    let mut rng = Rng64::seed_from_u64(20_240_806);
    for _ in 0..rows {
        let sensor = rng.below_u64(64) as i64;
        let value = rng.below_u64(1000) as i64;
        let conf = rng.range_f64(0.05, 0.99);
        db.insert(
            "readings",
            vec![Value::Int(sensor), Value::Int(value)],
            conf,
        )
        .unwrap();
    }
    for id in 0..64i64 {
        let conf = rng.range_f64(0.5, 0.99);
        db.insert("sensors", vec![Value::Int(id)], conf).unwrap();
    }
    db.add_policy(pcqe::policy::ConfidencePolicy::new("analyst", "report", 0.55).unwrap());
    db
}

/// A config that *forces* the parallel code paths even for small
/// batches, with the given worker count.
fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        worker_threads: Some(workers),
        parallel_threshold: 1,
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
/// (the tuple-at-a-time logical walker, uncached scoring) releases, and
/// audits the same counts.
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

/// The scheduler's *structural* telemetry is part of the determinism
/// contract: how many batches a query dispatches, how many items they
/// carry and how many chunks they are cut into depend on the data and the
/// worker count alone, and every chunk is claimed exactly once. The
/// un-indexed numbers were recorded on the commit before `pcqe-par`
/// became one dispatcher, so the chunked map's move onto the morsel loop
/// is pinned to the old scheduler's chunking batch for batch.
///
/// With an index on `sensors.id` the hash join becomes an index join, and
/// the pinned counts say what that saves without a clock: the right scan,
/// the tag pass and the partition build no longer dispatch (three batches
/// and the 192 items they carried), and the plan has one operator fewer.
#[test]
fn scheduler_structure_is_pinned_per_worker_count() {
    let distinct = "SELECT DISTINCT r.sensor FROM readings r JOIN sensors s \
                    ON r.sensor = s.id WHERE r.value < 800";
    let hash_join = "SELECT r.sensor, r.value FROM readings r JOIN sensors s \
                     ON r.sensor = s.id WHERE r.value < 100";
    // (query, sensors.id indexed, workers, par.batches, par.items, par.chunks,
    // exec.operators)
    let pinned: [(&str, bool, usize, u64, u64, u64, u64); 9] = [
        (distinct, false, 1, 7, 26_258, 23, 4),
        (distinct, false, 2, 7, 26_258, 37, 4),
        (distinct, false, 4, 7, 26_258, 53, 4),
        (hash_join, false, 1, 14, 13_312, 30, 4),
        (hash_join, false, 2, 14, 13_312, 44, 4),
        (hash_join, false, 4, 14, 13_312, 60, 4),
        (hash_join, true, 1, 11, 13_120, 27, 3),
        (hash_join, true, 2, 11, 13_120, 34, 3),
        (hash_join, true, 4, 11, 13_120, 42, 3),
    ];
    let user = User::new("ana", "analyst");
    for (sql, indexed, workers, batches, items, chunks, operators) in pinned {
        let mut db = populated(config(workers), 10_000);
        if indexed {
            db.create_index("sensors", "id").unwrap();
        }
        assert_eq!(
            db.metrics_snapshot().counter("par.batches"),
            0,
            "loading dispatches nothing"
        );
        db.query(&user, &QueryRequest::new(sql, "report").expecting(0.2))
            .unwrap();
        let snap = db.metrics_snapshot();
        let got = ["par.batches", "par.items", "par.chunks", "exec.operators"]
            .map(|name| snap.counter(name));
        assert_eq!(
            got,
            [batches, items, chunks, operators],
            "{workers} workers, indexed={indexed}: {sql}"
        );
        assert_eq!(
            snap.counter("par.chunks_claimed"),
            chunks,
            "every chunk claimed exactly once at {workers} workers: {sql}"
        );
    }
    // Strictly less of everything with the index, at every worker count.
    for (without, with) in pinned[3..6].iter().zip(&pinned[6..]) {
        assert_eq!((without.0, without.2), (with.0, with.2));
        let counts = |row: &(&str, bool, usize, u64, u64, u64, u64)| [row.3, row.4, row.5, row.6];
        let (with, without) = (counts(with), counts(without));
        assert!(
            with.iter().zip(&without).all(|(w, wo)| w < wo),
            "{with:?} vs {without:?}"
        );
    }
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
        ..DncOptions::default()
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
    reference.solution.validate(&problem).unwrap();
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
/// results, so the engine's `Auto` choice is divide-and-conquer.
fn claims_database(config: EngineConfig) -> Database {
    let mut db = Database::new(config);
    db.create_table(
        "claims",
        Schema::new(vec![
            Column::new("grp", DataType::Int),
            Column::new("k", DataType::Int),
        ])
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "evidence",
        Schema::new(vec![Column::new("k", DataType::Int)]).unwrap(),
    )
    .unwrap();
    let mut rng = Rng64::seed_from_u64(20_260_930);
    let groups = 72i64;
    for g in 0..groups {
        for k in 2 * g..=2 * g + 2 {
            let conf = rng.range_f64(0.05, 0.3);
            db.insert("claims", vec![Value::Int(g), Value::Int(k)], conf)
                .unwrap();
        }
    }
    for k in 0..=2 * groups {
        let conf = rng.range_f64(0.05, 0.3);
        db.insert("evidence", vec![Value::Int(k)], conf).unwrap();
    }
    db.add_policy(pcqe::policy::ConfidencePolicy::new("analyst", "report", 0.6).unwrap());
    db
}

#[test]
fn dnc_proposals_identical_across_thread_counts() {
    let sql = "SELECT DISTINCT c.grp FROM claims c JOIN evidence e ON c.k = e.k";
    let user = User::new("ana", "analyst");
    let request = QueryRequest::new(sql, "report").expecting(0.5);
    let forced = |worker_threads| EngineConfig {
        worker_threads,
        ..config(1)
    };

    let mut sequential = claims_database(forced(Some(1)));
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
        let mut parallel = claims_database(forced(workers));
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
