//! End-to-end determinism of the parallel engine: the SAME database
//! queried with one worker thread and with eight must produce
//! byte-identical answers — released rows, withheld counts, confidence
//! bits, and improvement proposals. Threads may only change speed, never
//! results.

mod common;

use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::Rng64;
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
    // strategy-finding path (parallel greedy rescans included) runs.
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
