//! Observability acceptance suite.
//!
//! Three contracts from the design of `pcqe-obs`:
//!
//! 1. **Result neutrality** — query answers, confidences (bit-for-bit),
//!    proposals and audit entries are identical with metric recording on
//!    or off, at any worker-thread count.
//! 2. **Byte-stable exports** — the JSON and Prometheus renderings of a
//!    snapshot taken under a [`ManualClock`] match golden files exactly.
//! 3. **Honest profiles** — `EXPLAIN ANALYZE` row counts equal the
//!    operators' actual output sizes on the paper's running example.

use pcqe::core::clock::ManualClock;
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::obs::{export, Recorder};
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

/// The paper's Section 3.1 database under an explicit parallelism and
/// recording configuration.
fn paper_db(worker_threads: Option<usize>, record_metrics: bool) -> Database {
    let mut db = Database::new(EngineConfig {
        worker_threads,
        parallel_threshold: 1,
        record_metrics,
        ..EngineConfig::default()
    });
    db.create_table(
        "Proposal",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("proposal", DataType::Text),
            Column::new("funding", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "CompanyInfo",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("income", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    let t02 = db
        .insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v1"),
                Value::Real(800_000.0),
            ],
            0.3,
        )
        .unwrap();
    let t03 = db
        .insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v2"),
                Value::Real(900_000.0),
            ],
            0.4,
        )
        .unwrap();
    let t13 = db
        .insert(
            "CompanyInfo",
            vec![Value::text("SkyCam"), Value::Real(500_000.0)],
            0.1,
        )
        .unwrap();
    db.set_cost(t02, CostFn::linear(1000.0).unwrap()).unwrap();
    db.set_cost(t03, CostFn::linear(100.0).unwrap()).unwrap();
    db.set_cost(t13, CostFn::linear(10_000.0).unwrap()).unwrap();
    db.add_policy(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
    db
}

/// A fully comparable trace of one query → apply → query cycle:
/// released values, exact confidence bits, withheld counts, proposal
/// increments, and the rendered audit log.
#[allow(clippy::type_complexity)]
fn run_cycle(worker_threads: Option<usize>, record_metrics: bool) -> (Vec<String>, Vec<String>) {
    let mut db = paper_db(worker_threads, record_metrics);
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(QUERY, "investment");
    let mut trace = Vec::new();
    for round in 0..2 {
        let resp = db.query(&user, &request).unwrap();
        for r in &resp.released {
            trace.push(format!(
                "round={round} row={:?} conf_bits={:016x}",
                r.tuple,
                r.confidence.to_bits()
            ));
        }
        trace.push(format!(
            "round={round} withheld={} threshold_bits={:016x}",
            resp.withheld,
            resp.threshold.to_bits()
        ));
        if let Some(p) = &resp.proposal {
            for inc in &p.increments {
                trace.push(format!(
                    "round={round} inc tuple={:?} from_bits={:016x} to_bits={:016x} cost_bits={:016x}",
                    inc.tuple_id,
                    inc.from.to_bits(),
                    inc.to.to_bits(),
                    inc.cost.to_bits()
                ));
            }
            if round == 0 {
                db.apply(p).unwrap();
            }
        }
    }
    let audit = db.audit_log().iter().map(|e| e.to_string()).collect();
    (trace, audit)
}

#[test]
fn recording_and_thread_count_never_change_results() {
    let (baseline_trace, baseline_audit) = run_cycle(Some(1), true);
    assert!(!baseline_trace.is_empty());
    for (threads, recording) in [
        (Some(1), false),
        (Some(4), true),
        (Some(4), false),
        (None, true),
        (None, false),
    ] {
        let (trace, audit) = run_cycle(threads, recording);
        assert_eq!(
            trace, baseline_trace,
            "results drifted at threads={threads:?} recording={recording}"
        );
        assert_eq!(
            audit, baseline_audit,
            "audit drifted at threads={threads:?} recording={recording}"
        );
    }
}

#[test]
fn metrics_mirror_audit_counts_at_any_thread_count() {
    for threads in [Some(1), Some(4)] {
        let mut db = paper_db(threads, true);
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        db.apply(&resp.proposal.unwrap()).unwrap();
        let after = db.query(&user, &request).unwrap();
        assert!((after.released_fraction() - 1.0).abs() < 1e-12);
        let (mut released, mut withheld) = (0u64, 0u64);
        for e in db.audit_log() {
            if let pcqe::engine::AuditEntry::Query {
                released: r,
                withheld: w,
                ..
            } = e
            {
                released += *r as u64;
                withheld += *w as u64;
            }
        }
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("policy.released"), released);
        assert_eq!(snap.counter("policy.withheld"), withheld);
        assert_eq!(snap.counter("query.total"), 2);
        assert_eq!(snap.counter("improvement.applied"), 1);
    }
}

/// Script a recorder against a manual clock: every value below is fully
/// determined, so the exported documents must match the goldens byte for
/// byte, forever.
fn scripted_recorder() -> Recorder {
    let clock = Arc::new(ManualClock::new());
    let recorder = Recorder::with_clock(clock.clone());
    recorder.counter_add("policy.released", 3);
    recorder.counter_add("policy.withheld", 1);
    recorder.counter_add("solver.greedy.iterations", 17);
    recorder.gauge_set("par.workers", 4.0);
    recorder.gauge_set("estimator.slope", 0.25);
    recorder.histogram_record("solver.greedy.elapsed", 0.002);
    recorder.histogram_record("solver.greedy.elapsed", 0.3);
    recorder.histogram_record("improvement.cost", 10.0);
    {
        let span = recorder.span("query");
        clock.advance(Duration::from_micros(45));
        {
            let child = span.child("execute");
            clock.advance(Duration::from_micros(5));
            drop(child);
        }
    }
    recorder
}

/// Regenerate the golden exports:
/// `PCQE_BLESS=1 cargo test --test obs_determinism bless`.
#[test]
fn bless_goldens_when_requested() {
    if std::env::var_os("PCQE_BLESS").is_none() {
        return;
    }
    let snapshot = scripted_recorder().snapshot();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("metrics.json"), export::to_json(&snapshot)).unwrap();
    std::fs::write(dir.join("metrics.prom"), export::to_prometheus(&snapshot)).unwrap();
}

#[test]
fn json_export_is_byte_stable_under_a_manual_clock() {
    let snapshot = scripted_recorder().snapshot();
    let golden = include_str!("golden/metrics.json");
    assert_eq!(
        export::to_json(&snapshot),
        golden,
        "JSON export drifted from tests/golden/metrics.json"
    );
    // The exporter round-trips through the crate's own parser.
    let doc = pcqe::obs::json::parse(golden).unwrap();
    let obj = doc.as_object().unwrap();
    for key in ["counters", "gauges", "histograms", "spans"] {
        assert!(obj.get(key).is_some(), "missing {key}");
    }
}

#[test]
fn prometheus_export_is_byte_stable_under_a_manual_clock() {
    let snapshot = scripted_recorder().snapshot();
    assert_eq!(
        export::to_prometheus(&snapshot),
        include_str!("golden/metrics.prom"),
        "Prometheus export drifted from tests/golden/metrics.prom"
    );
}

#[test]
fn identical_runs_export_identically() {
    let a = scripted_recorder().snapshot();
    let b = scripted_recorder().snapshot();
    assert_eq!(export::to_json(&a), export::to_json(&b));
    assert_eq!(export::to_prometheus(&a), export::to_prometheus(&b));
}

#[test]
fn explain_analyze_counts_match_actual_operator_sizes() {
    let db = paper_db(Some(1), true);
    let text = db.explain_analyze(QUERY).unwrap();
    // Every plan line is annotated.
    for line in text.lines() {
        assert!(line.contains("(rows_in="), "unannotated line: {line}");
    }
    // The running example's true operator sizes under the physical
    // planner: the funding filter is pushed into the Proposal scan (both
    // rows pass), the tiny join stays nested-loop and pairs them with the
    // one CompanyInfo row, and DISTINCT merges the two derivations into
    // one result.
    assert!(
        text.contains("TableScan Proposal [filter: (#2 < 1000000)] (rows_in=2 rows_out=2"),
        "{text}"
    );
    assert!(
        text.contains("TableScan CompanyInfo (rows_in=1 rows_out=1"),
        "{text}"
    );
    assert!(text.contains("NestedLoopJoin"), "{text}");
    assert!(text.contains("(rows_in=3 rows_out=2"), "{text}");
    assert!(
        text.contains("Project DISTINCT [company, income] (rows_in=2 rows_out=1"),
        "{text}"
    );
}

/// The analytics-shaped join, `orders ⋈ customers` on an indexed
/// `customers.id`: EXPLAIN ANALYZE and the `op:` trace spans name the
/// index join — table, alias and indexed column — with `rows_in` = the
/// left rows that probe + the right rows the index fetched; the build
/// side is not an operator, so no `TableScan customers` line exists; and
/// the annotated text is still the plan's `Display`, line for line.
#[test]
fn explain_analyze_and_the_trace_show_the_index_join() {
    let mut db = Database::new(EngineConfig::default().sequential());
    let int = |name| Column::new(name, DataType::Int);
    db.create_table(
        "orders",
        Schema::new(vec![int("id"), int("customer_id")]).unwrap(),
    )
    .unwrap();
    let customers = vec![int("id"), Column::new("region", DataType::Text)];
    db.create_table("customers", Schema::new(customers).unwrap())
        .unwrap();
    db.create_index("customers", "id").unwrap();
    // Customers 0–9 twice over, so that a probe fetches two rows; orders
    // 0–59 name customers 0–11, of whom 10 and 11 do not exist.
    for i in 0..20i64 {
        let row = vec![Value::Int(i % 10), Value::text(format!("r{}", i % 3))];
        db.insert("customers", row, 0.9).unwrap();
    }
    for i in 0..60i64 {
        db.insert("orders", vec![Value::Int(i), Value::Int(i % 12)], 0.8)
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("analyst", "report", 0.1).unwrap());
    let sql = "SELECT o.id, c.region FROM orders o JOIN customers c \
               ON o.customer_id = c.id WHERE o.id < 48";
    let text = db.explain_analyze(sql).unwrap();
    // 48 orders probe; the 40 that name customers 0–9 fetch two rows each.
    let join = "IndexJoin customers AS c (id) [#1 = #2] (rows_in=128 rows_out=80 ";
    assert!(text.contains(join), "{text}");
    assert!(
        text.contains("TableScan orders AS o [filter: (#0 < 48)] (rows_in=60 rows_out=48 "),
        "{text}"
    );
    assert!(!text.contains("TableScan customers"), "{text}");

    let physical = db.explain_physical(sql).unwrap();
    let plan_lines: Vec<&str> = physical
        .lines()
        .skip(2)
        .filter_map(|line| line.split_once(" | ").map(|(_, physical)| physical))
        .filter(|physical| !physical.is_empty())
        .collect();
    let analyzed: Vec<&str> = text
        .lines()
        .filter_map(|line| line.split_once(" (rows_in=").map(|(label, _)| label))
        .collect();
    assert_eq!(analyzed, plan_lines, "{text}\n{physical}");
    assert_eq!(analyzed.len(), 3);

    let user = User::new("ana", "analyst");
    let (response, trace) = db
        .trace_query(&user, &QueryRequest::new(sql, "report"))
        .unwrap();
    assert_eq!(response.released.len() + response.withheld, 80);
    let folded = pcqe::obs::trace_export::to_folded(&trace);
    assert!(
        folded.contains("op:IndexJoin customers AS c (id) [#1 = #2]"),
        "{folded}"
    );
    assert!(!folded.contains("TableScan customers"), "{folded}");
}
