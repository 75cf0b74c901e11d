//! Causal-tracing acceptance suite.
//!
//! Three contracts from the design of the tracing subsystem:
//!
//! 1. **Result neutrality** — query answers, confidences (bit-for-bit),
//!    proposals and audit entries are identical with tracing on or off,
//!    at any worker-thread count. The tracer is a write-only sink; it
//!    must never feed back into planning, scoring or gating.
//! 2. **Byte-stable exports** — the Chrome trace-event JSON and the
//!    collapsed-stack (flamegraph) renderings of a single-threaded run
//!    under a [`ManualClock`] match golden files exactly.
//! 3. **Decision completeness** — every released or suppressed tuple of
//!    the paper's Section 3.1 example yields exactly one `Decision`
//!    event whose verdict and confidence agree with the audit log.

use pcqe::core::clock::ManualClock;
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::obs::trace_export::{to_chrome_json, to_folded};
use pcqe::obs::{QueryTrace, Tracer};
use pcqe::par::ConfidencePath;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};
use std::sync::Arc;

const QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

/// The paper's Section 3.1 database. With a [`ManualClock`] every
/// timestamp is 0 and the only ordering is the tracer's deterministic
/// sequence counter, so exports are byte-stable.
fn paper_db(worker_threads: Option<usize>) -> Database {
    let config = EngineConfig {
        worker_threads,
        parallel_threshold: 1,
        ..EngineConfig::default()
    };
    let mut db = Database::with_clock(config, Arc::new(ManualClock::new()));
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

/// A fully comparable fingerprint of one query → apply → query cycle:
/// released values, exact confidence bits, withheld counts, proposal
/// increments, and the rendered audit log.
fn run_cycle(worker_threads: Option<usize>, tracing: bool) -> (Vec<String>, Vec<String>) {
    let mut db = paper_db(worker_threads);
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(QUERY, "investment");
    let mut fingerprint = Vec::new();
    for round in 0..2 {
        let resp = if tracing {
            db.trace_query(&user, &request).unwrap().0
        } else {
            db.query(&user, &request).unwrap()
        };
        for r in &resp.released {
            fingerprint.push(format!(
                "round={round} row={:?} conf_bits={:016x}",
                r.tuple,
                r.confidence.to_bits()
            ));
        }
        fingerprint.push(format!(
            "round={round} withheld={} threshold_bits={:016x}",
            resp.withheld,
            resp.threshold.to_bits()
        ));
        if let Some(p) = &resp.proposal {
            for inc in &p.increments {
                fingerprint.push(format!(
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
    (fingerprint, audit)
}

#[test]
fn tracing_and_thread_count_never_change_results() {
    let (baseline_fp, baseline_audit) = run_cycle(Some(1), false);
    assert!(!baseline_fp.is_empty());
    for (threads, tracing) in [
        (Some(1), true),
        (Some(4), false),
        (Some(4), true),
        (None, true),
    ] {
        let (fp, audit) = run_cycle(threads, tracing);
        assert_eq!(
            fp, baseline_fp,
            "results drifted at threads={threads:?} tracing={tracing}"
        );
        assert_eq!(
            audit, baseline_audit,
            "audit drifted at threads={threads:?} tracing={tracing}"
        );
    }
}

/// The Section 3.1 query traced once on a single worker lane — the only
/// configuration whose batch/lane events are deterministic, and the one
/// the goldens pin.
fn golden_trace() -> QueryTrace {
    let mut db = paper_db(Some(1));
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(QUERY, "investment");
    let (_, trace) = db.trace_query(&user, &request).unwrap();
    trace
}

/// Regenerate the golden exports:
/// `PCQE_BLESS=1 cargo test --test trace_determinism bless`.
#[test]
fn bless_trace_goldens_when_requested() {
    if std::env::var_os("PCQE_BLESS").is_none() {
        return;
    }
    let trace = golden_trace();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("trace_chrome.json"), to_chrome_json(&trace)).unwrap();
    std::fs::write(dir.join("trace_folded.txt"), to_folded(&trace)).unwrap();
}

#[test]
fn chrome_export_is_byte_stable_under_a_manual_clock() {
    assert_eq!(
        to_chrome_json(&golden_trace()),
        include_str!("golden/trace_chrome.json"),
        "Chrome trace export drifted from tests/golden/trace_chrome.json \
         (PCQE_BLESS=1 cargo test --test trace_determinism bless to regenerate)"
    );
}

#[test]
fn folded_export_is_byte_stable_under_a_manual_clock() {
    assert_eq!(
        to_folded(&golden_trace()),
        include_str!("golden/trace_folded.txt"),
        "Folded-stack export drifted from tests/golden/trace_folded.txt \
         (PCQE_BLESS=1 cargo test --test trace_determinism bless to regenerate)"
    );
}

#[test]
fn identical_runs_export_identically() {
    let a = golden_trace();
    let b = golden_trace();
    assert_eq!(to_chrome_json(&a), to_chrome_json(&b));
    assert_eq!(to_folded(&a), to_folded(&b));
}

#[test]
fn every_gated_tuple_has_exactly_one_decision_matching_the_audit_log() {
    let mut db = paper_db(Some(1));
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(QUERY, "investment");

    // Round 1: the paper's example suppresses its single result row
    // (confidence 0.058 < β = 0.06).
    let (resp, trace) = db.trace_query(&user, &request).unwrap();
    let decisions = trace.decisions();
    assert_eq!(decisions.len(), resp.released.len() + resp.withheld);
    assert_eq!(decisions.len(), 1);
    let d = decisions[0];
    assert!(!d.released);
    assert_eq!(d.beta.to_bits(), resp.threshold.to_bits());
    assert!(d.confidence < d.beta);
    assert!(d.lineage_size > 0);

    // Apply the improvement; round 2 releases the row. The decision's
    // verdict and confidence must agree with the response bit for bit.
    db.apply(&resp.proposal.unwrap()).unwrap();
    let (resp, trace) = db.trace_query(&user, &request).unwrap();
    let decisions = trace.decisions();
    assert_eq!(decisions.len(), resp.released.len() + resp.withheld);
    assert_eq!(resp.withheld, 0);
    assert_eq!(decisions.len(), resp.released.len());
    for (d, r) in decisions.iter().zip(&resp.released) {
        assert!(d.released);
        assert_eq!(d.confidence.to_bits(), r.confidence.to_bits());
        assert!(matches!(
            d.path,
            ConfidencePath::Exact | ConfidencePath::CacheHit
        ));
    }

    // The audit log's released/withheld totals equal the decision
    // verdicts across both rounds.
    let (mut released, mut withheld) = (0usize, 0usize);
    for e in db.audit_log() {
        if let pcqe::engine::AuditEntry::Query {
            released: r,
            withheld: w,
            ..
        } = e
        {
            released += r;
            withheld += w;
        }
    }
    assert_eq!(released, 1);
    assert_eq!(withheld, 1);
}

#[test]
fn trace_spans_cover_the_query_lifecycle() {
    let trace = golden_trace();
    let names: Vec<&str> = trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            pcqe::obs::trace::TraceEventKind::SpanBegin { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for expected in ["query", "plan", "execute", "score", "gate", "propose"] {
        assert!(
            names.contains(&expected),
            "missing span {expected}: {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("op:")),
        "missing operator spans: {names:?}"
    );
    assert_eq!(trace.dropped, 0, "ring buffer must not overflow here");
}

/// `rows` single-column rows at alternating confidence 0.9 / 0.6 behind
/// a tracer with room for `capacity` events; role `reader` sees all of
/// them for purpose `all` (β = 0.5) and every other one for `half`.
fn single_column_db(rows: usize, capacity: usize) -> Database {
    let tracer = Tracer::with_clock(Arc::new(ManualClock::new()), capacity);
    let mut db = Database::with_tracer(EngineConfig::default().sequential(), tracer);
    db.create_table(
        "t",
        Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
    )
    .unwrap();
    for i in 0..rows {
        let confidence = if i % 2 == 0 { 0.9 } else { 0.6 };
        db.insert("t", vec![Value::Int(i as i64)], confidence)
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("reader", "all", 0.5).unwrap());
    db.add_policy(ConfidencePolicy::new("reader", "half", 0.7).unwrap());
    db
}

/// Decisions are emitted in one walk alongside the rows: one per row
/// however large the released set, each agreeing with the gate's verdict
/// and the audit entry — all released, and interleaved with withheld rows.
#[test]
fn large_results_have_one_decision_per_row_matching_the_audit_log() {
    const ROWS: usize = 2_400;
    // Three events per row (cache, gate instant, decision) outgrow the
    // default buffer; a dropped event would hide exactly what is checked.
    let mut db = single_column_db(ROWS, 4 * ROWS);
    let user = User::new("rae", "reader");

    for (purpose, expect_released) in [("all", ROWS), ("half", ROWS / 2)] {
        let request = QueryRequest::new("SELECT x FROM t", purpose).expecting(0.0);
        let (resp, trace) = db.trace_query(&user, &request).unwrap();
        assert_eq!(trace.dropped, 0);
        assert_eq!(resp.released.len(), expect_released);
        assert_eq!(resp.released.len() + resp.withheld, ROWS);

        let decisions = trace.decisions();
        assert_eq!(decisions.len(), ROWS, "one decision per row ({purpose})");
        let mut released = resp.released.iter();
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(d.tuple, i as u64);
            assert_eq!(d.released, d.confidence > d.beta, "row {i} ({purpose})");
            if d.released {
                let r = released.next().expect("a released row per verdict");
                assert_eq!(d.confidence.to_bits(), r.confidence.to_bits());
            }
        }
        assert!(released.next().is_none());
        let Some(pcqe::engine::AuditEntry::Query {
            released, withheld, ..
        }) = db.audit_log().last()
        else {
            panic!("the query was not audited");
        };
        assert_eq!(*released, decisions.iter().filter(|d| d.released).count());
        assert_eq!(*withheld, decisions.iter().filter(|d| !d.released).count());
    }
    // Nothing was dropped, so the recorder has no loss to report.
    assert_eq!(db.metrics_snapshot().counter("trace.dropped"), 0);
}

/// A trace that outgrows its buffer reports the loss twice: in the
/// drained trace's own `dropped` count, and — summed over traced
/// queries — in the recorder's `trace.dropped` counter, so an operator
/// reading metrics alone learns their timelines are truncated.
#[test]
fn dropped_events_are_counted_in_the_trace_and_the_recorder() {
    let mut db = single_column_db(40, 16);
    let user = User::new("rae", "reader");
    let request = QueryRequest::new("SELECT x FROM t", "all").expecting(0.0);
    let (resp, first) = db.trace_query(&user, &request).unwrap();
    assert_eq!(resp.released.len(), 40, "dropping events never drops rows");
    assert_eq!(first.events.len(), 16);
    assert!(first.dropped > 0);
    assert_eq!(
        db.metrics_snapshot().counter("trace.dropped"),
        first.dropped
    );
    let (_, second) = db.trace_query(&user, &request).unwrap();
    assert_eq!(
        db.metrics_snapshot().counter("trace.dropped"),
        first.dropped + second.dropped
    );
}

/// `trace_query` borrows the tracer for one call and hands it back as it
/// found it: a tracer the caller enabled by hand (as `Database::tracer`
/// documents) stays enabled — on the error path too — and one at rest
/// stays off.
#[test]
fn trace_query_restores_the_tracer_state_it_found() {
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(QUERY, "investment");
    let broken = QueryRequest::new("SELECT nothing FROM Nowhere", "investment");

    let mut db = paper_db(Some(1));
    assert!(!db.tracer().is_enabled(), "disabled at rest");
    db.trace_query(&user, &request).unwrap();
    assert!(!db.tracer().is_enabled(), "found off, left off");
    assert!(db.trace_query(&user, &broken).is_err());
    assert!(!db.tracer().is_enabled(), "found off, left off on error");

    db.tracer().set_enabled(true);
    db.trace_query(&user, &request).unwrap();
    assert!(db.tracer().is_enabled(), "found on, left on");
    assert!(db.trace_query(&user, &broken).is_err());
    assert!(db.tracer().is_enabled(), "found on, left on on error");
    // Still recording: an ordinary query lands in the buffer.
    db.query(&user, &request).unwrap();
    assert!(!db.tracer().drain().events.is_empty());
}
