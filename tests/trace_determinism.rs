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
//! 4. **Ask before formatting** — a layer sends timeline events only to a
//!    listener's `Observer::timeline`, so a metrics-only listener costs no
//!    formatted label.

mod common;

use common::{DbSpec, PAPER_QUERY as QUERY};
use pcqe::algebra::execute_vectorized_profiled;
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::{CircuitCache, Evaluator};
use pcqe::obs::clock::ManualClock;
use pcqe::obs::trace::TraceEventKind;
use pcqe::obs::trace_export::{to_chrome_json, to_folded};
use pcqe::obs::{QueryTrace, Tracer};
use pcqe::par::{ConfidencePath, Decision, Observer, Parallelism};
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Catalog, Column, DataType, Schema, TupleId, Value};
#[expect(
    clippy::disallowed_types,
    reason = "a test listener that counts the calls it gets"
)]
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The paper's Section 3.1 database. With a [`ManualClock`] every
/// timestamp is 0 and the only ordering is the tracer's deterministic
/// sequence counter, so exports are byte-stable.
fn paper_db(worker_threads: Option<usize>) -> Database {
    common::paper_db(Database::with_clock(
        config(worker_threads),
        Arc::new(ManualClock::new()),
    ))
}

fn config(worker_threads: Option<usize>) -> EngineConfig {
    EngineConfig {
        worker_threads,
        ..EngineConfig::default()
    }
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
    let decisions = common::decisions(&trace);
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
    let decisions = common::decisions(&trace);
    assert_eq!(decisions.len(), resp.released.len() + resp.withheld);
    assert_eq!(resp.withheld, 0);
    assert_eq!(decisions.len(), resp.released.len());
    for (d, r) in decisions.iter().zip(&resp.released) {
        assert!(d.released);
        assert_eq!(d.confidence.to_bits(), r.confidence.to_bits());
        assert_eq!(d.path, ConfidencePath::Exact);
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
    let rows = (0..rows).map(|i| ([0.9, 0.6][i % 2], vec![Value::Int(i as i64)]));
    let spec = DbSpec::default()
        .table("t", &[("x", DataType::Int)])
        .rows(rows);
    spec.load(&mut db, false);
    db.add_policy(ConfidencePolicy::new("reader", "all", 0.5).unwrap());
    db.add_policy(ConfidencePolicy::new("reader", "half", 0.7).unwrap());
    db
}

/// A decision's path names what the gate compared, not where the number
/// came from: a repeated query's rows are served by the circuit cache's
/// root memo and still decide as `exact`. The memo hits stay on the
/// timeline as the cache's own `cache.hit` instants, one per row, where
/// the first run compiled each row once.
#[test]
fn memo_served_rows_decide_as_exact_and_show_as_cache_hits() {
    const ROWS: usize = 8;
    let mut db = single_column_db(ROWS, 16 * ROWS);
    let user = User::new("rae", "reader");
    let request = QueryRequest::new("SELECT x FROM t", "all").expecting(0.0);
    let instants = |trace: &QueryTrace, wanted: &str| {
        (trace.events.iter())
            .filter(|e| matches!(&e.kind, TraceEventKind::Instant { name, .. } if name == wanted))
            .count()
    };
    let mut confidences = Vec::new();
    for (run, (compiles, hits)) in [(ROWS, 0), (0, ROWS)].into_iter().enumerate() {
        let (resp, trace) = db.trace_query(&user, &request).unwrap();
        assert_eq!(trace.dropped, 0);
        assert_eq!(resp.released.len(), ROWS, "run {run}");
        let decisions = common::decisions(&trace);
        assert_eq!(decisions.len(), ROWS, "run {run}");
        for d in &decisions {
            assert_eq!(d.path, ConfidencePath::Exact, "run {run}: {d:?}");
        }
        assert_eq!(instants(&trace, "cache.compile"), compiles, "run {run}");
        assert_eq!(instants(&trace, "cache.hit"), hits, "run {run}");
        let bits: Vec<u64> = decisions.iter().map(|d| d.confidence.to_bits()).collect();
        confidences.push(bits);
    }
    assert_eq!(confidences[0], confidences[1], "a memo hit moves no bit");
}

/// Decisions are emitted in one walk alongside the rows: one per row
/// however large the released set, each agreeing with the gate's verdict
/// and the audit entry — all released, and interleaved with withheld rows
/// (the β-skipped 0.6 rows of `half`). The `decision` is the only event
/// that speaks for a row: scoring adds no per-row instant of its own.
#[test]
fn large_results_have_one_decision_per_row_matching_the_audit_log() {
    const ROWS: usize = 2_400;
    // Two events per row (cache, decision) outgrow the default buffer; a
    // dropped event would hide exactly what is checked.
    let mut db = single_column_db(ROWS, 4 * ROWS);
    let user = User::new("rae", "reader");

    for (purpose, expect_released) in [("all", ROWS), ("half", ROWS / 2)] {
        let request = QueryRequest::new("SELECT x FROM t", purpose).expecting(0.0);
        let (resp, trace) = db.trace_query(&user, &request).unwrap();
        assert_eq!(trace.dropped, 0);
        assert_eq!(resp.released.len(), expect_released);
        assert_eq!(resp.released.len() + resp.withheld, ROWS);

        let decisions = common::decisions(&trace);
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
        let skipped = decisions
            .iter()
            .filter(|d| d.path == ConfidencePath::BetaSkipped);
        assert_eq!(skipped.count(), ROWS - expect_released, "{purpose}");
        let row_instants: Vec<&str> = (trace.events.iter())
            .filter_map(|e| match &e.kind {
                TraceEventKind::Instant { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .filter(|name| ["beta.skip", "score.exact", "score.bounded"].contains(name))
            .collect();
        assert!(row_instants.is_empty(), "{purpose}: {row_instants:?}");
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

/// A gated row costs the timeline two events, its circuit-cache event and
/// its `decision`, over fifteen for the query's spans and its `parse`
/// instant: a 64-event buffer holds a 24-row result whole.
#[test]
fn a_small_buffer_holds_a_result_at_two_events_per_row() {
    const ROWS: usize = 24;
    let mut db = single_column_db(ROWS, 64);
    let user = User::new("rae", "reader");
    let request = QueryRequest::new("SELECT x FROM t", "all").expecting(0.0);
    let (resp, trace) = db.trace_query(&user, &request).unwrap();
    assert_eq!(resp.released.len(), ROWS);
    assert_eq!(trace.dropped, 0, "{} events kept", trace.events.len());
    assert_eq!(trace.events.len(), 15 + 2 * ROWS);
    assert_eq!(common::decisions(&trace).len(), ROWS);
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

/// A listener that counts the calls it gets, one atomic per method;
/// `enabled` says whether it claims to keep a timeline (it is then its
/// own `Observer::timeline`).
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a test listener that counts the calls it gets"
)]
struct Counting {
    enabled: bool,
    span_begins: AtomicU64,
    span_ends: AtomicU64,
    instants: AtomicU64,
    decisions: AtomicU64,
}

impl Counting {
    fn new(enabled: bool) -> Counting {
        Counting {
            enabled,
            ..Counting::default()
        }
    }

    /// `(span_begin, span_end, instant, decision)` calls.
    fn calls(&self) -> [u64; 4] {
        [
            &self.span_begins,
            &self.span_ends,
            &self.instants,
            &self.decisions,
        ]
        .map(|n| n.load(Relaxed))
    }
}

impl Observer for Counting {
    fn timeline(&self) -> Option<&dyn Observer> {
        self.enabled.then_some(self as &dyn Observer)
    }
    fn span_begin(&self, _name: &str) -> u64 {
        self.span_begins.fetch_add(1, Relaxed) + 1
    }
    fn span_end(&self, id: u64) {
        assert_ne!(id, 0, "only ids span_begin handed out are closed");
        self.span_ends.fetch_add(1, Relaxed);
    }
    fn instant(&self, _name: &str, _detail: &str) {
        self.instants.fetch_add(1, Relaxed);
    }
    fn decision(&self, _decision: &Decision) {
        self.decisions.fetch_add(1, Relaxed);
    }
}

/// The "ask first" rule, through the public seams that take a listener: a
/// hash join over a few thousand rows on `execute_vectorized_profiled`
/// (handed a four-worker policy, which it does not read), and a circuit
/// cache listening through `CircuitCache::set_trace` while β-gated
/// `ResultSet::score_with` scores the join's rows. A listener that is not
/// enabled gets no call at all from either — so nobody formatted an `op:`
/// label or a `cache.*` detail for it, and nobody read a clock for it. An
/// enabled executor listener gets one balanced `op:` span pair per
/// operator, and nothing else; scoring itself takes no listener.
#[test]
fn only_an_enabled_listener_is_sent_timeline_events() {
    let mut catalog = Catalog::new();
    let int = |name| Column::new(name, DataType::Int);
    let orders = Schema::new(vec![int("id"), int("customer_id")]).unwrap();
    let customers = Schema::new(vec![int("id"), Column::new("region", DataType::Text)]).unwrap();
    catalog.create_table("orders", orders).unwrap();
    catalog.create_table("customers", customers).unwrap();
    for i in 0..400i64 {
        let confidence = if i % 2 == 0 { 0.9 } else { 0.3 };
        let row = vec![Value::Int(i), Value::text(format!("r{}", i % 7))];
        catalog.insert("customers", row, confidence).unwrap();
    }
    for i in 0..4000i64 {
        let row = vec![Value::Int(i), Value::Int(i % 500)];
        catalog.insert("orders", row, 0.8).unwrap();
    }
    let sql = "SELECT o.id, c.region FROM orders o JOIN customers c \
               ON o.customer_id = c.id WHERE o.id < 3500";
    let plan = pcqe::sql::parse_and_plan(sql, &catalog).unwrap();
    let plan = pcqe::algebra::optimize(&plan, &catalog).unwrap();
    let physical = pcqe::algebra::lower(&plan, &catalog).unwrap();
    let four = Parallelism {
        worker_threads: Some(4),
        parallel_threshold: 1,
    };

    let run = |enabled: bool| {
        let exec = Counting::new(enabled);
        let cache_listener = Arc::new(Counting::new(enabled));
        let (rows, profile) =
            execute_vectorized_profiled(&physical, &catalog, &four, Some(&exec)).unwrap();
        let mut cache = CircuitCache::new();
        cache.set_trace(Some(cache_listener.clone()));
        for row in rows.rows() {
            for v in row.lineage.vars() {
                cache.set_prob(v, catalog.confidence(TupleId(v.0)).unwrap());
            }
        }
        let (gated, _) = rows
            .score_with(&mut cache, &Evaluator::default(), Some(0.5))
            .unwrap();
        assert!(gated.exact_skipped > 0 && gated.exact_skipped < gated.scored.len());
        let [.., cache_instants, _] = cache_listener.calls();
        (exec.calls(), cache_instants, profile, gated.scored.len())
    };

    let (quiet_exec, quiet_cache, profile, rows) = run(false);
    let (loud_exec, loud_cache, _, _) = run(true);
    let plan_lines = physical.to_string();
    assert_eq!(profile.operators.len(), plan_lines.lines().count());
    assert!(plan_lines
        .lines()
        .any(|line| line.trim_start().starts_with("HashJoin")));
    assert_eq!(rows, 2800, "the 3 500 orders of customers 0–399");

    // Not enabled: no call at all.
    assert_eq!(quiet_exec, [0; 4], "the executor sends nothing");
    assert_eq!(quiet_cache, 0, "the cache formats no detail for nobody");

    // Enabled: the timeline, and nothing else.
    let operators = profile.operators.len() as u64;
    assert_eq!(
        loud_exec,
        [operators, operators, 0, 0],
        "one op: span pair per operator, and nothing else"
    );
    assert!(loud_cache > 0, "the cache reports its compiles");
}

/// Fault injection: a tracer that holds one event. The paper query at
/// θ = 0 and as a θ-miss, each through `trace_query`: the response is the
/// untraced `query`'s, bit for bit; the trace keeps its first event, the
/// root `query` span, and counts every other as dropped, and the
/// recorder's `trace.dropped` counter grows by exactly that count; and
/// every trace starts from an empty buffer.
#[test]
fn a_tracer_that_holds_one_event_counts_what_it_drops() {
    let clock = Arc::new(ManualClock::new());
    let mut traced = common::paper_db(Database::with_tracer(
        config(Some(1)),
        Tracer::with_clock(clock, 1),
    ));
    let mut plain = paper_db(Some(1));
    let mark = User::new("mark", "Manager");
    let miss = QueryRequest::new(QUERY, "investment");
    let met = miss.clone().expecting(0.0);
    // The third trace follows one that overflowed mid-propose.
    for request in [met.clone(), miss, met] {
        let before = traced.metrics_snapshot().counter("trace.dropped");
        let (response, trace) = traced.trace_query(&mark, &request).unwrap();
        let expected = plain.query(&mark, &request).unwrap();
        assert_eq!(format!("{response:?}"), format!("{expected:?}"));
        let [first] = trace.events.as_slice() else {
            panic!("one event kept: {:?}", trace.events);
        };
        assert_eq!(first.seq, 0, "no event left over from the last trace");
        assert!(
            matches!(
                &first.kind,
                TraceEventKind::SpanBegin { id: 1, parent: None, name } if name == "query"
            ),
            "{first:?}"
        );
        assert!(trace.dropped > 0);
        let counted = traced.metrics_snapshot().counter("trace.dropped") - before;
        assert_eq!(counted, trace.dropped);
    }
    assert_eq!(traced.audit_log(), plain.audit_log());
}
