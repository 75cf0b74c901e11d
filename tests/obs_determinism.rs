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
//! 4. **Metrics depend on the inputs only** — a tracer switched on by
//!    someone else never changes what the recorder records.
//! 5. **One span stream** — the recorder folds the spans the tracer
//!    times, so their span trees agree and a child never outlasts its
//!    parent.

mod common;

use common::{explained, PAPER_QUERY as QUERY};
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::obs::clock::{Clock, ManualClock};
use pcqe::obs::trace::TraceEventKind;
use pcqe::obs::{export, Recorder};
use pcqe::par::Span;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};
use std::collections::BTreeMap;
#[expect(
    clippy::disallowed_types,
    reason = "a test clock that moves on at every read"
)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The paper's Section 3.1 database under an explicit parallelism, with
/// its recorder on or off.
fn paper_db(worker_threads: Option<usize>, record_metrics: bool) -> Database {
    let db = common::paper_db(Database::new(EngineConfig {
        worker_threads,
        ..EngineConfig::default()
    }));
    db.recorder().set_enabled(record_metrics);
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
        assert!(!after.released.is_empty() && after.withheld == 0);
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
    {
        let _query = Span::open(&recorder, "query");
        clock.advance(Duration::from_micros(45));
        let _execute = Span::open(&recorder, "execute");
        clock.advance(Duration::from_micros(5));
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
    for key in ["counters", "spans"] {
        assert!(obj.get(key).is_some(), "missing {key}");
    }
}

/// The exports name only the metric kinds the engine writes: a session
/// that queries, applies a proposal and re-queries exports a JSON document
/// of counters and spans alone, and Prometheus lines that are all
/// counters.
#[test]
fn the_exports_name_no_gauge_kind() {
    let mut db = paper_db(Some(1), true);
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(QUERY, "investment");
    let proposal = db.query(&user, &request).unwrap().proposal.unwrap();
    db.apply(&proposal).unwrap();
    db.query(&user, &request).unwrap();
    let snapshot = db.metrics_snapshot();
    assert!(
        !snapshot.counters.is_empty(),
        "the session recorded nothing"
    );
    let doc = export::to_json(&snapshot);
    let parsed = pcqe::obs::json::parse(&doc).unwrap();
    let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["counters", "spans"], "{doc}");
    let text = export::to_prometheus(&snapshot);
    let other_kinds: Vec<&str> = (text.lines())
        .filter(|l| l.starts_with("# TYPE ") && !l.ends_with(" counter"))
        .collect();
    assert!(other_kinds.is_empty(), "{other_kinds:?}");
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
    let mut db = paper_db(Some(1), true);
    let text = explained(&mut db, &format!("EXPLAIN ANALYZE {QUERY}")).unwrap();
    // Every plan line is annotated.
    for line in text.lines() {
        assert!(line.contains("(rows_in="), "unannotated line: {line}");
    }
    // The running example's true operator sizes under the physical
    // planner: the funding filter is pushed into the Proposal scan (both
    // rows pass), the hash join on `company` pairs them with the one
    // CompanyInfo row, and DISTINCT merges the two derivations into one
    // result.
    assert!(
        text.contains("TableScan Proposal [filter: (#2 < 1000000)] (rows_in=2 rows_out=2"),
        "{text}"
    );
    assert!(
        text.contains("TableScan CompanyInfo (rows_in=1 rows_out=1"),
        "{text}"
    );
    assert!(
        text.contains("HashJoin [#0 = #3] (rows_in=3 rows_out=2"),
        "{text}"
    );
    assert!(
        text.contains("Project DISTINCT [company, income] (rows_in=2 rows_out=1"),
        "{text}"
    );
}

/// The analytics-shaped join of [`with_shop`].
const SHOP_JOIN: &str = "SELECT o.id, c.region FROM orders o JOIN customers c \
    ON o.customer_id = c.id WHERE o.id < 48";

/// `orders ⋈ customers` on an indexed `customers.id`, loaded into `db`:
/// customers 0–9 twice over, so that a probe fetches two rows, at
/// confidence 0.9 or 0.3 by turns; orders 0–59 at 0.8, naming customers
/// 0–11, of whom 10 and 11 do not exist. The analyst's β = 0.5 releases
/// the pairs through a 0.9 customer and withholds the others on their
/// bound alone.
fn with_shop(mut db: Database) -> Database {
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
    for i in 0..20i64 {
        let row = vec![Value::Int(i % 10), Value::text(format!("r{}", i % 3))];
        let confidence = if i % 2 == 0 { 0.9 } else { 0.3 };
        db.insert("customers", row, confidence).unwrap();
    }
    for i in 0..60i64 {
        db.insert("orders", vec![Value::Int(i), Value::Int(i % 12)], 0.8)
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("analyst", "report", 0.5).unwrap());
    db
}

/// The analytics-shaped join, `orders ⋈ customers` on an indexed
/// `customers.id`: EXPLAIN ANALYZE and the `op:` trace spans name the
/// index join — table, alias and indexed column — with `rows_in` = the
/// left rows that probe + the right rows the index fetched; the build
/// side is not an operator, so no `TableScan customers` line exists; and
/// the annotated text is still the plan's `Display`, line for line.
#[test]
fn explain_analyze_and_the_trace_show_the_index_join() {
    let mut db = with_shop(Database::new(EngineConfig::default().sequential()));
    let sql = SHOP_JOIN;
    let text = explained(&mut db, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
    // 48 orders probe; the 40 that name customers 0–9 fetch two rows each.
    let join = "IndexJoin customers AS c (id) [#1 = #2] (rows_in=128 rows_out=80 ";
    assert!(text.contains(join), "{text}");
    assert!(
        text.contains("TableScan orders AS o [filter: (#0 < 48)] (rows_in=60 rows_out=48 "),
        "{text}"
    );
    assert!(!text.contains("TableScan customers"), "{text}");

    let physical = explained(&mut db, &format!("EXPLAIN {sql}")).unwrap();
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

/// One twin's run of the Figure 1 loop, under a manual clock at
/// `workers` workers: after every step, the step's name, the rendered
/// answer and the comparable metrics. `traced` switches the tracer on by
/// hand before the first step and draws the final query through
/// `trace_query`; the buffer is drained after every step, so nothing is
/// ever dropped (a drop would itself be counted in the metrics).
fn figure_one_script(workers: usize, traced: bool) -> Vec<(&'static str, String, Vec<String>)> {
    let mut db = common::paper_db(Database::with_clock(
        EngineConfig {
            worker_threads: Some(workers),
            ..EngineConfig::default()
        },
        Arc::new(ManualClock::new()),
    ));
    db.tracer().set_enabled(traced);
    let (sue, mark) = (User::new("sue", "Secretary"), User::new("mark", "Manager"));
    let (analysis, investment) = (
        QueryRequest::new(QUERY, "analysis"),
        QueryRequest::new(QUERY, "investment"),
    );
    let mut steps = Vec::new();
    let mut record = |db: &Database, step: &'static str, answer: String| {
        let trace = db.tracer().drain();
        assert_eq!(trace.dropped, 0, "{step}");
        steps.push((
            step,
            answer,
            common::comparable_metrics(&db.metrics_snapshot()),
        ));
    };

    let met = db.query(&sue, &analysis);
    record(&db, "query meeting θ", format!("{met:?}"));
    let missed = db.query(&mark, &investment).unwrap();
    let proposal = missed.proposal.clone().expect("the θ-miss proposes");
    record(&db, "θ-miss with a proposal", format!("{missed:?}"));
    let preview = db.what_if(&mark, &investment, &proposal);
    record(&db, "what_if", format!("{preview:?}"));
    let applied = db.apply(&proposal);
    record(&db, "apply", format!("{applied:?}"));
    let requeried = db.query(&mark, &investment);
    record(&db, "re-query", format!("{requeried:?}"));
    let batch = db.query_batch(&mark, &[investment.clone(), analysis.clone()]);
    record(&db, "query_batch", format!("{batch:?}"));
    let analyzed = explained(&mut db, &format!("EXPLAIN ANALYZE {QUERY}"));
    record(&db, "EXPLAIN ANALYZE", format!("{analyzed:?}"));
    let last = if traced {
        db.trace_query(&mark, &investment)
            .map(|(response, _)| response)
    } else {
        db.query(&mark, &investment)
    };
    record(&db, "trace_query vs query", format!("{last:?}"));
    steps
}

/// Metrics depend on the inputs only, never on whether someone else is
/// tracing: twin databases under one scripted clock, the second with its
/// tracer switched on by hand, run the same Figure 1 script — query,
/// θ-miss, `what_if`, `apply`, re-query, `query_batch`, `EXPLAIN ANALYZE`,
/// and `trace_query` against `query` — at 1 and at 4 workers, and after
/// every step their answers and metrics agree. (On the parent commit the
/// twins parted at `what_if`: while tracing, the engine handed the
/// scheduler a recorder-and-tracer pair whatever the stage, so a preview
/// that records nothing metered itself.)
#[test]
fn the_tracer_never_changes_the_metrics() {
    for workers in [1, 4] {
        let plain = figure_one_script(workers, false);
        let traced = figure_one_script(workers, true);
        assert_eq!(plain.len(), traced.len());
        for ((step, answer, metrics), (_, traced_answer, traced_metrics)) in
            plain.iter().zip(&traced)
        {
            assert_eq!(answer, traced_answer, "{workers} worker(s), step `{step}`");
            let only = |a: &[String], b: &[String]| -> Vec<String> {
                a.iter().filter(|line| !b.contains(line)).cloned().collect()
            };
            assert!(
                metrics == traced_metrics,
                "{workers} worker(s), step `{step}`: untraced only {:?}, traced only {:?}",
                only(metrics, traced_metrics),
                only(traced_metrics, metrics),
            );
        }
    }
}

/// The Figure 1 loop over both example databases on a manual clock at
/// `workers` workers — a θ = 0 query, a θ-miss, `what_if`, `apply`, a
/// re-query, `query_batch` and `EXPLAIN ANALYZE` — and what it left: the
/// comparable metrics, then the EXPLAIN ANALYZE texts of the paper query
/// and of the index join.
fn pinned_script(workers: usize) -> (Vec<String>, String, String) {
    let mut db = with_shop(common::paper_db(Database::with_clock(
        EngineConfig {
            worker_threads: Some(workers),
            ..EngineConfig::default()
        },
        Arc::new(ManualClock::new()),
    )));
    let (ana, mark) = (User::new("ana", "analyst"), User::new("mark", "Manager"));
    let report = |sql: &str, theta: f64| QueryRequest::new(sql, "report").expecting(theta);
    let investment = QueryRequest::new(QUERY, "investment");
    let met = db.query(&ana, &report(SHOP_JOIN, 0.0)).unwrap();
    assert_eq!((met.released.len(), met.withheld), (40, 40));
    let missed = db.query(&mark, &investment).unwrap();
    let proposal = missed.proposal.expect("the θ-miss proposes");
    db.what_if(&mark, &investment, &proposal).unwrap();
    db.apply(&proposal).unwrap();
    assert_eq!(db.query(&mark, &investment).unwrap().released.len(), 1);
    let narrow = "SELECT o.id, c.region FROM orders o JOIN customers c \
                  ON o.customer_id = c.id WHERE o.id < 12";
    let batch = db
        .query_batch(&ana, &[report(SHOP_JOIN, 0.0), report(narrow, 1.0)])
        .unwrap();
    assert!(batch.proposal.is_some(), "{:?}", batch.no_proposal);
    let paper = explained(&mut db, &format!("EXPLAIN ANALYZE {QUERY}")).unwrap();
    let join = explained(&mut db, &format!("EXPLAIN ANALYZE {SHOP_JOIN}")).unwrap();
    (
        common::comparable_metrics(&db.metrics_snapshot()),
        paper,
        join,
    )
}

/// What the recorder records and what EXPLAIN ANALYZE prints, pinned:
/// every comparable metric of [`pinned_script`] at 1 worker, and both
/// EXPLAIN ANALYZE texts byte for byte; at 2 workers all three are the
/// 1-worker ones, line for line. Recorded on the commit
/// before the recorder stopped allocating per update and the profiler
/// stopped labelling per query, where it passes unchanged — those changes
/// moved cost, not content. The one line that has left since is
/// `counter lineage.exact_rescored = 0`, with the counter: strategy
/// finding no longer re-scores β-skipped rows, and nothing else moved.
/// The two `plan.cache_*` lines came with the statement cache, every other
/// line unchanged: the first join and the first paper query miss, the
/// re-query and both batch members hit (the narrow join has the join's
/// shape), and the what-if preview hits without counting. When the paper
/// query's join became a hash join (it was a nested loop on its three
/// rows), the two-worker overrides moved, and only they: `par.chunks` and
/// `par.chunks_claimed` 45 → 43 and `par.worker_busy_seconds` 28 → 26.
/// The nested loop cut its two left rows into two chunks, one a lane; the
/// hash join's probe takes them as one morsel, on one lane, in each of the
/// query's two recorded runs. At one worker both were one chunk. When the
/// solvers stopped reading the wall clock, their three `solver.*.elapsed`
/// timings became the spans `query/propose/{greedy,heuristic}` and
/// `batch/multi`, and the gate, once a trace-only phase, gained its
/// `query/gate` span. With no wall-clock counter left to leave out, the
/// comparable lines gained `par.busy_nanos`, read on the manual clock;
/// nothing else moved. When the executor and the solvers' initial scoring
/// stopped dispatching through `pcqe-par`, the `par.*` values fell to
/// scoring's four batches (`par.batches`, `par.chunks`,
/// `par.chunks_claimed` and `par.worker_busy_seconds`' count 21 → 4,
/// `par.items` 564 → 82), no name came or went, and the two-worker
/// overrides went: a second worker no longer moves any line.
/// When scoring stopped cutting its pass into morsels and reporting a
/// batch per morsel, the seven `par.*` lines went, nothing came, and no
/// other line moved; EXPLAIN ANALYZE's scans lost their ` batches=1`.
/// When the recorder kept only counters and spans, the line that counted
/// `improvement.cost` observations went (each cost is in the audit log's
/// `Improvement` entry), and no other line moved.
#[test]
fn what_the_recorder_records_and_explain_analyze_prints_is_pinned() {
    let one = pinned_script(1);
    let (metrics, paper, join) = &one;
    assert_eq!(metrics, &PINNED_METRICS, "1 worker");
    assert_eq!(paper, PINNED_EXPLAIN_PAPER, "1 worker");
    assert_eq!(join, PINNED_EXPLAIN_JOIN, "1 worker");
    // A second worker changes nothing a recorder or EXPLAIN ANALYZE shows.
    let two = pinned_script(2);
    assert_eq!(two.0, one.0, "2 workers against 1, metric by metric");
    assert_eq!((two.1, two.2), (one.1, one.2), "2 workers against 1");
}

const PINNED_METRICS: [&str; 41] = [
    "counter exec.lineage_nodes = 1220",
    "counter exec.operators = 17",
    "counter exec.rows_out = 480",
    "counter improvement.applied = 1",
    "counter improvement.tuples = 1",
    "counter lineage.cache_hit = 336",
    "counter lineage.cache_invalidated = 3",
    "counter lineage.circuit_compiled = 81",
    "counter lineage.exact_skipped = 40",
    "counter plan.cache_hit = 3",
    "counter plan.cache_miss = 2",
    "counter policy.released = 91",
    "counter policy.withheld = 91",
    "counter query.proposals = 1",
    "counter query.total = 5",
    "counter solver.greedy.evals = 8",
    "counter solver.greedy.iterations = 1",
    "counter solver.greedy.reductions = 0",
    "counter solver.heuristic.complete = 1",
    "counter solver.heuristic.evals = 9",
    "counter solver.heuristic.incumbent_updates = 0",
    "counter solver.heuristic.nodes = 1",
    "counter solver.heuristic.pruned_bound = 0",
    "counter solver.heuristic.pruned_h2 = 0",
    "counter solver.heuristic.pruned_h3 = 1",
    "counter solver.heuristic.pruned_h4 = 0",
    "counter solver.multi.evals = 200",
    "counter solver.multi.iterations = 35",
    "counter solver.multi.reductions = 0",
    "counter solver.problem_bases = 3",
    "counter solver.quota.required = 1",
    "counter solver.quota.satisfied = 1",
    "span batch/multi count = 1",
    "span query count = 3",
    "span query/execute count = 3",
    "span query/gate count = 3",
    "span query/plan count = 3",
    "span query/propose count = 1",
    "span query/propose/greedy count = 1",
    "span query/propose/heuristic count = 1",
    "span query/score count = 3",
];

const PINNED_EXPLAIN_PAPER: &str = "\
Project DISTINCT [company, income] (rows_in=2 rows_out=1 lineage_nodes=7)
  HashJoin [#0 = #3] (rows_in=3 rows_out=2 lineage_nodes=6)
    TableScan Proposal [filter: (#2 < 1000000)] (rows_in=2 rows_out=2 lineage_nodes=2)
    TableScan CompanyInfo (rows_in=1 rows_out=1 lineage_nodes=1)
";

const PINNED_EXPLAIN_JOIN: &str = "\
Project [id, region] (rows_in=80 rows_out=80 lineage_nodes=240)
  IndexJoin customers AS c (id) [#1 = #2] (rows_in=128 rows_out=80 lineage_nodes=240)
    TableScan orders AS o [filter: (#0 < 48)] (rows_in=60 rows_out=48 lineage_nodes=48)
";

/// A clock that moves on by one microsecond at every read, so every span
/// that reads it twice lasts a while.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a test clock that moves on at every read"
)]
struct Ticking(AtomicU64);

impl Clock for Ticking {
    fn monotonic(&self) -> Duration {
        Duration::from_micros(self.0.fetch_add(1, Ordering::Relaxed) + 1)
    }
}

/// The recorder and the tracer hear one span stream: one traced θ-miss on
/// a clock that ticks at every read leaves the recorder the paths the
/// tracer's lifecycle spans nest into — `op:` spans are the tracer's
/// alone, and the solver spans inside `query/propose` the recorder's —
/// and no span outlasts its parent, nor do its children together. (On
/// the parent commit the gate was a trace-only phase: the recorder had no
/// `query/gate`.)
#[test]
fn the_recorder_and_the_tracer_hear_the_same_spans() {
    let mut db = common::paper_db(Database::with_clock(
        EngineConfig::default().sequential(),
        Arc::new(Ticking::default()),
    ));
    let user = User::new("mark", "Manager");
    let (response, trace) = db
        .trace_query(&user, &QueryRequest::new(QUERY, "investment"))
        .unwrap();
    assert!(response.proposal.is_some(), "{response:?}");

    let mut paths: BTreeMap<u64, String> = BTreeMap::new();
    for event in &trace.events {
        if let TraceEventKind::SpanBegin { id, parent, name } = &event.kind {
            if name.starts_with("op:") {
                continue;
            }
            let path = match parent.and_then(|p| paths.get(&p)) {
                Some(parent) => format!("{parent}/{name}"),
                None => name.clone(),
            };
            paths.insert(*id, path);
        }
    }
    let mut traced: Vec<&str> = paths.values().map(String::as_str).collect();
    traced.sort_unstable();
    assert_eq!(
        traced,
        [
            "query",
            "query/execute",
            "query/gate",
            "query/plan",
            "query/propose",
            "query/score"
        ]
    );

    let spans = db.metrics_snapshot().spans;
    let (solvers, lifecycle): (Vec<&str>, Vec<&str>) = (spans.keys())
        .map(String::as_str)
        .partition(|path| path.starts_with("query/propose/"));
    assert_eq!(lifecycle, traced);
    assert_eq!(solvers, ["query/propose/greedy", "query/propose/heuristic"]);
    for (path, stat) in &spans {
        assert_eq!(stat.count, 1, "{path}");
        assert!(stat.total_nanos > 0, "{path}");
        let children = spans
            .iter()
            .filter(|(child, _)| child.rsplit_once('/').map(|(p, _)| p) == Some(path.as_str()))
            .map(|(child, c)| {
                assert!(c.total_nanos <= stat.total_nanos, "{child} outlasts {path}");
                c.total_nanos
            });
        let together: u64 = children.sum();
        assert!(together <= stat.total_nanos, "{path}'s children outlast it");
    }
}
