//! The traced run: the first 20 % of the op stream, each op once through
//! `Database` (untraced latency, allocation counts, the engine's own
//! recorder) and once through the staged replay with a span around every
//! stage. Every replayed reply must equal the engine's; the per-layer
//! metrics come out of the spans and the counters taken beside them.

use crate::adapter::{Reply, Staged};
use crate::check::Fnv;
use crate::driver::{engine_config, trimmed, Done, Engine, WORKER_THREADS};
use crate::rounds::{class_medians, ms, tally};
use crate::spans::{Span, Spans, NO_PARENT};
use crate::stats;
use crate::workload::{Class, Op, Workload, PURPOSE, ROLE};
use pcqe_engine::QueryRequest;
use pcqe_storage::TupleId;
use std::collections::BTreeMap;

/// `op_id` of spans recorded while loading and warming up.
const SETUP_OP: u32 = u32::MAX;

/// Lifecycle phases the engine's recorder times inside `Database::query`,
/// with the replay stages each one covers.
const PHASES: [(&str, &[&str]); 4] = [
    ("plan", &["sql.parse", "sql.plan", "algebra.optimize"]),
    ("execute", &["algebra.lower", "algebra.execute"]),
    ("score", &["lineage.sync_probs", "algebra.score"]),
    (
        "propose",
        &[
            "core.build_problem",
            "core.solve_heuristic",
            "core.solve_greedy",
            "core.solve_dnc",
            "core.increments",
        ],
    ),
];

/// A phase this small a share of recorded query time is not gap-checked.
const GAP_CHECK_MIN_SHARE: f64 = 0.05;
/// Largest gap between replay and recorder a checked phase may show.
const GAP_LIMIT_PCT: f64 = 20.0;

/// What a traced run produced.
pub struct Traced {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<String, f64>,
    /// Ops run through `Database`, warm-up included.
    pub attempted: u64,
    /// Ops that failed a check on either side or whose replay differed.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// Phases whose recorder gap exceeds the limit, for `--check`.
    pub gap_violations: Vec<String>,
    /// The replay's spans.
    pub spans: Spans,
}

/// The replay's op interpreter: `improve_loop`'s cycle state, with the
/// proposals taken from the engine's pass so both sides apply the same
/// increments whatever solver either one ran.
struct Replayer {
    staged: Staged,
    pending: Option<(QueryRequest, Vec<(TupleId, f64)>)>,
}

fn digest_all(replies: &[Reply]) -> u64 {
    let mut h = Fnv::new();
    for reply in replies {
        h.word(reply.view().digest());
    }
    h.finish()
}

impl Replayer {
    /// Replay `op`; returns the reply digest to hold against the engine's.
    fn run(&mut self, spans: &mut Spans, op: &Op, engine: &Done) -> Result<u64, String> {
        match op {
            Op::Query { class, request, .. } => {
                let reply = self.staged.query(spans, *class, request)?;
                if class.is_miss() {
                    let increments = engine.increments.clone().ok_or("engine had no proposal")?;
                    self.pending = Some((request.clone(), increments));
                }
                Ok(reply.view().digest())
            }
            Op::WhatIf(keep) => {
                let (request, increments) = self.pending.as_ref().ok_or("no cycle")?;
                let reply = self
                    .staged
                    .what_if(spans, request, &trimmed(increments, *keep))?;
                Ok(reply.view().digest())
            }
            Op::Apply => {
                let (_, increments) = self.pending.as_ref().ok_or("no cycle")?;
                self.staged.apply(spans, increments).map(|()| 0)
            }
            Op::Insert(row) => self.staged.insert(spans, row).map(|id| id.0),
            Op::Batch { requests, .. } => {
                let replies = self.staged.batch(spans, requests)?;
                Ok(digest_all(&replies))
            }
        }
    }
}

/// Sum of `own[i]` over the spans `keep` selects, by span name.
fn totals_by_name(
    spans: &[Span],
    own: &[u64],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, &ns) in spans.iter().zip(own) {
        if keep(span) {
            *totals.entry(span.name).or_insert(0) += ns;
        }
    }
    totals
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run the traced passes over `workload`.
pub fn run(workload: &Workload) -> Result<Traced, String> {
    let prefix = &workload.ops[..workload.traced_prefix];
    let n = prefix.len();
    if n == 0 {
        return Err("the traced prefix is empty; raise --seconds".to_owned());
    }
    let (mut failed, mut failures) = (0, Vec::new());

    // Both sides are loaded up front and take turns op by op, so that
    // whatever the box does to one it does to the other: run one after
    // the other, the two drifted apart by ±20 % on this shared machine.
    let mut engine = Engine::setup(workload)?;
    let mut spans = Spans::new();
    spans.set_op(SETUP_OP);
    let mut replayer = Replayer {
        staged: Staged::new(engine_config(), ROLE, PURPOSE),
        pending: None,
    };
    replayer
        .staged
        .load(&mut spans, &workload.tables, &workload.rows, workload.beta)?;
    for (i, op) in workload.warmup.iter().enumerate() {
        let done = engine.run(op);
        replayer.run(&mut spans, op, &done)?;
        tally(done.failure, i, &mut failed, &mut failures);
    }

    let before = engine.metrics();
    let counters_before = replayer.staged.counters.clone();
    let cache_before = replayer.staged.cache_stats();
    let mut dones = Vec::with_capacity(n);
    for (i, op) in prefix.iter().enumerate() {
        let mut done = engine.run(op);
        spans.set_op(i as u32);
        let root = spans.begin("op");
        let replayed = replayer.run(&mut spans, op, &done);
        spans.end(root);
        let differs = match replayed {
            Ok(digest) if digest == done.reply => None,
            Ok(_) => Some("the staged replay's reply differs from Database's".to_owned()),
            Err(why) => Some(format!("staged replay: {why}")),
        };
        tally(
            done.failure.take().or(differs),
            i,
            &mut failed,
            &mut failures,
        );
        dones.push(done);
    }
    let after = engine.metrics();

    // θ-misses again at θ = 0, after the recorder was read, so the probes
    // are in no cross-check.
    let mut strategy_path_ns: i64 = 0;
    let mut misses: u64 = 0;
    for (op, done) in prefix.iter().zip(&dones) {
        if let Op::Query { class, request, .. } = op {
            if class.is_miss() {
                let plain = engine.latency_without_strategy(request)?;
                strategy_path_ns += done.latency_ns as i64 - plain as i64;
                misses += 1;
            }
        }
    }
    drop(engine);

    // Spans → stage times.
    let all = spans.all();
    let own = stats::self_times(all);
    let is_op = |s: &Span| s.op_id != SETUP_OP;
    let is_query = |s: &Span| is_op(s) && matches!(prefix[s.op_id as usize], Op::Query { .. });
    let stage = totals_by_name(all, &own, |s| is_op(s) && s.parent != NO_PARENT);
    let query_stage = totals_by_name(all, &own, |s| is_query(s) && s.parent != NO_PARENT);
    let setup = totals_by_name(all, &own, |s| !is_op(s));
    let traced_ns: u64 = all
        .iter()
        .filter(|s| is_op(s) && s.parent == NO_PARENT)
        .map(Span::nanos)
        .sum();
    let stage_ns: u64 = stage.values().sum();
    let engine_ns: u64 = dones.iter().map(|d| d.latency_ns).sum();
    let per_op_ms = |names: &[&str]| {
        let ns: u64 = names.iter().filter_map(|name| stage.get(name)).sum();
        ms(ns) / n as f64
    };

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    put("sql.parse_ms", per_op_ms(&["sql.parse"]));
    put("sql.plan_ms", per_op_ms(&["sql.plan"]));
    put("algebra.optimize_ms", per_op_ms(&["algebra.optimize"]));
    put("algebra.lower_ms", per_op_ms(&["algebra.lower"]));
    put("algebra.execute_ms", per_op_ms(&["algebra.execute"]));
    put(
        "algebra.score_ms",
        per_op_ms(&["algebra.score", "algebra.rescore_exact"]),
    );
    put("lineage.sync_probs_ms", per_op_ms(&["lineage.sync_probs"]));
    put(
        "policy.select_gate_us",
        per_op_ms(&["policy.select", "policy.gate"]) * 1e3,
    );
    put(
        "core.build_problem_ms",
        per_op_ms(&["core.build_problem", "core.increments"]),
    );
    put(
        "core.solve_heuristic_ms",
        per_op_ms(&["core.solve_heuristic"]),
    );
    put("core.solve_greedy_ms", per_op_ms(&["core.solve_greedy"]));
    put("core.solve_dnc_ms", per_op_ms(&["core.solve_dnc"]));
    put("core.solve_multi_ms", per_op_ms(&["core.solve_multi"]));
    put("engine.materialize_ms", per_op_ms(&["engine.materialize"]));
    put("storage.apply_us", per_op_ms(&["storage.apply"]) * 1e3);

    // Counters taken at the same boundaries.
    let c = &replayer.staged.counters;
    let delta = |f: fn(&crate::adapter::Counters) -> u64| f(c) - f(&counters_before);
    let rows_out = delta(|c| c.rows_out);
    put(
        "algebra.rows_out_per_op",
        ratio(rows_out, delta(|c| c.executions)),
    );
    put(
        "algebra.rows_scanned_per_row_out",
        ratio(delta(|c| c.rows_scanned), rows_out),
    );
    put(
        "algebra.lineage_nodes_per_op",
        ratio(delta(|c| c.lineage_nodes), delta(|c| c.executions)),
    );
    let cache = replayer.staged.cache_stats();
    let compiled = cache.compiled - cache_before.compiled;
    let compile_hits = cache.compile_hits - cache_before.compile_hits;
    put(
        "lineage.compile_hit_ratio",
        ratio(compile_hits, compile_hits + compiled),
    );
    let exact_rows = delta(|c| c.rows_scored) - delta(|c| c.exact_skipped);
    put(
        "lineage.eval_hits_per_row",
        ratio(cache.eval_hits - cache_before.eval_hits, exact_rows),
    );
    put(
        "lineage.exact_skipped_ratio",
        ratio(delta(|c| c.exact_skipped), delta(|c| c.rows_scored)),
    );
    put(
        "lineage.pool_nodes_end",
        replayer.staged.pool_nodes() as f64,
    );
    let requeries = prefix
        .iter()
        .filter(|op| op.class() == Class::Requery)
        .count() as u64;
    put(
        "lineage.invalidated_per_apply",
        ratio(delta(|c| c.invalidated_after_apply), requeries),
    );
    let rescore_ns: u64 = all
        .iter()
        .zip(&own)
        .filter(|(s, _)| is_op(s) && prefix[s.op_id as usize].class() == Class::Requery)
        .filter(|(s, _)| matches!(s.name, "lineage.sync_probs" | "algebra.score"))
        .map(|(_, &ns)| ns)
        .sum();
    put(
        "lineage.rescore_after_apply_ms",
        ms(rescore_ns) / requeries.max(1) as f64,
    );
    put(
        "core.greedy_iterations_per_op",
        ratio(delta(|c| c.greedy_iterations), n as u64),
    );
    put(
        "core.heuristic_nodes_per_op",
        ratio(delta(|c| c.heuristic_nodes), n as u64),
    );
    put(
        "core.bases_per_problem",
        ratio(delta(|c| c.bases), delta(|c| c.problems)),
    );
    put(
        "core.proposal_cost_sum",
        dones.iter().map(|d| d.proposal_cost).sum(),
    );

    // Storage: every insert (load and op stream) and every index build.
    let inserts = all.iter().filter(|s| s.name == "storage.insert").count() as u64;
    let insert_ns = setup.get("storage.insert").copied().unwrap_or(0)
        + stage.get("storage.insert").copied().unwrap_or(0);
    put("storage.insert_us", ratio(insert_ns, inserts) / 1e3);
    put(
        "storage.index_build_ms",
        ms(setup.get("storage.index_build").copied().unwrap_or(0)),
    );
    put("storage.rows_loaded", workload.rows.len() as f64);

    // The engine's own view of the same ops.
    let counter = |name: &str| after.counter(name) - before.counter(name);
    put(
        "par.batches_per_op",
        ratio(counter("par.batches"), n as u64),
    );
    put(
        "par.busy_ratio",
        ratio(counter("par.busy_nanos"), engine_ns * WORKER_THREADS as u64),
    );
    let span_stat = |path: &str| {
        let get =
            |snap: &pcqe_obs::MetricsSnapshot| snap.spans.get(path).copied().unwrap_or_default();
        let (a, b) = (get(&after), get(&before));
        (a.count - b.count, a.total_nanos - b.total_nanos)
    };
    put("engine.strategy_ops", span_stat("query/propose").0 as f64);
    put(
        "engine.strategy_path_ms",
        ms(strategy_path_ns.max(0) as u64) / misses.max(1) as f64,
    );
    // Audit entries mirror these two counters by construction.
    put(
        "engine.audit_entries_end",
        (after.counter("query.total") + after.counter("improvement.applied")) as f64,
    );
    let recorded_query_ns = span_stat("query").1;
    let mut gap_violations = Vec::new();
    for (phase, stages) in PHASES {
        let recorded = span_stat(&format!("query/{phase}")).1;
        let replayed: u64 = stages.iter().filter_map(|s| query_stage.get(s)).sum();
        let gap = if recorded == 0 {
            0.0
        } else {
            100.0 * (replayed as f64 - recorded as f64) / recorded as f64
        };
        put(&format!("engine.recorder_gap_{phase}_pct"), gap);
        let share = ratio(recorded, recorded_query_ns);
        if share >= GAP_CHECK_MIN_SHARE && gap.abs() > GAP_LIMIT_PCT {
            gap_violations.push(format!(
                "query/{phase}: replay {gap:+.1} % off the recorder ({:.0} % of query time)",
                100.0 * share
            ));
        }
    }

    // Attribution: stage self times + unattributed = untraced op time.
    let unattributed_ns = stats::unattributed(engine_ns, stage_ns);
    put(
        "engine.unattributed_ms",
        unattributed_ns as f64 / 1e6 / n as f64,
    );
    put(
        "engine.unattributed_pct",
        100.0 * unattributed_ns as f64 / engine_ns as f64,
    );
    put(
        "engine.trace_overhead_pct",
        100.0 * (traced_ns as f64 - engine_ns as f64) / engine_ns as f64,
    );
    put("engine.traced_ops", n as f64);
    put(
        "engine.allocs_per_op",
        ratio(dones.iter().map(|d| d.allocs).sum(), n as u64),
    );
    put(
        "engine.alloc_bytes_per_op",
        ratio(dones.iter().map(|d| d.alloc_bytes).sum(), n as u64),
    );
    let samples: Vec<(Class, u64)> = prefix
        .iter()
        .zip(&dones)
        .map(|(op, d)| (op.class(), d.latency_ns))
        .collect();
    let mut sorted: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
    sorted.sort_unstable();
    // 0 where the traced prefix is too short to support a p99.
    put(
        "engine.latency_p99_ms",
        stats::percentile(&sorted, 99.0).map_or(0.0, ms),
    );
    for class in Class::ALL {
        put(&format!("engine.{}_p50_ms", class.name()), 0.0);
    }
    for (class, median_ms, _) in class_medians(&samples) {
        put(&format!("engine.{}_p50_ms", class.name()), median_ms);
    }

    Ok(Traced {
        metrics: m,
        attempted: (workload.warmup.len() + n) as u64,
        failed,
        failures,
        gap_violations,
        spans,
    })
}
