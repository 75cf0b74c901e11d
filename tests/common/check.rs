//! The reference pipeline, and the one harness that holds every path to
//! it: [`check_sql`].
//!
//! The engine has one path (optimise → lower → vectorized execution →
//! cached, β-gated scoring). The suites hold it to the simplest code that
//! computes the same answers: the logical plan as `pcqe_sql` built it, the
//! tuple-at-a-time reference executor (`reference.rs`, which shares no
//! operator code with the engine's), the reference interpreter
//! (`interpreter.rs`, which shares no scoring code with the engine's
//! circuit pool) and the policy gate — no optimiser, no planner, no
//! batches, no circuit pool, no threads.

use super::interpreter;
use super::{execute, DbSpec};
use pcqe::algebra::{execute_vectorized_with, lower, optimize, PhysicalPlan, ResultSet};
use pcqe::algebra::{DerivedTuple, Result as AlgebraResult, ScoredTuple};
use pcqe::engine::{AuditEntry, Database, EngineConfig, QueryRequest, QueryResponse, User};
use pcqe::lineage::{bounds, CircuitCache, Evaluator, VarId};
use pcqe::par::Parallelism;
use pcqe::policy::{evaluate_results, ConfidencePolicy};
use pcqe::sql::parse_and_plan;
use pcqe::storage::{Catalog, TupleId};
use std::panic::AssertUnwindSafe;

/// Fail with a message unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($message:tt)+) => {
        if !$cond {
            return Err(format!($($message)+));
        }
    };
}

/// One query's reference answer: every row with its exact confidence in
/// row order, the indices the policy releases, how many it withholds, and
/// how many β-gated scoring may skip — those whose Fréchet upper bound is
/// already ≤ β.
pub struct Reference {
    pub scored: Vec<ScoredTuple>,
    pub released: Vec<usize>,
    pub withheld: usize,
    pub skippable: usize,
}

impl Reference {
    /// `rows` scored by the reference interpreter at the default budget
    /// and gated by `policy`.
    pub fn of(rows: &ResultSet, catalog: &Catalog, policy: &ConfidencePolicy) -> Reference {
        let probs = |v: VarId| catalog.confidence(TupleId(v.0));
        let scored = interpreter::score(rows, &probs, Evaluator::default().budget).unwrap();
        let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
        let decision = evaluate_results(policy, &confidences);
        let bound =
            |r: &&DerivedTuple| bounds(&r.lineage, &probs).unwrap().upper <= policy.threshold;
        let skippable = rows.rows().iter().filter(bound).count();
        let (released, withheld) = (decision.released, decision.withheld.len());
        Reference {
            scored,
            released,
            withheld,
            skippable,
        }
    }

    /// Whether `response` releases exactly this, gated at the same β: the
    /// same rows in the same order, lineage, confidence bits and withheld
    /// count.
    pub fn matches(
        &self,
        response: &QueryResponse,
        policy: &ConfidencePolicy,
    ) -> Result<(), String> {
        let threshold = response.threshold.to_bits() == policy.threshold.to_bits();
        ensure!(
            threshold,
            "threshold {} for β = {}",
            response.threshold,
            policy.threshold
        );
        let got = response
            .released
            .iter()
            .map(|r| (&r.tuple, &r.lineage, r.confidence.to_bits()));
        let want = self.released.iter().map(|&i| &self.scored[i]);
        let want = want.map(|s| (&s.tuple, &s.lineage, s.confidence.to_bits()));
        let (got, want): (Vec<_>, Vec<_>) = (got.collect(), want.collect());
        ensure!(got == want, "released {got:?}, reference {want:?}");
        ensure!(
            response.withheld == self.withheld,
            "withheld {}, reference {}",
            response.withheld,
            self.withheld
        );
        Ok(())
    }
}

/// `pcqe_sql` parse + plan → the reference [`execute`] →
/// [`interpreter::score`] → `evaluate_results`.
pub fn reference(sql: &str, catalog: &Catalog, policy: &ConfidencePolicy) -> Reference {
    let rows = execute(&parse_and_plan(sql, catalog).unwrap(), catalog).unwrap();
    Reference::of(&rows, catalog, policy)
}

/// Panic unless `response` releases exactly what the reference releases.
pub fn assert_matches_reference(
    response: &QueryResponse,
    expected: &Reference,
    policy: &ConfidencePolicy,
    context: &str,
) {
    if let Err(e) = expected.matches(response, policy) {
        panic!("{e} for {context}");
    }
}

/// The `(released, withheld)` counts of every query entry in the audit
/// log, in order.
pub fn audited_counts(db: &Database) -> Vec<(usize, usize)> {
    let counts = |e: &AuditEntry| match e {
        AuditEntry::Query {
            released, withheld, ..
        } => Some((*released, *withheld)),
        AuditEntry::Improvement { .. } => None,
    };
    db.audit_log().iter().filter_map(counts).collect()
}

/// An outcome in a line: its row count or its error.
fn describe(outcome: &Result<ResultSet, String>) -> String {
    match outcome {
        Ok(rows) => format!("Ok({} rows)", rows.len()),
        Err(e) => format!("Err({e:?})"),
    }
}

/// Run `physical` once and hold it to the reference's outcome: the
/// schema, rows, order and lineage, and cached scoring's confidence bits
/// against the interpreter's — or the same error. The executor runs on
/// the calling thread and reads no worker count, so one run is every run
/// (`tests/parallel_determinism.rs` holds answers to any count).
pub fn vexec_matches(
    expected: &Result<ResultSet, String>,
    physical: &PhysicalPlan,
    catalog: &Catalog,
) -> Result<(), String> {
    let got = execute_vectorized_with(physical, catalog, &Parallelism::sequential())
        .map_err(|e| e.to_string());
    let in_context = |e: String| format!("{e}\n{physical}");
    match (expected, &got) {
        (Ok(e), Ok(g)) => rows_identical(e, g, catalog).map_err(in_context),
        (Err(e), Err(g)) if e == g => Ok(()),
        (e, g) => Err(in_context(format!(
            "vectorized {}, reference {}",
            describe(g),
            describe(e)
        ))),
    }
}

/// Whether `got` is the reference's `expected` bit for bit, and whether
/// cached scoring of it reproduces the interpreter's confidence bits on
/// the reference's rows.
fn rows_identical(expected: &ResultSet, got: &ResultSet, catalog: &Catalog) -> Result<(), String> {
    ensure!(
        expected.schema() == got.schema(),
        "schema {:?}, reference {:?}",
        got.schema(),
        expected.schema()
    );
    ensure!(
        expected.len() == got.len(),
        "{} rows, reference {}",
        got.len(),
        expected.len()
    );
    for (i, (x, y)) in expected.rows().iter().zip(got.rows()).enumerate() {
        ensure!(x == y, "row {i}: {y:?}, reference {x:?}");
    }
    let (probs, ev) = (
        |v: VarId| catalog.confidence(TupleId(v.0)),
        Evaluator::default(),
    );
    let mut cache = CircuitCache::new();
    got.rows()
        .iter()
        .flat_map(|r| r.lineage.vars())
        .for_each(|v| cache.set_prob(v, probs(v).unwrap()));
    let bits = |s: Vec<ScoredTuple>| s.iter().map(|s| s.confidence.to_bits()).collect::<Vec<_>>();
    let interpreted = interpreter::score(expected, &probs, ev.budget);
    let reference = bits(interpreted.map_err(|e| e.to_string())?);
    let cached = bits(
        got.score_cached(&mut cache, &ev)
            .map_err(|e| e.to_string())?,
    );
    ensure!(
        reference == cached,
        "confidence bits {cached:x?}, interpreted {reference:x?}"
    );
    Ok(())
}

/// Panic unless `physical` runs to the reference's outcome
/// ([`vexec_matches`]).
pub fn assert_vexec_matches(
    expected: &AlgebraResult<ResultSet>,
    physical: &PhysicalPlan,
    catalog: &Catalog,
    context: &str,
) {
    if let Err(e) = vexec_matches(
        &expected.clone().map_err(|e| e.to_string()),
        physical,
        catalog,
    ) {
        panic!("{e}\nfor {context}");
    }
}

/// What every path agreed on: an answer of this many rows, or this error.
#[derive(Debug)]
pub enum Agreed {
    Rows(usize),
    Error(String),
}

/// The βs [`check_sql`] gates at: one on the confidence grid, where a
/// row's bound or confidence can equal it, and one off it.
pub const BETAS: [f64; 2] = [0.5, 0.3];

/// The one harness: run `sql` over `spec` three ways and require one
/// outcome — the rows, their order, lineage and confidence bits, the
/// withheld counts and the audit, or else the same error string:
///
/// 1. the reference: the reference executor ([`execute`]) on the plan as
///    the SQL planner built it, scored by the reference interpreter;
/// 2. optimise → lower → vectorized execution at 1, 4 and host threads,
///    over the database without its indexes and with them, the schema
///    unchanged;
/// 3. `Database::query` at each of [`BETAS`], with and without indexes,
///    whose β-gate skips exactly the rows whose bound is ≤ β.
///
/// A panic on any path is a failure too.
pub fn check_sql(spec: &DbSpec, sql: &str) -> Result<Agreed, String> {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| paths(spec, sql)));
    let panicked = |p: Box<dyn std::any::Any + Send>| {
        let message = p.downcast_ref::<&str>().map(|s| s.to_string());
        Err(format!(
            "panicked: {}",
            message
                .or(p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        ))
    };
    outcome
        .unwrap_or_else(panicked)
        .map_err(|e| format!("{sql}\n{e}"))
}

fn paths(spec: &DbSpec, sql: &str) -> Result<Agreed, String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let plain = spec.catalog(false);
    let planned = parse_and_plan(sql, &plain).map_err(|e| text(&e));
    let expected = planned.and_then(|plan| execute(&plan, &plain).map_err(|e| text(&e)));
    for catalog in [plain, spec.catalog(true)] {
        let planned = parse_and_plan(sql, &catalog).map_err(|e| text(&e));
        let physical = planned.and_then(|plan| {
            let physical = lower(&optimize(&plan, &catalog).map_err(|e| text(&e))?, &catalog)
                .map_err(|e| text(&e))?;
            let (before, after) = (plan.schema(&catalog), physical.schema(&catalog));
            ensure!(
                before == after,
                "schema {after:?}, planned {before:?}\n{physical}"
            );
            Ok(physical)
        });
        match physical {
            Ok(physical) => vexec_matches(&expected, &physical, &catalog)?,
            Err(e) => ensure!(
                expected.as_ref().err() == Some(&e),
                "planning: {e}, reference {}",
                describe(&expected)
            ),
        }
    }
    let user = User::new("ada", "analyst");
    let request = QueryRequest::new(sql, "research").expecting(0.0);
    let runs = [
        (BETAS[0], false, Some(1)),
        (BETAS[0], true, None),
        (BETAS[1], false, Some(4)),
        (BETAS[1], true, Some(1)),
    ];
    for (beta, indexed, worker_threads) in runs {
        let mut db = spec.database(
            EngineConfig {
                worker_threads,
                ..EngineConfig::default()
            },
            indexed,
        );
        let policy = ConfidencePolicy::new("analyst", "research", beta).unwrap();
        db.add_policy(policy.clone());
        let context = format!(
            "Database::query at β = {beta}, threads {worker_threads:?}, indexed = {indexed}"
        );
        let in_context = |e: String| format!("{e} ({context})");
        match (&expected, db.query(&user, &request)) {
            (Ok(rows), Ok(response)) => {
                let reference = Reference::of(rows, db.catalog(), &policy);
                let schema = response.schema == *rows.schema();
                ensure!(
                    schema,
                    "{}",
                    in_context(format!("schema {:?}", response.schema))
                );
                reference.matches(&response, &policy).map_err(in_context)?;
                let (audited, want) = (
                    audited_counts(&db).pop(),
                    (reference.released.len(), reference.withheld),
                );
                ensure!(
                    audited == Some(want),
                    "{}",
                    in_context(format!("audited {audited:?}, reference {want:?}"))
                );
                let skipped = db.metrics_snapshot().counter("lineage.exact_skipped") as usize;
                let skip = format!("β-skipped {skipped}, bound ≤ β on {}", reference.skippable);
                ensure!(skipped == reference.skippable, "{}", in_context(skip));
            }
            (Err(e), Err(got)) => ensure!(
                got.to_string().ends_with(e.as_str()),
                "{}",
                in_context(format!("error {got}, reference {e}"))
            ),
            (e, got) => {
                let got = got
                    .map(|r| format!("Ok({} released, {} withheld)", r.released.len(), r.withheld));
                return Err(in_context(format!("{got:?}, reference {}", describe(e))));
            }
        }
    }
    Ok(match expected {
        Ok(rows) => Agreed::Rows(rows.len()),
        Err(e) => Agreed::Error(e),
    })
}
