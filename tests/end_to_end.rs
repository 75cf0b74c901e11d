//! End-to-end scenarios across the whole stack: role hierarchies, partial
//! fractions, provenance-backed inserts, union/except queries, and the
//! improvement loop in each solver's size regime.

#![allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract

mod common;

use common::DbSpec;
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, NoProposal, QueryRequest, User};
use pcqe::policy::{ConfidencePolicy, Role};
use pcqe::provenance::{CollectionMethod, ProvenanceRecord, Source};
use pcqe::storage::{Column, DataType, Schema, TupleId, Value};

fn orders_db(config: EngineConfig) -> Database {
    let rows = [
        ("west", 100.0, 0.9),
        ("west", 200.0, 0.3),
        ("west", 300.0, 0.25),
        ("east", 400.0, 0.35),
        ("east", 500.0, 0.9),
        ("east", 600.0, 0.2),
    ];
    let rows = rows
        .iter()
        .enumerate()
        .map(|(i, &(region, amount, confidence))| {
            (
                confidence,
                vec![
                    Value::Int(i as i64),
                    Value::text(region),
                    Value::Real(amount),
                ],
            )
        });
    let (int, text, real) = (DataType::Int, DataType::Text, DataType::Real);
    let spec = DbSpec::default()
        .table("Orders", &[("id", int), ("region", text), ("amount", real)])
        .rows(rows);
    let mut db = spec.database(config, false);
    for i in 0..6 {
        db.set_cost(TupleId(i), CostFn::linear(10.0 * (i + 1) as f64).unwrap())
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("clerk", "reporting", 0.5).unwrap());
    db
}

#[test]
fn fraction_request_yields_minimal_proposal() {
    let mut db = orders_db(EngineConfig::default());
    let clerk = User::new("carl", "clerk");
    // 2 of 6 rows pass already; ask for two thirds → 2 more needed.
    let request =
        QueryRequest::new("SELECT id, amount FROM Orders", "reporting").expecting(2.0 / 3.0);
    let resp = db.query(&clerk, &request).unwrap();
    assert_eq!(resp.released.len(), 2);
    let proposal = resp.proposal.clone().expect("improvable");
    assert_eq!(proposal.requested, 4);
    assert_eq!(proposal.projected_released, 4);
    db.apply(&proposal).unwrap();
    let resp = db.query(&clerk, &request).unwrap();
    assert!(resp.released.len() >= 4);
    assert!(matches!(resp.no_proposal, Some(NoProposal::NotNeeded)));
}

/// `apply` is all or nothing. `increments` is a public field, so a
/// proposal can reach `apply` with an increment the catalog refuses; a
/// refusal of the *last* one must not leave the earlier ones raised,
/// unaudited, behind a version the original proposal still matches.
#[test]
fn a_refused_apply_changes_nothing() {
    use pcqe::engine::EngineError;
    use pcqe::storage::{StorageError, TupleId};

    let mut db = orders_db(EngineConfig::default());
    let clerk = User::new("carl", "clerk");
    let request =
        QueryRequest::new("SELECT id, amount FROM Orders", "reporting").expecting(2.0 / 3.0);
    let proposal = db.query(&clerk, &request).unwrap().proposal.unwrap();
    assert!(proposal.increments.len() >= 2, "an earlier raise to leak");
    let confidences = |db: &Database| -> Vec<u64> {
        let orders = db.catalog().table("Orders").unwrap();
        orders
            .rows()
            .iter()
            .map(|r| r.confidence.get().to_bits())
            .collect()
    };
    let (before, audited) = (confidences(&db), db.audit_log().len());

    let mut nan_last = proposal.clone();
    nan_last.increments.last_mut().unwrap().to = f64::NAN;
    let mut unknown_last = proposal.clone();
    unknown_last.increments.last_mut().unwrap().tuple_id = TupleId(9_999);
    // The error is the first offending increment's, as when they were
    // applied one by one.
    let mut unknown_first = nan_last.clone();
    unknown_first.increments[0].tuple_id = TupleId(9_999);
    for (bad, unknown) in [
        (nan_last, false),
        (unknown_last, true),
        (unknown_first, true),
    ] {
        match db.apply(&bad) {
            Err(EngineError::Storage(StorageError::UnknownTuple(9_999))) => assert!(unknown),
            Err(EngineError::Storage(StorageError::InvalidConfidence(_))) => assert!(!unknown),
            other => panic!("refusal expected, got {other:?}"),
        }
        assert_eq!(confidences(&db), before, "a refused apply raised a tuple");
        assert_eq!(db.audit_log().len(), audited, "a refused apply was audited");
    }

    // The untouched proposal is as applicable as it was: same version,
    // same starting confidences, one audit entry.
    db.apply(&proposal).unwrap();
    assert_eq!(db.audit_log().len(), audited + 1);
    for inc in &proposal.increments {
        assert_eq!(db.catalog().confidence(inc.tuple_id), Some(inc.to));
    }
    assert!(db.query(&clerk, &request).unwrap().released.len() >= 4);
}

/// `what_if` previews what `apply` would do — so it refuses what `apply`
/// refuses, a stale proposal included, and a raise it previews never
/// lowers. `increments` is a
/// public field: a hand-edited proposal used to come back `Ok` with rows
/// "released" at confidence 7.0, or with the preview *lowered* by a
/// `to` below the stored value.
#[test]
fn what_if_refuses_what_apply_refuses_and_previews_what_apply_does() {
    use pcqe::engine::{EngineError, ImprovementProposal, QueryResponse};
    use pcqe::storage::{StorageError, TupleId};

    let clerk = User::new("carl", "clerk");
    let request =
        QueryRequest::new("SELECT id, amount FROM Orders", "reporting").expecting(2.0 / 3.0);
    let released = |resp: &QueryResponse| -> Vec<(String, u64)> {
        resp.released
            .iter()
            .map(|r| (format!("{:?}", r.tuple), r.confidence.to_bits()))
            .collect()
    };

    let mut db = orders_db(EngineConfig::default());
    let first = db.query(&clerk, &request).unwrap();
    let proposal = first.proposal.clone().expect("improvable");
    assert!(proposal.increments.len() >= 2);
    let edited = |edit: &dyn Fn(&mut pcqe::engine::ProposedIncrement)| -> ImprovementProposal {
        let mut p = proposal.clone();
        p.increments.iter_mut().for_each(edit);
        p
    };

    for (bad, unknown) in [
        (edited(&|i| i.to = 7.0), false),
        (edited(&|i| i.to = f64::NAN), false),
        (edited(&|i| i.to = -1.0), false),
        (edited(&|i| i.tuple_id = TupleId(9_999)), true),
    ] {
        let (audited, metrics) = (db.audit_log().len(), db.metrics_snapshot());
        match db.what_if(&clerk, &request, &bad) {
            Err(EngineError::Storage(StorageError::UnknownTuple(9_999))) => assert!(unknown),
            Err(EngineError::Storage(StorageError::InvalidConfidence(_))) => assert!(!unknown),
            other => panic!("refusal expected, got {other:?}"),
        }
        assert_eq!(
            db.audit_log().len(),
            audited,
            "a refused preview was audited"
        );
        assert_eq!(
            db.metrics_snapshot(),
            metrics,
            "a refused preview was metered"
        );
        let again = db.query(&clerk, &request).unwrap();
        assert_eq!(released(&again), released(&first));
    }

    // The preview is `apply` + `query` on a twin — for the proposal as
    // computed, and for one whose every `to` lies below the stored
    // confidence, which `apply` leaves where it is.
    for previewed in [proposal.clone(), edited(&|i| i.to = 0.0)] {
        let preview = db.what_if(&clerk, &request, &previewed).unwrap();
        let mut twin = orders_db(EngineConfig::default());
        let mut accepted = twin.query(&clerk, &request).unwrap().proposal.unwrap();
        accepted.increments = previewed.increments.clone();
        twin.apply(&accepted).unwrap();
        let applied = twin.query(&clerk, &request).unwrap();
        assert_eq!(released(&preview), released(&applied));
    }
    assert_eq!(
        released(&db.query(&clerk, &request).unwrap()),
        released(&first)
    );

    // A write moves the version past the proposal's: `apply` refuses it
    // as stale, and so does the preview — before anything is evaluated,
    // so nothing is audited or metered. It used to preview five rows.
    db.execute("INSERT INTO Orders VALUES (99, 'x', 5.0) WITH CONFIDENCE 0.9")
        .unwrap();
    let (audited, metrics) = (db.audit_log().len(), db.metrics_snapshot());
    let preview = db.what_if(&clerk, &request, &proposal);
    assert!(
        matches!(preview, Err(EngineError::StaleProposal)),
        "a stale proposal was previewed: {preview:?}"
    );
    assert_eq!(db.audit_log().len(), audited, "a stale preview was audited");
    assert_eq!(
        db.metrics_snapshot(),
        metrics,
        "a stale preview was metered"
    );
    assert!(matches!(
        db.apply(&proposal),
        Err(EngineError::StaleProposal)
    ));
}

/// θ is read clamped into [0, 1] however it was set. `min_fraction` is a
/// public field, so it can bypass `expecting`: a θ of 2 used to ask for
/// twice the rows there are, and the strategy finder reported that as
/// `NonMonotone` instead of proposing what θ = 1 gets.
#[test]
fn a_fraction_set_by_hand_is_read_like_expecting_reads_it() {
    let clerk = User::new("carl", "clerk");
    let answer = |theta: f64| {
        let mut request = QueryRequest::new("SELECT id, amount FROM Orders", "reporting");
        request.min_fraction = theta;
        let response = orders_db(EngineConfig::default()).query(&clerk, &request);
        format!("{:?}", response.unwrap())
    };
    assert!(answer(1.0).contains("proposal: Some"), "{}", answer(1.0));
    for (theta, read_as) in [
        (2.0, 1.0),
        (f64::INFINITY, 1.0),
        (-1.0, 0.0),
        (f64::NAN, 0.0),
    ] {
        assert_eq!(answer(theta), answer(read_as), "θ = {theta}");
    }
}

/// The engine picks its solver by the problem's size alone: exact search
/// up to 12 base tuples, divide-and-conquer past 64 results, greedy in
/// between. One instance per regime, each told apart by the counters its
/// solver leaves; the 12-base instance has 66 results, so it reaches the
/// exact search only because the base rule is tried first. Applying each
/// proposal releases what it projected, at least ⌈θ·n⌉ rows.
#[test]
fn each_size_regime_gets_its_solver_and_reaches_the_quota() {
    // Every pair of 12 rows at 0.6 (each pair at 0.36), or 40 or 80 rows
    // at 0.3, all below β = 0.5.
    let pairs = "SELECT a.id AS lo, b.id AS hi FROM t a JOIN t b ON a.g = b.g WHERE a.id < b.id";
    let singles = "SELECT id FROM t";
    // Rows of `t` and their confidence, the query, θ, and the solvers
    // whose counters it leaves.
    let solvers = ["solver.greedy.", "solver.heuristic.", "solver.dnc."];
    let [greedy, exact, dnc] = solvers;
    let regimes: [(i64, f64, &str, f64, &[&str]); 3] = [
        (12, 0.6, pairs, 0.01, &[greedy, exact]),
        (40, 0.3, singles, 1.0, &[greedy]),
        (80, 0.3, singles, 1.0, &[dnc]),
    ];
    let clerk = User::new("carl", "clerk");
    for (rows, confidence, sql, theta, expected) in regimes {
        let int = DataType::Int;
        let spec = DbSpec::default()
            .table("t", &[("id", int), ("g", int)])
            .rows((0..rows).map(|i| (confidence, vec![Value::Int(i), Value::Int(0)])));
        let mut db = spec.database(EngineConfig::default(), false);
        db.add_policy(ConfidencePolicy::new("clerk", "reporting", 0.5).unwrap());
        let request = QueryRequest::new(sql, "reporting").expecting(theta);
        let first = db.query(&clerk, &request).unwrap();
        let n = first.released.len() + first.withheld;
        let proposal = first.proposal.expect("a proposal");

        let counters = db.metrics_snapshot().counters;
        let ran: Vec<&str> = solvers
            .into_iter()
            .filter(|s| counters.keys().any(|k| k.starts_with(s)))
            .collect();
        assert_eq!(ran, expected, "{rows} rows: {sql}");
        let positive = |name: &str| counters.get(name).is_some_and(|&v| v > 0);
        match rows {
            12 => assert!(positive("solver.heuristic.nodes")),
            80 => assert!(positive("solver.dnc.groups")),
            _ => assert!(positive("solver.greedy.iterations")),
        }

        let projected = proposal.projected_released;
        db.apply(&proposal).unwrap();
        let released = db.query(&clerk, &request).unwrap().released.len();
        assert_eq!(released, projected, "{rows} rows: {sql}");
        assert!(released >= (theta * n as f64).ceil() as usize);
    }
}

/// The optimiser (predicate pushdown, product→join conversion) never
/// changes an answer: the engine always optimises, and must release what
/// the reference pipeline — which runs the plan exactly as `pcqe_sql`
/// built it — releases: same rows, order, lineage and confidence bits.
#[test]
fn optimized_plans_match_the_unoptimized_reference() {
    let queries = [
        "SELECT id, amount FROM Orders WHERE region = 'west' AND amount > 150.0",
        "SELECT region, COUNT(*) AS n FROM Orders GROUP BY region ORDER BY region",
        "SELECT o.id FROM Orders o JOIN Orders p ON o.region = p.region WHERE o.amount < p.amount",
    ];
    let mut db = orders_db(EngineConfig::default());
    let policy = ConfidencePolicy::new("clerk", "audit", 0.0).unwrap();
    db.add_policy(policy.clone());
    let clerk = User::new("carl", "clerk");
    for sql in queries {
        let expected = common::reference(sql, db.catalog(), &policy);
        assert!(!expected.released.is_empty(), "{sql} must release rows");
        let got = db.query(&clerk, &QueryRequest::new(sql, "audit")).unwrap();
        common::assert_matches_reference(&got, &expected, &policy, sql);
    }
    // And the optimiser does something here: the join query's optimised
    // plan differs from the one the planner built.
    let planned = pcqe::sql::parse_and_plan(queries[2], db.catalog()).unwrap();
    let optimized = pcqe::algebra::optimize(&planned, db.catalog()).unwrap();
    assert_ne!(optimized, planned);
}

#[test]
fn purpose_specialisation_applies_policies() {
    let mut db = orders_db(EngineConfig::default());
    db.add_purpose_specialisation(
        &pcqe::policy::Purpose::new("quarterly-close"),
        &pcqe::policy::Purpose::new("reporting"),
    )
    .unwrap();
    let resp = db
        .query(
            &User::new("carl", "clerk"),
            &QueryRequest::new("SELECT id FROM Orders", "quarterly-close"),
        )
        .unwrap();
    assert_eq!(resp.threshold, 0.5, "specialised purpose found the policy");
}

#[test]
fn role_hierarchy_applies_policies_to_seniors() {
    let mut db = orders_db(EngineConfig::default());
    db.add_role_inheritance(&Role::new("supervisor"), &Role::new("clerk"))
        .unwrap();
    let boss = User::new("beth", "supervisor");
    let resp = db
        .query(
            &boss,
            &QueryRequest::new("SELECT id FROM Orders", "reporting"),
        )
        .unwrap();
    assert_eq!(resp.threshold, 0.5, "inherited the clerk policy");
}

#[test]
fn provenance_assessed_rows_flow_through_policies() {
    let mut db = Database::new(EngineConfig::default());
    db.create_table(
        "Readings",
        Schema::new(vec![Column::new("v", DataType::Int)]).unwrap(),
    )
    .unwrap();
    let strong = Source::new("calibrated-sensor", 0.95).unwrap();
    let weak = Source::new("crowd-report", 0.3).unwrap();
    db.insert_assessed(
        "Readings",
        vec![Value::Int(1)],
        &[ProvenanceRecord::new(strong, CollectionMethod::Automated)],
    )
    .unwrap();
    db.insert_assessed(
        "Readings",
        vec![Value::Int(2)],
        &[ProvenanceRecord::new(
            weak,
            CollectionMethod::ThirdPartyFeed,
        )],
    )
    .unwrap();
    db.add_policy(ConfidencePolicy::new("ops", "alerting", 0.5).unwrap());
    let resp = db
        .query(
            &User::new("olga", "ops"),
            &QueryRequest::new("SELECT v FROM Readings", "alerting").expecting(0.5),
        )
        .unwrap();
    assert_eq!(resp.released.len(), 1);
    assert_eq!(resp.released[0].tuple.get(0), Some(&Value::Int(1)));
}

#[test]
fn union_queries_merge_lineage_across_tables() {
    let mut db = Database::new(EngineConfig::default());
    for t in ["A", "B"] {
        db.create_table(
            t,
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
    }
    db.insert("A", vec![Value::Int(7)], 0.4).unwrap();
    db.insert("B", vec![Value::Int(7)], 0.4).unwrap();
    db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
    // Individually each source is below β, but the OR of both reaches
    // 1 − 0.6² = 0.64 > 0.5.
    let resp = db
        .query(
            &User::new("u", "r"),
            &QueryRequest::new("SELECT x FROM A UNION SELECT x FROM B", "p"),
        )
        .unwrap();
    assert_eq!(resp.released.len(), 1);
    assert!((resp.released[0].confidence - 0.64).abs() < 1e-12);
}

#[test]
fn improvement_is_idempotent_once_satisfied() {
    let mut db = orders_db(EngineConfig::default());
    let clerk = User::new("carl", "clerk");
    let request = QueryRequest::new("SELECT id FROM Orders", "reporting");
    let after = db.query_with_improvement(&clerk, &request).unwrap();
    assert_eq!(after.released.len(), 6);
    // A second round finds nothing to do.
    let again = db.query(&clerk, &request).unwrap();
    assert!(again.proposal.is_none());
    assert!(matches!(again.no_proposal, Some(NoProposal::NotNeeded)));
}

#[test]
fn proposal_costs_are_consistent_with_cost_functions() {
    let mut db = orders_db(EngineConfig::default());
    let clerk = User::new("carl", "clerk");
    let resp = db
        .query(
            &clerk,
            &QueryRequest::new("SELECT id FROM Orders", "reporting"),
        )
        .unwrap();
    let proposal = resp.proposal.unwrap();
    let recomputed: f64 = proposal.increments.iter().map(|i| i.cost).sum();
    assert!((recomputed - proposal.cost).abs() < 1e-6);
    for inc in &proposal.increments {
        assert!(inc.to > inc.from);
        assert!(inc.to <= 1.0 + 1e-12);
    }
}

#[test]
fn where_clause_arithmetic_and_strings() {
    let mut db = orders_db(EngineConfig::default());
    db.add_policy(ConfidencePolicy::new("clerk", "audit", 0.0).unwrap());
    let resp = db
        .query(
            &User::new("carl", "clerk"),
            &QueryRequest::new(
                "SELECT id FROM Orders WHERE amount / 100.0 >= 4 AND region = 'east'",
                "audit",
            ),
        )
        .unwrap();
    assert_eq!(resp.released.len(), 3);
}

/// A multi-row `INSERT` is checked row by row against the id each row
/// would take, not every row against the next one. A database restored
/// with a tuple at `u64::MAX − 2` has one id left (the counter never hands
/// out `u64::MAX`), so a two-row statement is refused whole; it used to
/// store its first row before the second found the counter exhausted.
#[test]
fn an_insert_that_would_exhaust_the_id_counter_writes_nothing() {
    use pcqe::engine::{persist, EngineError, StatementOutcome};
    use pcqe::storage::{StorageError, TupleId};

    let dir = std::env::temp_dir().join(format!("pcqe-last-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let rows = format!("__id,k,confidence\n{},0,0.5\n", u64::MAX - 2);
    std::fs::write(dir.join("t.csv"), rows).unwrap();
    let manifest = "pcqe-manifest\tv2\ntable\tt\ncolumn\tk\tINT\nend\n";
    common::write_sealed_manifest(&dir, manifest);
    let mut db = persist::load(&dir, EngineConfig::default()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let rows = |db: &Database| db.catalog().table("t").unwrap().len();
    assert_eq!(rows(&db), 1);
    let refused = db.execute("INSERT INTO t VALUES (1), (2)");
    assert!(
        matches!(
            refused,
            Err(EngineError::Storage(StorageError::DuplicateTupleId(id))) if id == u64::MAX
        ),
        "{refused:?}"
    );
    assert_eq!(rows(&db), 1, "a refused statement leaves no row behind");
    // The last id is still there for a one-row statement, and then none is.
    assert!(matches!(
        db.execute("INSERT INTO t VALUES (1)"),
        Ok(StatementOutcome::Inserted(ids)) if ids == [TupleId(u64::MAX - 1)]
    ));
    assert!(db.execute("INSERT INTO t VALUES (2)").is_err());
    assert_eq!(rows(&db), 2);
}

/// `CREATE INDEX` changes nothing a user can observe: the three statements
/// below raise on the row `(0, 7, 'boom')`, and an index on `grp` used to
/// reword the first error and swallow the other two (the index passed the
/// offender over and the key conjunct had left the residual). Same `Err`
/// string, same audit log, same counters — apart from the plan-shape ones
/// (`exec.*`, `par.*`), which say how the rows were fetched.
#[test]
fn an_index_changes_no_error_a_user_sees() {
    let twin = |indexed: bool| {
        let mut db = Database::new(EngineConfig::default().sequential());
        db.execute("CREATE TABLE t (grp INT, n INT, s TEXT)")
            .unwrap();
        if indexed {
            db.create_index("t", "grp").unwrap();
        }
        db.execute("INSERT INTO t VALUES (0, 7, 'boom'), (1, NULL, NULL)")
            .unwrap();
        db.add_policy(ConfidencePolicy::default_floor(0.0).unwrap());
        db
    };
    let (mut plain, mut indexed) = (twin(false), twin(true));
    let user = User::new("ana", "analyst");
    for (sql, error) in [
        ("SELECT * FROM t WHERE grp = 0 AND n", "logic applied to 7"),
        (
            "SELECT * FROM t WHERE s > 1 AND grp = 1",
            "cannot compare boom with 1",
        ),
        ("SELECT * FROM t WHERE n AND grp = 1", "logic applied to 7"),
        // And one that answers, the key behind a type-safe conjunct.
        ("SELECT * FROM t WHERE s <> 'x' AND grp = 0", ""),
    ] {
        let request = QueryRequest::new(sql, "audit");
        let outcome = |db: &mut Database| {
            let released = db.query(&user, &request).map(|r| r.released);
            released.map_err(|e| e.to_string())
        };
        let (without, with) = (outcome(&mut plain), outcome(&mut indexed));
        assert_eq!(without, with, "{sql}");
        match &without {
            Err(e) => assert!(!error.is_empty() && e.contains(error), "{sql}: {e}"),
            Ok(released) => assert!(error.is_empty() && released.len() == 1, "{sql}"),
        }
        assert_eq!(plain.audit_log().len(), indexed.audit_log().len(), "{sql}");
        let counters = |db: &Database| {
            let mut counters = db.metrics_snapshot().counters;
            counters.retain(|name, _| !name.starts_with("exec."));
            counters
        };
        assert_eq!(counters(&plain), counters(&indexed), "{sql}");
    }
    // The index was in play: only the twin that has it plans it.
    let plan = |db: &mut Database| {
        common::explained(db, "EXPLAIN SELECT * FROM t WHERE s <> 'x' AND grp = 0").unwrap()
    };
    let (plain, indexed) = (plan(&mut plain), plan(&mut indexed));
    assert!(
        indexed.contains("IndexScan t (grp = 0) [filter: ((#2 <> 'x') AND (#0 = 0))]"),
        "{indexed}"
    );
    assert!(!plain.contains("IndexScan"), "{plain}");
}

/// `LIMIT` cuts before the policy gate (DESIGN.md § 13): of the five rows
/// ordered by `k`, the limit keeps the first two, both at or below β, and
/// the gate withholds them, although three rows of the table clear β.
/// The counts were read on the parent commit.
#[test]
fn limit_cuts_before_the_gate() {
    let mut db = Database::new(EngineConfig::default());
    db.execute("CREATE TABLE T (k INT)").unwrap();
    for (k, c) in [(1, 0.1), (2, 0.2), (3, 0.9), (4, 0.95), (5, 0.3)] {
        db.execute(&format!("INSERT INTO T VALUES ({k}) WITH CONFIDENCE {c}"))
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("clerk", "reporting", 0.5).unwrap());
    let clerk = User::new("carl", "clerk");
    let request = QueryRequest::new("SELECT k FROM T ORDER BY k LIMIT 2", "reporting");
    let resp = db.query(&clerk, &request).unwrap();
    assert_eq!(resp.released.len(), 0, "{resp:?}");
    assert_eq!(resp.withheld, 2, "{resp:?}");
}
