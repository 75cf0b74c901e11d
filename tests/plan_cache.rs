//! The statement cache: a query whose shape was planned before binds its
//! literals into the cached physical plan, and what it then shows and
//! answers is what a fresh database, planning it from scratch, shows and
//! answers (DESIGN.md §9, "Statements planned once per shape").
//!
//! The law runs over the generator: a query, then generated rows, then its
//! twin — same shape, new literals ([`Query::with_fresh_literals`]). The
//! rest are the cases that decide whether a cached plan may be used at
//! all: a new index invalidates it, new rows, a repeated index and a
//! confidence change do not, and a statement that fails is never cached.

mod common;

use common::{explained, paper_db, random_db, random_query, random_rows, DbSpec, Expr, Query};
use common::{Select, ENGINE, PAPER_QUERY};
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::Rng64;
use pcqe::policy::ConfidencePolicy;
use pcqe::sql::Shape;
use pcqe::storage::{DataType, Value};

const CASES: u64 = 300;
const WORKERS: [usize; 3] = [1, 2, 8];

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        worker_threads: Some(workers),
        ..EngineConfig::default()
    }
}

/// `spec` with its indexes, at `workers` workers, and the analyst's policy.
fn database(spec: &DbSpec, workers: usize) -> Database {
    let mut db = spec.database(config(workers), true);
    db.add_policy(ConfidencePolicy::new("analyst", "research", 0.3).unwrap());
    db
}

/// What `Database::query` answers to `sql`, as text: the response's
/// `Debug`, or the error it raised.
fn answer(db: &mut Database, sql: &str) -> String {
    let request = QueryRequest::new(sql, "research");
    match db.query(&User::new("ada", "analyst"), &request) {
        Ok(response) => format!("{response:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// What `EXPLAIN sql` renders, or the error it raised.
fn explain(db: &mut Database, sql: &str) -> String {
    explained(db, &format!("EXPLAIN {sql}")).unwrap_or_else(|e| format!("error: {e}"))
}

/// Statement-cache `(hits, misses)` so far.
fn lookups(db: &Database) -> (u64, u64) {
    let metrics = db.metrics_snapshot();
    (
        metrics.counter("plan.cache_hit"),
        metrics.counter("plan.cache_miss"),
    )
}

/// `spec`'s tables, each holding generated rows of its own.
fn more_rows(rng: &mut Rng64, spec: &DbSpec) -> DbSpec {
    let mut more = spec.clone();
    for t in &mut more.tables {
        let types: Vec<DataType> = t.columns.iter().map(|c| c.data_type).collect();
        t.rows = random_rows(rng, &types, ENGINE.rows_per_table);
    }
    more
}

/// The rebinding law. For each generated `(DbSpec, query)` at 1, 2 and 8
/// workers: run the query on one database, insert generated rows into
/// every table, then `EXPLAIN` its twin, then run the twin — the shape's
/// second run, which learns it — then `EXPLAIN` the twin again, from the
/// cached plan. The twin's plan text, both times, and answer (or error)
/// must be those of a fresh database loaded with the same rows, and the
/// twin must be a cache hit wherever the query planned: no plan reads the
/// rows, so inserts keep it. Where the database indexes a
/// table's key, a keyed query over that table goes through the law too —
/// `k = v AND k >= w`, an index key that also sits in its scan's residual,
/// whose twin's slots are often equal — and the twins must include both
/// kinds.
#[test]
fn a_twin_bound_into_the_cached_plan_is_what_a_fresh_database_plans() {
    let (mut hits, mut equal_slots, mut keyed_residuals) = (0, 0, 0);
    for case in 0..CASES {
        let seed = 0x5A1D_CAC4 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng64::seed_from_u64(seed);
        let spec = random_db(&mut rng, ENGINE);
        // Drawn apart, so the cases' queries and twins are unchanged.
        let more = more_rows(&mut Rng64::seed_from_u64(seed ^ 0x0F1A_7ED0), &spec);
        let grow = |db: &mut Database| {
            for t in &more.tables {
                for (confidence, values) in &t.rows {
                    db.insert(&t.name, values.clone(), *confidence).unwrap();
                }
            }
        };
        let mut queries = vec![random_query(&mut rng, &spec, ENGINE)];
        let indexed = spec
            .tables
            .iter()
            .find(|t| t.indexes.iter().any(|c| c == "k"));
        if let Some(table) = indexed {
            let key = |cmp, v| Expr::op(cmp, Expr::Col(0, 0), Expr::Lit(Value::Int(v)));
            let first = Select {
                from: vec![(table.name.clone(), None)],
                filter: vec![key("=", 1), key(">=", 1)],
                ..Select::default()
            };
            let (rest, order) = (Vec::new(), Vec::new());
            queries.push(Query {
                first,
                rest,
                order,
                limit: None,
            });
        }
        for query in queries {
            let twin = query.with_fresh_literals(&mut rng);
            let (sql, twin_sql) = (query.sql(&spec), twin.sql(&spec));
            let shape = Shape::of(&twin_sql).unwrap();
            assert_eq!(
                Shape::of(&sql).unwrap().key(),
                shape.key(),
                "{sql}\n{twin_sql}"
            );
            let planned = explain(&mut database(&spec, 1), &sql);
            let planned = !planned.starts_with("error");
            for workers in WORKERS {
                let context =
                    format!("case {case} (seed {seed:#x}), {workers} worker(s)\n{sql}\n{twin_sql}");
                let mut db = database(&spec, workers);
                answer(&mut db, &sql);
                grow(&mut db);
                let before = lookups(&db);
                let (plan, got) = (explain(&mut db, &twin_sql), answer(&mut db, &twin_sql));
                let hit = lookups(&db).0 > before.0;
                let mut fresh = database(&spec, workers);
                grow(&mut fresh);
                let fresh_plan = explain(&mut fresh, &twin_sql);
                assert_eq!(plan, fresh_plan, "EXPLAIN, {context}");
                assert_eq!(got, answer(&mut fresh, &twin_sql), "answer, {context}");
                // The twin's run learned the shape: this one is the cache's.
                let cached = explain(&mut db, &twin_sql);
                assert_eq!(cached, fresh_plan, "cached EXPLAIN, {context}");
                assert_eq!(hit, planned, "a hit iff the query planned, {context}");
                hits += usize::from(hit);
                let keyed = |line: &str| line.contains("IndexScan") && line.contains("[filter:");
                keyed_residuals += usize::from(hit && plan.lines().any(keyed));
            }
            let literals = shape.literals();
            let repeated = (1..literals.len()).any(|i| literals[..i].contains(&literals[i]));
            equal_slots += usize::from(planned && repeated);
        }
    }
    assert!(hits >= 1000, "{hits} twins hit");
    assert!(
        equal_slots >= 50,
        "{equal_slots} twins with two equal slots"
    );
    assert!(
        keyed_residuals >= 300,
        "{keyed_residuals} hits on a keyed residual"
    );
}

/// `t(k INT, s TEXT)` with two rows, and the analyst's policy.
fn small(workers: usize) -> Database {
    let mut db = Database::new(config(workers));
    db.execute("CREATE TABLE t (k INT, s TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b') WITH CONFIDENCE 0.4")
        .unwrap();
    db.add_policy(ConfidencePolicy::new("analyst", "research", 0.3).unwrap());
    db
}

/// A new index is a new access path: the shape's next run misses and plans
/// the index scan.
#[test]
fn create_index_invalidates_a_cached_plan() {
    for workers in WORKERS {
        let mut db = small(workers);
        answer(&mut db, "SELECT s FROM t WHERE k = 1");
        assert!(explain(&mut db, "SELECT s FROM t WHERE k = 2").contains("TableScan t"));
        db.execute("CREATE INDEX ON t (k)").unwrap();
        let got = answer(&mut db, "SELECT s FROM t WHERE k = 2");
        assert_eq!(lookups(&db), (0, 2), "{workers} worker(s)");
        let plan = explain(&mut db, "SELECT s FROM t WHERE k = 2");
        assert!(plan.contains("IndexScan t (k = 2)"), "{plan}");
        let mut fresh = small(workers);
        fresh.execute("CREATE INDEX ON t (k)").unwrap();
        assert_eq!(got, answer(&mut fresh, "SELECT s FROM t WHERE k = 2"));
    }
}

/// A repeated `CREATE INDEX` builds nothing, so it changes no plan: the
/// shape's second run after it still learns the shape and hits.
#[test]
fn a_repeated_create_index_keeps_a_cached_plan() {
    for workers in WORKERS {
        let mut db = small(workers);
        db.execute("CREATE INDEX ON t (k)").unwrap();
        answer(&mut db, "SELECT s FROM t WHERE k = 1");
        db.execute("CREATE INDEX ON t (k)").unwrap();
        let got = answer(&mut db, "SELECT s FROM t WHERE k = 2");
        assert_eq!(lookups(&db), (1, 1), "{workers} worker(s)");
        let mut fresh = small(workers);
        fresh.execute("CREATE INDEX ON t (k)").unwrap();
        assert_eq!(got, answer(&mut fresh, "SELECT s FROM t WHERE k = 2"));
    }
}

/// No plan reads the rows, so inserts keep a cached plan: of two indexed
/// equality conjuncts the index scan takes the first in conjunct order,
/// `a = …`, both while `b` holds one value over four rows and once twenty
/// more rows give `b` twenty-one, and the shape's second run, after the
/// inserts, hits and explains and answers what a fresh database does.
#[test]
fn inserts_keep_a_cached_plan() {
    let sql = |a: i64| format!("SELECT n FROM t WHERE a = {a} AND b = 0");
    let rows = |db: &mut Database, from: i64, to: i64| {
        for i in from..to {
            let b = if i < 4 { 0 } else { i };
            db.execute(&format!("INSERT INTO t VALUES ({}, {b}, {i})", i % 4))
                .unwrap();
        }
    };
    let table = |workers| {
        let mut db = Database::new(config(workers));
        db.execute("CREATE TABLE t (a INT, b INT, n INT)").unwrap();
        db.execute("CREATE INDEX ON t (a)").unwrap();
        db.execute("CREATE INDEX ON t (b)").unwrap();
        db.add_policy(ConfidencePolicy::new("analyst", "research", 0.3).unwrap());
        db
    };
    for workers in WORKERS {
        let mut db = table(workers);
        let fresh = |to| {
            let mut fresh = table(workers);
            rows(&mut fresh, 0, to);
            fresh
        };
        rows(&mut db, 0, 4);
        answer(&mut db, &sql(1));
        let by_a = explain(&mut db, &sql(2));
        assert!(by_a.contains("IndexScan t (a = 2)"), "{by_a}");
        assert_eq!(by_a, explain(&mut fresh(4), &sql(2)), "{workers} worker(s)");
        rows(&mut db, 4, 24);
        let got = answer(&mut db, &sql(3));
        let cached = explain(&mut db, &sql(3));
        assert!(cached.contains("IndexScan t (a = 3)"), "{cached}");
        assert_eq!(
            cached,
            explain(&mut fresh(24), &sql(3)),
            "{workers} worker(s)"
        );
        assert_eq!(got, answer(&mut fresh(24), &sql(3)), "{workers} worker(s)");
        assert_eq!(lookups(&db), (1, 1), "{workers} worker(s)");
    }
}

/// A raised confidence changes no plan: after `what_if` and `apply` the
/// paper query's next run still hits, and releases what it now should.
#[test]
fn apply_and_what_if_keep_a_cached_plan() {
    for workers in WORKERS {
        let mut db = paper_db(Database::new(config(workers)));
        let (mark, request) = (
            User::new("mark", "Manager"),
            QueryRequest::new(PAPER_QUERY, "investment"),
        );
        let proposal = db.query(&mark, &request).unwrap().proposal.unwrap();
        db.what_if(&mark, &request, &proposal).unwrap();
        db.apply(&proposal).unwrap();
        let requery = db.query(&mark, &request).unwrap();
        assert_eq!(lookups(&db), (1, 1), "{workers} worker(s)");
        assert_eq!(requery.released.len(), 1, "{workers} worker(s)");
    }
}

/// A statement that fails to parse or to plan raises the same error — the
/// same position included — on every call, and is never cached; nor is a
/// shape whose plan reads a literal's value (a `GROUP BY` expression
/// matched to a projected one), which is planned afresh on every run.
#[test]
fn a_failing_statement_is_never_cached() {
    for workers in WORKERS {
        let mut db = small(workers);
        for sql in [
            "SELECT s FROM t WHERE k = 1 AND",
            "SELECT s FROM t WHERE k = @",
            "SELECT nope FROM t WHERE k = 1",
            "SELECT s FROM t WHERE k = 1 GROUP BY k",
        ] {
            let user = User::new("ada", "analyst");
            let request = QueryRequest::new(sql, "research");
            let first = format!("{:?}", db.query(&user, &request).unwrap_err());
            for _ in 0..2 {
                let again = format!("{:?}", db.query(&user, &request).unwrap_err());
                assert_eq!(again, first, "{sql}");
                assert_eq!(explain(&mut db, sql), explain(&mut small(workers), sql));
            }
        }
        assert_eq!(lookups(&db).0, 0, "{workers} worker(s)");
        let grouped = |one: i64| format!("SELECT k + {one} AS g FROM t GROUP BY k + 1");
        for _ in 0..2 {
            assert_eq!(
                answer(&mut db, &grouped(1)),
                answer(&mut small(workers), &grouped(1))
            );
        }
        assert_eq!(
            answer(&mut db, &grouped(2)),
            answer(&mut small(workers), &grouped(2))
        );
        assert!(answer(&mut db, &grouped(2)).starts_with("error"));
        assert_eq!(lookups(&db).0, 0, "{workers} worker(s)");
    }
}
