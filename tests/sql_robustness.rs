//! Robustness tests for the SQL front-end: the parser must reject garbage
//! with errors (never panic), and valid inputs must round-trip through the
//! grammar's surface forms.

mod common;

use common::{explained, for_each_case, random_char, random_string};
use pcqe::algebra::{BinaryOp, ScalarExpr};
use pcqe::engine::{Database, EngineConfig, EngineError, QueryRequest, StatementOutcome, User};
use pcqe::lineage::Rng64;
use pcqe::obs::clock::{Clock, SystemClock};
use pcqe::policy::ConfidencePolicy;
use pcqe::sql::{parse, parse_statement, SqlError};
use pcqe::storage::Value;
use std::time::Duration;

/// Arbitrary character soup: the lexer/parser must return, not panic.
#[test]
fn parser_never_panics_on_arbitrary_strings() {
    for_each_case(512, 0x5901_0001, |rng| {
        let len = rng.below_usize(81);
        let input: String = (0..len).map(|_| random_char(rng)).collect();
        let _ = parse(&input);
        let _ = parse_statement(&input);
    });
}

/// Strings made of SQL-ish fragments: still no panics, and the error
/// position (when any) stays within the input.
#[test]
fn parser_never_panics_on_sql_shaped_strings() {
    const FRAGMENTS: &[&str] = &[
        "SELECT",
        "DISTINCT",
        "*",
        "FROM",
        "WHERE",
        "JOIN",
        "ON",
        "AND",
        "OR",
        "NOT",
        "UNION",
        "EXCEPT",
        "(",
        ")",
        ",",
        "=",
        "<",
        "t",
        "x",
        "1",
        "2.5",
        "'s'",
        "a.b",
        "AS",
        "+",
        "-",
        "/",
        "CREATE",
        "TABLE",
        "INDEX",
        "INSERT",
        "INTO",
        "VALUES",
        "WITH",
        "CONFIDENCE",
        "EXPLAIN",
        "ANALYZE",
        ";",
    ];
    let position_inside = |input: &str, error: Option<SqlError>| {
        if let Some(SqlError::Parse { pos, .. } | SqlError::Lex { pos, .. }) = error {
            assert!(pos <= input.len(), "position {pos} outside {input:?}");
        }
    };
    for_each_case(512, 0x5901_0002, |rng| {
        let n = rng.below_usize(16);
        let fragments: Vec<&str> = (0..n)
            .map(|_| FRAGMENTS[rng.below_usize(FRAGMENTS.len())])
            .collect();
        let input = fragments.join(" ");
        position_inside(&input, parse(&input).err());
        position_inside(&input, parse_statement(&input).err());
    });
}

/// Every identifier-shaped table/column name parses in a simple query.
#[test]
fn identifier_names_parse() {
    const HEAD: &[char] = &[
        'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r',
        's', 't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J',
        'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', '_',
    ];
    const TAIL: &[char] = &[
        'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r',
        's', 't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J',
        'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', '_', '0',
        '1', '2', '3', '4', '5', '6', '7', '8', '9',
    ];
    let random_ident = |rng: &mut Rng64| {
        let mut s = String::new();
        s.push(HEAD[rng.below_usize(HEAD.len())]);
        s.push_str(&random_string(rng, TAIL, 10));
        s
    };
    for_each_case(512, 0x5901_0003, |rng| {
        let table = random_ident(rng);
        let column = random_ident(rng);
        let sql = format!("SELECT {column} FROM {table}");
        match parse(&sql) {
            Ok(_) => {}
            Err(_) => {
                // Only reserved words may be rejected.
                let reserved = [
                    "SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "JOIN", "INNER", "ON", "AS",
                    "AND", "OR", "NOT", "UNION", "EXCEPT", "TRUE", "FALSE", "NULL",
                ];
                let is_reserved = |s: &str| reserved.iter().any(|r| r.eq_ignore_ascii_case(s));
                assert!(
                    is_reserved(&table) || is_reserved(&column),
                    "non-reserved identifiers must parse: {sql}"
                );
            }
        }
    });
}

/// Numeric literals survive the round trip through the lexer.
#[test]
fn numeric_literals_parse() {
    for_each_case(512, 0x5901_0004, |rng| {
        let n = rng.next_u64() as i32;
        let frac = rng.below_u64(1000);
        let sql = format!("SELECT * FROM t WHERE x = {n} AND y = {n}.{frac:03}");
        assert!(parse(&sql).is_ok(), "{sql}");
    });
}

/// String literals with embedded quotes survive escaping.
#[test]
fn string_literals_parse() {
    const ALPHABET: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', 'A', 'M', 'Z', ' ', '\'', 'é', '世',
    ];
    for_each_case(512, 0x5901_0005, |rng| {
        let s = random_string(rng, ALPHABET, 20);
        let escaped = s.replace('\'', "''");
        let sql = format!("SELECT * FROM t WHERE x = '{escaped}'");
        assert!(parse(&sql).is_ok(), "{sql}");
    });
}

#[test]
fn deeply_nested_parentheses_do_not_overflow() {
    let nested = |depth: usize| {
        let mut pred = String::new();
        for _ in 0..depth {
            pred.push('(');
        }
        pred.push_str("x = 1");
        for _ in 0..depth {
            pred.push(')');
        }
        format!("SELECT * FROM t WHERE {pred}")
    };
    // Sane depths parse fine.
    assert!(parse(&nested(100)).is_ok());
    // Absurd depths are rejected with an error, never a stack crash.
    match parse(&nested(5_000)) {
        Err(pcqe::sql::SqlError::Parse { message, .. }) => {
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected a depth error, got {other:?}"),
    }
}

/// A multi-row `INSERT` is all or nothing: every row is checked against
/// the schema and the confidence before the first is written. A refused
/// statement used to leave its earlier rows behind — stored, indexed,
/// their tuple ids burned — while reporting an error.
#[test]
fn a_refused_multi_row_insert_writes_nothing() {
    use pcqe::storage::{StorageError, TupleId, Value};

    let mut db = Database::new(EngineConfig::default());
    db.execute("CREATE TABLE t (k INT, label TEXT)").unwrap();
    db.create_index("t", "k").unwrap();
    let Ok(StatementOutcome::Inserted(ids)) =
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b') WITH CONFIDENCE 0.5")
    else {
        panic!("two well-formed rows");
    };
    // The postings of every key a refused statement below carries.
    let state = |db: &mut Database| {
        let analyzed = explained(db, "EXPLAIN ANALYZE SELECT label FROM t WHERE k = 1").unwrap();
        let t = db.catalog().table("t").unwrap();
        let index = t.index_on(0).expect("indexed");
        let postings: Vec<Vec<usize>> = (1..=3)
            .map(|k| index.lookup(&Value::Int(k)).to_vec())
            .collect();
        (t.len(), postings, index.null_rows().to_vec(), analyzed)
    };
    let before = state(&mut db);

    // The error is the first offending row's, as when the rows went in
    // one by one: a bad type in the last row, a bad type before a bad
    // arity, and a confidence no row could carry.
    for (sql, wrong_type) in [
        (
            "INSERT INTO t VALUES (1, 'c'), (2, 3) WITH CONFIDENCE 0.5",
            true,
        ),
        (
            "INSERT INTO t VALUES (1, 'c'), (1, 2), (3) WITH CONFIDENCE 0.5",
            true,
        ),
        (
            "INSERT INTO t VALUES (1, 'c'), (1, 'd') WITH CONFIDENCE 1.5",
            false,
        ),
    ] {
        match db.execute(sql) {
            Err(EngineError::Storage(StorageError::TypeMismatch { .. })) => assert!(wrong_type),
            Err(EngineError::Storage(StorageError::InvalidConfidence(_))) => assert!(!wrong_type),
            other => panic!("{sql}: refusal expected, got {other:?}"),
        }
        assert_eq!(
            state(&mut db),
            before,
            "{sql}: a refused insert left rows behind"
        );
    }

    // No id was burned: the next row gets the one after the last accepted.
    let next = TupleId(ids.last().expect("two ids").0 + 1);
    let Ok(StatementOutcome::Inserted(ids)) = db.execute("INSERT INTO t VALUES (1, 'c')") else {
        panic!("a well-formed row");
    };
    assert_eq!(ids, [next]);
    assert_eq!(db.catalog().table("t").unwrap().len(), before.0 + 1);
}

/// A three-row table `t (r REAL, k INT, s TEXT)` that any user may query.
fn small_db() -> Database {
    let mut db = Database::new(EngineConfig::default().sequential());
    db.execute("CREATE TABLE t (r REAL, k INT, s TEXT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (0.5, 1, 'a'), (1.5, 2, 'b'), (2.5, 1, 'c')")
        .unwrap();
    db.add_policy(ConfidencePolicy::default_floor(0.0).unwrap());
    db
}

/// `CREATE INDEX ON t (c)` is `Database::create_index("t", "c")`: the same
/// column position, the same refusal word for word (a REAL column, an
/// unknown table, an unknown column), idempotent. And an index changes the
/// plan, never the answer.
#[test]
fn create_index_is_the_create_index_method() {
    let (mut by_sql, mut by_method) = (small_db(), small_db());
    for (table, column, position) in [
        ("t", "r", None),
        ("nope", "k", None),
        ("t", "nope", None),
        ("t", "k", Some(1)),
        ("t", "s", Some(2)),
        ("t", "k", Some(1)),
    ] {
        let sql = by_sql.execute(&format!("CREATE INDEX ON {table} ({column})"));
        let method = by_method.create_index(table, column);
        match (sql, method) {
            (Ok(StatementOutcome::IndexCreated(a)), Ok(b)) => {
                assert_eq!((Some(a), Some(b)), (position, position), "{table}.{column}")
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{table}.{column}");
                assert_eq!(position, None, "{table}.{column}: {a}");
            }
            (sql, method) => panic!("{table}.{column}: {sql:?} against {method:?}"),
        }
    }
    let indexes = |db: &Database| db.catalog().table("t").unwrap().indexes().to_vec();
    assert_eq!(indexes(&by_sql).len(), 2);
    assert_eq!(indexes(&by_sql), indexes(&by_method));

    let sql = "SELECT s FROM t WHERE k = 1";
    let mut plain = small_db();
    let user = User::new("ana", "analyst");
    let answer = |db: &mut Database| {
        let plan = explained(db, &format!("EXPLAIN {sql}")).unwrap();
        let released = db.query(&user, &QueryRequest::new(sql, "audit")).unwrap();
        (plan, released.released)
    };
    let ((plain_plan, plain_rows), (indexed_plan, indexed_rows)) =
        (answer(&mut plain), answer(&mut by_sql));
    assert!(plain_plan.contains("TableScan t"), "{plain_plan}");
    assert!(
        indexed_plan.contains("IndexScan t (k = 1)"),
        "{indexed_plan}"
    );
    assert_eq!(plain_rows.len(), 2);
    assert_eq!(plain_rows, indexed_rows);
}

/// `EXPLAIN` and `EXPLAIN ANALYZE` are reads: neither leaves an audit
/// entry, moves a metric or bumps the database version, so a proposal
/// taken before them still applies.
#[test]
fn explain_changes_nothing() {
    let mut db = Database::new(EngineConfig::default().sequential());
    db.execute("CREATE TABLE t (k INT, s TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b') WITH CONFIDENCE 0.4")
        .unwrap();
    db.add_policy(ConfidencePolicy::new("analyst", "report", 0.5).unwrap());
    let user = User::new("ana", "analyst");
    let request = QueryRequest::new("SELECT s FROM t WHERE k = 1", "report");
    let proposal = db.query(&user, &request).unwrap().proposal;
    let proposal = proposal.expect("the withheld row can be raised");
    let (audit, metrics) = (db.audit_log().to_vec(), db.metrics_snapshot());
    for statement in [
        "EXPLAIN SELECT s FROM t WHERE k = 1",
        "EXPLAIN ANALYZE SELECT s FROM t WHERE k = 1",
        "EXPLAIN ANALYZE SELECT s FROM t WHERE s > 1",
    ] {
        // The last one raises at run time, and changes nothing either.
        let _ = explained(&mut db, statement);
        assert_eq!(db.audit_log(), audit, "{statement}");
        assert_eq!(db.metrics_snapshot(), metrics, "{statement}");
    }
    db.apply(&proposal).unwrap();
}

/// Only a query can be explained, and `Database::query` takes only a
/// query: everything else is a parse error that runs nothing.
#[test]
fn only_a_query_is_explained_and_only_a_query_is_queried() {
    let mut db = small_db();
    for sql in [
        "EXPLAIN INSERT INTO t VALUES (0.5, 3, 'd')",
        "EXPLAIN EXPLAIN SELECT k FROM t",
        "EXPLAIN CREATE INDEX ON t (k)",
        "EXPLAIN CREATE TABLE u (k INT)",
    ] {
        assert!(
            matches!(parse_statement(sql), Err(SqlError::Parse { .. })),
            "{sql}"
        );
        let refused = db.execute(sql);
        assert!(
            matches!(refused, Err(EngineError::Sql(SqlError::Parse { .. }))),
            "{sql}: {refused:?}"
        );
    }
    let t = db.catalog().table("t").unwrap();
    assert_eq!((t.len(), t.indexes().len()), (3, 0));
    assert!(db.catalog().table("u").is_err());

    let user = User::new("ana", "analyst");
    let request = QueryRequest::new("EXPLAIN SELECT k FROM t", "audit");
    let refused = db.query(&user, &request);
    assert!(
        matches!(
            refused,
            Err(EngineError::Sql(SqlError::Parse { pos: 0, .. }))
        ),
        "{refused:?}"
    );
    assert!(db.audit_log().is_empty());
}

/// A `LIKE` pattern of many `%` before a character the text lacks
/// answers at once: a matcher that tries every split point at every `%`
/// does C(40 + 12, 12) ≈ 2·10¹¹ steps on a 40-character row (minutes),
/// one that backtracks to the last `%` only at most 40 · 13 = 520.
#[test]
fn a_hostile_like_pattern_answers_promptly() {
    let mut db = small_db();
    let text = "a".repeat(40);
    db.execute(&format!(
        "INSERT INTO t VALUES (3.5, 3, '{text}'), (4.5, 4, '{text}b')"
    ))
    .unwrap();
    let user = User::new("ana", "analyst");
    let sql = "SELECT k FROM t WHERE s LIKE '%%%%%%%%%%%%b'";
    let started = SystemClock.monotonic();
    let response = db.query(&user, &QueryRequest::new(sql, "audit")).unwrap();
    let took = SystemClock.monotonic().saturating_sub(started);
    // 'b' and the 40 a's followed by 'b'.
    assert_eq!(response.released.len(), 2);
    assert!(took < Duration::from_secs(2), "LIKE took {took:?}");
}

/// Whether `text` matches `pattern` by the textbook table: `m[i][j]` says
/// whether the first `i` characters of `text` match the first `j` of
/// `pattern`.
fn like_by_table(text: &[char], pattern: &[char]) -> bool {
    let mut m = vec![vec![false; pattern.len() + 1]; text.len() + 1];
    m[0][0] = true;
    for j in 1..=pattern.len() {
        m[0][j] = m[0][j - 1] && pattern[j - 1] == '%';
    }
    for i in 1..=text.len() {
        for j in 1..=pattern.len() {
            m[i][j] = match pattern[j - 1] {
                '%' => m[i][j - 1] || m[i - 1][j],
                '_' => m[i - 1][j - 1],
                c => m[i - 1][j - 1] && text[i - 1] == c,
            };
        }
    }
    m[text.len()][pattern.len()]
}

/// `LIKE` agrees with [`like_by_table`] on short strings over an alphabet
/// with a two-byte character and both wildcards, in text and pattern
/// alike, the empty string included.
#[test]
fn like_agrees_with_the_textbook_table() {
    const ALPHABET: [char; 5] = ['a', 'b', 'é', '%', '_'];
    let (mut matched, mut missed) = (0, 0);
    for_each_case(4_000, 0x5901_0039, |rng| {
        let (text, pattern) = (
            random_string(rng, &ALPHABET, 5),
            random_string(rng, &ALPHABET, 6),
        );
        let like = ScalarExpr::Binary {
            op: BinaryOp::Like,
            left: Box::new(ScalarExpr::literal(Value::text(text.as_str()))),
            right: Box::new(ScalarExpr::literal(Value::text(pattern.as_str()))),
        };
        let chars = |s: &str| s.chars().collect::<Vec<_>>();
        let expected = like_by_table(&chars(&text), &chars(&pattern));
        assert_eq!(
            like.eval(&[]).unwrap(),
            Value::Bool(expected),
            "{text:?} LIKE {pattern:?}"
        );
        *(if expected { &mut matched } else { &mut missed }) += 1;
    });
    assert!(matched > 300 && missed > 300, "{matched} / {missed}");
}
