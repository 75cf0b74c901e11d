//! Robustness tests for the SQL front-end: the parser must reject garbage
//! with errors (never panic), and valid inputs must round-trip through the
//! grammar's surface forms.

mod common;

use common::{for_each_case, random_char, random_string};
use pcqe::lineage::Rng64;
use pcqe::sql::{parse, parse_statement};

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
        "SELECT", "DISTINCT", "*", "FROM", "WHERE", "JOIN", "ON", "AND", "OR", "NOT", "UNION",
        "EXCEPT", "(", ")", ",", "=", "<", "t", "x", "1", "2.5", "'s'", "a.b", "AS", "+", "-", "/",
    ];
    for_each_case(512, 0x5901_0002, |rng| {
        let n = rng.below_usize(16);
        let fragments: Vec<&str> = (0..n)
            .map(|_| FRAGMENTS[rng.below_usize(FRAGMENTS.len())])
            .collect();
        let input = fragments.join(" ");
        match parse(&input) {
            Ok(_) => {}
            Err(pcqe::sql::SqlError::Parse { pos, .. })
            | Err(pcqe::sql::SqlError::Lex { pos, .. }) => {
                assert!(pos <= input.len(), "position {pos} outside {input:?}");
            }
            Err(_) => {}
        }
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
    use pcqe::engine::{Database, EngineConfig, EngineError, StatementOutcome};
    use pcqe::storage::{StorageError, TupleId, Value};

    let mut db = Database::new(EngineConfig::default());
    db.execute("CREATE TABLE t (k INT, label TEXT)").unwrap();
    db.create_index("t", "k").unwrap();
    let Ok(StatementOutcome::Inserted(ids)) =
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b') WITH CONFIDENCE 0.5")
    else {
        panic!("two well-formed rows");
    };
    let state = |db: &Database| {
        let t = db.catalog().table("t").unwrap();
        let index = t.index_on(0).expect("indexed");
        (
            t.len(),
            index.lookup(&Value::Int(1)).to_vec(),
            index.distinct_keys(),
            db.explain_analyze("SELECT label FROM t WHERE k = 1")
                .unwrap(),
        )
    };
    let before = state(&db);

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
            state(&db),
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
