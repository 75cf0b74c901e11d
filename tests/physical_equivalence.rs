//! Physical-execution acceptance suite.
//!
//! The contract of `algebra::physical` is that planning and vectorized
//! execution are pure performance decisions: for every query in the grid
//! below, over randomised databases (NULL keys included), the optimised,
//! lowered plan run on the vectorized executor must produce a
//! **bit-identical** `ResultSet` — same rows, same order, same lineage,
//! same scored confidence bits — as the reference pipeline in
//! `tests/common` (the logical plan on the sequential walker), at any
//! worker-thread count, with or without equality indexes.
//!
//! A golden snapshot of the `.plan` rendering (logical and physical plan
//! side by side) for the paper's Section 3.1 running example pins the
//! planner's choices; regenerate with
//! `PCQE_BLESS=1 cargo test --test physical_equivalence bless`.

mod common;

use common::{assert_rows_identical, for_each_case, parallelism_grid, reference_rows};
use pcqe::algebra::{
    execute, execute_vectorized_with, lower, optimize, BinaryOp, PhysicalPlan, Plan, ProjItem,
    ResultSet, ScalarExpr, UnaryOp,
};
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig};
use pcqe::lineage::{CircuitCache, Evaluator, Rng64, VarId};
use pcqe::par::Parallelism;
use pcqe::policy::ConfidencePolicy;
use pcqe::sql::parse_and_plan;
use pcqe::storage::{Catalog, Column, DataType, Schema, TupleId, Value};

const CASES: u64 = 48;

/// The query-shape grid: scans, pushdowns, equi and non-equi joins,
/// cross joins, set operations, sorting, limits and aggregation.
const QUERIES: &[&str] = &[
    "SELECT * FROM orders",
    "SELECT * FROM orders WHERE amount > 2 AND cust = 1",
    "SELECT cust FROM orders WHERE cust = 2",
    "SELECT DISTINCT cust FROM orders WHERE amount > 1",
    "SELECT o.amount FROM orders o JOIN customers c ON o.cust = c.id WHERE o.amount > 2 AND c.id < 3",
    "SELECT o.amount FROM orders o JOIN customers c ON o.cust = c.id AND o.amount > c.id",
    "SELECT o.amount, c.score FROM orders o, customers c WHERE o.cust = c.id AND amount > 1",
    "SELECT o.cust FROM orders o, customers c WHERE o.amount > c.id",
    "SELECT o.cust FROM orders o, customers c",
    "SELECT cust FROM orders WHERE amount > 1 UNION SELECT id FROM customers WHERE id > 0",
    "SELECT cust FROM orders EXCEPT SELECT id FROM customers WHERE id > 1",
    "SELECT cust, amount FROM orders ORDER BY amount DESC LIMIT 2",
    "SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust HAVING n > 0",
    "SELECT cust FROM orders WHERE amount + 1 > 2 AND NOT (cust = 9)",
];

fn build_catalog(
    orders: &[(Option<i64>, i64, f64)],
    customers: &[(i64, f64, f64)],
    indexed: bool,
) -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        "orders",
        Schema::new(vec![
            Column::new("cust", DataType::Int),
            Column::new("amount", DataType::Int),
        ])
        .unwrap(),
    )
    .unwrap();
    c.create_table(
        "customers",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("score", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    for &(cust, amount, conf) in orders {
        let key = cust.map(Value::Int).unwrap_or(Value::Null);
        c.insert("orders", vec![key, Value::Int(amount)], conf)
            .unwrap();
    }
    for &(id, score, conf) in customers {
        c.insert("customers", vec![Value::Int(id), Value::Real(score)], conf)
            .unwrap();
    }
    if indexed {
        c.create_index("orders", "cust").unwrap();
        c.create_index("customers", "id").unwrap();
    }
    c
}

fn random_orders(rng: &mut Rng64) -> Vec<(Option<i64>, i64, f64)> {
    let n = rng.below_usize(8);
    (0..n)
        .map(|_| {
            let key = if rng.chance(0.15) {
                None // NULL keys must behave identically on both sides.
            } else {
                Some(rng.below_u64(4) as i64)
            };
            (key, rng.below_u64(6) as i64, rng.range_f64(0.05, 0.95))
        })
        .collect()
}

fn random_customers(rng: &mut Rng64) -> Vec<(i64, f64, f64)> {
    let n = rng.below_usize(5);
    (0..n)
        .map(|_| {
            (
                rng.below_u64(4) as i64,
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(0.05, 0.95),
            )
        })
        .collect()
}

/// Run one query through the reference pipeline and through optimise →
/// lower → vectorized execution under `par`; assert the two result sets
/// are bit-identical (rows, order, lineage) and that cached scoring of
/// the vectorized rows reproduces the reference's score bits.
fn assert_bit_identical(sql: &str, catalog: &Catalog, par: &Parallelism, label: &str) {
    let expected = reference_rows(sql, catalog);
    let plan = parse_and_plan(sql, catalog).expect("plans");
    let logical = optimize(&plan, catalog).expect("optimises");
    let physical = lower(&logical, catalog).expect("lowers");
    let got = execute_vectorized_with(&physical, catalog, par).expect("vectorized");
    let context = format!("{sql} ({label})\nphysical plan:\n{physical}");
    assert_same_schema(&logical, &physical, catalog, &context);
    assert_rows_identical(&expected, &got, &context);
    assert_scores_identical(&expected, &got, catalog, &context);
}

/// Lowering never changes the schema of the plan it implements, nor the
/// error a plan without one has.
fn assert_same_schema(logical: &Plan, physical: &PhysicalPlan, catalog: &Catalog, context: &str) {
    assert_eq!(
        physical.schema(catalog).map_err(|e| e.to_string()),
        logical.schema(catalog).map_err(|e| e.to_string()),
        "{context}"
    );
}

/// Cached scoring of the vectorized rows must reproduce the reference's
/// uncached score bits.
fn assert_scores_identical(
    expected: &ResultSet,
    got: &ResultSet,
    catalog: &Catalog,
    context: &str,
) {
    let probs = |v: VarId| catalog.confidence(TupleId(v.0));
    let ev = Evaluator::default();
    let mut cache = CircuitCache::new();
    for row in got.rows() {
        for v in row.lineage.vars() {
            cache.set_prob(v, probs(v).expect("known tuple"));
        }
    }
    let reference = expected.score(&probs, &ev).expect("scores");
    let cached = got.score_cached(&mut cache, &ev).expect("scores");
    for (x, y) in reference.iter().zip(&cached) {
        assert_eq!(
            x.confidence.to_bits(),
            y.confidence.to_bits(),
            "confidence bits diverged for {context}"
        );
    }
}

#[test]
fn physical_execution_is_bit_identical_to_logical() {
    let sequential = Parallelism::sequential();
    let four = Parallelism {
        worker_threads: Some(4),
        parallel_threshold: 1,
    };
    let host = Parallelism {
        worker_threads: None,
        parallel_threshold: 1,
    };
    for_each_case(CASES, 0x0097_0001, |rng| {
        let orders = random_orders(rng);
        let customers = random_customers(rng);
        for indexed in [false, true] {
            let catalog = build_catalog(&orders, &customers, indexed);
            for sql in QUERIES {
                assert_bit_identical(sql, &catalog, &sequential, "1 thread");
                assert_bit_identical(sql, &catalog, &four, "4 threads");
                assert_bit_identical(sql, &catalog, &host, "host threads");
            }
        }
    });
}

#[test]
fn index_scans_are_planned_and_bit_identical() {
    // A database big enough that the planner prefers the index, with
    // duplicate keys so postings order matters.
    let orders: Vec<(Option<i64>, i64, f64)> = (0..40)
        .map(|i| (Some(i % 4), i % 6, 0.05 + 0.9 * ((i % 9) as f64) / 9.0))
        .collect();
    let catalog = build_catalog(&orders, &[(1, 0.5, 0.9)], true);
    let sql = "SELECT * FROM orders WHERE cust = 2 AND amount > 1";
    let plan = parse_and_plan(sql, &catalog).unwrap();
    let logical = optimize(&plan, &catalog).unwrap();
    let physical = lower(&logical, &catalog).unwrap();
    assert!(
        physical.to_string().contains("IndexScan orders (cust = 2)"),
        "{physical}"
    );
    assert_bit_identical(sql, &catalog, &Parallelism::sequential(), "indexed");
}

// ---------------------------------------------------------------------------
// Error order and three-valued logic through the whole executor.

/// Rows of the grid table: 8 morsels of 75.
const GRID_ROWS: usize = 600;

/// `t(id INT, grp INT, a INT, n INT, x REAL, s TEXT)` and `u(k INT, w INT)`.
/// Every row of `t` is benign — `n` and `s` NULL, `a` small, `x` cycling
/// through `-0.0`, `0.0`, NaN, an `Int` stored in the `REAL` column, a
/// plain real and NULL — except the row at `offender`, which holds what
/// the failing predicates trip on: `a = i64::MAX`, `n = 7`, `x` NULL,
/// `s = 'boom'` — and `grp = 1`, where every other row's is 0: an index
/// on `grp` passes the offender over for `grp = 0`. A `t` row joins the
/// `u` rows with `k` its `grp`: two for 0, one for 1.
fn grid_catalog(offender: usize, indexed: bool) -> Catalog {
    let mut c = Catalog::new();
    let int = |name| Column::new(name, DataType::Int);
    c.create_table(
        "t",
        Schema::new(vec![
            int("id"),
            int("grp"),
            int("a"),
            int("n"),
            Column::new("x", DataType::Real),
            Column::new("s", DataType::Text),
        ])
        .unwrap(),
    )
    .unwrap();
    c.create_table("u", Schema::new(vec![int("k"), int("w")]).unwrap())
        .unwrap();
    for i in 0..GRID_ROWS {
        let (a, n, x, s) = if i == offender {
            (i64::MAX, Value::Int(7), Value::Null, Value::text("boom"))
        } else {
            let x = match i % 6 {
                0 => Value::Real(-0.0),
                1 => Value::Real(0.0),
                2 => Value::Real(f64::NAN),
                3 => Value::Int(3),
                4 => Value::Real(i as f64 * 0.5 - 100.0),
                _ => Value::Null,
            };
            ((i % 7) as i64, Value::Null, x, Value::Null)
        };
        let grp = Value::Int((i == offender).into());
        let row = vec![Value::Int(i as i64), grp, Value::Int(a), n, x, s];
        c.insert("t", row, 0.05 + 0.1 * (i % 9) as f64).unwrap();
    }
    for (k, w) in [(0, 1), (0, 2), (1, 3)] {
        c.insert(
            "u",
            vec![Value::Int(k), Value::Int(w)],
            0.5 + 0.1 * w as f64,
        )
        .unwrap();
    }
    if indexed {
        c.create_index("t", "grp").unwrap();
        c.create_index("u", "k").unwrap();
    }
    c
}

/// What a non-boolean predicate raises where it is the whole predicate or
/// residual; beside a shape's own conjunct it is `logic applied to 7`.
const NOT_A_PREDICATE: Option<&str> = Some("predicate evaluated to non-boolean 7");

/// `(name, predicate over t's columns, the error it must raise)`.
fn grid_predicates() -> Vec<(&'static str, ScalarExpr, Option<&'static str>)> {
    let col = ScalarExpr::column;
    let int = |i: i64| ScalarExpr::literal(Value::Int(i));
    let real = |r: f64| ScalarExpr::literal(Value::Real(r));
    let (id, a, n, x, s) = (0, 2, 3, 4, 5);
    // Both fail at the offender only.
    let text_vs_int = || col(s).gt(int(1));
    let overflow = || col(a).add(int(1)).gt(int(0));
    let all = || col(id).ge(int(0));
    let none = || col(id).lt(int(0));
    let x_positive = || col(x).gt(real(0.0)); // NULL at the offender
    const COMPARE: Option<&str> = Some("cannot compare boom with 1");
    const OVERFLOW: Option<&str> = Some("integer overflow");
    const LOGIC: Option<&str> = Some("logic applied to 7");
    vec![
        ("TEXT vs INT", text_vs_int(), COMPARE),
        ("overflow in an operand", overflow(), OVERFLOW),
        ("error left of AND", text_vs_int().and(all()), COMPARE),
        ("error right of AND", all().and(text_vs_int()), COMPARE),
        ("error left of OR", overflow().or(none()), OVERFLOW),
        ("error right of OR", none().or(overflow()), OVERFLOW),
        ("non-boolean left of AND", col(n).and(all()), LOGIC),
        ("non-boolean right of AND", all().and(col(n)), LOGIC),
        ("non-boolean left of OR", col(n).or(none()), LOGIC),
        ("non-boolean right of OR", none().or(col(n)), LOGIC),
        (
            "right error beats a non-boolean left",
            col(n).and(text_vs_int()),
            COMPARE,
        ),
        ("NULL AND error", x_positive().and(text_vs_int()), COMPARE),
        ("NULL OR error", x_positive().or(overflow()), OVERFLOW),
        ("non-boolean predicate", col(n), NOT_A_PREDICATE),
        ("false AND error", none().and(text_vs_int()).or(all()), None),
        ("true OR error", all().or(overflow()), None),
        ("an Int in a REAL column", col(x).eq(int(3)), None),
        ("-0.0 is below 0.0", col(x).lt(real(0.0)), None),
        ("only 0.0 equals 0.0", col(x).eq(real(0.0)), None),
        (
            "NaN is ordered above every real",
            col(x).gt(real(f64::MAX)),
            None,
        ),
        (
            "NULL-bearing disjunction",
            col(x).ge(real(0.0)).or(col(x).lt(real(0.0))),
            None,
        ),
    ]
}

/// The places a predicate can run: fused into a table or index scan —
/// behind the index's key conjunct, which shields the offender from it, and
/// before it, where it meets the offender first — in a standalone `Filter`
/// over borrowed and over owned rows, as a hash-join (with `u.k` indexed:
/// index-join) residual and as a nested-loop predicate. `t`'s columns come
/// first in both joins, so the predicate reads the same values everywhere.
fn grid_shapes(predicate: &ScalarExpr) -> Vec<(&'static str, Plan)> {
    let col = ScalarExpr::column;
    let t = || Plan::scan("t");
    let every_column = ["id", "grp", "a", "n", "x", "s"]
        .iter()
        .enumerate()
        .map(|(i, name)| ProjItem::new(col(i), *name))
        .collect();
    let grp_is_zero = || col(1).eq(ScalarExpr::literal(Value::Int(0)));
    vec![
        ("scan", t().select(predicate.clone())),
        (
            "index scan",
            t().select(grp_is_zero().and(predicate.clone())),
        ),
        (
            "index scan, key last",
            t().select(predicate.clone().and(grp_is_zero())),
        ),
        (
            "filter over stored rows",
            t().limit(GRID_ROWS).select(predicate.clone()),
        ),
        (
            "filter over derived rows",
            t().project_all(every_column).select(predicate.clone()),
        ),
        (
            "hash-join residual",
            t().join(Plan::scan("u"), col(1).eq(col(6)).and(predicate.clone())),
        ),
        (
            "nested-loop predicate",
            t().join(Plan::scan("u"), col(1).le(col(6)).and(predicate.clone())),
        ),
    ]
}

/// Run `physical` at 1, 4 and host threads and hold each run to the
/// reference's outcome: rows, lineage and confidence bits, or the error.
fn assert_outcome_identical(
    expected: &pcqe::algebra::Result<ResultSet>,
    physical: &PhysicalPlan,
    catalog: &Catalog,
    context: &str,
) {
    for (par, threads) in parallelism_grid() {
        let got = execute_vectorized_with(physical, catalog, &par);
        let context = format!("{context} ({threads})");
        match (expected, &got) {
            (Ok(e), Ok(g)) => {
                assert_rows_identical(e, g, &context);
                // Scoring reads only what was just compared: once per plan
                // is as good as once per run.
                if par == Parallelism::sequential() {
                    assert_scores_identical(e, g, catalog, &context);
                }
            }
            (Err(e), Err(g)) => assert_eq!(e.to_string(), g.to_string(), "{context}"),
            (e, g) => panic!("reference {e:?} but vectorized {g:?} for {context}"),
        }
    }
}

#[test]
fn errors_and_three_valued_logic_match_the_reference_everywhere() {
    let expected_plan = [
        ("scan", "TableScan t [filter:"),
        ("filter over stored rows", "Filter"),
        ("filter over derived rows", "Filter"),
        ("hash-join residual", "HashJoin"),
        ("nested-loop predicate", "NestedLoopJoin"),
    ];
    for offender in [0, GRID_ROWS / 2, GRID_ROWS - 1] {
        for indexed in [false, true] {
            let catalog = grid_catalog(offender, indexed);
            for (name, predicate, error) in grid_predicates() {
                for (shape, plan) in grid_shapes(&predicate) {
                    let physical = lower(&plan, &catalog).expect("lowers");
                    let context = format!(
                        "{name} as {shape}, offender at row {offender}, indexed={indexed}\n{physical}"
                    );
                    if let Some((_, operator)) = expected_plan.iter().find(|(s, _)| *s == shape) {
                        // With its index on `u.k`, the unfiltered build
                        // side is the index itself.
                        let operator = match (*operator, indexed) {
                            ("HashJoin", true) => "IndexJoin u (k)",
                            (operator, _) => operator,
                        };
                        assert!(physical.to_string().contains(operator), "{context}");
                    }
                    if shape == "index scan" {
                        let scan = if indexed {
                            "IndexScan t (grp = 0) [filter:"
                        } else {
                            "TableScan t"
                        };
                        assert!(physical.to_string().contains(scan), "{context}");
                    }
                    if shape == "index scan, key last" {
                        // The key is the index's to answer only behind
                        // conjuncts that cannot raise.
                        let type_safe = matches!(
                            name,
                            "an Int in a REAL column"
                                | "-0.0 is below 0.0"
                                | "only 0.0 equals 0.0"
                                | "NaN is ordered above every real"
                        );
                        let scan = if indexed && type_safe {
                            "IndexScan t (grp = 0) [filter:"
                        } else {
                            "TableScan t [filter:"
                        };
                        assert!(physical.to_string().contains(scan), "{context}");
                    }
                    assert_same_schema(&plan, &physical, &catalog, &context);
                    let expected = execute(&plan, &catalog);
                    let beside_a_conjunct =
                        matches!(shape, "index scan, key last" | "nested-loop predicate");
                    let error = if error == NOT_A_PREDICATE && beside_a_conjunct {
                        Some("logic applied to 7")
                    } else {
                        error
                    };
                    // Behind `grp = 0`, false on the offender, nothing is
                    // evaluated there: no error, with the index or without
                    // (and no row either, where only the offender had a
                    // non-NULL to test).
                    let shielded = shape == "index scan";
                    match (&expected, error) {
                        (Err(e), Some(text)) if !shielded => {
                            assert!(e.to_string().contains(text), "{e}: {context}")
                        }
                        (Ok(_), Some(_)) if shielded => {}
                        (Ok(rows), None) => assert!(!rows.is_empty(), "{context}"),
                        (other, _) => panic!("reference gave {other:?} for {context}"),
                    }
                    assert_outcome_identical(&expected, &physical, &catalog, &context);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The compiled predicate against the interpreter, on random trees.

#[derive(Clone, Copy)]
enum Op {
    Binary(BinaryOp),
    Unary(UnaryOp),
}

/// Every operator: the twelve that yield a boolean, then the five that
/// yield a number.
const OPS: [Op; 17] = [
    Op::Binary(BinaryOp::Eq),
    Op::Binary(BinaryOp::Ne),
    Op::Binary(BinaryOp::Lt),
    Op::Binary(BinaryOp::Le),
    Op::Binary(BinaryOp::Gt),
    Op::Binary(BinaryOp::Ge),
    Op::Binary(BinaryOp::And),
    Op::Binary(BinaryOp::Or),
    Op::Binary(BinaryOp::Like),
    Op::Unary(UnaryOp::Not),
    Op::Unary(UnaryOp::IsNull),
    Op::Unary(UnaryOp::IsNotNull),
    Op::Binary(BinaryOp::Add),
    Op::Binary(BinaryOp::Sub),
    Op::Binary(BinaryOp::Mul),
    Op::Binary(BinaryOp::Div),
    Op::Unary(UnaryOp::Neg),
];
const BOOLEAN_OPS: usize = 12;

/// A value of any type, edge cases included.
fn random_value(rng: &mut Rng64) -> Value {
    match rng.below_u64(9) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.below_u64(5) as i64 - 2),
        3 => Value::Int(if rng.chance(0.5) { i64::MAX } else { i64::MIN }),
        4 => Value::Real(rng.range_f64(-2.0, 2.0)),
        5 => Value::Real(if rng.chance(0.5) { 0.0 } else { -0.0 }),
        6 => Value::Real(f64::NAN),
        7 => Value::text(if rng.chance(0.5) { "ab" } else { "a%" }),
        _ => Value::text("abc"),
    }
}

/// Rows have four columns; column 4 is out of range on purpose.
fn random_leaf(rng: &mut Rng64) -> ScalarExpr {
    if rng.chance(0.5) {
        let columns = if rng.chance(0.03) { 5 } else { 4 };
        ScalarExpr::column(rng.below_usize(columns))
    } else {
        ScalarExpr::literal(random_value(rng))
    }
}

/// A tree of depth ≤ `depth` for a boolean or a value position. Four
/// times in five the operator fits the position and its operands fit the
/// operator, so that evaluation gets past the root; otherwise any
/// operator over any operands.
fn random_expr(rng: &mut Rng64, depth: u32, boolean: bool) -> ScalarExpr {
    if depth == 0 || rng.chance(0.1) {
        return random_leaf(rng);
    }
    let ill_typed = rng.chance(0.2);
    let fitting = match (ill_typed, boolean) {
        (true, _) => OPS.get(..),
        (false, true) => OPS.get(..BOOLEAN_OPS),
        (false, false) => OPS.get(BOOLEAN_OPS..),
    }
    .expect("in range");
    let op = fitting[rng.below_usize(fitting.len())];
    let over_booleans = matches!(
        op,
        Op::Binary(BinaryOp::And | BinaryOp::Or) | Op::Unary(UnaryOp::Not)
    );
    let operand = |rng: &mut Rng64| {
        let boolean = if ill_typed {
            rng.chance(0.5)
        } else {
            over_booleans
        };
        Box::new(random_expr(rng, depth - 1, boolean))
    };
    match op {
        Op::Binary(op) => ScalarExpr::Binary {
            op,
            left: operand(rng),
            right: operand(rng),
        },
        Op::Unary(op) => ScalarExpr::Unary {
            op,
            expr: operand(rng),
        },
    }
}

#[test]
fn compiled_predicates_agree_with_the_interpreter() {
    let (mut held, mut failed, mut rejected) = (0, 0, 0);
    for_each_case(2_500, 0x0097_0015, |rng| {
        let depth = 1 + rng.below_u64(4) as u32;
        let expr = random_expr(rng, depth, true);
        let compiled = expr.compile();
        for _ in 0..4 {
            let row: Vec<Value> = (0..4).map(|_| random_value(rng)).collect();
            let expected = expr.eval_predicate(&row).map_err(|e| e.to_string());
            let got = compiled.test(&row).map_err(|e| e.to_string());
            assert_eq!(expected, got, "{expr} on {row:?}");
            match expected {
                Ok(true) => held += 1,
                Ok(false) => rejected += 1,
                Err(_) => failed += 1,
            }
        }
    });
    // The generator reaches all three outcomes often enough to mean something.
    assert!(
        held > 500 && rejected > 500 && failed > 500,
        "{held} / {rejected} / {failed}"
    );
}

// ---------------------------------------------------------------------------
// The column-image prefilter: a table scan may skip a row without
// evaluating anything only if the whole predicate rejects it without
// raising.

/// `m(id INT, a INT, x REAL, s TEXT, n INT)`, `GRID_ROWS` rows: `x` drawn
/// from every kind of slot an image has — NULL, an `Int` widened into the
/// `REAL` column, `±0.0`, both NaNs, subnormals, infinities and integers
/// beyond 2^53 — `a` (not imaged: a conjunct on it ends a run) from NULLs
/// and `i64`s beyond 2^53, and `s`, `n` NULL except at `offender`, whose
/// row trips the fallible conjuncts (`s = 'boom'`, `n = 7`) while its `a`
/// and `x` are ones a numeric conjunct is mostly false or NULL on.
fn image_catalog(rng: &mut Rng64, offender: usize) -> Catalog {
    const BIG: i64 = (1 << 53) + 1;
    let mut c = Catalog::new();
    let int = |name| Column::new(name, DataType::Int);
    c.create_table(
        "m",
        Schema::new(vec![
            int("id"),
            int("a"),
            Column::new("x", DataType::Real),
            Column::new("s", DataType::Text),
            int("n"),
        ])
        .unwrap(),
    )
    .unwrap();
    for i in 0..GRID_ROWS {
        let mut a = match rng.below_u64(8) {
            0 => Value::Null,
            1 => Value::Int(BIG),
            2 => Value::Int(-BIG),
            3 => Value::Int(i64::MAX),
            4 => Value::Int(i64::MIN),
            _ => Value::Int(rng.below_u64(7) as i64 - 3),
        };
        let mut x = match rng.below_u64(12) {
            0 => Value::Null,
            1 => Value::Int(rng.below_u64(7) as i64 - 3),
            2 => Value::Real(-0.0),
            3 => Value::Real(0.0),
            4 => Value::Real(f64::NAN),
            5 => Value::Real(-f64::NAN),
            6 => Value::Real(if rng.chance(0.5) { 5e-324 } else { -5e-324 }),
            7 => Value::Real(if rng.chance(0.5) {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }),
            8 => Value::Real(BIG as f64 + 2.0 * rng.below_u64(2) as f64),
            _ => Value::Real(rng.range_f64(-3.0, 3.0)),
        };
        let (mut s, mut n) = (Value::Null, Value::Null);
        if i == offender {
            (s, n) = (Value::text("boom"), Value::Int(7));
            a = if rng.chance(0.5) {
                Value::Null
            } else {
                Value::Int(i64::MAX)
            };
            x = match rng.below_u64(3) {
                0 => Value::Null,
                1 => Value::Int(-2),
                _ => Value::Real(-2.5),
            };
        }
        c.insert(
            "m",
            vec![Value::Int(i as i64), a, x, s, n],
            0.05 + 0.1 * (i % 9) as f64,
        )
        .unwrap();
    }
    c
}

/// What the leading run makes of one conjunct.
#[derive(Clone, Copy, PartialEq)]
enum InRun {
    /// Not type-safe: the run ends before it.
    No,
    /// Type-safe, over a column without an image: the run goes on.
    Safe,
    /// Type-safe and over `x`, the imaged column: the image pass reads it.
    Imaged,
}

/// `column <cmp> literal` or `literal <cmp> column`: mostly a numeric
/// literal against `x`, the imaged column, otherwise against `id`, `a` or
/// the TEXT column, now and then with a NULL or a text literal. Says what
/// a leading run makes of it.
fn image_conjunct(rng: &mut Rng64) -> (ScalarExpr, InRun) {
    const COMPARISONS: [BinaryOp; 6] = [
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
    ];
    let (column, text, imaged) = match rng.below_u64(10) {
        0 => (3, true, false),  // s TEXT
        1 => (0, false, false), // id INT
        2 => (1, false, false), // a INT
        _ => (2, false, true),  // x REAL
    };
    let literal = match rng.below_u64(12) {
        0 => Value::Null,
        1 => Value::Int((1 << 53) + 1),
        2 => Value::Int(i64::MAX),
        3 => Value::Real(f64::NAN),
        4 => Value::Real(-0.0),
        5 => Value::Real(0.0),
        6 => Value::Real(5e-324),
        7 => Value::Real((1u64 << 53) as f64),
        8 | 9 => Value::Real(rng.range_f64(-3.0, 3.0)),
        10 => Value::Int(rng.below_u64(7) as i64 - 3),
        // Against `s`, usually: the type-safe conjunct no image reads.
        _ if text || rng.chance(0.2) => Value::text("boo"),
        _ => Value::Int(rng.below_u64(7) as i64 - 3),
    };
    let in_run = match &literal {
        Value::Int(_) | Value::Real(_) if imaged => InRun::Imaged,
        Value::Int(_) | Value::Real(_) if !text => InRun::Safe,
        Value::Text(_) if text => InRun::Safe,
        _ => InRun::No,
    };
    let (column, literal) = (ScalarExpr::column(column), ScalarExpr::literal(literal));
    let (left, right) = if rng.chance(0.5) {
        (column, literal)
    } else {
        (literal, column)
    };
    let expr = ScalarExpr::Binary {
        op: COMPARISONS[rng.below_usize(6)],
        left: Box::new(left),
        right: Box::new(right),
    };
    (expr, in_run)
}

/// A conjunct that ends a leading run: fallible or non-boolean at the
/// offender, an `OR`, or a test the image has no kernel for.
fn other_conjunct(rng: &mut Rng64) -> ScalarExpr {
    let col = ScalarExpr::column;
    let int = |i: i64| ScalarExpr::literal(Value::Int(i));
    match rng.below_u64(5) {
        0 => col(3).gt(int(1)),             // cannot compare boom with 1
        1 => col(4),                        // non-boolean 7
        2 => col(1).add(int(1)).gt(int(0)), // integer overflow on i64::MAX
        3 => image_conjunct(rng).0.or(image_conjunct(rng).0),
        _ => ScalarExpr::Unary {
            op: UnaryOp::IsNotNull,
            expr: Box::new(col(2)),
        },
    }
}

/// The conjuncts under a randomly shaped `AND` tree: evaluation order is
/// the list's, whatever the shape.
fn and_tree(rng: &mut Rng64, conjuncts: &[ScalarExpr]) -> ScalarExpr {
    if let [only] = conjuncts {
        return only.clone();
    }
    let (left, right) = conjuncts.split_at(1 + rng.below_usize(conjuncts.len() - 1));
    and_tree(rng, left).and(and_tree(rng, right))
}

/// 1–4 conjuncts, and what the leading run makes of each.
fn image_predicate(rng: &mut Rng64) -> (ScalarExpr, Vec<InRun>) {
    let n = 1 + rng.below_usize(4);
    let (conjuncts, in_run): (Vec<ScalarExpr>, Vec<InRun>) = (0..n)
        .map(|_| {
            if rng.chance(0.7) {
                image_conjunct(rng)
            } else {
                (other_conjunct(rng), InRun::No)
            }
        })
        .unzip();
    (and_tree(rng, &conjuncts), in_run)
}

#[test]
fn image_prefilter_only_skips_rows_the_predicate_rejects() {
    let (mut dropped, mut errors, mut whole_runs, mut partial_runs, mut mixed_runs) =
        (0, 0, 0, 0, 0);
    for_each_case(16, 0x0097_0018, |rng| {
        // The offender in the first, a middle and the last morsel.
        let offender = [0, GRID_ROWS / 2, GRID_ROWS - 1][rng.below_usize(3)];
        let catalog = image_catalog(rng, offender);
        let table = catalog.table("m").unwrap();
        for _ in 0..40 {
            let (predicate, in_run) = image_predicate(rng);
            // The run: the conjuncts before the first that is not type-safe;
            // the image pass reads those of them that are over `x`.
            let run = in_run.iter().take_while(|c| **c != InRun::No).count();
            let imaged = in_run[..run].iter().filter(|c| **c == InRun::Imaged);
            let (imaged, conjuncts) = (imaged.count(), in_run.len());
            let plan = Plan::scan("m").select(predicate.clone());
            let physical = lower(&plan, &catalog).expect("lowers");
            let context = format!("{predicate}, offender at row {offender}");
            assert!(
                physical.to_string().contains("TableScan m [filter:"),
                "{context}\n{physical}"
            );

            // The split's law, directly: a row the image pass leaves out is
            // one the whole predicate rejects without raising.
            let test = predicate.compile();
            let candidates = predicate.leading_run(table).candidates();
            assert_eq!(candidates.is_some(), imaged > 0, "{context}");
            let candidates = candidates.unwrap_or_else(|| (0..GRID_ROWS).collect());
            assert!(candidates.is_sorted() && candidates.iter().all(|&p| p < GRID_ROWS));
            let mut next = candidates.iter().peekable();
            for (pos, row) in table.rows().iter().enumerate() {
                let values = row.tuple.values();
                let verdict = test.test(values).map_err(|e| e.to_string());
                if next.next_if_eq(&&pos).is_none() {
                    assert_eq!(
                        verdict,
                        Ok(false),
                        "row {pos} {values:?} skipped: {context}"
                    );
                    dropped += 1;
                } else if imaged == conjuncts {
                    // And it is not idle: where the image reads the whole
                    // predicate, a candidate it could not decide holds a
                    // NULL or an `Int` in the `REAL` column.
                    let native = matches!(values, [_, _, Value::Real(_), ..]);
                    assert!(
                        verdict == Ok(true) || !native,
                        "row {pos} {values:?}: {context}"
                    );
                }
            }
            whole_runs += usize::from(imaged == conjuncts);
            partial_runs += usize::from(0 < imaged && run < conjuncts);
            // A type-safe conjunct no image reads does not end the run: the
            // imaged one behind it still drops rows.
            let first_imaged = in_run.iter().position(|c| *c == InRun::Imaged);
            mixed_runs += usize::from(imaged > 0 && first_imaged > Some(0));

            // And end to end: rows, lineage, confidence bits or the error.
            let expected = execute(&plan, &catalog);
            errors += usize::from(expected.is_err());
            assert_outcome_identical(&expected, &physical, &catalog, &context);
        }
    });
    // The generator reaches what the law is about often enough to mean
    // something: rows skipped, predicates that raise, runs the image reads
    // whole, runs that stop at a conjunct they may not pass, and runs where
    // a `TEXT` or `INT` conjunct stands before the imaged one.
    assert!(
        dropped > 50_000 && errors > 40 && whole_runs > 100 && partial_runs > 40 && mixed_runs > 20,
        "{dropped} / {errors} / {whole_runs} / {partial_runs} / {mixed_runs}"
    );
}

// ---------------------------------------------------------------------------
// The equality index: another source of skips under the same rule. Adding
// an index changes no outcome — not the rows, and not which error is
// raised or how it is worded.

/// Rows of the law's table: three morsels.
const LAW_ROWS: usize = 160;

/// `t(grp INT, n INT, s TEXT, a INT)` — four columns, the ones
/// [`random_leaf`] reads — with `grp` cycling through 0–3 and NULL on every
/// eleventh row, and `n`, `s` NULL and `a` small except on the offenders,
/// every thirteenth row from the sixth (`n = 7`, `s = 'boom'`,
/// `a = i64::MAX`): under every key, under none, and under NULL (row 44).
fn law_catalog(indexed: bool) -> Catalog {
    let mut c = Catalog::new();
    let int = |name| Column::new(name, DataType::Int);
    let columns = vec![
        int("grp"),
        int("n"),
        Column::new("s", DataType::Text),
        int("a"),
    ];
    c.create_table("t", Schema::new(columns).unwrap()).unwrap();
    for i in 0..LAW_ROWS {
        let grp = if i % 11 == 0 {
            Value::Null
        } else {
            Value::Int((i % 4) as i64)
        };
        let row = if i % 13 == 5 {
            vec![
                grp,
                Value::Int(7),
                Value::text("boom"),
                Value::Int(i64::MAX),
            ]
        } else {
            vec![grp, Value::Null, Value::Null, Value::Int((i % 5) as i64)]
        };
        c.insert("t", row, 0.05 + 0.1 * (i % 9) as f64).unwrap();
    }
    if indexed {
        c.create_index("t", "grp").unwrap();
    }
    c
}

/// A conjunct the leading run takes: `n`, `a` or `grp` against an integer,
/// `s` against a text.
fn type_safe_conjunct(rng: &mut Rng64) -> ScalarExpr {
    let (column, literal) = match rng.below_u64(4) {
        0 => (2, Value::text(if rng.chance(0.5) { "boom" } else { "ab" })),
        1 => (0, Value::Int(rng.below_u64(4) as i64)),
        column => (column as usize - 1, Value::Int(rng.below_u64(9) as i64)),
    };
    let op = [BinaryOp::Ne, BinaryOp::Le, BinaryOp::Gt, BinaryOp::Eq][rng.below_usize(4)];
    ScalarExpr::Binary {
        op,
        left: Box::new(ScalarExpr::column(column)),
        right: Box::new(ScalarExpr::literal(literal)),
    }
}

#[test]
fn an_index_never_changes_the_outcome() {
    let (plain, indexed) = (law_catalog(false), law_catalog(true));
    let (mut index_scans, mut key_behind, mut refused, mut errors, mut answers) = (0, 0, 0, 0, 0);
    for_each_case(400, 0x0097_0023, |rng| {
        // 1–4 conjuncts: `grp = k` (either way round, `k = 4` under no row)
        // at a random position, or absent one time in five; the others
        // type-safe half the time, otherwise any tree at all.
        let n = 1 + rng.below_usize(4);
        let key_at = rng.chance(0.8).then(|| rng.below_usize(n));
        let conjuncts: Vec<ScalarExpr> = (0..n)
            .map(|i| {
                if key_at == Some(i) {
                    let grp = ScalarExpr::column(0);
                    let k = ScalarExpr::literal(Value::Int(rng.below_u64(5) as i64));
                    if rng.chance(0.5) {
                        grp.eq(k)
                    } else {
                        k.eq(grp)
                    }
                } else if rng.chance(0.5) {
                    type_safe_conjunct(rng)
                } else {
                    let depth = 1 + rng.below_u64(3) as u32;
                    random_expr(rng, depth, true)
                }
            })
            .collect();
        let predicate = and_tree(rng, &conjuncts);
        let plan = Plan::scan("t").select(predicate.clone());
        let expected = execute(&plan, &plain);
        match &expected {
            Ok(rows) => answers += usize::from(!rows.is_empty()),
            Err(_) => errors += 1,
        }
        for catalog in [&plain, &indexed] {
            let physical = lower(&plan, catalog).expect("lowers");
            let context = format!("{predicate}\n{physical}");
            assert_same_schema(&plan, &physical, catalog, &context);
            assert_outcome_identical(&expected, &physical, catalog, &context);
            if let PhysicalPlan::IndexScan { residual, .. } = &physical {
                // Nothing is taken out of the predicate.
                let whole = (n > 1).then_some(&predicate);
                assert_eq!(residual.as_ref(), whole, "{context}");
                index_scans += 1;
                key_behind += usize::from(key_at > Some(0));
            } else if key_at.is_some() && std::ptr::eq(catalog, &indexed) {
                refused += 1;
            }
        }
    });
    // The generator reaches what the law is about often enough to mean
    // something: index scans, ones whose key is not the first conjunct,
    // keys the planner may not take, predicates that raise and ones that
    // answer.
    assert!(
        index_scans > 100 && key_behind > 40 && refused > 40 && errors > 100 && answers > 40,
        "{index_scans} / {key_behind} / {refused} / {errors} / {answers}"
    );
}

// ---------------------------------------------------------------------------
// Rows borrowed from storage: a build side far larger than its matches,
// and an aggregate that never reads the widest column.

#[test]
fn borrowed_scans_feed_joins_and_aggregates_like_the_reference() {
    let mut c = Catalog::new();
    c.create_table(
        "facts",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("k", DataType::Int),
            Column::new("note", DataType::Text),
            Column::new("amount", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    c.create_table(
        "dim",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
        .unwrap(),
    )
    .unwrap();
    // 300 facts, three of which find a partner among the 2 000 dim rows
    // (two in the same one, so a match list has more than one entry).
    for i in 0..300i64 {
        let k = match i {
            17 | 170 => 1_234,
            299 => 7,
            _ => 10_000 + i % 5,
        };
        let note = format!("{i} ").repeat(40);
        let row = vec![
            Value::Int(i),
            Value::Int(k),
            Value::Text(note),
            Value::Real(i as f64 / 4.0),
        ];
        c.insert("facts", row, 0.1 + 0.8 * (i % 10) as f64 / 10.0)
            .unwrap();
    }
    for i in 0..2_000i64 {
        // Descending ids, so the build side is not already in key order.
        let id = 1_999 - i;
        let row = vec![Value::Int(id), Value::text(format!("dim-{id}"))];
        c.insert("dim", row, 0.2 + 0.7 * (i % 7) as f64 / 7.0)
            .unwrap();
    }
    let join = "SELECT f.id, d.name FROM facts f JOIN dim d ON f.k = d.id";
    let lowered = |c: &Catalog| {
        let plan = parse_and_plan(join, c).unwrap();
        lower(&optimize(&plan, c).unwrap(), c).unwrap().to_string()
    };
    assert!(lowered(&c).contains("HashJoin"), "{}", lowered(&c));
    assert_eq!(reference_rows(join, &c).len(), 3);
    let aggregate =
        "SELECT k, COUNT(*) AS n, SUM(amount) AS total FROM facts WHERE amount > 10 GROUP BY k";
    for (par, threads) in parallelism_grid() {
        assert_bit_identical(join, &c, &par, threads);
        assert_bit_identical(aggregate, &c, &par, threads);
    }
    // With an index on the build side's key the join reads that instead:
    // the same three rows, and 2 000 dim rows never scanned.
    c.create_index("dim", "id").unwrap();
    let text = lowered(&c);
    assert!(
        text.contains("IndexJoin dim AS d (id)") && !text.contains("TableScan dim"),
        "{text}"
    );
    for (par, threads) in parallelism_grid() {
        assert_bit_identical(join, &c, &par, threads);
    }
}

#[test]
fn hash_join_rejects_a_key_left_of_its_build_side() {
    // A malformed plan: the right key column is numbered inside the left
    // input's two columns.
    let catalog = build_catalog(&[(Some(1), 1, 0.5)], &[(1, 0.5, 0.5)], false);
    let scan = |table: &str| {
        Box::new(PhysicalPlan::TableScan {
            table: table.into(),
            alias: None,
            residual: None,
        })
    };
    let plan = PhysicalPlan::HashJoin {
        left: scan("orders"),
        right: scan("customers"),
        keys: vec![(0, 1)],
        residual: None,
    };
    let err = execute_vectorized_with(&plan, &catalog, &Parallelism::sequential()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "type error: join key column 1 out of range"
    );
}

#[test]
fn index_join_rejects_a_malformed_plan_with_a_typed_error() {
    let catalog = build_catalog(&[(Some(1), 1, 0.5)], &[(1, 0.5, 0.5)], true);
    let join = |column: usize, keys: Vec<(usize, usize)>| PhysicalPlan::IndexJoin {
        left: Box::new(PhysicalPlan::TableScan {
            table: "orders".into(),
            alias: None,
            residual: None,
        }),
        table: "customers".into(),
        alias: None,
        column,
        column_name: "id".into(),
        keys,
        residual: None,
    };
    let error = |plan: PhysicalPlan| {
        let run = execute_vectorized_with(&plan, &catalog, &Parallelism::sequential());
        run.unwrap_err().to_string()
    };
    // The well-formed plan runs.
    let rows =
        execute_vectorized_with(&join(0, vec![(0, 2)]), &catalog, &Parallelism::sequential());
    assert_eq!(rows.unwrap().len(), 1);
    // A right key numbered inside the left input, and one past the table.
    for (keys, named) in [(vec![(0, 1)], 1), (vec![(0, 2), (1, 4)], 4)] {
        assert_eq!(
            error(join(0, keys)),
            format!("type error: join key column {named} out of range")
        );
    }
    // A left key past the left input.
    assert_eq!(
        error(join(0, vec![(2, 2)])),
        "type error: join key column 2 out of range"
    );
    // No index on the named column; no key on the indexed one.
    assert!(error(join(1, vec![(0, 3)])).contains("requires an index on column 1"));
    assert!(error(join(0, vec![(1, 3)])).contains("no key on indexed column 0"));
}

// ---------------------------------------------------------------------------
// Golden EXPLAIN snapshot of the paper's running example.

const PAPER_QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

/// The Section 3.1 database (same fixture as `tests/obs_determinism.rs`).
fn paper_db() -> Database {
    let mut db = Database::new(EngineConfig::default().sequential());
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

/// Regenerate the golden EXPLAIN snapshot:
/// `PCQE_BLESS=1 cargo test --test physical_equivalence bless`.
#[test]
fn bless_golden_explain_when_requested() {
    if std::env::var_os("PCQE_BLESS").is_none() {
        return;
    }
    let text = paper_db().explain_physical(PAPER_QUERY).unwrap();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("explain_paper.txt"), text).unwrap();
}

#[test]
fn paper_example_explain_matches_golden_snapshot() {
    let text = paper_db().explain_physical(PAPER_QUERY).unwrap();
    assert_eq!(
        text,
        include_str!("golden/explain_paper.txt"),
        "EXPLAIN drifted from tests/golden/explain_paper.txt \
         (regenerate with PCQE_BLESS=1 if the change is intended)"
    );
}
