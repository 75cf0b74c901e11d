//! Physical-execution acceptance suite.
//!
//! The contract of `algebra::optimize` and `algebra::physical` is that
//! optimising, planning and vectorized execution are pure performance
//! decisions: for generated databases and queries (`tests/common`'s
//! generator, NULLs, NaN, ±0.0 and `i64` extremes included), the optimised,
//! lowered plan run on the vectorized executor must produce a
//! **bit-identical** outcome — same rows, same order, same lineage, same
//! scored confidence bits, or the same error — as the reference pipeline
//! (the plan as the SQL planner built it, on the reference executor), at any
//! worker-thread count, with or without equality indexes; `check_sql` holds
//! `Database::query` to it too. The hand-built laws below pin offender
//! rows the generator would rarely reach.
//!
//! A golden snapshot of what `EXPLAIN` renders (logical and physical plan
//! side by side) for the paper's Section 3.1 running example pins the
//! planner's choices; regenerate with
//! `PCQE_BLESS=1 cargo test --test physical_equivalence bless`.

mod common;

use common::{
    and_chain, any_value, assert_vexec_matches, check, check_generated, check_sql, execute,
    explained, for_each_case, key_pair, paper_db, random_db, random_predicate, random_tree, Agreed,
    DbSpec, Expr, ENGINE, PAPER_QUERY,
};
use pcqe::algebra::plan::SortKey;
use pcqe::algebra::{
    execute_vectorized_with, lower, optimize, BinaryOp, PhysicalPlan, Plan, ProjItem, ScalarExpr,
    UnaryOp,
};
use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::Rng64;
use pcqe::par::Parallelism;
use pcqe::policy::ConfidencePolicy;
use pcqe::sql::parse_and_plan;
use pcqe::storage::{Catalog, DataType, Value};
use std::cell::Cell;

#[test]
fn physical_execution_is_bit_identical_to_logical() {
    // Cases that lowered a nested loop with a predicate, and a hash or
    // index join.
    let kinds = Cell::new([0; 2]);
    let tally = check_generated(600, 0x0097_0001, ENGINE, |spec, query| {
        let agreed = check(spec, query)?;
        the_join_rule_holds(spec, &query.sql(spec), &kinds)?;
        Ok(agreed)
    });
    // The generator reaches answers, empty answers and errors, and both
    // kinds of join, often enough to mean something.
    assert!(
        tally.answered > 150 && tally.empty > 150 && tally.errors > 100,
        "{tally:?}"
    );
    let [nested, hashed] = kinds.get();
    assert!(nested >= 50 && hashed >= 50, "{nested} / {hashed}");
}

/// The join rule (`common::key_pair`): over the database with its
/// indexes and without, every join `sql` lowers to is a nested loop
/// exactly when its predicate has no conjunct `a = b` over a left and a
/// right column of one type that `=` compares exactly (`INT`, `TEXT` or
/// `BOOL`) — whatever the inputs' sizes. Counts into `kinds` whether the
/// case lowered a nested loop with a predicate, and a hash or index join.
fn the_join_rule_holds(spec: &DbSpec, sql: &str, kinds: &Cell<[usize; 2]>) -> Result<(), String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let mut seen = [false; 2];
    for catalog in [spec.catalog(false), spec.catalog(true)] {
        let Ok(plan) = parse_and_plan(sql, &catalog) else {
            continue;
        };
        let Ok(physical) = optimize(&plan, &catalog).and_then(|p| lower(&p, &catalog)) else {
            continue;
        };
        let mut nodes = vec![&physical];
        while let Some(node) = nodes.pop() {
            nodes.extend(node.children());
            // A hashed join's predicate: its key pairs, then its residual.
            let rejoined = |keys: &[(usize, usize)], residual: &Option<ScalarExpr>| {
                let keys = keys.iter().map(|&(l, r)| col(l).eq(col(r)));
                keys.chain(residual.clone()).reduce(ScalarExpr::and)
            };
            let (left, right, predicate) = match node {
                PhysicalPlan::NestedLoopJoin {
                    left,
                    right,
                    predicate,
                } => (
                    left,
                    right.schema(&catalog).map_err(|e| text(&e))?,
                    predicate.clone(),
                ),
                PhysicalPlan::HashJoin {
                    left,
                    right,
                    keys,
                    residual,
                } => (
                    left,
                    right.schema(&catalog).map_err(|e| text(&e))?,
                    rejoined(keys, residual),
                ),
                PhysicalPlan::IndexJoin {
                    left,
                    table,
                    keys,
                    residual,
                    ..
                } => {
                    let table = catalog.table(table).map_err(|e| text(&e))?;
                    (left, table.schema().clone(), rejoined(keys, residual))
                }
                _ => continue,
            };
            let left = left.schema(&catalog).map_err(|e| text(&e))?;
            let types: Vec<DataType> = [left.columns(), right.columns()]
                .concat()
                .iter()
                .map(|c| c.data_type)
                .collect();
            let mut conjuncts = Vec::new();
            predicate.iter().for_each(|p| and_chain(p, &mut conjuncts));
            let has_pair = conjuncts
                .iter()
                .any(|c| key_pair(c, &types, left.arity()).is_some());
            let nested = matches!(node, PhysicalPlan::NestedLoopJoin { .. });
            if nested == has_pair {
                return Err(format!(
                    "{} breaks the join rule\n{physical}",
                    node.node_label()
                ));
            }
            if !nested {
                seen[1] = true;
            } else if predicate.is_some() {
                seen[0] = true;
            }
        }
    }
    let mut counts = kinds.get();
    for (count, seen) in counts.iter_mut().zip(seen) {
        *count += usize::from(seen);
    }
    kinds.set(counts);
    Ok(())
}

fn col(i: usize) -> ScalarExpr {
    ScalarExpr::column(i)
}

/// `orders(cust INT, amount INT)`, indexed on `cust`, and
/// `customers(id INT, score REAL)`, indexed on `id`.
fn shop(orders: impl IntoIterator<Item = (f64, Vec<Value>)>, customers: &[(i64, f64)]) -> DbSpec {
    let customers = customers
        .iter()
        .map(|&(id, score)| (0.5, vec![Value::Int(id), Value::Real(score)]));
    DbSpec::default()
        .table(
            "orders",
            &[("cust", DataType::Int), ("amount", DataType::Int)],
        )
        .rows(orders)
        .index("cust")
        .table(
            "customers",
            &[("id", DataType::Int), ("score", DataType::Real)],
        )
        .rows(customers)
        .index("id")
}

#[test]
fn index_scans_are_planned_and_bit_identical() {
    // A database big enough that the planner prefers the index, with
    // duplicate keys so postings order matters.
    let orders = (0..40).map(|i| {
        let confidence = 0.05 + 0.9 * ((i % 9) as f64) / 9.0;
        (confidence, vec![Value::Int(i % 4), Value::Int(i % 6)])
    });
    let spec = shop(orders, &[(1, 0.5)]);
    let catalog = spec.catalog(true);
    let sql = "SELECT * FROM orders WHERE cust = 2 AND amount > 1";
    let plan = parse_and_plan(sql, &catalog).unwrap();
    let physical = lower(&optimize(&plan, &catalog).unwrap(), &catalog).unwrap();
    assert!(
        physical.to_string().contains("IndexScan orders (cust = 2)"),
        "{physical}"
    );
    check_sql(&spec, sql).unwrap();
}

#[test]
fn pushdown_shapes_on_a_fixed_database() {
    let orders = [(1, 3), (2, 1), (1, 5)].map(|(c, a)| (0.5, vec![Value::Int(c), Value::Int(a)]));
    let catalog = shop(orders, &[(1, 0.9), (2, 0.8)]).catalog(false);
    // The cross product with a join condition in WHERE must optimise into
    // a Join with the filters below it.
    let plan = parse_and_plan(
        "SELECT o.amount FROM orders o, customers c WHERE o.cust = c.id AND o.amount > 2",
        &catalog,
    )
    .unwrap();
    let text = optimize(&plan, &catalog).unwrap().to_string();
    assert!(text.contains("Join"), "{text}");
    assert!(!text.contains("Product"), "{text}");
}

/// The optimiser's arms the SQL grammar never reaches — a selection over a
/// LIMIT, a sort, a projection, a set operation or another selection —
/// held to the plan as written, over generated tables and predicates.
#[test]
fn optimizing_plans_the_sql_grammar_cannot_write_changes_no_outcome() {
    let mut rewritten = 0;
    for_each_case(300, 0x0097_0030, |rng| {
        let spec = random_db(rng, ENGINE);
        let table = &spec.tables[0];
        let types = [table.columns.iter().map(|c| c.data_type).collect()];
        let mut predicate = || random_predicate(rng, &types, 1, ENGINE).to_scalar(&[0]);
        let (p, q) = (predicate(), predicate());
        let scan = || Plan::scan(&table.name);
        let every_column = table.columns.iter().enumerate();
        let every_column =
            every_column.map(|(c, column)| ProjItem::new(ScalarExpr::column(c), &column.name));
        let descending = SortKey {
            expr: ScalarExpr::column(0),
            descending: true,
        };
        let catalog = spec.catalog(true);
        for plan in [
            scan().limit(2).select(p.clone()),
            scan().sort(vec![descending]).select(p.clone()),
            scan().project_all(every_column.collect()).select(p.clone()),
            scan().union(scan().select(q.clone())).select(p.clone()),
            scan()
                .difference(scan().select(q.clone()))
                .select(p.clone()),
            scan().select(q).select(p),
        ] {
            let optimized = optimize(&plan, &catalog).unwrap();
            rewritten += usize::from(optimized != plan);
            let physical = lower(&optimized, &catalog).unwrap();
            let context = format!("{plan}\noptimised:\n{optimized}\n{spec:?}");
            assert_vexec_matches(&execute(&plan, &catalog), &physical, &catalog, &context);
        }
    });
    assert!(rewritten > 200, "{rewritten}");
}

/// The optimiser moves a conjunct ahead of a join or of another conjunct
/// only if it cannot raise. Here `a.s > 1` can (a TEXT against an INT),
/// but only on `a`'s first row, which the join key — written first —
/// rejects: the plan as written answers with no row, and so must the
/// optimised one. On the parent commit the optimiser pushed `a.s > 1`
/// onto the scan of `a`, where it met `'x'` first, and `Database::query`
/// raised `algebra: type error: cannot compare x with 1`.
#[test]
fn the_optimizer_never_turns_an_answer_into_an_error() {
    let spec = DbSpec::default()
        .table("a", &[("k", DataType::Int), ("s", DataType::Text)])
        .row(0.5, vec![Value::Int(1), Value::text("x")])
        .row(0.5, vec![Value::Int(2), Value::Null])
        .table("b", &[("id", DataType::Int)])
        .row(0.5, vec![Value::Int(2)]);
    let sql = "SELECT a.k FROM a, b WHERE a.k = b.id AND a.s > 1";
    let mut db = spec.database(EngineConfig::default(), false);
    db.add_policy(ConfidencePolicy::default_floor(0.0).unwrap());
    let response = db.query(
        &User::new("ana", "analyst"),
        &QueryRequest::new(sql, "audit"),
    );
    assert_eq!(response.unwrap().released.len(), 0);
    check_sql(&spec, sql).unwrap();
}

/// Three more ways the parent commit's optimiser and planner changed an
/// outcome, as the shrinker printed them: a predicate that cannot sink was
/// split and re-associated (`logic applied to 1` for the reference's
/// `logic applied to a%`); a nested loop put in a hash join's place tested
/// the residual on a NULL-keyed pair (`logic applied to -0` for no row);
/// and a `REAL` pair was hashed, though `=` equates the `Int` 2 stored in
/// a `REAL` column with 2.0 (no row for the reference's one).
#[test]
fn optimizing_and_planning_keep_the_reference_s_outcome() {
    let (int, real) = (DataType::Int, DataType::Real);
    let spec = DbSpec::default()
        .table("a", &[("n", int), ("s", DataType::Text)])
        .row(0.5, vec![Value::Null, Value::text("a%")]);
    check_sql(
        &spec,
        "SELECT * FROM a WHERE a.n <> 3 AND (1 AND (a.s OR FALSE))",
    )
    .unwrap();
    let spec = DbSpec::default()
        .table("a", &[("k", int)])
        .row(0.25, vec![Value::Null]);
    check_sql(
        &spec,
        "SELECT * FROM a JOIN a AS a1 ON (a.k = a1.k) AND (-0.0)",
    )
    .unwrap();
    let spec = DbSpec::default()
        .table("a", &[("x", real), ("x1", real)])
        .row(0.9, vec![Value::Real(2.0), Value::Int(2)]);
    check_sql(&spec, "SELECT a.x FROM a, a AS a1 WHERE a1.x1 = a.x").unwrap();
}

// ---------------------------------------------------------------------------
// Error order and three-valued logic through the whole executor.

/// Rows of the grid table.
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
    let t = (0..GRID_ROWS).map(|i| {
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
        (0.05 + 0.1 * (i % 9) as f64, row)
    });
    let u = [(0, 1), (0, 2), (1, 3)]
        .map(|(k, w)| (0.5 + 0.1 * w as f64, vec![Value::Int(k), Value::Int(w)]));
    let int = DataType::Int;
    let columns = [("id", int), ("grp", int), ("a", int), ("n", int)];
    let columns = [
        &columns[..],
        &[("x", DataType::Real), ("s", DataType::Text)],
    ]
    .concat();
    DbSpec::default()
        .table("t", &columns)
        .rows(t)
        .index("grp")
        .table("u", &[("k", int), ("w", int)])
        .rows(u)
        .index("k")
        .catalog(indexed)
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

/// Lowering never changes the schema of the plan it implements, nor the
/// error a plan without one has.
fn assert_same_schema(logical: &Plan, physical: &PhysicalPlan, catalog: &Catalog, context: &str) {
    assert_eq!(
        physical.schema(catalog).map_err(|e| e.to_string()),
        logical.schema(catalog).map_err(|e| e.to_string()),
        "{context}"
    );
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
                    assert_vexec_matches(&expected, &physical, &catalog, &context);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Random predicate trees, for the index law below.

/// A predicate tree of depth ≤ `depth` over a row of four columns —
/// column 4, now and then, out of range on purpose — and literals of any
/// type.
fn random_expr(rng: &mut Rng64, depth: u32) -> ScalarExpr {
    let mut leaf = |rng: &mut Rng64| {
        if rng.chance(0.5) {
            let columns = if rng.chance(0.03) { 5 } else { 4 };
            Expr::Col(0, rng.below_usize(columns))
        } else {
            Expr::Lit(any_value(rng))
        }
    };
    random_tree(rng, depth, true, &mut leaf).to_scalar(&[0])
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
    let mut rows = Vec::with_capacity(GRID_ROWS);
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
        rows.push((
            0.05 + 0.1 * (i % 9) as f64,
            vec![Value::Int(i as i64), a, x, s, n],
        ));
    }
    let (int, real, text) = (DataType::Int, DataType::Real, DataType::Text);
    let columns = [
        ("id", int),
        ("a", int),
        ("x", real),
        ("s", text),
        ("n", int),
    ];
    DbSpec::default()
        .table("m", &columns)
        .rows(rows)
        .catalog(false)
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
        // The offender in the first, a middle and the last row.
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
            let candidates = predicate.leading_run(table).candidates();
            assert_eq!(candidates.is_some(), imaged > 0, "{context}");
            let candidates = candidates.unwrap_or_else(|| (0..GRID_ROWS).collect());
            assert!(candidates.is_sorted() && candidates.iter().all(|&p| p < GRID_ROWS));
            let mut next = candidates.iter().peekable();
            for (pos, row) in table.rows().iter().enumerate() {
                let values = row.tuple.values();
                let verdict = predicate.test(values).map_err(|e| e.to_string());
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
            assert_vexec_matches(&expected, &physical, &catalog, &context);
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

/// Rows of the law's table.
const LAW_ROWS: usize = 160;

/// `t(grp INT, n INT, s TEXT, a INT)` — four columns, the ones
/// [`random_expr`] reads — with `grp` cycling through 0–3 and NULL on every
/// eleventh row, and `n`, `s` NULL and `a` small except on the offenders,
/// every thirteenth row from the sixth (`n = 7`, `s = 'boom'`,
/// `a = i64::MAX`): under every key, under none, and under NULL (row 44).
fn law_catalog(indexed: bool) -> Catalog {
    let rows = (0..LAW_ROWS).map(|i| {
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
        (0.05 + 0.1 * (i % 9) as f64, row)
    });
    let (int, text) = (DataType::Int, DataType::Text);
    DbSpec::default()
        .table("t", &[("grp", int), ("n", int), ("s", text), ("a", int)])
        .rows(rows)
        .index("grp")
        .catalog(indexed)
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
                    random_expr(rng, depth)
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
            assert_vexec_matches(&expected, &physical, catalog, &context);
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
    // 300 facts, three of which find a partner among the 2 000 dim rows
    // (two in the same one, so a match list has more than one entry).
    let facts = (0..300i64).map(|i| {
        let k = match i {
            17 | 170 => 1_234,
            299 => 7,
            _ => 10_000 + i % 5,
        };
        let note = Value::Text(format!("{i} ").repeat(40));
        let row = vec![
            Value::Int(i),
            Value::Int(k),
            note,
            Value::Real(i as f64 / 4.0),
        ];
        (0.1 + 0.8 * (i % 10) as f64 / 10.0, row)
    });
    // Descending ids, so the build side is not already in key order.
    let dim = (0..2_000i64).map(|i| {
        let id = 1_999 - i;
        let row = vec![Value::Int(id), Value::text(format!("dim-{id}"))];
        (0.2 + 0.7 * (i % 7) as f64 / 7.0, row)
    });
    let (int, text) = (DataType::Int, DataType::Text);
    let spec = DbSpec::default()
        .table(
            "facts",
            &[
                ("id", int),
                ("k", int),
                ("note", text),
                ("amount", DataType::Real),
            ],
        )
        .rows(facts)
        .table("dim", &[("id", int), ("name", text)])
        .rows(dim)
        .index("id");
    let join = "SELECT f.id, d.name FROM facts f JOIN dim d ON f.k = d.id";
    let lowered = |indexed: bool| {
        let c = spec.catalog(indexed);
        let plan = parse_and_plan(join, &c).unwrap();
        lower(&optimize(&plan, &c).unwrap(), &c)
            .unwrap()
            .to_string()
    };
    assert!(lowered(false).contains("HashJoin"), "{}", lowered(false));
    // With the index on the build side's key the join reads that instead:
    // the same three rows, and 2 000 dim rows never scanned.
    let text = lowered(true);
    assert!(
        text.contains("IndexJoin dim AS d (id)") && !text.contains("TableScan dim"),
        "{text}"
    );
    assert!(matches!(check_sql(&spec, join), Ok(Agreed::Rows(3))));
    let aggregate =
        "SELECT k, COUNT(*) AS n, SUM(amount) AS total FROM facts WHERE amount > 10 GROUP BY k";
    check_sql(&spec, aggregate).unwrap();
}

/// A hash join whose build side is a filtered, unindexed scan of 4 990 rows,
/// in no key order and with NULL keys among them, answers as the reference
/// does, through `check_sql` and through the vectorized executor.
#[test]
fn a_large_filtered_build_side_joins_like_the_reference() {
    let confidence = |i: i64| 0.05 + 0.9 * (i % 10) as f64 / 10.0;
    let probe = (0..600i64).map(|i| {
        let row = vec![Value::Int(i * 7 % 1_500), Value::Int(i)];
        (confidence(i), row)
    });
    let build = (0..5_000i64).map(|i| {
        let k = if i % 97 == 0 {
            Value::Null
        } else {
            Value::Int(i * 31 % 1_500)
        };
        (confidence(i / 3), vec![k, Value::Int(i)])
    });
    let int = DataType::Int;
    let spec = DbSpec::default()
        .table("l", &[("k", int), ("v", int)])
        .rows(probe)
        .table("r", &[("k", int), ("w", int)])
        .rows(build);
    let sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k WHERE r.w >= 10";
    let catalog = spec.catalog(false);
    let plan = parse_and_plan(sql, &catalog).unwrap();
    let physical = lower(&optimize(&plan, &catalog).unwrap(), &catalog).unwrap();
    let text = physical.to_string();
    assert!(
        text.contains("HashJoin [#0 = #2]") && text.contains("TableScan r [filter: (#1 >= 10)]"),
        "{text}"
    );
    let expected = execute(&plan, &catalog).unwrap();
    assert!(expected.len() > 1_500, "{} rows", expected.len());
    let got = execute_vectorized_with(&physical, &catalog, &Parallelism::sequential()).unwrap();
    assert_eq!(got.rows(), expected.rows());
    check_sql(&spec, sql).unwrap();
}

#[test]
fn hash_join_rejects_a_key_left_of_its_build_side() {
    // A malformed plan: the right key column is numbered inside the left
    // input's two columns.
    let one = || [(0.5, vec![Value::Int(1), Value::Int(1)])];
    let catalog = shop(one(), &[(1, 0.5)]).catalog(false);
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
    let catalog = shop([(0.5, vec![Value::Int(1), Value::Int(1)])], &[(1, 0.5)]).catalog(true);
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

fn paper_explained() -> String {
    let mut db = paper_db(Database::new(EngineConfig::default().sequential()));
    explained(&mut db, &format!("EXPLAIN {PAPER_QUERY}")).unwrap()
}

/// Regenerate the golden EXPLAIN snapshot:
/// `PCQE_BLESS=1 cargo test --test physical_equivalence bless`.
#[test]
fn bless_golden_explain_when_requested() {
    if std::env::var_os("PCQE_BLESS").is_none() {
        return;
    }
    let text = paper_explained();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("explain_paper.txt"), text).unwrap();
}

#[test]
fn paper_example_explain_matches_golden_snapshot() {
    let text = paper_explained();
    assert_eq!(
        text,
        include_str!("golden/explain_paper.txt"),
        "EXPLAIN drifted from tests/golden/explain_paper.txt \
         (regenerate with PCQE_BLESS=1 if the change is intended)"
    );
}
