//! Join soundness. For random tables (NULL keys included), a Join must
//! return exactly the rows of the equivalent Product + Select, with
//! identical lineage; and the index join — the operator the planner picks
//! where a hash join's build side is a whole table with an index on a key
//! column — must give, bit for bit and error for error, what the
//! reference walker and the hash join give, at any worker count.

mod common;

use common::{assert_rows_identical, for_each_case, parallelism_grid};
use pcqe::algebra::{
    execute, execute_vectorized_with, lower, PhysicalPlan, Plan, ResultSet, ScalarExpr,
};
use pcqe::lineage::{Evaluator, Rng64, VarId};
use pcqe::par::Parallelism;
use pcqe::storage::{Catalog, Column, DataType, Schema, TupleId, Value};

const CASES: u64 = 128;

fn build(left: &[(Option<i64>, i64)], right: &[(Option<i64>, i64)]) -> Catalog {
    let mut c = Catalog::new();
    for name in ["l", "r"] {
        c.create_table(
            name,
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
    }
    for &(k, v) in left {
        let key = k.map(Value::Int).unwrap_or(Value::Null);
        c.insert("l", vec![key, Value::Int(v)], 0.5).unwrap();
    }
    for &(k, v) in right {
        let key = k.map(Value::Int).unwrap_or(Value::Null);
        c.insert("r", vec![key, Value::Int(v)], 0.5).unwrap();
    }
    c
}

fn rows_of(plan: &Plan, c: &Catalog) -> Vec<String> {
    let mut out: Vec<String> = execute(plan, c)
        .unwrap()
        .rows()
        .iter()
        .map(|r| format!("{} | {}", r.tuple, r.lineage))
        .collect();
    out.sort();
    out
}

/// A join key: usually a small int, one time in five NULL.
fn random_key(rng: &mut Rng64) -> Option<i64> {
    if rng.below_usize(5) < 4 {
        Some(rng.below_u64(4) as i64)
    } else {
        None
    }
}

fn random_table(rng: &mut Rng64) -> Vec<(Option<i64>, i64)> {
    let n = rng.below_usize(8);
    (0..n)
        .map(|_| (random_key(rng), rng.below_u64(100) as i64))
        .collect()
}

#[test]
fn hash_join_equals_filtered_product() {
    for_each_case(CASES, 0x2011_0001, |rng| {
        let left = random_table(rng);
        let right = random_table(rng);
        let with_residual = rng.chance(0.5);
        let c = build(&left, &right);
        // l.k = r.k [AND l.v < r.v]
        let mut predicate = ScalarExpr::column(0).eq(ScalarExpr::column(2));
        if with_residual {
            predicate = predicate.and(ScalarExpr::column(1).lt(ScalarExpr::column(3)));
        }
        let join = Plan::scan("l").join(Plan::scan("r"), predicate.clone());
        let reference = Plan::scan("l").product(Plan::scan("r")).select(predicate);
        assert_eq!(rows_of(&join, &c), rows_of(&reference, &c));
    });
}

#[test]
fn join_key_multiplicity_is_respected() {
    for_each_case(CASES, 0x2011_0002, |rng| {
        // n copies on each side must produce n·m join rows.
        let key = rng.below_u64(3) as i64;
        let left_copies = rng.range_usize(1, 4);
        let right_copies = rng.range_usize(1, 4);
        let left: Vec<(Option<i64>, i64)> =
            (0..left_copies).map(|i| (Some(key), i as i64)).collect();
        let right: Vec<(Option<i64>, i64)> =
            (0..right_copies).map(|i| (Some(key), i as i64)).collect();
        let c = build(&left, &right);
        let join = Plan::scan("l").join(
            Plan::scan("r"),
            ScalarExpr::column(0).eq(ScalarExpr::column(2)),
        );
        assert_eq!(
            execute(&join, &c).unwrap().len(),
            left_copies * right_copies
        );
    });
}

// ---------------------------------------------------------------------------
// The index join against the reference walker and the hash join.

/// One table: its name, its columns and its rows.
struct TableSpec {
    name: &'static str,
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

/// Build `tables` in order, and for each `(table, column)` of `indexes`
/// create the index when half that table's rows are in: an index is both
/// backfilled and kept up by inserts. Tuple ids and confidences do not
/// depend on `indexes`.
fn catalog_of(tables: &[TableSpec], indexes: &[(&str, &str)]) -> Catalog {
    let mut c = Catalog::new();
    for t in tables {
        c.create_table(t.name, Schema::new(t.columns.clone()).unwrap())
            .unwrap();
    }
    for t in tables {
        for i in 0..=t.rows.len() {
            if i == t.rows.len() / 2 {
                for (_, column) in indexes.iter().filter(|(table, _)| *table == t.name) {
                    c.create_index(t.name, column).unwrap();
                }
            }
            if let Some(row) = t.rows.get(i) {
                let confidence = 0.05 + 0.9 * ((i * 7 + t.name.len()) % 10) as f64 / 10.0;
                c.insert(t.name, row.clone(), confidence).unwrap();
            }
        }
    }
    c
}

/// An equi-join of a logical `left` input with a whole table.
struct JoinCase {
    left: Plan,
    /// The right table and its alias.
    right: (&'static str, Option<&'static str>),
    /// `(left column, right column in the combined schema)`, in conjunct
    /// order; every pair same-typed.
    keys: Vec<(usize, usize)>,
    /// What is left of the join predicate.
    residual: Option<ScalarExpr>,
    /// The right table's indexed key column.
    index_on: &'static str,
}

/// Which join operator the planner chose with and without the index.
#[derive(Debug, PartialEq)]
enum Chosen {
    NestedLoop,
    IndexAndHash,
}

fn confidence_bits(rows: &ResultSet, catalog: &Catalog) -> Vec<u64> {
    let probs = |v: VarId| catalog.confidence(TupleId(v.0));
    let scored = rows.score(&probs, &Evaluator::default()).expect("scores");
    scored.iter().map(|s| s.confidence.to_bits()).collect()
}

/// Hold the index join (over the catalog with its index) and the hash
/// join (over the same catalog without) to the reference walker's outcome
/// — rows, order, lineage and confidence bits, or the error string — at
/// 1, 4 and host workers; and hold the planner to its rule: with the
/// index it lowers the join to exactly this index join, without to
/// exactly this hash join, unless the inputs are small enough for a
/// nested loop, which they then are either way.
fn check(case: &JoinCase, tables: &[TableSpec], context: &str) -> Chosen {
    let (table, alias) = case.right;
    let plain = catalog_of(tables, &[]);
    let indexed = catalog_of(tables, &[(table, case.index_on)]);
    let t = indexed.table(table).unwrap();
    let column = t.schema().resolve(None, case.index_on).unwrap();
    assert_eq!(
        t.index_on(column).map(|ix| ix.covered_rows()),
        Some(t.len())
    );

    let predicate = case
        .keys
        .iter()
        .map(|&(lc, rc)| ScalarExpr::column(lc).eq(ScalarExpr::column(rc)))
        .chain(case.residual.clone())
        .reduce(ScalarExpr::and)
        .expect("a key");
    let right = match alias {
        Some(alias) => Plan::scan_as(table, alias),
        None => Plan::scan(table),
    };
    let logical = case.left.clone().join(right, predicate);
    let expected = execute(&logical, &plain);

    let index_join = PhysicalPlan::IndexJoin {
        left: Box::new(lower(&case.left, &indexed).unwrap()),
        table: table.to_owned(),
        alias: alias.map(str::to_owned),
        column,
        column_name: case.index_on.to_owned(),
        keys: case.keys.clone(),
        residual: case.residual.clone(),
    };
    let hash_join = PhysicalPlan::HashJoin {
        left: Box::new(lower(&case.left, &plain).unwrap()),
        right: Box::new(PhysicalPlan::TableScan {
            table: table.to_owned(),
            alias: alias.map(str::to_owned),
            residual: None,
        }),
        keys: case.keys.clone(),
        residual: case.residual.clone(),
    };
    for (physical, catalog) in [(&index_join, &indexed), (&hash_join, &plain)] {
        for (par, threads) in parallelism_grid() {
            let context = format!("{context} ({threads})\n{physical}");
            match (&expected, execute_vectorized_with(physical, catalog, &par)) {
                (Ok(e), Ok(g)) => {
                    assert_rows_identical(e, &g, &context);
                    assert_eq!(
                        confidence_bits(e, &plain),
                        confidence_bits(&g, catalog),
                        "{context}"
                    );
                }
                (Err(e), Err(g)) => assert_eq!(e.to_string(), g.to_string(), "{context}"),
                (e, g) => panic!("reference {e:?} but vectorized {g:?} for {context}"),
            }
        }
    }

    let with_index = lower(&logical, &indexed).unwrap();
    let without = lower(&logical, &plain).unwrap();
    if with_index.node_label().starts_with("NestedLoopJoin") {
        assert_eq!(with_index, without, "{context}");
        Chosen::NestedLoop
    } else {
        assert_eq!(with_index, index_join, "{context}");
        assert_eq!(without, hash_join, "{context}");
        Chosen::IndexAndHash
    }
}

fn int(name: &str) -> Column {
    Column::new(name, DataType::Int)
}

fn key_value(k: Option<i64>) -> Value {
    k.map(Value::Int).unwrap_or(Value::Null)
}

/// `l(k, v)` and `r(k, v)` as [`build`] has them.
fn two_tables(left: &[(Option<i64>, i64)], right: &[(Option<i64>, i64)]) -> Vec<TableSpec> {
    let rows = |rows: &[(Option<i64>, i64)]| {
        rows.iter()
            .map(|&(k, v)| vec![key_value(k), Value::Int(v)])
            .collect()
    };
    vec![
        TableSpec {
            name: "l",
            columns: vec![int("k"), int("v")],
            rows: rows(left),
        },
        TableSpec {
            name: "r",
            columns: vec![int("k"), int("v")],
            rows: rows(right),
        },
    ]
}

fn col(i: usize) -> ScalarExpr {
    ScalarExpr::column(i)
}

#[test]
fn index_join_matches_the_reference_and_the_hash_join_on_random_tables() {
    let (mut nested, mut index) = (0, 0);
    for_each_case(CASES, 0x2011_0003, |rng| {
        // NULL keys on both sides, duplicate keys on both sides.
        let left = random_table(rng);
        let right = random_table(rng);
        let residual = rng.chance(0.5).then(|| col(1).lt(col(3)));
        let case = JoinCase {
            left: Plan::scan("l"),
            right: ("r", None),
            keys: vec![(0, 2)],
            residual,
            index_on: "k",
        };
        let context = format!("l = {left:?}, r = {right:?}");
        match check(&case, &two_tables(&left, &right), &context) {
            Chosen::NestedLoop => nested += 1,
            Chosen::IndexAndHash => index += 1,
        }
    });
    // Tiny inputs keep the nested loop; the rest take the index.
    assert!(nested > 20 && index > 20, "{nested} / {index}");
}

#[test]
fn index_join_lists_a_key_s_matches_in_insertion_order() {
    // Key 5 is held by right rows 0, 3, 4 and 9 — before and after the
    // index is created at row 5 — and by left rows 1 and 2; every other
    // key is unique to its row, and two keys are NULL.
    let right: Vec<(Option<i64>, i64)> = (0..10)
        .map(|i| match i {
            0 | 3 | 4 | 9 => (Some(5), i),
            7 => (None, i),
            _ => (Some(100 + i), i),
        })
        .collect();
    let left = [(Some(101), 0), (Some(5), 1), (Some(5), 2), (None, 3)];
    let left = [&left[..], &[(Some(102), 4), (Some(999), 5)]].concat();
    let tables = two_tables(&left, &right);
    let case = JoinCase {
        left: Plan::scan("l"),
        right: ("r", None),
        keys: vec![(0, 2)],
        residual: None,
        index_on: "k",
    };
    assert_eq!(check(&case, &tables, "duplicates"), Chosen::IndexAndHash);
    let indexed = catalog_of(&tables, &[("r", "k")]);
    let physical = lower(
        &Plan::scan("l").join(Plan::scan("r"), col(0).eq(col(2))),
        &indexed,
    )
    .unwrap();
    let rows = execute_vectorized_with(&physical, &indexed, &Parallelism::sequential()).unwrap();
    let pairs: Vec<(Value, Value)> = rows
        .rows()
        .iter()
        .map(|r| (r.tuple.values()[1].clone(), r.tuple.values()[3].clone()))
        .collect();
    let expected: Vec<(Value, Value)> = [(0, 1), (1, 0), (1, 3), (1, 4), (1, 9), (2, 0), (2, 3)]
        .iter()
        .chain(&[(2, 4), (2, 9), (4, 2)])
        .map(|&(l, r)| (Value::Int(l), Value::Int(r)))
        .collect();
    assert_eq!(pairs, expected);
}

#[test]
fn index_join_over_text_and_bool_keys_and_a_second_unindexed_key() {
    // l(name TEXT, flag BOOL, x REAL, s TEXT) ⋈ r(name TEXT, flag BOOL, x REAL):
    // NULLs in every key column; `x` pairs that only a coercing `=` would
    // call equal (0.0 / -0.0, an Int in the REAL column) and NaN, which
    // the hash table's order calls equal to itself.
    let names = ["ann", "bob", "", "Ann"];
    let reals = [
        Value::Real(0.0),
        Value::Real(-0.0),
        Value::Int(3),
        Value::Real(3.0),
        Value::Real(f64::NAN),
        Value::Null,
    ];
    let name = |i: usize| match i % 5 {
        4 => Value::Null,
        n => Value::text(names[n]),
    };
    let flag = |i: usize| match i % 3 {
        2 => Value::Null,
        n => Value::Bool(n == 0),
    };
    let left: Vec<Vec<Value>> = (0..30)
        .map(|i| {
            vec![
                name(i),
                flag(i / 2),
                reals[i % 6].clone(),
                Value::text(format!("row{i}")),
            ]
        })
        .collect();
    let right: Vec<Vec<Value>> = (0..24)
        .map(|i| vec![name(i + 1), flag(i), reals[(i / 2) % 6].clone()])
        .collect();
    let text = |n| Column::new(n, DataType::Text);
    let tables = [
        TableSpec {
            name: "l",
            columns: vec![
                text("name"),
                Column::new("flag", DataType::Bool),
                Column::new("x", DataType::Real),
                text("s"),
            ],
            rows: left,
        },
        TableSpec {
            name: "r",
            columns: vec![
                text("name"),
                Column::new("flag", DataType::Bool),
                Column::new("x", DataType::Real),
            ],
            rows: right,
        },
    ];
    // Each key type alone; then pairs with one column indexed — the
    // first, the last, and a REAL pair that can never be the indexed one.
    let shapes: [(&[(usize, usize)], &'static str); 6] = [
        (&[(0, 4)], "name"),
        (&[(1, 5)], "flag"),
        (&[(0, 4), (1, 5)], "name"),
        (&[(0, 4), (1, 5)], "flag"),
        (&[(2, 6), (1, 5)], "flag"),
        (&[(0, 4), (2, 6), (1, 5)], "name"),
    ];
    for (keys, index_on) in shapes {
        for residual in [
            None,
            Some(col(3).ne(ScalarExpr::literal(Value::text("row7")))),
        ] {
            let case = JoinCase {
                left: Plan::scan("l"),
                right: ("r", None),
                keys: keys.to_vec(),
                residual,
                index_on,
            };
            let context = format!("keys {keys:?}, index on {index_on}");
            assert_eq!(check(&case, &tables, &context), Chosen::IndexAndHash);
        }
    }
    // The joins are not vacuous: the three-key one still finds partners.
    let plain = catalog_of(&tables, &[]);
    let three = Plan::scan("l").join(
        Plan::scan("r"),
        col(0)
            .eq(col(4))
            .and(col(2).eq(col(6)))
            .and(col(1).eq(col(5))),
    );
    assert!(execute(&three, &plain).unwrap().len() > 3);
}

#[test]
fn index_join_raises_the_residual_s_error_for_the_first_matched_pair() {
    // `s > 1` cannot compare a TEXT with an INT, and says which TEXT. Left
    // rows 0 and 1 never reach the residual (NULL key, key without a
    // partner); row 2 is the first that does.
    let left: Vec<Vec<Value>> = (0..200)
        .map(|i| {
            let k = match i {
                0 => Value::Null,
                1 => Value::Int(-1),
                _ => Value::Int(i % 9),
            };
            vec![k, Value::text(format!("s{i}"))]
        })
        .collect();
    let right: Vec<Vec<Value>> = (0..40)
        .map(|i| vec![Value::Int(i % 9), Value::Int(i)])
        .collect();
    let tables = [
        TableSpec {
            name: "l",
            columns: vec![int("k"), Column::new("s", DataType::Text)],
            rows: left,
        },
        TableSpec {
            name: "r",
            columns: vec![int("k"), int("v")],
            rows: right,
        },
    ];
    let lit = |i: i64| ScalarExpr::literal(Value::Int(i));
    let case = JoinCase {
        left: Plan::scan("l"),
        right: ("r", None),
        keys: vec![(0, 2)],
        // Row 2's first two partners (v = 2, 11) fail `v >= 20`, which
        // stops the AND short of the comparison; the third does not.
        residual: Some(col(3).ge(lit(20)).and(col(1).gt(lit(1)))),
        index_on: "k",
    };
    assert_eq!(
        check(&case, &tables, "residual error"),
        Chosen::IndexAndHash
    );
    let logical = Plan::scan("l").join(
        Plan::scan("r"),
        col(0).eq(col(2)).and(case.residual.clone().unwrap()),
    );
    let error = execute(&logical, &catalog_of(&tables, &[])).unwrap_err();
    assert!(
        error.to_string().contains("cannot compare s2 with 1"),
        "{error}"
    );
}

#[test]
fn index_join_with_an_empty_left_input_and_through_a_self_join() {
    let rows: Vec<(Option<i64>, i64)> = (0..60)
        .map(|i| ((i % 7 != 6).then_some(i % 5), i))
        .collect();
    // Nothing on the left: an empty table, and a filter nothing passes.
    let tables = two_tables(&[], &rows);
    let case = |left: Plan| JoinCase {
        left,
        right: ("r", None),
        keys: vec![(0, 2)],
        residual: None,
        index_on: "k",
    };
    check(&case(Plan::scan("l")), &tables, "empty left table");
    let tables = two_tables(&rows, &rows);
    let nothing = Plan::scan("l").select(col(1).lt(ScalarExpr::literal(Value::Int(0))));
    assert!(execute(&nothing, &catalog_of(&tables, &[]))
        .unwrap()
        .is_empty());
    check(&case(nothing), &tables, "filtered-out left input");

    // `r AS a ⋈ r AS b`: the probe side scans the table the index is on.
    let self_join = JoinCase {
        left: Plan::scan_as("r", "a"),
        right: ("r", Some("b")),
        keys: vec![(0, 2)],
        residual: Some(col(1).lt(col(3))),
        index_on: "k",
    };
    assert_eq!(
        check(&self_join, &tables, "self-join"),
        Chosen::IndexAndHash
    );
    let indexed = catalog_of(&tables, &[("r", "k")]);
    let physical = lower(
        &Plan::scan_as("r", "a").join(
            Plan::scan_as("r", "b"),
            col(0).eq(col(2)).and(col(1).lt(col(3))),
        ),
        &indexed,
    )
    .unwrap();
    let text = physical.to_string();
    assert!(
        text.starts_with("IndexJoin r AS b (k) [#0 = #2] [filter:") && text.contains("r AS a"),
        "{text}"
    );
    let schema = physical.schema(&indexed).unwrap();
    let qualified: Vec<String> = schema.columns().iter().map(|c| c.display_name()).collect();
    assert_eq!(qualified, ["a.k", "a.v", "b.k", "b.v"]);
}

#[test]
fn index_join_compares_a_second_key_pair_on_the_indexed_column() {
    // `l.k = r.k AND l.v = r.k`: one pair probes the index, the other
    // still has to hold. Only the left rows with k = v find partners.
    let left: Vec<(Option<i64>, i64)> = (0..40).map(|i| (Some(i % 5), i % 4)).collect();
    let right: Vec<(Option<i64>, i64)> = (0..40).map(|i| (Some(i % 5), i)).collect();
    let tables = two_tables(&left, &right);
    let case = JoinCase {
        left: Plan::scan("l"),
        right: ("r", None),
        keys: vec![(0, 2), (1, 2)],
        residual: None,
        index_on: "k",
    };
    assert_eq!(
        check(&case, &tables, "two pairs, one column"),
        Chosen::IndexAndHash
    );
    let logical = Plan::scan("l").join(Plan::scan("r"), col(0).eq(col(2)).and(col(1).eq(col(2))));
    // i % 5 = i % 4 for i % 20 in 0..4: 8 left rows, 8 partners each.
    assert_eq!(
        execute(&logical, &catalog_of(&tables, &[])).unwrap().len(),
        64
    );
}

/// The planner's rule, one assertion per clause: an index join needs a
/// hash join to replace, an unfiltered table scan for its build side and
/// an index on a key column.
#[test]
fn the_planner_picks_the_index_join_only_where_its_rule_allows() {
    let rows: Vec<(Option<i64>, i64)> = (0..50).map(|i| (Some(i % 10), i)).collect();
    let mut tables = two_tables(&rows, &rows);
    // `q(x REAL, k INT)`: a REAL column cannot carry an index.
    tables.push(TableSpec {
        name: "q",
        columns: vec![Column::new("x", DataType::Real), int("k")],
        rows: (0..50)
            .map(|i| vec![Value::Real((i % 10) as f64), Value::Int(i)])
            .collect(),
    });
    let indexed = catalog_of(&tables, &[("r", "k"), ("l", "k"), ("q", "k")]);
    let plain = catalog_of(&tables, &[]);
    let join = |right: Plan, predicate: ScalarExpr| Plan::scan("l").join(right, predicate);
    let keyed = || col(0).eq(col(2));
    let label = |plan: &Plan, catalog: &Catalog| lower(plan, catalog).unwrap().node_label();
    let lit = |i: i64| ScalarExpr::literal(Value::Int(i));

    let whole = join(Plan::scan("r"), keyed());
    assert_eq!(label(&whole, &indexed), "IndexJoin r (k) [#0 = #2]");
    // No index ⇒ hash join.
    assert_eq!(label(&whole, &plain), "HashJoin [#0 = #2]");
    // An index on a column that is no key ⇒ hash join.
    let by_value = join(Plan::scan("r"), col(1).eq(col(3)));
    assert_eq!(label(&by_value, &indexed), "HashJoin [#1 = #3]");
    // A build side with a residual — a table scan's or an index scan's —
    // ⇒ hash join, whatever the residual.
    for filter in [col(1).ge(lit(0)), col(0).eq(lit(3)), col(1).eq(col(1))] {
        let filtered = join(Plan::scan("r").select(filter), keyed());
        assert_eq!(label(&filtered, &indexed), "HashJoin [#0 = #2]");
    }
    // A REAL key ⇒ hash join; beside an indexed INT key it is compared
    // per fetched row.
    let real = Plan::scan("q").join(Plan::scan("q"), col(0).eq(col(2)));
    assert_eq!(label(&real, &indexed), "HashJoin [#0 = #2]");
    let both = Plan::scan("q").join(Plan::scan("q"), col(0).eq(col(2)).and(col(1).eq(col(3))));
    assert_eq!(
        label(&both, &indexed),
        "IndexJoin q (k) [#0 = #2 AND #1 = #3]"
    );
    // Not an equi-join ⇒ nested loop; and tiny inputs ⇒ nested loop, index
    // or no index.
    let theta = join(Plan::scan("r"), col(0).le(col(2)));
    assert!(label(&theta, &indexed).starts_with("NestedLoopJoin"));
    let tiny = two_tables(&[(Some(1), 1), (Some(2), 2)], &[(Some(1), 1), (Some(2), 2)]);
    for indexes in [&[("r", "k")][..], &[]] {
        let label = label(&whole, &catalog_of(&tiny, indexes));
        assert!(label.starts_with("NestedLoopJoin"), "{label}");
    }
}
