//! Join soundness. For random tables (NULL keys included), a Join must
//! return exactly the rows of the equivalent Product + Select, with
//! identical lineage; and the index join — the operator the planner picks
//! where a hash join's build side is a whole table with an index on a key
//! column — must give, bit for bit and error for error, what the
//! reference executor and the hash join give, at any worker count.

mod common;

use common::{execute, for_each_case, random_rows, vexec_matches, DbSpec};
use pcqe::algebra::{execute_vectorized_with, lower, PhysicalPlan, Plan, ScalarExpr};
use pcqe::par::Parallelism;
use pcqe::storage::{Catalog, DataType, Value};
use std::collections::BTreeSet;

const CASES: u64 = 128;

/// `k INT, v INT`: the columns of `l` and `r`.
const KV: &[(&str, DataType)] = &[("k", DataType::Int), ("v", DataType::Int)];

/// `(k, v)` rows, `None` a NULL key, at confidences that differ by row.
fn kv(rows: &[(Option<i64>, i64)]) -> Vec<(f64, Vec<Value>)> {
    let row = |&(k, v): &(Option<i64>, i64)| vec![k.map_or(Value::Null, Value::Int), Value::Int(v)];
    confident(rows.iter().map(row))
}

/// Rows at confidences that differ by row.
fn confident(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<(f64, Vec<Value>)> {
    let confidence = |i: usize| 0.05 + 0.9 * ((i * 7) % 10) as f64 / 10.0;
    rows.into_iter()
        .enumerate()
        .map(|(i, row)| (confidence(i), row))
        .collect()
}

/// `l` and `r` with these rows.
fn l_and_r(left: Vec<(f64, Vec<Value>)>, right: Vec<(f64, Vec<Value>)>) -> DbSpec {
    DbSpec::default()
        .table("l", KV)
        .rows(left)
        .table("r", KV)
        .rows(right)
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

/// `l` and `r` drawn by the generator: keys mostly 0–3, NULL now and then.
fn random_l_and_r(rng: &mut pcqe::lineage::Rng64) -> DbSpec {
    let types = [DataType::Int, DataType::Int];
    l_and_r(random_rows(rng, &types, 7), random_rows(rng, &types, 7))
}

#[test]
fn hash_join_equals_filtered_product() {
    for_each_case(CASES, 0x2011_0001, |rng| {
        let c = random_l_and_r(rng).catalog(false);
        // l.k = r.k [AND l.v < r.v]
        let mut predicate = ScalarExpr::column(0).eq(ScalarExpr::column(2));
        if rng.chance(0.5) {
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
        let copies = |n: usize| (0..n).map(|i| (Some(key), i as i64)).collect::<Vec<_>>();
        let c = l_and_r(kv(&copies(left_copies)), kv(&copies(right_copies))).catalog(false);
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
// The index join against the reference executor and the hash join.

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

/// Hold the index join (over the spec with the case's index) and the hash
/// join (over the spec without indexes) to the reference executor's outcome
/// — rows, order, lineage and confidence bits, or the error string — at
/// 1, 4 and host workers; and hold the planner to its rule: with the
/// index it lowers the join to exactly this index join, without to
/// exactly this hash join, however small the inputs.
fn check(case: &JoinCase, spec: &DbSpec, context: &str) {
    let (table, alias) = case.right;
    let plain = spec.catalog(false);
    let mut with_index = spec.clone();
    let right = with_index.tables.iter_mut().find(|t| t.name == table);
    let indexes = &mut right.expect("the case's table").indexes;
    indexes.retain(|c| c != case.index_on);
    indexes.push(case.index_on.to_owned());
    let indexed = with_index.catalog(true);
    let t = indexed.table(table).unwrap();
    let column = t.schema().resolve(None, case.index_on).unwrap();
    // The index covers every row: one posting per non-NULL key's row,
    // one NULL row per NULL.
    let ix = t.index_on(column).expect("the case's index exists");
    let keys: BTreeSet<&Value> = t.rows().iter().flat_map(|r| r.tuple.get(column)).collect();
    let postings: usize = keys.iter().map(|k| ix.lookup(k).len()).sum();
    assert_eq!(postings + ix.null_rows().len(), t.len());

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
    let expected = execute(&logical, &plain).map_err(|e| e.to_string());

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
        if let Err(e) = vexec_matches(&expected, physical, catalog) {
            panic!("{e}\nfor {context}");
        }
    }

    assert_eq!(lower(&logical, &indexed).unwrap(), index_join, "{context}");
    assert_eq!(lower(&logical, &plain).unwrap(), hash_join, "{context}");
}

fn col(i: usize) -> ScalarExpr {
    ScalarExpr::column(i)
}

#[test]
fn index_join_matches_the_reference_and_the_hash_join_on_random_tables() {
    for_each_case(CASES, 0x2011_0003, |rng| {
        // NULL keys on both sides, duplicate keys on both sides.
        let spec = random_l_and_r(rng);
        let residual = rng.chance(0.5).then(|| col(1).lt(col(3)));
        let case = JoinCase {
            left: Plan::scan("l"),
            right: ("r", None),
            keys: vec![(0, 2)],
            residual,
            index_on: "k",
        };
        check(&case, &spec, &format!("{spec:?}"));
    });
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
    let spec = l_and_r(kv(&left), kv(&right)).index("k");
    let case = JoinCase {
        left: Plan::scan("l"),
        right: ("r", None),
        keys: vec![(0, 2)],
        residual: None,
        index_on: "k",
    };
    check(&case, &spec, "duplicates");
    let indexed = spec.catalog(true);
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
    // NULLs in every key column; `x` values that `=` orders in every way
    // (-0.0 below 0.0, an Int in the REAL column equal to its real, NaN
    // equal to itself).
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
    let left = (0..30).map(|i| {
        let s = Value::text(format!("row{i}"));
        vec![name(i), flag(i / 2), reals[i % 6].clone(), s]
    });
    let right = (0..24).map(|i| vec![name(i + 1), flag(i), reals[(i / 2) % 6].clone()]);
    let (text, bool, real) = (DataType::Text, DataType::Bool, DataType::Real);
    let spec = DbSpec::default()
        .table(
            "l",
            &[("name", text), ("flag", bool), ("x", real), ("s", text)],
        )
        .rows(confident(left))
        .table("r", &[("name", text), ("flag", bool), ("x", real)])
        .rows(confident(right));
    // Each key type alone; then pairs with one column indexed — the first
    // and the last; and beside them the REAL pair `l.x = r.x`, which is
    // never a key (`=` equates an Int in the column with its real, a hash
    // key does not): it is tested in the residual.
    let shapes = [
        (&[(0, 4)][..], false, "name"),
        (&[(1, 5)], false, "flag"),
        (&[(0, 4), (1, 5)], false, "name"),
        (&[(0, 4), (1, 5)], false, "flag"),
        (&[(1, 5)], true, "flag"),
        (&[(0, 4), (1, 5)], true, "name"),
    ];
    for (keys, real_pair, index_on) in shapes {
        for filter in [
            None,
            Some(col(3).ne(ScalarExpr::literal(Value::text("row7")))),
        ] {
            let real_pair = real_pair.then(|| col(2).eq(col(6)));
            let case = JoinCase {
                left: Plan::scan("l"),
                right: ("r", None),
                keys: keys.to_vec(),
                residual: real_pair.into_iter().chain(filter).reduce(ScalarExpr::and),
                index_on,
            };
            let context = format!("keys {keys:?}, index on {index_on}");
            check(&case, &spec, &context);
        }
    }
    // The joins are not vacuous: the three-key one still finds partners.
    let plain = spec.catalog(false);
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
    let left = (0..200).map(|i| {
        let k = match i {
            0 => Value::Null,
            1 => Value::Int(-1),
            _ => Value::Int(i % 9),
        };
        vec![k, Value::text(format!("s{i}"))]
    });
    let right = (0..40).map(|i| vec![Value::Int(i % 9), Value::Int(i)]);
    let spec = DbSpec::default()
        .table("l", &[("k", DataType::Int), ("s", DataType::Text)])
        .rows(confident(left))
        .table("r", KV)
        .rows(confident(right));
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
    check(&case, &spec, "residual error");
    let logical = Plan::scan("l").join(
        Plan::scan("r"),
        col(0).eq(col(2)).and(case.residual.clone().unwrap()),
    );
    let error = execute(&logical, &spec.catalog(false)).unwrap_err();
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
    let spec = l_and_r(Vec::new(), kv(&rows));
    let case = |left: Plan| JoinCase {
        left,
        right: ("r", None),
        keys: vec![(0, 2)],
        residual: None,
        index_on: "k",
    };
    check(&case(Plan::scan("l")), &spec, "empty left table");
    let spec = l_and_r(kv(&rows), kv(&rows));
    let nothing = Plan::scan("l").select(col(1).lt(ScalarExpr::literal(Value::Int(0))));
    assert!(execute(&nothing, &spec.catalog(false)).unwrap().is_empty());
    check(&case(nothing), &spec, "filtered-out left input");

    // `r AS a ⋈ r AS b`: the probe side scans the table the index is on.
    let self_join = JoinCase {
        left: Plan::scan_as("r", "a"),
        right: ("r", Some("b")),
        keys: vec![(0, 2)],
        residual: Some(col(1).lt(col(3))),
        index_on: "k",
    };
    check(&self_join, &spec, "self-join");
    let indexed = spec.index("k").catalog(true);
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
    let spec = l_and_r(kv(&left), kv(&right));
    let case = JoinCase {
        left: Plan::scan("l"),
        right: ("r", None),
        keys: vec![(0, 2), (1, 2)],
        residual: None,
        index_on: "k",
    };
    check(&case, &spec, "two pairs, one column");
    let logical = Plan::scan("l").join(Plan::scan("r"), col(0).eq(col(2)).and(col(1).eq(col(2))));
    // i % 5 = i % 4 for i % 20 in 0..4: 8 left rows, 8 partners each.
    assert_eq!(execute(&logical, &spec.catalog(false)).unwrap().len(), 64);
}

/// The planner's rule, one assertion per clause: an index join needs a
/// hash join to replace, an unfiltered table scan for its build side and
/// an index on a key column.
#[test]
fn the_planner_picks_the_index_join_only_where_its_rule_allows() {
    let rows: Vec<(Option<i64>, i64)> = (0..50).map(|i| (Some(i % 10), i)).collect();
    // `q(x REAL, k INT)`: a REAL column cannot carry an index.
    let q = (0..50).map(|i| vec![Value::Real((i % 10) as f64), Value::Int(i)]);
    let spec = DbSpec::default()
        .table("l", KV)
        .rows(kv(&rows))
        .index("k")
        .table("r", KV)
        .rows(kv(&rows))
        .index("k")
        .table("q", &[("x", DataType::Real), ("k", DataType::Int)])
        .rows(confident(q))
        .index("k");
    let (indexed, plain) = (spec.catalog(true), spec.catalog(false));
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
    // A REAL pair is never a key ⇒ nested loop; beside an indexed INT key
    // it is tested per fetched row.
    let real = Plan::scan("q").join(Plan::scan("q"), col(0).eq(col(2)));
    assert_eq!(label(&real, &indexed), "NestedLoopJoin [(#0 = #2)]");
    let both = Plan::scan("q").join(Plan::scan("q"), col(0).eq(col(2)).and(col(1).eq(col(3))));
    assert_eq!(
        label(&both, &indexed),
        "IndexJoin q (k) [#1 = #3] [filter: (#0 = #2)]"
    );
    // Not an equi-join ⇒ nested loop. Tiny inputs change nothing: no row
    // count is read.
    let theta = join(Plan::scan("r"), col(0).le(col(2)));
    assert!(label(&theta, &indexed).starts_with("NestedLoopJoin"));
    let tiny = [(Some(1), 1), (Some(2), 2)];
    let tiny = l_and_r(kv(&tiny), kv(&tiny)).index("k");
    assert_eq!(
        label(&whole, &tiny.catalog(true)),
        "IndexJoin r (k) [#0 = #2]"
    );
    assert_eq!(label(&whole, &tiny.catalog(false)), "HashJoin [#0 = #2]");
}
