//! Lowering logical plans to physical plans.
//!
//! The planner consumes the *optimised* logical plan (selections already
//! pushed to just above the scans by [`crate::optimize()`]) and makes two
//! kinds of decisions:
//!
//! * **Access paths** — a `Select` directly over a `Scan` becomes either a
//!   [`PhysicalPlan::TableScan`] with the predicate pushed in as a
//!   residual, or — when a conjunct `column = literal` of the predicate's
//!   [`LeadingRun`](crate::expr::LeadingRun) hits an
//!   [`pcqe_storage::EqualityIndex`] — a [`PhysicalPlan::IndexScan`] that
//!   fetches only the rows the index lists, and still tests the whole
//!   predicate on each: the index is a source of candidates, not a
//!   rewrite of the predicate. Of several usable indexes the first in
//!   conjunct order wins — the rule an index join's key follows too — so
//!   the access path reads the schema and the index set, never the rows.
//! * **Join strategies** — one rule, read off the predicate and the
//!   schemas alone: a `Join` with hashable equality conjuncts (same-typed
//!   `INT`/`TEXT`/`BOOL` column pairs in its top-level `AND` chain) becomes
//!   a [`PhysicalPlan::HashJoin`]; one without (a `REAL` pair, a theta
//!   join) and a product a [`PhysicalPlan::NestedLoopJoin`]. Where the hash join's build side is
//!   a whole, unfiltered base table with an [`pcqe_storage::EqualityIndex`]
//!   on one of the key columns, the join becomes a
//!   [`PhysicalPlan::IndexJoin`]: the index *is* the build — the key-sorted
//!   table the hash join would scan and sort the build side into on every
//!   query — so a probe of the index is never dearer than the binary
//!   search it replaces, and the build is free.
//!
//! # Why every choice is output-identical
//!
//! * An index lookup returns row positions in insertion order, the exact
//!   subset a sequential scan + filter would keep (index keys are typed
//!   exactly: only `INT`/`TEXT`/`BOOL` columns are indexable, and the key
//!   literal's type must match the column's, so map equality coincides
//!   with SQL `=`; `NULL` never matches in either implementation). *Errors*:
//!   the key conjunct comes from the predicate's leading run and from
//!   nowhere else, so a row passed over for holding another key is one the
//!   whole predicate rejects without raising — no conjunct before the key
//!   can fault, and `AND` stops at the key's definite `false`
//!   ([`LeadingRun`](crate::expr::LeadingRun) has the induction). On a
//!   NULL key the equality is unknown, not false, and `AND` goes on: where
//!   anything follows the key conjunct the executor keeps the NULL-keyed
//!   rows as candidates ([`pcqe_storage::EqualityIndex::null_rows`]). A
//!   key conjunct behind anything that can raise (`s > 1 AND k = 3`, `s`
//!   `TEXT`) keeps the table scan. Every candidate meets the whole
//!   predicate — nothing was taken out of it — so which error is raised,
//!   and its wording, is a table scan's.
//! * Which algorithm a `Join` runs is fixed by the rule alone
//!   (`split_equi_conjuncts`), never by input sizes, because the two
//!   differ in errors: a hash join tests its residual only on the pairs
//!   that agree on every key, a nested loop its whole predicate on every
//!   pair. The reference the suites compare against hashes on the same
//!   rule. Either way a join emits, for each left row in input order, its
//!   matching right rows in right input order, a NULL key never hashed.
//!   Only key columns whose type has exact equality (`INT`/`TEXT`/`BOOL`)
//!   are hashed at all, where `=`'s comparison and the hash table's
//!   ordered-map equality provably agree (a `REAL` column also holds
//!   widened `Int`s, which `=` equates with their reals and the map does
//!   not, so a `REAL` pair stays in the residual).
//! * An index join emits what the hash join it replaces would. *Row
//!   order*: both walk the left rows in input order, and for one left row
//!   the index's posting list is its matches in insertion order — the
//!   ascending row indexes the hash join's stable sort leaves under one
//!   key. *NULLs*: a NULL left key skips the probe in the one shared
//!   loop, and a NULL right key is in neither the index nor the hash
//!   table. *Key equality*: the index map and the hash table compare with
//!   the same total order on `Value`, and it is SQL's `=` because only
//!   same-typed `INT`/`TEXT`/`BOOL` pairs are hashable. Key pairs beyond
//!   the indexed one are compared per fetched row with that same order,
//!   as the hash table would. *Lineage* is the conjunction of the two
//!   rows' either way, the right row read where it is stored. *Errors*:
//!   the build side qualifies only as a `TableScan` **without a
//!   residual**, so no predicate runs on rows the index passes over and no
//!   error it would have raised can be lost; a filtered build side — even
//!   one whose filter cannot raise — keeps the hash join, which evaluates
//!   every row. The join's own residual runs on exactly the matched pairs, in
//!   the same order, under both operators.

use crate::expr::{BinaryOp, ScalarExpr};
use crate::physical::plan::PhysicalPlan;
use crate::plan::Plan;
use crate::Result;
use pcqe_storage::{Catalog, DataType, Schema};

/// Lower an (already optimised) logical plan to a physical plan.
pub fn lower(plan: &Plan, catalog: &Catalog) -> Result<PhysicalPlan> {
    Ok(match plan {
        Plan::Scan { table, alias } => PhysicalPlan::TableScan {
            table: table.clone(),
            alias: alias.clone(),
            residual: None,
        },
        Plan::Select { input, predicate } => match &**input {
            Plan::Scan { table, alias } => plan_scan(table, alias.clone(), predicate, catalog)?,
            other => PhysicalPlan::Filter {
                input: Box::new(lower(other, catalog)?),
                predicate: predicate.clone(),
            },
        },
        Plan::Project {
            input,
            items,
            distinct,
        } => PhysicalPlan::Project {
            input: Box::new(lower(input, catalog)?),
            items: items.clone(),
            distinct: *distinct,
        },
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let left_schema = left.schema(catalog)?;
            let left_arity = left_schema.arity();
            let (equi, residual) =
                split_equi_conjuncts(predicate, &left_schema, &right.schema(catalog)?);
            let l = Box::new(lower(left, catalog)?);
            let r = lower(right, catalog)?;
            if equi.is_empty() {
                return Ok(PhysicalPlan::NestedLoopJoin {
                    left: l,
                    right: Box::new(r),
                    predicate: Some(predicate.clone()),
                });
            }
            match (indexed_build_key(&r, &equi, left_arity, catalog), r) {
                (Some((column, column_name)), PhysicalPlan::TableScan { table, alias, .. }) => {
                    PhysicalPlan::IndexJoin {
                        left: l,
                        table,
                        alias,
                        column,
                        column_name,
                        keys: equi,
                        residual,
                    }
                }
                (_, r) => PhysicalPlan::HashJoin {
                    left: l,
                    right: Box::new(r),
                    keys: equi,
                    residual,
                },
            }
        }
        Plan::Product { left, right } => PhysicalPlan::NestedLoopJoin {
            left: Box::new(lower(left, catalog)?),
            right: Box::new(lower(right, catalog)?),
            predicate: None,
        },
        Plan::Union { left, right } => PhysicalPlan::Union {
            left: Box::new(lower(left, catalog)?),
            right: Box::new(lower(right, catalog)?),
        },
        Plan::Difference { left, right } => PhysicalPlan::Difference {
            left: Box::new(lower(left, catalog)?),
            right: Box::new(lower(right, catalog)?),
        },
        Plan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(lower(input, catalog)?),
            keys: keys.clone(),
        },
        Plan::Limit { input, count } => PhysicalPlan::Limit {
            input: Box::new(lower(input, catalog)?),
            count: *count,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => PhysicalPlan::Aggregate {
            input: Box::new(lower(input, catalog)?),
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
    })
}

/// If a hash join's build side `right` is a whole base table — a
/// `TableScan` with no residual, so that skipping rows skips no predicate
/// — with an equality index on the right column of one of the `keys`: the
/// indexed column (position and name) of the first such pair in conjunct
/// order.
fn indexed_build_key(
    right: &PhysicalPlan,
    keys: &[(usize, usize)],
    left_arity: usize,
    catalog: &Catalog,
) -> Option<(usize, String)> {
    let PhysicalPlan::TableScan {
        table,
        residual: None,
        ..
    } = right
    else {
        return None;
    };
    let t = catalog.table(table).ok()?;
    let column = keys
        .iter()
        .filter_map(|&(_, rc)| rc.checked_sub(left_arity))
        .find(|&c| t.index_on(c).is_some())?;
    Some((column, t.schema().columns().get(column)?.name.clone()))
}

/// Split a join predicate into hashable equality pairs `(left column,
/// right column)` and the residual predicate. A pair is hashable when its
/// columns share a type whose value equality is SQL's `=`: `INT`, `TEXT`
/// or `BOOL`. An `INT = REAL` pair is not (`=` widens the integer), and
/// nor is a `REAL` pair — a `REAL` column also holds widened `Int`s, and
/// `Int(2) = Real(2.0)` under `=` but not as keys — so both stay in the
/// residual.
fn split_equi_conjuncts(
    predicate: &ScalarExpr,
    left: &Schema,
    right: &Schema,
) -> (Vec<(usize, usize)>, Option<ScalarExpr>) {
    let left_arity = left.arity();
    let hashable = |lc: usize, rc: usize| {
        let lt = left.columns().get(lc).map(|c| c.data_type);
        let rt = right.columns().get(rc - left_arity).map(|c| c.data_type);
        lt == rt && matches!(lt, Some(DataType::Int | DataType::Text | DataType::Bool))
    };
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for part in predicate.conjuncts() {
        if let ScalarExpr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = part
        {
            if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) {
                let (lc, rc) = if a < b { (*a, *b) } else { (*b, *a) };
                if lc < left_arity && rc >= left_arity && hashable(lc, rc) {
                    equi.push((lc, rc));
                    continue;
                }
            }
        }
        residual.push(part.clone());
    }
    (equi, ScalarExpr::and_all(residual))
}

/// Choose the access path for a filtered base-table scan.
///
/// An index answers `column = key` only where the conjunct is in the
/// predicate's [`LeadingRun`](crate::expr::LeadingRun) — a row the index
/// passes over for holding another key is then one the whole predicate
/// rejects without raising — and its key is typed exactly as the column:
/// a coerced key (a `REAL` literal on an `INT` column) cannot use the
/// index, because map equality would not coincide with SQL `=`. Of the
/// usable indexes the first in conjunct order wins, as in
/// [`indexed_build_key`], so the choice is a function of the predicate,
/// the schema and the index set — never of the rows, whose count no plan
/// reads. Nothing is taken out of the predicate: a chain of conjuncts stays
/// whole as the scan's residual, so every fetched row meets a table scan's
/// evaluation, error wording included; only a predicate that *is* the key
/// conjunct needs no residual.
fn plan_scan(
    table: &str,
    alias: Option<String>,
    predicate: &ScalarExpr,
    catalog: &Catalog,
) -> Result<PhysicalPlan> {
    let t = catalog.table(table)?;
    let run = predicate.leading_run(t);
    // A comparison is its own sole conjunct: anything else that reaches an
    // index scan is a chain around the key.
    let is_chain = predicate.column_cmp_literal().is_none();
    let indexed = run.conjuncts().iter().find_map(|cmp| {
        let column = t.schema().columns().get(cmp.column)?;
        let exact = cmp.op == BinaryOp::Eq && cmp.literal.data_type() == Some(column.data_type);
        (exact && t.index_on(cmp.column).is_some()).then_some((cmp, column))
    });
    Ok(match indexed {
        Some((cmp, column)) => PhysicalPlan::IndexScan {
            table: table.to_owned(),
            alias,
            column: cmp.column,
            column_name: column.name.clone(),
            key: cmp.literal.clone(),
            residual: is_chain.then(|| predicate.clone()),
        },
        None => PhysicalPlan::TableScan {
            table: table.to_owned(),
            alias,
            residual: Some(predicate.clone()),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_storage::{Column, DataType, Schema, Value};

    /// `t(k INT, n INT, a INT, s TEXT, status TEXT)`, 24 rows, `k` (6
    /// keys) and `status` (2 keys) indexed.
    fn access_path_catalog() -> Catalog {
        let mut c = Catalog::new();
        let int = |name| Column::new(name, DataType::Int);
        let text = |name| Column::new(name, DataType::Text);
        let columns = vec![int("k"), int("n"), int("a"), text("s"), text("status")];
        c.create_table("t", Schema::new(columns).unwrap()).unwrap();
        for i in 0..24i64 {
            let status = if i % 2 == 0 { "open" } else { "closed" };
            let row = vec![
                Value::Int(i % 6),
                Value::Int(i),
                Value::Int(i),
                Value::text(format!("s{i}")),
                Value::text(status),
            ];
            c.insert("t", row, 0.5).unwrap();
        }
        c.create_index("t", "k").unwrap();
        c.create_index("t", "status").unwrap();
        c
    }

    /// The access path is read off the predicate's leading run: an index
    /// answers a `=` conjunct only from there, and takes nothing out of
    /// the predicate.
    #[test]
    fn the_leading_run_decides_the_access_path() {
        let c = access_path_catalog();
        let col = ScalarExpr::column;
        let int = |i: i64| ScalarExpr::literal(Value::Int(i));
        let (k, n, a, s, status) = (0, 1, 2, 3, 4);
        let k_is_3 = || col(k).eq(int(3));
        let open = || col(status).eq(ScalarExpr::literal(Value::text("open")));
        let overflowing = || col(a).add(int(1)).gt(int(0));
        let scan = |predicate: ScalarExpr| {
            let plan = Plan::scan("t").select(predicate);
            lower(&plan, &c).unwrap().node_label()
        };
        // Chosen. A sole conjunct needs no residual; a chain stays whole.
        assert_eq!(scan(k_is_3()), "IndexScan t (k = 3)");
        assert_eq!(scan(int(3).eq(col(k))), "IndexScan t (k = 3)");
        for (predicate, filter) in [
            (k_is_3().and(overflowing()), "((#0 = 3) AND ((#2 + 1) > 0))"),
            (k_is_3().and(col(n)), "((#0 = 3) AND #1)"),
            (col(n).gt(int(5)).and(k_is_3()), "((#1 > 5) AND (#0 = 3))"),
            (
                col(s)
                    .ne(ScalarExpr::literal(Value::text("s3")))
                    .and(k_is_3()),
                "((#3 <> 's3') AND (#0 = 3))",
            ),
        ] {
            assert_eq!(
                scan(predicate),
                format!("IndexScan t (k = 3) [filter: {filter}]")
            );
        }
        // Of two indexed conjuncts of the run the first in conjunct order
        // wins — however many rows either key keeps (`k = 3` 4, `status =
        // 'open'` 12) — also over the same index.
        let both = "((#4 = 'open') AND (#0 = 3))";
        assert_eq!(
            scan(open().and(k_is_3())),
            format!("IndexScan t (status = 'open') [filter: {both}]")
        );
        assert_eq!(
            scan(k_is_3().and(open())),
            "IndexScan t (k = 3) [filter: ((#0 = 3) AND (#4 = 'open'))]"
        );
        assert_eq!(
            scan(col(k).eq(int(4)).and(k_is_3())),
            "IndexScan t (k = 4) [filter: ((#0 = 4) AND (#0 = 3))]"
        );
        // Refused: the key conjunct is behind one that can raise, yield a
        // non-boolean or NULL, or is under an `OR` — skipping on it could
        // swallow what the row-wise evaluation meets first — or its
        // literal is not typed as the column.
        for predicate in [
            col(s).gt(int(1)).and(k_is_3()),
            overflowing().and(k_is_3()),
            col(n).and(k_is_3()),
            col(n).eq(col(a)).and(k_is_3()),
            col(n).eq(ScalarExpr::literal(Value::Null)).and(k_is_3()),
            k_is_3().or(col(n).gt(int(5))),
            col(k).eq(ScalarExpr::literal(Value::Real(3.0))),
            col(k).eq(ScalarExpr::literal(Value::Null)),
            col(k).gt(int(3)),
        ] {
            assert_eq!(
                scan(predicate.clone()),
                format!("TableScan t [filter: {predicate}]")
            );
        }
        // An unsafe conjunct ends the run; an index before it still serves.
        assert_eq!(
            scan(open().and(col(n)).and(k_is_3())),
            "IndexScan t (status = 'open') [filter: (((#4 = 'open') AND #1) AND (#0 = 3))]"
        );
    }
}
