//! Lowering logical plans to physical plans with a deterministic cost
//! model.
//!
//! The planner consumes the *optimised* logical plan (selections already
//! pushed to just above the scans by [`crate::optimize`]) and makes two
//! kinds of decisions:
//!
//! * **Access paths** — a `Select` directly over a `Scan` becomes either a
//!   [`PhysicalPlan::TableScan`] with the predicate pushed in as a
//!   residual, or — when a conjunct `column = literal` of the predicate's
//!   [`LeadingRun`](crate::expr::LeadingRun) hits an
//!   [`pcqe_storage::EqualityIndex`] — a [`PhysicalPlan::IndexScan`] that
//!   fetches only the rows the index lists, and still tests the whole
//!   predicate on each: the index is a source of candidates, not a
//!   rewrite of the predicate.
//! * **Join strategies** — a `Join` with hashable equality conjuncts
//!   becomes a [`PhysicalPlan::HashJoin`] or a
//!   [`PhysicalPlan::NestedLoopJoin`] depending on estimated input
//!   cardinalities; without equality conjuncts it is always a nested loop.
//!   Where the choice is the hash join and its build side is a whole,
//!   unfiltered base table with an [`pcqe_storage::EqualityIndex`] on one
//!   of the key columns, the join becomes a [`PhysicalPlan::IndexJoin`]:
//!   the index *is* the build — the key-sorted table the hash join would
//!   scan, tag and sort the build side into on every query — so there is
//!   no cost to weigh: a probe of the index is never dearer than the
//!   binary search it replaces, and the build is free.
//!
//! # Why every choice is output-identical
//!
//! Correctness never depends on the cost model — only running time does:
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
//!   and its wording, is the reference's.
//! * Hash join and nested loop produce identical row order: both emit,
//!   for each left row in input order, its matching right rows in right
//!   input order. Only key columns whose type has exact equality
//!   (`INT`/`TEXT`/`BOOL`) are hashed at all, where `=`'s comparison and
//!   the hash table's ordered-map equality provably agree (a `REAL` column
//!   also holds widened `Int`s, which `=` equates with their reals and the
//!   map does not, so a `REAL` pair stays in the residual). *Errors*: the
//!   nested loop tests the whole predicate on every pair, a pair with a
//!   NULL key included (`NULL = k` is unknown, and `AND` goes on to the
//!   residual), where the hash join never pairs a NULL key; so it
//!   substitutes only for a join whose residual cannot raise.
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
//!   as the hash table would. *Lineage* is `joined(left, right)`
//!   either way, the right row read where it is stored. *Errors*: the
//!   build side
//!   qualifies only as a `TableScan` **without a residual**, so no
//!   predicate runs on rows the index passes over and no error it would
//!   have raised can be lost; a filtered build side — even one whose
//!   filter cannot raise — keeps the hash join, which evaluates every
//!   row. The join's own residual runs on exactly the matched pairs, in
//!   the same order, under both operators.

use crate::exec::split_equi_conjuncts;
use crate::expr::{BinaryOp, ScalarExpr};
use crate::physical::plan::PhysicalPlan;
use crate::plan::Plan;
use crate::Result;
use pcqe_storage::{Catalog, TableStats};

/// Per-row cost multiplier for building the hash table, relative to one
/// nested-loop predicate evaluation. A build row is tagged with its
/// partition and then sorted into it by key (`log n` key comparisons), so
/// it costs several probe comparisons.
const HASH_BUILD_COST: usize = 4;

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
            let right_schema = right.schema(catalog)?;
            let left_arity = left_schema.arity();
            // Same hashability rule as the logical executor.
            let (equi, residual) = split_equi_conjuncts(predicate, &left_schema, &right_schema);
            let l = lower(left, catalog)?;
            let r = lower(right, catalog)?;
            if equi.is_empty() {
                PhysicalPlan::NestedLoopJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    predicate: Some(predicate.clone()),
                }
            } else {
                // A nested loop may replace the hash join only where the
                // residual cannot raise: it tests the whole predicate on
                // every pair, a pair with a NULL key too.
                let column_type = |i: usize| match i.checked_sub(left_arity) {
                    None => left_schema.columns().get(i).map(|c| c.data_type),
                    Some(j) => right_schema.columns().get(j).map(|c| c.data_type),
                };
                let safe = residual
                    .as_ref()
                    .is_none_or(|r| r.cannot_raise(&column_type));
                let lrows = estimate(&l, catalog);
                let rrows = estimate(&r, catalog);
                let cost_nl = lrows.saturating_mul(rrows);
                let cost_hash = lrows.saturating_add(rrows.saturating_mul(HASH_BUILD_COST));
                if safe && cost_nl < cost_hash {
                    PhysicalPlan::NestedLoopJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                        predicate: Some(predicate.clone()),
                    }
                } else {
                    let indexed = indexed_build_key(&r, &equi, left_arity, catalog);
                    match (r, indexed) {
                        (PhysicalPlan::TableScan { table, alias, .. }, Some((column, name))) => {
                            PhysicalPlan::IndexJoin {
                                left: Box::new(l),
                                table,
                                alias,
                                column,
                                column_name: name,
                                keys: equi,
                                residual,
                            }
                        }
                        (r, _) => PhysicalPlan::HashJoin {
                            left: Box::new(l),
                            right: Box::new(r),
                            keys: equi,
                            residual,
                        },
                    }
                }
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

/// Choose the access path for a filtered base-table scan.
///
/// An index answers `column = key` only where the conjunct is in the
/// predicate's [`LeadingRun`](crate::expr::LeadingRun) — a row the index
/// passes over for holding another key is then one the whole predicate
/// rejects without raising — and its key is typed exactly as the column:
/// a coerced key (a `REAL` literal on an `INT` column) cannot use the
/// index, because map equality would not coincide with SQL `=`. Of the
/// usable indexes the most selective wins; `min_by_key` keeps the earliest
/// conjunct on ties, so the choice is a pure function of plan + catalog
/// state. Nothing is taken out of the predicate: a chain of conjuncts stays
/// whole as the scan's residual, so every fetched row meets the reference's
/// evaluation, error wording included; only a predicate that *is* the key
/// conjunct needs no residual.
fn plan_scan(
    table: &str,
    alias: Option<String>,
    predicate: &ScalarExpr,
    catalog: &Catalog,
) -> Result<PhysicalPlan> {
    let t = catalog.table(table)?;
    let stats = t.stats();
    let run = predicate.leading_run(t);
    // A comparison is its own sole conjunct: anything else that reaches an
    // index scan is a chain around the key.
    let is_chain = predicate.column_cmp_literal().is_none();
    let indexed = run.conjuncts().iter().filter_map(|cmp| {
        let column = t.schema().columns().get(cmp.column)?;
        let exact = cmp.op == BinaryOp::Eq && cmp.literal.data_type() == Some(column.data_type);
        (exact && t.index_on(cmp.column).is_some()).then_some((cmp, column))
    });
    Ok(
        match indexed.min_by_key(|(cmp, _)| stats.eq_selectivity_rows(cmp.column)) {
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
        },
    )
}

/// Estimated output cardinality of a physical operator.
///
/// Deterministic integer arithmetic over live table statistics
/// ([`pcqe_storage::TableStats`]): scans use real row counts; equality
/// conjuncts on a column with a known NDV divide by that NDV, falling
/// back to the textbook 1/10 only when no statistic exists; comparisons
/// use 1/3; hash and nested-loop joins assume 1/10 selectivity over the
/// cross product, an index join reads the matches per probe off its index
/// (`rows / ndv`). Estimates steer strategy choice only — never results.
pub fn estimate(plan: &PhysicalPlan, catalog: &Catalog) -> usize {
    match plan {
        PhysicalPlan::TableScan {
            table, residual, ..
        } => {
            let t = catalog.table(table).ok();
            let base = t.map(|t| t.len()).unwrap_or(0);
            match residual {
                Some(p) => predicate_rows(base, p, t.map(|t| t.stats()).as_ref()),
                None => base,
            }
        }
        PhysicalPlan::IndexScan {
            table,
            column,
            residual,
            ..
        } => {
            let Ok(t) = catalog.table(table) else {
                return 0;
            };
            match residual {
                // The whole predicate, key conjunct included.
                Some(p) => predicate_rows(t.len(), p, Some(&t.stats())),
                None => t.stats().eq_selectivity_rows(*column),
            }
        }
        PhysicalPlan::Filter { input, predicate } => {
            predicate_rows(estimate(input, catalog), predicate, None)
        }
        PhysicalPlan::Project { input, .. } | PhysicalPlan::Sort { input, .. } => {
            estimate(input, catalog)
        }
        PhysicalPlan::HashJoin { left, right, .. } => estimate(left, catalog)
            .saturating_mul(estimate(right, catalog))
            .div_ceil(10),
        PhysicalPlan::IndexJoin {
            left,
            table,
            column,
            ..
        } => {
            let table = catalog.table(table);
            let per_probe = table.map_or(0, |t| t.stats().eq_selectivity_rows(*column));
            estimate(left, catalog).saturating_mul(per_probe)
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let cross = estimate(left, catalog).saturating_mul(estimate(right, catalog));
            match predicate {
                Some(p) => predicate_rows(cross, p, None),
                None => cross,
            }
        }
        PhysicalPlan::Union { left, right } => {
            estimate(left, catalog).saturating_add(estimate(right, catalog))
        }
        PhysicalPlan::Difference { left, .. } => estimate(left, catalog),
        PhysicalPlan::Limit { input, count } => estimate(input, catalog).min(*count),
        PhysicalPlan::Aggregate { input, .. } => estimate(input, catalog).div_ceil(10).max(1),
    }
}

/// Scale a cardinality by per-conjunct selectivity guesses. When `stats`
/// are available (the predicate reads a base table directly), an
/// equality conjunct `column = literal` on a column with a known NDV
/// keeps `rows / ndv` rows — the uniform-distribution estimate the index
/// path already uses — instead of the blind 1/10. An NDV of 2 then
/// correctly predicts half the rows surviving where 1/10 would
/// undercount five-fold and steer the join chooser toward a nested loop
/// that is quadratically wrong on the real cardinality.
fn predicate_rows(base: usize, predicate: &ScalarExpr, stats: Option<&TableStats>) -> usize {
    let mut rows = base;
    for c in predicate.conjuncts() {
        if let ScalarExpr::Binary { op, .. } = c {
            rows = match op {
                BinaryOp::Eq => {
                    let ndv = stats
                        .zip(c.column_cmp_literal())
                        .and_then(|(s, cmp)| s.distinct_keys(cmp.column));
                    match ndv {
                        Some(n) if n > 0 => rows.div_ceil(n),
                        _ => rows.div_ceil(10),
                    }
                }
                BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => rows.div_ceil(3),
                _ => rows,
            };
        }
    }
    rows.min(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_storage::{Column, DataType, Schema, Value};

    /// 36 orders (cust = i%6, region = i%2, flag = i%3) joined to 5
    /// customers. With both filter columns indexed the planner knows
    /// `flag = 1` keeps 12 rows (NDV 3) where `region = 0` keeps 18
    /// (NDV 2), so the index scan takes `flag = 1`, the later conjunct;
    /// the residual is the whole predicate either way.
    fn crossover_catalog(index_region: bool) -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "orders",
            Schema::new(vec![
                Column::new("cust", DataType::Int),
                Column::new("region", DataType::Int),
                Column::new("flag", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "customers",
            Schema::new(vec![Column::new("id", DataType::Int)]).unwrap(),
        )
        .unwrap();
        for i in 0..36i64 {
            c.insert(
                "orders",
                vec![Value::Int(i % 6), Value::Int(i % 2), Value::Int(i % 3)],
                0.9,
            )
            .unwrap();
        }
        for id in 0..5i64 {
            c.insert("customers", vec![Value::Int(id)], 0.9).unwrap();
        }
        c.create_index("orders", "flag").unwrap();
        if index_region {
            c.create_index("orders", "region").unwrap();
        }
        c
    }

    /// The filtered-orders ⋈ customers plan, selections already pushed
    /// down as the optimiser would leave them.
    fn crossover_plan() -> Plan {
        let filtered = Plan::scan("orders").select(
            ScalarExpr::column(1)
                .eq(ScalarExpr::literal(Value::Int(0)))
                .and(ScalarExpr::column(2).eq(ScalarExpr::literal(Value::Int(1)))),
        );
        filtered.join(
            Plan::scan("customers"),
            ScalarExpr::column(0).eq(ScalarExpr::column(3)),
        )
    }

    /// NDV-aware residual selectivity flips the join strategy across the
    /// hash/nested-loop crossover. With NDV(region) = 2 known, 6 of the
    /// 12 index-scanned rows survive the residual and the hash join wins
    /// (30 = 6·5 nested-loop probes vs 26 = 6 + 4·5 build+probe); blind
    /// to the statistic, the old 1/10 guess predicted 2 rows and picked
    /// the nested loop (10 < 22). Both strategies return identical rows —
    /// only speed is at stake — but the estimate must use what it knows.
    #[test]
    fn ndv_aware_selectivity_crosses_the_join_strategy_over() {
        let with_stats = crossover_catalog(true);
        let phys = lower(&crossover_plan(), &with_stats).unwrap();
        assert!(
            phys.to_string().contains("HashJoin"),
            "NDV-aware estimate must pick the hash join:\n{phys}"
        );
        assert!(
            phys.to_string()
                .contains("IndexScan orders (flag = 1) [filter: ((#1 = 0) AND (#2 = 1))]"),
            "the more selective index, the whole predicate its residual:\n{phys}"
        );

        let without_stats = crossover_catalog(false);
        let phys = lower(&crossover_plan(), &without_stats).unwrap();
        assert!(
            phys.to_string().contains("NestedLoopJoin"),
            "without region stats the 1/10 fallback keeps the nested loop:\n{phys}"
        );
    }

    /// The estimate itself — the whole predicate over the table, which is
    /// what the index scan's residual is: 36 rows → 18 past `region = 0`
    /// (NDV 2) → 6 past `flag = 1` (NDV 3), against the flat-guess 2 when
    /// the region index (and hence its NDV) is absent.
    #[test]
    fn residual_equality_estimates_divide_by_known_ndv() {
        let with_stats = crossover_catalog(true);
        let scan = lower(
            &Plan::scan("orders").select(
                ScalarExpr::column(1)
                    .eq(ScalarExpr::literal(Value::Int(0)))
                    .and(ScalarExpr::column(2).eq(ScalarExpr::literal(Value::Int(1)))),
            ),
            &with_stats,
        )
        .unwrap();
        assert_eq!(estimate(&scan, &with_stats), 6);

        let without_stats = crossover_catalog(false);
        let scan = lower(
            &Plan::scan("orders").select(
                ScalarExpr::column(1)
                    .eq(ScalarExpr::literal(Value::Int(0)))
                    .and(ScalarExpr::column(2).eq(ScalarExpr::literal(Value::Int(1)))),
            ),
            &without_stats,
        )
        .unwrap();
        assert_eq!(estimate(&scan, &without_stats), 2);
    }

    /// `t(k INT, n INT, a INT, s TEXT, status TEXT)`, 24 rows, `k` (NDV 6)
    /// and `status` (NDV 2) indexed.
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
        // Of two indexed conjuncts of the run the more selective wins —
        // `k` keeps 4 rows, `status` 12 — wherever it stands.
        let both = "((#4 = 'open') AND (#0 = 3))";
        assert_eq!(
            scan(open().and(k_is_3())),
            format!("IndexScan t (k = 3) [filter: {both}]")
        );
        assert_eq!(
            scan(k_is_3().and(open())),
            "IndexScan t (k = 3) [filter: ((#0 = 3) AND (#4 = 'open'))]"
        );
        // And the earliest on a tie.
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
