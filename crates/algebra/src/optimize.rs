//! Logical plan optimisation: predicate pushdown and product-to-join
//! conversion.
//!
//! The rewrites are semantics-preserving under the lineage model:
//! selections never touch lineage, so moving them below joins, unions,
//! differences, sorts and pure-column projections changes neither the
//! surviving tuples nor their lineage formulas — it only shrinks
//! intermediate results (and lets the executor use hash joins on the
//! equality conjuncts that reach a join's `ON`). Nor do they change whether
//! a query raises: only conjuncts that cannot raise move, and only past
//! what cannot raise either (see `push_down`).

use crate::expr::ScalarExpr;
use crate::plan::Plan;
use crate::Result;
use pcqe_storage::{Catalog, DataType};

/// Optimise a plan: merge stacked selections, push conjuncts as deep as
/// they can go, and convert cross products with equality predicates into
/// joins. Needs the catalog to know scan arities.
pub fn optimize(plan: &Plan, catalog: &Catalog) -> Result<Plan> {
    rewrite(plan.clone(), catalog)
}

fn rewrite(plan: Plan, catalog: &Catalog) -> Result<Plan> {
    match plan {
        Plan::Select { input, predicate } => {
            push_down(rewrite(*input, catalog)?, Some(predicate), catalog)
        }
        Plan::Project {
            input,
            items,
            distinct,
        } => Ok(Plan::Project {
            input: Box::new(rewrite(*input, catalog)?),
            items,
            distinct,
        }),
        Plan::Join {
            left,
            right,
            predicate,
        } => Ok(Plan::Join {
            left: Box::new(rewrite(*left, catalog)?),
            right: Box::new(rewrite(*right, catalog)?),
            predicate,
        }),
        Plan::Product { left, right } => Ok(Plan::Product {
            left: Box::new(rewrite(*left, catalog)?),
            right: Box::new(rewrite(*right, catalog)?),
        }),
        Plan::Union { left, right } => Ok(Plan::Union {
            left: Box::new(rewrite(*left, catalog)?),
            right: Box::new(rewrite(*right, catalog)?),
        }),
        Plan::Difference { left, right } => Ok(Plan::Difference {
            left: Box::new(rewrite(*left, catalog)?),
            right: Box::new(rewrite(*right, catalog)?),
        }),
        Plan::Sort { input, keys } => Ok(Plan::Sort {
            input: Box::new(rewrite(*input, catalog)?),
            keys,
        }),
        Plan::Limit { input, count } => Ok(Plan::Limit {
            input: Box::new(rewrite(*input, catalog)?),
            count,
        }),
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => Ok(Plan::Aggregate {
            input: Box::new(rewrite(*input, catalog)?),
            group_by,
            aggregates,
        }),
        scan @ Plan::Scan { .. } => Ok(scan),
    }
}

/// Push `predicate` into `plan` as deep as it can go; what cannot sink
/// stays a selection on top, exactly as written.
///
/// Sinking changes where a conjunct is evaluated and what is evaluated
/// after it: below a join it meets every row of its side, partnered or
/// not, and a row it rejects there — false *or* NULL — never reaches the
/// join's predicate or the conjuncts written before it; and splitting the
/// predicate into conjuncts re-associates its `AND`s, which decides which
/// of two errors is raised first. No answer changes (a row passes a
/// conjunction of filters in any order), but whether the query raises, and
/// which error it raises, could. So a predicate sinks only when none of
/// its conjuncts can raise ([`ScalarExpr::cannot_raise`], the type rule of
/// the scan's leading run) and the operator it sinks below evaluates
/// nothing on its rows that could: a join's predicate, a selection's, a
/// sort's keys and a projection's items must be as safe.
fn push_down(plan: Plan, predicate: Option<ScalarExpr>, catalog: &Catalog) -> Result<Plan> {
    let Some(predicate) = predicate else {
        return Ok(plan);
    };
    let column_type = |i| passed_through(&plan, i, catalog);
    let operator_safe = match &plan {
        Plan::Select { predicate, .. } | Plan::Join { predicate, .. } => {
            predicate.cannot_raise(&column_type)
        }
        Plan::Sort { keys, .. } => keys.iter().all(|k| matches!(k.expr, ScalarExpr::Column(_))),
        Plan::Project { items, .. } => items
            .iter()
            .all(|i| matches!(i.expr, ScalarExpr::Column(_))),
        // A selection on top of a LIMIT keeps which rows survive; a
        // HAVING-style filter reads aggregate outputs; a scan takes the
        // predicate whole.
        Plan::Limit { .. } | Plan::Aggregate { .. } | Plan::Scan { .. } => false,
        Plan::Product { .. } | Plan::Union { .. } | Plan::Difference { .. } => true,
    };
    if !operator_safe || !predicate.cannot_raise(&column_type) {
        return Ok(plan.select(predicate));
    }
    match plan {
        // Merge with the inner selection, its conjuncts first, and retry.
        Plan::Select {
            input,
            predicate: inner,
        } => push_down(*input, Some(inner.and(predicate)), catalog),
        Plan::Join {
            left,
            right,
            predicate: on,
        } => {
            let (to_left, to_right, stuck) = classify(predicate, arity(&left, catalog)?);
            let left = push_down(*left, to_left, catalog)?;
            let right = push_down(*right, to_right, catalog)?;
            // Conjuncts spanning both sides join the ON predicate, where
            // the executor can exploit equalities for hashing.
            Ok(Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                predicate: stuck.into_iter().fold(on, ScalarExpr::and),
            })
        }
        Plan::Product { left, right } => {
            let (to_left, to_right, stuck) = classify(predicate, arity(&left, catalog)?);
            let left = Box::new(push_down(*left, to_left, catalog)?);
            let right = Box::new(push_down(*right, to_right, catalog)?);
            Ok(match stuck.into_iter().reduce(ScalarExpr::and) {
                None => Plan::Product { left, right },
                // A filtered product is a join.
                Some(predicate) => Plan::Join {
                    left,
                    right,
                    predicate,
                },
            })
        }
        Plan::Union { left, right } => Ok(Plan::Union {
            left: Box::new(push_down(*left, Some(predicate.clone()), catalog)?),
            right: Box::new(push_down(*right, Some(predicate), catalog)?),
        }),
        // σ_p(A − B) = σ_p(A) − σ_p(B): rows of B that fail p could only
        // have matched rows of A that fail p too.
        Plan::Difference { left, right } => Ok(Plan::Difference {
            left: Box::new(push_down(*left, Some(predicate.clone()), catalog)?),
            right: Box::new(push_down(*right, Some(predicate), catalog)?),
        }),
        Plan::Sort { input, keys } => Ok(Plan::Sort {
            input: Box::new(push_down(*input, Some(predicate), catalog)?),
            keys,
        }),
        // Every item is a bare column: rewrite the indexes and sink.
        Plan::Project {
            input,
            items,
            distinct,
        } => match remap_through_projection(&predicate, &items) {
            Some(inner) => Ok(Plan::Project {
                input: Box::new(push_down(*input, Some(inner), catalog)?),
                items,
                distinct,
            }),
            None => Ok(Plan::Project {
                input,
                items,
                distinct,
            }
            .select(predicate)),
        },
        other @ (Plan::Limit { .. } | Plan::Scan { .. } | Plan::Aggregate { .. }) => {
            Ok(other.select(predicate))
        }
    }
}

/// How many columns `plan` outputs, without building its schema.
fn arity(plan: &Plan, catalog: &Catalog) -> Result<usize> {
    Ok(match plan {
        Plan::Scan { table, .. } => catalog.table(table)?.schema().arity(),
        Plan::Select { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            arity(input, catalog)?
        }
        Plan::Union { left, .. } | Plan::Difference { left, .. } => arity(left, catalog)?,
        Plan::Join { left, right, .. } | Plan::Product { left, right } => {
            arity(left, catalog)? + arity(right, catalog)?
        }
        Plan::Project { items, .. } => items.len(),
        Plan::Aggregate {
            group_by,
            aggregates,
            ..
        } => group_by.len() + aggregates.len(),
    })
}

/// The type of `plan`'s output column `i` where the plan passes a base
/// table's column through unchanged (a scan, a selection, a join or
/// product, a sort, a limit, a set operation, a bare column item), without
/// building its schema; `None` where it computes the column, or `i` is out
/// of range.
fn passed_through(plan: &Plan, i: usize, catalog: &Catalog) -> Option<DataType> {
    match plan {
        Plan::Scan { table, .. } => {
            let columns = catalog.table(table).ok()?.schema().columns();
            columns.get(i).map(|c| c.data_type)
        }
        Plan::Select { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            passed_through(input, i, catalog)
        }
        // Both sides of a set operation have the left side's types.
        Plan::Union { left, .. } | Plan::Difference { left, .. } => {
            passed_through(left, i, catalog)
        }
        Plan::Join { left, right, .. } | Plan::Product { left, right } => {
            match i.checked_sub(arity(left, catalog).ok()?) {
                None => passed_through(left, i, catalog),
                Some(j) => passed_through(right, j, catalog),
            }
        }
        Plan::Project { input, items, .. } => match items.get(i)?.expr {
            ScalarExpr::Column(c) => passed_through(input, c, catalog),
            _ => None,
        },
        Plan::Aggregate { .. } => None,
    }
}

/// Sort a predicate's conjuncts into left-only, right-only (shifted), and
/// spanning.
fn classify(
    predicate: ScalarExpr,
    left_arity: usize,
) -> (Option<ScalarExpr>, Option<ScalarExpr>, Vec<ScalarExpr>) {
    let mut conjuncts = Vec::new();
    predicate.into_conjuncts(&mut conjuncts);
    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut stuck = Vec::new();
    for c in conjuncts {
        let cols = c.referenced_columns();
        if cols.iter().all(|&i| i < left_arity) {
            to_left.push(c);
        } else if cols.iter().all(|&i| i >= left_arity) {
            to_right.push(c.shift_columns(-(left_arity as isize)));
        } else {
            stuck.push(c);
        }
    }
    let and_all = ScalarExpr::and_all;
    (and_all(to_left), and_all(to_right), stuck)
}

/// Rewrite a predicate over a projection's output to one over its input,
/// when every referenced output column is a plain column reference.
fn remap_through_projection(
    expr: &ScalarExpr,
    items: &[crate::plan::ProjItem],
) -> Option<ScalarExpr> {
    match expr {
        ScalarExpr::Column(i) => match items.get(*i)?.expr {
            ScalarExpr::Column(inner) => Some(ScalarExpr::Column(inner)),
            _ => None,
        },
        ScalarExpr::Literal(v) => Some(ScalarExpr::Literal(v.clone())),
        ScalarExpr::Binary { op, left, right } => Some(ScalarExpr::Binary {
            op: *op,
            left: Box::new(remap_through_projection(left, items)?),
            right: Box::new(remap_through_projection(right, items)?),
        }),
        ScalarExpr::Unary { op, expr } => Some(ScalarExpr::Unary {
            op: *op,
            expr: Box::new(remap_through_projection(expr, items)?),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{execute_vectorized_with, lower};
    use crate::plan::ProjItem;
    use pcqe_par::Parallelism;
    use pcqe_storage::{Column, DataType, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "l",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "r",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("c", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        for i in 0..6i64 {
            c.insert("l", vec![Value::Int(i % 3), Value::Int(i)], 0.5)
                .unwrap();
            c.insert("r", vec![Value::Int(i % 2), Value::Int(10 * i)], 0.5)
                .unwrap();
        }
        c
    }

    /// Lower `plan` as written and run it, one worker.
    fn run(plan: &Plan, c: &Catalog) -> crate::ResultSet {
        let physical = lower(plan, c).unwrap();
        execute_vectorized_with(&physical, c, &Parallelism::sequential()).unwrap()
    }

    /// `plan` and `optimized` yield the same rows (values + lineage) up to
    /// order.
    fn same_rows(plan: &Plan, optimized: &Plan, c: &Catalog) {
        let sorted = |p: &Plan| {
            let mut rows: Vec<String> = run(p, c).rows().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(sorted(plan), sorted(optimized));
    }

    #[test]
    fn pushdown_preserves_semantics_over_product() {
        let c = catalog();
        // σ(l.a = r.a ∧ l.b > 1 ∧ r.c < 40)(l × r)
        let plan = Plan::scan("l").product(Plan::scan("r")).select(
            ScalarExpr::column(0)
                .eq(ScalarExpr::column(2))
                .and(ScalarExpr::column(1).gt(ScalarExpr::literal(Value::Int(1))))
                .and(ScalarExpr::column(3).lt(ScalarExpr::literal(Value::Int(40)))),
        );
        let optimized = optimize(&plan, &c).unwrap();
        // The product must have become a join with pushed-down filters.
        let text = optimized.to_string();
        assert!(text.contains("Join"), "{text}");
        assert!(!text.starts_with("Select"), "selection sank: {text}");
        same_rows(&plan, &optimized, &c);
    }

    #[test]
    fn pushdown_through_union_and_difference() {
        let c = catalog();
        let base = |t: &str| Plan::scan(t).project(vec![ProjItem::new(ScalarExpr::column(0), "a")]);
        for plan in [
            base("l")
                .union(base("r"))
                .select(ScalarExpr::column(0).gt(ScalarExpr::literal(Value::Int(0)))),
            base("l")
                .difference(base("r"))
                .select(ScalarExpr::column(0).gt(ScalarExpr::literal(Value::Int(0)))),
        ] {
            let optimized = optimize(&plan, &c).unwrap();
            same_rows(&plan, &optimized, &c);
        }
    }

    #[test]
    fn pushdown_through_pure_column_projection() {
        let c = catalog();
        let plan = Plan::scan("l")
            .project(vec![
                ProjItem::new(ScalarExpr::column(1), "b"),
                ProjItem::new(ScalarExpr::column(0), "a"),
            ])
            .select(ScalarExpr::column(0).ge(ScalarExpr::literal(Value::Int(3))));
        let optimized = optimize(&plan, &c).unwrap();
        let text = optimized.to_string();
        assert!(
            text.trim_start().starts_with("Project"),
            "selection sank below the projection: {text}"
        );
        same_rows(&plan, &optimized, &c);
    }

    #[test]
    fn computed_projection_blocks_pushdown() {
        let c = catalog();
        let plan = Plan::scan("l")
            .project(vec![ProjItem::new(
                ScalarExpr::column(0).add(ScalarExpr::column(1)),
                "sum",
            )])
            .select(ScalarExpr::column(0).gt(ScalarExpr::literal(Value::Int(2))));
        let optimized = optimize(&plan, &c).unwrap();
        assert!(optimized.to_string().trim_start().starts_with("Select"));
        same_rows(&plan, &optimized, &c);
    }

    #[test]
    fn selection_never_sinks_below_limit() {
        let c = catalog();
        let plan = Plan::scan("l")
            .limit(2)
            .select(ScalarExpr::column(1).gt(ScalarExpr::literal(Value::Int(0))));
        let optimized = optimize(&plan, &c).unwrap();
        same_rows(&plan, &optimized, &c);
        let text = optimized.to_string();
        assert!(text.trim_start().starts_with("Select"), "{text}");
    }

    #[test]
    fn stacked_selections_merge() {
        let c = catalog();
        let plan = Plan::scan("l")
            .select(ScalarExpr::column(0).ge(ScalarExpr::literal(Value::Int(1))))
            .select(ScalarExpr::column(1).le(ScalarExpr::literal(Value::Int(4))));
        let optimized = optimize(&plan, &c).unwrap();
        same_rows(&plan, &optimized, &c);
        // Exactly one Select remains, the inner conjunct first.
        assert_eq!(optimized.to_string().matches("Select").count(), 1);
        let Plan::Select { predicate, .. } = optimized else {
            panic!("{optimized}");
        };
        assert_eq!(predicate.conjuncts()[0].to_string(), "(#0 >= 1)");
    }

    #[test]
    fn a_conjunct_that_can_raise_stays_where_it_was_written() {
        let c = catalog();
        let text = || ScalarExpr::literal(Value::text("x"));
        // `l.b > 'x'` cannot compare an INT with a TEXT: it sinks neither
        // below the product nor past the join key written before it, and
        // the key does not sink past it. So does a safe conjunct over a
        // join whose predicate can raise.
        let product = Plan::scan("l").product(Plan::scan("r")).select(
            ScalarExpr::column(0)
                .eq(ScalarExpr::column(2))
                .and(ScalarExpr::column(1).gt(text())),
        );
        assert_eq!(optimize(&product, &c).unwrap(), product);
        let join = Plan::scan("l")
            .join(Plan::scan("r"), ScalarExpr::column(1).gt(text()))
            .select(ScalarExpr::column(0).eq(ScalarExpr::literal(Value::Int(1))));
        assert_eq!(optimize(&join, &c).unwrap(), join);
    }
}
