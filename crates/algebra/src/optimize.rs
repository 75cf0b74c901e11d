//! Logical plan optimisation: predicate pushdown and product-to-join
//! conversion.
//!
//! The rewrites are semantics-preserving under the lineage model:
//! selections never touch lineage, so moving them below joins, unions,
//! differences, sorts and pure-column projections changes neither the
//! surviving tuples nor their lineage formulas — it only shrinks
//! intermediate results (and lets the executor use hash joins on the
//! equality conjuncts that reach a join's `ON`).

use crate::expr::ScalarExpr;
use crate::plan::Plan;
use crate::Result;
use pcqe_storage::Catalog;

/// Optimise a plan: merge stacked selections, push conjuncts as deep as
/// they can go, and convert cross products with equality predicates into
/// joins. Needs the catalog to know scan arities.
pub fn optimize(plan: &Plan, catalog: &Catalog) -> Result<Plan> {
    rewrite(plan.clone(), catalog)
}

fn rewrite(plan: Plan, catalog: &Catalog) -> Result<Plan> {
    match plan {
        Plan::Select { input, predicate } => {
            let input = rewrite(*input, catalog)?;
            let mut conjuncts = Vec::new();
            predicate.into_conjuncts(&mut conjuncts);
            push_conjuncts(input, conjuncts, catalog)
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

/// Push a set of conjuncts into `plan`, keeping any that cannot sink as a
/// selection on top.
fn push_conjuncts(plan: Plan, conjuncts: Vec<ScalarExpr>, catalog: &Catalog) -> Result<Plan> {
    if conjuncts.is_empty() {
        return Ok(plan);
    }
    match plan {
        Plan::Select { input, predicate } => {
            // Merge with the inner selection and retry.
            let mut all = conjuncts;
            predicate.into_conjuncts(&mut all);
            push_conjuncts(*input, all, catalog)
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let left_arity = left.schema(catalog)?.arity();
            let (to_left, to_right, stuck) = classify(conjuncts, left_arity);
            let left = push_conjuncts(*left, to_left, catalog)?;
            let right = push_conjuncts(*right, to_right, catalog)?;
            // Conjuncts spanning both sides join the ON predicate, where
            // the executor can exploit equalities for hashing.
            Ok(Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                predicate: stuck.into_iter().fold(predicate, ScalarExpr::and),
            })
        }
        Plan::Product { left, right } => {
            let left_arity = left.schema(catalog)?.arity();
            let (to_left, to_right, stuck) = classify(conjuncts, left_arity);
            let left = Box::new(push_conjuncts(*left, to_left, catalog)?);
            let right = Box::new(push_conjuncts(*right, to_right, catalog)?);
            Ok(match ScalarExpr::and_all(stuck) {
                None => Plan::Product { left, right },
                // A filtered product is a join.
                Some(predicate) => Plan::Join {
                    left,
                    right,
                    predicate,
                },
            })
        }
        Plan::Union { left, right } => {
            let l = push_conjuncts(*left, conjuncts.clone(), catalog)?;
            let r = push_conjuncts(*right, conjuncts, catalog)?;
            Ok(Plan::Union {
                left: Box::new(l),
                right: Box::new(r),
            })
        }
        Plan::Difference { left, right } => {
            // σ_p(A − B) = σ_p(A) − σ_p(B): rows of B that fail p could
            // only have matched rows of A that fail p too.
            let l = push_conjuncts(*left, conjuncts.clone(), catalog)?;
            let r = push_conjuncts(*right, conjuncts, catalog)?;
            Ok(Plan::Difference {
                left: Box::new(l),
                right: Box::new(r),
            })
        }
        Plan::Sort { input, keys } => Ok(Plan::Sort {
            input: Box::new(push_conjuncts(*input, conjuncts, catalog)?),
            keys,
        }),
        Plan::Project {
            input,
            items,
            distinct,
        } => {
            // Push through when every referenced output column is a pure
            // column item (rewriting indexes); otherwise stay on top.
            let mut rewritten = Vec::with_capacity(conjuncts.len());
            let mut stuck = Vec::new();
            for c in conjuncts {
                match remap_through_projection(&c, &items) {
                    Some(inner) => rewritten.push(inner),
                    None => stuck.push(c),
                }
            }
            let plan = Plan::Project {
                input: Box::new(push_conjuncts(*input, rewritten, catalog)?),
                items,
                distinct,
            };
            Ok(select(plan, stuck))
        }
        // Limits, aggregates and scans: selection stays on top (pushing
        // below a LIMIT changes which rows survive; a HAVING-style filter
        // over aggregate outputs cannot be evaluated earlier).
        other @ (Plan::Limit { .. } | Plan::Scan { .. } | Plan::Aggregate { .. }) => {
            Ok(select(other, conjuncts))
        }
    }
}

/// A selection on `conjuncts` over `plan`; `plan` itself when there are none.
fn select(plan: Plan, conjuncts: Vec<ScalarExpr>) -> Plan {
    match ScalarExpr::and_all(conjuncts) {
        Some(predicate) => plan.select(predicate),
        None => plan,
    }
}

/// Sort conjuncts into left-only, right-only (shifted), and spanning.
fn classify(
    conjuncts: Vec<ScalarExpr>,
    left_arity: usize,
) -> (Vec<ScalarExpr>, Vec<ScalarExpr>, Vec<ScalarExpr>) {
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
    (to_left, to_right, stuck)
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
    use crate::exec::execute;
    use crate::plan::ProjItem;
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

    /// Rows (values + lineage) must be identical up to order.
    fn same_rows(a: &crate::ResultSet, b: &crate::ResultSet) {
        let mut x: Vec<String> = a.rows().iter().map(|r| format!("{:?}", r)).collect();
        let mut y: Vec<String> = b.rows().iter().map(|r| format!("{:?}", r)).collect();
        x.sort();
        y.sort();
        assert_eq!(x, y);
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
        same_rows(
            &execute(&plan, &c).unwrap(),
            &execute(&optimized, &c).unwrap(),
        );
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
            same_rows(
                &execute(&plan, &c).unwrap(),
                &execute(&optimized, &c).unwrap(),
            );
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
        same_rows(
            &execute(&plan, &c).unwrap(),
            &execute(&optimized, &c).unwrap(),
        );
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
        same_rows(
            &execute(&plan, &c).unwrap(),
            &execute(&optimized, &c).unwrap(),
        );
    }

    #[test]
    fn selection_never_sinks_below_limit() {
        let c = catalog();
        let plan = Plan::scan("l")
            .limit(2)
            .select(ScalarExpr::column(1).gt(ScalarExpr::literal(Value::Int(0))));
        let optimized = optimize(&plan, &c).unwrap();
        same_rows(
            &execute(&plan, &c).unwrap(),
            &execute(&optimized, &c).unwrap(),
        );
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
        same_rows(
            &execute(&plan, &c).unwrap(),
            &execute(&optimized, &c).unwrap(),
        );
        // Exactly one Select remains.
        assert_eq!(optimized.to_string().matches("Select").count(), 1);
    }
}
