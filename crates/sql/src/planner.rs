//! Lowering the AST to a `pcqe-algebra` plan.

use crate::ast::{BinOp, Expr, Query, Select, TableRef};
use crate::Result;
use pcqe_algebra::plan::SortKey;
use pcqe_algebra::{Plan, ProjItem, ScalarExpr};
use pcqe_storage::{Catalog, Schema, Value};

/// Lower a parsed [`Query`] to an executable [`Plan`].
pub fn plan_query(query: &Query, catalog: &Catalog) -> Result<Plan> {
    match query {
        Query::Select(s) => plan_select(s, catalog),
        Query::Union(l, r) => Ok(plan_query(l, catalog)?.union(plan_query(r, catalog)?)),
        Query::Except(l, r) => Ok(plan_query(l, catalog)?.difference(plan_query(r, catalog)?)),
        Query::Ordered { input, keys, limit } => {
            let mut plan = plan_query(input, catalog)?;
            if !keys.is_empty() {
                // ORDER BY keys resolve against the query's output schema.
                let schema = plan.schema(catalog)?;
                let resolved = keys
                    .iter()
                    .map(|k| {
                        Ok(SortKey {
                            expr: resolve(&k.expr, &schema)?,
                            descending: k.descending,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                plan = plan.sort(resolved);
            }
            if let Some(n) = limit {
                plan = plan.limit(*n);
            }
            Ok(plan)
        }
    }
}

fn scan_of(t: &TableRef) -> Plan {
    match &t.alias {
        Some(a) => Plan::scan_as(&t.table, a),
        None => Plan::scan(&t.table),
    }
}

fn plan_select(s: &Select, catalog: &Catalog) -> Result<Plan> {
    // FROM: first table, then comma cross products, then JOINs. The
    // parser guarantees a non-empty FROM, but the planner reports the
    // impossible case as a typed error instead of indexing (PCQE-P002).
    let (first, rest) = s
        .from
        .split_first()
        .ok_or_else(|| plan_err("SELECT without a FROM table"))?;
    let mut plan = scan_of(first);
    for extra in rest {
        plan = plan.product(scan_of(extra));
    }
    for join in &s.joins {
        let right = scan_of(&join.table);
        let combined = plan.schema(catalog)?.join(&right.schema(catalog)?);
        let predicate = resolve(&join.on, &combined)?;
        plan = plan.join(right, predicate);
    }
    // WHERE.
    if let Some(cond) = &s.selection {
        if cond.contains_aggregate() {
            return Err(plan_err("aggregates are not allowed in WHERE (use HAVING)"));
        }
        let schema = plan.schema(catalog)?;
        plan = plan.select(resolve(cond, &schema)?);
    }
    // Aggregation path: GROUP BY present, or an aggregate in the
    // projection, or HAVING.
    let is_aggregate = !s.group_by.is_empty()
        || s.having.is_some()
        || s.items.iter().any(|i| i.expr.contains_aggregate());
    if is_aggregate {
        return plan_aggregate(s, plan, catalog);
    }
    // Projection. `SELECT *` projects every input column under its bare
    // name (qualified where needed for uniqueness).
    let schema = plan.schema(catalog)?;
    let items: Vec<ProjItem> = if s.items.is_empty() {
        schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // Prefer the bare name; fall back to the qualified name if
                // the bare one is ambiguous in the input schema.
                let bare_unique = schema
                    .columns()
                    .iter()
                    .filter(|o| o.name.eq_ignore_ascii_case(&c.name))
                    .count()
                    == 1;
                let name = if bare_unique {
                    c.name.clone()
                } else {
                    c.display_name().replace('.', "_")
                };
                ProjItem::new(ScalarExpr::column(i), name)
            })
            .collect()
    } else {
        s.items
            .iter()
            .map(|item| {
                let expr = resolve(&item.expr, &schema)?;
                let name = item
                    .alias
                    .clone()
                    .unwrap_or_else(|| item.expr.default_name());
                Ok(ProjItem::new(expr, name))
            })
            .collect::<Result<Vec<_>>>()?
    };
    Ok(if s.distinct {
        plan.project(items)
    } else {
        plan.project_all(items)
    })
}

fn plan_err(message: impl Into<String>) -> crate::SqlError {
    crate::SqlError::Plan(pcqe_algebra::AlgebraError::Type(message.into()))
}

/// Plan a grouped/aggregated SELECT on top of the FROM/WHERE plan.
///
/// Restrictions (reported as planning errors): every projection item must
/// be either exactly one of the GROUP BY expressions or a single
/// aggregate call (no arithmetic around aggregates), `SELECT *` cannot be
/// grouped, and HAVING resolves against the aggregate *output* columns.
fn plan_aggregate(s: &Select, input: Plan, catalog: &Catalog) -> Result<Plan> {
    use pcqe_algebra::plan::AggItem;
    if s.items.is_empty() {
        return Err(plan_err("SELECT * cannot be combined with GROUP BY"));
    }
    let in_schema = input.schema(catalog)?;

    // Group keys, in GROUP BY order.
    let mut group_items: Vec<ProjItem> = Vec::with_capacity(s.group_by.len());
    for (i, g) in s.group_by.iter().enumerate() {
        if g.contains_aggregate() {
            return Err(plan_err("aggregates are not allowed in GROUP BY"));
        }
        // Default key names: the column name, or a positional fallback.
        let name = match g.default_name().as_str() {
            "expr" => format!("group_{i}"),
            n => n.to_owned(),
        };
        group_items.push(ProjItem::new(resolve(g, &in_schema)?, name));
    }

    // Walk the projection: group-key references and aggregate calls.
    let mut aggregates: Vec<AggItem> = Vec::new();
    // (output position → column index in the aggregate's output)
    let mut output: Vec<(usize, String)> = Vec::new();
    for item in &s.items {
        match &item.expr {
            Expr::Agg { func, arg } => {
                let resolved_arg = match arg {
                    Some(a) => {
                        if a.contains_aggregate() {
                            return Err(plan_err("nested aggregates are not allowed"));
                        }
                        Some(resolve(a, &in_schema)?)
                    }
                    None => None,
                };
                let mut name = item
                    .alias
                    .clone()
                    .unwrap_or_else(|| item.expr.default_name());
                // Keep output names unique.
                if output.iter().any(|(_, n)| n.eq_ignore_ascii_case(&name))
                    || group_items
                        .iter()
                        .any(|g| g.name.eq_ignore_ascii_case(&name))
                {
                    name = format!("{name}_{}", aggregates.len());
                }
                let idx = group_items.len() + aggregates.len();
                aggregates.push(AggItem {
                    func: *func,
                    arg: resolved_arg,
                    name: name.clone(),
                });
                output.push((idx, name));
            }
            expr if expr.contains_aggregate() => {
                return Err(plan_err(
                    "aggregates must be top-level projection items (no arithmetic around them)",
                ));
            }
            expr => {
                // Must match a GROUP BY expression syntactically.
                let pos = s.group_by.iter().position(|g| g == expr).ok_or_else(|| {
                    plan_err(format!(
                        "`{}` appears in SELECT but not in GROUP BY",
                        expr.default_name()
                    ))
                })?;
                let name = match item.alias.clone() {
                    Some(a) => a,
                    None => group_items
                        .get(pos)
                        .map(|g| g.name.clone())
                        .ok_or_else(|| plan_err("GROUP BY position out of range"))?,
                };
                output.push((pos, name));
            }
        }
    }

    let mut plan = input.aggregate(group_items, aggregates);

    // HAVING over the aggregate output columns.
    if let Some(h) = &s.having {
        let schema = plan.schema(catalog)?;
        let resolved = resolve_having(h, s, &schema)?;
        plan = plan.select(resolved);
    }

    // Re-order/rename to the SELECT list.
    let items: Vec<ProjItem> = output
        .into_iter()
        .map(|(idx, name)| ProjItem::new(ScalarExpr::column(idx), name))
        .collect();
    Ok(if s.distinct {
        plan.project(items)
    } else {
        plan.project_all(items)
    })
}

/// Resolve a HAVING predicate against the aggregate output schema.
/// Aggregate calls inside HAVING must match one of the SELECT list's
/// aggregates (same function and argument); bare columns resolve against
/// the output schema (group keys and aggregate aliases).
fn resolve_having(h: &Expr, s: &Select, schema: &Schema) -> Result<ScalarExpr> {
    Ok(match h {
        Expr::Agg { .. } => {
            // Find the matching SELECT aggregate and reference its column.
            let pos = s
                .items
                .iter()
                .position(|item| &item.expr == h)
                .ok_or_else(|| plan_err("HAVING aggregates must also appear in the SELECT list"))?;
            // Output columns are group keys then aggregates in SELECT
            // order; recover the aggregate's index among aggregates.
            let agg_rank = s
                .items
                .iter()
                .take(pos)
                .filter(|i| matches!(i.expr, Expr::Agg { .. }))
                .count();
            let group_count = s.group_by.len();
            ScalarExpr::column(group_count + agg_rank)
        }
        Expr::Binary { op, left, right } => {
            let l = resolve_having(left, s, schema)?;
            let r = resolve_having(right, s, schema)?;
            match op {
                BinOp::Eq => l.eq(r),
                BinOp::Ne => l.ne(r),
                BinOp::Lt => l.lt(r),
                BinOp::Le => l.le(r),
                BinOp::Gt => l.gt(r),
                BinOp::Ge => l.ge(r),
                BinOp::And => l.and(r),
                BinOp::Or => l.or(r),
                BinOp::Add => l.add(r),
                BinOp::Sub => l.sub(r),
                BinOp::Mul => l.mul(r),
                BinOp::Div => l.div(r),
                BinOp::Like => ScalarExpr::Binary {
                    op: pcqe_algebra::BinaryOp::Like,
                    left: Box::new(l),
                    right: Box::new(r),
                },
            }
        }
        Expr::Not(e) => resolve_having(e, s, schema)?.not(),
        Expr::Neg(e) => ScalarExpr::Unary {
            op: pcqe_algebra::UnaryOp::Neg,
            expr: Box::new(resolve_having(e, s, schema)?),
        },
        other => resolve(other, schema)?,
    })
}

/// Evaluate a row of literal expressions (an `INSERT … VALUES` row) to
/// concrete values. Column references are rejected, arithmetic on
/// literals is folded.
pub fn literal_row(row: &[Expr]) -> Result<Vec<Value>> {
    let empty = Schema::new(vec![]).map_err(pcqe_algebra::AlgebraError::from)?;
    row.iter()
        .map(|e| {
            let resolved = resolve(e, &empty)?;
            resolved.eval(&[]).map_err(Into::into)
        })
        .collect()
}

/// Resolve a surface expression against a schema, producing a positional
/// [`ScalarExpr`].
pub fn resolve(expr: &Expr, schema: &Schema) -> Result<ScalarExpr> {
    Ok(match expr {
        Expr::Column { qualifier, name } => ScalarExpr::named(schema, qualifier.as_deref(), name)?,
        Expr::Int(i) => ScalarExpr::literal(Value::Int(*i)),
        Expr::Real(r) => ScalarExpr::literal(Value::Real(*r)),
        Expr::Str(s) => ScalarExpr::literal(Value::text(s.clone())),
        Expr::Bool(b) => ScalarExpr::literal(Value::Bool(*b)),
        Expr::Null => ScalarExpr::literal(Value::Null),
        Expr::Binary { op, left, right } => {
            let l = resolve(left, schema)?;
            let r = resolve(right, schema)?;
            match op {
                BinOp::Eq => l.eq(r),
                BinOp::Ne => l.ne(r),
                BinOp::Lt => l.lt(r),
                BinOp::Le => l.le(r),
                BinOp::Gt => l.gt(r),
                BinOp::Ge => l.ge(r),
                BinOp::And => l.and(r),
                BinOp::Or => l.or(r),
                BinOp::Add => l.add(r),
                BinOp::Sub => l.sub(r),
                BinOp::Mul => l.mul(r),
                BinOp::Div => l.div(r),
                BinOp::Like => pcqe_algebra::ScalarExpr::Binary {
                    op: pcqe_algebra::BinaryOp::Like,
                    left: Box::new(l),
                    right: Box::new(r),
                },
            }
        }
        Expr::Not(e) => resolve(e, schema)?.not(),
        Expr::Neg(e) => pcqe_algebra::ScalarExpr::Unary {
            op: pcqe_algebra::UnaryOp::Neg,
            expr: Box::new(resolve(e, schema)?),
        },
        Expr::IsNull { expr, negated } => pcqe_algebra::ScalarExpr::Unary {
            op: if *negated {
                pcqe_algebra::UnaryOp::IsNotNull
            } else {
                pcqe_algebra::UnaryOp::IsNull
            },
            expr: Box::new(resolve(expr, schema)?),
        },
        Expr::Agg { func, .. } => {
            return Err(plan_err(format!(
                "{} is only allowed in the SELECT list or HAVING",
                func.name()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use pcqe_algebra::{execute_vectorized_with, lower, ResultSet};
    use pcqe_lineage::{CircuitCache, Evaluator};
    use pcqe_par::Parallelism;
    use pcqe_storage::{Column, DataType, TupleId};

    /// The paper's Tables 1–2, with the exact confidences of Section 3.1.
    fn paper_db() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "Proposal",
            Schema::new(vec![
                Column::new("company", DataType::Text),
                Column::new("proposal", DataType::Text),
                Column::new("funding", DataType::Real),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "CompanyInfo",
            Schema::new(vec![
                Column::new("company", DataType::Text),
                Column::new("income", DataType::Real),
            ])
            .unwrap(),
        )
        .unwrap();
        // id 0: big proposal, filtered out by funding < 1M.
        c.insert(
            "Proposal",
            vec![
                Value::text("MegaCorp"),
                Value::text("factory"),
                Value::Real(5_000_000.0),
            ],
            0.9,
        )
        .unwrap();
        // ids 1, 2: the paper's tuples 02 (p=0.3) and 03 (p=0.4).
        c.insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v1"),
                Value::Real(800_000.0),
            ],
            0.3,
        )
        .unwrap();
        c.insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v2"),
                Value::Real(900_000.0),
            ],
            0.4,
        )
        .unwrap();
        // id 3: the paper's tuple 13 (p=0.1).
        c.insert(
            "CompanyInfo",
            vec![Value::text("SkyCam"), Value::Real(500_000.0)],
            0.1,
        )
        .unwrap();
        c
    }

    /// Lower `plan` as planned and run it, one worker.
    fn run(plan: &Plan, catalog: &Catalog) -> ResultSet {
        let physical = lower(plan, catalog).unwrap();
        execute_vectorized_with(&physical, catalog, &Parallelism::sequential()).unwrap()
    }

    fn run_scored(sql: &str, catalog: &Catalog) -> Vec<(Vec<Value>, f64)> {
        let plan = plan_query(&parse(sql).unwrap(), catalog).unwrap();
        let rs = run(&plan, catalog);
        let mut pool = CircuitCache::new();
        for v in rs.rows().iter().flat_map(|r| r.lineage.vars()) {
            pool.set_prob(v, catalog.confidence(TupleId(v.0)).unwrap());
        }
        rs.score_cached(&mut pool, &Evaluator::default())
            .unwrap()
            .into_iter()
            .map(|s| (s.tuple.values().to_vec(), s.confidence))
            .collect()
    }

    #[test]
    fn paper_query_end_to_end() {
        let c = paper_db();
        let rows = run_scored(
            "SELECT DISTINCT CompanyInfo.company, income \
             FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
             WHERE funding < 1000000.0",
            &c,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0[0], Value::text("SkyCam"));
        assert!((rows[0].1 - 0.058).abs() < 1e-12);
    }

    #[test]
    fn select_star_expands_columns() {
        let c = paper_db();
        let plan = plan_query(&parse("SELECT * FROM CompanyInfo").unwrap(), &c).unwrap();
        let rs = run(&plan, &c);
        assert_eq!(rs.schema().arity(), 2);
        assert_eq!(rs.schema().columns()[0].name, "company");
    }

    #[test]
    fn select_star_disambiguates_joined_duplicates() {
        let c = paper_db();
        let plan = plan_query(
            &parse(
                "SELECT * FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company",
            )
            .unwrap(),
            &c,
        )
        .unwrap();
        let schema = plan.schema(&c).unwrap();
        let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"Proposal_company"));
        assert!(names.contains(&"CompanyInfo_company"));
        assert!(names.contains(&"funding"));
    }

    #[test]
    fn aliases_rename_tables_and_columns() {
        let c = paper_db();
        let rows = run_scored(
            "SELECT p.company AS who FROM Proposal p WHERE p.funding > 1000000.0",
            &c,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0[0], Value::text("MegaCorp"));
    }

    #[test]
    fn cross_product_with_where_equals_join() {
        let c = paper_db();
        let a = run_scored(
            "SELECT DISTINCT CompanyInfo.company, income \
             FROM Proposal, CompanyInfo \
             WHERE Proposal.company = CompanyInfo.company AND funding < 1000000.0",
            &c,
        );
        let b = run_scored(
            "SELECT DISTINCT CompanyInfo.company, income \
             FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
             WHERE funding < 1000000.0",
            &c,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn union_and_except_plans() {
        let c = paper_db();
        let union = run_scored(
            "SELECT company FROM Proposal UNION SELECT company FROM CompanyInfo",
            &c,
        );
        // MegaCorp, SkyCam (merged across both sides).
        assert_eq!(union.len(), 2);
        let except = run_scored(
            "SELECT company FROM Proposal EXCEPT SELECT company FROM CompanyInfo",
            &c,
        );
        assert_eq!(except.len(), 2, "difference keeps uncertain rows");
        let sky = except
            .iter()
            .find(|(v, _)| v[0] == Value::text("SkyCam"))
            .unwrap();
        // P(SkyCam ∈ Proposal∖CompanyInfo) = P(02∨03)·(1−p13)
        let expected = (0.3 + 0.4 - 0.3 * 0.4) * 0.9;
        assert!((sky.1 - expected).abs() < 1e-12);
    }

    #[test]
    fn bag_select_keeps_duplicates() {
        let c = paper_db();
        let rows = run_scored("SELECT company FROM Proposal", &c);
        assert_eq!(rows.len(), 3);
        let rows = run_scored("SELECT DISTINCT company FROM Proposal", &c);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unknown_names_error_at_planning() {
        let c = paper_db();
        assert!(plan_query(&parse("SELECT nope FROM Proposal").unwrap(), &c).is_err());
        assert!(plan_query(&parse("SELECT * FROM Missing").unwrap(), &c).is_err());
        assert!(plan_query(
            &parse("SELECT * FROM Proposal WHERE CompanyInfo.income > 0").unwrap(),
            &c
        )
        .is_err());
    }

    #[test]
    fn like_between_in_and_null_predicates() {
        let mut c = paper_db();
        c.insert("CompanyInfo", vec![Value::text("NullCo"), Value::Null], 0.9)
            .unwrap();
        // LIKE.
        let rows = run_scored("SELECT company FROM Proposal WHERE company LIKE 'Sky%'", &c);
        assert_eq!(rows.len(), 2);
        let rows = run_scored(
            "SELECT company FROM Proposal WHERE company NOT LIKE '%Corp'",
            &c,
        );
        assert_eq!(rows.len(), 2);
        // BETWEEN (inclusive bounds).
        let rows = run_scored(
            "SELECT company FROM Proposal WHERE funding BETWEEN 800000.0 AND 900000.0",
            &c,
        );
        assert_eq!(rows.len(), 2);
        let rows = run_scored(
            "SELECT company FROM Proposal WHERE funding NOT BETWEEN 0 AND 1000000",
            &c,
        );
        assert_eq!(rows.len(), 1);
        // IN lists.
        let rows = run_scored(
            "SELECT company FROM Proposal WHERE company IN ('MegaCorp', 'Nobody')",
            &c,
        );
        assert_eq!(rows.len(), 1);
        let rows = run_scored(
            "SELECT company FROM Proposal WHERE company NOT IN ('MegaCorp')",
            &c,
        );
        assert_eq!(rows.len(), 2);
        // IS NULL / IS NOT NULL.
        let rows = run_scored("SELECT company FROM CompanyInfo WHERE income IS NULL", &c);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0[0], Value::text("NullCo"));
        let rows = run_scored(
            "SELECT company FROM CompanyInfo WHERE income IS NOT NULL",
            &c,
        );
        assert_eq!(rows.len(), 1);
        // Errors: dangling NOT, bad IS.
        assert!(parse("SELECT * FROM t WHERE x NOT 1").is_err());
        assert!(parse("SELECT * FROM t WHERE x IS 1").is_err());
        assert!(parse("SELECT * FROM t WHERE x IN ()").is_err());
    }

    #[test]
    fn group_by_with_aggregates() {
        let c = paper_db();
        let rows = run_scored(
            "SELECT company, COUNT(*) AS n, SUM(funding) AS total \
             FROM Proposal GROUP BY company ORDER BY company",
            &c,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].0,
            vec![
                Value::text("MegaCorp"),
                Value::Int(1),
                Value::Real(5_000_000.0)
            ]
        );
        assert_eq!(rows[1].0[1], Value::Int(2));
        // Group confidence = P(∃ member): SkyCam = p02 ∨ p03.
        assert!((rows[1].1 - (0.3 + 0.4 - 0.12)).abs() < 1e-12);
    }

    #[test]
    fn global_aggregates_without_group_by() {
        let c = paper_db();
        let rows = run_scored(
            "SELECT COUNT(*) AS n, AVG(funding) AS a, MIN(funding) AS lo, MAX(funding) AS hi \
             FROM Proposal",
            &c,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0[0], Value::Int(3));
        assert_eq!(rows[0].0[2], Value::Real(800_000.0));
        assert_eq!(rows[0].0[3], Value::Real(5_000_000.0));
    }

    #[test]
    fn having_filters_groups() {
        let c = paper_db();
        let rows = run_scored(
            "SELECT company, COUNT(*) AS n FROM Proposal \
             GROUP BY company HAVING COUNT(*) > 1",
            &c,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0[0], Value::text("SkyCam"));
        // HAVING can also reference output names.
        let rows = run_scored(
            "SELECT company, COUNT(*) AS n FROM Proposal GROUP BY company HAVING n > 1",
            &c,
        );
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn aggregate_planning_errors() {
        let c = paper_db();
        let plan = |sql: &str| plan_query(&parse(sql).unwrap(), &c);
        // Non-grouped column in SELECT.
        assert!(plan("SELECT company, funding, COUNT(*) FROM Proposal GROUP BY company").is_err());
        // Aggregate in WHERE.
        assert!(plan("SELECT company FROM Proposal WHERE COUNT(*) > 1").is_err());
        // Arithmetic around an aggregate.
        assert!(plan("SELECT SUM(funding) + 1 FROM Proposal").is_err());
        // SELECT * with GROUP BY.
        assert!(plan("SELECT * FROM Proposal GROUP BY company").is_err());
        // HAVING aggregate not in the SELECT list.
        assert!(plan(
            "SELECT company, COUNT(*) FROM Proposal GROUP BY company HAVING SUM(funding) > 1"
        )
        .is_err());
        // Nested aggregate.
        assert!(plan("SELECT SUM(COUNT(*)) FROM Proposal").is_err());
        // GROUP BY an aggregate.
        assert!(plan("SELECT COUNT(*) FROM Proposal GROUP BY COUNT(*)").is_err());
    }

    #[test]
    fn count_is_still_a_valid_column_name() {
        let mut c = Catalog::new();
        c.create_table(
            "t",
            Schema::new(vec![Column::new("count", DataType::Int)]).unwrap(),
        )
        .unwrap();
        c.insert("t", vec![Value::Int(5)], 0.5).unwrap();
        let rows = run_scored("SELECT count FROM t WHERE count = 5", &c);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn order_by_and_limit() {
        let c = paper_db();
        let rows = run_scored(
            "SELECT company, funding FROM Proposal ORDER BY funding DESC",
            &c,
        );
        assert_eq!(rows[0].0[0], Value::text("MegaCorp"));
        assert_eq!(rows[2].0[1], Value::Real(800_000.0));
        let rows = run_scored(
            "SELECT company, funding FROM Proposal ORDER BY funding ASC LIMIT 2",
            &c,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0[1], Value::Real(800_000.0));
        // Multi-key: company ascending, funding descending within it.
        let rows = run_scored(
            "SELECT company, funding FROM Proposal ORDER BY company, funding DESC",
            &c,
        );
        assert_eq!(rows[0].0[0], Value::text("MegaCorp"));
        assert_eq!(rows[1].0[1], Value::Real(900_000.0));
        // LIMIT without ORDER BY.
        let rows = run_scored("SELECT company FROM Proposal LIMIT 1", &c);
        assert_eq!(rows.len(), 1);
        // ORDER BY over a UNION resolves against the output schema.
        let rows = run_scored(
            "SELECT company FROM Proposal UNION SELECT company FROM CompanyInfo \
             ORDER BY company DESC LIMIT 1",
            &c,
        );
        assert_eq!(rows[0].0[0], Value::text("SkyCam"));
        // Errors: bad key, bad limit.
        assert!(parse("SELECT * FROM t ORDER BY").is_err());
        assert!(parse("SELECT * FROM t LIMIT -1").is_err());
        assert!(plan_query(
            &parse("SELECT company FROM Proposal ORDER BY nope").unwrap(),
            &c
        )
        .is_err());
    }

    #[test]
    fn literal_rows_fold_arithmetic_and_reject_columns() {
        use crate::ast::Expr;
        let row = vec![
            Expr::Int(1),
            Expr::Binary {
                op: crate::ast::BinOp::Mul,
                left: Box::new(Expr::Int(6)),
                right: Box::new(Expr::Int(7)),
            },
            Expr::Str("x".into()),
            Expr::Neg(Box::new(Expr::Real(2.5))),
        ];
        let values = literal_row(&row).unwrap();
        assert_eq!(
            values,
            vec![
                Value::Int(1),
                Value::Int(42),
                Value::text("x"),
                Value::Real(-2.5)
            ]
        );
        let column = Expr::Column {
            qualifier: None,
            name: "oops".into(),
        };
        assert!(literal_row(&[column]).is_err());
    }

    #[test]
    fn computed_projection_items() {
        let c = paper_db();
        let rows = run_scored(
            "SELECT funding / 1000.0 AS funding_k FROM Proposal WHERE company = 'MegaCorp'",
            &c,
        );
        assert_eq!(rows[0].0[0], Value::Real(5000.0));
    }
}
