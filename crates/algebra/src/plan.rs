//! Logical plans.

use crate::error::AlgebraError;
use crate::expr::ScalarExpr;
use crate::Result;
use pcqe_storage::{Catalog, Column, DataType, Schema};
use std::fmt;

/// One output column of a projection: an expression and its output name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjItem {
    /// The expression computing the column.
    pub expr: ScalarExpr,
    /// The output column name.
    pub name: String,
}

impl ProjItem {
    /// Projection item from an expression and a name.
    pub fn new(expr: ScalarExpr, name: impl Into<String>) -> Self {
        ProjItem {
            expr,
            name: name.into(),
        }
    }
}

/// A logical relational-algebra plan.
///
/// Column references inside predicates and projections are positional,
/// resolved against the input plan's schema (see [`Plan::schema`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a base table, optionally under an alias.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Alias qualifying the output columns (defaults to the table name).
        alias: Option<String>,
    },
    /// σ — keep rows satisfying the predicate.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// Π — compute output columns; `distinct` merges duplicates and ORs
    /// their lineage (the paper's set-semantic projection).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns.
        items: Vec<ProjItem>,
        /// Whether to deduplicate (OR-merging lineage).
        distinct: bool,
    },
    /// ⋈ — theta join; the predicate sees the concatenated schema.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join predicate over `left.schema ++ right.schema`.
        predicate: ScalarExpr,
    },
    /// × — cartesian product.
    Product {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// ∪ — set union (duplicates merge, lineage ORs).
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// − — set difference (`l ∧ ¬(r₁ ∨ …)` lineage).
    Difference {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Sort rows by a sequence of keys (lineage untouched).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, applied in order.
        keys: Vec<SortKey>,
    },
    /// Keep only the first `count` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum number of rows.
        count: usize,
    },
    /// γ — grouping and aggregation.
    ///
    /// Output columns are the group keys followed by the aggregates.
    /// Aggregate *values* are computed over the group's rows as if all of
    /// them were certain; each output row's lineage is the OR of its
    /// members' lineage, i.e. its confidence is the probability that the
    /// group is non-empty. (Full probabilistic aggregation — distributions
    /// over counts and sums — is out of scope, as it is for the paper.)
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-key expressions over the input schema (empty = one
        /// global group).
        group_by: Vec<ProjItem>,
        /// Aggregates over the input schema.
        aggregates: Vec<AggItem>,
    },
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`COUNT(*)` when the argument is absent, non-NULL count
    /// of the argument otherwise).
    Count,
    /// Numeric sum (NULLs skipped).
    Sum,
    /// Numeric average (NULLs skipped; NULL on empty).
    Avg,
    /// Minimum by SQL ordering (NULLs skipped; NULL on empty).
    Min,
    /// Maximum by SQL ordering (NULLs skipped; NULL on empty).
    Max,
}

impl AggFunc {
    /// SQL name of the function.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate output column.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// The function.
    pub func: AggFunc,
    /// Argument over the input schema; `None` only for `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    /// Output column name.
    pub name: String,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The key expression over the input schema.
    pub expr: ScalarExpr,
    /// Sort direction.
    pub descending: bool,
}

impl Plan {
    /// Scan a table under its own name.
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: None,
        }
    }

    /// Scan a table under an alias.
    pub fn scan_as(table: impl Into<String>, alias: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// Apply a selection.
    pub fn select(self, predicate: ScalarExpr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Apply a distinct (set-semantic) projection.
    pub fn project(self, items: Vec<ProjItem>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            items,
            distinct: true,
        }
    }

    /// Apply a bag-semantic projection (no dedup, lineage untouched).
    pub fn project_all(self, items: Vec<ProjItem>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            items,
            distinct: false,
        }
    }

    /// Join with another plan on a predicate.
    pub fn join(self, right: Plan, predicate: ScalarExpr) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            predicate,
        }
    }

    /// Cartesian product with another plan.
    pub fn product(self, right: Plan) -> Plan {
        Plan::Product {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Set union with another plan.
    pub fn union(self, right: Plan) -> Plan {
        Plan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Set difference with another plan.
    pub fn difference(self, right: Plan) -> Plan {
        Plan::Difference {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Sort by keys.
    pub fn sort(self, keys: Vec<SortKey>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// Keep the first `count` rows.
    pub fn limit(self, count: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            count,
        }
    }

    /// Group and aggregate.
    pub fn aggregate(self, group_by: Vec<ProjItem>, aggregates: Vec<AggItem>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by,
            aggregates,
        }
    }

    /// The plan's output schema against a catalog.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            Plan::Scan { table, alias } => {
                let t = catalog.table(table)?;
                let qualifier = alias.as_deref().unwrap_or(table);
                Ok(t.schema().with_qualifier(qualifier))
            }
            Plan::Select { input, .. } => input.schema(catalog),
            Plan::Project { input, items, .. } => project_schema(&input.schema(catalog)?, items),
            Plan::Join { left, right, .. } | Plan::Product { left, right } => {
                Ok(left.schema(catalog)?.join(&right.schema(catalog)?))
            }
            Plan::Sort { input, .. } | Plan::Limit { input, .. } => input.schema(catalog),
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => aggregate_schema(&input.schema(catalog)?, group_by, aggregates),
            Plan::Union { left, right } | Plan::Difference { left, right } => {
                set_operation_schema(left.schema(catalog)?, &right.schema(catalog)?)
            }
        }
    }
}

// The schema rules the logical and the physical plan share: lowering never
// changes the schema of the node it implements, so each is written once.

/// A projection's output: one column per item, typed by inference.
pub(crate) fn project_schema(input: &Schema, items: &[ProjItem]) -> Result<Schema> {
    let mut cols = Vec::with_capacity(items.len());
    for item in items {
        let dt = item.expr.infer_type(input)?;
        cols.push(Column::new(item.name.clone(), dt));
    }
    Schema::new(cols).map_err(AlgebraError::from)
}

/// An aggregation's output: the group keys, then one column per aggregate.
pub(crate) fn aggregate_schema(
    input: &Schema,
    group_by: &[ProjItem],
    aggregates: &[AggItem],
) -> Result<Schema> {
    let mut cols = Vec::with_capacity(group_by.len() + aggregates.len());
    for item in group_by {
        cols.push(Column::new(item.name.clone(), item.expr.infer_type(input)?));
    }
    for agg in aggregates {
        let dt = match (agg.func, &agg.arg) {
            (AggFunc::Count, _) => DataType::Int,
            (AggFunc::Avg, _) => DataType::Real,
            (AggFunc::Sum, Some(arg)) => match arg.infer_type(input)? {
                DataType::Int => DataType::Int,
                _ => DataType::Real,
            },
            (AggFunc::Min | AggFunc::Max, Some(arg)) => arg.infer_type(input)?,
            (f, None) => {
                return Err(AlgebraError::Type(format!(
                    "{} requires an argument",
                    f.name()
                )))
            }
        };
        cols.push(Column::new(agg.name.clone(), dt));
    }
    Schema::new(cols).map_err(AlgebraError::from)
}

/// A union's or difference's output: the left schema, which the right one
/// must match in arity and column types.
pub(crate) fn set_operation_schema(l: Schema, r: &Schema) -> Result<Schema> {
    if l.arity() != r.arity() {
        return Err(AlgebraError::SchemaMismatch(format!(
            "arity {} vs {}",
            l.arity(),
            r.arity()
        )));
    }
    for (a, b) in l.columns().iter().zip(r.columns()) {
        if a.data_type != b.data_type {
            return Err(AlgebraError::SchemaMismatch(format!(
                "column `{}` is {} on the left but {} on the right",
                a.name, a.data_type, b.data_type
            )));
        }
    }
    Ok(l)
}

impl Plan {
    /// The one-line label this node renders in [`fmt::Display`], without
    /// indentation: `"Scan Proposal"`, `"Project DISTINCT [company,
    /// income]"`, …
    pub fn node_label(&self) -> String {
        match self {
            Plan::Scan { table, alias } => match alias {
                Some(a) => format!("Scan {table} AS {a}"),
                None => format!("Scan {table}"),
            },
            Plan::Select { .. } => "Select".to_owned(),
            Plan::Project {
                items, distinct, ..
            } => {
                let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
                format!(
                    "Project{} [{}]",
                    if *distinct { " DISTINCT" } else { "" },
                    names.join(", ")
                )
            }
            Plan::Join { .. } => "Join".to_owned(),
            Plan::Product { .. } => "Product".to_owned(),
            Plan::Union { .. } => "Union".to_owned(),
            Plan::Difference { .. } => "Difference".to_owned(),
            Plan::Sort { keys, .. } => format!("Sort ({} key(s))", keys.len()),
            Plan::Limit { count, .. } => format!("Limit {count}"),
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let keys: Vec<&str> = group_by.iter().map(|g| g.name.as_str()).collect();
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| format!("{}({})", a.func.name(), a.name))
                    .collect();
                format!(
                    "Aggregate by [{}] computing [{}]",
                    keys.join(", "),
                    aggs.join(", ")
                )
            }
        }
    }

    /// The node's inputs, left-to-right (empty for `Scan`).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Aggregate { input, .. } => vec![input],
            Plan::Join { left, right, .. }
            | Plan::Product { left, right }
            | Plan::Union { left, right }
            | Plan::Difference { left, right } => vec![left, right],
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn indent(f: &mut fmt::Formatter<'_>, plan: &Plan, depth: usize) -> fmt::Result {
            writeln!(f, "{}{}", "  ".repeat(depth), plan.node_label())?;
            for child in plan.children() {
                indent(f, child, depth + 1)?;
            }
            Ok(())
        }
        indent(f, self, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_storage::{DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "t",
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("y", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "u",
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("z", DataType::Real),
            ])
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn scan_schema_is_qualified() {
        let c = catalog();
        let s = Plan::scan_as("t", "a").schema(&c).unwrap();
        assert!(s.resolve(Some("a"), "x").is_ok());
        assert!(s.resolve(Some("t"), "x").is_err());
    }

    #[test]
    fn join_schema_concatenates() {
        let c = catalog();
        let plan = Plan::scan("t").join(
            Plan::scan("u"),
            ScalarExpr::column(0).eq(ScalarExpr::column(2)),
        );
        let s = plan.schema(&c).unwrap();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.resolve(Some("u"), "z").unwrap(), 3);
    }

    #[test]
    fn project_schema_infers_types() {
        let c = catalog();
        let plan = Plan::scan("t").project(vec![ProjItem::new(
            ScalarExpr::column(0).add(ScalarExpr::literal(Value::Int(1))),
            "x1",
        )]);
        let s = plan.schema(&c).unwrap();
        assert_eq!(s.columns()[0].data_type, DataType::Int);
        assert_eq!(s.columns()[0].name, "x1");
    }

    #[test]
    fn union_requires_matching_schemas() {
        let c = catalog();
        let ok = Plan::scan("t")
            .project(vec![ProjItem::new(ScalarExpr::column(0), "x")])
            .union(Plan::scan("u").project(vec![ProjItem::new(ScalarExpr::column(0), "x")]));
        assert!(ok.schema(&c).is_ok());
        let bad = Plan::scan("t").union(Plan::scan("u"));
        assert!(matches!(
            bad.schema(&c),
            Err(AlgebraError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn display_renders_tree() {
        let plan = Plan::scan("t").select(ScalarExpr::literal(Value::Bool(true)));
        let text = plan.to_string();
        assert!(text.contains("Select"));
        assert!(text.contains("Scan t"));
    }
}
