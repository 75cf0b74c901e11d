//! Physical operator trees.
//!
//! A [`PhysicalPlan`] is what actually runs: every node names a concrete
//! algorithm (index join vs hash join vs nested loop, index scan vs table
//! scan) and carries its pushed-down predicates explicitly. Logical
//! [`Plan`]s are
//! lowered to physical plans by [`crate::physical::planner::lower`].
//!
//! The rendering contract mirrors the logical side: [`fmt::Display`] is a
//! 2-space-indented pre-order tree, one line per node, each line exactly
//! [`PhysicalPlan::node_label`] — so `EXPLAIN ANALYZE` output can zip a
//! profile against the plan text line-for-line.

use crate::expr::ScalarExpr;
use crate::plan::{
    aggregate_schema, project_schema, set_operation_schema, AggItem, Plan, ProjItem, SortKey,
};
use crate::Result;
use pcqe_storage::{Catalog, Schema, Value};
use std::fmt;

/// A physical query plan: concrete operators with explicit access paths,
/// join strategies and pushed-down predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Sequential scan of a base table, with an optional pushed-down
    /// residual predicate applied to every row.
    TableScan {
        /// Table name in the catalog.
        table: String,
        /// Alias qualifying the output columns.
        alias: Option<String>,
        /// Pushed-down filter evaluated per row (`None` = keep all).
        residual: Option<ScalarExpr>,
    },
    /// Equality-index lookup: a scan whose candidates are the rows whose
    /// indexed column equals `key` (with a residual, also those where it
    /// is NULL), in insertion order, the residual applied to each.
    IndexScan {
        /// Table name in the catalog.
        table: String,
        /// Alias qualifying the output columns.
        alias: Option<String>,
        /// Indexed column position in the table schema.
        column: usize,
        /// Column name (for rendering).
        column_name: String,
        /// The equality key. Never `NULL`; its type matches the column
        /// exactly, so index equality agrees with SQL `=`.
        key: Value,
        /// The whole pushed-down predicate, key conjunct included, applied
        /// per candidate row; `None` when the key conjunct is all of it.
        residual: Option<ScalarExpr>,
    },
    /// σ over an arbitrary input.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Boolean predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// Π — compute output columns; `distinct` OR-merges duplicates.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Output columns.
        items: Vec<ProjItem>,
        /// Whether to deduplicate (OR-merging lineage).
        distinct: bool,
    },
    /// Hash join: build an ordered map over the right input's key columns,
    /// probe with the left input in order. `keys` are `(left column,
    /// right column)` pairs with right columns numbered in the combined
    /// schema (as in the join predicate).
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// Right (build) input.
        right: Box<PhysicalPlan>,
        /// Equality key pairs `(left col, combined-schema right col)`.
        keys: Vec<(usize, usize)>,
        /// Non-equality conjuncts checked per candidate match.
        residual: Option<ScalarExpr>,
    },
    /// Index join: a hash join whose build side is a whole base table that
    /// already keeps an [`pcqe_storage::EqualityIndex`] on one of the key
    /// columns. Nothing is scanned, tagged or sorted per query: each left
    /// row probes the index and fetches its matches from the table's row
    /// store, in insertion order. The table is not a child operator — the
    /// node's single input is `left` — and its schema (qualified by
    /// `alias`) follows the left schema, as the build side's would.
    IndexJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// The build-side table, read whole (no pushed-down predicate).
        table: String,
        /// Alias qualifying the table's output columns.
        alias: Option<String>,
        /// Indexed column position in the table schema: the right column
        /// of the key pair the index answers.
        column: usize,
        /// Column name (for rendering).
        column_name: String,
        /// Equality key pairs `(left col, combined-schema right col)`, as
        /// in [`PhysicalPlan::HashJoin`]; the first pair whose right
        /// column is `column` probes the index, the others are compared
        /// per fetched row.
        keys: Vec<(usize, usize)>,
        /// Non-equality conjuncts checked per candidate match.
        residual: Option<ScalarExpr>,
    },
    /// Nested-loop join; `predicate: None` is a cartesian product.
    NestedLoopJoin {
        /// Left (outer) input.
        left: Box<PhysicalPlan>,
        /// Right (inner) input.
        right: Box<PhysicalPlan>,
        /// Join predicate over the combined schema; `None` = cross join.
        predicate: Option<ScalarExpr>,
    },
    /// ∪ — set union (duplicates merge, lineage ORs).
    Union {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// − — set difference (`l ∧ ¬(r₁ ∨ …)` lineage).
    Difference {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Stable sort by a sequence of keys.
    Sort {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Sort keys, applied in order.
        keys: Vec<SortKey>,
    },
    /// Keep only the first `count` rows.
    Limit {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Maximum number of rows.
        count: usize,
    },
    /// γ — grouping and aggregation (same semantics as the logical node).
    Aggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Group-key expressions (empty = one global group).
        group_by: Vec<ProjItem>,
        /// Aggregates over the input schema.
        aggregates: Vec<AggItem>,
    },
}

impl PhysicalPlan {
    /// The plan's output schema against a catalog. Mirrors
    /// [`Plan::schema`]: physical lowering never changes the schema of the
    /// logical node it implements.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        // A base table's schema, qualified by its alias or its own name.
        let table_schema = |table: &str, alias: &Option<String>| -> Result<Schema> {
            let qualifier = alias.as_deref().unwrap_or(table);
            Ok(catalog.table(table)?.schema().with_qualifier(qualifier))
        };
        match self {
            PhysicalPlan::TableScan { table, alias, .. }
            | PhysicalPlan::IndexScan { table, alias, .. } => table_schema(table, alias),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.schema(catalog),
            PhysicalPlan::Project { input, items, .. } => {
                project_schema(&input.schema(catalog)?, items)
            }
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                Ok(left.schema(catalog)?.join(&right.schema(catalog)?))
            }
            PhysicalPlan::IndexJoin {
                left, table, alias, ..
            } => Ok(left.schema(catalog)?.join(&table_schema(table, alias)?)),
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => aggregate_schema(&input.schema(catalog)?, group_by, aggregates),
            PhysicalPlan::Union { left, right } | PhysicalPlan::Difference { left, right } => {
                set_operation_schema(left.schema(catalog)?, &right.schema(catalog)?)
            }
        }
    }

    /// The one-line label this node renders in [`fmt::Display`], exposing
    /// the access path, join strategy and pushed-down predicates. The
    /// physical profiler tags each operator with exactly this string, so
    /// physical `EXPLAIN ANALYZE` lines up with `EXPLAIN` by construction.
    pub fn node_label(&self) -> String {
        fn filter_suffix(residual: &Option<ScalarExpr>) -> String {
            match residual {
                Some(p) => format!(" [filter: {p}]"),
                None => String::new(),
            }
        }
        fn aliased(table: &str, alias: &Option<String>) -> String {
            match alias {
                Some(a) => format!("{table} AS {a}"),
                None => table.to_owned(),
            }
        }
        fn key_pairs(keys: &[(usize, usize)]) -> String {
            let pairs: Vec<String> = keys.iter().map(|(l, r)| format!("#{l} = #{r}")).collect();
            pairs.join(" AND ")
        }
        match self {
            PhysicalPlan::TableScan {
                table,
                alias,
                residual,
            } => {
                let name = aliased(table, alias);
                format!("TableScan {name}{}", filter_suffix(residual))
            }
            PhysicalPlan::IndexScan {
                table,
                alias,
                column_name,
                key,
                residual,
                ..
            } => {
                let name = aliased(table, alias);
                let key = ScalarExpr::Literal(key.clone());
                format!(
                    "IndexScan {name} ({column_name} = {key}){}",
                    filter_suffix(residual)
                )
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter [{predicate}]"),
            PhysicalPlan::Project {
                items, distinct, ..
            } => {
                let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
                format!(
                    "Project{} [{}]",
                    if *distinct { " DISTINCT" } else { "" },
                    names.join(", ")
                )
            }
            PhysicalPlan::HashJoin { keys, residual, .. } => {
                format!("HashJoin [{}]{}", key_pairs(keys), filter_suffix(residual))
            }
            PhysicalPlan::IndexJoin {
                table,
                alias,
                column_name,
                keys,
                residual,
                ..
            } => format!(
                "IndexJoin {} ({column_name}) [{}]{}",
                aliased(table, alias),
                key_pairs(keys),
                filter_suffix(residual)
            ),
            PhysicalPlan::NestedLoopJoin { predicate, .. } => match predicate {
                Some(p) => format!("NestedLoopJoin [{p}]"),
                None => "NestedLoopJoin (cross)".to_owned(),
            },
            PhysicalPlan::Union { .. } => "Union".to_owned(),
            PhysicalPlan::Difference { .. } => "Difference".to_owned(),
            PhysicalPlan::Sort { keys, .. } => format!("Sort ({} key(s))", keys.len()),
            PhysicalPlan::Limit { count, .. } => format!("Limit {count}"),
            PhysicalPlan::Aggregate {
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

    /// The node's inputs, left-to-right (empty for scans).
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::TableScan { .. } | PhysicalPlan::IndexScan { .. } => Vec::new(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::IndexJoin { left: input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::Union { left, right }
            | PhysicalPlan::Difference { left, right } => vec![left, right],
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn indent(f: &mut fmt::Formatter<'_>, plan: &PhysicalPlan, depth: usize) -> fmt::Result {
            writeln!(f, "{}{}", "  ".repeat(depth), plan.node_label())?;
            for child in plan.children() {
                indent(f, child, depth + 1)?;
            }
            Ok(())
        }
        indent(f, self, 0)
    }
}

/// Render a logical and a physical plan side by side, line-aligned at the
/// top: the shell's `.plan` output. The left column is padded to the
/// longest logical line.
pub fn render_side_by_side(logical: &Plan, physical: &PhysicalPlan) -> String {
    let left: Vec<String> = logical.to_string().lines().map(str::to_owned).collect();
    let right: Vec<String> = physical.to_string().lines().map(str::to_owned).collect();
    let width = left.iter().map(String::len).max().unwrap_or(0).max(12);
    let mut out = String::new();
    out.push_str(&format!("{:<width$} | {}\n", "LOGICAL", "PHYSICAL"));
    out.push_str(&format!("{:-<width$}-+-{:-<width$}\n", "", ""));
    for i in 0..left.len().max(right.len()) {
        let l = left.get(i).map(String::as_str).unwrap_or("");
        let r = right.get(i).map(String::as_str).unwrap_or("");
        out.push_str(&format!("{l:<width$} | {r}\n"));
    }
    out
}
