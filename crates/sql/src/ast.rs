//! Abstract syntax tree for the SQL subset.

use pcqe_storage::DataType;

/// A complete statement: a query, DDL/DML, or `EXPLAIN` of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` (possibly with set operators).
    Query(Query),
    /// `EXPLAIN [ANALYZE] query`.
    Explain {
        /// `ANALYZE` was given: run the plan and annotate it.
        analyze: bool,
        /// The explained query.
        query: Query,
    },
    /// `CREATE TABLE name (col TYPE, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `CREATE INDEX ON table (column)`: unnamed, at most one per column.
    CreateIndex {
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `INSERT INTO name VALUES (…), … [WITH CONFIDENCE c]`.
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Expr>>,
        /// Per-row confidence; defaults to `1.0` when omitted.
        confidence: Option<f64>,
    },
}

/// One column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

/// A full query: one `SELECT` block optionally combined with others by set
/// operators (left-associative), optionally ordered and limited.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A plain `SELECT`.
    Select(Select),
    /// `left UNION right` (set semantics).
    Union(Box<Query>, Box<Query>),
    /// `left EXCEPT right` (set difference).
    Except(Box<Query>, Box<Query>),
    /// `query ORDER BY … [LIMIT n]` — keys resolve against the query's
    /// *output* schema, per SQL semantics.
    Ordered {
        /// The underlying query.
        input: Box<Query>,
        /// Sort keys in priority order (empty when only LIMIT was given).
        keys: Vec<OrderItem>,
        /// Optional row limit.
        limit: Option<usize>,
    },
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Key expression (resolved against the output schema).
    pub expr: Expr,
    /// `DESC` when true.
    pub descending: bool,
}

/// A `SELECT … FROM … [WHERE …] [GROUP BY …] [HAVING …]` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `DISTINCT` merges duplicate rows (OR-lineage); plain `SELECT` keeps
    /// bag semantics.
    pub distinct: bool,
    /// The projection list; empty means `*`.
    pub items: Vec<SelectItem>,
    /// First table plus any comma-separated cross-product tables.
    pub from: Vec<TableRef>,
    /// `JOIN … ON …` clauses applied left-to-right after `from[0]`.
    pub joins: Vec<JoinClause>,
    /// Optional `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` key expressions (empty = no grouping unless an
    /// aggregate appears in the projection).
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate, resolved against the aggregate output columns.
    pub having: Option<Expr>,
}

/// One projection item: an expression and an optional output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Output column name, if given with `AS`.
    pub alias: Option<String>,
}

/// A base-table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias, if given.
    pub alias: Option<String>,
}

/// One `JOIN table ON predicate` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The join predicate.
    pub on: Expr,
}

/// Binary operators in the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `LIKE`
    Like,
}

/// An expression in the surface syntax (names not yet resolved).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified (`t.x`).
    Column {
        /// Table qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `NULL`.
    Null,
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Aggregate call: `COUNT(*)` has no argument, everything else does.
    /// Only valid as a top-level projection item or inside `HAVING`.
    Agg {
        /// The aggregate function.
        func: pcqe_algebra::plan::AggFunc,
        /// The argument; `None` only for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// A default output name for unaliased projection items: the bare
    /// column name for column references, the lower-cased function name
    /// for aggregates, `expr` otherwise.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Agg { func, .. } => func.name().to_ascii_lowercase(),
            _ => "expr".to_owned(),
        }
    }

    /// Does the expression contain an aggregate call anywhere?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) | Expr::Neg(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_names() {
        let column = Expr::Column {
            qualifier: Some("t".into()),
            name: "x".into(),
        };
        assert_eq!(column.default_name(), "x");
        assert_eq!(Expr::Int(1).default_name(), "expr");
    }
}
