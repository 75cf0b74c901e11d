//! SQL-subset front-end for PCQE.
//!
//! The paper's users "input query information in the form ⟨Q, pu, perc⟩,
//! where Q is a normal SQL query" (Section 3.2). This crate provides the
//! `Q` part: a hand-written tokenizer, a recursive-descent parser for a
//! practical subset of SQL, and a planner that lowers the AST onto the
//! lineage-propagating algebra of `pcqe-algebra`.
//!
//! Supported grammar (joins may be chained; `,` is a cross product;
//! [`parse`] reads a `query`, [`parse_statement`] a `statement`):
//!
//! ```text
//! statement := query | EXPLAIN [ANALYZE] query
//!            | CREATE TABLE name (name type, …) | CREATE INDEX ON table (column)
//!            | INSERT INTO table VALUES (expr, …), … [WITH CONFIDENCE number]
//! query     := select (UNION select | EXCEPT select)* [ORDER BY expr [ASC|DESC], …] [LIMIT n]
//! select    := SELECT [DISTINCT|ALL] items FROM ref ([INNER] JOIN ref ON expr | , ref)*
//!              [WHERE expr] [GROUP BY expr, …] [HAVING expr]
//! items     := * | expr [AS name] (, expr [AS name])*
//! ref       := table [[AS] alias]
//! ```
//!
//! ```
//! use pcqe_sql::parse_and_plan;
//! use pcqe_storage::{Catalog, Column, DataType, Schema, Value};
//! use pcqe_algebra::{execute_vectorized_with, lower};
//! use pcqe_par::Parallelism;
//!
//! let mut catalog = Catalog::new();
//! catalog.create_table("t", Schema::new(vec![
//!     Column::new("x", DataType::Int),
//! ]).unwrap()).unwrap();
//! catalog.insert("t", vec![Value::Int(3)], 0.9).unwrap();
//!
//! let plan = parse_and_plan("SELECT x FROM t WHERE x > 1", &catalog).unwrap();
//! let physical = lower(&plan, &catalog).unwrap();
//! let rows = execute_vectorized_with(&physical, &catalog, &Parallelism::sequential()).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod shape;

pub use ast::Statement;
pub use error::SqlError;
pub use parser::{parse, parse_statement};
pub use planner::{literal_row, plan_query};
pub use shape::{parse_sentinels, sentinel, sentinel_slot, Shape};

use pcqe_algebra::Plan;
use pcqe_storage::Catalog;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SqlError>;

/// Parse a SQL string and lower it to an executable plan in one call.
pub fn parse_and_plan(sql: &str, catalog: &Catalog) -> Result<Plan> {
    let query = parse(sql)?;
    plan_query(&query, catalog)
}
