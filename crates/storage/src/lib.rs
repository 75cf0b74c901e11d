//! In-memory relational storage substrate for PCQE.
//!
//! The paper assumes a relational DBMS in which every base tuple carries a
//! confidence value in `[0, 1]` (Section 3.2, "confidence assignment").
//! This crate provides that substrate: typed [`Value`]s, [`Schema`]s,
//! confidence-carrying [`Table`]s, and a [`Catalog`] that hands out globally
//! unique [`TupleId`]s used as lineage variables by the query evaluator.
//!
//! # Example
//!
//! ```
//! use pcqe_storage::{Catalog, Column, DataType, Schema, Value};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![
//!     Column::new("company", DataType::Text),
//!     Column::new("income", DataType::Real),
//! ]).unwrap();
//! catalog.create_table("CompanyInfo", schema).unwrap();
//! let id = catalog
//!     .insert(
//!         "CompanyInfo",
//!         vec![Value::text("SkyHigh"), Value::Real(800_000.0)],
//!         0.7,
//!     )
//!     .unwrap();
//! assert_eq!(catalog.confidence(id), Some(0.7));
//! ```

pub mod catalog;
pub mod csv;
pub mod error;
pub mod image;
pub mod index;
pub mod partition;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use catalog::Catalog;
pub use error::StorageError;
pub use image::Image;
pub use index::EqualityIndex;
pub use partition::{morsel_count, morsel_rows, partition_count, partition_of, stable_hash};
pub use schema::{Column, Schema};
pub use stats::{ColumnStats, TableStats};
pub use table::{StoredTuple, Table};
pub use tuple::{Tuple, TupleId};
pub use value::{real_cmp, DataType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
