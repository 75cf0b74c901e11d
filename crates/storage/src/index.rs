//! Deterministic equality indexes over table columns.
//!
//! An [`EqualityIndex`] maps a column value to the *positions* (in insertion
//! order) of the rows that carry it. It serves two operators: an index
//! scan answers `column = literal` with one lookup, and an index join
//! answers an equi-join whose build side is the whole table with one
//! lookup per probing row — the index is the key-sorted table a hash join
//! would otherwise build from a scan on every query. Two properties make
//! it safe for the physical planner to substitute either for the scan it
//! replaces:
//!
//! 1. **Determinism** — the index is a `BTreeMap` keyed by [`Value`]'s total
//!    order and each posting list is appended in insertion order, so a lookup
//!    yields row positions in exactly the order a sequential scan would visit
//!    them — also the order a hash join lists one key's build rows in.
//!    Index scans and index joins therefore produce bit-identical output
//!    order.
//! 2. **Exactness** — only [`DataType::Int`], [`DataType::Text`] and
//!    [`DataType::Bool`] columns are indexable. For those types `Value`'s
//!    `Ord` agrees with SQL equality (`sql_cmp`); `REAL` columns are refused
//!    because SQL coerces `INT = REAL` and treats `0.0 = -0.0` while the map
//!    key order distinguishes bit patterns. `NULL` values are never entered
//!    into the map: SQL equality on `NULL` is never true, so a `NULL` key
//!    can never match an equality predicate or an equi-join key. Their
//!    positions are kept beside it ([`EqualityIndex::null_rows`]): on a
//!    `NULL` an equality is unknown, not false, so a scan whose predicate
//!    goes on behind the equality may not pass those rows over.

use crate::error::StorageError;
use crate::value::{DataType, Value};
use crate::Result;
use std::collections::BTreeMap;

/// True if a column of type `ty` may carry an equality index.
///
/// See the module docs for why `REAL` (and therefore `NULL`-only) columns
/// are excluded.
pub fn indexable(ty: DataType) -> bool {
    matches!(ty, DataType::Int | DataType::Text | DataType::Bool)
}

/// A deterministic equality index over one column of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualityIndex {
    column: usize,
    map: BTreeMap<Value, Vec<usize>>,
    /// Positions of the rows whose indexed column is `NULL`, in insertion
    /// order.
    nulls: Vec<usize>,
}

impl EqualityIndex {
    /// Create an empty index over column `column`.
    pub(crate) fn new(column: usize) -> Self {
        EqualityIndex {
            column,
            map: BTreeMap::new(),
            nulls: Vec::new(),
        }
    }

    /// The indexed column's position in the table schema.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Record that the row at position `pos` carries `value` in the indexed
    /// column. `NULL` values are listed apart, not entered (they can never
    /// satisfy an equality predicate).
    pub(crate) fn add(&mut self, pos: usize, value: &Value) {
        if value.is_null() {
            self.nulls.push(pos);
            return;
        }
        self.map.entry(value.clone()).or_default().push(pos);
    }

    /// Row positions whose indexed column equals `key`, in insertion order.
    ///
    /// A `NULL` key matches nothing, mirroring SQL equality.
    pub fn lookup(&self, key: &Value) -> &[usize] {
        if key.is_null() {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row positions whose indexed column is `NULL`, in insertion order:
    /// the rows no [`EqualityIndex::lookup`] lists although `column = key`
    /// is not false on them.
    pub fn null_rows(&self) -> &[usize] {
        &self.nulls
    }
}

/// Validate that `column` (named `name`, typed `ty`) may be indexed.
pub(crate) fn check_indexable(name: &str, ty: DataType) -> Result<()> {
    if !indexable(ty) {
        return Err(StorageError::NotIndexable {
            column: name.to_owned(),
            data_type: ty,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexable_types_exclude_real() {
        assert!(indexable(DataType::Int));
        assert!(indexable(DataType::Text));
        assert!(indexable(DataType::Bool));
        assert!(!indexable(DataType::Real));
    }

    #[test]
    fn postings_preserve_insertion_order() {
        let mut ix = EqualityIndex::new(0);
        ix.add(0, &Value::Int(7));
        ix.add(1, &Value::Int(3));
        ix.add(2, &Value::Int(7));
        ix.add(3, &Value::Null);
        ix.add(4, &Value::Int(7));
        assert_eq!(ix.lookup(&Value::Int(7)), &[0, 2, 4]);
        assert_eq!(ix.lookup(&Value::Int(3)), &[1]);
        assert_eq!(ix.lookup(&Value::Int(9)), &[] as &[usize]);
        assert_eq!(ix.lookup(&Value::Null), &[] as &[usize]);
        assert_eq!(ix.null_rows(), &[3]);
        assert_eq!(ix.map.len(), 2);
    }
}
