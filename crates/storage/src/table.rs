//! Confidence-carrying tables: a row store, and beside it what lets a
//! reader avoid walking it — equality indexes for point lookups and a
//! typed image of every `REAL` column ([`crate::image`]) for range
//! scans. Both are maintained by `Table::push_row`, the single funnel of
//! every insert path, so neither can fall out of step with the rows.

use crate::error::StorageError;
use crate::image::Image;
use crate::index::{check_indexable, EqualityIndex};
use crate::schema::Schema;
use crate::stats::{ColumnStats, TableStats};
use crate::tuple::{Tuple, TupleId};
use crate::value::{DataType, Value};
use crate::Result;
use std::collections::HashMap;

/// A stored base tuple: id, values and its current confidence value.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTuple {
    /// Globally unique id, assigned at insert time.
    pub id: TupleId,
    /// The tuple's values.
    pub tuple: Tuple,
    /// Confidence in `[0, 1]` (the paper's `p` value for a base tuple).
    pub confidence: f64,
}

/// An in-memory table whose rows each carry a confidence value.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<StoredTuple>,
    by_id: HashMap<TupleId, usize>,
    /// Smallest and largest id stored, kept by [`Table::push_row`]: an id
    /// outside the range is not here, and [`Table::row`] says so without
    /// hashing it — what a catalog-wide search by id pays per other table.
    id_range: Option<(TupleId, TupleId)>,
    /// Equality indexes, in creation order. Maintained incrementally by
    /// [`Table::push_row`], which every insert path funnels through
    /// (catalog insert, restore-with-id, standalone insert, CSV import).
    indexes: Vec<EqualityIndex>,
    /// The image of every `REAL` column, with the column's position: one
    /// slot per row, appended by [`Table::push_row`].
    images: Vec<(usize, Image)>,
    /// Id allocator for standalone tables; `None` when the owning
    /// [`crate::Catalog`] allocates ids.
    ids: Option<IdSeq>,
}

#[derive(Debug, Clone)]
struct IdSeq {
    base: u64,
    stride: u64,
    next: u64,
}

/// Validate a confidence value: finite and within `[0, 1]`.
pub(crate) fn check_confidence(c: f64) -> Result<()> {
    if !c.is_finite() || !(0.0..=1.0).contains(&c) {
        return Err(StorageError::InvalidConfidence(c));
    }
    Ok(())
}

impl Table {
    /// Create an empty table. `ids` controls whether the table allocates its
    /// own tuple ids (`Some`) or leaves allocation to a [`crate::Catalog`]
    /// (`None`).
    fn with_ids(name: String, schema: Schema, ids: Option<IdSeq>) -> Self {
        let images = schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, column)| column.data_type == DataType::Real)
            .map(|(c, _)| (c, Image::default()))
            .collect();
        Table {
            name,
            schema,
            rows: Vec::new(),
            by_id: HashMap::new(),
            id_range: None,
            indexes: Vec::new(),
            images,
            ids,
        }
    }

    /// Create a catalog-managed table (ids supplied externally).
    pub(crate) fn catalog_managed(name: String, schema: Schema) -> Self {
        Table::with_ids(name, schema, None)
    }

    /// Create a standalone table (ids count up from zero). Prefer creating
    /// tables through a [`crate::Catalog`] so ids stay globally unique.
    pub fn standalone(name: impl Into<String>, schema: Schema) -> Self {
        Table::with_ids(
            name.into(),
            schema,
            Some(IdSeq {
                base: 0,
                stride: 1,
                next: 0,
            }),
        )
    }

    /// Create a standalone table whose ids follow `base + i * stride`,
    /// letting multiple standalone tables keep disjoint id spaces.
    pub fn standalone_strided(
        name: impl Into<String>,
        schema: Schema,
        base: u64,
        stride: u64,
    ) -> Self {
        Table::with_ids(
            name.into(),
            schema,
            Some(IdSeq {
                base,
                stride: stride.max(1),
                next: 0,
            }),
        )
    }

    /// Append a validated row, maintaining the id index, every equality
    /// index and every column image. This is the single funnel for all
    /// insert paths, so none of them can go stale.
    pub(crate) fn push_row(&mut self, row: StoredTuple) {
        debug_assert!(
            !self.by_id.contains_key(&row.id),
            "duplicate tuple id {}",
            row.id
        );
        let pos = self.rows.len();
        for ix in &mut self.indexes {
            if let Some(v) = row.tuple.get(ix.column()) {
                ix.add(pos, v);
            }
        }
        for (column, image) in &mut self.images {
            if let Some(v) = row.tuple.get(*column) {
                image.push(v);
            }
        }
        self.by_id.insert(row.id, pos);
        let (lo, hi) = self.id_range.unwrap_or((row.id, row.id));
        self.id_range = Some((lo.min(row.id), hi.max(row.id)));
        self.rows.push(row);
    }

    /// Create an equality index on the column at position `column`,
    /// backfilling it from all existing rows. Idempotent: re-creating an
    /// existing index is a no-op. Only `INT`, `TEXT` and `BOOL` columns are
    /// indexable (see [`crate::index`] for why `REAL` is refused).
    pub fn create_index(&mut self, column: usize) -> Result<()> {
        let col = self
            .schema
            .columns()
            .get(column)
            .ok_or(StorageError::ColumnIndexOutOfRange(column))?;
        check_indexable(&col.display_name(), col.data_type)?;
        if self.index_on(column).is_some() {
            return Ok(());
        }
        let mut ix = EqualityIndex::new(column);
        for (pos, row) in self.rows.iter().enumerate() {
            if let Some(v) = row.tuple.get(column) {
                ix.add(pos, v);
            }
        }
        self.indexes.push(ix);
        Ok(())
    }

    /// The equality index on `column`, if one exists.
    pub fn index_on(&self, column: usize) -> Option<&EqualityIndex> {
        self.indexes.iter().find(|ix| ix.column() == column)
    }

    /// All equality indexes, in creation order.
    pub fn indexes(&self) -> &[EqualityIndex] {
        &self.indexes
    }

    /// The image of the column at position `column`: `Some` for a `REAL`
    /// column, one slot per row.
    pub fn image(&self, column: usize) -> Option<&Image> {
        let (_, image) = self.images.iter().find(|(c, _)| *c == column)?;
        Some(image)
    }

    /// Current statistics: cardinality plus NDV for each indexed column.
    pub fn stats(&self) -> TableStats {
        TableStats {
            row_count: self.rows.len(),
            columns: self
                .indexes
                .iter()
                .map(|ix| ColumnStats {
                    column: ix.column(),
                    distinct_keys: ix.distinct_keys(),
                })
                .collect(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a row with the given confidence, returning its new id.
    ///
    /// Only standalone tables may allocate their own ids; rows of
    /// catalog-managed tables must be inserted through
    /// [`crate::Catalog::insert`] so ids stay globally unique.
    pub fn insert(&mut self, values: Vec<Value>, confidence: f64) -> Result<TupleId> {
        self.check_insert(&values, confidence)?;
        let seq = self
            .ids
            .as_mut()
            .ok_or_else(|| StorageError::CatalogManagedTable(self.name.clone()))?;
        let id = TupleId(seq.base + seq.next * seq.stride);
        seq.next += 1;
        self.push_row(StoredTuple {
            id,
            tuple: Tuple::new(values),
            confidence,
        });
        Ok(id)
    }

    /// Whether a row with these values and this confidence may be stored
    /// here — the one statement of what every insert path checks.
    pub(crate) fn check_insert(&self, values: &[Value], confidence: f64) -> Result<()> {
        self.schema.check_row(values)?;
        check_confidence(confidence)
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[StoredTuple] {
        &self.rows
    }

    /// Where the row with this id is stored, if it is stored here.
    fn position(&self, id: TupleId) -> Option<usize> {
        let (lo, hi) = self.id_range?;
        if id < lo || hi < id {
            return None;
        }
        self.by_id.get(&id).copied()
    }

    /// Look up a row by id.
    pub fn row(&self, id: TupleId) -> Option<&StoredTuple> {
        self.rows.get(self.position(id)?)
    }

    /// The row with this id, to change its confidence — its values feed
    /// the indexes and images and are not to be written through this.
    pub(crate) fn row_mut(&mut self, id: TupleId) -> Option<&mut StoredTuple> {
        let at = self.position(id)?;
        self.rows.get_mut(at)
    }

    /// Current confidence of a tuple, if it exists.
    pub fn confidence(&self, id: TupleId) -> Option<f64> {
        self.row(id).map(|r| r.confidence)
    }

    /// Set a tuple's confidence (the "data quality improvement" action).
    pub fn set_confidence(&mut self, id: TupleId, confidence: f64) -> Result<()> {
        check_confidence(confidence)?;
        let row = self.row_mut(id).ok_or(StorageError::UnknownTuple(id.0))?;
        row.confidence = confidence;
        Ok(())
    }

    /// Raise a tuple's confidence to `confidence` if that is higher than the
    /// current value; never lowers it. Returns the resulting confidence.
    pub fn raise_confidence(&mut self, id: TupleId, confidence: f64) -> Result<f64> {
        check_confidence(confidence)?;
        let row = self.row_mut(id).ok_or(StorageError::UnknownTuple(id.0))?;
        Ok(row.raise_to(confidence))
    }
}

impl StoredTuple {
    /// The confidence a raise to a checked `confidence` leaves: the
    /// higher of the two — a raise never lowers.
    pub(crate) fn raised(&self, confidence: f64) -> f64 {
        if confidence > self.confidence {
            confidence
        } else {
            self.confidence
        }
    }

    /// Raise the confidence to a checked `confidence` if that is higher;
    /// returns the resulting confidence.
    pub(crate) fn raise_to(&mut self, confidence: f64) -> f64 {
        self.confidence = self.raised(confidence);
        self.confidence
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::schema::Column;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("funding", DataType::Real),
        ])
        .unwrap();
        Table::standalone("Proposal", schema)
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut t = table();
        let a = t
            .insert(vec![Value::text("A"), Value::Real(1.0)], 0.5)
            .unwrap();
        let b = t
            .insert(vec![Value::text("B"), Value::Real(2.0)], 0.6)
            .unwrap();
        assert_eq!(a, TupleId(0));
        assert_eq!(b, TupleId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(b).unwrap().tuple.get(0), Some(&Value::text("B")));
    }

    #[test]
    fn insert_validates_schema_and_confidence() {
        let mut t = table();
        assert!(t
            .insert(vec![Value::Int(1), Value::Real(1.0)], 0.5)
            .is_err());
        assert!(matches!(
            t.insert(vec![Value::text("A"), Value::Real(1.0)], 1.5),
            Err(StorageError::InvalidConfidence(_))
        ));
        assert!(matches!(
            t.insert(vec![Value::text("A"), Value::Real(1.0)], f64::NAN),
            Err(StorageError::InvalidConfidence(_))
        ));
        assert!(t.is_empty());
    }

    #[test]
    fn confidence_updates() {
        let mut t = table();
        let id = t
            .insert(vec![Value::text("A"), Value::Real(1.0)], 0.3)
            .unwrap();
        t.set_confidence(id, 0.4).unwrap();
        assert_eq!(t.confidence(id), Some(0.4));
        // raise_confidence never lowers
        assert_eq!(t.raise_confidence(id, 0.2).unwrap(), 0.4);
        assert_eq!(t.raise_confidence(id, 0.9).unwrap(), 0.9);
        assert!(matches!(
            t.set_confidence(TupleId(99), 0.5),
            Err(StorageError::UnknownTuple(99))
        ));
    }

    #[test]
    fn strided_id_spaces_do_not_collide() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        let mut a = Table::standalone_strided("a", schema.clone(), 0, 2);
        let mut b = Table::standalone_strided("b", schema, 1, 2);
        let ia = a.insert(vec![Value::Int(1)], 0.1).unwrap();
        let ib = b.insert(vec![Value::Int(1)], 0.1).unwrap();
        assert_ne!(ia, ib);
        let ia2 = a.insert(vec![Value::Int(2)], 0.1).unwrap();
        assert_eq!(ia2, TupleId(2));
    }

    #[test]
    fn indexes_are_maintained_across_insert_paths() {
        let schema = Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("funding", DataType::Real),
        ])
        .unwrap();
        let mut t = Table::standalone("Proposal", schema);
        t.insert(vec![Value::text("A"), Value::Real(1.0)], 0.5)
            .unwrap();
        // Index created after the fact backfills existing rows...
        t.create_index(0).unwrap();
        // ...and subsequent inserts maintain it incrementally.
        t.insert(vec![Value::text("B"), Value::Real(2.0)], 0.6)
            .unwrap();
        t.insert(vec![Value::text("A"), Value::Real(3.0)], 0.7)
            .unwrap();
        t.insert(vec![Value::Null, Value::Real(4.0)], 0.8).unwrap();
        let ix = t.index_on(0).unwrap();
        assert_eq!(ix.lookup(&Value::text("A")), &[0, 2]);
        assert_eq!(ix.lookup(&Value::text("B")), &[1]);
        assert_eq!(ix.lookup(&Value::Null), &[] as &[usize]);
        assert_eq!(ix.distinct_keys(), 2);
        // Re-creating is a no-op, not an error.
        t.create_index(0).unwrap();
        assert_eq!(t.indexes().len(), 1);
        // Stats reflect the live table.
        let stats = t.stats();
        assert_eq!(stats.row_count, 4);
        assert_eq!(stats.distinct_keys(0), Some(2));
    }

    #[test]
    fn real_columns_refuse_indexes() {
        let mut t = table();
        assert!(matches!(
            t.create_index(1),
            Err(StorageError::NotIndexable { .. })
        ));
        assert!(matches!(
            t.create_index(9),
            Err(StorageError::ColumnIndexOutOfRange(9))
        ));
    }

    #[test]
    fn catalog_managed_tables_reject_direct_insert() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        let mut t = Table::catalog_managed("c".into(), schema);
        assert!(matches!(
            t.insert(vec![Value::Int(1)], 0.1),
            Err(StorageError::CatalogManagedTable(_))
        ));
    }
}
