//! Confidence-carrying tables: a row store, and beside it what lets a
//! reader avoid walking it — equality indexes for point lookups and a
//! typed image of every `REAL` column ([`crate::image`]) for range
//! scans. Both are maintained by `Table::push_row`, the single funnel of
//! every insert path, so neither can fall out of step with the rows.

use crate::confidence::Confidence;
use crate::error::StorageError;
use crate::image::Image;
use crate::index::{check_indexable, EqualityIndex};
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};
use crate::value::DataType;
use crate::Result;

/// The row position of each tuple id. Lookup only: the map is never
/// iterated, so its order cannot reach a result.
#[expect(
    clippy::disallowed_types,
    reason = "lookup only: the map is never iterated, so its order cannot reach a result"
)]
type PositionById = std::collections::HashMap<TupleId, usize>;

/// A stored base tuple: id, values and its current confidence value.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTuple {
    /// Globally unique id, assigned at insert time.
    pub id: TupleId,
    /// The tuple's values.
    pub tuple: Tuple,
    /// The paper's `p` value for a base tuple.
    pub confidence: Confidence,
}

/// An in-memory table whose rows each carry a confidence value.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<StoredTuple>,
    by_id: PositionById,
    /// Smallest and largest id stored, kept by [`Table::push_row`]: an id
    /// outside the range is not here, and [`Table::row`] says so without
    /// hashing it — what a catalog-wide search by id pays per other table.
    id_range: Option<(TupleId, TupleId)>,
    /// Equality indexes, in creation order. Maintained incrementally by
    /// [`Table::push_row`], which every insert path funnels through
    /// (catalog insert, restore-with-id, CSV import).
    indexes: Vec<EqualityIndex>,
    /// The image of every `REAL` column, with the column's position: one
    /// slot per row, appended by [`Table::push_row`].
    images: Vec<(usize, Image)>,
}

impl Table {
    /// Create an empty table whose tuple ids the owning
    /// [`crate::Catalog`] allocates.
    pub(crate) fn catalog_managed(name: String, schema: Schema) -> Self {
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
            by_id: PositionById::new(),
            id_range: None,
            indexes: Vec::new(),
            images,
        }
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
}

impl StoredTuple {
    /// The confidence a raise to `confidence` leaves: the higher of the
    /// two — a raise never lowers.
    pub(crate) fn raised(&self, confidence: Confidence) -> Confidence {
        if confidence > self.confidence {
            confidence
        } else {
            self.confidence
        }
    }

    /// Raise the confidence to `confidence` if that is higher; returns
    /// the resulting confidence.
    pub(crate) fn raise_to(&mut self, confidence: Confidence) -> Confidence {
        self.confidence = self.raised(confidence);
        self.confidence
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::confidence::checked;
    use crate::schema::Column;
    use crate::value::Value;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("funding", DataType::Real),
        ])
        .unwrap();
        Table::catalog_managed("Proposal".into(), schema)
    }

    /// Check and store a row under the next id, as the catalog does.
    fn insert(t: &mut Table, values: Vec<Value>, confidence: f64) -> Result<TupleId> {
        let id = TupleId(t.len() as u64);
        t.insert_with_id(id, values, checked(confidence)?)
    }

    #[test]
    fn insert_validates_schema_and_confidence() {
        let mut t = table();
        assert!(insert(&mut t, vec![Value::Int(1), Value::Real(1.0)], 0.5).is_err());
        assert!(matches!(
            insert(&mut t, vec![Value::text("A"), Value::Real(1.0)], 1.5),
            Err(StorageError::InvalidConfidence(_))
        ));
        assert!(matches!(
            insert(&mut t, vec![Value::text("A"), Value::Real(1.0)], f64::NAN),
            Err(StorageError::InvalidConfidence(_))
        ));
        assert!(t.is_empty());
    }

    #[test]
    fn confidence_updates() {
        let mut t = table();
        let id = insert(&mut t, vec![Value::text("A"), Value::Real(1.0)], 0.4).unwrap();
        // a raise never lowers
        let c = |v| checked(v).unwrap();
        let row = t.row_mut(id).unwrap();
        assert_eq!(row.confidence, c(0.4));
        assert_eq!(row.raise_to(c(0.2)), c(0.4));
        assert_eq!(row.raise_to(c(0.9)), c(0.9));
        assert!(t.row_mut(TupleId(99)).is_none());
    }

    #[test]
    fn indexes_are_maintained_across_insert_paths() {
        let mut t = table();
        insert(&mut t, vec![Value::text("A"), Value::Real(1.0)], 0.5).unwrap();
        // Index created after the fact backfills existing rows...
        t.create_index(0).unwrap();
        // ...and subsequent inserts maintain it incrementally.
        insert(&mut t, vec![Value::text("B"), Value::Real(2.0)], 0.6).unwrap();
        insert(&mut t, vec![Value::text("A"), Value::Real(3.0)], 0.7).unwrap();
        insert(&mut t, vec![Value::Null, Value::Real(4.0)], 0.8).unwrap();
        let ix = t.index_on(0).unwrap();
        assert_eq!(ix.lookup(&Value::text("A")), &[0, 2]);
        assert_eq!(ix.lookup(&Value::text("B")), &[1]);
        assert_eq!(ix.lookup(&Value::Null), &[] as &[usize]);
        assert_eq!(ix.null_rows(), &[3]);
        // Re-creating is a no-op, not an error.
        t.create_index(0).unwrap();
        assert_eq!(t.indexes().len(), 1);
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
}
