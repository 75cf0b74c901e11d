//! The catalog: a named collection of tables with a global tuple-id space.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::{check_confidence, StoredTuple, Table};
use crate::tuple::TupleId;
use crate::value::Value;
use crate::Result;
use std::collections::BTreeMap;

/// A database catalog. Tables created through the catalog draw tuple ids
/// from a single global counter, so a [`TupleId`] unambiguously identifies
/// one base tuple across the whole database — exactly what lineage needs.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    next_id: u64,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Create a table. Fails if the name is taken (case-insensitive).
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.find(&name).is_some() {
            return Err(StorageError::TableExists(name));
        }
        // Tables created via the catalog don't use their own id sequence;
        // ids are handed out by `Catalog::insert`.
        let table = Table::catalog_managed(name.clone(), schema);
        self.tables.insert(name, table);
        Ok(())
    }

    /// The table a name denotes, ignoring ASCII case. Keys are compared
    /// where they lie: a lookup allocates nothing.
    fn find(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find_map(|(k, t)| k.eq_ignore_ascii_case(name).then_some(t))
    }

    /// Borrow a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.find(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Mutably borrow a table by name (case-insensitive).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .iter_mut()
            .find_map(|(k, t)| k.eq_ignore_ascii_case(name).then_some(t))
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Insert a row into `table`, allocating a globally unique tuple id.
    pub fn insert(&mut self, table: &str, values: Vec<Value>, confidence: f64) -> Result<TupleId> {
        check_confidence(confidence)?;
        let (id, next) = self.next_ids()?;
        let t = self.table_mut(table)?;
        t.insert_with_id(id, values, confidence)?;
        self.next_id = next;
        Ok(id)
    }

    /// Whether [`Catalog::insert`] would accept this row: the same checks
    /// in the same order, nothing written and no id taken — what lets a
    /// caller validate every row of a statement before the first one
    /// lands.
    pub fn check_insert(&self, table: &str, values: &[Value], confidence: f64) -> Result<()> {
        check_confidence(confidence)?;
        self.next_ids()?;
        self.table(table)?.check_insert(values, confidence)
    }

    /// The id the next insert gets and the counter after it. The counter
    /// never hands out `u64::MAX`: a restored tuple may hold it (see
    /// `insert_with_id`), and nothing would come after.
    fn next_ids(&self) -> Result<(TupleId, u64)> {
        let next = self
            .next_id
            .checked_add(1)
            .ok_or(StorageError::DuplicateTupleId(self.next_id))?;
        Ok((TupleId(self.next_id), next))
    }

    /// Insert a row with an explicit tuple id (used when restoring a
    /// persisted database, where lineage and cost functions reference the
    /// original ids). Fails if the id is already taken anywhere in the
    /// catalog; advances the id counter past `id`.
    pub fn insert_with_id(
        &mut self,
        table: &str,
        id: TupleId,
        values: Vec<Value>,
        confidence: f64,
    ) -> Result<TupleId> {
        if self.find_tuple(id).is_some() {
            return Err(StorageError::DuplicateTupleId(id.0));
        }
        check_confidence(confidence)?;
        let t = self.table_mut(table)?;
        t.insert_with_id(id, values, confidence)?;
        self.next_id = self.next_id.max(id.0.saturating_add(1));
        Ok(id)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Create an equality index on `table.column`, backfilling from existing
    /// rows. Returns the column's position. Idempotent per column.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<usize> {
        let t = self.table_mut(table)?;
        let pos = t.schema().resolve(None, column)?;
        t.create_index(pos)?;
        Ok(pos)
    }

    /// Find the base tuple with the given id, searching all tables — each
    /// asked once, and a table whose id range excludes `id` answers
    /// without a probe (see [`Table::row`]).
    pub fn find_tuple(&self, id: TupleId) -> Option<(&str, &StoredTuple)> {
        self.tables
            .values()
            .find_map(|t| t.row(id).map(|r| (t.name(), r)))
    }

    /// Current confidence of a base tuple, searching all tables.
    pub fn confidence(&self, id: TupleId) -> Option<f64> {
        self.find_tuple(id).map(|(_, r)| r.confidence)
    }

    /// What [`Catalog::raise_confidence`] would answer to this raise: the
    /// same checks in the same order and the confidence the tuple would
    /// end up with, nothing written — what lets a caller validate a whole
    /// batch of raises before the first one lands, or preview them.
    pub fn check_raise(&self, id: TupleId, confidence: f64) -> Result<f64> {
        let (_, row) = self
            .find_tuple(id)
            .ok_or(StorageError::UnknownTuple(id.0))?;
        check_confidence(confidence)?;
        Ok(row.raised(confidence))
    }

    /// Raise the confidence of a base tuple wherever it lives.
    pub fn raise_confidence(&mut self, id: TupleId, confidence: f64) -> Result<f64> {
        let row = self
            .tables
            .values_mut()
            .find_map(|t| t.row_mut(id))
            .ok_or(StorageError::UnknownTuple(id.0))?;
        check_confidence(confidence)?;
        Ok(row.raise_to(confidence))
    }

    /// Total number of base tuples across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

impl Table {
    /// Insert a row with an externally allocated id (catalog use).
    pub(crate) fn insert_with_id(
        &mut self,
        id: TupleId,
        values: Vec<Value>,
        confidence: f64,
    ) -> Result<TupleId> {
        self.check_insert(&values, confidence)?;
        self.push_row(StoredTuple {
            id,
            tuple: values.into(),
            confidence,
        });
        Ok(id)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "Proposal",
            Schema::new(vec![
                Column::new("company", DataType::Text),
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
        c
    }

    #[test]
    fn ids_are_global_across_tables() {
        let mut c = catalog();
        let a = c
            .insert("Proposal", vec![Value::text("A"), Value::Real(1.0)], 0.3)
            .unwrap();
        let b = c
            .insert("CompanyInfo", vec![Value::text("A"), Value::Real(2.0)], 0.4)
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(c.confidence(a), Some(0.3));
        assert_eq!(c.confidence(b), Some(0.4));
        assert_eq!(c.total_rows(), 2);
    }

    #[test]
    fn duplicate_table_rejected_case_insensitively() {
        let mut c = catalog();
        assert!(matches!(
            c.create_table(
                "proposal",
                Schema::new(vec![Column::new("x", DataType::Int)]).unwrap()
            ),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn find_tuple_reports_owning_table() {
        let mut c = catalog();
        let id = c
            .insert("CompanyInfo", vec![Value::text("Z"), Value::Real(5.0)], 0.9)
            .unwrap();
        let (tname, row) = c.find_tuple(id).unwrap();
        assert_eq!(tname, "CompanyInfo");
        assert_eq!(row.confidence, 0.9);
        assert!(c.find_tuple(TupleId(999)).is_none());
    }

    #[test]
    fn raise_confidence_routes_to_owner() {
        let mut c = catalog();
        let id = c
            .insert("Proposal", vec![Value::text("A"), Value::Real(1.0)], 0.3)
            .unwrap();
        assert_eq!(c.raise_confidence(id, 0.5).unwrap(), 0.5);
        assert_eq!(c.raise_confidence(id, 0.1).unwrap(), 0.5);
        assert!(c.raise_confidence(TupleId(42), 0.5).is_err());
    }

    #[test]
    fn create_index_resolves_names_and_survives_csv_import() {
        let mut c = catalog();
        // Case-insensitive table and column resolution.
        let pos = c.create_index("proposal", "COMPANY").unwrap();
        assert_eq!(pos, 0);
        c.insert("Proposal", vec![Value::text("A"), Value::Real(1.0)], 0.3)
            .unwrap();
        // CSV import funnels through Catalog::insert, so the index sees it.
        let csv = "company,funding,confidence\nB,2.0,0.4\nA,3.0,0.5\n";
        crate::csv::load_into(&mut c, "Proposal", csv.as_bytes()).unwrap();
        let ix = c.table("Proposal").unwrap().index_on(0).unwrap();
        assert_eq!(ix.lookup(&Value::text("A")), &[0, 2]);
        assert_eq!(ix.lookup(&Value::text("B")), &[1]);
        // REAL columns are refused.
        assert!(matches!(
            c.create_index("Proposal", "funding"),
            Err(StorageError::NotIndexable { .. })
        ));
    }

    #[test]
    fn unknown_table_errors() {
        let mut c = catalog();
        assert!(c.table("nope").is_err());
        assert!(c.insert("nope", vec![], 0.5).is_err());
    }
}
