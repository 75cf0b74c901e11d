//! The catalog: a named collection of tables with a global tuple-id space.

use crate::confidence::{checked, Confidence};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::{StoredTuple, Table};
use crate::tuple::TupleId;
use crate::value::Value;
use crate::Result;
use std::collections::{BTreeMap, BTreeSet};

/// One row for [`Catalog::insert_all`]: its tuple id (`None` takes the
/// next one from the catalog's counter), its values and its confidence.
pub type NewRow = (Option<TupleId>, Vec<Value>, f64);

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
    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .iter_mut()
            .find_map(|(k, t)| k.eq_ignore_ascii_case(name).then_some(t))
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Insert a row into `table`, allocating a globally unique tuple id.
    pub fn insert(&mut self, table: &str, values: Vec<Value>, confidence: f64) -> Result<TupleId> {
        let confidence = checked(confidence)?;
        let (id, next) = next_ids(self.next_id)?;
        let t = self.table_mut(table)?;
        t.insert_with_id(id, values, confidence)?;
        self.next_id = next;
        Ok(id)
    }

    /// Insert a run of rows into `table`, all or nothing. Each row is
    /// checked once, as the iterator yields it: a row without an id as
    /// [`Catalog::insert`] checks it (its confidence, the id the counter
    /// will hand it, its schema), a row with one for its id being new to
    /// the catalog and to the run, then its schema and its confidence.
    /// Rows are written only once every one has passed, so the first error
    /// — an offending row's, or an `Err` the iterator yields — leaves no
    /// row, id or index posting behind.
    pub fn insert_all<E: From<StorageError>>(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = std::result::Result<NewRow, E>>,
    ) -> std::result::Result<Vec<TupleId>, E> {
        let rows = rows.into_iter();
        let mut accepted: Vec<StoredTuple> = Vec::with_capacity(rows.size_hint().0);
        let mut given = BTreeSet::new();
        for row in rows {
            let (id, values, confidence) = row?;
            let (id, confidence) = match id {
                Some(id) => {
                    if !given.insert(id) || self.find_tuple(id).is_some() {
                        return Err(StorageError::DuplicateTupleId(id.0).into());
                    }
                    self.table(table)?.schema().check_row(&values)?;
                    (id, checked(confidence)?)
                }
                None => {
                    let confidence = checked(confidence)?;
                    let nth = accepted.len() as u64;
                    let (id, _) = next_ids(self.next_id.saturating_add(nth))?;
                    self.table(table)?.schema().check_row(&values)?;
                    (id, confidence)
                }
            };
            accepted.push(StoredTuple {
                id,
                tuple: values.into(),
                confidence,
            });
        }
        let Some(next_id) = accepted.iter().map(|row| row.id.0.saturating_add(1)).max() else {
            return Ok(Vec::new());
        };
        let next_id = self.next_id.max(next_id);
        let t = self.table_mut(table)?;
        let ids = accepted.iter().map(|row| row.id).collect();
        for row in accepted {
            t.push_row(row);
        }
        self.next_id = next_id;
        Ok(ids)
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
        self.find_tuple(id).map(|(_, r)| r.confidence.get())
    }

    /// What [`Catalog::raise_confidence`] would answer to this raise: the
    /// same checks in the same order and the confidence the tuple would
    /// end up with, nothing written — what lets a caller validate a whole
    /// batch of raises before the first one lands, or preview them.
    pub fn check_raise(&self, id: TupleId, confidence: f64) -> Result<f64> {
        let (_, row) = self
            .find_tuple(id)
            .ok_or(StorageError::UnknownTuple(id.0))?;
        Ok(row.raised(checked(confidence)?).get())
    }

    /// Raise the confidence of a base tuple wherever it lives.
    pub fn raise_confidence(&mut self, id: TupleId, confidence: f64) -> Result<f64> {
        let row = self
            .tables
            .values_mut()
            .find_map(|t| t.row_mut(id))
            .ok_or(StorageError::UnknownTuple(id.0))?;
        Ok(row.raise_to(checked(confidence)?).get())
    }
}

/// The id an insert takes with the counter at `counter`, and the counter
/// after it. The counter never hands out `u64::MAX`: a restored tuple may
/// hold it (see [`Catalog::insert_all`]), and nothing would come after.
fn next_ids(counter: u64) -> Result<(TupleId, u64)> {
    let next = counter
        .checked_add(1)
        .ok_or(StorageError::DuplicateTupleId(counter))?;
    Ok((TupleId(counter), next))
}

impl Table {
    /// Insert a row with an externally allocated id (catalog use).
    pub(crate) fn insert_with_id(
        &mut self,
        id: TupleId,
        values: Vec<Value>,
        confidence: Confidence,
    ) -> Result<TupleId> {
        self.schema().check_row(&values)?;
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
        assert_eq!(c.table("Proposal").unwrap().len(), 1);
        assert_eq!(c.table("CompanyInfo").unwrap().len(), 1);
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
        assert_eq!(row.confidence.get(), 0.9);
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
