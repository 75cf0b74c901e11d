//! Table statistics: the physical planner ranks usable indexes by them.
//!
//! Statistics are derived on demand from the table itself (row count) and
//! its equality indexes (distinct-key counts), so they are always current:
//! there is no refresh step to forget and no stale-estimate failure mode.
//! Everything here is deterministic — counts over `Vec`s and `BTreeMap`s.

/// Distinct-value statistics for one indexed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column position in the table schema.
    pub column: usize,
    /// Number of distinct non-`NULL` keys observed in the column.
    pub distinct_keys: usize,
}

/// Per-table statistics: cardinality plus NDV for every indexed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// Total number of rows in the table.
    pub row_count: usize,
    /// One entry per equality index, in index-creation order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Distinct-key count for `column`, if that column is indexed.
    pub fn distinct_keys(&self, column: usize) -> Option<usize> {
        self.columns
            .iter()
            .find(|c| c.column == column)
            .map(|c| c.distinct_keys)
    }

    /// Estimated number of rows matching an equality predicate on `column`.
    ///
    /// With an index this is `ceil(row_count / distinct_keys)`; without one
    /// the planner falls back to the classic 1/10 selectivity guess. The
    /// estimate is only ever used to *choose* between physically equivalent
    /// plans, never to decide results, so a bad guess costs time, not
    /// correctness.
    pub fn eq_selectivity_rows(&self, column: usize) -> usize {
        match self.distinct_keys(column) {
            Some(ndv) if ndv > 0 => self.row_count.div_ceil(ndv),
            _ => self.row_count.div_ceil(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_selectivity_uses_ndv_when_indexed() {
        let s = TableStats {
            row_count: 100,
            columns: vec![ColumnStats {
                column: 1,
                distinct_keys: 25,
            }],
        };
        assert_eq!(s.distinct_keys(1), Some(25));
        assert_eq!(s.eq_selectivity_rows(1), 4);
        // Unindexed column: 1/10 guess.
        assert_eq!(s.eq_selectivity_rows(0), 10);
    }

    #[test]
    fn eq_selectivity_handles_small_and_empty_tables() {
        let empty = TableStats {
            row_count: 0,
            columns: vec![],
        };
        assert_eq!(empty.eq_selectivity_rows(0), 0);
        let tiny = TableStats {
            row_count: 3,
            columns: vec![],
        };
        assert_eq!(tiny.eq_selectivity_rows(0), 1);
    }
}
