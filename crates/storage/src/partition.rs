//! Deterministic hash partitioning for vectorized execution.
//!
//! The vectorized executor splits work two ways, both decided here from
//! the live [`crate::TableStats`]:
//!
//! * **Morsels** — contiguous runs of rows handed to `pcqe-par` workers.
//!   [`morsel_rows`] picks the run length: large enough to amortise
//!   dispatch, small enough that every worker lane stays busy.
//! * **Hash partitions** — a join build side is split into `P`
//!   independent ordered maps by a deterministic hash of the key values;
//!   [`partition_count`] picks `P` from the build side's cardinality and
//!   the key column's distinct-value count (no point cutting finer than
//!   the NDV supports).
//!
//! The hash is a fixed FNV-1a over each value's canonical byte form —
//! never a `RandomState`, never float equality — so a partition
//! assignment is a pure function of the value. Partitioning therefore
//! never changes results: every key lands in exactly one partition, and
//! within a partition rows keep their input order.

use crate::value::Value;

/// Default rows per morsel: the contiguous unit of work one `pcqe-par`
/// lane claims at a time during a vectorized scan.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Maximum hash partitions for a join build side.
pub const MAX_PARTITIONS: usize = 64;

/// Rows a partition should hold before another partition pays off.
const ROWS_PER_PARTITION: usize = 4096;

/// Morsel length for a table of `row_count` rows: the default, shrunk so
/// that even small-but-parallel tables split into a handful of morsels.
pub fn morsel_rows(row_count: usize) -> usize {
    if row_count == 0 {
        return DEFAULT_MORSEL_ROWS;
    }
    // At least 8 morsels for any table that can fill them, without ever
    // dropping below 64 rows (dispatch overhead would dominate).
    DEFAULT_MORSEL_ROWS.min(row_count.div_ceil(8)).max(64)
}

/// Number of morsels a table of `row_count` rows splits into.
pub fn morsel_count(row_count: usize, rows_per_morsel: usize) -> usize {
    row_count.div_ceil(rows_per_morsel.max(1))
}

/// Hash partitions for a join build side of `row_count` rows whose key
/// column has `distinct_keys` distinct values (`None` when unknown).
///
/// Always ≥ 1 and a power of two (so `hash & (p - 1)` selects the
/// partition), capped by [`MAX_PARTITIONS`] and by the NDV: with `d`
/// distinct keys, more than `d` partitions cannot spread the load.
pub fn partition_count(row_count: usize, distinct_keys: Option<usize>) -> usize {
    if row_count == 0 {
        return 1;
    }
    let by_rows = row_count.div_ceil(ROWS_PER_PARTITION);
    let by_ndv = distinct_keys.unwrap_or(usize::MAX).max(1);
    let target = by_rows.min(by_ndv).clamp(1, MAX_PARTITIONS);
    target.next_power_of_two().min(MAX_PARTITIONS)
}

/// A deterministic 64-bit FNV-1a hasher (no per-process seed).
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }
}

/// Feed one value's canonical byte form into the hasher. Reals hash by
/// their IEEE-754 bits — two values that compare equal under the storage
/// layer's total order hash identically, which is all partitioning
/// needs (equal keys must land in the same partition).
fn hash_value(h: &mut Fnv1a, v: &Value) {
    match v {
        Value::Null => h.write_u8(0),
        Value::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        Value::Int(i) => {
            h.write_u8(2);
            h.write(&i.to_le_bytes());
        }
        Value::Real(r) => {
            h.write_u8(3);
            h.write(&r.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            h.write_u8(4);
            h.write(s.as_bytes());
            // Terminator so ("ab","c") and ("a","bc") differ as keys.
            h.write_u8(0xff);
        }
    }
}

/// Deterministic hash of a composite key: the same value sequence always
/// hashes the same, across runs, threads and platforms.
pub fn stable_hash(values: &[Value]) -> u64 {
    hash_key(values)
}

fn hash_key<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        hash_value(&mut h, v);
    }
    h.0
}

/// Partition index for a composite key under `partitions` partitions
/// (which must be a power of two, as [`partition_count`] returns). The
/// key's values may be borrowed from wherever they live; a slice hashes
/// as [`stable_hash`] does.
pub fn partition_of<'a>(values: impl IntoIterator<Item = &'a Value>, partitions: usize) -> usize {
    if partitions <= 1 {
        return 0;
    }
    (hash_key(values) as usize) & (partitions - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_rows_scales_down_for_small_tables() {
        assert_eq!(morsel_rows(0), DEFAULT_MORSEL_ROWS);
        assert_eq!(morsel_rows(100_000), DEFAULT_MORSEL_ROWS);
        assert_eq!(morsel_rows(2048), 256);
        assert_eq!(morsel_rows(10), 64, "floor keeps morsels worthwhile");
        assert_eq!(morsel_count(2048, 256), 8);
        assert_eq!(morsel_count(0, 256), 0);
        assert_eq!(morsel_count(1, 0), 1, "zero morsel size is clamped");
    }

    #[test]
    fn partition_count_respects_rows_ndv_and_cap() {
        assert_eq!(partition_count(0, None), 1);
        assert_eq!(partition_count(100, None), 1, "small build: one map");
        assert_eq!(partition_count(40_000, None), 16);
        assert_eq!(partition_count(40_000, Some(3)), 4, "NDV caps partitions");
        assert_eq!(partition_count(10_000_000, None), MAX_PARTITIONS);
        for rows in [1usize, 10, 5000, 100_000] {
            let p = partition_count(rows, Some(7));
            assert!(p.is_power_of_two(), "{p} must be a power of two");
        }
    }

    #[test]
    fn stable_hash_is_a_pure_function_of_the_values() {
        let key = vec![Value::Int(42), Value::text("abc")];
        assert_eq!(stable_hash(&key), stable_hash(&key.clone()));
        // Concatenation boundaries matter.
        assert_ne!(
            stable_hash(&[Value::text("ab"), Value::text("c")]),
            stable_hash(&[Value::text("a"), Value::text("bc")])
        );
        // Type tags matter.
        assert_ne!(
            stable_hash(&[Value::Int(1)]),
            stable_hash(&[Value::Bool(true)])
        );
    }

    #[test]
    fn equal_keys_share_a_partition_at_any_count() {
        let a = vec![Value::text("SkyCam"), Value::Int(7)];
        let b = a.clone();
        for p in [1usize, 2, 8, 64] {
            assert_eq!(partition_of(&a, p), partition_of(&b, p));
            assert!(partition_of(&a, p) < p.max(1));
        }
        assert_eq!(partition_of(&a, 0), 0);
        assert_eq!(partition_of(&a, 1), 0);
    }

    #[test]
    fn partitions_spread_distinct_keys() {
        // 1000 distinct int keys over 16 partitions: no partition may
        // swallow everything (a degenerate hash would).
        let mut counts = [0usize; 16];
        for i in 0..1000i64 {
            counts[partition_of(&[Value::Int(i)], 16)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(counts.iter().all(|&c| c < 500), "{counts:?}");
    }
}
