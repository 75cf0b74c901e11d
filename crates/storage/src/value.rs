//! Typed scalar values and their data types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The scalar data types supported by the storage layer.
///
/// These mirror the types used by the paper's running example
/// (`Proposal(Company:string, Proposal:string, Funding:real)`), plus the
/// integer and boolean types any practical predicate language needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean truth value.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point ("real" in the paper's schemas).
    Real,
    /// UTF-8 string ("string" in the paper's schemas).
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Real => "REAL",
            DataType::Text => "TEXT",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// `Value` implements `Eq`, `Ord` and `Hash` with a *total* order so that
/// result tuples can be deduplicated by the set-semantic projection operator
/// (the operation that produces OR-lineage in the paper's example). Reals are
/// ordered with [`f64::total_cmp`]; `NULL` sorts before everything else, and
/// values of different types order by type tag.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / absent value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Real(f64),
    /// String value.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// The value's data type, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Real(_) => Some(DataType::Real),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value can be stored in a column of type `ty`.
    ///
    /// NULL is storable anywhere; an `Int` is accepted by a `Real` column
    /// (widening), everything else must match exactly.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Real) => true,
            (v, t) => v.data_type() == Some(t),
        }
    }

    /// Numeric view of the value (ints widen to f64), `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Integer view of the value, `None` otherwise.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view of the value, `None` otherwise.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value, `None` otherwise.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: `None` when either side is NULL or
    /// the types are incomparable, otherwise the ordering under numeric
    /// coercion (ints compare with reals).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (a, b) => Some(real_cmp(a.as_f64()?, b.as_f64()?)),
        }
    }

    /// Rank used to order values of different types in the total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Real(_) => 3,
            Value::Text(_) => 4,
        }
    }
}

/// The order [`Value::sql_cmp`] puts two numerics in once either is a
/// real: IEEE 754 `totalOrder`, so `-0.0 < 0.0` and NaN is ordered. A
/// typed kernel that compares unboxed reals calls this, and so agrees
/// with `sql_cmp` by construction.
#[inline]
pub fn real_cmp(x: f64, y: f64) -> Ordering {
    x.total_cmp(&y)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Real(r) => r.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_types_of_values() {
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Real(1.5).data_type(), Some(DataType::Real));
        assert_eq!(Value::text("x").data_type(), Some(DataType::Text));
    }

    #[test]
    fn conformance_allows_null_and_int_widening() {
        assert!(Value::Null.conforms_to(DataType::Text));
        assert!(Value::Int(3).conforms_to(DataType::Real));
        assert!(!Value::Real(3.0).conforms_to(DataType::Int));
        assert!(!Value::text("x").conforms_to(DataType::Int));
    }

    #[test]
    fn sql_cmp_is_null_aware_and_coercing() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Real(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Real(1.0).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::text("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_handles_mixed_types_and_nan() {
        let mut vs = [
            Value::text("b"),
            Value::Real(f64::NAN),
            Value::Int(0),
            Value::Null,
            Value::Bool(false),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert!(matches!(vs[1], Value::Bool(false)));
        // NaN equals itself under the total order, so sorting is stable.
        assert_eq!(Value::Real(f64::NAN), Value::Real(f64::NAN));
    }

    #[test]
    fn eq_and_hash_agree() {
        let a = Value::Real(0.5);
        let b = Value::Real(0.5);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        // Int(2) and Real(2.0) are distinct in the total order (dedup keeps
        // them apart), even though sql_cmp coerces them equal.
        assert_ne!(Value::Int(2), Value::Real(2.0));
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }
}
