//! Tuples and globally unique tuple identifiers.

use crate::value::Value;
use std::fmt;

/// Globally unique identifier of a *base* tuple.
///
/// Tuple ids double as lineage variables: the confidence of a derived result
/// is a function of the confidences of the base tuples whose ids appear in
/// its lineage (the paper's `λ0` variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A row of values, ordered according to some [`crate::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Wrap a vector of values as a tuple.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The tuple's values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column index `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Consume the tuple, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Build a new tuple keeping only the columns at `indexes` (in order).
    pub fn project(&self, indexes: &[usize]) -> Tuple {
        Tuple {
            values: indexes
                .iter()
                .filter_map(|&i| self.values.get(i).cloned())
                .collect(),
        }
    }

    /// Concatenate two tuples (used by join/product).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        Tuple { values }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_and_concat() {
        let t = Tuple::new(vec![Value::Int(1), Value::text("a"), Value::Real(2.5)]);
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Real(2.5), Value::Int(1)]);
        let c = p.concat(&Tuple::new(vec![Value::Bool(true)]));
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2), Some(&Value::Bool(true)));
    }

    #[test]
    fn project_ignores_out_of_range() {
        let t = Tuple::new(vec![Value::Int(1)]);
        assert_eq!(t.project(&[0, 9]).arity(), 1);
    }

    #[test]
    fn display_formats_rows() {
        let t = Tuple::new(vec![Value::Int(1), Value::text("x")]);
        assert_eq!(t.to_string(), "(1, x)");
        assert_eq!(TupleId(38).to_string(), "t38");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the `Hash` impl is what is under test"
    )]
    fn tuples_hash_and_compare() {
        use std::collections::HashSet;
        let a = Tuple::new(vec![Value::text("same")]);
        let b = Tuple::new(vec![Value::text("same")]);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
