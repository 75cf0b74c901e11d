//! Deterministic hashing: [`stable_hash`], a fixed FNV-1a over each
//! value's canonical byte form — never a `RandomState`, never float
//! equality — so a key's hash is a pure function of its values, across
//! runs, threads and platforms; and [`fnv1a`], the same hash over raw
//! bytes (the persisted manifest's checksums).

use crate::value::Value;

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
/// layer's total order hash identically.
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

/// The 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.0
}

/// Deterministic hash of a composite key: the same value sequence always
/// hashes the same, across runs, threads and platforms.
pub fn stable_hash(values: &[Value]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        hash_value(&mut h, v);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
