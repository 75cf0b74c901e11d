//! Output checks shared by the end-to-end driver and the staged replay:
//! the non-disclosure contract on a reply, and FNV-1a digests that let two
//! replies (or two rounds) be compared without keeping them.

use pcqe_storage::{stable_hash, TupleId, Value};

/// 64-bit FNV-1a over little-endian words.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What a policy-checked reply looks like to a check: the released rows'
/// values and confidences, and how many rows were withheld.
pub struct ReplyView<'a> {
    /// `(values, confidence)` per released row, in result order.
    pub released: Vec<(&'a [Value], f64)>,
    /// Rows withheld.
    pub withheld: usize,
}

impl ReplyView<'_> {
    /// Digest of the released values, confidence bits and withheld count.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (values, confidence) in &self.released {
            h.word(stable_hash(values));
            h.word(confidence.to_bits());
        }
        h.word(self.withheld as u64);
        h.finish()
    }

    /// The per-op contract: released + withheld = the result rows the
    /// generator expects, and nothing at or below β was released.
    pub fn verify(&self, expect_rows: usize, beta: f64) -> Result<(), String> {
        let rows = self.released.len() + self.withheld;
        if rows != expect_rows {
            return Err(format!(
                "{} released + {} withheld, expected {expect_rows} rows",
                self.released.len(),
                self.withheld
            ));
        }
        if self.released.iter().any(|&(_, c)| c <= beta || c.is_nan()) {
            return Err("a released row is not strictly above the threshold".to_owned());
        }
        Ok(())
    }
}

/// Digest of a proposal: total cost bits and every `(tuple, to)` pair.
pub fn proposal_digest(cost: f64, increments: &[(TupleId, f64)]) -> u64 {
    let mut h = Fnv::new();
    h.word(cost.to_bits());
    for (id, to) in increments {
        h.word(id.0);
        h.word(to.to_bits());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_enforces_cardinality_and_strict_threshold() {
        let row = [Value::Int(1)];
        let view = |confidence: f64, withheld: usize| ReplyView {
            released: vec![(&row[..], confidence)],
            withheld,
        };
        assert!(view(0.6, 2).verify(3, 0.5).is_ok());
        assert!(view(0.6, 2).verify(4, 0.5).is_err());
        assert!(view(0.5, 2).verify(3, 0.5).is_err(), "β itself is withheld");
        assert!(view(f64::NAN, 2).verify(3, 0.5).is_err());
    }

    #[test]
    fn digest_sees_values_confidences_and_withheld() {
        let a = [Value::Int(1)];
        let b = [Value::Int(2)];
        let d = |values: &[Value], confidence: f64, withheld: usize| {
            ReplyView {
                released: vec![(values, confidence)],
                withheld,
            }
            .digest()
        };
        let base = d(&a, 0.7, 1);
        assert_eq!(base, d(&a, 0.7, 1));
        assert_ne!(base, d(&b, 0.7, 1));
        assert_ne!(base, d(&a, 0.7000000000000001, 1));
        assert_ne!(base, d(&a, 0.7, 2));
    }
}
