//! The one validated confidence value.

use crate::error::StorageError;
use crate::Result;

/// A confidence: a real in `[0, 1]`, the paper's `p` of a base tuple and
/// its threshold β. [`Confidence::new`] is the only way to make one, so
/// whoever holds a `Confidence` holds a checked value. −0.0 is stored as
/// +0.0, so one confidence has one encoding in every saved image and
/// `to_bits` digest; subnormals are kept as they are.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Confidence(f64);

impl Confidence {
    /// The confidence `value`, or `None` for NaN, ±∞ and values outside
    /// `[0, 1]`; each crate words the refusal as its own typed error.
    pub fn new(value: f64) -> Option<Confidence> {
        // Within the range `abs` changes only −0.0, to +0.0.
        (0.0..=1.0)
            .contains(&value)
            .then(|| Confidence(value.abs()))
    }

    /// The value as an `f64`.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// `value` as a [`Confidence`], or storage's refusal of it.
pub(crate) fn checked(value: f64) -> Result<Confidence> {
    Confidence::new(value).ok_or(StorageError::InvalidConfidence(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_what_is_not_a_confidence_and_keeps_one_zero() {
        let bits = |v: f64| Confidence::new(v).map(|c| c.get().to_bits());
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0f64.next_up(),
            -5e-324,
        ] {
            assert_eq!(bits(v), None);
            assert!(matches!(
                checked(v),
                Err(StorageError::InvalidConfidence(_))
            ));
        }
        assert_eq!(bits(-0.0), Some(0));
        assert_eq!(bits(5e-324), Some(5e-324f64.to_bits()));
        assert_eq!(bits(1.0), Some(1.0f64.to_bits()));
    }
}
