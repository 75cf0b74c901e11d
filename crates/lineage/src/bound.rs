//! Sound confidence bounds computed in one linear pass over a lineage
//! formula — no Shannon expansion, no sampling.
//!
//! The policy threshold β is known *before* evaluation, so results whose
//! confidence provably cannot exceed β never need their exact (potentially
//! exponential) probability computed. This module supplies the "provably"
//! part: an interval `[lower, upper]` that contains the exact probability
//! under *any* dependence structure between subformulas, in particular the
//! actual one induced by shared base tuples.
//!
//! The rules are the classic Fréchet/Boole inequalities, applied
//! structurally:
//!
//! * `P(A ∧ B) ≤ min(P(A), P(B))` — conjunction can only shrink upper
//!   bounds (this is why σ and ⋈ are monotone decreasing in the bound);
//! * `P(A ∨ B) ≤ min(1, P(A) + P(B))` — the union bound for OR-merges;
//! * `P(A ∧ B) ≥ max(0, P(A) + P(B) − 1)` and `P(A ∨ B) ≥ max(P(A), P(B))`
//!   for the lower side;
//! * `P(¬A) = 1 − P(A)` flips the interval.
//!
//! Because every rule holds regardless of independence, the interval is
//! sound for repeated variables too — exactly the case where exact
//! evaluation gets expensive. Constants and single variables are exact.
//!
//! The scorer reads both ends: a row whose upper bound is ≤ β is withheld
//! without exact evaluation, and a row whose exact evaluation runs past
//! its Shannon budget is gated on its lower bound — released only if even
//! that exceeds β.

use crate::error::LineageError;
use crate::expr::{Lineage, VarId};
use crate::Result;

/// A source of per-variable marginal probabilities.
///
/// Implemented for closures and ordered maps so callers can pass whatever
/// they have; `None` means the variable is unknown and the walk fails
/// with [`LineageError::UnknownVar`].
pub trait ProbSource {
    /// Marginal probability of `var` being true, or `None` if unknown.
    fn prob(&self, var: VarId) -> Option<f64>;
}

impl<F: Fn(VarId) -> Option<f64>> ProbSource for F {
    fn prob(&self, var: VarId) -> Option<f64> {
        self(var)
    }
}

impl ProbSource for std::collections::BTreeMap<VarId, f64> {
    fn prob(&self, var: VarId) -> Option<f64> {
        self.get(&var).copied()
    }
}

/// A sound probability interval: `lower ≤ P(lineage) ≤ upper`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Sound lower bound in `[0, 1]`.
    pub lower: f64,
    /// Sound upper bound in `[0, 1]`.
    pub upper: f64,
}

impl Bounds {
    fn exact(p: f64) -> Bounds {
        Bounds { lower: p, upper: p }
    }
}

/// Compute sound `[lower, upper]` probability bounds for `lineage` in one
/// linear pass. Fails with [`LineageError::UnknownVar`] when a variable of
/// `lineage` has no probability in `probs`.
pub fn bounds<P: ProbSource>(lineage: &Lineage, probs: &P) -> Result<Bounds> {
    let b = walk(lineage, probs)?;
    debug_assert!(b.lower <= b.upper + 1e-12, "crossed bounds {b:?}");
    Ok(b)
}

fn walk<P: ProbSource>(l: &Lineage, probs: &P) -> Result<Bounds> {
    Ok(match l {
        Lineage::Const(b) => Bounds::exact(if *b { 1.0 } else { 0.0 }),
        Lineage::Var(v) => Bounds::exact(probs.prob(*v).ok_or(LineageError::UnknownVar(*v))?),
        Lineage::Not(e) => {
            let inner = walk(e, probs)?;
            Bounds {
                lower: (1.0 - inner.upper).max(0.0),
                upper: (1.0 - inner.lower).min(1.0),
            }
        }
        Lineage::And(es) => {
            // Upper: min of children. Lower: Fréchet, max(0, Σlo − (n−1)).
            let mut upper = 1.0f64;
            let mut lower_sum = 0.0f64;
            let mut n = 0usize;
            for e in es {
                let b = walk(e, probs)?;
                upper = upper.min(b.upper);
                lower_sum += b.lower;
                n += 1;
            }
            Bounds {
                lower: (lower_sum - (n.saturating_sub(1)) as f64)
                    .max(0.0)
                    .min(upper),
                upper,
            }
        }
        Lineage::Or(es) => {
            // Upper: union bound, min(1, Σhi). Lower: max of children.
            let mut upper_sum = 0.0f64;
            let mut lower = 0.0f64;
            for e in es {
                let b = walk(e, probs)?;
                upper_sum += b.upper;
                lower = lower.max(b.lower);
            }
            let upper = upper_sum.min(1.0);
            Bounds {
                lower: lower.min(upper),
                upper,
            }
        }
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use std::collections::BTreeMap;

    fn probs(pairs: &[(u64, f64)]) -> BTreeMap<VarId, f64> {
        pairs.iter().map(|&(v, p)| (VarId(v), p)).collect()
    }

    #[test]
    fn leaves_are_exact() {
        let pr = probs(&[(0, 0.3)]);
        assert_eq!(
            bounds(&Lineage::var(0), &pr).unwrap(),
            Bounds {
                lower: 0.3,
                upper: 0.3
            }
        );
        assert_eq!(bounds(&Lineage::certain(), &pr).unwrap().lower, 1.0);
        assert_eq!(bounds(&Lineage::Const(false), &pr).unwrap().upper, 0.0);
    }

    #[test]
    fn paper_running_example_is_bracketed() {
        // (t02 ∨ t03) ∧ t13 with p = 0.3, 0.4, 0.1 → exact 0.058.
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]);
        let pr = probs(&[(2, 0.3), (3, 0.4), (13, 0.1)]);
        let b = bounds(&l, &pr).unwrap();
        assert!(b.lower <= 0.058 && 0.058 <= b.upper, "{b:?}");
        // The AND upper bound is min(union(0.3,0.4), 0.1) = 0.1: tight
        // enough that any β ≥ 0.1 short-circuits this result.
        assert_eq!(b.upper, 0.1);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let pr = probs(&[]);
        assert!(matches!(
            bounds(&Lineage::var(9), &pr),
            Err(LineageError::UnknownVar(VarId(9)))
        ));
    }

    #[test]
    fn bounds_bracket_exact_on_random_formulas() {
        // Randomized structural soundness check with the in-repo RNG:
        // generate formulas with heavy variable sharing (the hard case)
        // and verify lower ≤ exact ≤ upper for each.
        let mut rng = Rng64::seed_from_u64(0x000b_0cd5);
        for case in 0..200 {
            let n_vars = 2 + rng.below_u64(5);
            let pr: BTreeMap<VarId, f64> =
                (0..n_vars).map(|i| (VarId(i), rng.next_f64())).collect();
            let l = random_formula(&mut rng, n_vars, 3);
            let exact = enumerated(&l, &pr);
            let b = bounds(&l, &pr).unwrap();
            assert!(
                b.lower - 1e-9 <= exact && exact <= b.upper + 1e-9,
                "case {case}: exact {exact} outside {b:?} for {l:?}"
            );
        }
    }

    /// `P(l)` summed over every assignment of variables `0..probs.len()`.
    fn enumerated(l: &Lineage, probs: &BTreeMap<VarId, f64>) -> f64 {
        let set = |bits: u32, v: VarId| bits & (1 << v.0) != 0;
        (0..1u32 << probs.len())
            .filter(|&bits| l.eval(&|v| set(bits, v)))
            .map(|bits| {
                let weight = |(&v, &p): (&VarId, &f64)| if set(bits, v) { p } else { 1.0 - p };
                probs.iter().map(weight).product::<f64>()
            })
            .sum()
    }

    fn random_formula(rng: &mut Rng64, n_vars: u64, depth: usize) -> Lineage {
        if depth == 0 || rng.chance(0.3) {
            return Lineage::var(rng.below_u64(n_vars));
        }
        match rng.below_u64(3) {
            0 => Lineage::not(random_formula(rng, n_vars, depth - 1)),
            1 => Lineage::and(
                (0..2 + rng.below_u64(2))
                    .map(|_| random_formula(rng, n_vars, depth - 1))
                    .collect(),
            ),
            _ => Lineage::or(
                (0..2 + rng.below_u64(2))
                    .map(|_| random_formula(rng, n_vars, depth - 1))
                    .collect(),
            ),
        }
    }
}
