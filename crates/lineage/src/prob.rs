//! Exact probability computation under a Shannon-expansion budget.

use crate::error::LineageError;
use crate::expr::{Lineage, VarId};
use crate::Result;

/// A source of per-variable marginal probabilities.
///
/// Implemented for closures and ordered maps so callers can pass whatever
/// they have; `None` means the variable is unknown and evaluation fails
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

/// Exact confidence evaluator.
///
/// Exact evaluation uses independence decomposition wherever the children of
/// a connective touch pairwise-disjoint variable sets, and Shannon expansion
/// on the most-shared variable otherwise. Each Shannon expansion consumes
/// one unit of `budget`; on exhaustion the evaluator reports
/// [`LineageError::BudgetExceeded`] — it never estimates.
#[derive(Debug, Clone)]
pub struct Evaluator {
    /// Maximum number of Shannon expansions before giving up on exactness.
    pub budget: usize,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator { budget: 4096 }
    }
}

impl Evaluator {
    /// Probability that `lineage` is true under independent variables.
    pub fn probability<P: ProbSource>(&self, lineage: &Lineage, probs: &P) -> Result<f64> {
        let mut budget = self.budget;
        exact(&crate::factor::normalize(lineage), probs, &mut budget)
    }
}

/// Recursive exact evaluation with independence decomposition and Shannon
/// expansion. `budget` is decremented per expansion.
fn exact<P: ProbSource>(l: &Lineage, probs: &P, budget: &mut usize) -> Result<f64> {
    match l {
        Lineage::Const(b) => Ok(if *b { 1.0 } else { 0.0 }),
        Lineage::Var(v) => probs.prob(*v).ok_or(LineageError::UnknownVar(*v)),
        Lineage::Not(e) => Ok(1.0 - exact(e, probs, budget)?),
        Lineage::And(es) => {
            if let Some(shared) = most_shared_var(es) {
                shannon(l, shared, probs, budget)
            } else {
                let mut p = 1.0;
                for e in es {
                    p *= exact(e, probs, budget)?;
                }
                Ok(p)
            }
        }
        Lineage::Or(es) => {
            if let Some(shared) = most_shared_var(es) {
                shannon(l, shared, probs, budget)
            } else {
                let mut q = 1.0;
                for e in es {
                    q *= 1.0 - exact(e, probs, budget)?;
                }
                Ok(1.0 - q)
            }
        }
    }
}

/// If the children share variables, return the variable occurring in the
/// most children (the best Shannon pivot), the smallest such variable on a
/// tie; otherwise `None`. The pool compiler in [`crate::cache`] pivots by
/// this same rule.
///
/// Every leaf goes into one list as `(variable, child)`; sorted and
/// deduplicated, a variable's run is as long as the number of children it
/// occurs in. Sharing *within* one child is handled recursively — only
/// cross-child sharing breaks independence — so a variable counts once
/// per child however often the child repeats it.
pub(crate) fn most_shared_var(children: &[Lineage]) -> Option<VarId> {
    let mut leaves: Vec<(VarId, usize)> = Vec::new();
    for (at, child) in children.iter().enumerate() {
        child.for_each_var(&mut |v| leaves.push((v, at)));
    }
    leaves.sort_unstable();
    leaves.dedup();
    leaves
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|run| run.len() > 1)
        .filter_map(|run| run.first().map(|&(v, _)| (run.len(), std::cmp::Reverse(v))))
        .max()
        .map(|(_, std::cmp::Reverse(v))| v)
}

fn shannon<P: ProbSource>(l: &Lineage, pivot: VarId, probs: &P, budget: &mut usize) -> Result<f64> {
    if *budget == 0 {
        return Err(LineageError::BudgetExceeded { budget: 0 });
    }
    *budget -= 1;
    let p = probs.prob(pivot).ok_or(LineageError::UnknownVar(pivot))?;
    let hi = exact(&l.condition(pivot, true), probs, budget)?;
    let lo = exact(&l.condition(pivot, false), probs, budget)?;
    Ok(p * hi + (1.0 - p) * lo)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use std::collections::{BTreeMap, BTreeSet};

    fn probs(pairs: &[(u64, f64)]) -> BTreeMap<VarId, f64> {
        pairs.iter().map(|&(v, p)| (VarId(v), p)).collect()
    }

    /// The pivot rule as it was first written: a set of variables per
    /// child, a map of how many children hold each, the most-held variable
    /// and the smallest on a tie.
    fn reference_most_shared_var(children: &[Lineage]) -> Option<VarId> {
        let mut seen: BTreeMap<VarId, usize> = BTreeMap::new();
        for child in children {
            let vars: BTreeSet<VarId> = child.var_counts().into_keys().collect();
            for v in vars {
                *seen.entry(v).or_insert(0) += 1;
            }
        }
        seen.into_iter()
            .filter(|&(_, c)| c > 1)
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
            .map(|(v, _)| v)
    }

    #[test]
    fn pivot_matches_its_reference_definition_on_seeded_children() {
        let mut rng = Rng64::seed_from_u64(0x51AA_9107);
        let (mut pivots, mut none) = (0, 0);
        for case in 0..600u32 {
            // Few variables against many children: counts tie all the
            // time, and a child often repeats a variable of its own.
            let n = [1, 2, 3, 5, 12, 40, 400][case as usize % 7];
            let universe = 2 + rng.below_u64(2 * n as u64);
            let children: Vec<Lineage> = (0..n)
                .map(|_| match rng.below_u64(4) {
                    0 => Lineage::var(rng.below_u64(universe)),
                    1 => Lineage::Not(Box::new(Lineage::var(rng.below_u64(universe)))),
                    _ => Lineage::And(
                        (0..rng.range_usize(1, 5))
                            .map(|_| Lineage::var(rng.below_u64(universe)))
                            .collect(),
                    ),
                })
                .collect();
            let want = reference_most_shared_var(&children);
            assert_eq!(most_shared_var(&children), want, "case {case}");
            pivots += usize::from(want.is_some());
            none += usize::from(want.is_none());
        }
        assert!(pivots > 200 && none > 50, "{pivots} / {none}");
    }

    #[test]
    fn pivot_ties_go_to_the_smallest_variable_and_repeats_count_once() {
        let and = |vs: &[u64]| Lineage::And(vs.iter().map(|&v| Lineage::var(v)).collect());
        // 3, 5 and 9 are each in two children: the smallest wins.
        let tie = [and(&[9, 5]), and(&[5, 3]), and(&[3, 9])];
        assert_eq!(most_shared_var(&tie), Some(VarId(3)));
        // 7 occurs three times but in one child; 8 is in two children.
        let repeated = [and(&[7, 7, 7, 8]), and(&[8, 1])];
        assert_eq!(most_shared_var(&repeated), Some(VarId(8)));
        // A variable repeated only inside one child shares nothing.
        assert_eq!(most_shared_var(&[and(&[7, 7]), and(&[1, 2])]), None);
        assert_eq!(most_shared_var(&[]), None);
    }

    #[test]
    fn paper_running_example() {
        // p38 = (p02 + p03 - p02*p03) * p13 with p02=0.3, p03=0.4, p13=0.1
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]);
        let p = Evaluator::default()
            .probability(&l, &probs(&[(2, 0.3), (3, 0.4), (13, 0.1)]))
            .unwrap();
        assert!((p - 0.058).abs() < 1e-12);
    }

    #[test]
    fn paper_example_after_increment() {
        // Raising p03 from 0.4 to 0.5 gives p25 = 0.65 and p38 = 0.065.
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]);
        let p = Evaluator::default()
            .probability(&l, &probs(&[(2, 0.3), (3, 0.5), (13, 0.1)]))
            .unwrap();
        assert!((p - 0.065).abs() < 1e-12);
    }

    #[test]
    fn negation_and_constants() {
        let e = Evaluator::default();
        let pr = probs(&[(1, 0.25)]);
        assert_eq!(e.probability(&Lineage::certain(), &pr).unwrap(), 1.0);
        assert_eq!(e.probability(&Lineage::Const(false), &pr).unwrap(), 0.0);
        let p = e.probability(&Lineage::not(Lineage::var(1)), &pr).unwrap();
        assert!((p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shared_variable_needs_shannon() {
        // (x ∧ y) ∨ (x ∧ z): naive independence would give
        // 1-(1-pq)(1-pr); exact is p(1-(1-q)(1-r)).
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(0), Lineage::var(2)]),
        ]);
        let pr = probs(&[(0, 0.5), (1, 0.5), (2, 0.5)]);
        let p = Evaluator::default().probability(&l, &pr).unwrap();
        let expected = 0.5 * (1.0 - 0.5 * 0.5);
        assert!((p - expected).abs() < 1e-12, "{p} vs {expected}");
    }

    #[test]
    fn idempotent_sharing_is_exact() {
        // x ∨ x simplifies to x; x ∧ ¬x is unsatisfiable.
        let e = Evaluator { budget: 16 };
        let pr = probs(&[(0, 0.3)]);
        let same = Lineage::Or(vec![Lineage::var(0), Lineage::var(0)]);
        assert!((e.probability(&same, &pr).unwrap() - 0.3).abs() < 1e-12);
        let contra = Lineage::And(vec![
            Lineage::var(0),
            Lineage::Not(Box::new(Lineage::var(0))),
        ]);
        assert!(e.probability(&contra, &pr).unwrap().abs() < 1e-12);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let e = Evaluator::default();
        let err = e.probability(&Lineage::var(42), &probs(&[])).unwrap_err();
        assert_eq!(err, LineageError::UnknownVar(VarId(42)));
    }

    #[test]
    fn budget_exhaustion_is_an_error() {
        // A chain of shared conjunctions forces expansions.
        let mut children = Vec::new();
        for i in 0..12u64 {
            children.push(Lineage::And(vec![Lineage::var(i), Lineage::var(i + 1)]));
        }
        let l = Lineage::Or(children);
        let pr: BTreeMap<VarId, f64> = (0..13).map(|i| (VarId(i), 0.5)).collect();
        let e = Evaluator { budget: 1 };
        assert!(matches!(
            e.probability(&l, &pr),
            Err(LineageError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn exact_matches_brute_force_enumeration() {
        // Enumerate all assignments for a non-read-once formula.
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![
                Lineage::var(1),
                Lineage::Not(Box::new(Lineage::var(2))),
            ]),
            Lineage::var(2),
        ]);
        let ps = [0.2, 0.7, 0.4];
        let pr = probs(&[(0, ps[0]), (1, ps[1]), (2, ps[2])]);
        let mut brute = 0.0;
        for bits in 0..8u32 {
            let assign = |v: VarId| bits & (1 << v.0) != 0;
            if l.eval(&assign) {
                let mut w = 1.0;
                for (i, &p) in ps.iter().enumerate() {
                    w *= if bits & (1 << i) != 0 { p } else { 1.0 - p };
                }
                brute += w;
            }
        }
        let p = Evaluator { budget: 1024 }.probability(&l, &pr).unwrap();
        assert!((p - brute).abs() < 1e-12, "{p} vs {brute}");
    }
}
