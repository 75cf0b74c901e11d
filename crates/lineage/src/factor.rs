//! Heuristic factorisation of lineage formulas.
//!
//! Query evaluation tends to produce OR-of-AND ("DNF-ish") lineage with
//! repeated variables — e.g. the running example's projection yields
//! `(t02 ∧ t13) ∨ (t03 ∧ t13)`, whereas the paper writes the factored
//! `(t02 ∨ t03) ∧ t13`. Repeated variables are what force Shannon
//! expansion during confidence computation, so pulling shared conjuncts
//! out front makes exact evaluation cheaper (and, when a formula factors
//! to read-once, expansion-free).
//!
//! [`factor`] repeatedly extracts the variable occurring in the most OR
//! branches, recursing into the factored remainder. The result is always
//! logically equivalent; it is *not* guaranteed minimal (optimal
//! factorisation is hard), just never worse in total variable
//! occurrences.

use crate::expr::{Lineage, VarId};
use std::collections::BTreeMap;

/// Factor a formula to reduce repeated variable occurrences. Returns a
/// logically equivalent formula; when the input is an OR of ANDs with a
/// common conjunct, that conjunct is pulled out front.
pub fn factor(lineage: &Lineage) -> Lineage {
    let simplified = lineage.simplify();
    let leaves = simplified.var_counts().values().sum();
    match shrink(&simplified, leaves) {
        Some((out, _)) => out,
        None => simplified,
    }
}

/// A formula in the form the pool compiler starts every exact confidence
/// computation from, with what the read-once test learned about it.
pub(crate) struct Normal {
    /// Simplified, then factored unless already read-once. Factoring
    /// shared conjuncts out of OR branches removes repeated variables,
    /// saving Shannon expansions (and often reaching a read-once form,
    /// which needs none at all).
    pub(crate) formula: Lineage,
    /// The formula's distinct variables, in id order.
    pub(crate) vars: Vec<VarId>,
    /// No variable occurs twice in the formula, so its compile needs no
    /// Shannon expansion, and neither does any subformula's.
    pub(crate) read_once: bool,
}

/// Bring `lineage` into [`Normal`] form. The read-once test is the one
/// sort of the simplified formula's leaves: strictly ascending, they are
/// the variable list as they stand, so a read-once formula (a bare
/// variable included) pays one list for both. Otherwise the factored
/// form is kept when it has fewer occurrences, and its occurrence counts
/// give its verdict and its variables without another sort.
pub(crate) fn normalize(lineage: &Lineage) -> Normal {
    let formula = lineage.simplify();
    let mut vars = formula.sorted_leaves();
    if vars.is_sorted_by(|a, b| a < b) {
        return Normal {
            formula,
            vars,
            read_once: true,
        };
    }
    if let Some((factored, counts)) = shrink(&formula, vars.len()) {
        return Normal {
            formula: factored,
            read_once: counts.values().all(|&n| n == 1),
            vars: counts.into_keys().collect(),
        };
    }
    vars.dedup();
    Normal {
        formula,
        vars,
        read_once: false,
    }
}

/// `factor_rec`'s rewrite of a simplified formula with `leaves` variable
/// occurrences, and the rewrite's count per variable — if it has fewer
/// occurrences: the rewrite is only kept when it shrinks the formula.
fn shrink(simplified: &Lineage, leaves: usize) -> Option<(Lineage, BTreeMap<VarId, usize>)> {
    let out = factor_rec(simplified, 0);
    let counts = out.var_counts();
    (counts.values().sum::<usize>() < leaves).then_some((out, counts))
}

const MAX_DEPTH: usize = 32;

fn factor_rec(l: &Lineage, depth: usize) -> Lineage {
    if depth > MAX_DEPTH {
        return l.clone();
    }
    match l {
        Lineage::Or(children) => {
            // Recurse first so nested structures are already tight.
            let children: Vec<Lineage> =
                children.iter().map(|c| factor_rec(c, depth + 1)).collect();
            factor_or(children, depth)
        }
        Lineage::And(children) => {
            Lineage::And(children.iter().map(|c| factor_rec(c, depth + 1)).collect()).simplify()
        }
        Lineage::Not(e) => Lineage::not(factor_rec(e, depth + 1)),
        other => other.clone(),
    }
}

/// Factor an OR whose children are already factored: find the variable
/// appearing as a *positive top-level conjunct* in the most children, pull
/// it out of those children, and recurse on both halves.
fn factor_or(children: Vec<Lineage>, depth: usize) -> Lineage {
    if children.len() < 2 || depth > MAX_DEPTH {
        return Lineage::Or(children).simplify();
    }
    // Count, per variable, in how many children it is a positive
    // top-level conjunct.
    // Ordered map: `max_by_key` ties are already broken by `Reverse(*v)`,
    // but deterministic iteration removes any doubt.
    let mut counts: BTreeMap<VarId, usize> = BTreeMap::new();
    for c in &children {
        for v in top_level_vars(c) {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let Some((&pivot, &n)) = counts
        .iter()
        .max_by_key(|&(v, c)| (*c, std::cmp::Reverse(*v)))
    else {
        return Lineage::Or(children).simplify();
    };
    if n < 2 {
        return Lineage::Or(children).simplify();
    }
    // Split children into those containing the pivot conjunct and the rest.
    let mut with: Vec<Lineage> = Vec::new();
    let mut without: Vec<Lineage> = Vec::new();
    for c in children {
        match strip_conjunct(&c, pivot) {
            Some(rest) => with.push(rest),
            None => without.push(c),
        }
    }
    // pivot ∧ (r₁ ∨ r₂ ∨ …)
    let factored = Lineage::and(vec![Lineage::Var(pivot), factor_or(with, depth + 1)]);
    if without.is_empty() {
        factored
    } else {
        let mut rest = without;
        rest.push(factored);
        factor_or(rest, depth + 1)
    }
}

/// Positive variables at a child's top conjunct level: `x` itself, or the
/// direct `Var` children of an `And`.
fn top_level_vars(l: &Lineage) -> Vec<VarId> {
    match l {
        Lineage::Var(v) => vec![*v],
        Lineage::And(cs) => cs
            .iter()
            .filter_map(|c| match c {
                Lineage::Var(v) => Some(*v),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Remove `pivot` from a child's top-level conjuncts; `None` if absent.
fn strip_conjunct(l: &Lineage, pivot: VarId) -> Option<Lineage> {
    match l {
        Lineage::Var(v) if *v == pivot => Some(Lineage::Const(true)),
        Lineage::And(cs) if cs.contains(&Lineage::Var(pivot)) => {
            let rest: Vec<Lineage> = cs
                .iter()
                .filter(|c| **c != Lineage::Var(pivot))
                .cloned()
                .collect();
            Some(Lineage::and(rest))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// `P(l)` over independent variables, summed over every assignment.
    fn enumerated(l: &Lineage, probs: &BTreeMap<VarId, f64>) -> f64 {
        let vars: Vec<VarId> = probs.keys().copied().collect();
        let set = |bits: u32, v: VarId| {
            vars.iter()
                .position(|&x| x == v)
                .is_some_and(|at| bits & (1 << at) != 0)
        };
        (0..1u32 << vars.len())
            .filter(|&bits| l.eval(&|v| set(bits, v)))
            .map(|bits| {
                let weight = |(&v, &p): (&VarId, &f64)| if set(bits, v) { p } else { 1.0 - p };
                probs.iter().map(weight).product::<f64>()
            })
            .sum()
    }

    fn equivalent(a: &Lineage, b: &Lineage) {
        let mut vars = a.vars();
        vars.extend(b.vars());
        vars.sort();
        vars.dedup();
        for bits in 0..(1u32 << vars.len()) {
            let assign = |v: VarId| {
                let slot = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << slot) != 0
            };
            assert_eq!(
                a.eval(&assign),
                b.eval(&assign),
                "bits {bits:b}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn running_example_refactors_to_the_papers_form() {
        // (t2 ∧ t13) ∨ (t3 ∧ t13) → t13 ∧ (t2 ∨ t3)
        let dnf = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(2), Lineage::var(13)]),
            Lineage::And(vec![Lineage::var(3), Lineage::var(13)]),
        ]);
        let f = factor(&dnf);
        equivalent(&dnf, &f);
        assert!(f.is_read_once(), "factored form is read-once: {f}");
        assert_eq!(f.var_counts()[&VarId(13)], 1);
    }

    #[test]
    fn factored_probability_matches_exactly() {
        let dnf = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(0), Lineage::var(2)]),
            Lineage::And(vec![Lineage::var(3), Lineage::var(1)]),
        ]);
        let f = factor(&dnf);
        equivalent(&dnf, &f);
        let probs: BTreeMap<VarId, f64> =
            (0..4).map(|i| (VarId(i), 0.3 + 0.1 * i as f64)).collect();
        let (pa, pb) = (enumerated(&dnf, &probs), enumerated(&f, &probs));
        assert!((pa - pb).abs() < 1e-12);
        let before: usize = dnf.var_counts().values().sum();
        let after: usize = f.var_counts().values().sum();
        assert!(after < before, "{before} → {after}: {f}");
    }

    #[test]
    fn partial_overlap_keeps_unfactorable_branches() {
        // (a∧b) ∨ c: nothing shared; output equals the simplified input.
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::var(2),
        ]);
        assert_eq!(factor(&l), l.simplify());
    }

    #[test]
    fn absorbed_pivot_child_becomes_true() {
        // x ∨ (x∧y) should collapse to x by absorption through factoring.
        let l = Lineage::Or(vec![
            Lineage::var(0),
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
        ]);
        let f = factor(&l);
        equivalent(&l, &f);
        assert_eq!(f, Lineage::var(0));
    }

    #[test]
    fn read_once_inputs_are_untouched() {
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::var(2),
        ]);
        assert_eq!(factor(&l), l);
    }

    /// A raw seeded formula over a few variables: repeats, constants and
    /// negation, nothing simplified.
    fn seeded(rng: &mut Rng64, depth: u32) -> Lineage {
        if depth == 0 || rng.below_u64(4) == 0 {
            return if rng.chance(0.9) {
                Lineage::var(rng.below_u64(8))
            } else {
                Lineage::Const(rng.chance(0.5))
            };
        }
        let kids = (0..rng.range_usize(1, 5))
            .map(|_| seeded(rng, depth - 1))
            .collect();
        match rng.below_u64(5) {
            0 => Lineage::Not(Box::new(seeded(rng, depth - 1))),
            1 | 2 => Lineage::And(kids),
            _ => Lineage::Or(kids),
        }
    }

    #[test]
    fn normalize_hands_over_what_its_read_once_test_found() {
        let mut rng = Rng64::seed_from_u64(0x0F0C_7A11);
        let (mut read_once, mut factored_to_it) = (0, 0);
        for case in 0..2_000 {
            let l = seeded(&mut rng, 4);
            let normal = normalize(&l);
            // The form as it was defined before it carried its verdict.
            let simplified = l.simplify();
            let want = if simplified.is_read_once() {
                simplified.clone()
            } else {
                factor(&simplified)
            };
            assert_eq!(normal.formula, want, "case {case}: {l}");
            assert_eq!(normal.vars, want.vars(), "case {case}: {l}");
            assert_eq!(normal.read_once, want.is_read_once(), "case {case}: {l}");
            read_once += usize::from(normal.read_once);
            factored_to_it += usize::from(normal.read_once && !simplified.is_read_once());
        }
        assert!(
            read_once > 400 && factored_to_it > 20,
            "{read_once} / {factored_to_it}"
        );
    }

    #[test]
    fn never_increases_occurrences() {
        // A shape where naive distribution could grow: verify the guard.
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::And(vec![Lineage::var(0), Lineage::var(3)]),
        ]);
        let f = factor(&l);
        equivalent(&l, &f);
        let before: usize = l.simplify().var_counts().values().sum();
        let after: usize = f.var_counts().values().sum();
        assert!(after <= before);
    }
}
