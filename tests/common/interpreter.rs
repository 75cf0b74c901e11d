//! The reference confidence computation: an interpreter of the
//! independence/Shannon decomposition (Koch & Olteanu, "Conditioning
//! Probabilistic Databases"), which the suites hold the circuit pool to.
//!
//! Production computes exact confidence in one place, the hash-consed
//! pool of `pcqe::lineage::CircuitCache`. This is a second spelling of the
//! same recursion, written on the crate's public API only — `simplify`,
//! `is_read_once`, `factor`, `condition` — with its own pivot rule and its
//! own budget step, and no pool, memo or circuit. Where the two agree bit
//! for bit, they agree because both run the decomposition's float
//! operations in the order the decomposition fixes: `Π p` over the
//! children of an independent AND, `1 − Π(1 − p)` over those of an
//! independent OR, `p·hi + (1 − p)·lo` at a Shannon expansion.

use pcqe::algebra::{DerivedTuple, ResultSet, ScoredTuple};
use pcqe::lineage::{bounds, Lineage, LineageError, ProbSource, VarId};
use std::collections::BTreeMap;

/// Probability that `lineage` is true under independent variables, with
/// at most `budget` Shannon expansions: past that,
/// [`LineageError::BudgetExceeded`] with a zero remainder, as the pool
/// reports it.
pub fn probability<P: ProbSource>(
    lineage: &Lineage,
    probs: &P,
    budget: usize,
) -> Result<f64, LineageError> {
    let mut budget = budget;
    exact(&normal_form(lineage), probs, &mut budget)
}

/// Every row with its confidence: exact within `budget` expansions, and
/// the lower end of the row's Fréchet interval past it — a sound value
/// for release, since `lower > β` implies `exact > β`.
pub fn score<P: ProbSource>(
    rows: &ResultSet,
    probs: &P,
    budget: usize,
) -> Result<Vec<ScoredTuple>, LineageError> {
    let scored = |row: &DerivedTuple| {
        let confidence = match probability(&row.lineage, probs, budget) {
            Err(LineageError::BudgetExceeded { .. }) => bounds(&row.lineage, probs)?.lower,
            exact => exact?,
        };
        Ok(ScoredTuple {
            tuple: row.tuple.clone(),
            lineage: row.lineage.clone(),
            confidence,
        })
    };
    rows.rows().iter().map(scored).collect()
}

/// The formula expansion starts from: simplified, then factored unless
/// already read-once (factoring pulls shared conjuncts out of OR
/// branches, which saves expansions).
fn normal_form(lineage: &Lineage) -> Lineage {
    let simplified = lineage.simplify();
    if simplified.is_read_once() {
        simplified
    } else {
        pcqe::lineage::factor(&simplified)
    }
}

fn exact<P: ProbSource>(l: &Lineage, probs: &P, budget: &mut usize) -> Result<f64, LineageError> {
    let known = |v: VarId| probs.prob(v).ok_or(LineageError::UnknownVar(v));
    match l {
        Lineage::Const(b) => Ok(if *b { 1.0 } else { 0.0 }),
        Lineage::Var(v) => known(*v),
        Lineage::Not(e) => Ok(1.0 - exact(e, probs, budget)?),
        Lineage::And(es) | Lineage::Or(es) => {
            if let Some(v) = pivot(es) {
                if *budget == 0 {
                    return Err(LineageError::BudgetExceeded { budget: 0 });
                }
                *budget -= 1;
                let p = known(v)?;
                let hi = exact(&l.condition(v, true), probs, budget)?;
                let lo = exact(&l.condition(v, false), probs, budget)?;
                return Ok(p * hi + (1.0 - p) * lo);
            }
            let and = matches!(l, Lineage::And(_));
            let mut product = 1.0;
            for e in es {
                let p = exact(e, probs, budget)?;
                product *= if and { p } else { 1.0 - p };
            }
            Ok(if and { product } else { 1.0 - product })
        }
    }
}

/// The Shannon pivot of a connective whose children share a variable:
/// the variable in the most children, the smallest id on a tie. A
/// variable repeated inside one child counts once — sharing within a
/// child is the child's own expansion's business. `None` when no
/// variable is in two children, so the children are independent.
fn pivot(children: &[Lineage]) -> Option<VarId> {
    let mut holders: BTreeMap<VarId, usize> = BTreeMap::new();
    for child in children {
        for v in child.vars() {
            *holders.entry(v).or_default() += 1;
        }
    }
    let mut best: Option<(VarId, usize)> = None;
    for (v, n) in holders {
        if n > 1 && best.is_none_or(|(_, most)| n > most) {
            best = Some((v, n));
        }
    }
    best.map(|(v, _)| v)
}
