//! Compiled lineage: a fixed arithmetic program for fast re-evaluation.
//!
//! The strategy-finding algorithms evaluate a result's confidence function
//! `F(p₁ … p_k)` millions of times with changing probabilities. Rather than
//! re-running Shannon expansion on every call, the expansion is performed
//! once — by the one compiler in the crate, the hash-consed pool of
//! [`crate::cache::CircuitCache`] — and the circuit under one root is then
//! *extracted* into a [`CompiledLineage`]: a flat array of nodes that name
//! their children by index and their variables by slot, so evaluation is a
//! walk over one allocation with no map, no search and no pointer chase.
//!
//! Pool nodes carry [`VarId`]s, because a structurally equal subcircuit
//! must mean the same function whichever formula it was compiled for. A
//! slot is a variable's position in *one* formula's sorted variable list,
//! so slots are resolved once, at extraction, and never at evaluation.

use crate::cache::CircuitCache;
use crate::expr::{Lineage, VarId};
use crate::Result;

/// The compiled arithmetic form of a lineage formula.
#[derive(Debug, Clone)]
pub struct CompiledLineage {
    pub(crate) vars: Vec<VarId>,
    /// Children precede parents; the root is the last node.
    pub(crate) nodes: Vec<Op>,
    /// The child lists of every `Product`/`DisjProduct`, back to back.
    pub(crate) args: Vec<u32>,
}

/// One arithmetic node. Children are indexes into
/// [`CompiledLineage::nodes`], `slot`s are indexes into the probability
/// slice (positions in [`CompiledLineage::vars`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// A constant probability.
    Const(f64),
    /// The probability of the variable in this slot.
    Var(u32),
    /// `1 - child` (negation).
    Complement(u32),
    /// `Π args[start..end]` (independent conjunction).
    Product { start: u32, end: u32 },
    /// `1 - Π (1 - args[start..end])` (independent disjunction).
    DisjProduct { start: u32, end: u32 },
    /// Shannon mix: `p_slot · hi + (1 - p_slot) · lo`.
    Mix { slot: u32, hi: u32, lo: u32 },
}

impl CompiledLineage {
    /// Compile a formula, spending at most `budget` Shannon expansions:
    /// compile it into a fresh pool and extract the root. Non-read-once
    /// formulas are factored first (see [`crate::factor::factor`]) to
    /// shrink the expansion tree.
    pub fn compile(lineage: &Lineage, budget: usize) -> Result<CompiledLineage> {
        let mut pool = CircuitCache::new();
        let id = pool.compile(lineage, budget)?;
        pool.extract(id)
    }

    /// The formula's variables in slot order; `probs[i]` in [`Self::eval`]
    /// is the probability of `self.vars()[i]`.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Evaluate with probabilities given per slot. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != self.vars().len()`.
    pub fn eval(&self, probs: &[f64]) -> f64 {
        assert_eq!(
            probs.len(),
            self.vars.len(),
            "expected one probability per variable"
        );
        self.eval_at(self.nodes.len().saturating_sub(1) as u32, probs)
    }

    /// Evaluate with a probability lookup keyed by variable id.
    pub fn eval_with<F: Fn(VarId) -> f64>(&self, lookup: F) -> f64 {
        let probs: Vec<f64> = self.vars.iter().map(|&v| lookup(v)).collect();
        self.eval(&probs)
    }

    /// The float operations, in the order, of the pool's memoized
    /// evaluation and of the interpreter's `exact` recursion. Extraction
    /// only writes in-range indexes and slots, so the `get` fallbacks
    /// (the neutral probability 0) are never taken; they keep the walk
    /// panic-free (PCQE-P002).
    fn eval_at(&self, node: u32, probs: &[f64]) -> f64 {
        let prob = |slot: u32| probs.get(slot as usize).copied().unwrap_or(0.0);
        let args = |start: u32, end: u32| {
            self.args
                .get(start as usize..end as usize)
                .unwrap_or_default()
        };
        match self.nodes.get(node as usize).copied() {
            None => 0.0,
            Some(Op::Const(c)) => c,
            Some(Op::Var(slot)) => prob(slot),
            Some(Op::Complement(c)) => 1.0 - self.eval_at(c, probs),
            Some(Op::Product { start, end }) => {
                let mut p = 1.0;
                for &c in args(start, end) {
                    p *= self.eval_at(c, probs);
                }
                p
            }
            Some(Op::DisjProduct { start, end }) => {
                let mut q = 1.0;
                for &c in args(start, end) {
                    q *= 1.0 - self.eval_at(c, probs);
                }
                1.0 - q
            }
            Some(Op::Mix { slot, hi, lo }) => {
                let p = prob(slot);
                p * self.eval_at(hi, probs) + (1.0 - p) * self.eval_at(lo, probs)
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::error::LineageError;
    use crate::prob::Evaluator;
    use std::collections::HashMap;

    #[test]
    fn compiled_matches_interpreter_read_once() {
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]);
        let c = CompiledLineage::compile(&l, 64).unwrap();
        assert_eq!(c.vars(), &[VarId(2), VarId(3), VarId(13)]);
        let p = c.eval(&[0.3, 0.4, 0.1]);
        assert!((p - 0.058).abs() < 1e-12);
    }

    #[test]
    fn compiled_matches_interpreter_shared_vars() {
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(0), Lineage::var(2)]),
            Lineage::And(vec![Lineage::var(1), Lineage::var(2)]),
        ]);
        let c = CompiledLineage::compile(&l, 1024).unwrap();
        let probs: HashMap<VarId, f64> = [(VarId(0), 0.3), (VarId(1), 0.6), (VarId(2), 0.9)]
            .into_iter()
            .collect();
        let exact = Evaluator::exact_only(1 << 16)
            .probability(&l, &probs)
            .unwrap();
        let compiled = c.eval_with(|v| probs[&v]);
        assert!((exact - compiled).abs() < 1e-12, "{exact} vs {compiled}");
    }

    #[test]
    fn budget_exceeded_propagates() {
        let mut children = Vec::new();
        for i in 0..12u64 {
            children.push(Lineage::And(vec![Lineage::var(i), Lineage::var(i + 1)]));
        }
        let l = Lineage::Or(children);
        assert!(matches!(
            CompiledLineage::compile(&l, 1),
            Err(LineageError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn eval_with_map_and_slices_agree() {
        let l = Lineage::or(vec![Lineage::var(5), Lineage::var(9)]);
        let c = CompiledLineage::compile(&l, 8).unwrap();
        let by_slice = c.eval(&[0.2, 0.5]);
        let by_map = c.eval_with(|v| if v.0 == 5 { 0.2 } else { 0.5 });
        assert_eq!(by_slice, by_map);
    }

    #[test]
    #[should_panic(expected = "one probability per variable")]
    fn eval_checks_arity() {
        let l = Lineage::var(1);
        let c = CompiledLineage::compile(&l, 1).unwrap();
        c.eval(&[]);
    }

    #[test]
    fn compiled_eval_is_bit_identical_to_interpreter() {
        // The cache's determinism argument leans on compile/eval mirroring
        // the interpreter's float-op order exactly — assert it bitwise on a
        // formula that exercises Product, DisjProduct, Mix and Complement.
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![
                Lineage::var(1),
                Lineage::Not(Box::new(Lineage::var(2))),
            ]),
            Lineage::var(3),
        ]);
        let pr: HashMap<VarId, f64> = [(0, 0.17), (1, 0.62), (2, 0.41), (3, 0.09)]
            .into_iter()
            .map(|(v, p)| (VarId(v), p))
            .collect();
        let interp = Evaluator::exact_only(1 << 12).probability(&l, &pr).unwrap();
        let c = CompiledLineage::compile(&l, 1 << 12).unwrap();
        let compiled = c.eval_with(|v| pr[&v]);
        assert_eq!(interp.to_bits(), compiled.to_bits());
    }
}
