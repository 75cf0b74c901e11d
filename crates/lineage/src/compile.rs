//! Compiled lineage: a fixed arithmetic program for fast re-evaluation.
//!
//! The strategy-finding algorithms evaluate a result's confidence function
//! `F(p₁ … p_k)` millions of times with changing probabilities. Rather than
//! re-running Shannon expansion on every call, the expansion is performed
//! once — by the one compiler in the crate, the hash-consed pool of
//! [`crate::cache::CircuitCache`] — and the circuit under one root is then
//! *extracted* into a [`CompiledLineage`]: a flat array of nodes that name
//! their children by index and their variables by slot, so evaluation is
//! one forward pass over that array — children first, each node computed
//! once from its children's values — with no map, no search and no
//! pointer chase.
//!
//! Pool nodes carry [`VarId`]s, because a structurally equal subcircuit
//! must mean the same function whichever formula it was compiled for. A
//! slot is a variable's position in *one* formula's sorted variable list,
//! so slots are resolved once, at extraction, and never at evaluation.
//!
//! Extraction also records each slot's *cone*: the nodes whose value reads
//! that slot's probability, directly or through a child. A caller that
//! keeps a pass's node values can then follow a change of one probability
//! by recomputing the cone alone ([`CompiledLineage::update`]) — the
//! branch-and-bound's step changes exactly one base tuple.

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
    /// Every slot's cone, in one allocation: `vars.len() + 1` offsets
    /// into this same list, then the cones back to back, each in ascending
    /// node order — slot `s`'s is `cones[cones[s]..cones[s + 1]]`.
    pub(crate) cones: Vec<u32>,
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

    /// Number of nodes: the length of the value buffer
    /// [`Self::eval_into`] and [`Self::update`] work in.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Evaluate with probabilities given per slot: [`Self::eval_into`] a
    /// buffer of node values allocated for the call.
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
        let mut values = vec![0.0; self.nodes.len()];
        self.eval_into(|slot| probs.get(slot).copied().unwrap_or(0.0), &mut values)
    }

    /// One forward pass: every node's value, children first, into
    /// `values` ([`Self::node_count`] of them, in the caller's buffer; it
    /// allocates nothing), slot `s` having probability `prob(s)`. Returns
    /// the root's value, the formula's probability.
    pub fn eval_into(&self, prob: impl Fn(usize) -> f64, values: &mut [f64]) -> f64 {
        for (at, &op) in self.nodes.iter().enumerate() {
            let v = self.value_of(op, values, &prob);
            if let Some(cell) = values.get_mut(at) {
                *cell = v;
            }
        }
        self.root(values)
    }

    /// Follow a change of slot `slot`'s probability in `values`, the node
    /// values of a pass at the old probabilities: recompute the slot's cone
    /// alone, in ascending order, so each node reads children that are
    /// already current. A recomputed node applies the float operations a
    /// full pass would to the values a full pass would give its children,
    /// and every other node's inputs did not change, so `values` — root
    /// included, which is returned — ends bit for bit where
    /// [`Self::eval_into`] at the new probabilities would put it.
    pub fn update(&self, slot: usize, prob: impl Fn(usize) -> f64, values: &mut [f64]) -> f64 {
        for &at in self.cone(slot) {
            let at = at as usize;
            if let Some(&op) = self.nodes.get(at) {
                let v = self.value_of(op, values, &prob);
                if let Some(cell) = values.get_mut(at) {
                    *cell = v;
                }
            }
        }
        self.root(values)
    }

    /// The nodes reading slot `slot`'s probability, directly or through a
    /// child, ascending; empty past the last slot.
    pub(crate) fn cone(&self, slot: usize) -> &[u32] {
        let bound = |s: usize| self.cones.get(s).map(|&at| at as usize);
        match (bound(slot), bound(slot + 1)) {
            (Some(start), Some(end)) if slot < self.vars.len() => {
                self.cones.get(start..end).unwrap_or_default()
            }
            _ => &[],
        }
    }

    /// Record every slot's cone from the placed nodes, in one pass,
    /// children first: a node reads its own slot (a `Var` leaf, a `Mix`
    /// pivot) and whatever its children read, kept as a row of bit words
    /// per node; the rows are then inverted into [`Self::cones`], sized
    /// exactly. A slot past the last (a variable outside the root's list,
    /// which extraction never produces) reads as nothing.
    pub(crate) fn record_cones(&mut self) {
        let slots = self.vars.len();
        let words = slots.div_ceil(64);
        let mut rows = vec![0u64; self.nodes.len() * words];
        for (at, &op) in self.nodes.iter().enumerate() {
            let (placed, row) = rows.split_at_mut(at * words);
            let row = row.get_mut(..words).unwrap_or_default();
            if let Op::Var(slot) | Op::Mix { slot, .. } = op {
                let s = slot as usize;
                if let Some(word) = row.get_mut(s / 64).filter(|_| s < slots) {
                    *word |= 1 << (s % 64);
                }
            }
            let mut read = |child: u32| {
                let start = child as usize * words;
                let child = placed.get(start..start + words).unwrap_or_default();
                row.iter_mut().zip(child).for_each(|(word, c)| *word |= c);
            };
            match op {
                Op::Const(_) | Op::Var(_) => {}
                Op::Complement(c) => read(c),
                Op::Product { start, end } | Op::DisjProduct { start, end } => {
                    let children = self.args.get(start as usize..end as usize);
                    children.unwrap_or_default().iter().for_each(|&c| read(c));
                }
                Op::Mix { hi, lo, .. } => {
                    read(hi);
                    read(lo);
                }
            }
        }
        // Count each slot's cone into its offset, turn the counts into
        // each cone's end, and fill every cone from its end, the nodes
        // taken last to first — which leaves each offset at its cone's
        // start and each cone ascending.
        let rows = || rows.chunks(words.max(1));
        let total: usize = rows().flatten().map(|w| w.count_ones() as usize).sum();
        let mut cones = vec![0u32; slots + 1 + total];
        for row in rows() {
            each_bit(row, |s| {
                if let Some(count) = cones.get_mut(s) {
                    *count += 1;
                }
            });
        }
        let mut end = (slots + 1) as u32;
        for offset in cones.iter_mut().take(slots + 1) {
            end += *offset;
            *offset = end;
        }
        for (at, row) in rows().enumerate().rev() {
            each_bit(row, |s| {
                if let Some(offset) = cones.get_mut(s) {
                    *offset -= 1;
                    let pos = *offset as usize;
                    if let Some(entry) = cones.get_mut(pos) {
                        *entry = at as u32;
                    }
                }
            });
        }
        self.cones = cones;
    }

    fn root(&self, values: &[f64]) -> f64 {
        let root = self.nodes.len().checked_sub(1);
        root.and_then(|at| values.get(at)).copied().unwrap_or(0.0)
    }

    /// One node's value from its children's in `values`: the float
    /// operations, in the order, of the pool's memoized evaluation.
    /// Extraction only writes
    /// in-range indexes and slots, and children precede their parents, so
    /// the `get` fallbacks (the neutral probability 0) are never taken;
    /// they keep the pass panic-free (PCQE-P002).
    fn value_of(&self, op: Op, values: &[f64], prob: &impl Fn(usize) -> f64) -> f64 {
        let value = |node: u32| values.get(node as usize).copied().unwrap_or(0.0);
        let args = |start: u32, end: u32| {
            self.args
                .get(start as usize..end as usize)
                .unwrap_or_default()
        };
        match op {
            Op::Const(c) => c,
            Op::Var(slot) => prob(slot as usize),
            Op::Complement(c) => 1.0 - value(c),
            Op::Product { start, end } => {
                let mut p = 1.0;
                for &c in args(start, end) {
                    p *= value(c);
                }
                p
            }
            Op::DisjProduct { start, end } => {
                let mut q = 1.0;
                for &c in args(start, end) {
                    q *= 1.0 - value(c);
                }
                1.0 - q
            }
            Op::Mix { slot, hi, lo } => {
                let p = prob(slot as usize);
                p * value(hi) + (1.0 - p) * value(lo)
            }
        }
    }
}

/// Call `f` on each slot a row of bit words holds, ascending.
fn each_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::cache::{CircuitCache, Evaluator};
    use crate::error::LineageError;
    use std::collections::BTreeMap;

    #[test]
    fn compiled_read_once_gives_the_papers_value() {
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
    fn compiled_matches_enumeration_on_shared_vars() {
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(0), Lineage::var(2)]),
            Lineage::And(vec![Lineage::var(1), Lineage::var(2)]),
        ]);
        let c = CompiledLineage::compile(&l, 1024).unwrap();
        let probs = [0.3, 0.6, 0.9];
        // At least two of three: every assignment with two or three set.
        let mut exact = 0.0;
        for bits in 0..8u32 {
            if bits.count_ones() >= 2 {
                let weight =
                    |(at, &p): (usize, &f64)| if bits & (1 << at) != 0 { p } else { 1.0 - p };
                exact += probs.iter().enumerate().map(weight).product::<f64>();
            }
        }
        let slots: Vec<f64> = c.vars().iter().map(|v| probs[v.0 as usize]).collect();
        let compiled = c.eval(&slots);
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
    fn eval_slots_follow_vars_order() {
        let l = Lineage::or(vec![Lineage::var(9), Lineage::var(5)]);
        let c = CompiledLineage::compile(&l, 8).unwrap();
        assert_eq!(c.vars(), [VarId(5), VarId(9)]);
        // 1 − (1 − 0.2)(1 − 0.5), t5 at 0.2 and t9 at 0.5.
        assert!((c.eval(&[0.2, 0.5]) - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one probability per variable")]
    fn eval_checks_arity() {
        let l = Lineage::var(1);
        let c = CompiledLineage::compile(&l, 1).unwrap();
        c.eval(&[]);
    }

    #[test]
    fn cones_hold_exactly_the_nodes_a_slot_reaches() {
        // (x0 ∧ x1) ∨ (x0 ∧ x2): a Mix on x0 over two read-once cofactors;
        // and 70 variables, so a node's reads span two bit words.
        let mix = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(0), Lineage::var(2)]),
        ]);
        let wide = Lineage::Or(
            (0..35u64)
                .map(|g| Lineage::And(vec![Lineage::var(2 * g), Lineage::var(2 * g + 1)]))
                .chain([Lineage::Not(Box::new(Lineage::var(99)))])
                .collect(),
        );
        for l in [mix, wide] {
            let c = CompiledLineage::compile(&l, 64).unwrap();
            let root = c.node_count() as u32 - 1;
            for slot in 0..c.vars().len() {
                let cone = c.cone(slot);
                assert!(cone.windows(2).all(|w| w[0] < w[1]), "ascending");
                assert_eq!(cone.last(), Some(&root), "slot {slot} reaches the root");
                // A node is in the cone iff it reads the slot or a child in it.
                for (at, op) in c.nodes.iter().enumerate() {
                    let reads = |n: &u32| cone.contains(n);
                    let expected = match *op {
                        Op::Const(_) => false,
                        Op::Var(s) => s as usize == slot,
                        Op::Complement(ch) => reads(&ch),
                        Op::Product { start, end } | Op::DisjProduct { start, end } => {
                            c.args[start as usize..end as usize].iter().any(reads)
                        }
                        Op::Mix { slot: s, hi, lo } => {
                            s as usize == slot || reads(&hi) || reads(&lo)
                        }
                    };
                    assert_eq!(cone.contains(&(at as u32)), expected, "node {at}");
                }
            }
            assert!(c.cone(c.vars().len()).is_empty(), "no slot past the last");
        }
    }

    #[test]
    fn updating_a_cone_is_a_full_pass() {
        // Shared variables (Mix and DAG-shared nodes) and a negation:
        // after every single-slot change, the cone update leaves every
        // node where a fresh forward pass puts it.
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(1), Lineage::var(2)]),
            Lineage::And(vec![
                Lineage::var(2),
                Lineage::Not(Box::new(Lineage::var(3))),
            ]),
            Lineage::var(4),
        ]);
        let c = CompiledLineage::compile(&l, 1 << 12).unwrap();
        let mut probs = vec![0.2, 0.35, 0.5, 0.65, 0.1];
        let mut kept = vec![0.0; c.node_count()];
        c.eval_into(|s| probs[s], &mut kept);
        let mut fresh = vec![0.0; c.node_count()];
        for step in 0..40usize {
            let slot = step * 7 % probs.len();
            probs[slot] = (probs[slot] + 0.137) % 1.0;
            let updated = c.update(slot, |s| probs[s], &mut kept);
            let full = c.eval_into(|s| probs[s], &mut fresh);
            assert_eq!(updated.to_bits(), full.to_bits(), "step {step}");
            assert_eq!(updated.to_bits(), c.eval(&probs).to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&kept), bits(&fresh), "step {step}");
        }
    }

    #[test]
    fn compiled_eval_is_bit_identical_to_the_pool() {
        // The flat circuit must repeat the pool's float operations in the
        // pool's order — assert it bitwise on a formula that exercises
        // Product, DisjProduct, Mix and Complement.
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![
                Lineage::var(1),
                Lineage::Not(Box::new(Lineage::var(2))),
            ]),
            Lineage::var(3),
        ]);
        let pr: BTreeMap<VarId, f64> = [(0, 0.17), (1, 0.62), (2, 0.41), (3, 0.09)]
            .into_iter()
            .map(|(v, p)| (VarId(v), p))
            .collect();
        let mut pool = CircuitCache::new();
        pr.iter().for_each(|(&v, &p)| pool.set_prob(v, p));
        let pooled = pool
            .score_lineage(&l, &Evaluator { budget: 1 << 12 })
            .unwrap();
        let c = CompiledLineage::compile(&l, 1 << 12).unwrap();
        let slots: Vec<f64> = c.vars().iter().map(|v| pr[v]).collect();
        let compiled = c.eval(&slots);
        assert_eq!(pooled.to_bits(), compiled.to_bits());
    }
}
