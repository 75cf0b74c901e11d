//! The lineage formula representation.

use std::collections::BTreeMap;
use std::fmt;

/// A lineage variable: the id of one base tuple.
///
/// In the engine this is the base tuple's global [`TupleId`]; the lineage
/// crate stays independent of the storage layer by using its own newtype
/// over the same `u64`.
///
/// [`TupleId`]: https://docs.rs/pcqe-storage
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u64);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A boolean lineage formula over base-tuple variables.
///
/// Lineage is produced by the relational operators: selections keep lineage,
/// joins AND it, set-semantic projections and unions OR the lineage of
/// merged duplicates, and difference introduces negation. The formula is
/// kept in negation-unnormalised form; [`Lineage::simplify`] flattens
/// nested connectives and folds constants.
///
/// The total order (`Ord`) is the derived structural order; it carries no
/// semantic meaning and exists so formulas can key deterministic
/// `BTreeMap`s — in particular the compile memos of
/// [`crate::cache::CircuitCache`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lineage {
    /// Constant truth value (`Const(true)` = certain).
    Const(bool),
    /// A single base tuple.
    Var(VarId),
    /// Negation.
    Not(Box<Lineage>),
    /// Conjunction of all children.
    And(Vec<Lineage>),
    /// Disjunction of all children.
    Or(Vec<Lineage>),
}

impl Lineage {
    /// A variable leaf from a raw id.
    pub fn var(id: u64) -> Lineage {
        Lineage::Var(VarId(id))
    }

    /// Certain truth (used for data with no uncertainty).
    pub fn certain() -> Lineage {
        Lineage::Const(true)
    }

    /// Conjunction; flattens trivial cases eagerly.
    pub fn and(children: Vec<Lineage>) -> Lineage {
        Lineage::And(children).simplify()
    }

    /// Disjunction; flattens trivial cases eagerly.
    pub fn or(children: Vec<Lineage>) -> Lineage {
        Lineage::Or(children).simplify()
    }

    /// Negation; folds double negation and constants eagerly.
    #[allow(clippy::should_implement_trait)]
    pub fn not(child: Lineage) -> Lineage {
        Lineage::Not(Box::new(child)).simplify()
    }

    /// Number of occurrences of each variable.
    pub fn var_counts(&self) -> BTreeMap<VarId, usize> {
        let mut counts = BTreeMap::new();
        self.for_each_var(&mut |v| *counts.entry(v).or_insert(0) += 1);
        counts
    }

    /// Call `f` on every variable leaf, left to right, repeats included.
    pub(crate) fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Lineage::Const(_) => {}
            Lineage::Var(v) => f(*v),
            Lineage::Not(e) => e.for_each_var(f),
            Lineage::And(es) | Lineage::Or(es) => es.iter().for_each(|e| e.for_each_var(f)),
        }
    }

    /// Every variable leaf, sorted by id, repeats kept: one `Vec` and one
    /// sort, which is all `vars` and `is_read_once` need of a formula.
    fn sorted_leaves(&self) -> Vec<VarId> {
        let mut leaves = Vec::new();
        self.for_each_var(&mut |v| leaves.push(v));
        leaves.sort_unstable();
        leaves
    }

    /// The distinct variables in the formula, in id order.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vars = self.sorted_leaves();
        vars.dedup();
        vars
    }

    /// True if no variable occurs more than once (evaluation is then exact
    /// under independence without any Shannon expansion).
    pub fn is_read_once(&self) -> bool {
        self.sorted_leaves().is_sorted_by(|a, b| a < b)
    }

    /// True if the formula contains negation anywhere. Negation-free
    /// lineage is monotone in every variable — the property the strategy-
    /// finding algorithms rely on (raising a base confidence can only
    /// raise a result's confidence).
    pub fn contains_not(&self) -> bool {
        match self {
            Lineage::Const(_) | Lineage::Var(_) => false,
            Lineage::Not(_) => true,
            Lineage::And(es) | Lineage::Or(es) => es.iter().any(Lineage::contains_not),
        }
    }

    /// Number of nodes in the formula tree.
    pub fn size(&self) -> usize {
        match self {
            Lineage::Const(_) | Lineage::Var(_) => 1,
            Lineage::Not(e) => 1 + e.size(),
            Lineage::And(es) | Lineage::Or(es) => 1 + es.iter().map(Lineage::size).sum::<usize>(),
        }
    }

    /// Evaluate the formula under a boolean assignment.
    pub fn eval<F: Fn(VarId) -> bool>(&self, assign: &F) -> bool {
        match self {
            Lineage::Const(b) => *b,
            Lineage::Var(v) => assign(*v),
            Lineage::Not(e) => !e.eval(assign),
            Lineage::And(es) => es.iter().all(|e| e.eval(assign)),
            Lineage::Or(es) => es.iter().any(|e| e.eval(assign)),
        }
    }

    /// Substitute a truth value for one variable, then simplify.
    pub fn condition(&self, var: VarId, value: bool) -> Lineage {
        self.substitute(var, value).simplify()
    }

    fn substitute(&self, var: VarId, value: bool) -> Lineage {
        match self {
            Lineage::Const(b) => Lineage::Const(*b),
            Lineage::Var(v) => {
                if *v == var {
                    Lineage::Const(value)
                } else {
                    Lineage::Var(*v)
                }
            }
            Lineage::Not(e) => Lineage::Not(Box::new(e.substitute(var, value))),
            Lineage::And(es) => Lineage::And(es.iter().map(|e| e.substitute(var, value)).collect()),
            Lineage::Or(es) => Lineage::Or(es.iter().map(|e| e.substitute(var, value)).collect()),
        }
    }

    /// Simplify the formula: flatten nested connectives, fold constants,
    /// collapse double negation, deduplicate repeated children (the first
    /// occurrence stays where it is), and unwrap single-child connectives.
    /// The result is logically equivalent.
    pub fn simplify(&self) -> Lineage {
        match self {
            Lineage::Const(b) => Lineage::Const(*b),
            Lineage::Var(v) => Lineage::Var(*v),
            Lineage::Not(e) => match e.simplify() {
                Lineage::Const(b) => Lineage::Const(!b),
                Lineage::Not(inner) => *inner,
                other => Lineage::Not(Box::new(other)),
            },
            Lineage::And(es) => simplify_list(es, true),
            Lineage::Or(es) => simplify_list(es, false),
        }
    }
}

/// [`Lineage::simplify`] for a conjunction (`and`) or a disjunction: a
/// child equal to the connective's identity (`⊤` under AND, `⊥` under OR)
/// is dropped, its opposite decides the whole list, a child of the same
/// connective is spliced in place, and the flattened list is deduplicated
/// once at the end.
fn simplify_list(es: &[Lineage], and: bool) -> Lineage {
    let mut out: Vec<Lineage> = Vec::with_capacity(es.len());
    for e in es {
        match e.simplify() {
            Lineage::Const(b) if b == and => {}
            Lineage::Const(b) => return Lineage::Const(b),
            Lineage::And(inner) if and => out.extend(inner),
            Lineage::Or(inner) if !and => out.extend(inner),
            other => out.push(other),
        }
    }
    keep_first_occurrences(&mut out);
    // Pop-then-inspect instead of len-then-index: no `expect` on the
    // query-scoring path (PCQE-P002).
    match out.pop() {
        None => Lineage::Const(and),
        Some(single) if out.is_empty() => single,
        Some(last) => {
            out.push(last);
            if and {
                Lineage::And(out)
            } else {
                Lineage::Or(out)
            }
        }
    }
}

/// Up to this many children are deduplicated by comparing each with the
/// ones kept before it, in place; longer lists by one index sort.
const SMALL_LIST: usize = 8;

/// Drop every child equal to an earlier one, keeping the rest in order.
/// A strictly ascending list — what a scan hands an OR-merge, one tuple
/// id after the other — has no repeats and costs one pass of comparisons.
fn keep_first_occurrences(out: &mut Vec<Lineage>) {
    if out.is_sorted_by(|a, b| a < b) {
        return;
    }
    if out.len() <= SMALL_LIST {
        let mut at = 1;
        while at < out.len() {
            let (kept, rest) = out.split_at(at);
            if rest.first().is_some_and(|e| kept.contains(e)) {
                out.remove(at);
            } else {
                at += 1;
            }
        }
        return;
    }
    // Sorting (child, position) pairs brings equal children together with
    // the earliest first, so every pair that follows an equal child marks
    // a repeat.
    let mut order: Vec<(&Lineage, usize)> = out.iter().zip(0..).collect();
    order.sort_unstable();
    let mut repeat = vec![false; out.len()];
    for (a, b) in order.iter().zip(order.iter().skip(1)) {
        if a.0 == b.0 {
            if let Some(r) = repeat.get_mut(b.1) {
                *r = true;
            }
        }
    }
    let mut repeat = repeat.into_iter();
    out.retain(|_| !repeat.next().unwrap_or(false));
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lineage::Const(b) => write!(f, "{}", if *b { "⊤" } else { "⊥" }),
            Lineage::Var(v) => write!(f, "{v}"),
            Lineage::Not(e) => write!(f, "¬{e}"),
            Lineage::And(es) => {
                f.write_str("(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∧ ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Lineage::Or(es) => {
                f.write_str("(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∨ ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// `simplify` as it was defined before the single dedupe pass: every
    /// child checked against the kept ones with `contains` as it arrives.
    fn reference_simplify(l: &Lineage) -> Lineage {
        let (es, and) = match l {
            Lineage::Const(_) | Lineage::Var(_) => return l.clone(),
            Lineage::Not(e) => {
                return match reference_simplify(e) {
                    Lineage::Const(b) => Lineage::Const(!b),
                    Lineage::Not(inner) => *inner,
                    other => Lineage::Not(Box::new(other)),
                }
            }
            Lineage::And(es) => (es, true),
            Lineage::Or(es) => (es, false),
        };
        let mut out: Vec<Lineage> = Vec::new();
        for e in es {
            let spliced = match (reference_simplify(e), and) {
                (Lineage::Const(b), _) if b == and => vec![],
                (Lineage::Const(b), _) => return Lineage::Const(b),
                (Lineage::And(inner), true) | (Lineage::Or(inner), false) => inner,
                (other, _) => vec![other],
            };
            for i in spliced {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
        }
        match out.len() {
            0 => Lineage::Const(and),
            1 => out.remove(0),
            _ if and => Lineage::And(out),
            _ => Lineage::Or(out),
        }
    }

    /// Occurrence counts by a map walk, the definition `vars` and
    /// `is_read_once` were written against.
    fn reference_counts(l: &Lineage, counts: &mut BTreeMap<VarId, usize>) {
        match l {
            Lineage::Const(_) => {}
            Lineage::Var(v) => *counts.entry(*v).or_insert(0) += 1,
            Lineage::Not(e) => reference_counts(e, counts),
            Lineage::And(es) | Lineage::Or(es) => {
                es.iter().for_each(|e| reference_counts(e, counts))
            }
        }
    }

    /// A raw formula (nothing simplified on the way) with `width` children
    /// at the top, small nested lists of either connective below,
    /// constants, negation, and leaves drawn from few enough variables
    /// that repeats land at every position.
    fn raw_formula(rng: &mut Rng64, width: usize, depth: u32) -> Lineage {
        let universe = (width as u64 / 2).max(3);
        let children = (0..width)
            .map(|_| match rng.below_u64(if depth == 0 { 8 } else { 12 }) {
                0 => Lineage::Const(rng.chance(0.9)),
                1 => Lineage::Not(Box::new(Lineage::var(rng.below_u64(universe)))),
                2..=7 => Lineage::var(rng.below_u64(universe)),
                _ => {
                    let n = rng.range_usize(0, 5);
                    raw_formula(rng, n, depth - 1)
                }
            })
            .collect();
        if rng.chance(0.5) {
            Lineage::And(children)
        } else {
            Lineage::Or(children)
        }
    }

    #[test]
    fn passes_match_their_reference_definitions_on_seeded_formulas() {
        let mut rng = Rng64::seed_from_u64(0x51AA_11F1);
        let mut widths: Vec<usize> = (1..=24).collect();
        widths.extend([63, 64, 65, 300, 2_000]);
        let (mut shortened, mut folded) = (0, 0);
        for round in 0..12 {
            for &width in &widths {
                let mut l = raw_formula(&mut rng, width, 2);
                if round % 3 == 0 {
                    // No constant at the top level: the list survives to
                    // the dedupe.
                    if let Lineage::And(es) | Lineage::Or(es) = &mut l {
                        es.retain(|e| !matches!(e, Lineage::Const(_)));
                    }
                }
                let got = l.simplify();
                assert_eq!(got, reference_simplify(&l), "width {width}: {l}");
                assert_eq!(got.simplify(), got, "idempotent at width {width}");
                shortened += usize::from(got.size() < l.size());
                folded += usize::from(matches!(got, Lineage::Const(_)));
                let mut counts = BTreeMap::new();
                reference_counts(&l, &mut counts);
                assert_eq!(l.vars(), counts.keys().copied().collect::<Vec<_>>());
                assert_eq!(l.is_read_once(), counts.values().all(|&c| c == 1));
                assert_eq!(l.var_counts(), counts);
            }
        }
        assert!(shortened > 100 && folded > 20, "{shortened} / {folded}");
    }

    #[test]
    fn dedupe_keeps_first_occurrences_at_every_position_and_length() {
        // One repeat of child `from` placed at `to`, lists on both sides
        // of the in-place / index-sort switch, ascending and descending.
        for n in [2usize, 3, SMALL_LIST, SMALL_LIST + 1, 40] {
            for descending in [false, true] {
                let ids: Vec<u64> = if descending {
                    (0..n as u64).rev().collect()
                } else {
                    (0..n as u64).collect()
                };
                for from in 0..n {
                    for to in 0..=n {
                        let mut children: Vec<Lineage> =
                            ids.iter().map(|&v| Lineage::var(v)).collect();
                        children.insert(to, Lineage::var(ids[from]));
                        let l = Lineage::Or(children);
                        assert_eq!(l.simplify(), reference_simplify(&l), "{l}");
                    }
                }
            }
        }
        // Strictly ascending children are returned as they are.
        let ascending = Lineage::Or((0..500).map(Lineage::var).collect());
        assert_eq!(ascending.simplify(), ascending);
    }

    #[test]
    fn constructors_simplify_eagerly() {
        assert_eq!(Lineage::and(vec![]), Lineage::Const(true));
        assert_eq!(Lineage::or(vec![]), Lineage::Const(false));
        assert_eq!(
            Lineage::and(vec![Lineage::var(1), Lineage::Const(true)]),
            Lineage::var(1)
        );
        assert_eq!(
            Lineage::or(vec![Lineage::var(1), Lineage::Const(true)]),
            Lineage::Const(true)
        );
        assert_eq!(Lineage::not(Lineage::not(Lineage::var(2))), Lineage::var(2));
    }

    #[test]
    fn simplify_flattens_and_dedups() {
        let l = Lineage::And(vec![
            Lineage::And(vec![Lineage::var(1), Lineage::var(2)]),
            Lineage::var(1),
        ]);
        assert_eq!(
            l.simplify(),
            Lineage::And(vec![Lineage::var(1), Lineage::var(2)])
        );
        let o = Lineage::Or(vec![
            Lineage::Or(vec![Lineage::var(3), Lineage::var(3)]),
            Lineage::Const(false),
        ]);
        assert_eq!(o.simplify(), Lineage::var(3));
    }

    #[test]
    fn var_counts_and_read_once() {
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]);
        assert!(l.is_read_once());
        assert_eq!(l.vars(), vec![VarId(2), VarId(3), VarId(13)]);

        let shared = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(1), Lineage::var(2)]),
            Lineage::And(vec![Lineage::var(1), Lineage::var(3)]),
        ]);
        assert!(!shared.is_read_once());
        assert_eq!(shared.var_counts()[&VarId(1)], 2);
    }

    #[test]
    fn eval_matches_truth_table() {
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::not(Lineage::var(2)),
        ]);
        let f = |bits: [bool; 3]| l.eval(&|v: VarId| bits[v.0 as usize]);
        assert!(f([true, false, false]));
        assert!(f([false, true, false]));
        assert!(!f([false, false, false]));
        assert!(!f([true, true, true]));
    }

    #[test]
    fn conditioning_substitutes_and_simplifies() {
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]);
        assert_eq!(l.condition(VarId(13), false), Lineage::Const(false));
        assert_eq!(
            l.condition(VarId(2), true),
            Lineage::var(13),
            "t2 true makes the OR certain, leaving t13"
        );
    }

    #[test]
    fn contains_not_detects_negation() {
        assert!(!Lineage::and(vec![Lineage::var(1), Lineage::var(2)]).contains_not());
        let negated = Lineage::And(vec![
            Lineage::var(1),
            Lineage::Not(Box::new(Lineage::var(2))),
        ]);
        assert!(negated.contains_not());
    }

    #[test]
    fn size_counts_nodes() {
        let l = Lineage::And(vec![
            Lineage::var(1),
            Lineage::Not(Box::new(Lineage::var(2))),
        ]);
        assert_eq!(l.size(), 4);
    }

    #[test]
    fn display_is_readable() {
        let l = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ]);
        assert_eq!(l.to_string(), "((v2 ∨ v3) ∧ v13)");
    }
}
