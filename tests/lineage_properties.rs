//! Seeded property tests over the lineage substrate: simplification is
//! semantics-preserving, exact probability matches brute-force
//! enumeration, the compiled form matches the interpreter, and Monte-Carlo
//! estimation converges to the exact value.

mod common;

use common::{for_each_case, random_lineage, random_positive_lineage, random_probs};
use pcqe::lineage::{CircuitCache, CompiledLineage, Evaluator, Lineage, MonteCarlo, Rng64, VarId};
use std::collections::HashMap;

const MAX_VARS: u64 = 5;
const DEPTH: u32 = 3;
const CASES: u64 = 256;

fn lineage(rng: &mut Rng64) -> Lineage {
    random_lineage(rng, MAX_VARS, DEPTH)
}

fn prob_map(rng: &mut Rng64) -> (Vec<f64>, HashMap<VarId, f64>) {
    let probs = random_probs(rng, MAX_VARS as usize);
    let map = (0..MAX_VARS)
        .map(|i| (VarId(i), probs[i as usize]))
        .collect();
    (probs, map)
}

/// Brute-force probability by enumerating all assignments of the formula's
/// variables.
fn brute_force(l: &Lineage, probs: &[f64]) -> f64 {
    let vars = l.vars();
    let mut total = 0.0;
    for bits in 0..(1u32 << vars.len()) {
        let assign = |v: VarId| {
            let slot = vars.iter().position(|&x| x == v).expect("collected var");
            bits & (1 << slot) != 0
        };
        if l.eval(&assign) {
            let mut w = 1.0;
            for (slot, &v) in vars.iter().enumerate() {
                let p = probs[v.0 as usize];
                w *= if bits & (1 << slot) != 0 { p } else { 1.0 - p };
            }
            total += w;
        }
    }
    total
}

#[test]
fn simplify_preserves_semantics() {
    for_each_case(CASES, 0x11AE_0001, |rng| {
        let l = lineage(rng);
        let bits = rng.below_u64(32) as u32;
        let s = l.simplify();
        let assign = |v: VarId| bits & (1 << v.0) != 0;
        assert_eq!(l.eval(&assign), s.eval(&assign), "{l} vs {s}");
    });
}

#[test]
fn simplify_is_idempotent() {
    for_each_case(CASES, 0x11AE_0002, |rng| {
        let l = lineage(rng);
        let once = l.simplify();
        let twice = once.simplify();
        assert_eq!(once, twice);
    });
}

#[test]
fn exact_probability_matches_brute_force() {
    for_each_case(CASES, 0x11AE_0003, |rng| {
        let l = lineage(rng);
        let (probs, map) = prob_map(rng);
        let exact = Evaluator::exact_only(1 << 16)
            .probability(&l, &map)
            .unwrap();
        let brute = brute_force(&l, &probs);
        assert!(
            (exact - brute).abs() < 1e-9,
            "exact {exact} vs brute {brute} for {l}"
        );
        assert!((-1e-9..=1.0 + 1e-9).contains(&exact));
    });
}

#[test]
fn compiled_matches_interpreter() {
    for_each_case(CASES, 0x11AE_0004, |rng| {
        // Not, constants and shared variables all occur in this shape
        // space; the flat circuit must repeat the interpreter's float
        // operations in its order, so equality is on the bits.
        let l = lineage(rng);
        let (_, map) = prob_map(rng);
        let exact = Evaluator::exact_only(1 << 16)
            .probability(&l, &map)
            .unwrap();
        let compiled = CompiledLineage::compile(&l, 1 << 16).unwrap();
        let by_lookup = compiled.eval_with(|v| map[&v]);
        let slots: Vec<f64> = compiled.vars().iter().map(|v| map[v]).collect();
        let by_slot = compiled.eval(&slots);
        assert_eq!(exact.to_bits(), by_lookup.to_bits(), "eval_with for {l}");
        assert_eq!(exact.to_bits(), by_slot.to_bits(), "eval for {l}");
    });
}

#[test]
fn tight_budgets_fail_and_succeed_where_the_interpreter_does() {
    let mut exhausted = 0u32;
    for_each_case(CASES, 0x11AE_0009, |rng| {
        let l = lineage(rng);
        let (_, map) = prob_map(rng);
        for budget in [0usize, 1, 2, 4, 8] {
            // The interpreter is the oracle for the standalone compile, a
            // cold pool and a pool that has seen the formula before: same
            // success, same value bits, same typed error.
            let oracle = Evaluator::exact_only(budget).probability(&l, &map);
            let standalone = CompiledLineage::compile(&l, budget).map(|c| c.eval_with(|v| map[&v]));
            let mut cold = CircuitCache::new();
            let mut warm = CircuitCache::new();
            let _ = warm.compile(&l, 1 << 16);
            let pooled = [&mut cold, &mut warm].map(|pool| {
                let id = pool.compile(&l, budget)?;
                let circuit = pool.compiled(id).expect("id just issued");
                Ok(circuit.eval_with(|v| map[&v]))
            });
            for (name, got) in [
                ("standalone", &standalone),
                ("cold", &pooled[0]),
                ("warm", &pooled[1]),
            ] {
                assert_eq!(
                    oracle.as_ref().map(|p| p.to_bits()),
                    got.as_ref().map(|p| p.to_bits()),
                    "{name} at budget {budget} for {l}"
                );
            }
            exhausted += u32::from(oracle.is_err());
        }
    });
    assert!(exhausted > 0, "no budget was ever exhausted");
}

#[test]
fn factoring_preserves_semantics_and_never_grows() {
    for_each_case(CASES, 0x11AE_0005, |rng| {
        let l = lineage(rng);
        let bits = rng.below_u64(32) as u32;
        let f = pcqe::lineage::factor(&l);
        let assign = |v: VarId| bits & (1 << v.0) != 0;
        assert_eq!(l.eval(&assign), f.eval(&assign), "{l} vs {f}");
        let before: usize = l.simplify().var_counts().values().sum();
        let after: usize = f.var_counts().values().sum();
        assert!(
            after <= before,
            "{before} occurrences grew to {after} ({l} → {f})"
        );
    });
}

#[test]
fn conditioning_is_consistent_with_probability() {
    for_each_case(CASES, 0x11AE_0006, |rng| {
        // P(F) = p·P(F|v=1) + (1−p)·P(F|v=0) for any pivot.
        let l = lineage(rng);
        let (probs, map) = prob_map(rng);
        let pivot = rng.below_u64(MAX_VARS);
        let ev = Evaluator::exact_only(1 << 16);
        let full = ev.probability(&l, &map).unwrap();
        let hi = ev
            .probability(&l.condition(VarId(pivot), true), &map)
            .unwrap();
        let lo = ev
            .probability(&l.condition(VarId(pivot), false), &map)
            .unwrap();
        let p = probs[pivot as usize];
        assert!((full - (p * hi + (1.0 - p) * lo)).abs() < 1e-9);
    });
}

/// The solvers' pruning rules assume raising any base confidence can
/// only raise a negation-free result's confidence. Verify it.
#[test]
fn negation_free_lineage_is_monotone() {
    for_each_case(CASES, 0x11AE_0007, |rng| {
        let l = random_positive_lineage(rng, MAX_VARS, DEPTH);
        let (_probs, base) = prob_map(rng);
        let bump_var = rng.below_u64(MAX_VARS);
        let bump = rng.next_f64();
        let ev = Evaluator::exact_only(1 << 16);
        let mut raised = base.clone();
        let e = raised.get_mut(&VarId(bump_var)).expect("var present");
        *e = (*e + bump).min(1.0);
        let p0 = ev.probability(&l, &base).unwrap();
        let p1 = ev.probability(&l, &raised).unwrap();
        assert!(
            p1 >= p0 - 1e-9,
            "raising v{bump_var} lowered {p0} to {p1} for {l}"
        );
    });
}

#[test]
fn monte_carlo_converges_to_exact() {
    // Not seeded-random (sampling is slow); three representative formulas.
    let formulas = [
        Lineage::or(vec![
            Lineage::and(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::and(vec![Lineage::var(1), Lineage::var(2)]),
        ]),
        Lineage::not(Lineage::and(vec![Lineage::var(0), Lineage::var(3)])),
        Lineage::and(vec![
            Lineage::or(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
        ]),
    ];
    let map: HashMap<VarId, f64> = (0..MAX_VARS).map(|i| (VarId(i), 0.35)).collect();
    for l in &formulas {
        let exact = Evaluator::exact_only(1 << 16).probability(l, &map).unwrap();
        let mc = MonteCarlo::new(300_000, 17).estimate(l, &map).unwrap();
        assert!(
            (exact - mc).abs() < 0.01,
            "exact {exact} vs mc {mc} for {l}"
        );
    }
}
