//! Seeded property suites for the Fréchet bound interval and for budget
//! exhaustion as a *typed* failure mode.
//!
//! Two contracts are pinned here:
//!
//! * `bound::bounds` returns a sound interval: for any formula the exact
//!   probability lies inside `[lower, upper]`, whatever dependence the
//!   shared variables induce.
//! * Running out of Shannon budget is an error value, never a panic:
//!   `CompiledLineage::compile` and `CircuitCache::compile` (cold or
//!   warmed) both report `LineageError::BudgetExceeded`, and they agree
//!   formula-by-formula with the interpreter's stepwise recursion on
//!   whether a given budget suffices (the cache's budget-parity contract).
//!
//! A third suite pins the parallel-scoring contract for *pooled* circuits:
//! `Arc`-shared compiled circuits evaluated through `pcqe_par` produce
//! bit-identical confidences at any worker-thread count.

use pcqe_lineage::{
    bounds, CircuitCache, CompiledLineage, Evaluator, Lineage, LineageError, Rng64, VarId,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const MAX_VARS: u64 = 6;

/// A random lineage formula over variables `0..max_vars`, negation and
/// constants included (the same shape space as the engine-level suites).
fn random_lineage(rng: &mut Rng64, max_vars: u64, depth: u32) -> Lineage {
    if depth == 0 || rng.below_u64(4) == 0 {
        if rng.chance(0.75) {
            Lineage::var(rng.below_u64(max_vars))
        } else {
            Lineage::Const(rng.chance(0.5))
        }
    } else {
        match rng.below_u64(3) {
            0 => Lineage::not(random_lineage(rng, max_vars, depth - 1)),
            1 => Lineage::and(
                (0..rng.range_usize(1, 4))
                    .map(|_| random_lineage(rng, max_vars, depth - 1))
                    .collect(),
            ),
            _ => Lineage::or(
                (0..rng.range_usize(1, 4))
                    .map(|_| random_lineage(rng, max_vars, depth - 1))
                    .collect(),
            ),
        }
    }
}

fn random_probs(rng: &mut Rng64) -> BTreeMap<VarId, f64> {
    (0..MAX_VARS).map(|v| (VarId(v), rng.next_f64())).collect()
}

#[test]
fn frechet_bounds_bracket_the_exact_probability() {
    let mut rng = Rng64::seed_from_u64(0x00B0_0001);
    for case in 0..400 {
        let l = random_lineage(&mut rng, MAX_VARS, 4);
        let probs = random_probs(&mut rng);
        let b = bounds(&l, &probs).expect("all variables are known");
        assert!(
            (0.0..=1.0).contains(&b.lower) && (0.0..=1.0).contains(&b.upper),
            "case {case}: bounds escape the unit interval: {b:?} for {l:?}"
        );
        assert!(
            b.lower <= b.upper + 1e-12,
            "case {case}: crossed bounds {b:?} for {l:?}"
        );
        let exact = Evaluator::exact_only(1 << 20)
            .probability(&l, &probs)
            .expect("depth-4 formulas over 6 variables fit a 2^20 budget");
        assert!(
            b.lower - 1e-9 <= exact && exact <= b.upper + 1e-9,
            "case {case}: exact {exact} outside [{}, {}] for {l:?}",
            b.lower,
            b.upper
        );
    }
}

#[test]
fn exhausted_budgets_are_typed_errors_and_cache_agrees() {
    let mut rng = Rng64::seed_from_u64(0x00B0_0002);
    let mut exhausted = 0u32;
    for case in 0..200 {
        let l = random_lineage(&mut rng, MAX_VARS, 4);
        let probs = random_probs(&mut rng);
        for budget in [0usize, 1, 2, 4, 8] {
            // The interpreter's stepwise recursion is the oracle. A cold
            // pool, a warmed pool and the standalone compile must succeed
            // exactly when it does, reproduce its value bit for bit, and
            // surface exhaustion as its typed BudgetExceeded error — never
            // a panic, never a wrong circuit.
            let oracle = Evaluator::exact_only(budget).probability(&l, &probs);
            let standalone = CompiledLineage::compile(&l, budget);
            let mut cold = CircuitCache::new();
            let cold_id = cold.compile(&l, budget);
            let mut warm = CircuitCache::new();
            let _ = warm.compile(&l, 1 << 20);
            let warm_id = warm.compile(&l, budget);
            match (&oracle, &standalone, &cold_id, &warm_id) {
                (Ok(p), Ok(circuit), Ok(c), Ok(w)) => {
                    let lookup = |v: VarId| probs[&v];
                    assert_eq!(
                        circuit.eval_with(lookup).to_bits(),
                        p.to_bits(),
                        "case {case}: standalone value at budget {budget} for {l:?}"
                    );
                    for (name, pool, id) in [("cold", &mut cold, *c), ("warm", &mut warm, *w)] {
                        let compiled = pool.compiled(id).expect("id just issued");
                        assert_eq!(
                            circuit.vars(),
                            compiled.vars(),
                            "case {case}: {name} var list at budget {budget} for {l:?}"
                        );
                        assert_eq!(
                            compiled.eval_with(lookup).to_bits(),
                            p.to_bits(),
                            "case {case}: {name} value at budget {budget} for {l:?}"
                        );
                    }
                }
                (Err(e @ LineageError::BudgetExceeded { .. }), Err(s), Err(c), Err(w)) => {
                    assert_eq!((e, e, e), (s, c, w), "case {case}: error payloads");
                    exhausted += 1;
                }
                outcomes => panic!(
                    "case {case}: compile outcomes diverged at budget {budget} for {l:?}: \
                     (interpreter, standalone, cold, warm) = {outcomes:?}"
                ),
            }
        }
    }
    assert!(
        exhausted > 0,
        "the generator never exhausted a budget; the suite tests nothing"
    );
}

#[test]
fn pooled_circuits_score_bit_identically_at_any_thread_count() {
    let mut rng = Rng64::seed_from_u64(0x00B0_0003);
    let mut cache = CircuitCache::new();
    let mut circuits: Vec<Arc<CompiledLineage>> = Vec::new();
    for _ in 0..120 {
        let l = random_lineage(&mut rng, MAX_VARS, 3);
        let id = cache.compile(&l, 4096).expect("generous budget");
        circuits.push(cache.compiled(id).expect("id just issued").clone());
    }
    let probs = random_probs(&mut rng);
    let lookup = |v: VarId| probs.get(&v).copied().unwrap_or(0.0);
    let sequential: Vec<f64> = circuits.iter().map(|c| c.eval_with(lookup)).collect();
    for workers in [1usize, 2, 8] {
        let par = pcqe_par::Parallelism {
            worker_threads: Some(workers),
            parallel_threshold: 1,
        };
        let batch = pcqe_par::map(&par, &circuits, |c| c.eval_with(lookup));
        for (i, (a, b)) in sequential.iter().zip(&batch).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "circuit {i} diverged at {workers} workers"
            );
        }
    }
}
