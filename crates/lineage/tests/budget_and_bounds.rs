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
//!   warmed) both report `LineageError::BudgetExceeded`, and the standalone
//!   compile and a warmed pool agree formula-by-formula with a cold pool on
//!   whether a given budget suffices (the cache's budget-parity contract).
//!
//! A third suite pins the parallel-scoring contract for *pooled* circuits:
//! `Arc`-shared compiled circuits evaluated through `pcqe_par` produce
//! bit-identical confidences at any worker-thread count.

use pcqe_lineage::{bounds, CircuitCache, CompiledLineage, Lineage, LineageError, Rng64, VarId};
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

/// `c` evaluated with each slot's probability read from `prob`, in
/// [`CompiledLineage::vars`] order.
fn eval_by(c: &CompiledLineage, prob: impl Fn(VarId) -> f64) -> f64 {
    let slots: Vec<f64> = c.vars().iter().map(|&v| prob(v)).collect();
    c.eval(&slots)
}

/// `P(l)` over independent variables `0..probs.len()`, summed over every
/// assignment.
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
        let exact = enumerated(&l, &probs);
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
            // A cold pool is the oracle. A warmed pool and the standalone
            // compile must succeed exactly when it does, and surface
            // exhaustion as its typed BudgetExceeded error — never a
            // panic. A circuit that compiles is the formula's probability
            // and the same bits on every path.
            let mut cold = CircuitCache::new();
            let cold_id = cold.compile(&l, budget);
            let standalone = CompiledLineage::compile(&l, budget);
            let mut warm = CircuitCache::new();
            let _ = warm.compile(&l, 1 << 20);
            let warm_id = warm.compile(&l, budget);
            match (&cold_id, &standalone, &warm_id) {
                (Ok(c), Ok(circuit), Ok(w)) => {
                    let lookup = |v: VarId| probs[&v];
                    let p = eval_by(circuit, lookup);
                    let exact = enumerated(&l, &probs);
                    assert!(
                        (p - exact).abs() < 1e-9,
                        "case {case}: {p} vs enumerated {exact} at budget {budget} for {l:?}"
                    );
                    for (name, pool, id) in [("cold", &mut cold, *c), ("warm", &mut warm, *w)] {
                        let compiled = pool.compiled(id).expect("id just issued");
                        assert_eq!(
                            circuit.vars(),
                            compiled.vars(),
                            "case {case}: {name} var list at budget {budget} for {l:?}"
                        );
                        assert_eq!(
                            eval_by(compiled, lookup).to_bits(),
                            p.to_bits(),
                            "case {case}: {name} value at budget {budget} for {l:?}"
                        );
                    }
                }
                (Err(e @ LineageError::BudgetExceeded { .. }), Err(s), Err(w)) => {
                    assert_eq!((e, e), (s, w), "case {case}: error payloads");
                    exhausted += 1;
                }
                outcomes => panic!(
                    "case {case}: compile outcomes diverged at budget {budget} for {l:?}: \
                     (cold, standalone, warm) = {outcomes:?}"
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
    let sequential: Vec<f64> = circuits.iter().map(|c| eval_by(c, lookup)).collect();
    for workers in [1usize, 2, 8] {
        let par = pcqe_par::Parallelism {
            worker_threads: Some(workers),
            parallel_threshold: 1,
        };
        let batch = pcqe_par::morsel::map_morsels(&par, &circuits, circuits.len(), |_, c| {
            eval_by(c, lookup)
        });
        for (i, (a, b)) in sequential.iter().zip(&batch).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "circuit {i} diverged at {workers} workers"
            );
        }
    }
}
