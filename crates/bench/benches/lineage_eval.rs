//! Micro-benchmarks of the confidence-computation substrate: exact
//! evaluation without a compiled circuit (`recompiled/*`: a fresh circuit
//! pool compiles and scores the formula on every evaluation) vs a compiled
//! circuit's forward pass (`compiled/*`), and that full pass vs the
//! one-slot cone update the solvers' search nodes run. These underpin
//! every figure (each solver iteration evaluates F thousands of times) but
//! are not a figure themselves.

use pcqe_bench::timing::{bench, group};
use pcqe_lineage::{CircuitCache, CompiledLineage, Evaluator, Lineage, VarId};
use std::collections::BTreeMap;

/// An OR of ten AND-pairs over twenty distinct variables (read-once).
fn read_once_formula() -> Lineage {
    let groups = (0..10u64)
        .map(|g| Lineage::and(vec![Lineage::var(2 * g), Lineage::var(2 * g + 1)]))
        .collect();
    Lineage::or(groups)
}

/// A formula with heavy variable sharing (forces Shannon expansion).
fn shared_formula() -> Lineage {
    let groups = (0..8u64)
        .map(|g| Lineage::and(vec![Lineage::var(g), Lineage::var(g + 1)]))
        .collect();
    Lineage::or(groups)
}

/// The chain `(x0 ∧ x1) ∨ (x1 ∧ x2) ∨ … ∨ (x22 ∧ x23)`: its Shannon
/// expansion shares cofactors, so many of its nodes are reached by more
/// than one path from the root — and are still computed once per pass.
fn chain_formula() -> Lineage {
    let links = (0..23u64)
        .map(|g| Lineage::and(vec![Lineage::var(g), Lineage::var(g + 1)]))
        .collect();
    Lineage::or(links)
}

fn probs_for(l: &Lineage) -> BTreeMap<VarId, f64> {
    l.vars().into_iter().map(|v| (v, 0.12)).collect()
}

/// `l`'s probability from a pool that has seen nothing: one compile and
/// one score.
fn recompiled(l: &Lineage, probs: &BTreeMap<VarId, f64>, ev: &Evaluator) -> f64 {
    let mut pool = CircuitCache::new();
    probs.iter().for_each(|(&v, &p)| pool.set_prob(v, p));
    pool.score_lineage(l, ev).expect("exact")
}

fn main() {
    group("lineage_eval");

    let ro = read_once_formula();
    let ro_probs = probs_for(&ro);
    let ev = Evaluator { budget: 1024 };
    bench("recompiled/read_once_20vars", 30, || {
        recompiled(&ro, &ro_probs, &ev)
    });
    let compiled = CompiledLineage::compile(&ro, 1024).expect("compiles");
    let slots: Vec<f64> = compiled.vars().iter().map(|v| ro_probs[v]).collect();
    bench("compiled/read_once_20vars", 30, || compiled.eval(&slots));
    // One slot moving back and forth, the rest held: a search node's step.
    let mut values = vec![0.0; compiled.node_count()];
    compiled.eval_into(|s| slots[s], &mut values);
    let mut raised = false;
    bench("compiled/cone_update_read_once", 30, || {
        raised = !raised;
        let moved = if raised { 0.5 } else { slots[7] };
        let prob = |s: usize| if s == 7 { moved } else { slots[s] };
        compiled.update(7, prob, &mut values)
    });

    let sh = shared_formula();
    let sh_probs = probs_for(&sh);
    let ev_sh = Evaluator { budget: 1 << 20 };
    bench("recompiled/shared_9vars", 30, || {
        recompiled(&sh, &sh_probs, &ev_sh)
    });
    let compiled_sh = CompiledLineage::compile(&sh, 1 << 20).expect("compiles");
    let slots_sh: Vec<f64> = compiled_sh.vars().iter().map(|v| sh_probs[v]).collect();
    bench("compiled/shared_9vars", 30, || compiled_sh.eval(&slots_sh));

    let chain = chain_formula();
    let chain_probs = probs_for(&chain);
    // Shannon-heavy: the expansion reaches many of its cofactors more than
    // once, and the read-once ones among them cost no expansion, so they
    // compile again to the same nodes rather than being memoized.
    bench("recompiled/shared_chain_24vars", 30, || {
        recompiled(&chain, &chain_probs, &ev_sh)
    });
    let compiled_chain = CompiledLineage::compile(&chain, 1 << 20).expect("compiles");
    let slots_chain: Vec<f64> = compiled_chain.vars().iter().map(|v| chain_probs[v]).collect();
    bench("compiled/shared_chain_24vars", 30, || {
        compiled_chain.eval(&slots_chain)
    });
}
