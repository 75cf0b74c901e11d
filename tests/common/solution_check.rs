//! The reference check of a solver's answer, written against the public
//! fields of [`Solution`] and [`ProblemInstance`] only. The workspace
//! tests reach it through `tests/common`, and the core crate's unit tests
//! include this file by path. `tests/solver_properties.rs` tests its
//! rejections.

use super::{ProblemInstance, Solution};

/// Check `solution` against `problem`: one level per base, each inside
/// its range and on the δ grid (or at its cap); the declared cost, the
/// levels' cost; the declared satisfied set, the results whose confidence
/// at the levels is strictly above β; and at least the quota of them.
pub fn check_solution(solution: &Solution, problem: &ProblemInstance) -> Result<(), String> {
    let levels = &solution.levels;
    if levels.len() != problem.bases.len() {
        let bases = problem.bases.len();
        return Err(format!("{} levels for {bases} bases", levels.len()));
    }
    let mut cost = 0.0;
    for (i, (&l, base)) in levels.iter().zip(&problem.bases).enumerate() {
        if l < base.initial - 1e-9 || l > base.max + 1e-9 {
            let (lo, hi) = (base.initial, base.max);
            return Err(format!("level {l} of base {i} outside [{lo}, {hi}]"));
        }
        let steps = (l - base.initial) / problem.delta;
        if (steps - steps.round()).abs() >= 1e-6 && (l - base.max).abs() >= 1e-9 {
            return Err(format!("level {l} of base {i} is off the δ grid"));
        }
        cost += base.cost.cost(base.initial, l);
    }
    if (cost - solution.cost).abs() > 1e-6 * (1.0 + cost.abs()) {
        let declared = solution.cost;
        return Err(format!("declared cost {declared}, the levels cost {cost}"));
    }
    let confidence = |ri: usize| {
        let r = &problem.results[ri];
        let probs: Vec<f64> = r.bases.iter().map(|&b| levels[b]).collect();
        r.conf.eval(&probs)
    };
    let satisfied: Vec<usize> = (0..problem.results.len())
        .filter(|&ri| confidence(ri) > problem.beta)
        .collect();
    if satisfied != solution.satisfied {
        let declared = &solution.satisfied;
        return Err(format!(
            "declared satisfied {declared:?}, recomputed {satisfied:?}"
        ));
    }
    if satisfied.len() < problem.required {
        let required = problem.required;
        return Err(format!(
            "{} satisfied, {required} required",
            satisfied.len()
        ));
    }
    Ok(())
}
