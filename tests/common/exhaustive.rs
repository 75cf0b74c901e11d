//! The exhaustive-enumeration oracle the branch-and-bound search is held
//! to.
//!
//! Enumerates *every* grid assignment (`O(d^k)`) and keeps the cheapest
//! one meeting the quota: no ordering, no bound, no incumbent, nothing
//! shared with the search but the problem's public grid (`max_steps`,
//! `level_at`, `cost_at`) and the compiled confidence functions. Useless
//! beyond a handful of base tuples, which is why it lives here and not in
//! the library.

use pcqe::core::{CoreError, ProblemInstance, Solution};

/// Enumerate the whole grid and return the true optimum with the number
/// of assignments evaluated. A grid of more than `max_assignments`
/// assignments is refused up front with [`CoreError::GaveUp`]; one where
/// no assignment meets the quota is [`CoreError::Infeasible`].
pub fn solve(
    problem: &ProblemInstance,
    max_assignments: u64,
) -> Result<(Solution, u64), CoreError> {
    let k = problem.bases.len();
    let steps: Vec<u32> = problem
        .bases
        .iter()
        .map(|b| b.max_steps(problem.delta))
        .collect();
    let mut total: f64 = 1.0;
    for &s in &steps {
        total *= f64::from(s + 1);
        if total > max_assignments as f64 {
            return Err(CoreError::GaveUp(format!(
                "grid exceeds the {max_assignments}-assignment cap"
            )));
        }
    }

    let satisfied_at = |levels: &[f64]| -> Vec<usize> {
        let mut probs = Vec::new();
        (0..problem.results.len())
            .filter(|&i| {
                let r = &problem.results[i];
                probs.clear();
                probs.extend(r.bases.iter().map(|&b| levels[b]));
                r.conf.eval(&probs) > problem.beta
            })
            .collect()
    };
    let mut assignments = 0u64;
    let mut assignment = vec![0u32; k];
    let mut best: Option<(f64, Vec<f64>)> = None;
    loop {
        assignments += 1;
        let levels: Vec<f64> = (problem.bases.iter().zip(&assignment))
            .map(|(b, &s)| b.level_at(problem.delta, s))
            .collect();
        if satisfied_at(&levels).len() >= problem.required {
            let cost: f64 = (problem.bases.iter().zip(&assignment))
                .map(|(b, &s)| b.cost_at(problem.delta, s))
                .sum();
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, levels));
            }
        }
        // Odometer: advance the lowest digit that has room, resetting
        // those below it; past the last digit the grid is exhausted.
        let Some(d) = (0..k).find(|&d| assignment[d] < steps[d]) else {
            break;
        };
        assignment[d] += 1;
        assignment[..d].fill(0);
    }
    let (cost, levels) = best.ok_or(CoreError::Infeasible {
        achievable: 0,
        required: problem.required,
    })?;
    let satisfied = satisfied_at(&levels);
    Ok((
        Solution {
            levels,
            cost,
            satisfied,
        },
        assignments,
    ))
}
