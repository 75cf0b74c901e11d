//! Shared support for the seeded property suites.
//!
//! The workspace builds fully offline, so the former `proptest` suites
//! are driven by the in-repo [`Rng64`] generator instead: each test runs
//! a fixed number of cases, each case derived from a per-case seed, so a
//! failure prints the exact seed needed to replay it in isolation.

#![allow(dead_code)]

use pcqe::algebra::{ResultSet, ScoredTuple};
use pcqe::core::state::EvalState;
use pcqe::core::{ProblemInstance, Solution};
use pcqe::engine::{AuditEntry, Database, QueryResponse};
use pcqe::lineage::{Evaluator, Lineage, Rng64, VarId};
use pcqe::par::Parallelism;
use pcqe::policy::{evaluate_results, ConfidencePolicy};
use pcqe::storage::{Catalog, DataType, TupleId, Value};
use std::panic::AssertUnwindSafe;

/// Run `f` once per case with an independently seeded generator.
///
/// Each case's RNG is seeded from `base_seed` mixed with the case index,
/// so cases are independent and any failure is replayable: the panic
/// message names the case index and exact seed.
pub fn for_each_case(cases: u64, base_seed: u64, mut f: impl FnMut(&mut Rng64)) {
    for case in 0..cases {
        let seed = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng64::seed_from_u64(seed);
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            eprintln!("seeded suite failed at case {case} (seed {seed:#018x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A random lineage formula over variables `0..max_vars`, negation and
/// constants included (the shape space of the old proptest strategy).
pub fn random_lineage(rng: &mut Rng64, max_vars: u64, depth: u32) -> Lineage {
    // At depth 0 — or one time in four — emit a leaf.
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

/// A random negation-free lineage over variables `0..max_vars` (the
/// monotone shape space assumed by the solvers' pruning rules).
pub fn random_positive_lineage(rng: &mut Rng64, max_vars: u64, depth: u32) -> Lineage {
    if depth == 0 || rng.below_u64(4) == 0 {
        Lineage::var(rng.below_u64(max_vars))
    } else if rng.chance(0.5) {
        Lineage::and(
            (0..rng.range_usize(1, 4))
                .map(|_| random_positive_lineage(rng, max_vars, depth - 1))
                .collect(),
        )
    } else {
        Lineage::or(
            (0..rng.range_usize(1, 4))
                .map(|_| random_positive_lineage(rng, max_vars, depth - 1))
                .collect(),
        )
    }
}

/// `n` uniform probabilities in `[0, 1)`.
pub fn random_probs(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64()).collect()
}

/// A random string of length `0..=max_len` drawn from `alphabet`.
pub fn random_string(rng: &mut Rng64, alphabet: &[char], max_len: usize) -> String {
    let len = rng.below_usize(max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.below_usize(alphabet.len())])
        .collect()
}

/// A random Unicode scalar value (any `char`, surrogates excluded).
pub fn random_char(rng: &mut Rng64) -> char {
    loop {
        if let Some(c) = char::from_u32(rng.below_u64(0x11_0000) as u32) {
            return c;
        }
    }
}

// ---------------------------------------------------------------------------
// The reference pipeline.
//
// The engine has one production path (lower → vectorized execution →
// cached, β-gated scoring). The suites hold it to the simplest code that
// computes the same answers: the logical plan as `pcqe_sql` built it, the
// sequential walker `execute`, the uncached interpreter `ResultSet::score`
// and the policy gate — no optimiser, no planner, no batches, no circuit
// pool, no threads.

/// One query's reference answer.
pub struct Reference {
    /// Every result row with its exact confidence, in row order.
    pub scored: Vec<ScoredTuple>,
    /// Indices into `scored` the policy releases, ascending.
    pub released: Vec<usize>,
    /// How many rows the policy withholds.
    pub withheld: usize,
    /// How many rows β-gated scoring may skip: those whose Fréchet upper
    /// bound is already ≤ β.
    pub skippable: usize,
}

/// `pcqe_sql` parse + plan → logical `execute`.
pub fn reference_rows(sql: &str, catalog: &Catalog) -> ResultSet {
    let plan = pcqe::sql::parse_and_plan(sql, catalog).expect("reference plans");
    pcqe::algebra::execute(&plan, catalog).expect("reference executes")
}

/// [`reference_rows`] → uncached `ResultSet::score` → `evaluate_results`.
pub fn reference(sql: &str, catalog: &Catalog, policy: &ConfidencePolicy) -> Reference {
    let rows = reference_rows(sql, catalog);
    let probs = |v: VarId| catalog.confidence(TupleId(v.0));
    let scored = rows
        .score(&probs, &Evaluator::default())
        .expect("reference scores");
    let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
    let decision = evaluate_results(policy, &confidences);
    let skippable = rows
        .rows()
        .iter()
        .filter(|r| {
            pcqe::lineage::upper_bound(&r.lineage, &probs).expect("reference bounds")
                <= policy.threshold
        })
        .count();
    Reference {
        scored,
        released: decision.released,
        withheld: decision.withheld.len(),
        skippable,
    }
}

/// The worker counts the executor suites run every plan at — one, four
/// and the host's — each forcing the parallel paths on any input size.
pub fn parallelism_grid() -> [(Parallelism, &'static str); 3] {
    let threads = |worker_threads| Parallelism {
        worker_threads,
        parallel_threshold: 1,
    };
    [
        (Parallelism::sequential(), "1 thread"),
        (threads(Some(4)), "4 threads"),
        (threads(None), "host threads"),
    ]
}

/// Assert two result sets agree bit for bit: schema, rows, order, lineage.
pub fn assert_rows_identical(expected: &ResultSet, got: &ResultSet, context: &str) {
    assert_eq!(
        expected.schema(),
        got.schema(),
        "schema diverged for {context}"
    );
    assert_eq!(
        expected.rows().len(),
        got.rows().len(),
        "row count diverged for {context}"
    );
    for (i, (x, y)) in expected.rows().iter().zip(got.rows()).enumerate() {
        assert_eq!(x, y, "row {i} diverged for {context}");
    }
}

/// Assert every table's column images are in step with its rows: a `REAL`
/// column has an image of one slot per row, native with the row's very
/// bits exactly where the row holds a `Real`; a column of another type has
/// none.
pub fn assert_images_aligned(catalog: &Catalog, context: &str) {
    for name in catalog.table_names() {
        let table = catalog.table(name).expect("listed table");
        for (c, column) in table.schema().columns().iter().enumerate() {
            let stored = table.rows().iter().map(|r| match r.tuple.get(c) {
                Some(Value::Real(r)) => Some(r.to_bits()),
                _ => None,
            });
            let expected: Option<Vec<Option<u64>>> =
                (column.data_type == DataType::Real).then(|| stored.collect());
            let slots: Option<Vec<Option<u64>>> = table
                .image(c)
                .map(|image| image.slots().map(|s| s.map(f64::to_bits)).collect());
            assert_eq!(
                slots, expected,
                "image of {name}.{} out of step with its rows: {context}",
                column.name
            );
        }
    }
}

/// Assert a `Database` response releases exactly what the reference
/// releases: same rows in the same order, same lineage, same confidence
/// bits, same withheld count, gated at the same β.
pub fn assert_matches_reference(
    response: &QueryResponse,
    expected: &Reference,
    policy: &ConfidencePolicy,
    context: &str,
) {
    assert_eq!(
        response.threshold.to_bits(),
        policy.threshold.to_bits(),
        "threshold diverged for {context}"
    );
    assert_eq!(
        response.withheld, expected.withheld,
        "withheld count diverged for {context}"
    );
    assert_eq!(
        response.released.len(),
        expected.released.len(),
        "released count diverged for {context}"
    );
    for (got, &i) in response.released.iter().zip(&expected.released) {
        let want = &expected.scored[i];
        assert_eq!(got.tuple, want.tuple, "row {i} diverged for {context}");
        assert_eq!(
            got.lineage, want.lineage,
            "lineage {i} diverged for {context}"
        );
        assert_eq!(
            got.confidence.to_bits(),
            want.confidence.to_bits(),
            "confidence bits {i} diverged for {context}"
        );
    }
}

/// The `(released, withheld)` counts of every query entry in the audit
/// log, in order.
pub fn audited_counts(db: &Database) -> Vec<(usize, usize)> {
    db.audit_log()
        .iter()
        .filter_map(|e| match e {
            AuditEntry::Query {
                released, withheld, ..
            } => Some((*released, *withheld)),
            AuditEntry::Improvement { .. } => None,
        })
        .collect()
}

/// The two-phase greedy as Figure 6 prints it — every base probed again on
/// every iteration, `O(k · l₁)` — kept as the reference the production
/// solver's lazy heap is held against. Sequential, `Useful` gain, both
/// phases; written against [`EvalState`]'s public methods only. Returns the
/// solution with the phase-1 step and phase-2 roll-back counts.
pub fn rescan_greedy(problem: &ProblemInstance) -> (Solution, u64, u64) {
    let mut state = EvalState::new(problem);
    let k = problem.bases.len();
    // gain* of the latest step on each base; NaN = never raised.
    let mut last_gain = vec![f64::NAN; k];
    let mut raised = Vec::new();
    let mut iterations = 0;
    while !state.meets_quota() {
        let mut best: Option<(f64, usize)> = None;
        let mut cheapest: Option<(f64, usize)> = None;
        for i in 0..k {
            let cost = state.next_step_cost(i);
            let results = problem.results_of_base(i);
            if !cost.is_finite() || results.iter().all(|&ri| state.is_satisfied(ri)) {
                continue; // at its maximum, or nothing left for it to move
            }
            let num = state.probe_step_gain(i, true);
            let gain = match (cost > 0.0, num > 0.0) {
                (true, _) => num / cost,
                (false, true) => f64::INFINITY,
                (false, false) => 0.0,
            };
            if gain > 0.0 && best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, i));
            }
            if cheapest.is_none_or(|(c, _)| cost < c) {
                cheapest = Some((cost, i));
            }
        }
        // On a plateau (no step gains anything) take the cheapest step
        // towards an unsatisfied result, at gain* = 0.
        let (gain, pick) = best
            .or(cheapest.map(|(_, i)| (0.0, i)))
            .expect("a feasible instance has a step left");
        state.step_up(pick);
        if last_gain[pick].is_nan() {
            raised.push(pick);
        }
        last_gain[pick] = gain;
        iterations += 1;
    }
    raised.sort_by(|&a, &b| last_gain[a].total_cmp(&last_gain[b]).then(a.cmp(&b)));
    let mut reductions = 0;
    for &i in &raised {
        while state.step_down(i) {
            if !state.meets_quota() {
                state.step_up(i);
                break;
            }
            reductions += 1;
        }
    }
    (state.to_solution(), iterations, reductions)
}
