//! Seeded property tests over the strategy-finding algorithms: on random
//! feasible instances, every solver's answer validates, the exact search
//! is never beaten, phase 2 never hurts, pruning never changes the
//! optimum, the greedy's lazy heap picks what Figure 6's rescan picks, and
//! a batch of one query is that query.

mod common;

use common::{for_each_case, rescan_greedy};
use pcqe::core::dnc::{self, DncOptions};
use pcqe::core::exhaustive::{self, ExhaustiveOptions};
use pcqe::core::greedy::{self, GreedyOptions};
use pcqe::core::heuristic::{self, HeuristicOptions};
use pcqe::core::multi::{self, MultiQueryProblem};
use pcqe::core::problem::{ProblemBuilder, ProblemInstance};
use pcqe::core::state::EvalState;
use pcqe::core::{CoreError, Solution};
use pcqe::cost::CostFn;
use pcqe::lineage::{Lineage, Rng64};

const CASES: u64 = 48;

/// OR-of-AND grouping over `vars`: `cuts[i]` starts a new AND-group
/// before `vars[i]` (`cuts[0]` is ignored).
fn group_or_of_and(vars: &[u64], cuts: &[bool]) -> Lineage {
    let mut groups: Vec<Vec<Lineage>> = vec![vec![]];
    for (i, v) in vars.iter().enumerate() {
        if i > 0 && cuts[i] {
            groups.push(vec![]);
        }
        groups.last_mut().expect("non-empty").push(Lineage::var(*v));
    }
    Lineage::or(groups.into_iter().map(Lineage::and).collect())
}

/// A random negation-free lineage over a subset of `n_bases` variables:
/// 2–4 distinct variables in a random OR-of-AND grouping.
fn random_lineage(rng: &mut Rng64, n_bases: u64) -> Lineage {
    let mut all: Vec<u64> = (0..n_bases).collect();
    rng.shuffle(&mut all);
    let k = rng.range_usize(2, (n_bases.min(4) as usize) + 1);
    let vars = &all[..k];
    let cuts: Vec<bool> = (0..k).map(|_| rng.chance(0.5)).collect();
    group_or_of_and(vars, &cuts)
}

/// A random feasible problem: 3–6 bases, 2–4 results, β = 0.5, δ = 0.1.
fn random_problem(rng: &mut Rng64) -> ProblemInstance {
    random_problem_with(rng, 0.0)
}

/// [`random_problem`] where each base starts at confidence 0 with
/// probability `zero_chance`: an AND over such bases gains nothing from
/// any single step, which is the plateau greedy has to fall back on.
fn random_problem_with(rng: &mut Rng64, zero_chance: f64) -> ProblemInstance {
    let n_bases = 3 + rng.below_u64(4);
    let mut b = ProblemBuilder::new(0.5, 0.1);
    for i in 0..n_bases {
        let initial = rng.range_f64(0.05, 0.3);
        let rate = rng.range_f64(1.0, 100.0);
        b.base(
            i,
            // No draw at chance 0, so `random_problem`'s stream is as it was.
            if zero_chance > 0.0 && rng.chance(zero_chance) {
                0.0
            } else {
                initial
            },
            CostFn::linear(rate).expect("positive rate"),
        );
    }
    let n_results = rng.range_usize(2, 5);
    for _ in 0..n_results {
        b.result_from_lineage(&random_lineage(rng, n_bases))
            .expect("vars are registered");
    }
    // Negation-free lineage reaches 1.0 at max confidence, so any
    // quota ≤ n_results is feasible.
    let required = rng.range_usize(1, 3);
    b.require(required.min(n_results)).build().expect("valid")
}

#[test]
fn all_solvers_produce_valid_solutions() {
    for_each_case(CASES, 0x501E_0001, |rng| {
        let problem = random_problem(rng);
        let g = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        g.solution.validate(&problem).unwrap();
        let d = dnc::solve(&problem, &DncOptions::default()).unwrap();
        d.solution.validate(&problem).unwrap();
        let h = heuristic::solve(&problem, &HeuristicOptions::all()).unwrap();
        h.solution.validate(&problem).unwrap();
    });
}

#[test]
fn exact_search_is_never_beaten() {
    for_each_case(CASES, 0x501E_0002, |rng| {
        let problem = random_problem(rng);
        let h = heuristic::solve(&problem, &HeuristicOptions::all()).unwrap();
        let g = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        let d = dnc::solve(&problem, &DncOptions::default()).unwrap();
        assert!(
            h.solution.cost <= g.solution.cost + 1e-6,
            "heuristic {} vs greedy {}",
            h.solution.cost,
            g.solution.cost
        );
        assert!(
            h.solution.cost <= d.solution.cost + 1e-6,
            "heuristic {} vs dnc {}",
            h.solution.cost,
            d.solution.cost
        );
    });
}

#[test]
fn pruning_preserves_the_optimum() {
    let mut enumerated = 0;
    for_each_case(CASES, 0x501E_0003, |rng| {
        let problem = random_problem(rng);
        check_pruning(&problem);
        enumerated += u64::from(search_finds_the_enumerated_optimum(&problem));
    });
    assert!(
        enumerated >= CASES / 4,
        "only {enumerated} instances were small enough to enumerate"
    );
}

/// `check_pruning` holds branch-and-bound against branch-and-bound. This
/// is the third party: where the grid has at most 10⁵ assignments, walk
/// all of them — no ordering, no bound, no incumbent, nothing shared with
/// the search but the confidence functions — and require the same
/// optimal cost. Returns whether the instance was small enough.
fn search_finds_the_enumerated_optimum(problem: &ProblemInstance) -> bool {
    let small = ExhaustiveOptions {
        max_assignments: 100_000,
    };
    let truth = match exhaustive::solve(problem, &small) {
        Ok(out) => out.solution,
        Err(CoreError::GaveUp(_)) => return false,
        Err(e) => panic!("a feasible instance failed to enumerate: {e}"),
    };
    truth.validate(problem).unwrap();
    for config in [HeuristicOptions::naive(), HeuristicOptions::all()] {
        let found = heuristic::solve(problem, &config).unwrap().solution;
        found.validate(problem).unwrap();
        assert!(
            (found.cost - truth.cost).abs() < 1e-6,
            "config {:?}: search {} vs enumeration {}",
            config,
            found.cost,
            truth.cost
        );
    }
    true
}

fn check_pruning(problem: &ProblemInstance) {
    let naive = heuristic::solve(problem, &HeuristicOptions::naive()).unwrap();
    for config in [
        HeuristicOptions::only(1),
        HeuristicOptions::only(2),
        HeuristicOptions::only(3),
        HeuristicOptions::only(4),
        HeuristicOptions::all(),
    ] {
        let out = heuristic::solve(problem, &config).unwrap();
        assert!(
            (out.solution.cost - naive.solution.cost).abs() < 1e-6,
            "config {:?}: {} vs naive {}",
            config,
            out.solution.cost,
            naive.solution.cost
        );
    }
    // H2–H4 only cut branches from the *same* tree, so their node
    // counts are monotone. H1 reorders the variables; its node count
    // can go either way on any one instance (it helps on average, as
    // Figure 11(a) shows).
    for config in [
        HeuristicOptions::only(2),
        HeuristicOptions::only(3),
        HeuristicOptions::only(4),
    ] {
        let out = heuristic::solve(problem, &config).unwrap();
        assert!(
            out.stats.nodes <= naive.stats.nodes,
            "config {:?}: {} nodes vs naive {}",
            config,
            out.stats.nodes,
            naive.stats.nodes
        );
    }
}

#[test]
fn two_phase_never_costs_more() {
    for_each_case(CASES, 0x501E_0004, |rng| {
        let problem = random_problem(rng);
        let one = greedy::solve(&problem, &GreedyOptions::one_phase()).unwrap();
        let two = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        assert!(two.solution.cost <= one.solution.cost + 1e-6);
    });
}

#[test]
fn greedy_seed_never_worsens_the_search() {
    for_each_case(CASES, 0x501E_0005, |rng| {
        let problem = random_problem(rng);
        let seed = greedy::solve(&problem, &GreedyOptions::default())
            .unwrap()
            .solution;
        let plain = heuristic::solve(&problem, &HeuristicOptions::all()).unwrap();
        let seeded = heuristic::solve(&problem, &HeuristicOptions::all().with_seed(seed)).unwrap();
        assert!((seeded.solution.cost - plain.solution.cost).abs() < 1e-6);
        assert!(seeded.stats.nodes <= plain.stats.nodes);
    });
}

#[test]
fn solutions_only_raise_confidences() {
    for_each_case(CASES, 0x501E_0006, |rng| {
        let problem = random_problem(rng);
        let g = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        for (level, base) in g.solution.levels.iter().zip(&problem.bases) {
            assert!(*level >= base.initial - 1e-12);
            assert!(*level <= base.max + 1e-12);
        }
        // Increments must sum to the declared cost.
        let total: f64 = g.solution.increments(&problem).iter().map(|i| i.cost).sum();
        assert!((total - g.solution.cost).abs() < 1e-6);
    });
}

/// A shrunk counterexample an earlier randomised run produced: six bases
/// with these exact initial confidences and linear rates, two results over
/// bases {1,2,3} and {0,2,4}, β = 0.5, δ = 0.1, quota 2. The original
/// record did not pin the OR-of-AND grouping of each result's lineage, so
/// every combination of groupings over the ordered var lists is replayed.
#[test]
fn regression_shrunk_instance_all_groupings() {
    let bases: [(f64, f64); 6] = [
        (0.21058790371238958, 6.0138480718722676),
        (0.1513061779753609, 77.63458369442124),
        (0.1107439804383791, 90.54694533217547),
        (0.1737898525414536, 71.23342385389901),
        (0.07445945159196375, 46.134860384014125),
        (0.06734828639507517, 13.385502936213554),
    ];
    let result_vars: [&[u64]; 2] = [&[1, 2, 3], &[0, 2, 4]];
    // cuts[0] is ignored, so 3 vars ⇒ 4 groupings per result ⇒ 16 combos.
    for mask_a in 0u8..4 {
        for mask_b in 0u8..4 {
            let mut b = ProblemBuilder::new(0.5, 0.1);
            for (i, &(initial, rate)) in bases.iter().enumerate() {
                b.base(i as u64, initial, CostFn::linear(rate).expect("positive"));
            }
            for (vars, mask) in result_vars.iter().zip([mask_a, mask_b]) {
                let cuts = [false, mask & 1 != 0, mask & 2 != 0];
                b.result_from_lineage(&group_or_of_and(vars, &cuts))
                    .expect("registered vars");
            }
            let problem = b.require(2).build().expect("valid");
            // The full battery the shrunk case was minimised against.
            let g = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
            g.solution.validate(&problem).unwrap();
            let d = dnc::solve(&problem, &DncOptions::default()).unwrap();
            d.solution.validate(&problem).unwrap();
            let h = heuristic::solve(&problem, &HeuristicOptions::all()).unwrap();
            h.solution.validate(&problem).unwrap();
            assert!(h.solution.cost <= g.solution.cost + 1e-6);
            assert!(h.solution.cost <= d.solution.cost + 1e-6);
            check_pruning(&problem);
            let one = greedy::solve(&problem, &GreedyOptions::one_phase()).unwrap();
            assert!(g.solution.cost <= one.solution.cost + 1e-6);
        }
    }
}

/// The lazy heap is the rescan with less work, not another algorithm:
/// same picks as Figure 6's loop (`common::rescan_greedy`), so same
/// levels, cost and step counts to the last bit — also across zero-gain
/// plateaus, where both take the cheapest step that touches an unsatisfied
/// result and record it with gain* = 0.
#[test]
fn lazy_heap_and_rescan_are_bit_identical() {
    let mut plateaus = 0;
    for_each_case(4 * CASES, 0x501E_0007, |rng| {
        let problem = random_problem_with(rng, 0.4);
        let st = EvalState::new(&problem);
        if (0..problem.results.len()).any(|ri| st.confidence(ri) == 0.0) {
            plateaus += 1;
        }
        let (rescan, iterations, reductions) = rescan_greedy(&problem);
        let heap = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        heap.solution.validate(&problem).unwrap();
        assert_same_bits(&rescan, &heap.solution);
        assert_eq!(iterations, heap.stats.iterations);
        assert_eq!(reductions, heap.stats.reductions);
    });
    assert!(plateaus >= 20, "only {plateaus} instances had a plateau");
}

/// A batch is a query with several quotas, so a batch of one *is* the
/// query: same strategy to the last bit, found in the same steps.
#[test]
fn a_batch_of_one_is_the_query() {
    for_each_case(4 * CASES, 0x501E_0007, |rng| {
        let problem = random_problem_with(rng, 0.4);
        let alone = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        let merged = MultiQueryProblem::merge(std::slice::from_ref(&problem)).unwrap();
        let batch = multi::solve_greedy(&merged, &GreedyOptions::default()).unwrap();
        assert_same_bits(&alone.solution, &batch.solution);
        assert_eq!(alone.stats.iterations, batch.stats.iterations);
        assert_eq!(alone.stats.reductions, batch.stats.reductions);
    });
}

fn assert_same_bits(a: &Solution, b: &Solution) {
    let bits = |levels: &[f64]| levels.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.levels), bits(&b.levels));
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.satisfied, b.satisfied);
}

/// The grid tables of [`EvalState`] hold what `level_at` / `cost_at`
/// compute, bit for bit, for every cost family — including a base whose
/// cap falls between two grid points, where the last step is clamped.
#[test]
fn grid_tables_hold_the_problem_s_own_arithmetic() {
    let families = [
        CostFn::linear(37.0).unwrap(),
        CostFn::polynomial(80.0, 3.0).unwrap(),
        CostFn::binomial(120.0).unwrap(),
        CostFn::exponential(5.0, 2.5).unwrap(),
        CostFn::logarithmic(40.0, 9.0).unwrap(),
        CostFn::piecewise(vec![(0.0, 0.0), (0.35, 10.0), (0.8, 90.0), (1.0, 400.0)]).unwrap(),
    ];
    let mut b = ProblemBuilder::new(0.5, 0.1);
    for (i, cost) in families.iter().enumerate() {
        b.base(2 * i as u64, 0.07 + 0.031 * i as f64, cost.clone());
        b.base_capped(2 * i as u64 + 1, 0.13, 0.77, cost.clone());
    }
    let all: Vec<Lineage> = (0..2 * families.len() as u64).map(Lineage::var).collect();
    b.result_from_lineage(&Lineage::or(all)).unwrap();
    let problem = b.require(1).build().unwrap();
    let mut state = EvalState::new(&problem);
    for i in 0..problem.bases.len() {
        for s in 0..=problem.max_steps(i) {
            state.set_steps(i, s);
            assert_eq!(
                state.level(i).to_bits(),
                problem.level_at(i, s).to_bits(),
                "base {i} step {s}"
            );
            assert_eq!(
                state.total_cost().to_bits(),
                problem.cost_at(i, s).to_bits(),
                "base {i} step {s}"
            );
            // Back to zero: `c + (0 − c)` is exactly 0, so the next step
            // starts from a clean total again.
            state.set_steps(i, 0);
            assert_eq!(state.total_cost().to_bits(), 0.0f64.to_bits());
        }
        // Asking beyond the grid clamps to its last point.
        state.set_steps(i, u32::MAX);
        assert_eq!(state.steps_of(i), problem.max_steps(i));
        state.set_steps(i, 0);
    }
}
