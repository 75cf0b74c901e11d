//! Seeded property tests over the strategy-finding algorithms: on random
//! feasible instances, every solver's answer passes the one solution
//! check (which rejects each kind of bad answer), the exact search
//! is never beaten, phase 2 never hurts, pruning never changes the
//! answer's bits, the greedy's lazy heap picks what Figure 6's rescan
//! picks, a batch of one query is that query, incremental evaluation is
//! full evaluation, the builder refuses negated lineage, D&C keeps its
//! groups' grid steps, greedy is no dearer than D&C past the
//! branch-and-bound's reach, and the
//! branch-and-bound walks a pinned tree and finds the optimum an
//! exhaustive enumeration of the grid finds.

mod common;

use common::solution_check::check_solution;
use common::{exhaustive, for_each_case, rescan_greedy};
use pcqe::core::dnc::{self, DncOptions};
use pcqe::core::greedy::{self, GreedyOptions};
use pcqe::core::heuristic::{self, Heuristic, HeuristicOptions};
use pcqe::core::multi::{self, MultiQueryProblem};
use pcqe::core::problem::{ProblemBuilder, ProblemInstance};
use pcqe::core::state::EvalState;
use pcqe::core::{CoreError, Solution};
use pcqe::cost::CostFn;
use pcqe::lineage::{CircuitCache, Lineage, Rng64};
use pcqe::workload::{generate, WorkloadParams};

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
        check_solution(&g.solution, &problem).unwrap();
        let d = dnc::solve(&problem, &DncOptions::default()).unwrap();
        check_solution(&d.solution, &problem).unwrap();
        let h = heuristic::solve(&problem, &HeuristicOptions::all()).unwrap();
        check_solution(&h.solution, &problem).unwrap();
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

/// [`check_pruning`] on random problems, where small enough also against
/// enumeration, and on the two `strategy` shapes that reach the search: a
/// D&C group and a `miss_small`.
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
    let mut rng = Rng64::seed_from_u64(0x501E_000B);
    for _ in 0..4 {
        check_pruning(&strategy_group(&mut rng));
        check_pruning(&strategy_small(&mut rng));
    }
}

/// `check_pruning` holds branch-and-bound against branch-and-bound. This
/// is the third party: where the grid has at most 10⁵ assignments, walk
/// all of them — no ordering, no bound, no incumbent, nothing shared with
/// the search but the confidence functions — and require the same
/// optimal cost. Returns whether the instance was small enough.
fn search_finds_the_enumerated_optimum(problem: &ProblemInstance) -> bool {
    let truth = match exhaustive::solve(problem, 100_000) {
        Ok((solution, _)) => solution,
        Err(CoreError::GaveUp(_)) => return false,
        Err(e) => panic!("a feasible instance failed to enumerate: {e}"),
    };
    check_solution(&truth, problem).unwrap();
    for config in [HeuristicOptions::naive(), HeuristicOptions::all()] {
        let found = heuristic::solve(problem, &config).unwrap().solution;
        check_solution(&found, problem).unwrap();
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

/// Three bases, two results (`t0 ∨ t1`, `t1 ∧ t2`), quota 1, δ = 0.25:
/// a 5³ grid small enough to check by hand.
fn tiny_problem() -> ProblemInstance {
    let mut b = ProblemBuilder::new(0.5, 0.25);
    b.base(0, 0.0, CostFn::linear(10.0).unwrap());
    b.base(1, 0.0, CostFn::linear(3.0).unwrap());
    b.base(2, 0.0, CostFn::linear(7.0).unwrap());
    b.result_from_lineage(&Lineage::or(vec![Lineage::var(0), Lineage::var(1)]))
        .unwrap();
    b.result_from_lineage(&Lineage::and(vec![Lineage::var(1), Lineage::var(2)]))
        .unwrap();
    b.require(1).build().unwrap()
}

/// The check every test here holds the solvers to rejects each kind of
/// bad answer, each for the reason it names, and passes a good one.
#[test]
fn the_solution_check_rejects_each_kind_of_bad_answer() {
    let p = tiny_problem();
    let answer = |levels: &[f64], cost, satisfied: &[usize]| Solution {
        levels: levels.to_vec(),
        cost,
        satisfied: satisfied.to_vec(),
    };
    // Raising t1 to 0.75 satisfies t0 ∨ t1 at cost 3 · 0.75.
    check_solution(&answer(&[0.0, 0.75, 0.0], 2.25, &[0]), &p).unwrap();
    let cases = [
        (answer(&[0.0, 0.75], 2.25, &[0]), "2 levels for 3 bases"),
        (answer(&[0.0, 1.25, 0.0], 3.75, &[0]), "outside"),
        (answer(&[0.0, 0.7, 0.0], 2.1, &[0]), "off the δ grid"),
        (answer(&[0.0, 0.75, 0.0], 1.0, &[0]), "declared cost"),
        (answer(&[0.0, 0.75, 0.0], 2.25, &[]), "declared satisfied"),
        (
            answer(&[0.0, 0.0, 0.0], 0.0, &[]),
            "0 satisfied, 1 required",
        ),
        // Confidence exactly β does not satisfy (strict inequality).
        (answer(&[0.0, 0.5, 0.0], 1.5, &[0]), "declared satisfied"),
        (
            answer(&[0.0, 0.5, 0.0], 1.5, &[]),
            "0 satisfied, 1 required",
        ),
    ];
    for (bad, reason) in cases {
        let err = check_solution(&bad, &p).unwrap_err();
        assert!(err.contains(reason), "{bad:?}: `{err}` lacks `{reason}`");
    }
}

/// The oracle itself: it walks the whole grid and agrees with the search.
#[test]
fn enumeration_agrees_with_branch_and_bound() {
    let p = tiny_problem();
    let (truth, assignments) = exhaustive::solve(&p, 50_000_000).unwrap();
    check_solution(&truth, &p).unwrap();
    let h = heuristic::solve(&p, &HeuristicOptions::all()).unwrap();
    assert!((truth.cost - h.solution.cost).abs() < 1e-9);
    // Cheapest fix: raise t1 to 0.75 (> β via the OR), cost 3·0.75.
    assert!((truth.cost - 2.25).abs() < 1e-9);
    assert_eq!(assignments, 125, "5^3 grid fully enumerated");
}

#[test]
fn enumeration_refuses_a_grid_past_its_cap() {
    assert!(matches!(
        exhaustive::solve(&tiny_problem(), 10),
        Err(CoreError::GaveUp(_))
    ));
}

#[test]
fn enumeration_reports_infeasible() {
    let mut b = ProblemBuilder::new(0.9, 0.25);
    b.base_capped(0, 0.0, 0.5, CostFn::linear(1.0).unwrap());
    b.result_from_lineage(&Lineage::var(0)).unwrap();
    let p = b.require(1).build().unwrap();
    assert!(matches!(
        exhaustive::solve(&p, 50_000_000),
        Err(CoreError::Infeasible { .. })
    ));
}

/// Pruning never changes the answer. A node's cost is a function of its
/// assignment and every device cuts only subtrees holding nothing strictly
/// cheaper than the incumbent, so the configurations that order the bases
/// alike — those without H1, and those with it — each return one solution
/// to the bit (levels, cost, satisfied set): the first of the cheapest in
/// that order, unseeded, or with the same greedy seed. The two orders sum
/// the same costs in different orders, so across them the costs agree up
/// to rounding.
fn check_pruning(problem: &ProblemInstance) {
    let seed = greedy::solve(problem, &GreedyOptions::default())
        .expect("feasible")
        .solution;
    let mut costs = Vec::new();
    for family in [
        vec![
            HeuristicOptions::naive(),
            HeuristicOptions::only(Heuristic::H2SiblingPrune),
            HeuristicOptions::only(Heuristic::H3OptimisticPrune),
            HeuristicOptions::only(Heuristic::H4CostBound),
        ],
        vec![
            HeuristicOptions::only(Heuristic::H1Ordering),
            HeuristicOptions::all(),
        ],
    ] {
        for seed in [None, Some(&seed)] {
            let mut first: Option<Solution> = None;
            for config in &family {
                let options = match seed {
                    Some(seed) => config.clone().with_seed(seed.clone()),
                    None => config.clone(),
                };
                let found = heuristic::solve(problem, &options).unwrap().solution;
                let reference = first.get_or_insert_with(|| found.clone());
                assert_eq!(
                    solution_words(&found),
                    solution_words(reference),
                    "{options:?} returned {found:?}, {:?} returned {reference:?}",
                    family.first()
                );
            }
            costs.extend(first.map(|s| s.cost));
        }
    }
    let optimum = costs.iter().copied().fold(f64::INFINITY, f64::min);
    for cost in costs {
        assert!(
            (cost - optimum).abs() <= 1e-9 * optimum.max(1.0),
            "costs {cost} and {optimum} differ by more than rounding"
        );
    }
    let naive = heuristic::solve(problem, &HeuristicOptions::naive()).unwrap();
    // H2–H4 only cut branches from the *same* tree, so their node
    // counts are monotone. H1 reorders the variables; its node count
    // can go either way on any one instance (it helps on average, as
    // Figure 11(a) shows).
    for config in [
        HeuristicOptions::only(Heuristic::H2SiblingPrune),
        HeuristicOptions::only(Heuristic::H3OptimisticPrune),
        HeuristicOptions::only(Heuristic::H4CostBound),
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

/// D&C combines each group's own grid steps. A base whose maximum lies
/// less than half a step above the grid point below it (initial 0.26, δ
/// 0.1, maximum 1.0: step 7 is 0.96, step 8 the clamped 1.0) keeps its top
/// step, so at β = 0.97 two singleton groups meet the quota as combined,
/// with no top-up: the run takes the groups' own greedy iterations.
#[test]
fn dnc_keeps_a_group_s_clamped_top_step() {
    let singletons = |n: u64| {
        let mut b = ProblemBuilder::new(0.97, 0.1);
        for id in 0..n {
            b.base(id, 0.26, CostFn::linear(10.0).expect("positive"));
            b.result_from_lineage(&Lineage::var(id))
                .expect("registered");
        }
        b.require(n as usize).build().expect("valid")
    };
    let problem = singletons(2);
    let options = DncOptions::default();
    let out = dnc::solve(&problem, &options).unwrap();
    check_solution(&out.solution, &problem).unwrap();
    assert_eq!(out.stats.groups, 2);
    assert_eq!(out.solution.levels, [1.0, 1.0]);
    let alone = greedy::solve(&singletons(1), &options.greedy).unwrap();
    assert_eq!(out.stats.greedy.iterations, 2 * alone.stats.iterations);
}

/// D&C's two constants, through the public API: the merge threshold γ = 1
/// keeps results sharing one base apart and merges results sharing two,
/// and the branch-and-bound cutoff τ = 10 runs the search in a 9-base
/// group and not in a 10-base one.
#[test]
fn dnc_constants_hold() {
    // One result per base list, each base one δ step below its maximum.
    let problem = |results: &[&[u64]], beta: f64| {
        let mut b = ProblemBuilder::new(beta, 0.1);
        let mut ids: Vec<u64> = results.iter().flat_map(|r| r.iter().copied()).collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            b.base_capped(id, 0.1, 0.2, CostFn::linear(10.0).expect("positive"));
        }
        for r in results {
            b.result_from_lineage(&Lineage::or(r.iter().map(|&id| Lineage::var(id)).collect()))
                .expect("registered");
        }
        b.require(results.len()).build().expect("valid")
    };
    let shared = problem(&[&[0, 1], &[1, 2], &[3, 4, 5], &[4, 5, 6]], 0.0);
    assert_eq!(
        pcqe::core::partition::partition(&shared),
        [vec![0], vec![1], vec![2, 3]],
        "one shared base keeps results apart, two merge them"
    );

    let nine: Vec<u64> = (0..9).collect();
    let ten: Vec<u64> = (9..19).collect();
    let sized = problem(&[&nine, &ten], 0.7);
    let out = dnc::solve(&sized, &DncOptions::default()).unwrap();
    check_solution(&out.solution, &sized).unwrap();
    assert_eq!(out.stats.groups, 2);
    assert_eq!(
        out.stats.bb_groups, 1,
        "only the 9-base group runs branch-and-bound"
    );
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
            check_solution(&g.solution, &problem).unwrap();
            let d = dnc::solve(&problem, &DncOptions::default()).unwrap();
            check_solution(&d.solution, &problem).unwrap();
            let h = heuristic::solve(&problem, &HeuristicOptions::all()).unwrap();
            check_solution(&h.solution, &problem).unwrap();
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
        if (0..problem.results.len()).any(|ri| st.confidence(ri) == Some(0.0)) {
            plateaus += 1;
        }
        let (rescan, iterations, reductions) = rescan_greedy(&problem);
        let heap = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
        check_solution(&heap.solution, &problem).unwrap();
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

/// A problem for the incremental-evaluation law: 3–6 bases over lineage
/// with shared variables (so circuits hold `Mix` and DAG-shared nodes)
/// and constants; some bases capped off the grid, some starting at zero.
/// A drawn formula with a negation is refused by the builder (it asserts
/// so) and stands in for a negation-free one.
fn incremental_problem(rng: &mut Rng64) -> ProblemInstance {
    let n_bases = 3 + rng.below_u64(4);
    let mut b = ProblemBuilder::new(0.5, 0.1);
    for i in 0..n_bases {
        let initial = if rng.chance(0.25) {
            0.0
        } else {
            rng.range_f64(0.05, 0.4)
        };
        let cost = CostFn::linear(rng.range_f64(1.0, 100.0)).expect("positive rate");
        if rng.chance(0.3) {
            b.base_capped(i, initial, rng.range_f64(initial.max(0.45), 0.95), cost);
        } else {
            b.base(i, initial, cost);
        }
    }
    let n_results = rng.range_usize(2, 5);
    for _ in 0..n_results {
        let mut lineage = common::random_lineage(rng, n_bases, 3);
        if lineage.contains_not() {
            let refused = b.result_from_lineage(&lineage);
            assert!(matches!(refused, Err(CoreError::InvalidProblem(_))));
            lineage = common::random_positive_lineage(rng, n_bases, 3);
        }
        b.result_from_lineage(&lineage)
            .expect("vars are registered");
    }
    b.require(rng.range_usize(0, n_results + 1))
        .build()
        .expect("valid")
}

/// [`EvalState`] keeps every compiled result's node values and follows a
/// step through the stepped base's cone alone. That is a faster road to
/// the same place: after every `set_steps`, `step_up`, `step_down` and
/// `probe_step_gain` of a random walk, every confidence has the bits of a
/// fresh evaluation at the current levels, the counts are a recount's,
/// and the optimistic bound over random rests is a brute recount's.
#[test]
fn incremental_evaluation_is_full_evaluation() {
    for_each_case(CASES, 0x501E_000A, |rng| {
        let problem = incremental_problem(rng);
        let mut state = EvalState::new(&problem);
        let k = problem.bases.len();
        for _ in 0..60 {
            let i = rng.below_usize(k);
            match rng.below_u64(4) {
                0 => state.set_steps(i, rng.below_u64(12) as u32),
                1 => {
                    state.step_up(i);
                }
                2 => {
                    state.step_down(i);
                }
                _ => {
                    // Drawn but unused: the seeded case stream counts it.
                    let _ = rng.chance(0.5);
                    state.probe_step_gain(i);
                }
            }
            let levels = state.to_solution().levels;
            let fresh = |levels: &[f64], ri: usize| {
                let r = &problem.results[ri];
                let args: Vec<f64> = r.bases.iter().map(|&b| levels[b]).collect();
                r.conf.eval(&args)
            };
            let mut satisfied = 0;
            for ri in 0..problem.results.len() {
                let expected = fresh(&levels, ri);
                assert_eq!(
                    state.confidence(ri).map(f64::to_bits),
                    Some(expected.to_bits()),
                    "result {ri}"
                );
                satisfied += usize::from(expected > problem.beta);
            }
            assert_eq!(state.to_solution().satisfied.len(), satisfied);
            assert_eq!(state.meets_quota(), satisfied >= problem.required);
            let rest: Vec<usize> = (0..k).filter(|_| rng.chance(0.5)).collect();
            let mut raised = levels.clone();
            for &b in &rest {
                raised[b] = problem.bases[b].max;
            }
            let brute = (0..problem.results.len())
                .filter(|&ri| state.is_satisfied(ri) || fresh(&raised, ri) > problem.beta)
                .count();
            assert_eq!(state.optimistic_satisfied(&rest), brute, "rest {rest:?}");
        }
    });
}

/// Every solver assumes that raising a base never lowers a result, so the
/// public builder refuses lineage with a negation, cached or not, before
/// it compiles anything. The instance: β = 0.4, δ = 0.1, bases x1 at 0.1
/// and x2 at 0.5 at linear cost 1, one result `x1 ∧ ¬x2`, one required.
/// Raising x1 alone to 0.9 gives 0.45 > β, yet on the parent commit the
/// builder took it and both greedy and the branch-and-bound answered
/// `Infeasible { achievable: 0, required: 1 }`: their feasibility check
/// raises every base, x2 included.
#[test]
fn the_builder_refuses_negated_lineage() {
    let mut b = ProblemBuilder::new(0.4, 0.1);
    let unit = CostFn::linear(1.0).expect("positive rate");
    b.base(1, 0.1, unit.clone());
    b.base(2, 0.5, unit);
    let x1_and_not_x2 = Lineage::and(vec![Lineage::var(1), Lineage::not(Lineage::var(2))]);
    let refused = b.result_from_lineage(&x1_and_not_x2);
    assert!(
        matches!(refused, Err(CoreError::InvalidProblem(_))),
        "{refused:?}"
    );
    let mut pool = CircuitCache::new();
    let refused = b.result_from_lineage_cached(&x1_and_not_x2, &mut pool);
    assert!(
        matches!(refused, Err(CoreError::InvalidProblem(_))),
        "{refused:?}"
    );
    assert_eq!(pool.pool_size(), 0, "refused before compiling");
    // The negation-free half is taken, and x1 alone meets the quota.
    b.result_from_lineage(&Lineage::var(1)).expect("monotone");
    let problem = b.require(1).build().expect("valid");
    let exact = heuristic::solve(&problem, &HeuristicOptions::all()).expect("feasible");
    assert_eq!(exact.solution.increments(&problem).len(), 1);
}

/// The claim and evidence tuples of the e2e `strategy` workload: base
/// confidences 0.05–0.3, linear cost 100 per unit of confidence (the
/// engine's default cost), β = 0.6, δ = 0.1. Claims get ids `0..`,
/// evidence tuples `100..`.
fn strategy_builder(rng: &mut Rng64, claims: u64, evidence: u64) -> ProblemBuilder {
    let mut b = ProblemBuilder::new(0.6, 0.1);
    for id in (0..claims).chain(100..100 + evidence) {
        b.base(
            id,
            rng.range_f64(0.05, 0.3),
            CostFn::linear(100.0).expect("positive"),
        );
    }
    b
}

/// `(c₀ ∧ e₀) ∨ (c₁ ∧ e₁) ∨ …`: a result's claims each joined to their
/// evidence tuple.
fn joined(pairs: &[(u64, u64)]) -> Lineage {
    Lineage::or(
        pairs
            .iter()
            .map(|&(c, e)| Lineage::and(vec![Lineage::var(c), Lineage::var(100 + e)]))
            .collect(),
    )
}

/// One group of a `miss_large` θ-miss as D&C hands it to the search: one
/// result over three claims and their three evidence tuples, quota 1.
fn strategy_group(rng: &mut Rng64) -> ProblemInstance {
    let mut b = strategy_builder(rng, 3, 3);
    b.result_from_lineage(&joined(&[(0, 0), (1, 1), (2, 2)]))
        .expect("registered");
    b.require(1).build().expect("valid")
}

/// A path of `n` results like a `miss_large` θ-miss: result `k` joins
/// claim `k` and claim `k + 1` to evidence tuple `k`, so neighbours share
/// one claim and, at D&C's γ = 1, every result is a group of its own.
/// Half the results are required.
fn strategy_path(rng: &mut Rng64, n: u64) -> ProblemInstance {
    let mut b = strategy_builder(rng, n + 1, n);
    for k in 0..n {
        b.result_from_lineage(&joined(&[(k, k), (k + 1, k)]))
            .expect("registered");
    }
    b.require(n as usize / 2).build().expect("valid")
}

/// A `miss_small` θ-miss: two results over four claims and three evidence
/// tuples, sharing the middle one, quota 1.
fn strategy_small(rng: &mut Rng64) -> ProblemInstance {
    let mut b = strategy_builder(rng, 4, 3);
    b.result_from_lineage(&joined(&[(0, 0), (1, 1)]))
        .expect("registered");
    b.result_from_lineage(&joined(&[(2, 1), (3, 2)]))
        .expect("registered");
    b.require(1).build().expect("valid")
}

/// Past the branch-and-bound's reach the engine sends large problems to
/// D&C, yet greedy's answer costs no more than D&C's: on Figure 11(c)'s
/// 1 000-tuple point at three seeds, and on a path like the engine's own
/// D&C-regime θ-misses.
#[test]
fn greedy_is_no_dearer_than_dnc() {
    let mut problems: Vec<(String, ProblemInstance)> = [42, 43, 44]
        .into_iter()
        .map(|seed| {
            let params = WorkloadParams::scalability_point(1000).with_seed(seed);
            let problem = generate(&params).expect("workload is valid");
            (format!("scalability_point(1000), seed {seed}"), problem)
        })
        .collect();
    let mut rng = Rng64::seed_from_u64(0x9A7B);
    problems.push(("a 66-result path".into(), strategy_path(&mut rng, 66)));
    for (name, problem) in &problems {
        let greedy = greedy::solve(problem, &GreedyOptions::default()).expect("feasible");
        let dnc = dnc::solve(problem, &DncOptions::default()).expect("feasible");
        check_solution(&greedy.solution, problem).expect("greedy's answer is valid");
        check_solution(&dnc.solution, problem).expect("D&C's answer is valid");
        assert!(
            greedy.solution.cost <= dnc.solution.cost,
            "{name}: greedy {} > D&C {}",
            greedy.solution.cost,
            dnc.solution.cost
        );
    }
}

/// FNV-1a over 64-bit words, a byte at a time.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One instance's search trees under all six configurations, each
/// unseeded and greedy-seeded, capped at D&C's per-group node budget, as
/// two rows: the four configurations without H3, then the two with it.
/// A row sums `[nodes, incumbent_updates, pruned_bound, pruned_h2,
/// pruned_h3, pruned_h4, complete runs]` over its runs, then holds an FNV
/// digest of every run's counters and one of every run's solution bits
/// (levels, cost, satisfied set).
fn search_trees(problem: &ProblemInstance) -> [[u64; 9]; 2] {
    let seed = greedy::solve(problem, &GreedyOptions::default())
        .expect("feasible")
        .solution;
    let mut rows = [[0u64; 9]; 2];
    for (row, configs) in rows.iter_mut().zip([
        vec![
            HeuristicOptions::naive(),
            HeuristicOptions::only(Heuristic::H1Ordering),
            HeuristicOptions::only(Heuristic::H2SiblingPrune),
            HeuristicOptions::only(Heuristic::H4CostBound),
        ],
        vec![
            HeuristicOptions::only(Heuristic::H3OptimisticPrune),
            HeuristicOptions::all(),
        ],
    ]) {
        let mut counters = Vec::new();
        let mut solutions = Vec::new();
        for config in configs {
            for options in [config.clone(), config.with_seed(seed.clone())] {
                let options = HeuristicOptions {
                    node_limit: Some(100_000),
                    ..options
                };
                let out =
                    heuristic::solve(problem, &options).expect("a solution within the budget");
                let s = &out.stats;
                let counts = [
                    s.nodes,
                    s.incumbent_updates,
                    s.pruned_bound,
                    s.pruned_h2,
                    s.pruned_h3,
                    s.pruned_h4,
                    u64::from(s.complete),
                ];
                for (total, c) in row.iter_mut().zip(counts) {
                    *total += c;
                }
                counters.extend(counts);
                solutions.extend(solution_words(&out.solution));
            }
        }
        row[7] = fnv(counters);
        row[8] = fnv(solutions);
    }
    rows
}

/// A solution's bits as words: its levels, its cost, its satisfied set.
fn solution_words(solution: &Solution) -> Vec<u64> {
    let levels = solution.levels.iter().map(|l| l.to_bits());
    let satisfied = solution.satisfied.iter().map(|&ri| ri as u64);
    levels
        .chain([solution.cost.to_bits()])
        .chain(satisfied)
        .collect()
}

/// The branch-and-bound walks one tree, whatever arithmetic evaluates
/// its nodes: on seeded instances of the two `strategy` shapes that reach
/// the search (a D&C group and a `miss_small`) and on `random_problem`s,
/// every configuration's node and pruning counts and every solution's
/// bits are pinned, the configurations without H3 in one row and those
/// with it in the next. Moved solution bits fail before moved counters,
/// with their own message: a pruning change may reshape the tree, never
/// the answer.
#[test]
fn the_search_tree_is_pinned() {
    #[rustfmt::skip]
    const PINNED: [[[u64; 9]; 2]; 28] = [
        // Six D&C groups.
        [[111673, 25, 34542, 7, 0, 9, 8, 14940847430176457627, 17006285780322162945],
         [1587, 11, 4, 4, 1468, 0, 4, 6822101947745239709, 8998873690030700465]],
        [[106269, 22, 34166, 6, 0, 114, 8, 16891561540773523880, 17356126588552326085],
         [2031, 10, 4, 4, 1942, 0, 4, 11863585896184468546, 11298036133462502293]],
        [[107481, 17, 33883, 5, 0, 69, 8, 6591478912725708461, 16712945059886277221],
         [1679, 7, 4, 2, 1617, 0, 4, 8670133069798163524, 14758572800087856581]],
        [[155807, 37, 45154, 11, 0, 802, 8, 5734953776454006722, 8874752856899907045],
         [1938, 15, 9, 4, 1819, 0, 4, 8769747060261494925, 12184595189762539269]],
        [[108339, 7, 34179, 2, 0, 100, 8, 15952776181179490201, 5634960602899655893],
         [1267, 3, 1, 1, 1239, 0, 4, 2650691168026794510, 7616964376968400925]],
        [[153538, 27, 44798, 6, 0, 2591, 8, 5007219069299258032, 3925277651971027269],
         [1767, 15, 4, 9, 1668, 0, 4, 1051041488815391664, 9801908269536781749]],
        // Six `miss_small` instances.
        [[427377, 34, 148917, 6, 0, 336, 8, 2138873624189352304, 16184710363161263413],
         [3532, 14, 8, 4, 3439, 0, 4, 12860117715384193748, 11184502139884600205]],
        [[230392, 43, 79453, 2, 0, 465, 8, 7162913238717925640, 18164297533993029381],
         [1947, 17, 16, 0, 1876, 0, 4, 3097818649739423575, 11109757162668278709]],
        [[261284, 9, 97005, 2, 0, 1204, 8, 3821359202288175209, 5142270581091067573],
         [2185, 5, 0, 3, 2133, 0, 4, 12415845204749933837, 1553756943932634941]],
        [[533409, 22, 175033, 6, 0, 4138, 8, 17521986699867184666, 8909930548852704789],
         [3509, 10, 3, 4, 3445, 0, 4, 14933181997398398026, 1293009680652975421]],
        [[272457, 15, 99391, 2, 0, 345, 8, 11115854740990116423, 6271054313404791669],
         [1756, 7, 3, 3, 1701, 0, 4, 14877325144328707235, 18143147520289817981]],
        [[270752, 11, 99709, 3, 0, 266, 8, 9140717842543660291, 14727306918491338205],
         [1385, 5, 2, 2, 1341, 0, 4, 11473277600364297296, 6186453062298457033]],
        // Sixteen `random_problem`s.
        [[8, 4, 0, 0, 0, 0, 8, 1623744873359934117, 6582453027446889925],
         [4, 2, 0, 0, 0, 0, 4, 8237932928066585317, 14442255446379462709]],
        [[142, 10, 83, 0, 0, 0, 8, 2760970941339628248, 15704859045012427957],
         [22, 4, 7, 0, 6, 0, 4, 11443144904550586094, 12394884337275955981]],
        [[2020, 4, 492, 8, 0, 14, 8, 2037959335260975326, 8251352061423724581],
         [94, 2, 2, 1, 81, 0, 4, 14495373501815214981, 18029153586167904165]],
        [[315, 4, 153, 0, 0, 14, 8, 9029762768016399087, 6821553222375587685],
         [27, 2, 2, 0, 20, 0, 4, 12085937363888092260, 6014506632534821509]],
        [[9604, 20, 653, 565, 0, 99, 8, 15718999924509257998, 9324114919786366949],
         [41, 8, 6, 4, 23, 0, 4, 18037007596204920737, 1803135784447406533]],
        [[112959, 17, 27964, 230, 0, 1931, 8, 9747532895463160517, 1219983123913016389],
         [323, 7, 4, 18, 263, 0, 4, 13889797539248764336, 11325057409129500597]],
        [[1105, 43, 235, 2, 0, 6, 8, 17519635010579110884, 16378928296710071621],
         [166, 17, 19, 2, 70, 0, 4, 8638164379283223523, 11410865250218737013]],
        [[166, 13, 73, 0, 0, 5, 8, 1839847866979826308, 6331741654917738613],
         [31, 5, 5, 0, 12, 0, 4, 16443937083458759104, 12126615767108682877]],
        [[8, 4, 0, 0, 0, 0, 8, 1623744873359934117, 8946274036190506277],
         [4, 2, 0, 0, 0, 0, 4, 8237932928066585317, 9614455295622776869]],
        [[198, 16, 87, 0, 0, 0, 8, 8888833719757033822, 1000592115980324133],
         [38, 6, 7, 0, 11, 0, 4, 11328986965973126135, 12498068815270754341]],
        [[544, 10, 144, 0, 0, 2, 8, 7661604208350080743, 12462759372218933541],
         [84, 6, 11, 1, 31, 0, 4, 3462603856100269756, 17685181266360967717]],
        [[8, 4, 0, 0, 0, 0, 8, 1623744873359934117, 8839607402060597829],
         [4, 2, 0, 0, 0, 0, 4, 8237932928066585317, 6631909472135392053]],
        [[8, 4, 0, 0, 0, 0, 8, 1623744873359934117, 9795834476597335765],
         [4, 2, 0, 0, 0, 0, 4, 8237932928066585317, 3457820772534656125]],
        [[45, 7, 22, 2, 0, 0, 8, 3313071676191016587, 1730521491030123109],
         [15, 3, 5, 1, 2, 0, 4, 14491348896535074603, 15532584926657139205]],
        [[43536, 13, 15118, 1464, 0, 1647, 8, 2600447989262144271, 18425618661368288229],
         [289, 5, 4, 1, 262, 0, 4, 14512166125192627778, 11347765164525785093]],
        [[9398, 25, 1397, 6, 0, 70, 8, 9047599599924464075, 11459193511543960853],
         [377, 13, 5, 7, 282, 0, 4, 3441451948569296037, 8565132926080637677]],
    ];
    let mut instances = Vec::new();
    let mut rng = Rng64::seed_from_u64(0x501E_0008);
    for _ in 0..6 {
        instances.push(strategy_group(&mut rng));
    }
    for _ in 0..6 {
        instances.push(strategy_small(&mut rng));
    }
    for_each_case(16, 0x501E_0009, |rng| instances.push(random_problem(rng)));
    assert_eq!(instances.len(), PINNED.len());
    for (i, (problem, pinned)) in instances.iter().zip(&PINNED).enumerate() {
        let rows = search_trees(problem);
        let solutions = |rows: &[[u64; 9]; 2]| rows.map(|row| row[8]);
        assert_eq!(
            solutions(&rows),
            solutions(pinned),
            "instance {i}: a configuration returned other solution bits"
        );
        assert_eq!(
            &rows, pinned,
            "instance {i}: the search walked another tree"
        );
    }
}

fn assert_same_bits(a: &Solution, b: &Solution) {
    let bits = |levels: &[f64]| levels.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.levels), bits(&b.levels));
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.satisfied, b.satisfied);
}

/// A base's grid cost never falls as its step rises, for all five cost
/// families, at seeded initials, caps (at 1, at a draw up to 1 that
/// usually clamps the last step, or at the initial level) and δ values.
/// The bound's early `break`,
/// H3's highest affordable step and its cut of a run of siblings all read
/// the grid this way; step 0 is free, so the run cut at step 0 is the
/// node's own H3.
#[test]
fn grid_costs_never_fall_along_a_base_s_grid() {
    for_each_case(CASES, 0x501E_000A, |rng| {
        let knee = rng.range_f64(0.05, 0.95);
        let families = [
            CostFn::linear(rng.range_f64(0.5, 500.0)).expect("positive rate"),
            CostFn::polynomial(rng.range_f64(0.5, 500.0), rng.range_f64(1.0, 6.0))
                .expect("degree ≥ 1"),
            CostFn::exponential(rng.range_f64(0.5, 50.0), rng.range_f64(0.1, 8.0))
                .expect("positive parameters"),
            CostFn::logarithmic(rng.range_f64(0.5, 200.0), rng.range_f64(0.1, 50.0))
                .expect("positive parameters"),
            CostFn::piecewise(vec![
                (0.0, 0.0),
                (knee, rng.range_f64(0.0, 100.0)),
                (1.0, rng.range_f64(100.0, 400.0)),
            ])
            .expect("monotone breakpoints"),
        ];
        let mut b = ProblemBuilder::new(0.5, rng.range_f64(0.01, 0.35));
        for (i, cost) in families.iter().enumerate() {
            let initial = rng.range_f64(0.0, 0.9);
            let max = match rng.below_u64(3) {
                0 => 1.0,
                1 => rng.range_f64(initial, 1.0),
                _ => initial,
            };
            b.base_capped(i as u64, initial, max, cost.clone());
        }
        let all: Vec<Lineage> = (0..families.len() as u64).map(Lineage::var).collect();
        b.result_from_lineage(&Lineage::or(all))
            .expect("registered");
        let problem = b.require(1).build().expect("valid");
        let delta = problem.delta;
        for (i, base) in problem.bases.iter().enumerate() {
            assert_eq!(
                base.cost_at(delta, 0).to_bits(),
                0.0f64.to_bits(),
                "base {i}"
            );
            for s in 0..base.max_steps(delta) {
                let (here, next) = (base.cost_at(delta, s), base.cost_at(delta, s + 1));
                assert!(
                    next >= here,
                    "base {i} ({}): step {s} costs {here}, step {} costs {next}",
                    base.cost,
                    s + 1
                );
            }
        }
    });
}

/// The grid tables of [`EvalState`] hold what `BaseVar::level_at` /
/// `cost_at`
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
    let delta = problem.delta;
    for (i, base) in problem.bases.iter().enumerate() {
        for s in 0..=base.max_steps(delta) {
            state.set_steps(i, s);
            assert_eq!(
                state.to_solution().levels[i].to_bits(),
                base.level_at(delta, s).to_bits(),
                "base {i} step {s}"
            );
            assert_eq!(
                state.to_solution().cost.to_bits(),
                base.cost_at(delta, s).to_bits(),
                "base {i} step {s}"
            );
            // Back to zero: `c + (0 − c)` is exactly 0, so the next step
            // starts from a clean total again.
            state.set_steps(i, 0);
            assert_eq!(state.to_solution().cost.to_bits(), 0.0f64.to_bits());
        }
        // Asking beyond the grid clamps to its last point.
        state.set_steps(i, u32::MAX);
        assert_eq!(state.steps_of(i), Some(base.max_steps(delta)));
        state.set_steps(i, 0);
    }
}
