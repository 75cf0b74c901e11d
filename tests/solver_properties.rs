//! Seeded property tests over the strategy-finding algorithms: on random
//! feasible instances, every solver's answer validates, the exact search
//! is never beaten, phase 2 never hurts, pruning never changes the
//! optimum, the greedy's lazy heap picks what Figure 6's rescan picks, a
//! batch of one query is that query, incremental evaluation is full
//! evaluation, and the branch-and-bound walks a pinned tree.

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

/// A problem for the incremental-evaluation law: 3–6 bases over lineage
/// with shared variables (so circuits hold `Mix` and DAG-shared nodes),
/// negation and constants; some bases capped off the grid, some starting
/// at zero.
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
        b.result_from_lineage(&common::random_lineage(rng, n_bases, 3))
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
                    state.probe_step_gain(i, rng.chance(0.5));
                }
            }
            let levels: Vec<f64> = (0..k).map(|b| state.level(b)).collect();
            let fresh = |levels: &[f64], ri: usize| {
                let r = &problem.results[ri];
                let args: Vec<f64> = r.bases.iter().map(|&b| levels[b]).collect();
                r.conf.eval(&args)
            };
            let mut satisfied = 0;
            for ri in 0..problem.results.len() {
                let expected = fresh(&levels, ri);
                assert_eq!(
                    state.confidence(ri).to_bits(),
                    expected.to_bits(),
                    "result {ri}"
                );
                satisfied += usize::from(expected > problem.beta);
            }
            assert_eq!(state.satisfied_count(), satisfied);
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
/// unseeded and greedy-seeded, capped at D&C's per-group node budget:
/// summed `[nodes, incumbent_updates, pruned_bound, pruned_h2, pruned_h3,
/// pruned_h4, complete runs]`, then an FNV digest of every run's counters
/// and its solution's level and cost bits.
fn search_trees(problem: &ProblemInstance) -> [u64; 8] {
    let seed = greedy::solve(problem, &GreedyOptions::default())
        .expect("feasible")
        .solution;
    let mut totals = [0u64; 8];
    let mut words = Vec::new();
    for config in [
        HeuristicOptions::naive(),
        HeuristicOptions::only(1),
        HeuristicOptions::only(2),
        HeuristicOptions::only(3),
        HeuristicOptions::only(4),
        HeuristicOptions::all(),
    ] {
        for options in [config.clone(), config.with_seed(seed.clone())] {
            let options = HeuristicOptions {
                node_limit: Some(100_000),
                ..options
            };
            let out = heuristic::solve(problem, &options).expect("a solution within the budget");
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
            for (total, c) in totals.iter_mut().zip(counts) {
                *total += c;
            }
            words.extend(counts);
            words.extend(out.solution.levels.iter().map(|l| l.to_bits()));
            words.push(out.solution.cost.to_bits());
        }
    }
    totals[7] = fnv(words);
    totals
}

/// The branch-and-bound walks one tree, whatever arithmetic evaluates
/// its nodes: on seeded instances of the two `strategy` shapes that reach
/// the search (a D&C group and a `miss_small`) and on `random_problem`s,
/// every configuration's node and pruning counts and every solution's
/// bits are pinned. The numbers were recorded on the commit before
/// results were evaluated incrementally, where the search re-ran every
/// touched circuit from its leaves.
#[test]
fn the_search_tree_is_pinned() {
    #[rustfmt::skip]
    const PINNED: [[u64; 8]; 28] = [
        // Six D&C groups.
        [135082, 36, 43048, 13, 7226, 30, 12, 7003176865272340571],
        [177740, 92, 53631, 30, 8835, 4215, 12, 15723981508835080836],
        [127867, 25, 41016, 7, 7304, 896, 12, 11471752433125840337],
        [195832, 58, 57463, 16, 9425, 1525, 12, 7628524165103053973],
        [129274, 11, 41857, 3, 7400, 203, 12, 1313942950871772865],
        [182138, 42, 54437, 15, 6448, 4194, 12, 11625530681349123280],
        // Six `miss_small` instances; two naive runs of the fourth stop
        // at the node budget.
        [503453, 48, 175230, 12, 31041, 819, 12, 5162948169866481846],
        [291886, 49, 100850, 2, 16347, 3947, 12, 12294733196871621664],
        [312843, 14, 118715, 5, 14958, 393, 12, 5756263444479450331],
        [674298, 40, 211024, 10, 30820, 14768, 10, 17649166314994321388],
        [309263, 17, 115336, 5, 16152, 299, 12, 8388079978357025050],
        [301382, 16, 112920, 5, 12336, 24, 12, 17837688464345885931],
        // Sixteen `random_problem`s.
        [12, 6, 0, 0, 0, 0, 12, 10284473019225436525],
        [198, 14, 116, 0, 0, 0, 12, 9687029733228238637],
        [2330, 6, 596, 16, 150, 22, 12, 13194026647778609398],
        [407, 8, 203, 0, 18, 20, 12, 14259662911118794628],
        [9704, 28, 697, 569, 44, 99, 12, 9794821705653860725],
        [120016, 24, 30313, 256, 446, 1939, 12, 5997216170588125171],
        [1431, 64, 317, 4, 22, 6, 12, 7804097755154071003],
        [251, 22, 109, 0, 0, 7, 12, 13254303712475809208],
        [12, 6, 0, 0, 0, 0, 12, 16036724000662917605],
        [280, 22, 122, 0, 0, 2, 12, 9539882378597827143],
        [784, 16, 223, 1, 4, 4, 12, 7444561686563436415],
        [12, 6, 0, 0, 0, 0, 12, 11788853437399863981],
        [12, 6, 0, 0, 0, 0, 12, 4740806440409328941],
        [66, 10, 33, 3, 0, 0, 12, 14411655181971534973],
        [53182, 24, 19698, 1467, 849, 1653, 12, 7666136181342416827],
        [10966, 38, 1749, 13, 252, 79, 12, 6035420475823552576],
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
        assert_eq!(&search_trees(problem), pinned, "instance {i}");
    }
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
