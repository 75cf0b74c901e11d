//! Seeded property tests over the lineage substrate: simplification is
//! semantics-preserving, exact probability matches brute-force
//! enumeration, the compiled form matches the interpreter, and Monte-Carlo
//! estimation converges to the exact value.

mod common;

use common::{for_each_case, random_lineage, random_positive_lineage, random_probs};
use pcqe::lineage::{
    CircuitCache, CompiledLineage, Evaluator, Lineage, LineageError, MonteCarlo, Rng64, SplitMix64,
    VarId,
};
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

// ---------------------------------------------------------------------------
// The scoring table. `tests/golden/lineage_scoring.tsv` was generated on
// the commit *before* the formula passes and the pool's variable table
// were rewritten (PR 19), from the definitions those replaced: one line
// per seeded formula with its confidence bits and its Shannon cost. A
// changed pivot rule, dedupe order or association order moves a line
// here, in `cargo test -q`, not only in the benchmark's checksums.

const SCORING_CASES: u64 = 120;
const SCORING_BUDGET: usize = 4096;

/// Ids from here up are the tuples of the wide shapes.
const SCAN_IDS: u64 = 1_000;

/// A probability for any variable id, a fixed function of the id. The
/// tuples of the wide shapes get small ones: an OR over hundreds of
/// ordinary probabilities is 1.0 in any order, and would pin nothing.
fn scoring_prob(v: VarId) -> Option<f64> {
    let z = SplitMix64::new(v.0).next_u64();
    let p = 0.02 + 0.96 * ((z >> 11) as f64 / (1u64 << 53) as f64);
    Some(if v.0 < SCAN_IDS { p } else { p / 256.0 })
}

/// `n` variable leaves drawn from `0..universe`, repeats allowed.
fn scoring_leaves(rng: &mut Rng64, n: usize, universe: u64) -> Vec<Lineage> {
    (0..n)
        .map(|_| Lineage::var(rng.below_u64(universe)))
        .collect()
}

/// A raw seeded formula — built with the enum constructors, so nothing is
/// simplified before the code under test sees it. The nine shapes are
/// the ones scoring pays for: small mixed trees with constants and
/// negation, short lists with repeats, a ring and a DNF over a few shared variables (pivot ties), scan-fed wide
/// ORs (ascending, then shuffled with repeats), nested same-connective
/// lists, a join's OR of ANDs over shared build-side variables, a
/// variable repeated inside one child, and a wide AND.
fn scoring_formula(rng: &mut Rng64, case: u64) -> Lineage {
    fn tree(rng: &mut Rng64, depth: u32) -> Lineage {
        if depth == 0 || rng.below_u64(4) == 0 {
            return if rng.chance(0.85) {
                Lineage::var(rng.below_u64(7))
            } else {
                Lineage::Const(rng.chance(0.5))
            };
        }
        let kids = |rng: &mut Rng64| -> Vec<Lineage> {
            (0..rng.range_usize(1, 6))
                .map(|_| tree(rng, depth - 1))
                .collect()
        };
        match rng.below_u64(5) {
            0 => Lineage::Not(Box::new(tree(rng, depth - 1))),
            1 | 2 => Lineage::And(kids(rng)),
            _ => Lineage::Or(kids(rng)),
        }
    }
    match case % 8 {
        0 if case % 16 == 8 => {
            // A handful of tuples, some of them twice and none in order:
            // the short-list dedupe decides the order of the product.
            let n = rng.range_usize(4, 9);
            Lineage::Or(scoring_leaves(rng, n, 6))
        }
        0 => tree(rng, 3),
        1 => {
            // A ring x₀x₁ ∨ x₁x₂ ∨ … ∨ xₙx₀, branches shuffled: every
            // variable is in exactly two children, so the pivot is decided
            // by the tie rule alone, again after each expansion.
            let n = rng.range_usize(3, 9) as u64;
            let mut branches: Vec<Lineage> = (0..n)
                .map(|i| Lineage::And(vec![Lineage::var(i), Lineage::var((i + 1) % n)]))
                .collect();
            rng.shuffle(&mut branches);
            Lineage::Or(branches)
        }
        2 => {
            // DNF over a handful of variables: every branch an AND of two
            // or three of them, so several variables tie for the pivot.
            let universe = rng.range_usize(4, 9) as u64;
            let branches = rng.range_usize(2, 12);
            Lineage::Or(
                (0..branches)
                    .map(|_| {
                        let width = rng.range_usize(2, 4);
                        Lineage::And(scoring_leaves(rng, width, universe))
                    })
                    .collect(),
            )
        }
        3 => {
            // A scan-fed aggregate: one wide OR over ascending ids, ANDed
            // with a shared tuple; every sixth case is 2 000 wide.
            let n = if case % 48 == 3 {
                2_000
            } else {
                rng.range_usize(9, 400)
            };
            let start = SCAN_IDS + rng.below_u64(1_000);
            let or = Lineage::Or((0..n as u64).map(|i| Lineage::var(start + 2 * i)).collect());
            Lineage::And(vec![or, Lineage::var(start + 1)])
        }
        4 => {
            // The same tuples out of id order and more than once.
            let n = rng.range_usize(9, 300);
            let first = SCAN_IDS + rng.below_u64(64);
            let mut leaves: Vec<Lineage> = (0..n)
                .map(|_| Lineage::var(first + rng.below_u64((n as u64 * 2) / 3 + 1)))
                .collect();
            rng.shuffle(&mut leaves);
            if rng.chance(0.3) {
                leaves.push(Lineage::Const(false));
            }
            Lineage::Or(leaves)
        }
        5 => {
            // Nested same-connective lists whose members repeat across
            // the nesting levels, with a negated sibling.
            let inner = |rng: &mut Rng64| {
                let n = rng.range_usize(1, 8);
                Lineage::Or(scoring_leaves(rng, n, 12))
            };
            let mut kids = vec![inner(rng), Lineage::var(rng.below_u64(12)), inner(rng)];
            kids.push(Lineage::Or(vec![inner(rng), Lineage::Const(false)]));
            let negated = Lineage::Not(Box::new(Lineage::And(scoring_leaves(rng, 2, 12))));
            Lineage::And(vec![Lineage::Or(kids), negated])
        }
        6 => {
            // DISTINCT over a join: OR of (probe ∧ build) pairs, a few
            // build-side tuples shared by many probe-side ones.
            // One case in three lets a probe-side tuple meet two build-side
            // ones, which no factoring makes read-once.
            let n = rng.range_usize(9, 200);
            let builds = rng.range_usize(1, 4) as u64;
            let stutter = if case % 24 == 6 { 0.1 } else { 0.0 };
            let mut probe = SCAN_IDS;
            Lineage::Or(
                (0..n)
                    .map(|_| {
                        probe += u64::from(!rng.chance(stutter));
                        Lineage::And(vec![
                            Lineage::var(probe),
                            Lineage::var(rng.below_u64(builds)),
                        ])
                    })
                    .collect(),
            )
        }
        _ => {
            // A variable repeated inside one child, children that share
            // it, and a wide AND of distinct tuples beside them.
            let v = rng.below_u64(5);
            let twice = Lineage::Or(vec![
                Lineage::And(vec![Lineage::var(v), Lineage::var(5)]),
                Lineage::And(vec![Lineage::var(v), Lineage::var(6)]),
            ]);
            let other = Lineage::Or(vec![Lineage::var(v), Lineage::var(7)]);
            let n = rng.range_usize(1, 40);
            let wide = Lineage::And((0..n as u64).map(|i| Lineage::var(20 + i)).collect());
            Lineage::And(vec![twice, other, wide])
        }
    }
}

fn scoring_case(case: u64) -> Lineage {
    let seed = 0x5C0E_1A7E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    scoring_formula(&mut Rng64::seed_from_u64(seed), case)
}

/// One table line: case, FNV-1a of the printed formula (pins the
/// generator), confidence bits, and the least budget exact evaluation
/// succeeds with — or `over` when 4 096 expansions are not enough.
fn scoring_line(case: u64, l: &Lineage) -> String {
    let digest = l
        .to_string()
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
    let exact = |budget: usize| Evaluator::exact_only(budget).probability(l, &scoring_prob);
    match exact(SCORING_BUDGET) {
        Ok(p) => {
            // Success is monotone in the budget (parity: it succeeds iff
            // the budget covers the cost), so bisect for the cost.
            let (mut lo, mut hi) = (0usize, SCORING_BUDGET);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if exact(mid).is_ok() {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            format!("{case}\t{digest:016x}\t{:016x}\t{lo}", p.to_bits())
        }
        Err(e) => format!("{case}\t{digest:016x}\tover\t{e}"),
    }
}

fn scoring_table_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lineage_scoring.tsv")
}

/// Regenerate the table — only ever on a commit whose scoring is known
/// good: `PCQE_BLESS=1 cargo test --test lineage_properties bless`.
#[test]
fn bless_scoring_table_when_requested() {
    if std::env::var_os("PCQE_BLESS").is_none() {
        return;
    }
    let table: String = (0..SCORING_CASES)
        .map(|case| scoring_line(case, &scoring_case(case)) + "\n")
        .collect();
    std::fs::write(scoring_table_path(), table).unwrap();
}

#[test]
fn scoring_table_is_unchanged() {
    let golden = include_str!("golden/lineage_scoring.tsv");
    let mut lines = golden.lines();
    let (mut expanded, mut over) = (0u32, 0u32);
    for case in 0..SCORING_CASES {
        let l = scoring_case(case);
        let want = lines.next().expect("one golden line per case");
        assert_eq!(scoring_line(case, &l), want, "case {case}: {l}");
        let fields: Vec<&str> = want.split('\t').collect();
        if fields[2] == "over" {
            over += 1;
            continue;
        }
        let bits = u64::from_str_radix(fields[2], 16).unwrap();
        let cost: usize = fields[3].parse().unwrap();
        expanded += u32::from(cost > 0);
        // The pool, cold and warm, charges the same cost for the same
        // bits, and refuses one expansion less with the same error.
        let mut pool = CircuitCache::new();
        for v in l.vars() {
            pool.set_prob(v, scoring_prob(v).unwrap());
        }
        for pass in ["cold", "warm"] {
            let id = pool.compile(&l, cost).unwrap();
            assert_eq!(pool.score(id).unwrap().to_bits(), bits, "{pass} {case}");
            let flat = pool.compiled(id).unwrap();
            let by_slot = flat.eval_with(|v| scoring_prob(v).unwrap());
            assert_eq!(by_slot.to_bits(), bits, "{pass} flat {case}");
        }
        if let Some(short) = cost.checked_sub(1) {
            let refused = LineageError::BudgetExceeded { budget: 0 };
            assert_eq!(pool.compile(&l, short), Err(refused.clone()), "warm {case}");
            assert_eq!(CircuitCache::new().compile(&l, short), Err(refused.clone()));
            let plain = Evaluator::exact_only(short).probability(&l, &scoring_prob);
            assert_eq!(plain, Err(refused), "interpreter {case}");
        }
    }
    assert!(lines.next().is_none(), "golden table has extra lines");
    assert!(expanded >= 20, "only {expanded} cases needed an expansion");
    assert!(over <= 6, "{over} cases ran out of budget");
}

// ---------------------------------------------------------------------------
// Sparse and hostile variable ids.

/// The pool keeps its per-variable state in a table indexed by id. Ids
/// are whatever the storage layer restored — `u64::MAX`, 2⁴⁰, thousands
/// of ids 2³² apart — so the table must cost memory per variable, not per
/// id: anything dense in the id aborts here. Through `set_prob`,
/// `score_lineage` and `compiled` the answers are the interpreter's bits.
#[test]
fn sparse_and_hostile_variable_ids_score_like_the_interpreter() {
    let far: Vec<u64> = (1..=3_000u64).map(|i| i << 32).collect();
    let odd = [u64::MAX, u64::MAX - 64, 1 << 40, (1 << 40) + 63, 0, 63, 64];
    let or_of = |ids: &[u64]| Lineage::Or(ids.iter().map(|&v| Lineage::var(v)).collect());
    let mut shuffled = far.clone();
    Rng64::seed_from_u64(0x11AE_000A).shuffle(&mut shuffled);
    let formulas = [
        or_of(&far),
        or_of(&shuffled),
        Lineage::And(vec![or_of(&far[..500]), Lineage::var(u64::MAX)]),
        // Shared hostile ids: u64::MAX ties with 2⁴⁰ and must lose to it.
        Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(u64::MAX), Lineage::var(1 << 40)]),
            Lineage::And(vec![Lineage::var(1 << 40), Lineage::var(63)]),
            Lineage::And(vec![Lineage::var(64), Lineage::var(u64::MAX)]),
            Lineage::Not(Box::new(Lineage::var(u64::MAX - 64))),
        ]),
        or_of(&odd),
    ];
    let mut probs: std::collections::BTreeMap<VarId, f64> = far
        .iter()
        .chain(&odd)
        .map(|&v| (VarId(v), scoring_prob(VarId(v)).unwrap() / 600.0))
        .collect();
    let ev = Evaluator::exact_only(1 << 12);
    let mut pool = CircuitCache::new();
    for (&v, &p) in &probs {
        pool.set_prob(v, p);
    }
    let agree = |pool: &mut CircuitCache, probs: &std::collections::BTreeMap<VarId, f64>| {
        for l in &formulas {
            let want = ev.probability(l, probs).unwrap().to_bits();
            assert_eq!(
                pool.score_lineage(l, &ev).unwrap().to_bits(),
                want,
                "{l:.40}"
            );
            let id = pool.compile(l, 1 << 12).unwrap();
            let flat = pool.compiled(id).unwrap();
            assert_eq!(
                flat.eval_with(|v| probs[&v]).to_bits(),
                want,
                "flat {l:.40}"
            );
        }
    };
    agree(&mut pool, &probs);
    // Moving hostile ids invalidates exactly their readers.
    for v in [u64::MAX, 1 << 40, 3_000 << 32, 1 << 32] {
        probs.insert(VarId(v), 0.75);
        pool.set_prob(VarId(v), 0.75);
    }
    agree(&mut pool, &probs);
    assert!(pool.stats().invalidated > 0);
    // A variable nobody set is unknown, wherever its page is.
    let unknown = VarId(u64::MAX - 1);
    assert_eq!(
        pool.score_lineage(&Lineage::Var(unknown), &ev),
        Err(LineageError::UnknownVar(unknown))
    );
}
