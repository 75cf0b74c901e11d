//! Cross-crate reproduction of the paper's Section 3.1 running example:
//! Tables 1–2 in storage, the Candidate query through the SQL front-end
//! and algebra, p38 = 0.058 from the reference interpreter (Table 3), the
//! P1/P2 policies, and both increment alternatives the paper discusses.

mod common;

use common::execute;
use common::interpreter::{probability, score};
use pcqe::core::heuristic::{self, HeuristicOptions};
use pcqe::core::problem::ProblemBuilder;
use pcqe::cost::CostFn;
use pcqe::lineage::{Evaluator, Lineage, VarId};
use pcqe::policy::{evaluate_results, ConfidencePolicy};
use pcqe::sql::parse_and_plan;
use pcqe::storage::{Catalog, TupleId};

/// The Section 3.1 tables, and the ids of t02, t03 and t13.
fn build_tables() -> (Catalog, TupleId, TupleId, TupleId) {
    (
        common::paper_spec().catalog(false),
        TupleId(0),
        TupleId(1),
        TupleId(2),
    )
}

const QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

#[test]
fn candidate_query_scores_0_058() {
    let (catalog, ..) = build_tables();
    let plan = parse_and_plan(QUERY, &catalog).unwrap();
    let rs = execute(&plan, &catalog).unwrap();
    assert_eq!(rs.len(), 1);
    let probs = |v: VarId| catalog.confidence(TupleId(v.0));
    let scored = score(&rs, &probs, Evaluator::default().budget).unwrap();
    // Table 3: p38 = (p02 + p03 − p02·p03) · p13 = 0.58 · 0.1.
    assert!((scored[0].confidence - 0.058).abs() < 1e-12);
}

#[test]
fn policies_p1_and_p2_split_on_the_result() {
    let p1 = ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap();
    let p2 = ConfidencePolicy::new("Manager", "investment", 0.06).unwrap();
    let confidences = [0.058];
    assert_eq!(evaluate_results(&p1, &confidences).released, vec![0]);
    assert!(evaluate_results(&p2, &confidences).released.is_empty());
}

#[test]
fn both_increment_alternatives_reproduce_the_papers_arithmetic() {
    let budget = Evaluator::default().budget;
    let lineage = Lineage::and(vec![
        Lineage::or(vec![Lineage::var(0), Lineage::var(1)]),
        Lineage::var(2),
    ]);
    // Alternative 1: raise p02 from 0.3 to 0.4 ⇒ p25 = 0.64, p38 = 0.064.
    let alt1 = |v: VarId| Some([0.4, 0.4, 0.1][v.0 as usize]);
    let p = probability(&lineage, &alt1, budget).unwrap();
    assert!((p - 0.064).abs() < 1e-12);
    // Alternative 2: raise p03 from 0.4 to 0.5 ⇒ p25 = 0.65, p38 = 0.065.
    let alt2 = |v: VarId| Some([0.3, 0.5, 0.1][v.0 as usize]);
    let p = probability(&lineage, &alt2, budget).unwrap();
    assert!((p - 0.065).abs() < 1e-12);
}

#[test]
fn exact_strategy_picks_the_cheap_alternative() {
    // Costs per the paper: +0.1 on tuple 02 costs 100, on tuple 03 costs
    // 10; raising the joined financials is costlier still.
    let mut b = ProblemBuilder::new(0.06, 0.1);
    b.base(2, 0.3, CostFn::linear(1000.0).unwrap());
    b.base(3, 0.4, CostFn::linear(100.0).unwrap());
    b.base(13, 0.1, CostFn::linear(10_000.0).unwrap());
    b.result_from_lineage(&Lineage::and(vec![
        Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
        Lineage::var(13),
    ]))
    .unwrap();
    let problem = b.require(1).build().unwrap();
    let out = heuristic::solve(&problem, &HeuristicOptions::all()).unwrap();
    let incs = out.solution.increments(&problem);
    assert_eq!(incs.len(), 1);
    assert_eq!(incs[0].id, 3, "the paper chooses tuple 03");
    assert!((incs[0].to - 0.5).abs() < 1e-12);
    assert!((out.solution.cost - 10.0).abs() < 1e-9);
}

#[test]
fn lineage_from_sql_matches_the_papers_formula() {
    let (catalog, t02, t03, t13) = build_tables();
    let plan = parse_and_plan(QUERY, &catalog).unwrap();
    let rs = execute(&plan, &catalog).unwrap();
    let got = &rs.rows()[0].lineage;
    let expected = Lineage::and(vec![
        Lineage::or(vec![Lineage::var(t02.0), Lineage::var(t03.0)]),
        Lineage::var(t13.0),
    ]);
    // Same variables and same truth table (the produced DNF is a
    // logically equal form of the paper's factored formula).
    let vars = expected.vars();
    assert_eq!(got.vars(), vars);
    for bits in 0..(1u32 << vars.len()) {
        let assign = |v: VarId| {
            let slot = vars.iter().position(|&x| x == v).unwrap();
            bits & (1 << slot) != 0
        };
        assert_eq!(got.eval(&assign), expected.eval(&assign));
    }
}
