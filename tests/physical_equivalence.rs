//! Physical-execution acceptance suite.
//!
//! The contract of `algebra::physical` is that planning and vectorized
//! execution are pure performance decisions: for every query in the grid
//! below, over randomised databases (NULL keys included), the optimised,
//! lowered plan run on the vectorized executor must produce a
//! **bit-identical** `ResultSet` — same rows, same order, same lineage,
//! same scored confidence bits — as the reference pipeline in
//! `tests/common` (the logical plan on the sequential walker), at any
//! worker-thread count, with or without equality indexes.
//!
//! A golden snapshot of the `.plan` rendering (logical and physical plan
//! side by side) for the paper's Section 3.1 running example pins the
//! planner's choices; regenerate with
//! `PCQE_BLESS=1 cargo test --test physical_equivalence bless`.

mod common;

use common::{assert_rows_identical, for_each_case, reference_rows};
use pcqe::algebra::{execute_vectorized_with, lower, optimize};
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig};
use pcqe::lineage::{CircuitCache, Evaluator, Rng64, VarId};
use pcqe::par::Parallelism;
use pcqe::policy::ConfidencePolicy;
use pcqe::sql::parse_and_plan;
use pcqe::storage::{Catalog, Column, DataType, Schema, TupleId, Value};

const CASES: u64 = 48;

/// The query-shape grid: scans, pushdowns, equi and non-equi joins,
/// cross joins, set operations, sorting, limits and aggregation.
const QUERIES: &[&str] = &[
    "SELECT * FROM orders",
    "SELECT * FROM orders WHERE amount > 2 AND cust = 1",
    "SELECT cust FROM orders WHERE cust = 2",
    "SELECT DISTINCT cust FROM orders WHERE amount > 1",
    "SELECT o.amount FROM orders o JOIN customers c ON o.cust = c.id WHERE o.amount > 2 AND c.id < 3",
    "SELECT o.amount FROM orders o JOIN customers c ON o.cust = c.id AND o.amount > c.id",
    "SELECT o.amount, c.score FROM orders o, customers c WHERE o.cust = c.id AND amount > 1",
    "SELECT o.cust FROM orders o, customers c WHERE o.amount > c.id",
    "SELECT o.cust FROM orders o, customers c",
    "SELECT cust FROM orders WHERE amount > 1 UNION SELECT id FROM customers WHERE id > 0",
    "SELECT cust FROM orders EXCEPT SELECT id FROM customers WHERE id > 1",
    "SELECT cust, amount FROM orders ORDER BY amount DESC LIMIT 2",
    "SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust HAVING n > 0",
    "SELECT cust FROM orders WHERE amount + 1 > 2 AND NOT (cust = 9)",
];

fn build_catalog(
    orders: &[(Option<i64>, i64, f64)],
    customers: &[(i64, f64, f64)],
    indexed: bool,
) -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        "orders",
        Schema::new(vec![
            Column::new("cust", DataType::Int),
            Column::new("amount", DataType::Int),
        ])
        .unwrap(),
    )
    .unwrap();
    c.create_table(
        "customers",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("score", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    for &(cust, amount, conf) in orders {
        let key = cust.map(Value::Int).unwrap_or(Value::Null);
        c.insert("orders", vec![key, Value::Int(amount)], conf)
            .unwrap();
    }
    for &(id, score, conf) in customers {
        c.insert("customers", vec![Value::Int(id), Value::Real(score)], conf)
            .unwrap();
    }
    if indexed {
        c.create_index("orders", "cust").unwrap();
        c.create_index("customers", "id").unwrap();
    }
    c
}

fn random_orders(rng: &mut Rng64) -> Vec<(Option<i64>, i64, f64)> {
    let n = rng.below_usize(8);
    (0..n)
        .map(|_| {
            let key = if rng.chance(0.15) {
                None // NULL keys must behave identically on both sides.
            } else {
                Some(rng.below_u64(4) as i64)
            };
            (key, rng.below_u64(6) as i64, rng.range_f64(0.05, 0.95))
        })
        .collect()
}

fn random_customers(rng: &mut Rng64) -> Vec<(i64, f64, f64)> {
    let n = rng.below_usize(5);
    (0..n)
        .map(|_| {
            (
                rng.below_u64(4) as i64,
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(0.05, 0.95),
            )
        })
        .collect()
}

/// Run one query through the reference pipeline and through optimise →
/// lower → vectorized execution under `par`; assert the two result sets
/// are bit-identical (rows, order, lineage) and that cached scoring of
/// the vectorized rows reproduces the reference's score bits.
fn assert_bit_identical(sql: &str, catalog: &Catalog, par: &Parallelism, label: &str) {
    let expected = reference_rows(sql, catalog);
    let plan = parse_and_plan(sql, catalog).expect("plans");
    let logical = optimize(&plan, catalog).expect("optimises");
    let physical = lower(&logical, catalog).expect("lowers");
    let got = execute_vectorized_with(&physical, catalog, par).expect("vectorized");
    let context = format!("{sql} ({label})\nphysical plan:\n{physical}");
    assert_rows_identical(&expected, &got, &context);

    let probs = |v: VarId| catalog.confidence(TupleId(v.0));
    let ev = Evaluator::default();
    let mut cache = CircuitCache::new();
    for row in got.rows() {
        for v in row.lineage.vars() {
            cache.set_prob(v, probs(v).expect("known tuple"));
        }
    }
    let reference = expected.score(&probs, &ev).expect("scores");
    let cached = got.score_cached(&mut cache, &ev).expect("scores");
    for (x, y) in reference.iter().zip(&cached) {
        assert_eq!(
            x.confidence.to_bits(),
            y.confidence.to_bits(),
            "confidence bits diverged for {context}"
        );
    }
}

#[test]
fn physical_execution_is_bit_identical_to_logical() {
    let sequential = Parallelism::sequential();
    let four = Parallelism {
        worker_threads: Some(4),
        parallel_threshold: 1,
    };
    let host = Parallelism {
        worker_threads: None,
        parallel_threshold: 1,
    };
    for_each_case(CASES, 0x0097_0001, |rng| {
        let orders = random_orders(rng);
        let customers = random_customers(rng);
        for indexed in [false, true] {
            let catalog = build_catalog(&orders, &customers, indexed);
            for sql in QUERIES {
                assert_bit_identical(sql, &catalog, &sequential, "1 thread");
                assert_bit_identical(sql, &catalog, &four, "4 threads");
                assert_bit_identical(sql, &catalog, &host, "host threads");
            }
        }
    });
}

#[test]
fn index_scans_are_planned_and_bit_identical() {
    // A database big enough that the planner prefers the index, with
    // duplicate keys so postings order matters.
    let orders: Vec<(Option<i64>, i64, f64)> = (0..40)
        .map(|i| (Some(i % 4), i % 6, 0.05 + 0.9 * ((i % 9) as f64) / 9.0))
        .collect();
    let catalog = build_catalog(&orders, &[(1, 0.5, 0.9)], true);
    let sql = "SELECT * FROM orders WHERE cust = 2 AND amount > 1";
    let plan = parse_and_plan(sql, &catalog).unwrap();
    let logical = optimize(&plan, &catalog).unwrap();
    let physical = lower(&logical, &catalog).unwrap();
    assert!(
        physical.to_string().contains("IndexScan orders (cust = 2)"),
        "{physical}"
    );
    assert_bit_identical(sql, &catalog, &Parallelism::sequential(), "indexed");
}

// ---------------------------------------------------------------------------
// Golden EXPLAIN snapshot of the paper's running example.

const PAPER_QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

/// The Section 3.1 database (same fixture as `tests/obs_determinism.rs`).
fn paper_db() -> Database {
    let mut db = Database::new(EngineConfig::default().sequential());
    db.create_table(
        "Proposal",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("proposal", DataType::Text),
            Column::new("funding", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "CompanyInfo",
        Schema::new(vec![
            Column::new("company", DataType::Text),
            Column::new("income", DataType::Real),
        ])
        .unwrap(),
    )
    .unwrap();
    let t02 = db
        .insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v1"),
                Value::Real(800_000.0),
            ],
            0.3,
        )
        .unwrap();
    let t03 = db
        .insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v2"),
                Value::Real(900_000.0),
            ],
            0.4,
        )
        .unwrap();
    let t13 = db
        .insert(
            "CompanyInfo",
            vec![Value::text("SkyCam"), Value::Real(500_000.0)],
            0.1,
        )
        .unwrap();
    db.set_cost(t02, CostFn::linear(1000.0).unwrap()).unwrap();
    db.set_cost(t03, CostFn::linear(100.0).unwrap()).unwrap();
    db.set_cost(t13, CostFn::linear(10_000.0).unwrap()).unwrap();
    db.add_policy(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
    db
}

/// Regenerate the golden EXPLAIN snapshot:
/// `PCQE_BLESS=1 cargo test --test physical_equivalence bless`.
#[test]
fn bless_golden_explain_when_requested() {
    if std::env::var_os("PCQE_BLESS").is_none() {
        return;
    }
    let text = paper_db().explain_physical(PAPER_QUERY).unwrap();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("explain_paper.txt"), text).unwrap();
}

#[test]
fn paper_example_explain_matches_golden_snapshot() {
    let text = paper_db().explain_physical(PAPER_QUERY).unwrap();
    assert_eq!(
        text,
        include_str!("golden/explain_paper.txt"),
        "EXPLAIN drifted from tests/golden/explain_paper.txt \
         (regenerate with PCQE_BLESS=1 if the change is intended)"
    );
}
