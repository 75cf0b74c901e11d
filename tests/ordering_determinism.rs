//! Regression guard for result ordering.
//!
//! The executor's join build side, GROUP BY index, and DISTINCT/OR merge
//! used to hash-index tuples; iteration over those maps decided the order
//! of emitted rows, so two *identical* databases in the same process
//! could answer the same query in different row orders (each `HashMap`
//! draws a fresh `RandomState`). The indexes are ordered maps now
//! (`clippy.toml` bans `HashMap`/`HashSet`), and this suite pins the
//! consequence: rebuilding the same database and re-running the same
//! query yields a bit-identical transcript, row order included — with no
//! ORDER BY to hide behind.

mod common;

use common::DbSpec;
use pcqe::engine::{Database, EngineConfig, QueryRequest, QueryResponse, User};
use pcqe::lineage::Rng64;
use pcqe::storage::{DataType, Value};

/// Build a fresh database with identically seeded contents each call.
fn populated() -> Database {
    populated_traced().0
}

/// Like [`populated`], also reporting the order in which each region
/// first appears in the insert stream.
fn populated_traced() -> (Database, Vec<String>) {
    let regions = ["east", "north", "south", "west"];
    let mut first_seen: Vec<String> = Vec::new();
    let mut rng = Rng64::seed_from_u64(0xD001_0806);
    let mut orders = Vec::new();
    for _ in 0..400 {
        let region = regions[rng.below_u64(regions.len() as u64) as usize];
        if !first_seen.iter().any(|r| r == region) {
            first_seen.push(region.to_owned());
        }
        let (cust, amount) = (rng.below_u64(40) as i64, rng.below_u64(900) as i64);
        let row = vec![Value::text(region), Value::Int(cust), Value::Int(amount)];
        orders.push((rng.range_f64(0.2, 0.99), row));
    }
    let names = regions.map(|name| (rng.range_f64(0.6, 0.99), vec![Value::text(name)]));
    let (int, text) = (DataType::Int, DataType::Text);
    let spec = DbSpec::default()
        .table(
            "orders",
            &[("region", text), ("cust", int), ("amount", int)],
        )
        .rows(orders)
        .table("regions", &[("name", text)])
        .rows(names);
    let mut db = spec.database(EngineConfig::default(), false);
    db.add_policy(pcqe::policy::ConfidencePolicy::new("analyst", "report", 0.4).unwrap());
    (db, first_seen)
}

/// Canonical bit-exact transcript of a response, order-sensitive.
fn transcript(resp: &QueryResponse) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "released {} withheld {}",
        resp.released.len(),
        resp.withheld
    );
    for r in &resp.released {
        let _ = writeln!(
            s,
            "{} | {} | {:016x}",
            r.tuple,
            r.lineage,
            r.confidence.to_bits()
        );
    }
    s
}

/// Run `sql` against `runs` independently built databases and demand one
/// transcript.
fn assert_stable_order(sql: &str, runs: usize) {
    let user = User::new("ana", "analyst");
    let request = QueryRequest::new(sql, "report");
    let mut db = populated();
    let reference = db.query(&user, &request).unwrap();
    assert!(
        !reference.released.is_empty(),
        "query `{sql}` released nothing; the ordering check would be vacuous"
    );
    for run in 1..runs {
        let mut db = populated();
        let got = db.query(&user, &request).unwrap();
        assert_eq!(
            transcript(&reference),
            transcript(&got),
            "run {run} of `{sql}` changed row order or content"
        );
    }
}

#[test]
fn group_by_output_order_is_stable_without_order_by() {
    // No ORDER BY: emission order is the aggregate index's iteration
    // order, exactly what the old HashMap made nondeterministic.
    assert_stable_order(
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM orders GROUP BY region",
        4,
    );
}

#[test]
fn join_output_order_is_stable_without_order_by() {
    // The hash-join build side indexes `regions` by key; probe emission
    // follows the build index for each key group.
    assert_stable_order(
        "SELECT o.cust, o.amount FROM orders o JOIN regions r ON o.region = r.name \
         WHERE o.amount < 850",
        4,
    );
}

#[test]
fn distinct_merge_order_is_stable_without_order_by() {
    // DISTINCT folds duplicate rows into OR lineage through the merge
    // index; its iteration order decides the emitted row order.
    assert_stable_order("SELECT DISTINCT cust FROM orders", 4);
}

#[test]
fn group_keys_are_emitted_in_first_appearance_order() {
    // Structural pin for the aggregate path: groups are emitted in the
    // order their keys first appear in the input stream. The ordered
    // index makes the key→slot lookup deterministic; emission follows
    // slot creation order. A reintroduced hash index would keep this
    // property only by per-process accident.
    let user = User::new("ana", "analyst");
    let request = QueryRequest::new(
        "SELECT region, COUNT(*) AS n FROM orders GROUP BY region",
        "report",
    );
    let (mut db, first_seen) = populated_traced();
    let resp = db.query(&user, &request).unwrap();
    let keys: Vec<String> = resp
        .released
        .iter()
        .map(|r| {
            let s = r.tuple.to_string();
            // "(south, 101)" → "south"
            s.trim_start_matches('(')
                .split(',')
                .next()
                .unwrap_or("")
                .trim()
                .to_owned()
        })
        .collect();
    assert_eq!(
        keys, first_seen,
        "group emission order diverged from first appearance"
    );
}
