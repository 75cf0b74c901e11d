//! Circuit-cache acceptance suite.
//!
//! The contract of `lineage::cache` (DESIGN.md §10) is that scoring
//! through the shared circuit pool, β-gated, is a pure performance
//! decision: for generated databases and queries (`tests/common`'s
//! generator and harness), `Database::query` must release
//! **bit-identically** what the reference pipeline releases (the
//! reference interpreter of `tests/common`, no pool, no gate) — same rows in the same order, same lineage, same
//! confidence bits, same withheld counts, the same audit trail — at any
//! worker-thread count, with or without equality indexes. Repeated
//! what-if previews (the memo-warming, incrementally-invalidated fast
//! path) must preview the applied future bit for bit.
//!
//! The last section states three laws over the grid below that hold because
//! `query`, `query_batch` and `what_if` are three callers of one
//! pipeline: a preview is the applied future, a batch releases what its
//! queries release one by one, and a batch's one proposal, applied, meets
//! every request it was computed for.

mod common;

use common::{
    assert_matches_reference, audited_counts, check, check_generated, for_each_case, paper_db,
    random_rows, reference, DbSpec, PAPER_QUERY, WORLDS,
};
use pcqe::cost::CostFn;
use pcqe::engine::{Database, EngineConfig, NoProposal, QueryRequest, QueryResponse, User};
use pcqe::lineage::Rng64;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};

const CASES: u64 = 16;

/// Query shapes whose lineage exercises the pool: conjunctive joins
/// (shared base tuples across result rows), DISTINCT (disjunctive
/// lineage), set operations (negation), aggregation.
const QUERIES: &[&str] = &[
    "SELECT * FROM orders WHERE amount > 2",
    "SELECT DISTINCT cust FROM orders WHERE amount > 1",
    "SELECT o.amount FROM orders o JOIN customers c ON o.cust = c.id",
    "SELECT o.amount, c.score FROM orders o, customers c WHERE o.cust = c.id AND amount > 1",
    "SELECT cust FROM orders WHERE amount > 1 UNION SELECT id FROM customers WHERE id > 0",
    "SELECT cust FROM orders EXCEPT SELECT id FROM customers WHERE id > 1",
    "SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust HAVING n > 0",
];

/// `orders(cust INT, amount INT)` and `customers(id INT, score REAL)`,
/// drawn by the generator.
fn shop(rng: &mut Rng64) -> DbSpec {
    let (int, real) = (DataType::Int, DataType::Real);
    DbSpec::default()
        .table("orders", &[("cust", int), ("amount", int)])
        .rows(random_rows(rng, &[int, int], 6))
        .table("customers", &[("id", int), ("score", real)])
        .rows(random_rows(rng, &[int, real], 3))
}

/// [`shop`] under `config`, with the analyst's policy at `beta`.
fn shop_db(spec: &DbSpec, config: EngineConfig, beta: f64) -> Database {
    let mut db = spec.database(config, false);
    db.add_policy(ConfidencePolicy::new("analyst", "research", beta).unwrap());
    db
}

/// The engine vs the reference over generated databases and queries whose
/// lineage the pool must score — joins, `DISTINCT`, `UNION`, `EXCEPT` —
/// through the one harness: {plain, indexed} × {1, 4, host} threads,
/// released rows, withheld counts, the audit trail and the β-skip count.
#[test]
fn cached_engine_is_bit_identical_to_uncached() {
    let tally = check_generated(200, 0x00CA_0001, WORLDS, check);
    assert!(tally.answered > 80 && tally.empty > 20, "{tally:?}");
}

// ---------------------------------------------------------------------------
// What-if previews: the repeated-probe fast path.

/// Query → proposal → repeated what-if previews: every preview must be
/// the reference's answer over the *applied* database, bit for bit, and
/// the repeated probes must actually hit the cache's memoised
/// subcircuits.
#[test]
fn what_if_previews_are_bit_identical_and_hit_the_cache() {
    let paper = || paper_db(Database::new(EngineConfig::default().sequential()));
    let mut db = paper();
    let user = User::new("mark", "Manager");
    let request = QueryRequest::new(PAPER_QUERY, "investment");
    let policy = ConfidencePolicy::new("Manager", "investment", 0.06).unwrap();

    let expected = reference(PAPER_QUERY, db.catalog(), &policy);
    let first = db.query(&user, &request).expect("engine query");
    assert_matches_reference(&first, &expected, &policy, "paper query");
    let proposal = first.proposal.expect("the paper example yields a strategy");

    // The future the previews must show: a twin database with the
    // proposal really applied, answered by the reference.
    let mut applied = paper();
    let twin = applied.query(&user, &request).expect("twin query");
    applied
        .apply(&twin.proposal.expect("same strategy"))
        .expect("applies");
    let future = reference(PAPER_QUERY, applied.catalog(), &policy);

    // Probe the same future repeatedly: the engine warms its memo on the
    // first preview and answers the rest from it; the invalidation walk
    // between catalog-backed and override-backed probabilities must not
    // change a single bit.
    for probe in 0..3 {
        let preview = db.what_if(&user, &request, &proposal).expect("preview");
        assert_matches_reference(
            &preview,
            &future,
            &policy,
            &format!("what-if probe {probe}"),
        );
        assert_eq!(preview.released.len(), 1, "the fixed t03 releases the row");
        assert!((preview.released[0].confidence - 0.065).abs() < 1e-12);
        // Previews are not audited, and the catalog still answers as before.
        assert_eq!(audited_counts(&db).len(), 1 + probe);
        let again = db.query(&user, &request).expect("engine query");
        assert_matches_reference(&again, &expected, &policy, "query after preview");
    }

    let snapshot = db.metrics_snapshot();
    for name in [
        "lineage.circuit_compiled",
        "lineage.cache_hit",
        "lineage.cache_invalidated",
    ] {
        assert!(
            snapshot.counter(name) > 0,
            "the what-if probes never moved {name}"
        );
    }
}

// ---------------------------------------------------------------------------
// Pipeline laws: three callers, one pipeline.

/// Assert two responses release the same rows bit for bit.
fn assert_same_release(a: &QueryResponse, b: &QueryResponse, context: &str) {
    assert_eq!(a.schema, b.schema, "schema diverged for {context}");
    assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
    assert_eq!(a.withheld, b.withheld, "withheld diverged for {context}");
    assert_eq!(a.released.len(), b.released.len(), "{context}");
    for (x, y) in a.released.iter().zip(&b.released) {
        assert_eq!(x.tuple, y.tuple, "row diverged for {context}");
        assert_eq!(x.lineage, y.lineage, "lineage diverged for {context}");
        assert_eq!(
            x.confidence.to_bits(),
            y.confidence.to_bits(),
            "confidence bits diverged for {context}"
        );
    }
}

/// Every base tuple's confidence, bit for bit, in storage order.
fn confidence_bits(db: &Database) -> Vec<u64> {
    ["orders", "customers"]
        .iter()
        .flat_map(|t| db.catalog().table(t).unwrap().rows())
        .map(|r| db.confidence(r.id).unwrap().to_bits())
        .collect()
}

fn four_threads() -> EngineConfig {
    EngineConfig {
        worker_threads: Some(4),
        ..EngineConfig::default()
    }
}

/// `what_if(proposal)` is `apply(proposal)` followed by the same `query`,
/// and the preview itself leaves the audit log and the catalog untouched.
#[test]
fn what_if_is_apply_then_query() {
    let mut proposals = 0;
    for_each_case(CASES, 0x00CA_0002, |rng| {
        let spec = shop(rng);
        let user = User::new("ada", "analyst");
        for beta in [0.1, 0.45] {
            for sql in QUERIES {
                let mut db = shop_db(&spec, four_threads(), beta);
                let request = QueryRequest::new(*sql, "research");
                let Some(proposal) = db.query(&user, &request).expect("query").proposal else {
                    continue;
                };
                proposals += 1;
                let (audit, catalog) = (db.audit_log().to_vec(), confidence_bits(&db));
                let preview = db.what_if(&user, &request, &proposal).expect("preview");
                assert_eq!(db.audit_log(), audit, "a preview was audited");
                assert_eq!(
                    confidence_bits(&db),
                    catalog,
                    "a preview moved a confidence"
                );
                db.apply(&proposal).expect("applies");
                let after = db.query(&user, &request).expect("re-query");
                assert_same_release(&preview, &after, &format!("{sql} (beta={beta})"));
            }
        }
    });
    assert!(proposals > 0, "the grid never produced a proposal");
}

/// `query_batch(reqs).responses[i]` releases exactly what `query(reqs[i])`
/// releases, and audits the same counts.
#[test]
fn batch_responses_are_the_single_query_responses() {
    for_each_case(CASES, 0x00CA_0003, |rng| {
        let spec = shop(rng);
        let user = User::new("ada", "analyst");
        let requests: Vec<QueryRequest> = QUERIES
            .iter()
            .map(|sql| QueryRequest::new(*sql, "research"))
            .collect();
        for beta in [0.1, 0.45] {
            let mut batched = shop_db(&spec, four_threads(), beta);
            let mut single = shop_db(&spec, four_threads(), beta);
            let batch = batched.query_batch(&user, &requests).expect("batch");
            assert_eq!(batch.responses.len(), requests.len());
            for (request, from_batch) in requests.iter().zip(&batch.responses) {
                let alone = single.query(&user, request).expect("query");
                assert_same_release(
                    from_batch,
                    &alone,
                    &format!("{} (beta={beta})", request.sql),
                );
            }
            assert_eq!(audited_counts(&batched), audited_counts(&single));
        }
    });
}

/// The batch's *proposal* through `Database`: over requests with different
/// θ whose lineage shares base tuples (negation-free, so every withheld row
/// is improvable), applying the combined strategy leaves no request with a
/// shortfall, releases what it projected, costs the sum of its increments,
/// and is the same `BatchResponse` to the last cost bit at 1, 2 and 8
/// worker threads.
#[test]
fn batch_proposal_meets_every_request_at_any_thread_count() {
    let requests: Vec<QueryRequest> = [
        (QUERIES[0], 1.0),
        (QUERIES[1], 0.5),
        (QUERIES[2], 0.75),
        (QUERIES[3], 0.6),
    ]
    .iter()
    .map(|&(sql, theta)| QueryRequest::new(sql, "research").expecting(theta))
    .collect();
    let (mut proposals, mut exact) = (0, 0);
    for_each_case(CASES, 0x00CA_0004, |rng| {
        let spec = shop(rng);
        let tuples = spec.tables.iter().map(|t| t.rows.len()).sum();
        let rates: Vec<f64> = (0..tuples).map(|_| rng.range_f64(1.0, 100.0)).collect();
        let user = User::new("ada", "analyst");
        for beta in [0.45, 0.7] {
            let mut seen: Option<String> = None;
            for threads in [1, 2, 8] {
                let config = EngineConfig {
                    worker_threads: Some(threads),
                    ..EngineConfig::default()
                };
                let mut db = shop_db(&spec, config, beta);
                let ids: Vec<_> = ["orders", "customers"]
                    .iter()
                    .flat_map(|t| db.catalog().table(t).unwrap().rows())
                    .map(|r| r.id)
                    .collect();
                for (id, &rate) in ids.into_iter().zip(&rates) {
                    db.set_cost(id, CostFn::linear(rate).unwrap()).unwrap();
                }
                let batch = db.query_batch(&user, &requests).expect("batch");
                // `{:?}` prints an f64 so that it reads back exactly:
                // equal text is equal bits.
                let text = format!("{batch:?}");
                let first = seen.get_or_insert_with(|| text.clone());
                assert_eq!(*first, text, "threads={threads} (beta={beta})");
                let Some(proposal) = batch.proposal else {
                    continue;
                };
                proposals += 1;
                let summed: f64 = proposal.increments.iter().map(|i| i.cost).sum();
                assert!((proposal.cost - summed).abs() < 1e-9);
                db.apply(&proposal).expect("applies");
                let mut released = 0;
                for request in &requests {
                    let after = db.query(&user, request).expect("re-query");
                    assert_eq!(
                        after.no_proposal,
                        Some(NoProposal::NotNeeded),
                        "{} still short (beta={beta})",
                        request.sql
                    );
                    released += after.released.len();
                }
                // A request that had no shortfall put no rows into the
                // strategy's problem, so its withheld rows are projected
                // as staying withheld; shared tuples may release them.
                let all_short = batch.responses.iter().zip(&requests).all(|(r, q)| {
                    let n = r.released.len() + r.withheld;
                    r.released.len() < (q.min_fraction * n as f64).ceil() as usize
                });
                assert!(released >= proposal.projected_released);
                if all_short {
                    exact += 1;
                    assert_eq!(released, proposal.projected_released);
                }
            }
        }
    });
    assert!(
        proposals >= 12,
        "only {proposals} batches were proposed for"
    );
    assert!(exact >= 3, "only {exact} batches had every request short");
}

// ---------------------------------------------------------------------------
// Wide lineage: the shapes whose cost is per leaf.

/// Aggregation over thousands of matching rows, DISTINCT over a join (an
/// OR of ANDs sharing build-side tuples), a UNION that brings one tuple
/// into one OR twice and out of id order, and a self-join whose every pair
/// is `t ∧ t`.
const WIDE_QUERIES: &[&str] = &[
    "SELECT grp, COUNT(*) AS n FROM orders WHERE amount >= 0 GROUP BY grp",
    "SELECT DISTINCT c.score FROM orders o JOIN customers c ON o.cust = c.id WHERE o.amount = 3",
    "SELECT grp FROM orders WHERE amount > 7 UNION SELECT grp FROM orders WHERE cust < 3",
    "SELECT DISTINCT a.grp FROM orders a JOIN orders b ON a.k = b.k WHERE a.amount > 7",
];

const WIDE_ORDERS: i64 = 3_300;

/// `orders(k, cust, amount, grp)` with confidences small enough that an OR
/// over a thousand of them stays well inside (0, 1), and twelve customers
/// sharing four scores.
fn wide_db(config: EngineConfig) -> Database {
    let mut db = Database::new(config);
    let int = |name: &str| Column::new(name, DataType::Int);
    let orders = vec![int("k"), int("cust"), int("amount"), int("grp")];
    db.create_table("orders", Schema::new(orders).unwrap())
        .unwrap();
    let customers = vec![int("id"), Column::new("score", DataType::Real)];
    db.create_table("customers", Schema::new(customers).unwrap())
        .unwrap();
    let mut rng = Rng64::seed_from_u64(0x00CA_01DE);
    for id in 0..12i64 {
        let row = vec![Value::Int(id), Value::Real((id % 4) as f64)];
        db.insert("customers", row, rng.range_f64(0.3, 0.9))
            .unwrap();
    }
    for k in 0..WIDE_ORDERS {
        let row = [k, k % 12, (k * 7) % 10, k % 2].map(Value::Int).to_vec();
        db.insert("orders", row, rng.range_f64(0.0005, 0.0025))
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("analyst", "research", 0.5).unwrap());
    db.add_policy(ConfidencePolicy::new("analyst", "audit", 0.15).unwrap());
    db
}

const LINEAGE_COUNTERS: [&str; 4] = [
    "lineage.circuit_compiled",
    "lineage.cache_hit",
    "lineage.cache_invalidated",
    "lineage.exact_skipped",
];

/// The pool's counters after each phase of
/// `wide_lineage_matches_the_reference`, as the commit before the pool's
/// variable table read them (PR 19 changed where a `Var` leaf is kept, not
/// what counts as a hit). `lineage.cache_hit` was 4 629 / 6 973 / 9 251
/// while the θ path re-scored β-skipped rows exactly before strategy
/// finding, four per sweep: 666 hits in the first sweep and 8 in each
/// later one, for confidences strategy finding never reads. Without that
/// pass it is 3 963 / 6 299 / 8 569, and the `lineage.exact_rescored`
/// column (4 / 8 / 12) is gone with its counter.
const WIDE_COUNTERS: [[u64; 4]; 3] = [[8, 3_963, 0, 4], [8, 6_299, 10, 8], [8, 8_569, 16, 12]];

#[test]
fn wide_lineage_matches_the_reference() {
    let user = User::new("ada", "analyst");
    let research = ConfidencePolicy::new("analyst", "research", 0.5).unwrap();
    let audit = ConfidencePolicy::new("analyst", "audit", 0.15).unwrap();
    // Every wide query under "research", then the join under "audit".
    let sweep = |db: &mut Database, phase: &str| {
        for (purpose, policy, queries) in [
            ("research", &research, WIDE_QUERIES),
            ("audit", &audit, &WIDE_QUERIES[1..2]),
        ] {
            for sql in queries {
                let expected = reference(sql, db.catalog(), policy);
                let got = db.query(&user, &QueryRequest::new(*sql, purpose)).unwrap();
                let context = format!("{sql} ({purpose}, {phase})");
                assert_matches_reference(&got, &expected, policy, &context);
            }
        }
    };
    let counters = |db: &Database| LINEAGE_COUNTERS.map(|name| db.metrics_snapshot().counter(name));
    for threads in [Some(1), Some(4), None] {
        let config = EngineConfig {
            worker_threads: threads,
            ..EngineConfig::default()
        };
        let mut db = wide_db(config.clone());
        let matching = reference(WIDE_QUERIES[0], db.catalog(), &research);
        assert_eq!(matching.scored.len(), 2, "two groups");
        let per_group: usize = matching.scored.iter().map(|s| s.lineage.vars().len()).sum();
        assert_eq!(per_group, WIDE_ORDERS as usize, "every order feeds a group");

        sweep(&mut db, "fresh");
        let fresh = counters(&db);

        // A θ-miss on the join: the preview of its proposal is the
        // reference's answer over a twin with the proposal applied, and
        // leaves the catalog answering as before.
        let request = QueryRequest::new(WIDE_QUERIES[1], "audit").expecting(1.0);
        let missed = db.query(&user, &request).unwrap();
        assert!(missed.withheld > 0, "the join must miss θ = 1");
        let proposal = missed.proposal.expect("negation-free rows are improvable");
        let mut twin = wide_db(config);
        twin.apply(&proposal).unwrap();
        let future = reference(WIDE_QUERIES[1], twin.catalog(), &audit);
        let preview = db.what_if(&user, &request, &proposal).unwrap();
        assert_matches_reference(&preview, &future, &audit, "what-if over the wide join");
        assert_eq!(preview.withheld, 0, "the proposal releases every row");
        sweep(&mut db, "after what_if");
        let previewed = counters(&db);

        db.apply(&proposal).unwrap();
        sweep(&mut db, "after apply");
        let applied = counters(&db);

        assert_eq!(
            [fresh, previewed, applied],
            WIDE_COUNTERS,
            "lineage.* counters moved (threads={threads:?})"
        );
    }
}
