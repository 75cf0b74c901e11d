//! Work budgets: what one `Database::query` may allocate.
//!
//! A counting global allocator counts the allocation calls each thread
//! makes (`alloc`, `alloc_zeroed` and `realloc` each count one), so tests
//! running beside these on other threads of the binary cannot leak in.
//! The database is `lookup`-shaped — an `orders` table with a wide TEXT
//! column and equality indexes, and `customers` — with the recorder on,
//! as it is by default. Plan execution and scoring run on the calling
//! thread, and the one parallel site, divide-and-conquer's groups, stays
//! under the parallel threshold at two workers here, so every allocation
//! of a query is made on the thread that calls it. Most queries are counted after two warm-ups of
//! their shape — the first plans it, the second learns it — so that the
//! count is of a statement-cache hit; one of them follows an insert,
//! which keeps the cached plan. Two budgets keep the planning path
//! under a budget too: a fresh database's first query (a miss) and the
//! second run of its shape (the one that learns it). Every answer must
//! equal an unrecorded twin's. Two θ-misses also budget the
//! branch-and-bound's search nodes, read off the solver counters.
//!
//! Budgets are upper bounds and only ratchet down: a change that makes a
//! query allocate more fails here, and one that makes it allocate less
//! lowers the budget to the new count. Counts are the same in debug and
//! release builds.

use pcqe::engine::{Database, EngineConfig, QueryRequest, User};
use pcqe::lineage::Rng64;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting each thread's allocation calls.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it without allocating or re-entering itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread tearing its locals down is no thread these tests read.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation calls the current thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const ORDERS: i64 = 400;
const CUSTOMERS: i64 = 20;
/// Order confidences straddle it, so a query both releases and withholds.
const BETA: f64 = 0.5;

/// The `lookup` shape at a twentieth of its size, from a fixed seed:
/// every customer has `ORDERS / CUSTOMERS` = 20 orders.
fn shop(record_metrics: bool) -> Database {
    let mut db = Database::new(EngineConfig {
        worker_threads: Some(2),
        ..EngineConfig::default()
    });
    db.recorder().set_enabled(record_metrics);
    let orders = vec![
        Column::new("id", DataType::Int),
        Column::new("customer_id", DataType::Int),
        Column::new("status", DataType::Text),
        Column::new("amount", DataType::Real),
        Column::new("note", DataType::Text),
    ];
    let customers = vec![
        Column::new("id", DataType::Int),
        Column::new("name", DataType::Text),
        Column::new("region", DataType::Text),
    ];
    db.create_table("orders", Schema::new(orders).unwrap())
        .unwrap();
    db.create_table("customers", Schema::new(customers).unwrap())
        .unwrap();
    let mut rng = Rng64::seed_from_u64(27);
    let words = ["invoice", "carrier", "pending", "verified", "fragile"];
    for id in 0..ORDERS {
        let note: Vec<&str> = (0..16)
            .map(|_| words[rng.below_usize(words.len())])
            .collect();
        let row = vec![
            Value::Int(id),
            Value::Int(id % CUSTOMERS),
            Value::text(["new", "paid", "shipped"][rng.below_usize(3)]),
            Value::Real(rng.below_u64(1_000_000) as f64 / 100.0),
            Value::Text(note.join(" ")),
        ];
        db.insert("orders", row, rng.range_f64(0.05, 0.95)).unwrap();
    }
    for id in 0..CUSTOMERS {
        let row = vec![
            Value::Int(id),
            Value::text(format!("customer-{id:03}")),
            Value::text(format!("region-{:02}", id % 12)),
        ];
        db.insert("customers", row, rng.range_f64(0.3, 0.99))
            .unwrap();
    }
    for (table, column) in [
        ("orders", "id"),
        ("orders", "customer_id"),
        ("customers", "id"),
    ] {
        db.create_index(table, column).unwrap();
    }
    db.add_policy(ConfidencePolicy::new("clerk", "lookup", BETA).unwrap());
    db
}

/// Allocation calls a run of `sql` at `theta` makes inside
/// `Database::query` after runs of `warm_ups` (none: the database's first
/// query), after checking that its answer, row count and all, is the
/// unrecorded twin's, and that it took its plan from the statement cache
/// after warm-ups of its shape and planned it afresh without; and the
/// database it ran in.
fn allocations_of(warm_ups: &[&str], sql: &str, theta: f64, rows: usize) -> (u64, Database) {
    allocations_after(warm_ups, &|_| {}, sql, theta, rows)
}

/// [`allocations_of`], with `write` run on the database between the
/// warm-ups and the counted run, and on the unrecorded twin before it.
fn allocations_after(
    warm_ups: &[&str],
    write: &dyn Fn(&mut Database),
    sql: &str,
    theta: f64,
    rows: usize,
) -> (u64, Database) {
    let user = User::new("clerk", "clerk");
    let request = |sql: &str| QueryRequest::new(sql, "lookup").expecting(theta);
    let mut db = shop(true);
    let mut warm = None;
    for warm_up in warm_ups {
        warm = Some(db.query(&user, &request(warm_up)).unwrap());
    }
    write(&mut db);
    let hits = |db: &Database| db.metrics_snapshot().counter("plan.cache_hit");
    let (hits_before, before) = (hits(&db), allocations());
    let response = db.query(&user, &request(sql)).unwrap();
    let made = allocations() - before;
    let mut twin = shop(false);
    write(&mut twin);
    let unrecorded = twin.query(&user, &request(sql)).unwrap();
    assert_eq!(format!("{response:?}"), format!("{unrecorded:?}"), "{sql}");
    if warm_ups.last() == Some(&sql) {
        let warm = warm.map(|w| format!("{w:?}"));
        assert_eq!(Some(format!("{response:?}")), warm, "{sql}");
    }
    assert_eq!(response.released.len() + response.withheld, rows, "{sql}");
    assert!(!response.released.is_empty() || rows == 1, "{sql}");
    let hit = hits(&db) > hits_before;
    assert_eq!(hit, !warm_ups.is_empty(), "{sql}");
    (made, db)
}

/// The point SELECT of `lookup` at key `id`.
fn point(id: i64) -> String {
    format!("SELECT id, status, amount, note FROM orders WHERE id = {id}")
}

#[test]
fn a_point_select_stays_within_its_allocation_budget() {
    let point = point(123);
    let (made, _) = allocations_of(&[&point, &point], &point, 0.0, 1);
    assert!(made <= 38, "a 1-row point SELECT made {made} allocations");
}

/// The point SELECT as a fresh database's first query: a statement-cache
/// miss, which parses, plans, optimises and lowers the query. This and the
/// next budget are what the planning path answers to. Before the
/// statement cache, when every query was planned once, the same run made
/// 169.
#[test]
fn a_cold_point_select_stays_within_its_allocation_budget() {
    let (made, _) = allocations_of(&[], &point(123), 0.0, 1);
    assert!(
        made <= 138,
        "a cold 1-row point SELECT made {made} allocations"
    );
}

/// The point SELECT's shape run a second time, at another key: the run
/// that learns the shape, by parsing, planning, optimising and lowering
/// its sentinel copy. Before the statement cache it made 139.
#[test]
fn a_point_select_that_learns_its_shape_stays_within_its_allocation_budget() {
    let (made, _) = allocations_of(&[&point(123)], &point(124), 0.0, 1);
    assert!(
        made <= 115,
        "a learning 1-row point SELECT made {made} allocations"
    );
}

/// What `lookup` does: the point SELECT's learned shape again, at another
/// key. Before the statement cache, when every query was planned afresh,
/// it made 139.
#[test]
fn a_rebound_point_select_stays_within_its_allocation_budget() {
    let (made, _) = allocations_of(&[&point(123), &point(122)], &point(124), 0.0, 1);
    assert!(
        made <= 40,
        "a rebound 1-row point SELECT made {made} allocations"
    );
}

/// The point SELECT's learned shape after an insert, at the inserted
/// row's key: no plan reads the rows, so the insert keeps the cached plan
/// and the run is a hit. When every insert emptied the statement cache,
/// the run missed and made 136.
#[test]
fn a_point_select_after_an_insert_stays_within_its_allocation_budget() {
    let insert = |db: &mut Database| {
        let row = vec![
            Value::Int(ORDERS),
            Value::Int(0),
            Value::text("new"),
            Value::Real(12.5),
            Value::text("pending fragile"),
        ];
        db.insert("orders", row, 0.75).unwrap();
    };
    let warm_ups = [&point(123)[..], &point(122)];
    let (made, _) = allocations_after(&warm_ups, &insert, &point(ORDERS), 0.0, 1);
    assert!(
        made <= 41,
        "a 1-row point SELECT after an insert made {made} allocations"
    );
}

#[test]
fn a_selective_select_stays_within_its_allocation_budget() {
    let selective = "SELECT id, amount, note FROM orders WHERE customer_id = 17";
    let (made, _) = allocations_of(&[selective, selective], selective, 0.0, 20);
    assert!(
        made <= 106,
        "a 20-row selective SELECT made {made} allocations"
    );
}

/// The range every `analytics` query filters on: `orders.amount` between
/// a fresh pair of literals per run, an `AND` of two comparisons the
/// column image prefilters, every candidate then tested whole.
fn amount_range(lo: u32) -> String {
    format!("o.amount > {lo}.005 AND o.amount < {}.005", lo + 500)
}

/// Allocation calls of the `analytics` query `sql` makes at the range
/// from 3 000, its shape learned at two other ranges; `rows` rows.
fn analytics_allocations(sql: &dyn Fn(u32) -> String, rows: usize) -> u64 {
    let warm_ups = [sql(1_000), sql(6_000)];
    let warm_ups: Vec<&str> = warm_ups.iter().map(String::as_str).collect();
    allocations_of(&warm_ups, &sql(3_000), 0.0, rows).0
}

/// `analytics`' scan class.
fn range_scan(lo: u32) -> String {
    let range = amount_range(lo);
    format!("SELECT o.id, o.amount, o.note FROM orders o WHERE {range}")
}

/// The range scan's learned shape at a third range: 22 rows. When the
/// scan compiled its residual into a separate predicate form first, the
/// run made 172.
#[test]
fn a_range_scan_stays_within_its_allocation_budget() {
    let made = analytics_allocations(&range_scan, 22);
    assert!(made <= 139, "a 22-row range scan made {made} allocations");
}

/// `analytics`' DISTINCT class: the regions of the orders in range, an
/// OR of (order ∧ customer) pairs per region, scored exactly in the
/// circuit pool.
fn distinct_regions(lo: u32) -> String {
    let range = amount_range(lo);
    format!(
        "SELECT DISTINCT c.region FROM orders o \
         JOIN customers c ON o.customer_id = c.id WHERE {range}"
    )
}

/// The DISTINCT over a join at a third range: 11 regions, 6 released and
/// 5 withheld: 816 allocations on the commit before this budget was set,
/// and 787 before a read-once formula compiled without a memo entry per
/// subformula and without sorting its leaves a second time for its
/// variable list. That change took one allocation off every fresh compile
/// of a bare variable, too: the range scan fell 150 → 139 and the point
/// SELECTs that compile a row fresh by one each.
#[test]
fn a_distinct_over_a_join_stays_within_its_allocation_budget() {
    let made = analytics_allocations(&distinct_regions, 11);
    assert!(
        made <= 692,
        "an 11-row DISTINCT over a join made {made} allocations"
    );
}

/// `analytics`' aggregate class: one row per status, each a wide OR over
/// the orders in range.
fn status_totals(lo: u32) -> String {
    let range = amount_range(lo);
    format!(
        "SELECT o.status, COUNT(*) AS n, SUM(o.amount) AS total \
         FROM orders o WHERE {range} GROUP BY o.status"
    )
}

/// The `GROUP BY` at a third range: 3 groups, 202 allocations on the
/// commit before this budget was set, 180 before read-once formulas
/// compiled in one pass.
#[test]
fn a_group_by_stays_within_its_allocation_budget() {
    let made = analytics_allocations(&status_totals, 3);
    assert!(made <= 163, "a 3-row GROUP BY made {made} allocations");
}

#[test]
fn an_equi_join_stays_within_its_allocation_budget() {
    let join = "SELECT o.id, o.amount, c.region FROM orders o JOIN customers c \
                ON o.customer_id = c.id WHERE o.customer_id = 17";
    let (made, _) = allocations_of(&[join, join], join, 0.0, 20);
    assert!(made <= 282, "a 20-row equi-join made {made} allocations");
}

/// The equi-join with a filter on its build side, which keeps it a hash
/// join: the `customers` scan is filtered, so the index on `customers.id`
/// cannot stand in for the build, and the join builds its table per query.
/// With the build's partition tag pass and per-partition tables it made
/// 327; one sorted table makes 316.
#[test]
fn a_hash_join_stays_within_its_allocation_budget() {
    let join = "SELECT o.id, o.amount, c.region FROM orders o JOIN customers c \
                ON o.customer_id = c.id WHERE o.customer_id = 17 AND c.region = 'region-05'";
    let (made, mut db) = allocations_of(&[join, join], join, 0.0, 20);
    let plan = match db.execute(&format!("EXPLAIN {join}")).unwrap() {
        pcqe::engine::StatementOutcome::Explained(text) => text,
        other => panic!("{other:?}"),
    };
    assert!(plan.contains("HashJoin"), "{plan}");
    assert!(made <= 286, "a 20-row hash join made {made} allocations");
}

/// A θ-miss in the exact-search regime: at θ = 1 every withheld row of the
/// selective SELECT is wanted, and its few base tuples send strategy
/// finding to the greedy-seeded branch-and-bound. The two budgets after it
/// cover the other two regimes `improve::dispatch` picks by size. The
/// search's nodes over the three runs (two warm-ups, then the counted
/// one) have a budget too: 102 before H3 cut runs of siblings. The three
/// budgets fell when the solvers stopped reporting wall-clock durations,
/// whose metric names were formatted on every run: 266 → 260 here, 469 →
/// 465 for greedy and 8 273 → 8 261 for D&C. Every budget in this file
/// fell again when plan execution and the solvers' initial scoring stopped
/// going through the scheduler's wrapper and strategy finding stopped
/// formatting greedy's names or hearing the recorder with recording off:
/// 260 → 221 here, 465 → 404 and 8 261 → 7 201. They fell once more
/// when scoring stopped reporting a batch per morsel to the recorder (two
/// one-element vectors each): 221 → 219, 404 → 402 and 7 201 → 7 195; the
/// other budgets by two a query, the cold point SELECT, which first
/// inserts the `par.*` names, 157 → 143. The three fell again when
/// `EvalState` kept one record per base and per result instead of a
/// vector per field, and tabulated each base's grid as one vector of
/// points: 219 → 195, 402 → 389 and 7 195 → 4 755 (D&C builds a state
/// per group).
#[test]
fn a_theta_miss_in_the_exact_search_regime_stays_within_its_allocation_budget() {
    let selective = "SELECT id, amount, note FROM orders WHERE customer_id = 17";
    let (made, db) = allocations_of(&[selective, selective], selective, 1.0, 20);
    let counters = db.metrics_snapshot().counters;
    let nodes = counters.get("solver.heuristic.nodes");
    assert!(nodes.is_some_and(|&n| n > 0), "{counters:?}");
    assert!(nodes.is_some_and(|&n| n <= 99), "{counters:?}");
    assert!(made <= 191, "a θ = 1 miss made {made} allocations");
}

/// A θ-miss whose withheld rows scoring never compiled: the equi-join at
/// θ = 1, at a customer the warm-ups did not read. A row whose Fréchet
/// upper bound, the smaller of its two tuples' confidences, is at most β
/// is β-skipped, so strategy finding compiles its lineage — the AND of
/// two tuples, read-once — fresh, as every θ-miss of `improve_loop` does
/// for the rows it skipped. Before read-once formulas compiled without a
/// pivot search or a memo entry it made 687.
#[test]
fn a_theta_miss_over_skipped_rows_stays_within_its_allocation_budget() {
    let join = |customer: i64| {
        format!(
            "SELECT o.id, o.amount, c.region FROM orders o JOIN customers c \
             ON o.customer_id = c.id WHERE o.customer_id = {customer}"
        )
    };
    let warm_ups = [join(17), join(16)];
    let warm_ups: Vec<&str> = warm_ups.iter().map(String::as_str).collect();
    let (made, db) = allocations_of(&warm_ups, &join(15), 1.0, 20);
    let counters = db.metrics_snapshot().counters;
    assert!(
        counters
            .get("lineage.exact_skipped")
            .is_some_and(|&n| n > 0),
        "{counters:?}"
    );
    assert!(
        made <= 626,
        "a θ = 1 miss over skipped rows made {made} allocations"
    );
}

/// The θ = 1 miss over the orders of the first `customers` customers
/// (20 rows each, about half withheld): its allocations, and the solver
/// counters the database was left with.
fn theta_miss(customers: i64) -> (u64, std::collections::BTreeMap<String, u64>) {
    let sql = format!("SELECT id, amount, note FROM orders WHERE customer_id < {customers}");
    let rows = (customers * ORDERS / CUSTOMERS) as usize;
    let (made, db) = allocations_of(&[&sql, &sql], &sql, 1.0, rows);
    (made, db.metrics_snapshot().counters)
}

/// A θ-miss in the greedy regime: 60 rows, 32 of them withheld — more
/// than 12 base tuples, at most 64 results — so the two-phase greedy
/// finds the strategy alone.
#[test]
fn a_theta_miss_in_the_greedy_regime_stays_within_its_allocation_budget() {
    let (made, counters) = theta_miss(3);
    let iterations = counters.get("solver.greedy.iterations");
    assert!(iterations.is_some_and(|&n| n > 0), "{counters:?}");
    assert!(
        !counters.contains_key("solver.heuristic.nodes"),
        "{counters:?}"
    );
    assert!(!counters.contains_key("solver.dnc.groups"), "{counters:?}");
    assert!(made <= 385, "a θ = 1 greedy miss made {made} allocations");
}

/// A θ-miss in the divide-and-conquer regime: 160 rows, 79 of them
/// withheld — more than 64 results — so strategy finding partitions them.
/// Its groups' branch-and-bound nodes over the three runs have a budget
/// too: one node per group, 237 before and after H3 cut runs of siblings.
#[test]
fn a_theta_miss_in_the_divide_and_conquer_regime_stays_within_its_allocation_budget() {
    let (made, counters) = theta_miss(8);
    let groups = counters.get("solver.dnc.groups");
    assert!(groups.is_some_and(|&n| n > 0), "{counters:?}");
    let nodes = counters.get("solver.dnc.bb_nodes");
    assert!(nodes.is_some_and(|&n| n <= 237), "{counters:?}");
    assert!(made <= 4_751, "a θ = 1 D&C miss made {made} allocations");
}
