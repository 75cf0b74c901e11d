//! Work budgets: what one `Database::query` may allocate.
//!
//! A counting global allocator counts the allocation calls each thread
//! makes (`alloc`, `alloc_zeroed` and `realloc` each count one), so tests
//! running beside these on other threads of the binary cannot leak in.
//! The database is `lookup`-shaped — an `orders` table with a wide TEXT
//! column and equality indexes, and `customers` — with the recorder on,
//! as it is by default; at two workers the queries below stay under the
//! parallel threshold, so every allocation of a query is made on the
//! thread that calls it. Each query is timed after one warm-up of the
//! same query, and its answer must equal an unrecorded twin's.
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

/// Allocation calls the second of two runs of `sql` at `theta` makes
/// inside `Database::query`, after checking that its answer, row count
/// and all, is the unrecorded twin's; and the database it ran in.
fn allocations_of(sql: &str, theta: f64, rows: usize) -> (u64, Database) {
    let user = User::new("clerk", "clerk");
    let request = QueryRequest::new(sql, "lookup").expecting(theta);
    let mut db = shop(true);
    let warm = db.query(&user, &request).unwrap();
    let before = allocations();
    let response = db.query(&user, &request).unwrap();
    let made = allocations() - before;
    let unrecorded = shop(false).query(&user, &request).unwrap();
    assert_eq!(format!("{response:?}"), format!("{unrecorded:?}"), "{sql}");
    assert_eq!(format!("{response:?}"), format!("{warm:?}"), "{sql}");
    assert_eq!(response.released.len() + response.withheld, rows, "{sql}");
    assert!(!response.released.is_empty() || rows == 1, "{sql}");
    (made, db)
}

#[test]
fn a_point_select_stays_within_its_allocation_budget() {
    let (made, _) = allocations_of(
        "SELECT id, status, amount, note FROM orders WHERE id = 123",
        0.0,
        1,
    );
    assert!(made <= 135, "a 1-row point SELECT made {made} allocations");
}

#[test]
fn a_selective_select_stays_within_its_allocation_budget() {
    let (made, _) = allocations_of(
        "SELECT id, amount, note FROM orders WHERE customer_id = 17",
        0.0,
        20,
    );
    assert!(
        made <= 194,
        "a 20-row selective SELECT made {made} allocations"
    );
}

#[test]
fn an_equi_join_stays_within_its_allocation_budget() {
    let (made, _) = allocations_of(
        "SELECT o.id, o.amount, c.region FROM orders o JOIN customers c \
         ON o.customer_id = c.id WHERE o.customer_id = 17",
        0.0,
        20,
    );
    assert!(made <= 541, "a 20-row equi-join made {made} allocations");
}

/// A θ-miss in the exact-search regime: at θ = 1 every withheld row of the
/// selective SELECT is wanted, and its few base tuples send strategy
/// finding to the greedy-seeded branch-and-bound.
#[test]
fn a_theta_miss_in_the_exact_search_regime_stays_within_its_allocation_budget() {
    let (made, db) = allocations_of(
        "SELECT id, amount, note FROM orders WHERE customer_id = 17",
        1.0,
        20,
    );
    let counters = db.metrics_snapshot().counters;
    let nodes = counters.get("solver.heuristic.nodes");
    assert!(nodes.is_some_and(|&n| n > 0), "{counters:?}");
    assert!(made <= 345, "a θ = 1 miss made {made} allocations");
}
