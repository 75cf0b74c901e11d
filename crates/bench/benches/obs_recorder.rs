//! Per-call costs of the bookkeeping on every `Database::query`: the
//! recorder's hot path — a counter update on a key that exists and the
//! five-span `query` lifecycle tree — and an
//! indexed point lookup run through the profiled executor the engine uses
//! against the unprofiled one.
//!
//! Each sample times `CALLS` calls; the extra line under each row is the
//! median sample divided by `CALLS`, in nanoseconds per call.

use pcqe_algebra::{execute_vectorized_profiled, execute_vectorized_with, lower, optimize};
use pcqe_bench::timing::{bench, group};
use pcqe_obs::Recorder;
use pcqe_par::{Parallelism, Span};
use pcqe_storage::{Catalog, Column, DataType, Schema, Value};
use std::hint::black_box;

/// Calls per timed sample: enough that a sample lasts far longer than
/// the clock reads around it.
const CALLS: u32 = 10_000;

/// Time `f` over `CALLS` calls per sample and print its cost per call.
fn per_call<T>(label: &str, mut f: impl FnMut() -> T) {
    let sample = bench(label, 30, || {
        for _ in 0..CALLS {
            black_box(f());
        }
    });
    println!("{:<44} {:>8.1} ns/call", "", sample.median * 1e9 / f64::from(CALLS));
}

/// `orders(id, customer_id, note)` with an equality index on `id`.
fn orders() -> Catalog {
    let mut catalog = Catalog::new();
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::new("customer_id", DataType::Int),
        Column::new("note", DataType::Text),
    ];
    catalog
        .create_table("orders", Schema::new(columns).expect("valid schema"))
        .expect("new table");
    for id in 0..40_000i64 {
        let row = vec![
            Value::Int(id),
            Value::Int(id % 2_000),
            Value::text("invoice carrier pending verified warehouse priority"),
        ];
        catalog.insert("orders", row, 0.5).expect("valid row");
    }
    catalog.create_index("orders", "id").expect("indexable");
    catalog
}

fn main() {
    group("obs_recorder");
    let recorder = Recorder::new();
    recorder.counter_add("query.total", 1);
    per_call("recorder/counter_add_existing_key", || {
        recorder.counter_add("query.total", 1)
    });

    // `Database::query`'s recorder spans on a θ = 0 query.
    per_call("recorder/query_span_tree", || {
        let _query = Span::open(&recorder, "query");
        for phase in ["plan", "execute", "score", "gate"] {
            drop(Span::open(&recorder, phase));
        }
    });

    group("point_lookup");
    let catalog = orders();
    let plan = pcqe_sql::parse_and_plan(
        "SELECT id, customer_id, note FROM orders WHERE id = 12345",
        &catalog,
    )
    .expect("plans");
    let physical = lower(&optimize(&plan, &catalog).expect("optimizes"), &catalog).expect("lowers");
    let par = Parallelism::sequential();
    per_call("execute/indexed_point_profiled", || {
        execute_vectorized_profiled(&physical, &catalog, &par, Some(&recorder)).expect("runs")
    });
    per_call("execute/indexed_point_unprofiled", || {
        execute_vectorized_with(&physical, &catalog, &par).expect("runs")
    });
}
