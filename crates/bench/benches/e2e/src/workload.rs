//! The four workloads: seeded data sets and fixed-count op streams.
//!
//! Everything here is a pure function of `(workload, seed, size)`; the
//! engine only ever sees the generated rows and requests. Each op carries
//! the result cardinality the generator worked out from its own copy of
//! the data, so the driver can check `released + withheld` against
//! something the engine did not compute.

use pcqe_engine::QueryRequest;
use pcqe_lineage::Rng64;
use pcqe_storage::{Column, DataType, Value};

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["lookup", "analytics", "strategy", "improve_loop"];

/// The role every request is made under.
pub const ROLE: &str = "analyst";
/// The purpose every request states.
pub const PURPOSE: &str = "report";

/// Op classes; latencies are also reported per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `lookup`: one order by its indexed id (1 row).
    Point,
    /// `lookup`: one customer's orders by indexed `customer_id` (20 rows).
    Selective,
    /// `analytics`: range scan with a TEXT projection.
    Scan,
    /// `analytics`: the same range, equi-joined to `customers`.
    Join,
    /// `analytics`: `SELECT DISTINCT region … JOIN` (OR-of-AND lineage).
    Distinct,
    /// `analytics`: `GROUP BY status` with COUNT/SUM (wide OR lineage).
    Aggregate,
    /// θ-miss over ≤ 12 base tuples.
    MissSmall,
    /// θ-miss over ≤ 64 results and > 12 base tuples.
    MissMedium,
    /// θ-miss over > 64 results.
    MissLarge,
    /// `improve_loop`: the cycle's query again, after `apply`.
    Requery,
    /// `improve_loop`: `Database::what_if`.
    WhatIf,
    /// `improve_loop`: `Database::apply`.
    Apply,
    /// `improve_loop`: `Database::insert`.
    Insert,
    /// `improve_loop`: a 3-request `Database::query_batch`.
    Batch,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 14] = [
        Class::Point,
        Class::Selective,
        Class::Scan,
        Class::Join,
        Class::Distinct,
        Class::Aggregate,
        Class::MissSmall,
        Class::MissMedium,
        Class::MissLarge,
        Class::Requery,
        Class::WhatIf,
        Class::Apply,
        Class::Insert,
        Class::Batch,
    ];

    /// The class's name in metric names (`engine.<class>_p50_ms`).
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Selective => "selective",
            Class::Scan => "scan",
            Class::Join => "join",
            Class::Distinct => "distinct",
            Class::Aggregate => "aggregate",
            Class::MissSmall => "miss_small",
            Class::MissMedium => "miss_medium",
            Class::MissLarge => "miss_large",
            Class::Requery => "requery",
            Class::WhatIf => "what_if",
            Class::Apply => "apply",
            Class::Insert => "insert",
            Class::Batch => "batch",
        }
    }

    /// True for the classes whose query must come back with a proposal.
    pub fn is_miss(self) -> bool {
        matches!(
            self,
            Class::MissSmall | Class::MissMedium | Class::MissLarge
        )
    }
}

/// One table: its columns and the columns that get an equality index.
pub struct TableSpec {
    /// Table name.
    pub name: &'static str,
    /// Columns, in order.
    pub columns: Vec<Column>,
    /// Indexed columns.
    pub indexes: Vec<&'static str>,
}

/// One base row with its confidence.
pub struct Row {
    /// Target table.
    pub table: &'static str,
    /// Values in column order.
    pub values: Vec<Value>,
    /// Base confidence.
    pub confidence: f64,
}

/// Which of the pending proposal's increments a what-if probe keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// The whole proposal — its outcome must match the re-query after `apply`.
    All,
    /// Everything but the last increment.
    AllButLast,
    /// The first half.
    FirstHalf,
}

/// One operation of the stream.
pub enum Op {
    /// `Database::query`. A miss class stores the returned proposal as
    /// the cycle's pending one.
    Query {
        /// Latency class.
        class: Class,
        /// The request, θ included.
        request: QueryRequest,
        /// Result rows the query has, released or not.
        expect_rows: usize,
    },
    /// `Database::what_if` of the last miss query under its proposal.
    WhatIf(Keep),
    /// `Database::apply` of the pending proposal.
    Apply,
    /// `Database::insert`.
    Insert(Row),
    /// `Database::query_batch`.
    Batch {
        /// The batch's requests.
        requests: Vec<QueryRequest>,
        /// Result rows per request.
        expect_rows: Vec<usize>,
    },
}

impl Op {
    /// The op's latency class.
    pub fn class(&self) -> Class {
        match self {
            Op::Query { class, .. } => *class,
            Op::WhatIf(_) => Class::WhatIf,
            Op::Apply => Class::Apply,
            Op::Insert(_) => Class::Insert,
            Op::Batch { .. } => Class::Batch,
        }
    }
}

/// A generated workload.
pub struct Workload {
    /// The policy threshold β for [`ROLE`]/[`PURPOSE`].
    pub beta: f64,
    /// Tables to create.
    pub tables: Vec<TableSpec>,
    /// Rows to load, in insert order (tuple ids follow it).
    pub rows: Vec<Row>,
    /// Untimed ops run after loading (5 % of the stream).
    pub warmup: Vec<Op>,
    /// The timed op stream, replayed identically every round.
    pub ops: Vec<Op>,
    /// Length of the prefix a traced run replays ([`traced_len`]; whole
    /// cycles on `improve_loop`).
    pub traced_prefix: usize,
}

/// Build workload `name` for `seed`. `size` is the number of timed ops per
/// round (`improve_loop`: cycles per round).
pub fn build(name: &str, seed: u64, size: usize) -> Option<Workload> {
    // A different stream per workload, so `--seed 42` does not hand two
    // workloads correlated draws.
    let salt = name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131) ^ u64::from(b));
    let mut rng = Rng64::seed_from_u64(seed ^ salt.rotate_left(17));
    match name {
        "lookup" => Some(shop::lookup(&mut rng, size)),
        "analytics" => Some(shop::analytics(&mut rng, size)),
        "strategy" => Some(claims::strategy(&mut rng, size)),
        "improve_loop" => Some(claims::improve_loop(&mut rng, size)),
        _ => None,
    }
}

/// Ops a traced run replays: the first 20 % of the stream, or its first
/// 120 where that is more — a fifth of `strategy`'s short stream would
/// hold four ops of the class that takes most of its time.
fn traced_len(size: usize) -> usize {
    (size / 5).max(120).min(size)
}

/// 5 % of the stream, at least one.
fn warmup_len(size: usize) -> usize {
    (size / 20).max(1)
}

/// `n` op classes in exactly the given percentages (the first class takes
/// the rounding remainder), shuffled. Exact shares, not per-op draws: where
/// p50 and p90 fall among the classes must not change with the seed.
fn class_mix(rng: &mut Rng64, n: usize, shares: &[(Class, usize)]) -> Vec<Class> {
    let mut classes = Vec::with_capacity(n);
    for &(class, percent) in shares.iter().skip(1) {
        classes.extend(std::iter::repeat_n(class, n * percent / 100));
    }
    if let Some(&(first, _)) = shares.first() {
        classes.resize(n, first);
    }
    rng.shuffle(&mut classes);
    classes
}

/// The warm-up and the timed stream of a query-only workload: `op` turns a
/// class into an op.
fn streams(
    rng: &mut Rng64,
    size: usize,
    shares: &[(Class, usize)],
    mut op: impl FnMut(&mut Rng64, Class) -> Op,
) -> (Vec<Op>, Vec<Op>) {
    let mut stream = |rng: &mut Rng64, n: usize| -> Vec<Op> {
        class_mix(rng, n, shares)
            .into_iter()
            .map(|class| op(rng, class))
            .collect()
    };
    let warmup = stream(rng, warmup_len(size));
    let ops = stream(rng, size);
    (warmup, ops)
}

fn request(sql: String, theta: f64) -> QueryRequest {
    // θ is always explicit: `QueryRequest::new` defaults it to 1.0, which
    // would turn any query with a withheld row into a strategy search.
    QueryRequest::new(sql, PURPOSE).expecting(theta)
}

/// The §3.1 example scaled up: `orders` (wide TEXT column) and
/// `customers`, with equality indexes. Shared by `lookup` and `analytics`.
mod shop {
    use super::*;

    const ORDERS: usize = 40_000;
    const CUSTOMERS: usize = 2_000;
    const STATUSES: [&str; 6] = ["new", "paid", "packed", "shipped", "returned", "disputed"];
    const REGIONS: usize = 12;
    /// Amounts are whole cents below this.
    const MAX_CENTS: u64 = 1_000_000;
    const WORDS: [&str; 16] = [
        "invoice",
        "carrier",
        "pending",
        "verified",
        "warehouse",
        "priority",
        "fragile",
        "customs",
        "reissued",
        "partial",
        "backorder",
        "signature",
        "weekend",
        "prepaid",
        "insured",
        "consolidated",
    ];
    /// β for both workloads; order confidences straddle it.
    const BETA: f64 = 0.5;

    /// The generator's own copy of what the queries depend on.
    struct Shop {
        rows: Vec<Row>,
        /// `(amount in cents, order id)`, ascending.
        by_amount: Vec<(u64, usize)>,
        status_of_order: Vec<usize>,
        customer_of_order: Vec<usize>,
    }

    fn tables() -> Vec<TableSpec> {
        vec![
            TableSpec {
                name: "orders",
                columns: vec![
                    Column::new("id", DataType::Int),
                    Column::new("customer_id", DataType::Int),
                    Column::new("status", DataType::Text),
                    Column::new("amount", DataType::Real),
                    Column::new("note", DataType::Text),
                ],
                indexes: vec!["id", "customer_id"],
            },
            TableSpec {
                name: "customers",
                columns: vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Text),
                    Column::new("region", DataType::Text),
                    Column::new("tier", DataType::Int),
                ],
                indexes: vec!["id"],
            },
        ]
    }

    fn region_of_customer(c: usize) -> usize {
        c % REGIONS
    }

    fn generate(rng: &mut Rng64) -> Shop {
        // Every customer has exactly ORDERS / CUSTOMERS orders, so a
        // `customer_id` lookup returns the same row count on every seed.
        let mut customer_of_order: Vec<usize> = (0..ORDERS).map(|i| i % CUSTOMERS).collect();
        rng.shuffle(&mut customer_of_order);
        let mut rows = Vec::with_capacity(ORDERS + CUSTOMERS);
        let mut by_amount = Vec::with_capacity(ORDERS);
        let mut status_of_order = Vec::with_capacity(ORDERS);
        for (id, &customer) in customer_of_order.iter().enumerate() {
            let status = rng.below_usize(STATUSES.len());
            let cents = rng.below_u64(MAX_CENTS);
            let mut note = String::new();
            for _ in 0..rng.range_usize(16, 24) {
                note.push_str(WORDS[rng.below_usize(WORDS.len())]);
                note.push(' ');
            }
            by_amount.push((cents, id));
            status_of_order.push(status);
            rows.push(Row {
                table: "orders",
                values: vec![
                    Value::Int(id as i64),
                    Value::Int(customer as i64),
                    Value::text(STATUSES[status]),
                    Value::Real(cents as f64 / 100.0),
                    Value::Text(note),
                ],
                confidence: rng.range_f64(0.05, 0.95),
            });
        }
        for c in 0..CUSTOMERS {
            rows.push(Row {
                table: "customers",
                values: vec![
                    Value::Int(c as i64),
                    Value::text(format!("customer-{c:05}")),
                    Value::text(format!("region-{:02}", region_of_customer(c))),
                    Value::Int(rng.below_u64(5) as i64),
                ],
                confidence: rng.range_f64(0.3, 0.99),
            });
        }
        by_amount.sort_unstable();
        Shop {
            rows,
            by_amount,
            status_of_order,
            customer_of_order,
        }
    }

    /// Point and selective SELECTs over a skewed hot set: 90 % of the ops
    /// go to 5 % of the keys, so the circuit pool and every other
    /// per-key structure is reused — the working set that fits.
    pub fn lookup(rng: &mut Rng64, size: usize) -> Workload {
        let shop = generate(rng);
        let mut order_ids: Vec<usize> = (0..ORDERS).collect();
        let mut customer_ids: Vec<usize> = (0..CUSTOMERS).collect();
        rng.shuffle(&mut order_ids);
        rng.shuffle(&mut customer_ids);
        let pick = |rng: &mut Rng64, ids: &[usize]| {
            let hot = ids.len() / 20;
            if rng.chance(0.9) {
                ids[rng.below_usize(hot)]
            } else {
                ids[rng.range_usize(hot, ids.len())]
            }
        };
        // 70 / 30: p50 lies inside the point class, p90 inside the
        // selective one.
        let shares = [(Class::Point, 70), (Class::Selective, 30)];
        let (warmup, ops) = streams(rng, size, &shares, |rng, class| {
            if class == Class::Point {
                let id = pick(rng, &order_ids);
                Op::Query {
                    class: Class::Point,
                    request: request(
                        format!("SELECT id, status, amount, note FROM orders WHERE id = {id}"),
                        0.0,
                    ),
                    expect_rows: 1,
                }
            } else {
                let c = pick(rng, &customer_ids);
                Op::Query {
                    class: Class::Selective,
                    request: request(
                        format!("SELECT id, amount, note FROM orders WHERE customer_id = {c}"),
                        0.0,
                    ),
                    expect_rows: ORDERS / CUSTOMERS,
                }
            }
        });
        Workload {
            beta: BETA,
            tables: tables(),
            rows: shop.rows,
            warmup,
            ops,
            traced_prefix: traced_len(size),
        }
    }

    /// `lo.005`-style literal just above `cents`: no stored amount equals
    /// it, so `>`/`<` never sit on a tie.
    fn above(cents: u64) -> String {
        format!("{}.{:02}5", cents / 100, cents % 100)
    }

    /// The dashboard mix: every op scans `orders` over a fresh amount
    /// range, so lineage never repeats and the circuit pool keeps missing
    /// and growing — the working set larger than the cache's reuse.
    pub fn analytics(rng: &mut Rng64, size: usize) -> Workload {
        let shop = generate(rng);
        // Shares put p50 inside the join class and p90 inside the
        // aggregate class (see README, "class shares").
        let shares = [
            (Class::Join, 40),
            (Class::Scan, 30),
            (Class::Distinct, 15),
            (Class::Aggregate, 15),
        ];
        let (warmup, ops) = streams(rng, size, &shares, |rng, class| {
            // Expected matches: 200 rows, 2 000 for the aggregate.
            let width = if class == Class::Aggregate {
                50_000
            } else {
                5_000
            };
            let lo = rng.below_u64(MAX_CENTS - width);
            let hi = lo + width;
            let from = shop.by_amount.partition_point(|&(c, _)| c <= lo);
            let to = shop.by_amount.partition_point(|&(c, _)| c <= hi);
            let matches = &shop.by_amount[from..to];
            let range = format!("o.amount > {} AND o.amount < {}", above(lo), above(hi));
            let distinct = |key: &dyn Fn(usize) -> usize| {
                let mut keys: Vec<usize> = matches.iter().map(|&(_, id)| key(id)).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.len()
            };
            let (sql, expect_rows) = match class {
                Class::Scan => (
                    format!("SELECT o.id, o.amount, o.note FROM orders o WHERE {range}"),
                    matches.len(),
                ),
                Class::Join => (
                    format!(
                        "SELECT o.id, c.name, c.region, o.amount FROM orders o \
                         JOIN customers c ON o.customer_id = c.id WHERE {range}"
                    ),
                    matches.len(),
                ),
                Class::Distinct => (
                    format!(
                        "SELECT DISTINCT c.region FROM orders o \
                         JOIN customers c ON o.customer_id = c.id WHERE {range}"
                    ),
                    distinct(&|id| region_of_customer(shop.customer_of_order[id])),
                ),
                _ => (
                    format!(
                        "SELECT o.status, COUNT(*) AS n, SUM(o.amount) AS total \
                         FROM orders o WHERE {range} GROUP BY o.status"
                    ),
                    distinct(&|id| shop.status_of_order[id]),
                ),
            };
            Op::Query {
                class,
                request: request(sql, 0.0),
                expect_rows,
            }
        });
        Workload {
            beta: BETA,
            tables: tables(),
            rows: shop.rows,
            warmup,
            ops,
            traced_prefix: traced_len(size),
        }
    }
}

/// A Fig. 11-style instance loaded as real tables: `claims(grp, k, batch)`
/// ⋈ `evidence(k, src)`. One query result per `grp`; its lineage is the OR
/// over the group's claims of `claim ∧ evidence[k]`. Neighbouring groups
/// overlap in `k`, so result lineages share evidence tuples.
mod claims {
    use super::*;

    /// β and θ as in Table 4.
    const BETA: f64 = 0.6;
    const THETA: f64 = 0.5;

    /// A batch's shape: `groups` results, each over `claims` claims whose
    /// keys start `stride` apart, so neighbours share `claims − stride`.
    #[derive(Clone, Copy)]
    struct Shape {
        groups: usize,
        claims: usize,
        stride: usize,
    }

    /// 2 results over 6 claims + 5 evidence rows = 11 base tuples.
    const SMALL: Shape = Shape {
        groups: 2,
        claims: 2,
        stride: 1,
    };
    /// 24 results over 96 + 73 base tuples.
    const MEDIUM: Shape = Shape {
        groups: 24,
        claims: 4,
        stride: 3,
    };
    /// 80 results over 320 + 241 base tuples.
    const LARGE: Shape = Shape {
        groups: 66,
        claims: 3,
        stride: 2,
    };
    /// `improve_loop`'s per-cycle slice: 16 results over 48 + 33 tuples.
    const SLICE: Shape = Shape {
        groups: 16,
        claims: 3,
        stride: 2,
    };

    fn tables() -> Vec<TableSpec> {
        vec![
            TableSpec {
                name: "claims",
                columns: vec![
                    Column::new("grp", DataType::Int),
                    Column::new("k", DataType::Int),
                    Column::new("batch", DataType::Int),
                ],
                indexes: vec!["batch"],
            },
            TableSpec {
                name: "evidence",
                columns: vec![
                    Column::new("k", DataType::Int),
                    Column::new("src", DataType::Int),
                    Column::new("slice", DataType::Int),
                ],
                indexes: vec!["k", "slice"],
            },
        ]
    }

    /// Base confidences 0.05–0.3, as in Table 4.
    fn low_confidence(rng: &mut Rng64) -> f64 {
        rng.range_f64(0.05, 0.3)
    }

    fn claim(rng: &mut Rng64, grp: usize, key: usize, batch: usize) -> Row {
        Row {
            table: "claims",
            values: vec![
                Value::Int(grp as i64),
                Value::Int(key as i64),
                Value::Int(batch as i64),
            ],
            confidence: low_confidence(rng),
        }
    }

    /// `slice` is the one batch the row backs, or [`SHARED`].
    fn evidence(rng: &mut Rng64, key: usize, slice: i64) -> Row {
        Row {
            table: "evidence",
            values: vec![
                Value::Int(key as i64),
                Value::Int(rng.below_u64(50) as i64),
                Value::Int(slice),
            ],
            confidence: low_confidence(rng),
        }
    }

    impl Shape {
        /// Distinct keys a batch of this shape spans.
        fn keys(self) -> usize {
            (self.groups - 1) * self.stride + self.claims
        }
    }

    /// The claims of one batch, its keys starting at `first_key`.
    fn load_claims(
        rng: &mut Rng64,
        rows: &mut Vec<Row>,
        batch: usize,
        shape: Shape,
        first_key: usize,
    ) {
        for g in 0..shape.groups {
            for j in 0..shape.claims {
                rows.push(claim(rng, g, first_key + g * shape.stride + j, batch));
            }
        }
    }

    /// The workloads' one query: a result per group of `batch`. With
    /// `own_evidence` the evidence side is narrowed to the batch's slice
    /// too, so both join inputs are index scans.
    fn batch_request(batch: usize, own_evidence: bool) -> QueryRequest {
        let mut sql = format!(
            "SELECT DISTINCT c.grp FROM claims c JOIN evidence e ON c.k = e.k \
             WHERE c.batch = {batch}"
        );
        if own_evidence {
            sql.push_str(&format!(" AND e.slice = {batch}"));
        }
        request(sql, THETA)
    }

    /// `evidence.slice` of rows every batch may join.
    const SHARED: i64 = -1;
    /// Evidence keys of `strategy`. Every batch takes a window of them, so
    /// batches share evidence tuples too and the table a join has to read
    /// stays small beside the strategy search the workload is about.
    const SHARED_KEYS: usize = 512;

    /// Every op a θ-miss, 55 / 30 / 15 % from three sizes that land in the
    /// three solver regimes.
    pub fn strategy(rng: &mut Rng64, size: usize) -> Workload {
        // (class, percent, shape, distinct instances to draw from)
        let pools = [
            (Class::MissSmall, 55, SMALL, 96),
            (Class::MissMedium, 30, MEDIUM, 32),
            (Class::MissLarge, 15, LARGE, 16),
        ];
        let mut rows = Vec::new();
        let mut first_batch = Vec::new();
        let mut next = 0;
        for &(_, _, shape, count) in &pools {
            first_batch.push(next);
            for batch in next..next + count {
                let first_key = rng.below_usize(SHARED_KEYS - shape.keys());
                load_claims(rng, &mut rows, batch, shape, first_key);
            }
            next += count;
        }
        for key in 0..SHARED_KEYS {
            rows.push(evidence(rng, key, SHARED));
        }
        let shares = pools.map(|(class, percent, _, _)| (class, percent));
        // Instances of a class are taken in turn, not drawn: how many
        // distinct circuits a run compiles then does not vary with the seed.
        let mut taken = [0usize; 3];
        let (warmup, ops) = streams(rng, size, &shares, |_, class| {
            let i = pools.iter().position(|p| p.0 == class).unwrap_or(0);
            let (_, _, shape, count) = pools[i];
            taken[i] += 1;
            Op::Query {
                class,
                request: batch_request(first_batch[i] + taken[i] % count, false),
                expect_rows: shape.groups,
            }
        });
        Workload {
            beta: BETA,
            tables: tables(),
            rows,
            warmup,
            ops,
            traced_prefix: traced_len(size),
        }
    }

    /// Key space reserved per `improve_loop` slice: slices share nothing,
    /// so an `apply` in one cycle never changes the work of a later one.
    const KEYS_PER_SLICE: usize = 1_000;
    /// Cycles between two `query_batch` ops.
    const BATCH_EVERY: usize = 10;
    /// Requests per `query_batch`.
    const BATCH_REQUESTS: usize = 3;

    /// Writes beside reads. Cycle `c` works on its own slice `batch = c`:
    /// query (θ-miss → proposal) → 3× what_if → apply → re-query → three
    /// inserts that add one low-confidence group to slice `c + 1`, so
    /// every cycle meets the same amount of fresh data. Every tenth cycle
    /// ends with a 3-request `query_batch` over three untouched slices.
    pub fn improve_loop(rng: &mut Rng64, size: usize) -> Workload {
        let warm_cycles = warmup_len(size);
        let cycles = warm_cycles + size;
        // Slices 0..=cycles belong to cycles (the last only absorbs the
        // final inserts); the rest feed `query_batch`.
        let batch_slices = cycles / BATCH_EVERY * BATCH_REQUESTS;
        let mut rows = Vec::new();
        for batch in 0..=cycles + batch_slices {
            let first_key = batch * KEYS_PER_SLICE;
            load_claims(rng, &mut rows, batch, SLICE, first_key);
            for key in first_key..first_key + SLICE.keys() {
                rows.push(evidence(rng, key, batch as i64));
            }
        }
        let mut next_batch_slice = cycles + 1;
        let mut cycle = |rng: &mut Rng64, c: usize, out: &mut Vec<Op>| {
            // Slice 0 never received a previous cycle's inserts.
            let expect_rows = SLICE.groups + usize::from(c > 0);
            out.push(Op::Query {
                class: Class::MissMedium,
                request: batch_request(c, true),
                expect_rows,
            });
            out.push(Op::WhatIf(Keep::All));
            out.push(Op::WhatIf(Keep::AllButLast));
            out.push(Op::WhatIf(Keep::FirstHalf));
            out.push(Op::Apply);
            out.push(Op::Query {
                class: Class::Requery,
                request: batch_request(c, true),
                expect_rows,
            });
            // A new group in the next slice: one claim on the last
            // group's last key, one on a new key with new evidence.
            let shared = (c + 1) * KEYS_PER_SLICE + SLICE.groups * SLICE.stride;
            out.push(Op::Insert(claim(rng, SLICE.groups, shared, c + 1)));
            out.push(Op::Insert(claim(rng, SLICE.groups, shared + 1, c + 1)));
            out.push(Op::Insert(evidence(rng, shared + 1, c as i64 + 1)));
            if (c + 1).is_multiple_of(BATCH_EVERY) {
                let slices = next_batch_slice..next_batch_slice + BATCH_REQUESTS;
                next_batch_slice = slices.end;
                out.push(Op::Batch {
                    requests: slices.map(|b| batch_request(b, true)).collect(),
                    expect_rows: vec![SLICE.groups; BATCH_REQUESTS],
                });
            }
        };
        let mut warmup = Vec::new();
        for c in 0..warm_cycles {
            cycle(rng, c, &mut warmup);
        }
        let mut ops = Vec::new();
        let mut traced_prefix = 0;
        for c in warm_cycles..cycles {
            if c - warm_cycles == size / 5 {
                traced_prefix = ops.len();
            }
            cycle(rng, c, &mut ops);
        }
        Workload {
            beta: BETA,
            tables: tables(),
            rows,
            warmup,
            ops,
            traced_prefix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An op as text: enough to tell two streams apart.
    fn render(op: &Op) -> String {
        match op {
            Op::Query {
                class,
                request,
                expect_rows,
            } => format!(
                "{} θ={} rows={expect_rows} {}",
                class.name(),
                request.min_fraction,
                request.sql
            ),
            Op::WhatIf(keep) => format!("what_if {keep:?}"),
            Op::Apply => "apply".to_owned(),
            Op::Insert(row) => format!("insert {} {:?} {}", row.table, row.values, row.confidence),
            Op::Batch { requests, .. } => {
                let sqls: Vec<&str> = requests.iter().map(|r| r.sql.as_str()).collect();
                format!("batch {sqls:?}")
            }
        }
    }

    fn rendered(name: &str, seed: u64) -> Vec<String> {
        let w = build(name, seed, 40).expect("a known workload");
        let rows = w
            .rows
            .iter()
            .map(|r| format!("{} {:?} {}", r.table, r.values, r.confidence));
        rows.chain(w.warmup.iter().chain(&w.ops).map(render))
            .collect()
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        for name in WORKLOADS {
            assert_eq!(rendered(name, 7), rendered(name, 7), "{name}");
            assert_ne!(rendered(name, 7), rendered(name, 8), "{name}");
        }
        assert!(build("nope", 7, 40).is_none());
    }

    #[test]
    fn class_shares_are_exact() {
        let mut rng = Rng64::seed_from_u64(1);
        let shares = [
            (Class::MissSmall, 55),
            (Class::MissMedium, 30),
            (Class::MissLarge, 15),
        ];
        let mix = class_mix(&mut rng, 320, &shares);
        let count = |c: Class| mix.iter().filter(|&&x| x == c).count();
        assert_eq!(
            (
                count(Class::MissSmall),
                count(Class::MissMedium),
                count(Class::MissLarge)
            ),
            (176, 96, 48)
        );
        // The rounding remainder goes to the first class.
        let mix = class_mix(&mut rng, 7, &shares);
        assert_eq!(mix.len(), 7);
        assert_eq!(mix.iter().filter(|&&x| x == Class::MissSmall).count(), 4);
    }

    #[test]
    fn improve_loop_cuts_the_traced_prefix_between_cycles() {
        let w = build("improve_loop", 3, 40).expect("a known workload");
        assert_eq!(w.warmup.len(), 2 * 9, "two whole warm-up cycles");
        let cycles_traced = w.ops[..w.traced_prefix]
            .iter()
            .filter(|op| op.class() == Class::MissMedium)
            .count();
        assert_eq!(cycles_traced, 40 / 5);
        assert!(matches!(
            w.ops[w.traced_prefix],
            Op::Query {
                class: Class::MissMedium,
                ..
            }
        ));
        let batches = w.ops.iter().filter(|op| op.class() == Class::Batch).count();
        assert_eq!(batches, 4, "cycles 10, 20, 30 and 40 of 42 end with one");
    }
}
