//! The circuit pool stays bounded, and its start-overs change no answer.
//!
//! `CircuitCache::begin_call`, which `Database` runs at the start of each
//! call that scores, starts a pool past a fixed node floor over. These
//! cases hold that rule to three things:
//!
//! - through `Database`, over a long `improve_loop`-shaped stream, the
//!   heap the test thread holds on to stops growing with the pool, and
//!   every response equals a fresh database's over the same rows;
//! - in the cache, seeded formulas scored across start-overs and
//!   probability changes equal a fresh cache's scores and budget
//!   outcomes bit for bit;
//! - a handle from before a start-over is refused, never resolved to
//!   another circuit.
//!
//! The floor is private, so every case runs until the pool has started
//! over as often as it needs and reads the count off the counters.

mod common;

use common::random_lineage;
use pcqe::engine::{
    Database, EngineConfig, ImprovementProposal, QueryRequest, QueryResponse, User,
};
use pcqe::lineage::{CircuitCache, Lineage, LineageError, Rng64, VarId};
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Column, DataType, Schema, TupleId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting the heap bytes each thread holds: bytes allocated
/// minus bytes freed, by the sizes asked for.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it without allocating or re-entering itself.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // A thread tearing its locals down is no thread these tests read.
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

/// Heap bytes the current thread has allocated and not freed.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The policy threshold and the fraction each query asks for, as in the
/// e2e `improve_loop` workload: every slice's first query misses.
const BETA: f64 = 0.6;
const THETA: f64 = 0.5;
/// Results per slice, claims per result and the key offset between
/// neighbouring results, which therefore share one claim key's evidence.
const GROUPS: usize = 24;
const CLAIMS: usize = 4;
const STRIDE: usize = 3;
/// Keys a slice spans, and the key space reserved per slice.
const KEYS: usize = (GROUPS - 1) * STRIDE + CLAIMS;
const KEYS_PER_SLICE: usize = 1_000;
/// Cycles of the stream: enough for the pool to pass its floor three
/// times.
const CYCLES: usize = 200;
/// Heap growth allowed from cycle `CYCLES / 10` to the last: a floor's
/// worth of pool (16 384 nodes at about 430 bytes each, with their memos,
/// dedup keys and variable slots) plus the 180 cycles' inserted rows and
/// audit entries. Here the pool grows by about 250 nodes a cycle, so
/// without start-overs the heap grows with the stream: on the commit
/// before them it grew 22 584 552 bytes; with them, 3 825 079.
const GROWTH_BOUND: i64 = 8 << 20;

/// One base row: its table, values and confidence.
type Row = (&'static str, Vec<Value>, f64);

fn claim(rng: &mut Rng64, grp: usize, key: usize, slice: usize) -> Row {
    let values = [grp, key, slice].map(|v| Value::Int(v as i64)).to_vec();
    ("claims", values, rng.range_f64(0.05, 0.3))
}

fn evidence(rng: &mut Rng64, key: usize, slice: usize) -> Row {
    let src = rng.below_u64(50) as usize;
    let values = [key, src, slice].map(|v| Value::Int(v as i64)).to_vec();
    ("evidence", values, rng.range_f64(0.05, 0.3))
}

/// Slice `slice`'s rows: `GROUPS` results of `CLAIMS` claims each, and
/// one evidence row per key.
fn slice_rows(rng: &mut Rng64, slice: usize) -> Vec<Row> {
    let first = slice * KEYS_PER_SLICE;
    let mut rows = Vec::new();
    for g in 0..GROUPS {
        for j in 0..CLAIMS {
            rows.push(claim(rng, g, first + g * STRIDE + j, slice));
        }
    }
    rows.extend((first..first + KEYS).map(|key| evidence(rng, key, slice)));
    rows
}

/// An empty database with the stream's two tables, their indexes and
/// policy.
fn empty_db() -> Database {
    let mut db = Database::new(EngineConfig {
        worker_threads: Some(1),
        ..EngineConfig::default()
    });
    let int = |name: &str| Column::new(name, DataType::Int);
    let claims = vec![int("grp"), int("k"), int("slice")];
    let evidence = vec![int("k"), int("src"), int("slice")];
    db.create_table("claims", Schema::new(claims).unwrap())
        .unwrap();
    db.create_table("evidence", Schema::new(evidence).unwrap())
        .unwrap();
    for (table, column) in [
        ("claims", "slice"),
        ("evidence", "k"),
        ("evidence", "slice"),
    ] {
        db.create_index(table, column).unwrap();
    }
    db.add_policy(ConfidencePolicy::new("analyst", "quality", BETA).unwrap());
    db
}

/// Slice `slice`'s query, the literal fresh per cycle: one result per
/// group, an OR over its claims joined with their evidence.
fn slice_query(slice: usize) -> QueryRequest {
    let sql = format!(
        "SELECT DISTINCT c.grp FROM claims c JOIN evidence e ON c.k = e.k \
         WHERE c.slice = {slice} AND e.slice = {slice}"
    );
    QueryRequest::new(sql, "quality").expecting(THETA)
}

/// `proposal` with only its first `keep` increments.
fn trimmed(proposal: &ImprovementProposal, keep: usize) -> ImprovementProposal {
    let mut trimmed = proposal.clone();
    trimmed.increments.truncate(keep);
    trimmed
}

/// Everything a response says, bit for bit, with each base tuple named by
/// its table and values rather than its id, so responses of databases
/// that numbered the same rows differently compare equal.
fn digest(db: &Database, response: &QueryResponse) -> String {
    let name = |id: TupleId| match db.catalog().find_tuple(id) {
        Some((table, stored)) => format!("{table}{:?}", stored.tuple),
        None => format!("unknown {id:?}"),
    };
    let released: Vec<String> = (response.released.iter())
        .map(|r| format!("{:?}@{:x}", r.tuple, r.confidence.to_bits()))
        .collect();
    let proposal = response.proposal.as_ref().map(|p| {
        let increments: Vec<String> = (p.increments.iter())
            .map(|i| {
                let bits = [i.from, i.to, i.cost].map(f64::to_bits);
                format!("{} {bits:x?}", name(i.tuple_id))
            })
            .collect();
        let cost = p.cost.to_bits();
        let counts = (p.projected_released, p.requested);
        format!("cost {cost:x} {counts:?} {increments:?}")
    });
    format!(
        "{:?} withheld {} β {:x} {proposal:?} {:?}",
        released,
        response.withheld,
        response.threshold.to_bits(),
        response.no_proposal,
    )
}

/// One cycle on slice `slice`: a θ-miss query, three previews of its
/// proposal (whole, all but the last increment, the first half), the
/// proposal applied, the query again. Returns each response's digest.
fn cycle(db: &mut Database, user: &User, slice: usize) -> Vec<String> {
    let request = slice_query(slice);
    let first = db.query(user, &request).unwrap();
    let proposal = first.proposal.clone().expect("every slice misses θ");
    let mut digests = vec![digest(db, &first)];
    let n = proposal.increments.len();
    for keep in [n, n.saturating_sub(1), n / 2] {
        let preview = db.what_if(user, &request, &trimmed(&proposal, keep));
        digests.push(digest(db, &preview.unwrap()));
    }
    db.apply(&proposal).unwrap();
    let again = db.query(user, &request).unwrap();
    digests.push(digest(db, &again));
    digests
}

/// An `improve_loop`-shaped stream through one database, `CYCLES` cycles
/// each on a fresh slice and ending with three inserts into the next
/// one. Live bytes on this thread are read after cycle `CYCLES / 10` and
/// after the last; the growth between is bounded by the pool's floor and
/// the inserted rows and audit entries, not by the cycles' formulas.
/// Each cycle is replayed on a fresh database holding only its slice's
/// rows at their current confidences, and every response must be equal.
#[test]
fn the_pool_stays_bounded_over_a_long_improvement_loop() {
    let mut rng = Rng64::seed_from_u64(0x9001_B0DE);
    let user = User::new("ada", "analyst");
    let mut db = empty_db();
    let mut slices: Vec<Vec<(TupleId, Row)>> = Vec::new();
    for slice in 0..=CYCLES {
        let rows = slice_rows(&mut rng, slice);
        let ids = rows.iter().map(|(table, values, confidence)| {
            db.insert(table, values.clone(), *confidence).unwrap()
        });
        slices.push(ids.collect::<Vec<_>>().into_iter().zip(rows).collect());
    }
    let mut early = None;
    for slice in 0..CYCLES {
        let mut twin = empty_db();
        for (id, (table, values, _)) in &slices[slice] {
            let now = db.catalog().confidence(*id).unwrap();
            twin.insert(table, values.clone(), now).unwrap();
        }
        let got = cycle(&mut db, &user, slice);
        assert_eq!(got, cycle(&mut twin, &user, slice), "slice {slice}");
        drop(twin);
        // A new group in the next slice: one claim on the last group's
        // last key, one on a new key with new evidence.
        let next = slice + 1;
        let shared = next * KEYS_PER_SLICE + GROUPS * STRIDE;
        let inserts = [
            claim(&mut rng, GROUPS, shared, next),
            claim(&mut rng, GROUPS, shared + 1, next),
            evidence(&mut rng, shared + 1, next),
        ];
        for row in inserts {
            let id = db.insert(row.0, row.1.clone(), row.2).unwrap();
            slices[next].push((id, row));
        }
        if slice + 1 == CYCLES / 10 {
            early = Some(live_bytes());
        }
    }
    let growth = live_bytes() - early.unwrap();
    assert!(
        growth < GROWTH_BOUND,
        "the heap grew {growth} bytes from cycle {} to cycle {CYCLES}",
        CYCLES / 10
    );
    let resets = db.metrics_snapshot().counter("lineage.pool_resets");
    assert_eq!(resets, 3, "the pool's start-overs");
}

/// A formula over the first `vars` variables.
fn formula(rng: &mut Rng64, vars: u64) -> Lineage {
    random_lineage(rng, vars, 4)
}

/// `lineage` compiled under `budget` and scored in a fresh cache holding
/// `probs`: the bits a pooled score must equal, or the error it must
/// repeat.
fn fresh_score(lineage: &Lineage, budget: usize, probs: &[f64]) -> Result<u64, LineageError> {
    let mut fresh = CircuitCache::new();
    for v in lineage.vars() {
        fresh.set_prob(v, probs[v.0 as usize]);
    }
    let id = fresh.compile(lineage, budget)?;
    fresh.score(id).map(f64::to_bits)
}

/// Calls of a few seeded formulas each — half of them drawn from a fixed
/// bank, so the same formula meets the pool before and after a start-over
/// — with probabilities moved between calls and set afresh within each,
/// as the engine's sync does. Every score and every budget outcome equals
/// a fresh cache's.
#[test]
fn start_overs_score_like_a_fresh_cache() {
    const VARS: u64 = 4_096;
    let mut rng = Rng64::seed_from_u64(0x005E_ED0F_B0DE);
    let bank: Vec<Lineage> = (0..32).map(|_| formula(&mut rng, 24)).collect();
    let mut probs: Vec<f64> = (0..VARS).map(|_| rng.range_f64(0.05, 0.95)).collect();
    let mut pooled = CircuitCache::new();
    let mut calls = 0;
    while pooled.stats().resets < 3 {
        calls += 1;
        assert!(calls < 100_000, "no third start-over");
        pooled.begin_call();
        for _ in 0..2 {
            let v = rng.below_usize(probs.len());
            probs[v] = rng.range_f64(0.05, 0.95);
        }
        let formulas: Vec<Lineage> = (0..4)
            .map(|_| match rng.chance(0.5) {
                true => bank[rng.below_usize(bank.len())].clone(),
                false => formula(&mut rng, VARS),
            })
            .collect();
        for v in formulas.iter().flat_map(Lineage::vars) {
            pooled.set_prob(v, probs[v.0 as usize]);
        }
        for lineage in &formulas {
            let budget = rng.below_usize(12);
            let got = (pooled.compile(lineage, budget)).and_then(|id| pooled.score(id));
            let want = fresh_score(lineage, budget, &probs);
            assert_eq!(got.map(f64::to_bits), want, "call {calls}: {lineage:?}");
        }
    }
}

/// A handle taken before a start-over names nothing after it — not even
/// once a new circuit sits at its index — and `score` and `compiled`
/// refuse it.
#[test]
fn a_handle_from_before_a_start_over_is_refused() {
    let lineage = Lineage::or(vec![Lineage::var(0), Lineage::var(1)]);
    let mut cache = CircuitCache::new();
    let old = cache.compile(&lineage, 8).unwrap();
    let mut next = 2;
    while cache.stats().resets == 0 {
        cache.compile(&Lineage::var(next), 0).unwrap();
        next += 1;
        cache.begin_call();
    }
    for v in [0, 1] {
        cache.set_prob(VarId(v), 0.5);
    }
    let new = cache.compile(&lineage, 8).unwrap();
    assert_ne!(new, old);
    assert_eq!(cache.score(new), Ok(0.75));
    assert!(matches!(
        cache.score(old),
        Err(LineageError::UnknownCircuit(_))
    ));
    assert!(matches!(
        cache.compiled(old),
        Err(LineageError::UnknownCircuit(_))
    ));
}
