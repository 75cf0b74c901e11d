//! The possible-worlds oracle.
//!
//! A result's confidence is its probability under tuple independence: the
//! total weight of the worlds — each base tuple present with its
//! confidence, absent otherwise — in which a plain relational evaluation
//! of the query yields the row. For generated databases of at most 12 base
//! tuples and select-project-join, `DISTINCT`, `UNION` and `EXCEPT` queries
//! over comparisons that cannot raise, this enumerates every world and
//! holds `Database::query` to it: every confidence within 1e-12, and the
//! released set at each β exactly. A row within 1e-9 of β is counted and
//! left out of the release comparison. At Shannon budgets too small for
//! some rows' formulas the release is held to the worlds on one side: a
//! row gated on its lower bound may be withheld, never released at or
//! below β nor above its probability.
//!
//! The evaluator below is written for the test. It reads the generator's
//! AST and the spec's rows — no lineage, no `pcqe_algebra`, no SQL. A
//! row's identity is its values, plus, where nothing merges rows (a plain
//! `SELECT`), the base tuples that derived it.

mod common;

use common::{
    random_db, random_query, rust_test, shrink, DbSpec, Expr, Query, Select, BETAS, WORLDS,
};
use pcqe::engine::{EngineConfig, NoProposal, QueryRequest, QueryResponse, User};
use pcqe::lineage::{CompiledLineage, Evaluator, Rng64};
use pcqe::obs::clock::{Clock, SystemClock};
use pcqe::par::ConfidencePath;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{DataType, Value};
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 400;

/// A result row: its values and, unless merged, its base tuples' ids.
type Key = (Vec<Value>, Vec<u64>);

/// The spec's rows by table name: each row's tuple id, confidence and
/// values. Ids follow the rows, table by table, from 0.
type Tuples<'a> = BTreeMap<&'a str, Vec<(u64, f64, &'a [Value])>>;

/// The [`Tuples`] of `spec`.
fn tuples(spec: &DbSpec) -> Tuples<'_> {
    let mut id = 0;
    let mut out = BTreeMap::new();
    for t in &spec.tables {
        let rows = t.rows.iter().map(|(p, values)| {
            id += 1;
            (id - 1, *p, values.as_slice())
        });
        out.insert(t.name.as_str(), rows.collect());
    }
    out
}

/// An operand's value on a row of the FROM entries' values.
fn value(e: &Expr, row: &[&[Value]]) -> Value {
    match e {
        Expr::Col(f, c) => row[*f][*c].clone(),
        Expr::Lit(v) => v.clone(),
        other => panic!("not an operand: {other:?}"),
    }
}

/// Three-valued truth: `None` is unknown.
fn truth(e: &Expr, row: &[&[Value]]) -> Option<bool> {
    let Expr::Op(op, args) = e else {
        return match value(e, row) {
            Value::Bool(b) => Some(b),
            _ => None,
        };
    };
    let truths = || args.iter().map(|a| truth(a, row));
    match *op {
        "AND" if truths().any(|t| t == Some(false)) => Some(false),
        "OR" if truths().any(|t| t == Some(true)) => Some(true),
        "AND" | "OR" => truths().all(|t| t.is_some()).then_some(*op == "AND"),
        "NOT" => truth(&args[0], row).map(|b| !b),
        "IS NULL" => Some(value(&args[0], row) == Value::Null),
        "IS NOT NULL" => Some(value(&args[0], row) != Value::Null),
        cmp => {
            let order = value(&args[0], row).sql_cmp(&value(&args[1], row))?;
            Some(match cmp {
                "=" => order == Ordering::Equal,
                "<>" => order != Ordering::Equal,
                "<" => order == Ordering::Less,
                "<=" => order != Ordering::Greater,
                ">" => order == Ordering::Greater,
                ">=" => order != Ordering::Less,
                other => panic!("not a comparison: {other}"),
            })
        }
    }
}

/// One `SELECT`'s rows in a world: every combination of present rows of
/// the FROM entries that meets each `ON` and every `WHERE` conjunct,
/// projected, with the ids of the rows combined.
fn select(s: &Select, tuples: &Tuples, present: &[bool]) -> Vec<Key> {
    let mut combos: Vec<(Vec<&[Value]>, Vec<u64>)> = vec![(Vec::new(), Vec::new())];
    for (table, on) in &s.from {
        let mut next = Vec::new();
        for (row, ids) in &combos {
            for &(id, _, values) in &tuples[table.as_str()] {
                let row = [&row[..], &[values]].concat();
                if present[id as usize]
                    && on.as_ref().is_none_or(|on| truth(on, &row) == Some(true))
                {
                    next.push((row, [&ids[..], &[id]].concat()));
                }
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .filter(|(row, _)| s.filter.iter().all(|c| truth(c, row) == Some(true)))
        .map(|(row, ids)| {
            let values = match s.items.as_slice() {
                [] => row.concat(),
                items => items.iter().map(|e| value(e, &row)).collect(),
            };
            (values, ids)
        })
        .collect()
}

/// The query's rows in a world, by identity. A plain `SELECT` keeps its
/// rows apart by the tuples that derived them (as a set of ids: a tuple
/// met twice is one event); `DISTINCT`, `UNION` and `EXCEPT` merge rows by
/// value.
fn answer(q: &Query, tuples: &Tuples, present: &[bool]) -> Vec<Key> {
    let first = select(&q.first, tuples, present);
    if q.rest.is_empty() && !q.first.distinct {
        return first
            .into_iter()
            .map(|(values, ids)| {
                let ids: BTreeSet<u64> = ids.into_iter().collect();
                (values, ids.into_iter().collect())
            })
            .collect();
    }
    let values = |rows: Vec<Key>| rows.into_iter().map(|(v, _)| v).collect::<BTreeSet<_>>();
    let mut set = values(first);
    for (union, s) in &q.rest {
        let right = values(select(s, tuples, present));
        match union {
            true => set.extend(right),
            false => set.retain(|v| !right.contains(v)),
        }
    }
    set.into_iter().map(|v| (v, Vec::new())).collect()
}

/// Every row's probability and multiplicity, over all worlds.
type Worlds = BTreeMap<Key, (f64, usize)>;

/// The [`Worlds`] of `q` over `spec`.
fn oracle(spec: &DbSpec, q: &Query) -> Worlds {
    let tuples = tuples(spec);
    let all: Vec<(u64, f64)> = tuples
        .values()
        .flatten()
        .map(|&(id, p, _)| (id, p))
        .collect();
    let uncertain: Vec<(u64, f64)> = all.iter().copied().filter(|&(_, p)| p < 1.0).collect();
    let mut rows: BTreeMap<Key, (f64, usize)> = BTreeMap::new();
    for world in 0..1u32 << uncertain.len() {
        let mut present = vec![true; all.len()];
        let mut weight = 1.0;
        for (bit, &(id, p)) in uncertain.iter().enumerate() {
            let here = world >> bit & 1 == 1;
            present[id as usize] = here;
            weight *= if here { p } else { 1.0 - p };
        }
        let mut counts: BTreeMap<Key, usize> = BTreeMap::new();
        for key in answer(q, &tuples, &present) {
            *counts.entry(key).or_default() += 1;
        }
        for (key, n) in counts {
            let (p, multiplicity) = rows.entry(key).or_default();
            *p += weight;
            *multiplicity = n;
        }
    }
    rows
}

/// What one case compared.
#[derive(Default)]
struct Compared {
    rows: usize,
    near_beta: usize,
}

/// Hold `Database::query` to the oracle for one case.
fn agree(spec: &DbSpec, q: &Query, compared: &mut Compared) -> Result<(), String> {
    let worlds = oracle(spec, q);
    let plain = q.rest.is_empty() && !q.first.distinct;
    let sql = q.sql(spec);
    let user = User::new("ada", "analyst");
    let request = QueryRequest::new(sql.as_str(), "research").expecting(0.0);
    // At β = 0 every row of non-zero probability is released, with its
    // confidence; then at each β of the harness.
    for beta in [0.0, BETAS[0], BETAS[1]] {
        let mut db = spec.database(EngineConfig::default(), false);
        db.add_policy(ConfidencePolicy::new("analyst", "research", beta).unwrap());
        let response = db
            .query(&user, &request)
            .map_err(|e| format!("{sql}: {e}"))?;
        let mut released: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
        for row in response.released {
            let ids = if plain {
                row.lineage.vars().iter().map(|v| v.0).collect()
            } else {
                Vec::new()
            };
            released
                .entry((row.tuple.values().to_vec(), ids))
                .or_default()
                .push(row.confidence);
        }
        let near = |p: f64| (p - beta).abs() <= 1e-9;
        for (key, &(p, n)) in &worlds {
            let got = released.remove(key).unwrap_or_default();
            if beta == 0.0 {
                compared.rows += 1;
                if got.len() != n || got.iter().any(|c| (c - p).abs() > 1e-12) {
                    return Err(format!(
                        "{sql}: {key:?} has probability {p:?} ×{n}, engine {got:?}"
                    ));
                }
            } else if near(p) {
                compared.near_beta += 1;
            } else if (p > beta) == got.is_empty() {
                return Err(format!(
                    "{sql}: {key:?} at probability {p:?}, β = {beta}, released {got:?}"
                ));
            }
        }
        if let Some((key, c)) = released.into_iter().next() {
            return Err(format!("{sql}: released {key:?} at {c:?}, in no world"));
        }
    }
    Ok(())
}

#[test]
fn confidences_are_probabilities_over_every_world() {
    let started = SystemClock.monotonic();
    let mut compared = Compared::default();
    for case in 0..CASES {
        let seed = 0x00F0_0001 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng64::seed_from_u64(seed);
        let spec = random_db(&mut rng, WORLDS);
        let query = random_query(&mut rng, &spec, WORLDS);
        if let Err(failure) = agree(&spec, &query, &mut compared) {
            let fails = |s: &DbSpec, q: &Query| agree(s, q, &mut Compared::default()).err();
            let (spec, query, failure) = shrink(spec, query, failure, &fails);
            panic!(
                "case {case} (seed {seed:#018x}) disagrees with the worlds; shrunk:\n{failure}\n\
                 {query:?}\n\n{}",
                rust_test(&spec, &query.sql(&spec))
            );
        }
    }
    eprintln!(
        "possible worlds: {CASES} cases, {} rows held to their probability, {} within 1e-9 of β, {:.1?}",
        compared.rows,
        compared.near_beta,
        SystemClock.monotonic().saturating_sub(started)
    );
    assert!(
        compared.rows > 1_000,
        "only {} rows compared",
        compared.rows
    );
}

/// The Shannon budgets the release laws are held at.
const BUDGETS: [usize; 5] = [0, 1, 2, 4, 8];

/// Generated cases drawn for the budget axis. Only those whose query
/// merges rows (`DISTINCT`, `UNION`, `EXCEPT`) run: a plain `SELECT`'s row
/// is a conjunction of distinct tuples, which never needs an expansion.
const BUDGET_CASES: u64 = 1_000;

/// Rows scored and rows gated on their lower bound, per budget.
type PerBudget = BTreeMap<usize, (usize, usize)>;

/// The default engine, scoring and compiling strategy instances with a
/// Shannon budget of `budget`.
fn at_budget(budget: usize) -> EngineConfig {
    EngineConfig {
        evaluator: Evaluator { budget },
        lineage_budget: budget,
        ..EngineConfig::default()
    }
}

/// Hold `Database::query` at `budget` to the worlds of `q`, one database
/// gated at β = 0 and at each of [`BETAS`] (one purpose each):
/// - no row whose probability is ≤ β is released (a row within 1e-9 of β
///   aside);
/// - every released confidence is at most the row's probability + 1e-12,
///   and within 1e-12 of it when the row's formula fits the budget;
/// - at β = 0 a row of positive probability goes unreleased only if it was
///   gated on its lower bound (`lineage.bounded`);
/// - asked to release every row (θ = 1), the query answers with the same
///   released rows, bit for bit, and the same withheld count, whether or
///   not strategy finding can compile the withheld rows within `budget`.
///
/// A run that bounds no row at β = 0 bounds none at any β (a gate above 0
/// only skips more rows), so it is the exact engine the test above holds
/// to the worlds, and it stops there. Returns the rows scored at β = 0 and
/// how many of them were bounded. `worlds` holds the oracle's answer
/// once one run has needed it.
fn sound_at(
    spec: &DbSpec,
    q: &Query,
    budget: usize,
    worlds: &OnceCell<Worlds>,
) -> Result<(usize, usize), String> {
    let sql = q.sql(spec);
    let user = User::new("ada", "analyst");
    let mut db = spec.database(at_budget(budget), false);
    let mut scored = (0, 0);
    for (purpose, beta) in ["all", "half", "most"]
        .into_iter()
        .zip([0.0, BETAS[0], BETAS[1]])
    {
        db.add_policy(ConfidencePolicy::new("analyst", purpose, beta).unwrap());
        let request = QueryRequest::new(sql.as_str(), purpose).expecting(0.0);
        let before = db.metrics_snapshot().counter("lineage.bounded") as usize;
        let at = format!("{sql} at budget {budget}, β = {beta}");
        let response = db
            .query(&user, &request)
            .map_err(|e| format!("{at}: {e}"))?;
        let bounded = db.metrics_snapshot().counter("lineage.bounded") as usize - before;
        let every_row = QueryRequest::new(sql.as_str(), purpose).expecting(1.0);
        let missed = db
            .query(&user, &every_row)
            .map_err(|e| format!("{at}, θ = 1: {e}"))?;
        let answer = |r: &QueryResponse| {
            let released = r.released.iter();
            let released = released.map(|t| (t.tuple.clone(), t.confidence.to_bits()));
            (released.collect::<Vec<_>>(), r.withheld)
        };
        if answer(&missed) != answer(&response) {
            return Err(format!(
                "{at}: θ = 1 answered {:?}, θ = 0 {:?}",
                answer(&missed),
                answer(&response)
            ));
        }
        if beta == 0.0 {
            scored = (response.released.len() + response.withheld, bounded);
            if bounded == 0 {
                return Ok(scored);
            }
        }
        let worlds = worlds.get_or_init(|| oracle(spec, q));
        let positive = worlds.values().filter(|&&(p, _)| p > 1e-9);
        let mut missing: usize = positive.map(|&(_, n)| n).sum();
        for row in &response.released {
            let key = (row.tuple.values().to_vec(), Vec::new());
            let (c, fits) = (
                row.confidence,
                CompiledLineage::compile(&row.lineage, budget).is_ok(),
            );
            let Some(&(p, _)) = worlds.get(&key) else {
                return Err(format!("{at}: released {key:?} at {c:?}, in no world"));
            };
            if p <= beta - 1e-9 || c > p + 1e-12 || fits && (c - p).abs() > 1e-12 {
                return Err(format!(
                    "{at}: {key:?} at probability {p:?} released at {c:?} (fits: {fits})"
                ));
            }
            missing -= usize::from(p > 1e-9);
        }
        if beta == 0.0 && missing > bounded {
            return Err(format!("{at}: {missing} rows withheld, {bounded} bounded"));
        }
    }
    Ok(scored)
}

#[test]
fn nothing_at_or_below_beta_is_released_at_any_budget() {
    let started = SystemClock.monotonic();
    let mut seen = PerBudget::new();
    let mut ran = 0;
    for case in 0..BUDGET_CASES {
        let seed = 0x00F0_0B06 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng64::seed_from_u64(seed);
        let spec = random_db(&mut rng, WORLDS);
        let query = random_query(&mut rng, &spec, WORLDS);
        if !query.first.distinct && query.rest.is_empty() {
            continue;
        }
        ran += 1;
        let worlds = OnceCell::new();
        for budget in BUDGETS {
            let (rows, bounded) =
                sound_at(&spec, &query, budget, &worlds).unwrap_or_else(|failure| {
                    let fails =
                        |s: &DbSpec, q: &Query| sound_at(s, q, budget, &OnceCell::new()).err();
                    let (spec, query, failure) =
                        shrink(spec.clone(), query.clone(), failure, &fails);
                    panic!(
                        "case {case} (seed {seed:#018x}) released unsoundly at budget {budget}; \
                     shrunk:\n{failure}\n{query:?}\n\n{}",
                        rust_test(&spec, &query.sql(&spec))
                    )
                });
            // A formula that fits a budget fits every larger one (a compile
            // succeeds iff the budget covers its cost): once nothing is
            // bounded, the larger budgets bound nothing either.
            let to = if bounded == 0 { usize::MAX } else { budget };
            for later in BUDGETS.into_iter().filter(|b| (budget..=to).contains(b)) {
                let (all, gated) = seen.entry(later).or_default();
                *all += rows;
                *gated += bounded;
            }
            if bounded == 0 {
                break;
            }
        }
    }
    for (budget, (rows, bounded)) in &seen {
        eprintln!(
            "budget {budget}: {bounded} of {rows} rows bounded ({:.1} %)",
            100.0 * *bounded as f64 / (*rows).max(1) as f64
        );
    }
    let took = SystemClock.monotonic().saturating_sub(started);
    eprintln!("budget axis: {ran} cases, {took:.1?}");
    let (rows, bounded) = seen[&0];
    assert!(
        rows > 800 && bounded >= 60,
        "{bounded} of {rows} rows bounded at budget 0"
    );
}

/// `SELECT DISTINCT 1 FROM a, b WHERE a.k <= b.k` over a(k) = {1, 2} at
/// 0.1 each and b(k) = {1 @ 0.1, 2 @ 0.25}: the row's lineage
/// `a₁b₁ ∨ a₁b₂ ∨ a₂b₂` needs one Shannon expansion, and gated at its exact
/// confidence it must not be released. With no budget for the expansion
/// the row is gated on its lower bound: withheld, counted as
/// `lineage.bounded` and traced as `Bounded`.
#[test]
fn a_row_past_the_budget_at_exactly_its_confidence_is_withheld() {
    let spec = DbSpec::default()
        .table("a", &[("k", DataType::Int)])
        .rows([(0.1, vec![Value::Int(1)]), (0.1, vec![Value::Int(2)])])
        .table("b", &[("k", DataType::Int)])
        .rows([(0.1, vec![Value::Int(1)]), (0.25, vec![Value::Int(2)])]);
    let sql = "SELECT DISTINCT 1 FROM a, b WHERE a.k <= b.k";
    let user = User::new("ada", "analyst");
    let request = QueryRequest::new(sql, "research").expecting(0.0);
    let mut exact = spec.database(EngineConfig::default(), false);
    exact.add_policy(ConfidencePolicy::new("analyst", "research", 0.0).unwrap());
    let beta = exact.query(&user, &request).unwrap().released[0].confidence;
    assert!((beta - 0.055).abs() < 1e-12, "{beta}");

    let mut db = spec.database(at_budget(0), false);
    db.add_policy(ConfidencePolicy::new("analyst", "research", beta).unwrap());
    let (response, trace) = db.trace_query(&user, &request).unwrap();
    assert_eq!((response.released.len(), response.withheld), (0, 1));
    assert_eq!(db.metrics_snapshot().counter("lineage.bounded"), 1);
    let decisions = common::decisions(&trace);
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].path, ConfidencePath::Bounded);
    assert!(!decisions[0].released && decisions[0].confidence <= beta);
}

/// The generator's case 7 (seed `0x538454127bf96f95`), shrunk: the one
/// row of `SELECT DISTINCT b.n FROM a, b` needs a Shannon expansion. At
/// budget 0 and β = 0.5 it is withheld, and a request for every row
/// (θ = 1) sends it to strategy finding, which cannot compile it either.
/// The query and the batch still answer — the row withheld, the audit
/// written — and say the solver gave up.
#[test]
fn a_theta_miss_past_the_strategy_budget_answers_and_gives_up() {
    let spec = DbSpec::default()
        .table("a", &[("n", DataType::Int)])
        .rows([(0.25, vec![Value::Int(1)]), (0.9, vec![Value::Int(2)])])
        .table("b", &[("n", DataType::Int)])
        .rows([(0.1, vec![Value::Int(2)]), (0.25, vec![Value::Int(2)])]);
    let user = User::new("ada", "analyst");
    let request = QueryRequest::new("SELECT DISTINCT b.n FROM a, b", "research").expecting(1.0);
    let mut db = spec.database(at_budget(0), false);
    db.add_policy(ConfidencePolicy::new("analyst", "research", 0.5).unwrap());
    let gave_up = |reason: &Option<NoProposal>| matches!(reason, Some(NoProposal::SolverGaveUp(m)) if m.contains("exceeded budget"));
    let response = db.query(&user, &request).unwrap();
    assert_eq!((response.released.len(), response.withheld), (0, 1));
    assert!(gave_up(&response.no_proposal), "{:?}", response.no_proposal);
    assert_eq!(db.metrics_snapshot().counter("lineage.bounded"), 1);
    let batch = db.query_batch(&user, &[request.clone(), request]).unwrap();
    assert!(gave_up(&batch.no_proposal), "{:?}", batch.no_proposal);
    assert!(batch.responses.iter().all(|r| r.withheld == 1));
    assert_eq!(common::audited_counts(&db), vec![(0, 1); 3]);
}
