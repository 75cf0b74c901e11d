//! Vectorized physical plan execution — the engine's one executor.
//!
//! Every operator runs on the calling thread, in row order. Rows are
//! **borrowed until an operator must own them**: a scan emits references
//! to the stored rows that survive its residual (a selection over
//! storage); operators that only read their input — filter, projection, join build and probe,
//! aggregate grouping and folding — read either those or derived tuples in
//! place through one row trait (a values slice and a lineage); and a value
//! is cloned once, when it enters an operator's output. A scan takes its
//! candidates from a *skip source* before it reads a row: a table scan
//! from a pass over the table's typed column images
//! ([`pcqe_storage::image`]), which drops the rows its residual's leading
//! conjuncts prove it rejects, an index scan from the postings of its key;
//! either way the whole residual is then tested on every candidate.
//!
//! ## The identity contract
//!
//! For any logical plan `q` and `p = lower(&q, c)`,
//! `execute_vectorized_with(&p, c, par)` produces a result set
//! **bit-identical** to a sequential, tuple-at-a-time walk of `q` — same
//! rows, same order, same lineage expressions, and the same first error on
//! failing inputs — at any worker count, since no operator spawns a
//! thread. That walk is the equivalence suites' reference
//! (`tests/common/reference.rs`), a separate
//! implementation of the same algebra that shares no operator code with
//! this module, so every rule below holds by test against it, not by
//! construction. Three rules:
//!
//! 1. **Expressions evaluate row-wise, in row order — on every row that
//!    is not skipped, and a row is skipped only if the whole predicate
//!    returns `Ok(false)` on it without raising.** The first error
//!    surfaced is the first failing row's. Every expression runs the one
//!    tree walk, [`ScalarExpr::eval`], which borrows a column or
//!    literal operand instead of cloning it: a predicate through
//!    [`ScalarExpr::test`] (that walk with a NULL read as false),
//!    projections, group keys and aggregate arguments through the walk
//!    itself. Column-wise evaluation of a whole predicate could reorder
//!    which error wins, so there is none; what a scan consults without
//!    evaluating the predicate — a column image, an equality index —
//!    answers for a conjunct of the residual's
//!    [`LeadingRun`](crate::expr::LeadingRun), the prefix of its `AND`
//!    chain that cannot fault, and only to *skip*: `AND` stops on a
//!    definite left `false` and only then, so a definite `false` inside
//!    that prefix is the whole predicate's `Ok(false)`, and a skipped row
//!    can neither survive nor raise. Every other row — one the
//!    source cannot call definitely false: a NULL or widened `Int` under
//!    an image, a NULL key under an index — is decided by the whole
//!    predicate.
//! 2. **Pipeline breakers keep input order.** Sort evaluates every key of
//!    every row, in row order, before it moves one, then sorts stably;
//!    Union, Difference and a distinct projection merge equal rows into
//!    the first one's position, OR-ing their lineage in input order; a
//!    group sits where its first row was, its lineage the OR of its
//!    members' in row order, each aggregate folded over its members'
//!    non-NULL arguments in row order.
//! 3. **Hash state stays ordered.** The hash-join build is one table: the
//!    build side's joinable rows, in row order, stable-sorted by key —
//!    keys are compared where they lie, never copied — so the rows of one
//!    key come in ascending row order, the order a nested loop meets them.
//!    An index join skips the build: its build side is a whole stored
//!    table whose equality index already is that structure — per key, the
//!    rows that hold it in insertion order, NULLs left out — so both joins
//!    run one probe loop and differ only in where a left key's matches
//!    come from.
//!
//! All observation goes to one optional [`pcqe_par::Observer`]: an
//! `op:<label>` span per operator on its timeline, and nothing else, so
//! traces stay deterministic in structure.

use crate::error::AlgebraError;
use crate::expr::ScalarExpr;
use crate::physical::plan::PhysicalPlan;
use crate::physical::profile::{ExecProfile, Profiler};
use crate::plan::{AggFunc, AggItem, ProjItem, SortKey};
use crate::result::{DerivedTuple, ResultSet, Row};
use crate::Result;
use pcqe_lineage::Lineage;
use pcqe_par::{Observer, Parallelism, Span};
use pcqe_storage::{Catalog, EqualityIndex, StoredTuple, Table, Tuple, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Execute a physical plan on the calling thread.
///
/// `_par` is not read: the executor spawns no thread, whatever the
/// policy. The parameter stays because the end-to-end benchmark's adapter
/// (`crates/bench/benches/e2e/src/adapter.rs`) passes one, and that
/// adapter changes only with the benchmark.
pub fn execute_vectorized_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    _par: &Parallelism,
) -> Result<ResultSet> {
    run_root(plan, catalog, None, Profiler::off()).map(|(result_set, _)| result_set)
}

/// [`execute_vectorized_with`], additionally collecting a per-operator
/// [`ExecProfile`] — counts only, in the plan's pre-order; labels are
/// [`ExecProfile::render`]'s to draw from the plan — and, on the
/// listener's [`Observer::timeline`] when it has one, opening `op:<label>`
/// spans nested to mirror the plan tree. The listener is write-only — the
/// result set is byte-identical with or without one. `_par` is not read,
/// for the reason [`execute_vectorized_with`] gives.
pub fn execute_vectorized_profiled(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    _par: &Parallelism,
    observer: Option<&dyn Observer>,
) -> Result<(ResultSet, ExecProfile)> {
    run_root(plan, catalog, observer, Profiler::on())
}

fn run_root(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    listener: Option<&dyn Observer>,
    mut prof: Profiler,
) -> Result<(ResultSet, ExecProfile)> {
    let schema = plan.schema(catalog)?;
    let ctx = Ctx {
        catalog,
        timeline: listener.and_then(|l| l.timeline()),
    };
    let out = run_v(plan, &ctx, 0, &mut prof)?;
    Ok((ResultSet::new(schema, out.into_rows()), prof.finish()))
}

/// Everything an operator needs besides the plan node itself.
struct Ctx<'a> {
    catalog: &'a Catalog,
    /// The call's timeline, if its listener keeps one: each operator wraps
    /// its execution in an `op:<label>` span there. Write-only — results
    /// are byte-identical with or without one.
    timeline: Option<&'a dyn Observer>,
}

/// An operator's output. Rows stay borrowed from storage until an
/// operator has to own them: scans, and the filters and limits directly
/// above them, emit a selection over the stored rows; everything that
/// computes new values emits derived tuples. Readers take either form
/// through [`Row`].
pub(crate) enum VOut<'c> {
    /// Surviving stored rows, in storage order.
    Stored(Vec<&'c StoredTuple>),
    /// Owned rows.
    Rows(Vec<DerivedTuple>),
}

/// Run `$body` over an operator output's rows, whichever form they are in.
macro_rules! read_rows {
    ($out:expr, $rows:ident => $body:expr) => {
        match $out {
            VOut::Stored($rows) => $body,
            VOut::Rows($rows) => $body,
        }
    };
}

impl VOut<'_> {
    fn row_count(&self) -> usize {
        read_rows!(self, rows => rows.len())
    }

    fn lineage_nodes(&self) -> u64 {
        let nodes = |l: &Lineage| l.size() as u64;
        match self {
            VOut::Stored(rows) => rows.iter().map(|r| nodes(&r.lineage())).sum(),
            VOut::Rows(rows) => rows.iter().map(|r| nodes(&r.lineage)).sum(),
        }
    }

    /// Own the rows: a stored row's values are cloned here, once.
    fn into_rows(self) -> Vec<DerivedTuple> {
        match self {
            VOut::Stored(rows) => rows
                .into_iter()
                .map(|r| DerivedTuple {
                    tuple: r.tuple.clone(),
                    lineage: r.into_lineage(),
                })
                .collect(),
            VOut::Rows(rows) => rows,
        }
    }
}

fn run_v<'c>(
    plan: &PhysicalPlan,
    ctx: &Ctx<'c>,
    depth: usize,
    prof: &mut Profiler,
) -> Result<VOut<'c>> {
    let slot = prof.enter(depth);
    let span = ctx
        .timeline
        .map(|t| Span::open(t, &format!("op:{}", plan.node_label())));
    let (rows_in, out) = run_v_node(plan, ctx, depth, prof)?;
    drop(span);
    prof.exit_counts(slot, rows_in, out.row_count(), || out.lineage_nodes());
    Ok(out)
}

/// The half of a scan both skip sources share: the whole residual tests
/// each of the `candidates` — the stored rows it has yet to decide, in
/// row order — in place. Yields references to the survivors in storage
/// order.
fn scan<'c>(
    candidates: impl Iterator<Item = &'c StoredTuple>,
    residual: &Option<ScalarExpr>,
) -> Result<Vec<&'c StoredTuple>> {
    let Some(residual) = residual else {
        return Ok(candidates.collect());
    };
    let mut survivors = Vec::new();
    for r in candidates {
        if residual.test(r.tuple.values())? {
            survivors.push(r);
        }
    }
    Ok(survivors)
}

/// [`scan`] over what a skip source left of `stored`: the rows at
/// `positions` (ascending) are the candidates. The one call both scans end
/// in — they differ in where the candidates come from, never in what is
/// done with one.
fn scan_candidates<'c>(
    stored: &'c [StoredTuple],
    positions: &[usize],
    residual: &Option<ScalarExpr>,
) -> Result<Vec<&'c StoredTuple>> {
    scan(positions.iter().filter_map(|&p| stored.get(p)), residual)
}

/// Scan a table, its column images the skip source: first a pass over
/// them drops the rows the residual's [`LeadingRun`] proves it rejects (it
/// costs under a nanosecond a row); then [`scan`] decides the candidates
/// left. A residual whose leading run reads no imaged column, or none,
/// leaves every row.
///
/// [`LeadingRun`]: crate::expr::LeadingRun
fn scan_table<'c>(table: &'c Table, residual: &Option<ScalarExpr>) -> Result<Vec<&'c StoredTuple>> {
    let stored = table.rows();
    let run = residual.as_ref().map(|r| r.leading_run(table));
    match run.and_then(|run| run.candidates()) {
        Some(positions) => scan_candidates(stored, &positions, residual),
        None => scan(stored.iter(), residual),
    }
}

/// Scan a table, the equality index on `column` the skip source: the
/// candidates are the rows the index lists under `key`, in insertion order
/// — a row that holds another key is one `column = key`, a conjunct of the
/// residual's leading run (the planner takes the key from nowhere else),
/// is definitely false on. On a NULL it is unknown, not false, and `AND`
/// goes on to the conjuncts behind it: so where anything is behind it —
/// the scan has a residual — the NULL-keyed rows are candidates as well.
/// Yields the number of candidates beside [`scan`]'s answer.
fn scan_index<'c>(
    table: &'c Table,
    column: usize,
    key: &Value,
    residual: &Option<ScalarExpr>,
) -> Result<(usize, Vec<&'c StoredTuple>)> {
    let index = required_index(table, column)?;
    let mut positions = Cow::Borrowed(index.lookup(key));
    if residual.is_some() && !index.null_rows().is_empty() {
        positions.to_mut().extend(index.null_rows());
        positions.to_mut().sort_unstable();
    }
    for &pos in positions.iter() {
        indexed_row(table, pos)?;
    }
    let rows = scan_candidates(table.rows(), &positions, residual)?;
    Ok((positions.len(), rows))
}

/// The index a plan names on `column` of `table`; a plan lowered against
/// another catalog state may name one that is not there.
fn required_index(table: &Table, column: usize) -> Result<&EqualityIndex> {
    table.index_on(column).ok_or_else(|| {
        AlgebraError::Plan(format!(
            "physical plan requires an index on column {column} of `{}`, \
             but the catalog has none",
            table.name()
        ))
    })
}

/// The stored row an index posting points at.
fn indexed_row(table: &Table, pos: usize) -> Result<&StoredTuple> {
    table.rows().get(pos).ok_or_else(|| {
        AlgebraError::Plan(format!(
            "index on `{}` points at row {pos} beyond table length {}",
            table.name(),
            table.len()
        ))
    })
}

/// Keep the rows the predicate holds on, tested in place.
fn filter<R: Row>(rows: Vec<R>, predicate: &ScalarExpr) -> Result<Vec<R>> {
    rows.into_iter()
        .filter_map(|row| match predicate.test(row.values()) {
            Ok(keep) => keep.then_some(Ok(row)),
            Err(e) => Some(Err(e)),
        })
        .collect()
}

/// Compute the output columns from rows read in place; lineage moves across.
fn project<R: Row>(rows: Vec<R>, items: &[ProjItem]) -> Result<Vec<DerivedTuple>> {
    rows.into_iter()
        .map(|row| {
            let values = items
                .iter()
                .map(|item| item.expr.eval(row.values()))
                .collect::<Result<_>>()?;
            Ok(DerivedTuple {
                tuple: Tuple::new(values),
                lineage: row.into_lineage(),
            })
        })
        .collect()
}

/// One side's key columns: each column's position in that side's rows,
/// with its number in the plan (for the error).
type KeyCols = [(usize, usize)];

/// Whether a row can equi-join: every key column in range (else the typed
/// error) and none NULL.
fn joinable(values: &[Value], cols: &KeyCols) -> Result<bool> {
    for &(c, named) in cols {
        let v = values.get(c).ok_or_else(|| key_out_of_range(named))?;
        if v.is_null() {
            return Ok(false); // NULL never equi-joins
        }
    }
    Ok(true)
}

fn key_out_of_range(named: usize) -> AlgebraError {
    AlgebraError::Type(format!("join key column {named} out of range"))
}

/// The key of a [`joinable`] row, read in place.
fn key_of<'r>(values: &'r [Value], cols: &'r KeyCols) -> impl Iterator<Item = &'r Value> {
    cols.iter().filter_map(move |&(c, _)| values.get(c))
}

/// The output row of a pair, if it passes `test`: the two rows' values
/// are cloned once, side by side, for the test and the output alike.
fn join_pair(
    left: &impl Row,
    right: &impl Row,
    test: &Option<ScalarExpr>,
) -> Result<Option<DerivedTuple>> {
    let values = [left.values(), right.values()].concat();
    let keep = match test {
        Some(test) => test.test(&values)?,
        None => true,
    };
    Ok(keep.then(|| joined(Tuple::new(values), left, right)))
}

/// An equi-join's left key columns.
fn left_key_cols(keys: &[(usize, usize)]) -> Vec<(usize, usize)> {
    keys.iter().map(|&(lc, _)| (lc, lc)).collect()
}

/// An equi-join's right key columns, re-based from the combined schema
/// onto the right rows and held below their `right_arity` where the caller
/// knows it. A right column numbered inside the left input is a malformed
/// plan.
fn right_key_cols(
    keys: &[(usize, usize)],
    left_arity: usize,
    right_arity: Option<usize>,
) -> Result<Vec<(usize, usize)>> {
    keys.iter()
        .map(|&(_, rc)| {
            let position = rc.checked_sub(left_arity);
            position
                .filter(|&c| right_arity.is_none_or(|arity| c < arity))
                .map(|c| (c, rc))
                .ok_or_else(|| key_out_of_range(rc))
        })
        .collect()
}

/// The one equi-join probe loop, over left rows in order: per
/// [`joinable`] left row `matches` hands `emit` the right rows that agree
/// with it on every key, in right-input order — the order a nested loop
/// meets them, first error in row order included. Where the matches come
/// from is the caller's: [`hash_join`]'s per-query build table, or
/// [`index_join`]'s stored index. Yields the number of right rows matched
/// beside the output rows (the pairs that also pass `residual`).
fn probe<L: Row, R: Row>(
    l: &[L],
    lcols: &KeyCols,
    matches: impl Fn(&L, &mut dyn FnMut(&R) -> Result<()>) -> Result<()>,
    residual: &Option<ScalarExpr>,
) -> Result<(usize, Vec<DerivedTuple>)> {
    let mut matched = 0;
    let mut out = Vec::new();
    for lr in l {
        if !joinable(lr.values(), lcols)? {
            continue;
        }
        matches(lr, &mut |rr| {
            matched += 1;
            out.extend(join_pair(lr, rr, residual)?);
            Ok(())
        })?;
    }
    Ok((matched, out))
}

/// Hash join over rows read in place: no row or key is copied to build or
/// to probe, and only matches are cloned, into the output. `keys` pairs a
/// left column with a right column numbered in the combined schema.
fn hash_join<L: Row, R: Row>(
    l: &[L],
    r: &[R],
    keys: &[(usize, usize)],
    left_arity: usize,
    residual: &Option<ScalarExpr>,
) -> Result<Vec<DerivedTuple>> {
    let lcols = left_key_cols(keys);
    let rcols = right_key_cols(keys, left_arity, None)?;
    // The build, in one pass: the joinable rows in row order — the first
    // out-of-range key raises — stable-sorted by key, so the run of any key
    // is its rows in row order (ordered, never a seeded hash map).
    let mut table = Vec::with_capacity(r.len());
    for rr in r {
        if joinable(rr.values(), &rcols)? {
            table.push(rr);
        }
    }
    table.sort_by(|a, b| key_of(a.values(), &rcols).cmp(key_of(b.values(), &rcols)));
    // A left key's matches are its run in the table.
    let matches = |lr: &L, emit: &mut dyn FnMut(&R) -> Result<()>| {
        let lkey = || key_of(lr.values(), &lcols);
        let first = table.partition_point(|rr| key_of(rr.values(), &rcols).lt(lkey()));
        for rr in table.iter().skip(first) {
            if key_of(rr.values(), &rcols).ne(lkey()) {
                break;
            }
            emit(rr)?;
        }
        Ok(())
    };
    Ok(probe(l, &lcols, matches, residual)?.1)
}

/// Index join: [`hash_join`] against a whole stored table, with the
/// table's own equality index for the build. A left key's matches are the
/// index's posting list for the indexed key column — the table's rows
/// with that value, in insertion order, NULLs never among them — narrowed
/// to the rows that agree on every other key pair under the same `Value`
/// order the hash table sorts by. Yields the rows fetched beside the
/// output.
fn index_join<'t, L: Row>(
    l: &[L],
    table: &'t Table,
    column: usize,
    keys: &[(usize, usize)],
    left_arity: usize,
    residual: &Option<ScalarExpr>,
) -> Result<(usize, Vec<DerivedTuple>)> {
    let index = required_index(table, column)?;
    let lcols = left_key_cols(keys);
    let rcols = right_key_cols(keys, left_arity, Some(table.schema().arity()))?;
    // The first pair on the indexed column probes; the others — a second
    // pair on that column among them — are compared per fetched row.
    let mut others: Vec<(usize, usize)> = lcols
        .iter()
        .zip(&rcols)
        .map(|(&(lc, _), &(rc, _))| (lc, rc))
        .collect();
    let probe_at = others.iter().position(|&(_, rc)| rc == column);
    let (probe_col, _) = others.remove(probe_at.ok_or_else(|| {
        AlgebraError::Plan(format!("index join has no key on indexed column {column}"))
    })?);
    let matches = |lr: &L, emit: &mut dyn FnMut(&&'t StoredTuple) -> Result<()>| {
        let lv = lr.values();
        // In range: `probe` hands over only rows `joinable` passed.
        let Some(key) = lv.get(probe_col) else {
            return Ok(());
        };
        for &pos in index.lookup(key) {
            let rr = indexed_row(table, pos)?;
            let rv = rr.tuple.values();
            if others.iter().all(|&(lc, rc)| lv.get(lc) == rv.get(rc)) {
                emit(&rr)?;
            }
        }
        Ok(())
    };
    probe(l, &lcols, matches, residual)
}

/// Nested-loop join over rows read in place; `predicate: None` is the
/// cross product.
fn nested_loop_join<L: Row, R: Row>(
    l: &[L],
    r: &[R],
    predicate: &Option<ScalarExpr>,
) -> Result<Vec<DerivedTuple>> {
    let mut out = Vec::new();
    for lr in l {
        for rr in r {
            out.extend(join_pair(lr, rr, predicate)?);
        }
    }
    Ok(out)
}

/// Group rows read in place by key values, preserving first-seen order,
/// and fold each group. A key that is a plain column stays borrowed from
/// its row until the group is emitted.
fn aggregate<R: Row>(
    rows: &[R],
    group_by: &[ProjItem],
    aggregates: &[AggItem],
) -> Result<Vec<DerivedTuple>> {
    let mut index: BTreeMap<Vec<Cow<Value>>, usize> = BTreeMap::new();
    let mut groups: Vec<(Vec<Cow<Value>>, Vec<usize>)> = Vec::new();
    let mut key = Vec::with_capacity(group_by.len());
    for (i, row) in rows.iter().enumerate() {
        key.clear();
        for g in group_by {
            key.push(g.expr.eval_ref(row.values())?);
        }
        match index.get(key.as_slice()) {
            Some(&gi) => {
                if let Some(group) = groups.get_mut(gi) {
                    group.1.push(i);
                }
            }
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key.clone(), vec![i]));
            }
        }
    }
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, members) in groups {
        let mut values: Vec<Value> = key.into_iter().map(Cow::into_owned).collect();
        for agg in aggregates {
            values.push(eval_aggregate(agg, &members, rows)?);
        }
        let lineage = if members.is_empty() {
            Lineage::certain()
        } else {
            Lineage::or(
                members
                    .iter()
                    .filter_map(|&i| rows.get(i).map(Row::lineage))
                    .collect(),
            )
        };
        out.push(DerivedTuple {
            tuple: Tuple::new(values),
            lineage,
        });
    }
    Ok(out)
}

/// Evaluate one aggregate over a group's member rows, read in place.
fn eval_aggregate<R: Row>(agg: &AggItem, members: &[usize], rows: &[R]) -> Result<Value> {
    // Collect the argument values, skipping NULLs (SQL semantics).
    // COUNT(*) has no argument and counts every row.
    let mut args: Vec<Value> = Vec::with_capacity(members.len());
    if let Some(arg) = &agg.arg {
        for row in members.iter().filter_map(|&i| rows.get(i)) {
            let v = arg.eval(row.values())?;
            if !v.is_null() {
                args.push(v);
            }
        }
    }
    let numeric = |v: &Value| -> Result<f64> {
        v.as_f64().ok_or_else(|| {
            AlgebraError::Type(format!("{} over non-numeric value {v}", agg.func.name()))
        })
    };
    Ok(match agg.func {
        AggFunc::Count => match &agg.arg {
            None => Value::Int(members.len() as i64),
            Some(_) => Value::Int(args.len() as i64),
        },
        AggFunc::Sum => {
            if args.is_empty() {
                Value::Null
            } else if args.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut total = 0i64;
                for v in &args {
                    // The `all ints` guard above makes `as_i64` infallible,
                    // but we still route the impossible case through the
                    // typed error instead of panicking.
                    let n = v
                        .as_i64()
                        .ok_or_else(|| AlgebraError::Type("SUM over non-integer value".into()))?;
                    total = total
                        .checked_add(n)
                        .ok_or_else(|| AlgebraError::Type("SUM overflow".into()))?;
                }
                Value::Int(total)
            } else {
                let mut total = 0.0;
                for v in &args {
                    total += numeric(v)?;
                }
                Value::Real(total)
            }
        }
        AggFunc::Avg => {
            if args.is_empty() {
                Value::Null
            } else {
                let mut total = 0.0;
                for v in &args {
                    total += numeric(v)?;
                }
                Value::Real(total / args.len() as f64)
            }
        }
        AggFunc::Min => args.into_iter().min().unwrap_or(Value::Null),
        AggFunc::Max => args.into_iter().max().unwrap_or(Value::Null),
    })
}

/// One join output row: the concatenated values under the conjunction of
/// both inputs' lineage.
fn joined(tuple: Tuple, left: &impl Row, right: &impl Row) -> DerivedTuple {
    DerivedTuple {
        tuple,
        lineage: Lineage::and(vec![left.lineage(), right.lineage()]),
    }
}

/// Merge rows with identical values, OR-ing their lineage (set semantics).
/// The first occurrence's position is kept, so output order is stable.
fn or_merge(rows: Vec<DerivedTuple>) -> Vec<DerivedTuple> {
    let mut index: BTreeMap<Tuple, usize> = BTreeMap::new();
    let mut grouped: Vec<(Tuple, Vec<Lineage>)> = Vec::new();
    for row in rows {
        match index.get(&row.tuple) {
            Some(&i) => {
                if let Some((_, lineages)) = grouped.get_mut(i) {
                    lineages.push(row.lineage);
                }
            }
            None => {
                index.insert(row.tuple.clone(), grouped.len());
                grouped.push((row.tuple, vec![row.lineage]));
            }
        }
    }
    grouped
        .into_iter()
        .map(|(tuple, lineages)| DerivedTuple {
            lineage: Lineage::or(lineages),
            tuple,
        })
        .collect()
}

/// Sort rows stably by `keys`. Every key of every row is evaluated, in row
/// order, before anything moves, so the first error is the first failing
/// row's.
fn sort_rows(rows: Vec<DerivedTuple>, keys: &[SortKey]) -> Result<Vec<DerivedTuple>> {
    let mut keyed = Vec::with_capacity(rows.len());
    for row in rows {
        let mut values = Vec::with_capacity(keys.len());
        for key in keys {
            values.push(key.expr.eval(row.tuple.values())?);
        }
        keyed.push((values, row));
    }
    keyed.sort_by(|(a, _), (b, _)| {
        let mut by_key = a.iter().zip(b).zip(keys).map(|((x, y), key)| {
            let cmp = x.cmp(y);
            if key.descending {
                cmp.reverse()
            } else {
                cmp
            }
        });
        by_key
            .find(|cmp| cmp.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

/// Execute one node; returns `(rows consumed from direct inputs, output)`
/// where `rows_in` for a scan is the rows read from storage.
fn run_v_node<'c>(
    plan: &PhysicalPlan,
    ctx: &Ctx<'c>,
    depth: usize,
    prof: &mut Profiler,
) -> Result<(usize, VOut<'c>)> {
    let catalog = ctx.catalog;
    let (rows_in, out) = match plan {
        PhysicalPlan::TableScan {
            table, residual, ..
        } => {
            let table = catalog.table(table)?;
            (table.len(), VOut::Stored(scan_table(table, residual)?))
        }
        PhysicalPlan::IndexScan {
            table,
            column,
            key,
            residual,
            ..
        } => {
            let table = catalog.table(table)?;
            let (fetched, rows) = scan_index(table, *column, key, residual)?;
            (fetched, VOut::Stored(rows))
        }
        PhysicalPlan::Filter { input, predicate } => {
            // A filtered selection over storage is still one.
            match run_v(input, ctx, depth + 1, prof)? {
                VOut::Stored(rows) => (rows.len(), VOut::Stored(filter(rows, predicate)?)),
                VOut::Rows(rows) => (rows.len(), VOut::Rows(filter(rows, predicate)?)),
            }
        }
        PhysicalPlan::Project {
            input,
            items,
            distinct,
        } => {
            let input = run_v(input, ctx, depth + 1, prof)?;
            let rows_in = input.row_count();
            let projected = read_rows!(input, rows => project(rows, items)?);
            let rows = if *distinct {
                or_merge(projected)
            } else {
                projected
            };
            (rows_in, VOut::Rows(rows))
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            keys,
            residual,
        } => {
            let left_arity = left.schema(catalog)?.arity();
            let l = run_v(left, ctx, depth + 1, prof)?;
            let r = run_v(right, ctx, depth + 1, prof)?;
            let rows = read_rows!(&l, l => read_rows!(&r, r => {
                hash_join(l, r, keys, left_arity, residual)?
            }));
            (l.row_count() + r.row_count(), VOut::Rows(rows))
        }
        PhysicalPlan::IndexJoin {
            left,
            table,
            column,
            keys,
            residual,
            ..
        } => {
            let left_arity = left.schema(catalog)?.arity();
            let l = run_v(left, ctx, depth + 1, prof)?;
            let table = catalog.table(table)?;
            let (fetched, rows) = read_rows!(&l, l => {
                index_join(l, table, *column, keys, left_arity, residual)?
            });
            (l.row_count() + fetched, VOut::Rows(rows))
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let l = run_v(left, ctx, depth + 1, prof)?;
            let r = run_v(right, ctx, depth + 1, prof)?;
            let rows = read_rows!(&l, l => read_rows!(&r, r => {
                nested_loop_join(l, r, predicate)?
            }));
            (l.row_count() + r.row_count(), VOut::Rows(rows))
        }
        PhysicalPlan::Union { left, right } => {
            // Schema compatibility is checked by PhysicalPlan::schema.
            plan.schema(catalog)?;
            let mut rows = run_v(left, ctx, depth + 1, prof)?.into_rows();
            rows.extend(run_v(right, ctx, depth + 1, prof)?.into_rows());
            (rows.len(), VOut::Rows(or_merge(rows)))
        }
        PhysicalPlan::Difference { left, right } => {
            plan.schema(catalog)?;
            let l = or_merge(run_v(left, ctx, depth + 1, prof)?.into_rows());
            let r = or_merge(run_v(right, ctx, depth + 1, prof)?.into_rows());
            let right_by_value: BTreeMap<&Tuple, &Lineage> =
                r.iter().map(|d| (&d.tuple, &d.lineage)).collect();
            let mut out = Vec::new();
            for row in &l {
                let lineage = match right_by_value.get(&row.tuple) {
                    Some(rl) => {
                        Lineage::and(vec![row.lineage.clone(), Lineage::not((*rl).clone())])
                    }
                    None => row.lineage.clone(),
                };
                if lineage != Lineage::Const(false) {
                    out.push(DerivedTuple {
                        tuple: row.tuple.clone(),
                        lineage,
                    });
                }
            }
            (l.len() + r.len(), VOut::Rows(out))
        }
        PhysicalPlan::Sort { input, keys } => {
            let rows = sort_rows(run_v(input, ctx, depth + 1, prof)?.into_rows(), keys)?;
            (rows.len(), VOut::Rows(rows))
        }
        PhysicalPlan::Limit { input, count } => {
            let mut out = run_v(input, ctx, depth + 1, prof)?;
            let rows_in = out.row_count();
            read_rows!(&mut out, rows => rows.truncate(*count));
            (rows_in, out)
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let input = run_v(input, ctx, depth + 1, prof)?;
            let rows = read_rows!(&input, rows => aggregate(rows, group_by, aggregates)?);
            (input.row_count(), VOut::Rows(rows))
        }
    };
    Ok((rows_in, out))
}
