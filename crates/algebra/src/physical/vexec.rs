//! Vectorized, morsel-driven physical plan execution — the engine's one
//! production executor.
//!
//! Work is dispatched as whole morsels across `pcqe-par` workers via
//! [`pcqe_par::morsel::map_morsels`], with a deterministic in-order
//! merge, and rows are **borrowed until an operator must own them**: a
//! scan emits, per morsel, references to the stored rows that survive its
//! residual ([`VOut::Stored`], a selection over storage); operators that
//! only read their input — filter, projection, join build and probe,
//! aggregate grouping and folding — read either those or derived tuples
//! in place through [`Row`] (a values slice and a lineage); and a value
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
//! **bit-identical** to the sequential reference walker
//! [`crate::execute`]`(&q, c)` — same rows, same order, same lineage
//! expressions, and the same first error on failing inputs — at any
//! thread count. Three rules enforce it:
//!
//! 1. **Expressions evaluate row-wise, in row order — on every row that
//!    is not skipped, and a row is skipped only if the whole predicate
//!    returns `Ok(false)` on it without raising.** Morsels change *who*
//!    evaluates a row, never the order errors are reported in: the first
//!    error surfaced is the first failing row's. Predicates are compiled
//!    once per operator ([`ScalarExpr::compile`]) into a program held,
//!    result for result and error for error, to the tree walk
//!    [`ScalarExpr::eval_predicate`] the reference runs; projections,
//!    group keys and aggregate arguments run that walk itself. Column-wise
//!    evaluation of a whole predicate could reorder which error wins, so
//!    there is none; what a scan consults without evaluating the predicate
//!    — a column image, an equality index — answers for a conjunct of the
//!    residual's [`LeadingRun`](crate::expr::LeadingRun), the prefix of
//!    its `AND` chain that cannot fault, and only to *skip*: `AND` stops
//!    on a definite left `false` and only then, so a definite `false`
//!    inside that prefix is the whole predicate's `Ok(false)`, and a
//!    skipped row can neither survive nor raise. Every other row — one the
//!    source cannot call definitely false: a NULL or widened `Int` under
//!    an image, a NULL key under an index — is decided by the whole
//!    compiled predicate.
//! 2. **Pipeline breakers reuse the row-native helpers.** Sort, Union,
//!    Difference and distinct-merge own their rows and run literally the
//!    same `or_merge`/`sort_rows` code as the reference; aggregates and
//!    joins share `eval_aggregate`/`eval_items`/`joined`, generic over
//!    [`Row`].
//! 3. **Partitioned hash state stays ordered.** The hash-join build side
//!    is hash-partitioned by [`pcqe_storage::partition`]'s deterministic
//!    FNV-1a (partition count capped by the build table's NDV when the
//!    catalog knows it); each partition is the run of its build-row
//!    indexes stable-sorted by key — keys are compared where they lie,
//!    never copied — so the rows of one key come in ascending row
//!    order: the match list of the single ordered map the reference
//!    builds. An index join skips the build: its build side is a whole
//!    stored table whose equality index already is that structure — per
//!    key, the rows that hold it in insertion order, NULLs left out — so
//!    both joins run one probe loop and differ only in where a left
//!    key's matches come from.
//!
//! All observer and trace emission happens post-batch on the calling
//! thread (the morsel dispatcher reports once, after its scope joins),
//! never inside worker closures, so traces stay deterministic in
//! structure.

use crate::error::AlgebraError;
use crate::exec::{
    eval_aggregate, eval_items, joined, or_merge, sort_rows, Ctx, ExecProfile, Profiler,
};
use crate::expr::{Predicate, ScalarExpr};
use crate::physical::plan::PhysicalPlan;
use crate::plan::{AggItem, ProjItem};
use crate::result::{DerivedTuple, ResultSet, Row};
use crate::Result;
use pcqe_lineage::Lineage;
use pcqe_par::morsel::{map_morsels, try_map_morsels};
use pcqe_par::{ParObserver, Parallelism, TraceSink};
use pcqe_storage::{
    morsel_rows, partition_count, partition_of, Catalog, EqualityIndex, StoredTuple, Table, Tuple,
    Value,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

/// Execute a physical plan under a parallelism policy. Output is
/// byte-identical for any policy.
pub fn execute_vectorized_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    par: &Parallelism,
) -> Result<ResultSet> {
    run_root(plan, catalog, par, None, None, Profiler::off()).map(|(result_set, _)| result_set)
}

/// [`execute_vectorized_with`], additionally collecting a per-operator
/// [`ExecProfile`] and optionally feeding a [`ParObserver`].
pub fn execute_vectorized_profiled(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    par: &Parallelism,
    observer: Option<&dyn ParObserver>,
) -> Result<(ResultSet, ExecProfile)> {
    execute_vectorized_traced(plan, catalog, par, observer, None)
}

/// [`execute_vectorized_profiled`] with an optional causal
/// [`TraceSink`]: operators wrap execution in `op:<label>` spans nested
/// to mirror the plan tree, and morsel batches surface as the
/// `par.batch`/`par.lane` instants via the observer. Both sinks are
/// write-only — the result set is byte-identical with or without them.
pub fn execute_vectorized_traced(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    par: &Parallelism,
    observer: Option<&dyn ParObserver>,
    trace: Option<&dyn TraceSink>,
) -> Result<(ResultSet, ExecProfile)> {
    run_root(plan, catalog, par, observer, trace, Profiler::on())
}

fn run_root(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    par: &Parallelism,
    observer: Option<&dyn ParObserver>,
    trace: Option<&dyn TraceSink>,
    mut prof: Profiler,
) -> Result<(ResultSet, ExecProfile)> {
    let schema = plan.schema(catalog)?;
    let ctx = Ctx {
        catalog,
        par,
        observer,
        trace,
    };
    let out = run_v(plan, &ctx, 0, &mut prof)?;
    Ok((ResultSet::new(schema, out.into_rows()), prof.finish()))
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
    let slot = prof.enter(depth, || plan.node_label());
    let span = ctx
        .trace
        .map(|t| t.span_begin(&format!("op:{}", plan.node_label())));
    let (rows_in, batches, out) = run_v_node(plan, ctx, depth, prof)?;
    if let (Some(t), Some(id)) = (ctx.trace, span) {
        t.span_end(id);
    }
    prof.exit_counts(
        slot,
        rows_in,
        out.row_count(),
        || out.lineage_nodes(),
        batches,
    );
    Ok(out)
}

/// The morsels of `n` rows, as row ranges.
fn morsels(n: usize) -> impl Iterator<Item = Range<usize>> {
    let step = morsel_rows(n);
    (0..n)
        .step_by(step)
        .map(move |start| start..n.min(start + step))
}

/// The morsel-parallel half of a scan: `units` are its morsels, each
/// naming (through `candidates`) the stored rows of it that the residual
/// has yet to decide; the dispatch weighs them by how many those are. The
/// whole compiled residual tests each candidate in place, row-wise in row
/// order, and a morsel returns references to its survivors. Yields the
/// number of morsels that had any, and the survivors in storage order.
fn scan<'c, I: Iterator<Item = &'c StoredTuple>>(
    units: &[Range<usize>],
    candidates: impl Fn(Range<usize>) -> I + Sync,
    residual: &Option<ScalarExpr>,
    ctx: &Ctx<'_>,
) -> Result<(u64, Vec<&'c StoredTuple>)> {
    let residual = residual.as_ref().map(ScalarExpr::compile);
    let morsels = try_map_morsels(
        ctx.par,
        units,
        units.iter().map(Range::len).sum(),
        |_, unit| -> Result<Vec<&'c StoredTuple>> {
            let Some(test) = &residual else {
                return Ok(candidates(unit.clone()).collect());
            };
            let mut survivors = Vec::new();
            for r in candidates(unit.clone()) {
                if test.test(r.tuple.values())? {
                    survivors.push(r);
                }
            }
            Ok(survivors)
        },
        ctx.observer,
    )?;
    let batches = morsels.iter().filter(|m| !m.is_empty()).count() as u64;
    let mut survivors = Vec::with_capacity(morsels.iter().map(Vec::len).sum());
    survivors.extend(morsels.into_iter().flatten());
    Ok((batches, survivors))
}

/// [`scan`] over what a skip source left of `stored`: the rows at
/// `positions` (ascending) are the candidates, cut into morsels by `units`
/// (ranges of `positions`). The one call both scans end in — they differ
/// in where the candidates come from, never in what is done with one.
fn scan_candidates<'c>(
    stored: &'c [StoredTuple],
    positions: &[usize],
    units: &[Range<usize>],
    residual: &Option<ScalarExpr>,
    ctx: &Ctx<'_>,
) -> Result<(u64, Vec<&'c StoredTuple>)> {
    let candidates = |unit: Range<usize>| {
        let unit = positions.get(unit).unwrap_or_default();
        unit.iter().filter_map(|&p| stored.get(p))
    };
    scan(units, candidates, residual, ctx)
}

/// Scan a table, its column images the skip source: first a pass over
/// them, on the calling thread, drops the rows the residual's
/// [`LeadingRun`] proves it rejects (it costs under a nanosecond a row, a
/// spawned lane tens of microseconds); then [`scan`] decides the
/// candidates left in each morsel. A residual whose leading run reads no
/// imaged column, or none, leaves every row.
///
/// [`LeadingRun`]: crate::expr::LeadingRun
fn scan_table<'c>(
    table: &'c Table,
    residual: &Option<ScalarExpr>,
    ctx: &Ctx<'_>,
) -> Result<(u64, Vec<&'c StoredTuple>)> {
    let stored = table.rows();
    let run = residual.as_ref().map(|r| r.leading_run(table));
    let Some(positions) = run.and_then(|run| run.candidates()) else {
        let units: Vec<Range<usize>> = morsels(stored.len()).collect();
        let every_row = |unit: Range<usize>| stored.get(unit).unwrap_or_default().iter();
        return scan(&units, every_row, residual, ctx);
    };
    // Morsel boundaries are the row store's, whatever the pass left.
    let mut from = 0;
    let units: Vec<Range<usize>> = morsels(stored.len())
        .map(|rows| {
            let unit = from..positions.partition_point(|&p| p < rows.end);
            from = unit.end;
            unit
        })
        .collect();
    scan_candidates(stored, &positions, &units, residual, ctx)
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
    ctx: &Ctx<'_>,
) -> Result<(usize, u64, Vec<&'c StoredTuple>)> {
    let index = required_index(table, column)?;
    let mut positions = Cow::Borrowed(index.lookup(key));
    if residual.is_some() && !index.null_rows().is_empty() {
        positions.to_mut().extend(index.null_rows());
        positions.to_mut().sort_unstable();
    }
    for &pos in positions.iter() {
        indexed_row(table, pos)?;
    }
    let units: Vec<Range<usize>> = morsels(positions.len()).collect();
    let (batches, rows) = scan_candidates(table.rows(), &positions, &units, residual, ctx)?;
    Ok((positions.len(), batches, rows))
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
fn filter<R: Row>(rows: Vec<R>, predicate: &ScalarExpr, ctx: &Ctx<'_>) -> Result<Vec<R>> {
    let test = predicate.compile();
    let keep =
        pcqe_par::try_map_observed(ctx.par, &rows, |row| test.test(row.values()), ctx.observer)?;
    Ok(rows
        .into_iter()
        .zip(keep)
        .filter_map(|(row, k)| k.then_some(row))
        .collect())
}

/// Compute the output columns from rows read in place; lineage moves across.
fn project<R: Row>(rows: Vec<R>, items: &[ProjItem], ctx: &Ctx<'_>) -> Result<Vec<DerivedTuple>> {
    let values = pcqe_par::try_map_observed(
        ctx.par,
        &rows,
        |row| eval_items(items, row.values()),
        ctx.observer,
    )?;
    Ok(rows
        .into_iter()
        .zip(values)
        .map(|(row, values)| DerivedTuple {
            tuple: Tuple::new(values),
            lineage: row.into_lineage(),
        })
        .collect())
}

/// One side's key columns: each column's position in that side's rows,
/// with its number in the plan (for the error).
type KeyCols = [(usize, usize)];

/// Whether a row can equi-join: every key column in range (else the typed
/// error, as the reference's build and probe loops raise it) and none NULL.
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
    test: &Option<Predicate<'_>>,
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

/// The one equi-join probe loop: morsel-parallel over left rows, and per
/// [`joinable`] left row `matches` hands `emit` the right rows that agree
/// with it on every key, in right-input order — so per-left match lists
/// flattened in input order reproduce the reference's sequential loop,
/// first error in row order included. Where the matches come from is the
/// caller's: [`hash_join`]'s per-query partition tables, or
/// [`index_join`]'s stored index. Yields the number of right rows matched
/// beside the output rows (the pairs that also pass `residual`).
fn probe<L: Row, R: Row>(
    l: &[L],
    lcols: &KeyCols,
    matches: impl Fn(&L, &mut dyn FnMut(&R) -> Result<()>) -> Result<()> + Sync,
    residual: &Option<ScalarExpr>,
    ctx: &Ctx<'_>,
) -> Result<(usize, Vec<DerivedTuple>)> {
    let residual = residual.as_ref().map(ScalarExpr::compile);
    let units: Vec<&[L]> = l.chunks(morsel_rows(l.len())).collect();
    let per_chunk = try_map_morsels(
        ctx.par,
        &units,
        l.len(),
        |_, chunk| -> Result<(usize, Vec<DerivedTuple>)> {
            let mut matched = 0;
            let mut out = Vec::new();
            for lr in *chunk {
                if !joinable(lr.values(), lcols)? {
                    continue;
                }
                matches(lr, &mut |rr| {
                    matched += 1;
                    out.extend(join_pair(lr, rr, &residual)?);
                    Ok(())
                })?;
            }
            Ok((matched, out))
        },
        ctx.observer,
    )?;
    let matched = per_chunk.iter().map(|(matched, _)| matched).sum();
    let rows = per_chunk.into_iter().flat_map(|(_, rows)| rows).collect();
    Ok((matched, rows))
}

/// Hash join over rows read in place: no row or key is copied to build or
/// to probe, and only matches are cloned, into the output. `keys` pairs a
/// left column with a right column numbered in the combined schema.
fn hash_join<L: Row, R: Row>(
    l: &[L],
    r: &[R],
    keys: &[(usize, usize)],
    left_arity: usize,
    parts: usize,
    residual: &Option<ScalarExpr>,
    ctx: &Ctx<'_>,
) -> Result<Vec<DerivedTuple>> {
    let lcols = left_key_cols(keys);
    let rcols = right_key_cols(keys, left_arity, None)?;
    let rkey = |i: usize| {
        r.get(i)
            .into_iter()
            .flat_map(|row| key_of(row.values(), &rcols))
    };
    // Tag every build row with its partition (`None`: a NULL key),
    // morsel-parallel with first-error-in-row-order — the same error the
    // reference's sequential build loop reports. A partition id fits a
    // byte: `partition_count` stops at `MAX_PARTITIONS`.
    let tags: Vec<Option<u8>> = pcqe_par::try_map_observed(
        ctx.par,
        r,
        |rr| -> Result<Option<u8>> {
            let values = rr.values();
            if !joinable(values, &rcols)? {
                return Ok(None);
            }
            u8::try_from(partition_of(key_of(values, &rcols), parts))
                .map(Some)
                .map_err(|_| AlgebraError::Plan(format!("{parts} join partitions exceed a byte")))
        },
        ctx.observer,
    )?;
    // Build the partitions in parallel: each takes its own rows' indexes
    // in ascending order and stable-sorts them by key, so the run of any
    // key is identical to the match list of the single ordered map the
    // reference builds (PCQE-D001: ordered, never a seeded hash map).
    let part_ids: Vec<usize> = (0..parts).collect();
    let tables: Vec<Vec<usize>> = map_morsels(
        ctx.par,
        &part_ids,
        r.len(),
        |_, &p| {
            let mut table: Vec<usize> = tags
                .iter()
                .enumerate()
                .filter_map(|(i, tag)| (tag.map(usize::from) == Some(p)).then_some(i))
                .collect();
            table.sort_by(|&a, &b| rkey(a).cmp(rkey(b)));
            table
        },
        ctx.observer,
    );
    // A left key's matches are its run in its partition's table.
    let matches = |lr: &L, emit: &mut dyn FnMut(&R) -> Result<()>| {
        let lkey = || key_of(lr.values(), &lcols);
        let Some(table) = tables.get(partition_of(lkey(), parts)) else {
            return Ok(());
        };
        let first = table.partition_point(|&ri| rkey(ri).lt(lkey()));
        for &ri in table.iter().skip(first) {
            if rkey(ri).ne(lkey()) {
                break;
            }
            emit(
                r.get(ri)
                    .ok_or_else(|| AlgebraError::Plan("hash table entry out of range".into()))?,
            )?;
        }
        Ok(())
    };
    Ok(probe(l, &lcols, matches, residual, ctx)?.1)
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
    ctx: &Ctx<'_>,
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
    probe(l, &lcols, matches, residual, ctx)
}

/// Nested-loop join over rows read in place; `predicate: None` is the
/// cross product. Morsel-parallel over left rows.
fn nested_loop_join<L: Row, R: Row>(
    l: &[L],
    r: &[R],
    predicate: &Option<ScalarExpr>,
    ctx: &Ctx<'_>,
) -> Result<Vec<DerivedTuple>> {
    let predicate = predicate.as_ref().map(ScalarExpr::compile);
    let per_left = pcqe_par::try_map_observed(
        ctx.par,
        l,
        |lr| -> Result<Vec<DerivedTuple>> {
            let mut matches = Vec::new();
            for rr in r {
                matches.extend(join_pair(lr, rr, &predicate)?);
            }
            Ok(matches)
        },
        ctx.observer,
    )?;
    Ok(per_left.into_iter().flatten().collect())
}

/// Group rows read in place by key values, preserving first-seen order,
/// and fold each group — the reference walker's Aggregate, except that a
/// key that is a plain column stays borrowed from its row until the group
/// is emitted.
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

/// Single-key NDV of the hash-join build side, when the catalog knows
/// it: a base-table scan with table statistics for the key column, or an
/// index scan pinned to one key value. Used to cap the partition count —
/// with `d` distinct keys, more than `d` partitions cannot help.
fn build_side_ndv(
    right: &PhysicalPlan,
    keys: &[(usize, usize)],
    left_arity: usize,
    catalog: &Catalog,
) -> Option<usize> {
    if keys.len() != 1 {
        return None;
    }
    let rc = keys.first()?.1.checked_sub(left_arity)?;
    match right {
        PhysicalPlan::TableScan { table, .. } => {
            // A residual can only shrink the distinct-key set, so the
            // base table's NDV stays a valid upper bound.
            catalog.table(table).ok()?.stats().distinct_keys(rc)
        }
        PhysicalPlan::IndexScan { column, .. } if *column == rc => Some(1),
        _ => None,
    }
}

/// Execute one node; returns `(rows consumed from direct inputs, morsels
/// of stored rows emitted, output)` where `rows_in` for a scan is the rows
/// read from storage.
fn run_v_node<'c>(
    plan: &PhysicalPlan,
    ctx: &Ctx<'c>,
    depth: usize,
    prof: &mut Profiler,
) -> Result<(usize, u64, VOut<'c>)> {
    let catalog = ctx.catalog;
    let (rows_in, out) = match plan {
        PhysicalPlan::TableScan {
            table, residual, ..
        } => {
            let table = catalog.table(table)?;
            let (batches, rows) = scan_table(table, residual, ctx)?;
            return Ok((table.len(), batches, VOut::Stored(rows)));
        }
        PhysicalPlan::IndexScan {
            table,
            column,
            key,
            residual,
            ..
        } => {
            let table = catalog.table(table)?;
            let (fetched, batches, rows) = scan_index(table, *column, key, residual, ctx)?;
            return Ok((fetched, batches, VOut::Stored(rows)));
        }
        PhysicalPlan::Filter { input, predicate } => {
            // A filtered selection over storage is still one.
            match run_v(input, ctx, depth + 1, prof)? {
                VOut::Stored(rows) => (rows.len(), VOut::Stored(filter(rows, predicate, ctx)?)),
                VOut::Rows(rows) => (rows.len(), VOut::Rows(filter(rows, predicate, ctx)?)),
            }
        }
        PhysicalPlan::Project {
            input,
            items,
            distinct,
        } => {
            let input = run_v(input, ctx, depth + 1, prof)?;
            let rows_in = input.row_count();
            let projected = read_rows!(input, rows => project(rows, items, ctx)?);
            // Duplicate merging is a pipeline breaker: reuse the
            // reference walker's or_merge verbatim.
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
            let parts = partition_count(
                r.row_count(),
                build_side_ndv(right, keys, left_arity, catalog),
            );
            let rows = read_rows!(&l, l => read_rows!(&r, r => {
                hash_join(l, r, keys, left_arity, parts, residual, ctx)?
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
                index_join(l, table, *column, keys, left_arity, residual, ctx)?
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
                nested_loop_join(l, r, predicate, ctx)?
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
            let mut rows = run_v(input, ctx, depth + 1, prof)?.into_rows();
            sort_rows(&mut rows, keys)?;
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
    Ok((rows_in, 0, out))
}
