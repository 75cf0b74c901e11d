//! The reference executor: a sequential, tuple-at-a-time walk of a logical
//! [`Plan`], written apart from the engine's one executor and sharing no
//! operator code with it. It reads only public data types — the plan, the
//! catalog's stored rows, [`ScalarExpr::eval`] for a value and
//! [`Lineage`]'s constructors for a row's lineage — and has its own
//! duplicate merge, sort, group fold and join. The suites hold the
//! vectorized executor to it bit for bit ([`super::check_sql`]): the same
//! rows in the same order with the same lineage, or the same first error.
//!
//! The algebra it implements, operator by operator:
//!
//! * a scan yields the table's rows in storage order, each under its own
//!   variable;
//! * a selection keeps the rows its predicate is true on ([`eval_predicate`]);
//! * a projection evaluates its items per row and, when distinct, merges
//!   equal rows into the first one's position, OR-ing their lineage;
//! * a join pairs each left row, in order, with its matching right rows,
//!   in order, under the conjunction of their lineage. Its algorithm is
//!   fixed by its predicate alone (DESIGN.md §9): with a key pair
//!   ([`key_pair`]) in the top-level `AND` chain it hashes on the key
//!   pairs and tests the other conjuncts only on rows that agree on every
//!   key, a NULL key matching nothing; without one it tests the whole
//!   predicate on every pair. The two differ in which errors are raised;
//! * union concatenates and merges; difference merges both sides and
//!   conjoins a left row with the negation of an equal right row's
//!   lineage, dropping a row whose lineage is `false`;
//! * sort evaluates every key of every row before it moves one, then
//!   sorts stably; limit truncates;
//! * an aggregate groups rows by key in order of first appearance (one
//!   empty group when there is no `GROUP BY` and no row) and folds each
//!   aggregate over its members' non-NULL arguments in row order; a
//!   group's lineage is the OR of its members', or certain when empty.

use pcqe::algebra::plan::{AggFunc, AggItem, SortKey};
use pcqe::algebra::{AlgebraError, BinaryOp, DerivedTuple, Plan, ProjItem, ResultSet, ScalarExpr};
use pcqe::lineage::Lineage;
use pcqe::storage::{Catalog, DataType, Tuple, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

type Result<T> = std::result::Result<T, AlgebraError>;

/// Run `plan` over `catalog`: its schema and rows, or the first error.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<ResultSet> {
    let schema = plan.schema(catalog)?;
    Ok(ResultSet::new(schema, rows(plan, catalog)?))
}

/// `expr` as a condition on `row`: true only where it evaluates to boolean
/// true; NULL is false, and any other value is an error.
pub fn eval_predicate(expr: &ScalarExpr, row: &[Value]) -> Result<bool> {
    match expr.eval(row)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(AlgebraError::Type(format!(
            "predicate evaluated to non-boolean {other}"
        ))),
    }
}

/// The conjuncts of `e`'s top-level `AND` chain, in evaluation order,
/// appended to `out`.
pub fn and_chain<'e>(e: &'e ScalarExpr, out: &mut Vec<&'e ScalarExpr>) {
    match e {
        ScalarExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            and_chain(left, out);
            and_chain(right, out);
        }
        conjunct => out.push(conjunct),
    }
}

/// The join rule's key pair: `e` as `(left column, right column)` when it
/// is `a = b` over a column below `left_arity` and one at or above it,
/// both of one type whose values `=` compares exactly (`INT`, `TEXT` or
/// `BOOL`). `types` are the joined row's column types.
pub fn key_pair(e: &ScalarExpr, types: &[DataType], left_arity: usize) -> Option<(usize, usize)> {
    let ScalarExpr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) else {
        return None;
    };
    let (l, r) = (*a.min(b), *a.max(b));
    let exact = matches!(
        types.get(l),
        Some(DataType::Int | DataType::Text | DataType::Bool)
    );
    (l < left_arity && r >= left_arity && exact && types.get(l) == types.get(r)).then_some((l, r))
}

fn rows(plan: &Plan, catalog: &Catalog) -> Result<Vec<DerivedTuple>> {
    Ok(match plan {
        Plan::Scan { table, .. } => catalog
            .table(table)?
            .rows()
            .iter()
            .map(|stored| DerivedTuple {
                tuple: stored.tuple.clone(),
                lineage: Lineage::var(stored.id.0),
            })
            .collect(),
        Plan::Select { input, predicate } => {
            let mut kept = Vec::new();
            for row in rows(input, catalog)? {
                if eval_predicate(predicate, row.tuple.values())? {
                    kept.push(row);
                }
            }
            kept
        }
        Plan::Project {
            input,
            items,
            distinct,
        } => {
            let mut projected = Vec::new();
            for row in rows(input, catalog)? {
                projected.push(DerivedTuple {
                    tuple: Tuple::new(evaluate(items, row.tuple.values())?),
                    lineage: row.lineage,
                });
            }
            if *distinct {
                merge_duplicates(projected)
            } else {
                projected
            }
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let (left_schema, right_schema) = (left.schema(catalog)?, right.schema(catalog)?);
            let types: Vec<DataType> = [left_schema.columns(), right_schema.columns()]
                .concat()
                .iter()
                .map(|c| c.data_type)
                .collect();
            let (l, r) = (rows(left, catalog)?, rows(right, catalog)?);
            join(&l, &r, predicate, &types, left_schema.arity())?
        }
        Plan::Product { left, right } => {
            let (l, r) = (rows(left, catalog)?, rows(right, catalog)?);
            let mut pairs = Vec::with_capacity(l.len() * r.len());
            for lr in &l {
                pairs.extend(r.iter().map(|rr| pair(lr, rr)));
            }
            pairs
        }
        Plan::Union { left, right } => {
            let mut all = rows(left, catalog)?;
            all.extend(rows(right, catalog)?);
            merge_duplicates(all)
        }
        Plan::Difference { left, right } => {
            let l = merge_duplicates(rows(left, catalog)?);
            let r = merge_duplicates(rows(right, catalog)?);
            let right_lineage: BTreeMap<&Tuple, &Lineage> =
                r.iter().map(|row| (&row.tuple, &row.lineage)).collect();
            let mut out = Vec::new();
            for DerivedTuple { tuple, lineage } in l {
                let lineage = match right_lineage.get(&tuple) {
                    Some(&rl) => Lineage::and(vec![lineage, Lineage::not(rl.clone())]),
                    None => lineage,
                };
                if lineage != Lineage::Const(false) {
                    out.push(DerivedTuple { tuple, lineage });
                }
            }
            out
        }
        Plan::Sort { input, keys } => sort(rows(input, catalog)?, keys)?,
        Plan::Limit { input, count } => {
            let mut limited = rows(input, catalog)?;
            limited.truncate(*count);
            limited
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => group(rows(input, catalog)?, group_by, aggregates)?,
    })
}

/// Each item evaluated on `row`, in order.
fn evaluate(items: &[ProjItem], row: &[Value]) -> Result<Vec<Value>> {
    items.iter().map(|item| item.expr.eval(row)).collect()
}

/// A join's output row for `left` and `right`.
fn pair(left: &DerivedTuple, right: &DerivedTuple) -> DerivedTuple {
    DerivedTuple {
        tuple: left.tuple.concat(&right.tuple),
        lineage: Lineage::and(vec![left.lineage.clone(), right.lineage.clone()]),
    }
}

/// Set semantics: one row per distinct tuple, where it first appeared,
/// under the OR of the merged rows' lineage in input order.
fn merge_duplicates(rows: Vec<DerivedTuple>) -> Vec<DerivedTuple> {
    let mut slots: BTreeMap<Tuple, usize> = BTreeMap::new();
    let mut merged: Vec<(Tuple, Vec<Lineage>)> = Vec::new();
    for DerivedTuple { tuple, lineage } in rows {
        let next = merged.len();
        let slot = *slots.entry(tuple.clone()).or_insert(next);
        if slot == next {
            merged.push((tuple, Vec::new()));
        }
        merged[slot].1.push(lineage);
    }
    merged
        .into_iter()
        .map(|(tuple, lineages)| DerivedTuple {
            tuple,
            lineage: Lineage::or(lineages),
        })
        .collect()
}

/// The join of `l` and `r` under `predicate` (see the module docs).
fn join(
    l: &[DerivedTuple],
    r: &[DerivedTuple],
    predicate: &ScalarExpr,
    types: &[DataType],
    left_arity: usize,
) -> Result<Vec<DerivedTuple>> {
    let mut conjuncts = Vec::new();
    and_chain(predicate, &mut conjuncts);
    let mut keys = Vec::new();
    let mut residual: Option<ScalarExpr> = None;
    for conjunct in conjuncts {
        match key_pair(conjunct, types, left_arity) {
            Some(key) => keys.push(key),
            None => {
                let conjunct = conjunct.clone();
                residual = Some(match residual {
                    Some(before) => before.and(conjunct),
                    None => conjunct,
                });
            }
        }
    }
    let mut out = Vec::new();
    if keys.is_empty() {
        for lr in l {
            for rr in r {
                let joined = pair(lr, rr);
                if eval_predicate(predicate, joined.tuple.values())? {
                    out.push(joined);
                }
            }
        }
        return Ok(out);
    }
    let left_columns: Vec<usize> = keys.iter().map(|&(lc, _)| lc).collect();
    let right_columns: Vec<usize> = keys.iter().map(|&(_, rc)| rc - left_arity).collect();
    let mut build: BTreeMap<Vec<&Value>, Vec<&DerivedTuple>> = BTreeMap::new();
    for rr in r {
        if let Some(key) = key_of(rr, &right_columns) {
            build.entry(key).or_default().push(rr);
        }
    }
    for lr in l {
        let Some(matches) = key_of(lr, &left_columns).and_then(|key| build.get(&key)) else {
            continue;
        };
        for rr in matches {
            let joined = pair(lr, rr);
            let keep = match &residual {
                Some(test) => eval_predicate(test, joined.tuple.values())?,
                None => true,
            };
            if keep {
                out.push(joined);
            }
        }
    }
    Ok(out)
}

/// `row`'s values in `columns`; none when one is NULL, which joins nothing.
fn key_of<'r>(row: &'r DerivedTuple, columns: &[usize]) -> Option<Vec<&'r Value>> {
    let value = |&c: &usize| Some(&row.tuple.values()[c]).filter(|v| !v.is_null());
    columns.iter().map(value).collect()
}

/// `rows` ordered by `keys`, ties kept in input order.
fn sort(rows: Vec<DerivedTuple>, keys: &[SortKey]) -> Result<Vec<DerivedTuple>> {
    let mut keyed = Vec::with_capacity(rows.len());
    for row in rows {
        let values: Vec<Value> = keys
            .iter()
            .map(|key| key.expr.eval(row.tuple.values()))
            .collect::<Result<_>>()?;
        keyed.push((values, row));
    }
    keyed.sort_by(|(a, _), (b, _)| {
        for ((x, y), key) in a.iter().zip(b).zip(keys) {
            let order = if key.descending { y.cmp(x) } else { x.cmp(y) };
            if order != Ordering::Equal {
                return order;
            }
        }
        Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

/// `GROUP BY group_by` with `aggregates` over `rows` (see the module docs).
fn group(
    rows: Vec<DerivedTuple>,
    group_by: &[ProjItem],
    aggregates: &[AggItem],
) -> Result<Vec<DerivedTuple>> {
    let mut slots: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<&DerivedTuple>)> = Vec::new();
    for row in &rows {
        let key = evaluate(group_by, row.tuple.values())?;
        let next = groups.len();
        let slot = *slots.entry(key.clone()).or_insert(next);
        if slot == next {
            groups.push((key, Vec::new()));
        }
        groups[slot].1.push(row);
    }
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let mut out = Vec::with_capacity(groups.len());
    for (mut values, members) in groups {
        for agg in aggregates {
            values.push(fold(agg, &members)?);
        }
        let lineage = if members.is_empty() {
            Lineage::certain()
        } else {
            Lineage::or(members.iter().map(|m| m.lineage.clone()).collect())
        };
        out.push(DerivedTuple {
            tuple: Tuple::new(values),
            lineage,
        });
    }
    Ok(out)
}

/// One aggregate over a group's members. `COUNT(*)` counts them; every
/// other aggregate reads its argument's non-NULL values in row order. An
/// all-`INT` `SUM` is exact and may overflow; any other `SUM` or `AVG`
/// adds reals left to right from 0.
fn fold(agg: &AggItem, members: &[&DerivedTuple]) -> Result<Value> {
    // Only `COUNT(*)` has no argument: `Plan::schema` refuses the others.
    let Some(arg) = &agg.arg else {
        return Ok(Value::Int(members.len() as i64));
    };
    let mut values = Vec::new();
    for member in members {
        let value = arg.eval(member.tuple.values())?;
        if !value.is_null() {
            values.push(value);
        }
    }
    let reals = |values: &[Value]| -> Result<f64> {
        let mut total = 0.0;
        for v in values {
            total += v.as_f64().ok_or_else(|| {
                AlgebraError::Type(format!("{} over non-numeric value {v}", agg.func.name()))
            })?;
        }
        Ok(total)
    };
    let integers: Option<Vec<i64>> = values
        .iter()
        .map(|v| match v {
            Value::Int(n) => Some(*n),
            _ => None,
        })
        .collect();
    Ok(match agg.func {
        AggFunc::Count => Value::Int(values.len() as i64),
        _ if values.is_empty() => Value::Null,
        AggFunc::Sum => match integers {
            Some(integers) => {
                let overflow = || AlgebraError::Type("SUM overflow".into());
                let total = integers
                    .into_iter()
                    .try_fold(0i64, |total, n| total.checked_add(n).ok_or_else(overflow))?;
                Value::Int(total)
            }
            None => Value::Real(reals(&values)?),
        },
        AggFunc::Avg => Value::Real(reals(&values)? / values.len() as f64),
        AggFunc::Min => values.into_iter().min().unwrap_or(Value::Null),
        AggFunc::Max => values.into_iter().max().unwrap_or(Value::Null),
    })
}
