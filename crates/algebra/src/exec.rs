//! The logical reference executor, plus the row-native helpers and
//! profile types the vectorized executor shares with it.

use crate::expr::ScalarExpr;
use crate::plan::{Plan, ProjItem};
use crate::result::{DerivedTuple, ResultSet, Row};
use crate::Result;
use pcqe_lineage::Lineage;
use pcqe_par::{ParObserver, Parallelism, TraceSink};
use pcqe_storage::{Catalog, Tuple, Value};
use std::collections::BTreeMap;

/// Per-operator counters from a profiled execution (`EXPLAIN ANALYZE`).
///
/// `operator` is exactly [`crate::physical::PhysicalPlan::node_label`],
/// and profiles are collected in the same pre-order as the physical
/// plan's `Display` rendering — one entry per plan line, so annotated
/// output can zip the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProfile {
    /// The operator's one-line label (`"TableScan Proposal"`, `"HashJoin"`, …).
    pub operator: String,
    /// Depth in the plan tree (root = 0); matches `Display` indentation.
    pub depth: usize,
    /// Rows consumed from this operator's direct inputs (for `Scan`, the
    /// rows read from storage).
    pub rows_in: u64,
    /// Rows produced (after any duplicate merging).
    pub rows_out: u64,
    /// Total lineage-expression nodes across the produced rows — the
    /// quantity that drives downstream confidence-evaluation cost.
    pub lineage_nodes: u64,
    /// Morsels of stored rows a scan emitted (those with a survivor);
    /// 0 for every other operator.
    pub batches: u64,
}

/// The profile of one executed plan: operators in pre-order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// One entry per plan node, pre-order (= `Display` line order).
    pub operators: Vec<OperatorProfile>,
}

impl ExecProfile {
    /// Render the plan with per-operator row counts appended to each line:
    /// the `EXPLAIN ANALYZE` text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for op in &self.operators {
            let _ = write!(
                out,
                "{}{} (rows_in={} rows_out={} lineage_nodes={}",
                "  ".repeat(op.depth),
                op.operator,
                op.rows_in,
                op.rows_out,
                op.lineage_nodes
            );
            if op.batches > 0 {
                let _ = write!(out, " batches={}", op.batches);
            }
            let _ = writeln!(out, ")");
        }
        out
    }
}

/// Pre-order profile collector for the vectorized executor
/// ([`crate::physical::vexec`], labels from
/// [`crate::physical::PhysicalPlan::node_label`]); a disabled profiler is
/// a no-op.
pub(crate) struct Profiler {
    slots: Option<Vec<OperatorProfile>>,
}

impl Profiler {
    pub(crate) fn off() -> Profiler {
        Profiler { slots: None }
    }

    pub(crate) fn on() -> Profiler {
        Profiler {
            slots: Some(Vec::new()),
        }
    }

    /// Reserve this node's slot *before* its children run, so slot order
    /// is pre-order regardless of execution order. The label closure is
    /// only invoked when profiling is enabled, keeping the unprofiled hot
    /// path allocation-free.
    pub(crate) fn enter(&mut self, depth: usize, label: impl FnOnce() -> String) -> usize {
        match &mut self.slots {
            None => 0,
            Some(v) => {
                v.push(OperatorProfile {
                    operator: label(),
                    depth,
                    rows_in: 0,
                    rows_out: 0,
                    lineage_nodes: 0,
                    batches: 0,
                });
                v.len() - 1
            }
        }
    }

    /// Fill the reserved slot once the operator's output exists (which
    /// may still be borrowed from storage, hence counters rather than
    /// rows). `lineage_nodes` walks the output, so it only runs when
    /// profiling is enabled.
    pub(crate) fn exit_counts(
        &mut self,
        slot: usize,
        rows_in: usize,
        rows_out: usize,
        lineage_nodes: impl FnOnce() -> u64,
        batches: u64,
    ) {
        if let Some(v) = &mut self.slots {
            if let Some(p) = v.get_mut(slot) {
                p.rows_in = rows_in as u64;
                p.rows_out = rows_out as u64;
                p.lineage_nodes = lineage_nodes();
                p.batches = batches;
            }
        }
    }

    pub(crate) fn finish(self) -> ExecProfile {
        ExecProfile {
            operators: self.slots.unwrap_or_default(),
        }
    }
}

/// Everything a vectorized operator needs besides the plan node itself.
pub(crate) struct Ctx<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) par: &'a Parallelism,
    pub(crate) observer: Option<&'a dyn ParObserver>,
    /// Optional causal trace sink: when set, each operator wraps its
    /// execution in an `op:<label>` span. Write-only — results are
    /// byte-identical with or without a sink.
    pub(crate) trace: Option<&'a dyn TraceSink>,
}

/// Execute a logical plan against a catalog, producing derived tuples
/// with lineage — the sequential, tuple-at-a-time **reference** walker.
/// Production queries run the lowered plan on the vectorized executor
/// ([`crate::physical::vexec`]), whose contract is bit-identity with this
/// function; the equivalence suites under `tests/` compare the two.
///
/// Confidence values are *not* consulted here — lineage is purely symbolic
/// and scoring happens afterwards via [`crate::ResultSet::score`]. This
/// split is what lets the strategy-finding algorithms re-score the same
/// results under hypothetical confidence increments without re-running the
/// query.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<ResultSet> {
    let schema = plan.schema(catalog)?;
    Ok(ResultSet::new(schema, run(plan, catalog)?))
}

fn run(plan: &Plan, catalog: &Catalog) -> Result<Vec<DerivedTuple>> {
    match plan {
        Plan::Scan { table, .. } => {
            let t = catalog.table(table)?;
            Ok(t.rows()
                .iter()
                .map(|r| DerivedTuple {
                    tuple: r.tuple.clone(),
                    lineage: Lineage::var(r.id.0),
                })
                .collect())
        }
        Plan::Select { input, predicate } => {
            let mut out = Vec::new();
            for row in run(input, catalog)? {
                if predicate.eval_predicate(row.tuple.values())? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Project {
            input,
            items,
            distinct,
        } => {
            let mut projected = Vec::new();
            for row in run(input, catalog)? {
                projected.push(DerivedTuple {
                    tuple: Tuple::new(eval_items(items, row.tuple.values())?),
                    lineage: row.lineage,
                });
            }
            Ok(if *distinct {
                or_merge(projected)
            } else {
                projected
            })
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let l = run(left, catalog)?;
            let r = run(right, catalog)?;
            let left_schema = left.schema(catalog)?;
            let right_schema = right.schema(catalog)?;
            let left_arity = left_schema.arity();
            // Hash join on the equality conjuncts when any exist; the
            // remaining conjuncts become a residual filter per match.
            // Only same-typed column pairs are hashable — hashing must
            // agree with `=`'s numeric coercion, so an INT = REAL pair
            // stays in the residual.
            let hashable = |lc: usize, rc: usize| {
                let lt = left_schema.columns().get(lc).map(|c| c.data_type);
                let rt = right_schema
                    .columns()
                    .get(rc - left_arity)
                    .map(|c| c.data_type);
                lt.is_some() && lt == rt
            };
            let (equi, residual) = split_equi_conjuncts(predicate, left_arity, hashable);
            let mut out = Vec::new();
            if equi.is_empty() {
                // Nested-loop fallback.
                for lr in &l {
                    for rr in &r {
                        let combined = lr.tuple.concat(&rr.tuple);
                        if predicate.eval_predicate(combined.values())? {
                            out.push(joined(combined, lr, rr));
                        }
                    }
                }
                return Ok(out);
            }
            // Build on the right side. An ordered map keeps the operator
            // deterministic-by-construction (lint rule PCQE-D001): even
            // though probing only does point lookups today, nothing can
            // later iterate this table in nondeterministic order.
            let mut table: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
            'rows: for (i, rr) in r.iter().enumerate() {
                let mut key = Vec::with_capacity(equi.len());
                for &(_, rc) in &equi {
                    let v = rr.tuple.get(rc - left_arity).cloned().ok_or_else(|| {
                        crate::error::AlgebraError::Type(format!(
                            "join key column {rc} out of range"
                        ))
                    })?;
                    if v.is_null() {
                        continue 'rows; // NULL never equi-joins
                    }
                    key.push(v);
                }
                table.entry(key).or_default().push(i);
            }
            // Probe in left-row order; each match list preserves build
            // order.
            'probe: for lr in &l {
                let mut key = Vec::with_capacity(equi.len());
                for &(lc, _) in &equi {
                    let v = lr.tuple.get(lc).cloned().ok_or_else(|| {
                        crate::error::AlgebraError::Type(format!(
                            "join key column {lc} out of range"
                        ))
                    })?;
                    if v.is_null() {
                        continue 'probe; // NULL never equi-joins
                    }
                    key.push(v);
                }
                let Some(matches) = table.get(&key) else {
                    continue;
                };
                for &ri in matches {
                    let rr = &r[ri];
                    let combined = lr.tuple.concat(&rr.tuple);
                    let keep = match &residual {
                        Some(res) => res.eval_predicate(combined.values())?,
                        None => true,
                    };
                    if keep {
                        out.push(joined(combined, lr, rr));
                    }
                }
            }
            Ok(out)
        }
        Plan::Product { left, right } => {
            let l = run(left, catalog)?;
            let r = run(right, catalog)?;
            Ok(l.iter()
                .flat_map(|lr| {
                    r.iter()
                        .map(move |rr| joined(lr.tuple.concat(&rr.tuple), lr, rr))
                })
                .collect())
        }
        Plan::Union { left, right } => {
            // Schema compatibility is checked by Plan::schema.
            plan.schema(catalog)?;
            let mut rows = run(left, catalog)?;
            rows.extend(run(right, catalog)?);
            Ok(or_merge(rows))
        }
        Plan::Sort { input, keys } => {
            let mut rows = run(input, catalog)?;
            sort_rows(&mut rows, keys)?;
            Ok(rows)
        }
        Plan::Limit { input, count } => {
            let mut rows = run(input, catalog)?;
            rows.truncate(*count);
            Ok(rows)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let rows = run(input, catalog)?;
            // Group rows by their key values, preserving first-seen order.
            let mut index: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
            let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                let mut key = Vec::with_capacity(group_by.len());
                for g in group_by {
                    key.push(g.expr.eval(row.tuple.values())?);
                }
                match index.get(&key) {
                    Some(&gi) => groups[gi].1.push(i),
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push((key, vec![i]));
                    }
                }
            }
            // With no GROUP BY there is always exactly one (possibly
            // empty) group, per SQL.
            if group_by.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            let mut out = Vec::with_capacity(groups.len());
            for (key, members) in groups {
                let mut values = key;
                for agg in aggregates {
                    values.push(eval_aggregate(agg, &members, &rows)?);
                }
                let lineage = if members.is_empty() {
                    // The empty global group exists with certainty.
                    Lineage::certain()
                } else {
                    Lineage::or(members.iter().map(|&i| rows[i].lineage.clone()).collect())
                };
                out.push(DerivedTuple {
                    tuple: Tuple::new(values),
                    lineage,
                });
            }
            Ok(out)
        }
        Plan::Difference { left, right } => {
            plan.schema(catalog)?;
            let l = or_merge(run(left, catalog)?);
            let r = or_merge(run(right, catalog)?);
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
            Ok(out)
        }
    }
}

/// One join output row: the concatenated values under the conjunction of
/// both inputs' lineage.
pub(crate) fn joined(tuple: Tuple, left: &impl Row, right: &impl Row) -> DerivedTuple {
    DerivedTuple {
        tuple,
        lineage: Lineage::and(vec![left.lineage(), right.lineage()]),
    }
}

/// Split a join predicate into hashable equality pairs `(left column,
/// right column)` and the residual predicate. `hashable` decides whether a
/// candidate pair may be used as a hash key.
pub(crate) fn split_equi_conjuncts(
    predicate: &ScalarExpr,
    left_arity: usize,
    hashable: impl Fn(usize, usize) -> bool,
) -> (Vec<(usize, usize)>, Option<ScalarExpr>) {
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for part in predicate.conjuncts() {
        if let ScalarExpr::Binary {
            op: crate::expr::BinaryOp::Eq,
            left,
            right,
        } = part
        {
            if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) {
                let (lc, rc) = if a < b { (*a, *b) } else { (*b, *a) };
                if lc < left_arity && rc >= left_arity && hashable(lc, rc) {
                    equi.push((lc, rc));
                    continue;
                }
            }
        }
        residual.push(part.clone());
    }
    (equi, ScalarExpr::and_all(residual))
}

pub(crate) fn sort_rows(rows: &mut [DerivedTuple], keys: &[crate::plan::SortKey]) -> Result<()> {
    // Precompute key tuples so evaluation errors surface before sorting.
    let mut keyed: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
    for row in rows.iter() {
        let mut ks = Vec::with_capacity(keys.len());
        for key in keys {
            ks.push(key.expr.eval(row.tuple.values())?);
        }
        keyed.push(ks);
    }
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| {
        for (ki, key) in keys.iter().enumerate() {
            let cmp = keyed[a][ki].cmp(&keyed[b][ki]);
            let cmp = if key.descending { cmp.reverse() } else { cmp };
            if cmp != std::cmp::Ordering::Equal {
                return cmp;
            }
        }
        std::cmp::Ordering::Equal
    });
    // Apply the permutation.
    let mut sorted: Vec<DerivedTuple> = Vec::with_capacity(rows.len());
    for &i in &order {
        sorted.push(rows[i].clone());
    }
    rows.clone_from_slice(&sorted);
    Ok(())
}

/// Evaluate one aggregate over a group's member rows, read in place.
pub(crate) fn eval_aggregate<R: Row>(
    agg: &crate::plan::AggItem,
    members: &[usize],
    rows: &[R],
) -> Result<Value> {
    use crate::plan::AggFunc;
    // Collect the argument values, skipping NULLs (SQL semantics).
    // COUNT(*) has no argument and counts every row.
    let mut args: Vec<Value> = Vec::with_capacity(members.len());
    if let Some(arg) = &agg.arg {
        for &i in members {
            let v = arg.eval(rows[i].values())?;
            if !v.is_null() {
                args.push(v);
            }
        }
    }
    let numeric = |v: &Value| -> Result<f64> {
        v.as_f64().ok_or_else(|| {
            crate::error::AlgebraError::Type(format!(
                "{} over non-numeric value {v}",
                agg.func.name()
            ))
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
                    // typed error instead of panicking (PCQE-P001 ethos).
                    let n = v.as_i64().ok_or_else(|| {
                        crate::error::AlgebraError::Type("SUM over non-integer value".into())
                    })?;
                    total = total
                        .checked_add(n)
                        .ok_or_else(|| crate::error::AlgebraError::Type("SUM overflow".into()))?;
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

pub(crate) fn eval_items(items: &[ProjItem], row: &[Value]) -> Result<Vec<Value>> {
    items.iter().map(|item| item.expr.eval(row)).collect()
}

/// Merge rows with identical values, OR-ing their lineage (set semantics).
/// The first occurrence's position is kept, so output order is stable.
pub(crate) fn or_merge(rows: Vec<DerivedTuple>) -> Vec<DerivedTuple> {
    let mut index: BTreeMap<Tuple, usize> = BTreeMap::new();
    let mut grouped: Vec<(Tuple, Vec<Lineage>)> = Vec::new();
    for row in rows {
        match index.get(&row.tuple) {
            Some(&i) => grouped[i].1.push(row.lineage),
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

/// Convenience: a [`ScalarExpr`] equality predicate between two columns of a
/// joined schema, resolved by qualified name.
pub fn eq_columns(
    schema: &pcqe_storage::Schema,
    left: (Option<&str>, &str),
    right: (Option<&str>, &str),
) -> Result<ScalarExpr> {
    let l = ScalarExpr::named(schema, left.0, left.1)?;
    let r = ScalarExpr::named(schema, right.0, right.1)?;
    Ok(l.eq(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AlgebraError;
    use pcqe_lineage::{Evaluator, VarId};
    use pcqe_storage::{Column, DataType, Schema};

    /// Build the paper's running-example database (Tables 1 and 2).
    #[allow(clippy::vec_init_then_push)]
    fn paper_db() -> (Catalog, Vec<pcqe_storage::TupleId>) {
        let mut c = Catalog::new();
        c.create_table(
            "Proposal",
            Schema::new(vec![
                Column::new("company", DataType::Text),
                Column::new("proposal", DataType::Text),
                Column::new("funding", DataType::Real),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "CompanyInfo",
            Schema::new(vec![
                Column::new("company", DataType::Text),
                Column::new("income", DataType::Real),
            ])
            .unwrap(),
        )
        .unwrap();
        let mut ids = Vec::new();
        // Tuple 01: a proposal asking too much (filtered by σ).
        ids.push(
            c.insert(
                "Proposal",
                vec![
                    Value::text("HighReach"),
                    Value::text("expansion"),
                    Value::Real(2_000_000.0),
                ],
                0.5,
            )
            .unwrap(),
        );
        // Tuples 02 and 03: two SkyCam proposals under one million — after
        // the projection they merge into one result with OR lineage.
        ids.push(
            c.insert(
                "Proposal",
                vec![
                    Value::text("SkyCam"),
                    Value::text("drone v1"),
                    Value::Real(800_000.0),
                ],
                0.3,
            )
            .unwrap(),
        );
        ids.push(
            c.insert(
                "Proposal",
                vec![
                    Value::text("SkyCam"),
                    Value::text("drone v2"),
                    Value::Real(900_000.0),
                ],
                0.4,
            )
            .unwrap(),
        );
        // Tuple 13: SkyCam's financials.
        ids.push(
            c.insert(
                "CompanyInfo",
                vec![Value::text("SkyCam"), Value::Real(500_000.0)],
                0.1,
            )
            .unwrap(),
        );
        (c, ids)
    }

    /// The paper's query: Π_company,income( σ_funding<1M(Proposal) ⋈ CompanyInfo ).
    fn paper_plan(catalog: &Catalog) -> Plan {
        let scan_p = Plan::scan("Proposal");
        let p_schema = scan_p.schema(catalog).unwrap();
        let sel = scan_p.select(
            ScalarExpr::named(&p_schema, None, "funding")
                .unwrap()
                .lt(ScalarExpr::literal(Value::Real(1_000_000.0))),
        );
        let joined_schema = sel
            .schema(catalog)
            .unwrap()
            .join(&Plan::scan("CompanyInfo").schema(catalog).unwrap());
        let join = sel.join(
            Plan::scan("CompanyInfo"),
            eq_columns(
                &joined_schema,
                (Some("Proposal"), "company"),
                (Some("CompanyInfo"), "company"),
            )
            .unwrap(),
        );
        let join_schema = join.schema(catalog).unwrap();
        join.project(vec![
            ProjItem::new(
                ScalarExpr::named(&join_schema, Some("CompanyInfo"), "company").unwrap(),
                "company",
            ),
            ProjItem::new(
                ScalarExpr::named(&join_schema, Some("CompanyInfo"), "income").unwrap(),
                "income",
            ),
        ])
    }

    #[test]
    fn running_example_confidence_is_0_058() {
        let (catalog, ids) = paper_db();
        let plan = paper_plan(&catalog);
        let rs = execute(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 1, "one merged Candidate row");
        // Lineage is (t02 ∧ t13) ∨ (t03 ∧ t13) — logically equal to the
        // paper's factored form (t02 ∨ t03) ∧ t13. Check equivalence over
        // every truth assignment of the three variables.
        let expected = Lineage::and(vec![
            Lineage::or(vec![Lineage::var(ids[1].0), Lineage::var(ids[2].0)]),
            Lineage::var(ids[3].0),
        ]);
        let got = &rs.rows()[0].lineage;
        let vars = expected.vars();
        assert_eq!(got.vars(), vars);
        for bits in 0..(1u32 << vars.len()) {
            let assign = |v: VarId| {
                let slot = vars.iter().position(|&x| x == v).unwrap();
                bits & (1 << slot) != 0
            };
            assert_eq!(got.eval(&assign), expected.eval(&assign), "bits {bits:b}");
        }
        let probs = |v: VarId| catalog.confidence(pcqe_storage::TupleId(v.0));
        let scored = rs.score(&probs, &Evaluator::default()).unwrap();
        assert!((scored[0].confidence - 0.058).abs() < 1e-12);
    }

    #[test]
    fn select_filters_by_predicate() {
        let (catalog, _) = paper_db();
        let scan = Plan::scan("Proposal");
        let schema = scan.schema(&catalog).unwrap();
        let plan = scan.select(
            ScalarExpr::named(&schema, None, "funding")
                .unwrap()
                .lt(ScalarExpr::literal(Value::Real(1_000_000.0))),
        );
        let rs = execute(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn bag_projection_keeps_duplicates() {
        let (catalog, _) = paper_db();
        let scan = Plan::scan("Proposal");
        let schema = scan.schema(&catalog).unwrap();
        let plan = scan.project_all(vec![ProjItem::new(
            ScalarExpr::named(&schema, None, "company").unwrap(),
            "company",
        )]);
        let rs = execute(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 3, "bag semantics: SkyCam appears twice");
    }

    #[test]
    fn union_or_merges_duplicates() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        c.create_table("a", schema.clone()).unwrap();
        c.create_table("b", schema).unwrap();
        let ia = c.insert("a", vec![Value::Int(7)], 0.5).unwrap();
        let ib = c.insert("b", vec![Value::Int(7)], 0.5).unwrap();
        c.insert("b", vec![Value::Int(8)], 0.5).unwrap();
        let plan = Plan::scan("a").union(Plan::scan("b"));
        let rs = execute(&plan, &c).unwrap();
        assert_eq!(rs.len(), 2);
        let seven = rs
            .rows()
            .iter()
            .find(|r| r.tuple.get(0) == Some(&Value::Int(7)))
            .unwrap();
        assert_eq!(
            seven.lineage,
            Lineage::or(vec![Lineage::var(ia.0), Lineage::var(ib.0)])
        );
    }

    #[test]
    fn difference_negates_right_lineage() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        c.create_table("a", schema.clone()).unwrap();
        c.create_table("b", schema).unwrap();
        let ia = c.insert("a", vec![Value::Int(1)], 0.8).unwrap();
        let ia2 = c.insert("a", vec![Value::Int(2)], 0.8).unwrap();
        let ib = c.insert("b", vec![Value::Int(1)], 0.5).unwrap();
        let plan = Plan::scan("a").difference(Plan::scan("b"));
        let rs = execute(&plan, &c).unwrap();
        assert_eq!(rs.len(), 2);
        let one = rs
            .rows()
            .iter()
            .find(|r| r.tuple.get(0) == Some(&Value::Int(1)))
            .unwrap();
        assert_eq!(
            one.lineage,
            Lineage::and(vec![Lineage::var(ia.0), Lineage::not(Lineage::var(ib.0))])
        );
        let two = rs
            .rows()
            .iter()
            .find(|r| r.tuple.get(0) == Some(&Value::Int(2)))
            .unwrap();
        assert_eq!(two.lineage, Lineage::var(ia2.0));
        // Scoring: P(1 in a−b) = 0.8 · 0.5.
        let probs = |v: VarId| c.confidence(pcqe_storage::TupleId(v.0));
        let scored = rs.score(&probs, &Evaluator::default()).unwrap();
        let s1 = scored
            .iter()
            .find(|s| s.tuple.get(0) == Some(&Value::Int(1)))
            .unwrap();
        assert!((s1.confidence - 0.4).abs() < 1e-12);
    }

    #[test]
    fn product_produces_all_pairs() {
        let (catalog, _) = paper_db();
        let plan = Plan::scan("Proposal").product(Plan::scan("CompanyInfo"));
        let rs = execute(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.schema().arity(), 5);
    }

    #[test]
    fn aggregation_groups_and_or_merges_lineage() {
        use crate::plan::{AggFunc, AggItem};
        let (catalog, ids) = paper_db();
        let scan = Plan::scan("Proposal");
        let schema = scan.schema(&catalog).unwrap();
        let plan = scan.aggregate(
            vec![ProjItem::new(
                ScalarExpr::named(&schema, None, "company").unwrap(),
                "company",
            )],
            vec![
                AggItem {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                },
                AggItem {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::named(&schema, None, "funding").unwrap()),
                    name: "total".into(),
                },
                AggItem {
                    func: AggFunc::Avg,
                    arg: Some(ScalarExpr::named(&schema, None, "funding").unwrap()),
                    name: "avg".into(),
                },
                AggItem {
                    func: AggFunc::Min,
                    arg: Some(ScalarExpr::named(&schema, None, "funding").unwrap()),
                    name: "lo".into(),
                },
                AggItem {
                    func: AggFunc::Max,
                    arg: Some(ScalarExpr::named(&schema, None, "funding").unwrap()),
                    name: "hi".into(),
                },
            ],
        );
        let rs = execute(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 2);
        let sky = rs
            .rows()
            .iter()
            .find(|r| r.tuple.get(0) == Some(&Value::text("SkyCam")))
            .unwrap();
        assert_eq!(sky.tuple.get(1), Some(&Value::Int(2)));
        assert_eq!(sky.tuple.get(2), Some(&Value::Real(1_700_000.0)));
        assert_eq!(sky.tuple.get(3), Some(&Value::Real(850_000.0)));
        assert_eq!(sky.tuple.get(4), Some(&Value::Real(800_000.0)));
        assert_eq!(sky.tuple.get(5), Some(&Value::Real(900_000.0)));
        // Group lineage = OR of member lineage.
        assert_eq!(
            sky.lineage,
            Lineage::or(vec![Lineage::var(ids[1].0), Lineage::var(ids[2].0)])
        );
    }

    #[test]
    fn global_aggregate_over_empty_input_is_certain() {
        use crate::plan::{AggFunc, AggItem};
        let mut c = Catalog::new();
        c.create_table(
            "e",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        let plan = Plan::scan("e").aggregate(
            vec![],
            vec![
                AggItem {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                },
                AggItem {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::column(0)),
                    name: "s".into(),
                },
            ],
        );
        let rs = execute(&plan, &c).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0].tuple.get(0), Some(&Value::Int(0)));
        assert_eq!(rs.rows()[0].tuple.get(1), Some(&Value::Null));
        assert_eq!(rs.rows()[0].lineage, Lineage::certain());
    }

    #[test]
    fn count_argument_skips_nulls() {
        use crate::plan::{AggFunc, AggItem};
        let mut c = Catalog::new();
        c.create_table(
            "n",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        c.insert("n", vec![Value::Int(1)], 0.5).unwrap();
        c.insert("n", vec![Value::Null], 0.5).unwrap();
        let plan = Plan::scan("n").aggregate(
            vec![],
            vec![
                AggItem {
                    func: AggFunc::Count,
                    arg: None,
                    name: "all".into(),
                },
                AggItem {
                    func: AggFunc::Count,
                    arg: Some(ScalarExpr::column(0)),
                    name: "nonnull".into(),
                },
            ],
        );
        let rs = execute(&plan, &c).unwrap();
        assert_eq!(rs.rows()[0].tuple.get(0), Some(&Value::Int(2)));
        assert_eq!(rs.rows()[0].tuple.get(1), Some(&Value::Int(1)));
    }

    #[test]
    fn hash_join_matches_nested_loop_semantics() {
        let mut c = Catalog::new();
        c.create_table(
            "a",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("x", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            "b",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("y", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        c.insert("a", vec![Value::Int(1), Value::Int(10)], 0.5)
            .unwrap();
        c.insert("a", vec![Value::Int(2), Value::Int(20)], 0.5)
            .unwrap();
        c.insert("a", vec![Value::Null, Value::Int(30)], 0.5)
            .unwrap();
        c.insert("b", vec![Value::Int(1), Value::Int(100)], 0.5)
            .unwrap();
        c.insert("b", vec![Value::Int(1), Value::Int(101)], 0.5)
            .unwrap();
        c.insert("b", vec![Value::Null, Value::Int(102)], 0.5)
            .unwrap();
        // Equi key + residual: a.k = b.k AND y < 101.
        let plan = Plan::scan("a").join(
            Plan::scan("b"),
            ScalarExpr::column(0)
                .eq(ScalarExpr::column(2))
                .and(ScalarExpr::column(3).lt(ScalarExpr::literal(Value::Int(101)))),
        );
        let rs = execute(&plan, &c).unwrap();
        // Only (1,10,1,100): NULL keys never match, residual trims 101.
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0].tuple.get(3), Some(&Value::Int(100)));
    }

    #[test]
    fn mixed_type_keys_fall_back_to_coercing_comparison() {
        let mut c = Catalog::new();
        c.create_table(
            "ints",
            Schema::new(vec![Column::new("k", DataType::Int)]).unwrap(),
        )
        .unwrap();
        c.create_table(
            "reals",
            Schema::new(vec![Column::new("k", DataType::Real)]).unwrap(),
        )
        .unwrap();
        c.insert("ints", vec![Value::Int(2)], 0.5).unwrap();
        c.insert("reals", vec![Value::Real(2.0)], 0.5).unwrap();
        let plan = Plan::scan("ints").join(
            Plan::scan("reals"),
            ScalarExpr::column(0).eq(ScalarExpr::column(1)),
        );
        // INT = REAL must coerce: 2 joins 2.0.
        assert_eq!(execute(&plan, &c).unwrap().len(), 1);
    }

    #[test]
    fn sort_and_limit_preserve_lineage() {
        let (catalog, ids) = paper_db();
        let scan = Plan::scan("Proposal");
        let schema = scan.schema(&catalog).unwrap();
        let plan = scan
            .sort(vec![crate::plan::SortKey {
                expr: ScalarExpr::named(&schema, None, "funding").unwrap(),
                descending: true,
            }])
            .limit(2);
        let rs = execute(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 2);
        // Highest funding first: the 2M expansion, then the 900K drone.
        assert_eq!(rs.rows()[0].tuple.get(2), Some(&Value::Real(2_000_000.0)));
        assert_eq!(rs.rows()[1].lineage, Lineage::var(ids[2].0));
        // Limit 0 yields nothing; limit beyond the input is a no-op.
        let all = execute(&Plan::scan("Proposal").limit(100), &catalog).unwrap();
        assert_eq!(all.len(), 3);
        let none = execute(&Plan::scan("Proposal").limit(0), &catalog).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn execution_propagates_type_errors() {
        let (catalog, _) = paper_db();
        let scan = Plan::scan("Proposal");
        let plan = scan.select(ScalarExpr::column(0)); // TEXT is not a predicate
        assert!(matches!(
            execute(&plan, &catalog),
            Err(AlgebraError::Type(_))
        ));
    }
}
