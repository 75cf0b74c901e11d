//! Logical → physical planning and physical execution.
//!
//! This module turns the optimised logical [`crate::Plan`] into a
//! [`PhysicalPlan`] — a tree of *concrete* operators with explicit access
//! paths (table scan vs equality-index scan), join strategies (a hash join
//! wherever the predicate has a hashable key pair and a nested loop where
//! it has none; an index join where the hash join's build side is a whole
//! indexed table) and pushed-down predicates — and then executes that tree
//! with the algebra's lineage semantics.
//!
//! Layering:
//!
//! * [`plan`] — the [`PhysicalPlan`] tree, its schema rules, its
//!   `EXPLAIN`-grade rendering and [`render_side_by_side`] for the shell's
//!   `.plan` command;
//! * [`planner`] — [`lower`], the rule-based lowering;
//! * [`vexec`] — [`execute_vectorized_with`] and its profiled, observed
//!   variant, the one executor, whose [`ExecProfile`] is the
//!   `EXPLAIN ANALYZE` text.
//!
//! The invariant tying them together: **planning is a pure performance
//! decision**. Every physical plan produced by [`lower`] executes to a
//! result set bit-identical to a tuple-at-a-time walk of the logical plan
//! it came from — same rows, same order, same lineage — so confidence
//! policies (Section 3 of the paper) see exactly the same tuples
//! regardless of which strategies the planner picked. The equivalence
//! suites hold it against such a walk, written apart from this module
//! (`tests/common/reference.rs`).

pub mod plan;
pub mod planner;
mod profile;
pub mod vexec;

pub use plan::{render_side_by_side, PhysicalPlan};
pub use planner::lower;
pub use profile::{ExecProfile, OperatorProfile};
pub use vexec::{execute_vectorized_profiled, execute_vectorized_with};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AlgebraError;
    use crate::expr::ScalarExpr;
    use crate::optimize;
    use crate::plan::{AggFunc, AggItem, Plan, ProjItem, SortKey};
    use crate::result::ResultSet;
    use crate::Result;
    use pcqe_lineage::{CircuitCache, Evaluator, Lineage, VarId};
    use pcqe_par::Parallelism;
    use pcqe_storage::{Catalog, Column, DataType, Schema, TupleId, Value};

    /// Run a lowered plan on the vectorized executor, one worker.
    fn vexec(phys: &PhysicalPlan, catalog: &Catalog) -> ResultSet {
        execute_vectorized_with(phys, catalog, &Parallelism::sequential()).unwrap()
    }

    /// Lower a logical plan as written and run it, one worker.
    fn run(plan: &Plan, catalog: &Catalog) -> Result<ResultSet> {
        execute_vectorized_with(&lower(plan, catalog)?, catalog, &Parallelism::sequential())
    }

    /// Every row's exact confidence, from a pool that has seen nothing
    /// but the catalog's confidences.
    fn confidences(rs: &ResultSet, catalog: &Catalog) -> Vec<f64> {
        let mut pool = CircuitCache::new();
        for v in rs.rows().iter().flat_map(|r| r.lineage.vars()) {
            pool.set_prob(v, catalog.confidence(TupleId(v.0)).unwrap());
        }
        let scored = rs.score_cached(&mut pool, &Evaluator::default());
        scored.unwrap().iter().map(|s| s.confidence).collect()
    }

    /// A one-column `INT` table.
    fn int_table(c: &mut Catalog, name: &str) {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        c.create_table(name, schema).unwrap();
    }

    /// The paper's running-example database (Tables 1 and 2), with the ids
    /// of tuples 01, 02, 03 and 13.
    fn paper_db() -> (Catalog, Vec<TupleId>) {
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
        let proposals = [
            // Tuple 01: a proposal asking too much (filtered by σ).
            ("HighReach", "expansion", 2_000_000.0, 0.5),
            // Tuples 02 and 03: two SkyCam proposals under one million —
            // after the projection they merge into one result with OR
            // lineage.
            ("SkyCam", "drone v1", 800_000.0, 0.3),
            ("SkyCam", "drone v2", 900_000.0, 0.4),
        ];
        let mut ids: Vec<TupleId> = proposals
            .iter()
            .map(|&(company, proposal, funding, p)| {
                let values = vec![
                    Value::text(company),
                    Value::text(proposal),
                    Value::Real(funding),
                ];
                c.insert("Proposal", values, p).unwrap()
            })
            .collect();
        // Tuple 13: SkyCam's financials.
        let financials = vec![Value::text("SkyCam"), Value::Real(500_000.0)];
        ids.push(c.insert("CompanyInfo", financials, 0.1).unwrap());
        (c, ids)
    }

    /// Π_company,income( σ_funding<1M(Proposal) ⋈ CompanyInfo ).
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
        let company = |table| ScalarExpr::named(&joined_schema, Some(table), "company").unwrap();
        let join = sel.join(
            Plan::scan("CompanyInfo"),
            company("Proposal").eq(company("CompanyInfo")),
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

    fn funding(catalog: &Catalog) -> ScalarExpr {
        let schema = Plan::scan("Proposal").schema(catalog).unwrap();
        ScalarExpr::named(&schema, None, "funding").unwrap()
    }

    #[test]
    fn paper_example_lowers_to_a_hash_join() {
        let (catalog, _) = paper_db();
        let plan = optimize(&paper_plan(&catalog), &catalog).unwrap();
        let phys = lower(&plan, &catalog).unwrap();
        let text = phys.to_string();
        // A TEXT key pair: hashed, however small the inputs. The σ is
        // pushed into the Proposal scan as a residual.
        assert!(text.contains("HashJoin [#0 = #3]"), "got:\n{text}");
        assert!(text.contains("TableScan Proposal [filter:"), "got:\n{text}");
        assert!(text.contains("TableScan CompanyInfo"), "got:\n{text}");
    }

    #[test]
    fn running_example_confidence_is_0_058() {
        let (catalog, ids) = paper_db();
        let plan = paper_plan(&catalog);
        let optimized = optimize(&plan, &catalog).unwrap();
        let rs = run(&plan, &catalog).unwrap();
        assert_eq!(rs.rows(), run(&optimized, &catalog).unwrap().rows());
        assert_eq!(rs.schema(), &plan.schema(&catalog).unwrap());
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
        assert!((confidences(&rs, &catalog)[0] - 0.058).abs() < 1e-12);
    }

    #[test]
    fn index_scan_is_chosen_and_bit_identical() {
        let (mut catalog, _) = paper_db();
        let scan = Plan::scan("Proposal");
        let schema = scan.schema(&catalog).unwrap();
        // company = 'SkyCam' AND funding < 1M — the equality hits the
        // index, the comparison stays as a residual.
        let plan = scan.select(
            ScalarExpr::named(&schema, None, "company")
                .unwrap()
                .eq(ScalarExpr::literal(Value::text("SkyCam")))
                .and(funding(&catalog).lt(ScalarExpr::literal(Value::Real(900_000.0)))),
        );
        let scanned = run(&plan, &catalog).unwrap();
        catalog.create_index("Proposal", "company").unwrap();
        let phys = lower(&plan, &catalog).unwrap();
        let text = phys.to_string();
        assert!(
            text.contains("IndexScan Proposal (company = 'SkyCam') [filter:"),
            "got:\n{text}"
        );
        assert_eq!(scanned.rows(), vexec(&phys, &catalog).rows());
        // The index scan reads only the 2 SkyCam rows, not all 3.
        let (_, profile) =
            execute_vectorized_profiled(&phys, &catalog, &Parallelism::sequential(), None).unwrap();
        assert_eq!(profile.operators.len(), 1);
        assert_eq!(profile.operators[0].rows_in, 2);
        assert_eq!(profile.operators[0].rows_out, 1);
    }

    #[test]
    fn coerced_literal_refuses_the_index() {
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                "t",
                Schema::new(vec![Column::new("k", DataType::Int)]).unwrap(),
            )
            .unwrap();
        catalog.insert("t", vec![Value::Int(2)], 0.5).unwrap();
        catalog.create_index("t", "k").unwrap();
        // REAL literal on an INT column: `=` coerces but the index map
        // cannot, so this must stay a table scan — and still match.
        let plan =
            Plan::scan("t").select(ScalarExpr::column(0).eq(ScalarExpr::literal(Value::Real(2.0))));
        let phys = lower(&plan, &catalog).unwrap();
        assert!(phys.to_string().contains("TableScan"), "got:\n{phys}");
        assert_eq!(vexec(&phys, &catalog).len(), 1);
    }

    #[test]
    fn real_keys_are_compared_not_hashed() {
        let mut c = Catalog::new();
        for name in ["a", "b"] {
            let schema = Schema::new(vec![Column::new("k", DataType::Real)]).unwrap();
            c.create_table(name, schema).unwrap();
        }
        // `Int(1)` widened into a REAL column is `=` to `1.0`, though not
        // the same hash key: the pair is tested, not hashed.
        c.insert("a", vec![Value::Real(1.0)], 0.5).unwrap();
        c.insert("b", vec![Value::Int(1)], 0.5).unwrap();
        let plan = Plan::scan("a").join(
            Plan::scan("b"),
            ScalarExpr::column(0).eq(ScalarExpr::column(1)),
        );
        let phys = lower(&plan, &c).unwrap();
        assert!(phys.to_string().contains("NestedLoopJoin"), "got:\n{phys}");
        assert_eq!(vexec(&phys, &c).len(), 1);
    }

    /// `a(k INT, x INT)` and `b(k INT, y INT)`, 120 rows each, with 17 and
    /// 11 distinct keys.
    fn keyed_tables(c: &mut Catalog) {
        for (name, value) in [("a", "x"), ("b", "y")] {
            let columns = vec![
                Column::new("k", DataType::Int),
                Column::new(value, DataType::Int),
            ];
            c.create_table(name, Schema::new(columns).unwrap()).unwrap();
        }
        for i in 0..120i64 {
            c.insert("a", vec![Value::Int(i % 17), Value::Int(i)], 0.5)
                .unwrap();
            c.insert("b", vec![Value::Int(i % 11), Value::Int(i * 2)], 0.5)
                .unwrap();
        }
    }

    /// `a.k = b.k AND b.y < 100`.
    fn key_and_residual() -> ScalarExpr {
        ScalarExpr::column(0)
            .eq(ScalarExpr::column(2))
            .and(ScalarExpr::column(3).lt(ScalarExpr::literal(Value::Int(100))))
    }

    #[test]
    fn large_equi_join_lowers_to_hash_join_and_matches() {
        let mut c = Catalog::new();
        keyed_tables(&mut c);
        let plan = Plan::scan("a").join(Plan::scan("b"), key_and_residual());
        let phys = lower(&plan, &c).unwrap();
        assert!(phys.to_string().contains("HashJoin"), "got:\n{phys}");
        // The product filtered by the same predicate: a nested loop.
        let filtered = Plan::scan("a")
            .product(Plan::scan("b"))
            .select(key_and_residual());
        let expected = run(&filtered, &c).unwrap();
        assert!(!expected.is_empty());
        for workers in [1usize, 4] {
            let par = Parallelism {
                worker_threads: Some(workers),
                parallel_threshold: 1,
            };
            let physical = execute_vectorized_with(&phys, &c, &par).unwrap();
            assert_eq!(expected.rows(), physical.rows(), "workers={workers}");
        }
    }

    /// An index join renders as one line naming the table, alias and
    /// indexed column, with the probe side as its only child — in the
    /// plan's `Display`, in the side-by-side view and in the rendered
    /// profile, which all take the line from `node_label`.
    #[test]
    fn index_join_renders_and_profiles_line_for_line() {
        let mut c = Catalog::new();
        keyed_tables(&mut c);
        c.create_index("b", "k").unwrap();
        let plan = Plan::scan("a").join(Plan::scan_as("b", "bb"), key_and_residual());
        let phys = lower(&plan, &c).unwrap();
        assert_eq!(
            phys.to_string(),
            "IndexJoin b AS bb (k) [#0 = #2] [filter: (#3 < 100)]\n  TableScan a\n"
        );
        assert_eq!(phys.schema(&c).unwrap(), plan.schema(&c).unwrap());
        let side_by_side = render_side_by_side(&plan, &phys);
        assert!(
            side_by_side.contains("| IndexJoin b AS bb (k) [#0 = #2] [filter: (#3 < 100)]\n")
                && side_by_side.contains("|   TableScan a\n")
                && !side_by_side.contains("TableScan b"),
            "{side_by_side}"
        );
        let filtered = Plan::scan("a")
            .product(Plan::scan_as("b", "bb"))
            .select(key_and_residual());
        let expected = run(&filtered, &c).unwrap();
        let (rs, profile) =
            execute_vectorized_profiled(&phys, &c, &Parallelism::sequential(), None).unwrap();
        assert_eq!(expected.rows(), rs.rows());
        let rendered = profile.render(&phys);
        for (line, analyzed) in phys.to_string().lines().zip(rendered.lines()) {
            assert!(
                analyzed.starts_with(&format!("{line} (rows_in=")),
                "{rendered}"
            );
        }
        assert_eq!(profile.operators.len(), 2);
        // 120 probes. Key 0 is on 8 `a` rows and keys 1–10 on 7 each;
        // `b` holds keys 0–9 eleven times and key 10 ten times: the index
        // fetched 8·11 + 9·7·11 + 7·10 = 851 rows.
        assert_eq!(profile.operators[0].rows_in, 120 + 851);
        assert_eq!(profile.operators[0].rows_out, expected.len() as u64);
    }

    #[test]
    fn physical_profile_zips_with_physical_display() {
        let (catalog, _) = paper_db();
        let plan = optimize(&paper_plan(&catalog), &catalog).unwrap();
        let phys = lower(&plan, &catalog).unwrap();
        let (rs, profile) =
            execute_vectorized_profiled(&phys, &catalog, &Parallelism::sequential(), None).unwrap();
        // Result-neutral: profiling yields the unprofiled run's rows.
        assert_eq!(rs.rows(), vexec(&phys, &catalog).rows());
        // One entry per plan line, at that line's depth; the rendering
        // labels each with its line.
        let lines: Vec<String> = phys.to_string().lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), profile.operators.len());
        let rendered = profile.render(&phys);
        for ((line, op), analyzed) in lines.iter().zip(&profile.operators).zip(rendered.lines()) {
            assert_eq!(line.len() - line.trim_start().len(), 2 * op.depth, "{line}");
            let counts = format!(" (rows_in={} rows_out={} ", op.rows_in, op.rows_out);
            assert!(
                analyzed.starts_with(&format!("{line}{counts}")),
                "{analyzed}"
            );
        }
        // True sizes: the join consumes 2 σ-surviving Proposal rows plus
        // 1 CompanyInfo row and emits 2; the Π merges them into 1.
        assert_eq!(profile.operators[0].rows_in, 2);
        assert_eq!(profile.operators[0].rows_out, 1);
        assert_eq!(profile.operators[1].rows_in, 3);
        assert_eq!(profile.operators[1].rows_out, 2);
    }

    #[test]
    fn select_filters_by_predicate() {
        let (catalog, _) = paper_db();
        let plan = Plan::scan("Proposal")
            .select(funding(&catalog).lt(ScalarExpr::literal(Value::Real(1_000_000.0))));
        assert_eq!(run(&plan, &catalog).unwrap().len(), 2);
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
        let rs = run(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 3, "bag semantics: SkyCam appears twice");
    }

    #[test]
    fn union_or_merges_duplicates() {
        let mut c = Catalog::new();
        int_table(&mut c, "a");
        int_table(&mut c, "b");
        let ia = c.insert("a", vec![Value::Int(7)], 0.5).unwrap();
        let ib = c.insert("b", vec![Value::Int(7)], 0.5).unwrap();
        c.insert("b", vec![Value::Int(8)], 0.5).unwrap();
        let rs = run(&Plan::scan("a").union(Plan::scan("b")), &c).unwrap();
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
        int_table(&mut c, "a");
        int_table(&mut c, "b");
        let ia = c.insert("a", vec![Value::Int(1)], 0.8).unwrap();
        let ia2 = c.insert("a", vec![Value::Int(2)], 0.8).unwrap();
        let ib = c.insert("b", vec![Value::Int(1)], 0.5).unwrap();
        let rs = run(&Plan::scan("a").difference(Plan::scan("b")), &c).unwrap();
        assert_eq!(rs.len(), 2);
        let row = |x| {
            rs.rows()
                .iter()
                .find(|r| r.tuple.get(0) == Some(&Value::Int(x)))
                .unwrap()
        };
        assert_eq!(
            row(1).lineage,
            Lineage::and(vec![Lineage::var(ia.0), Lineage::not(Lineage::var(ib.0))])
        );
        assert_eq!(row(2).lineage, Lineage::var(ia2.0));
        // Scoring: P(1 in a−b) = 0.8 · 0.5.
        let at = rs
            .rows()
            .iter()
            .position(|r| r.tuple.get(0) == Some(&Value::Int(1)));
        assert!((confidences(&rs, &c)[at.unwrap()] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn product_produces_all_pairs() {
        let (catalog, _) = paper_db();
        let plan = Plan::scan("Proposal").product(Plan::scan("CompanyInfo"));
        let rs = run(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.schema().arity(), 5);
    }

    fn agg(func: AggFunc, arg: Option<ScalarExpr>, name: &str) -> AggItem {
        AggItem {
            func,
            arg,
            name: name.into(),
        }
    }

    #[test]
    fn aggregation_groups_and_or_merges_lineage() {
        let (catalog, ids) = paper_db();
        let scan = Plan::scan("Proposal");
        let schema = scan.schema(&catalog).unwrap();
        let funding = || Some(funding(&catalog));
        let plan = scan.aggregate(
            vec![ProjItem::new(
                ScalarExpr::named(&schema, None, "company").unwrap(),
                "company",
            )],
            vec![
                agg(AggFunc::Count, None, "n"),
                agg(AggFunc::Sum, funding(), "total"),
                agg(AggFunc::Avg, funding(), "avg"),
                agg(AggFunc::Min, funding(), "lo"),
                agg(AggFunc::Max, funding(), "hi"),
            ],
        );
        let rs = run(&plan, &catalog).unwrap();
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
        let mut c = Catalog::new();
        int_table(&mut c, "e");
        let plan = Plan::scan("e").aggregate(
            vec![],
            vec![
                agg(AggFunc::Count, None, "n"),
                agg(AggFunc::Sum, Some(ScalarExpr::column(0)), "s"),
            ],
        );
        let rs = run(&plan, &c).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0].tuple.get(0), Some(&Value::Int(0)));
        assert_eq!(rs.rows()[0].tuple.get(1), Some(&Value::Null));
        assert_eq!(rs.rows()[0].lineage, Lineage::certain());
    }

    #[test]
    fn count_argument_skips_nulls() {
        let mut c = Catalog::new();
        int_table(&mut c, "n");
        c.insert("n", vec![Value::Int(1)], 0.5).unwrap();
        c.insert("n", vec![Value::Null], 0.5).unwrap();
        let plan = Plan::scan("n").aggregate(
            vec![],
            vec![
                agg(AggFunc::Count, None, "all"),
                agg(AggFunc::Count, Some(ScalarExpr::column(0)), "nonnull"),
            ],
        );
        let rs = run(&plan, &c).unwrap();
        assert_eq!(rs.rows()[0].tuple.get(0), Some(&Value::Int(2)));
        assert_eq!(rs.rows()[0].tuple.get(1), Some(&Value::Int(1)));
    }

    #[test]
    fn hash_join_matches_nested_loop_semantics() {
        let mut c = Catalog::new();
        for (name, value) in [("a", "x"), ("b", "y")] {
            let columns = vec![
                Column::new("k", DataType::Int),
                Column::new(value, DataType::Int),
            ];
            c.create_table(name, Schema::new(columns).unwrap()).unwrap();
        }
        for (table, k, v) in [
            ("a", Value::Int(1), 10),
            ("a", Value::Int(2), 20),
            ("a", Value::Null, 30),
            ("b", Value::Int(1), 100),
            ("b", Value::Int(1), 101),
            ("b", Value::Null, 102),
        ] {
            c.insert(table, vec![k, Value::Int(v)], 0.5).unwrap();
        }
        // Equi key + residual: a.k = b.k AND y < 101.
        let plan = Plan::scan("a").join(
            Plan::scan("b"),
            ScalarExpr::column(0)
                .eq(ScalarExpr::column(2))
                .and(ScalarExpr::column(3).lt(ScalarExpr::literal(Value::Int(101)))),
        );
        let rs = run(&plan, &c).unwrap();
        // Only (1,10,1,100): NULL keys never match, residual trims 101.
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0].tuple.get(3), Some(&Value::Int(100)));
    }

    #[test]
    fn mixed_type_keys_fall_back_to_coercing_comparison() {
        let mut c = Catalog::new();
        int_table(&mut c, "ints");
        let reals = Schema::new(vec![Column::new("k", DataType::Real)]).unwrap();
        c.create_table("reals", reals).unwrap();
        c.insert("ints", vec![Value::Int(2)], 0.5).unwrap();
        c.insert("reals", vec![Value::Real(2.0)], 0.5).unwrap();
        let plan = Plan::scan("ints").join(
            Plan::scan("reals"),
            ScalarExpr::column(0).eq(ScalarExpr::column(1)),
        );
        // INT = REAL must coerce: 2 joins 2.0.
        assert_eq!(run(&plan, &c).unwrap().len(), 1);
    }

    #[test]
    fn sort_and_limit_preserve_lineage() {
        let (catalog, ids) = paper_db();
        let plan = Plan::scan("Proposal")
            .sort(vec![SortKey {
                expr: funding(&catalog),
                descending: true,
            }])
            .limit(2);
        let rs = run(&plan, &catalog).unwrap();
        assert_eq!(rs.len(), 2);
        // Highest funding first: the 2M expansion, then the 900K drone.
        assert_eq!(rs.rows()[0].tuple.get(2), Some(&Value::Real(2_000_000.0)));
        assert_eq!(rs.rows()[1].lineage, Lineage::var(ids[2].0));
        // Limit 0 yields nothing; limit beyond the input is a no-op.
        let all = run(&Plan::scan("Proposal").limit(100), &catalog).unwrap();
        assert_eq!(all.len(), 3);
        let none = run(&Plan::scan("Proposal").limit(0), &catalog).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn execution_propagates_type_errors() {
        let (catalog, _) = paper_db();
        // TEXT is not a predicate.
        let plan = Plan::scan("Proposal").select(ScalarExpr::column(0));
        assert!(matches!(run(&plan, &catalog), Err(AlgebraError::Type(_))));
    }
}
