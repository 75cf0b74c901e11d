//! Logical → physical planning and physical execution.
//!
//! This module turns the optimised logical [`crate::Plan`] into a
//! [`PhysicalPlan`] — a tree of *concrete* operators with explicit access
//! paths (table scan vs equality-index scan), join strategies (a hash join
//! wherever the predicate has a hashable key pair, as in the reference
//! walker, and a nested loop where it has none; an index join where the
//! hash join's build side is a whole indexed table) and pushed-down
//! predicates — and
//! then executes that tree with the same lineage semantics as the logical
//! reference walker.
//!
//! Layering:
//!
//! * [`plan`] — the [`PhysicalPlan`] tree, its schema rules, its
//!   `EXPLAIN`-grade rendering and [`render_side_by_side`] for the shell's
//!   `.plan` command;
//! * [`planner`] — [`lower`], the rule-based lowering;
//! * [`vexec`] — [`execute_vectorized_with`] and its profiled, observed
//!   variant, the one production executor, bit-identical to the logical
//!   [`crate::execute`] for any lowered plan.
//!
//! The invariant tying the three together: **planning is a pure
//! performance decision**. Every physical plan produced by [`lower`]
//! executes to a result set bit-identical to the logical plan it came
//! from — same rows, same order, same lineage — so confidence policies
//! (Section 3 of the paper) see exactly the same tuples regardless of
//! which strategies the planner picked.

pub mod plan;
pub mod planner;
pub mod vexec;

pub use plan::{render_side_by_side, PhysicalPlan};
pub use planner::lower;
pub use vexec::{execute_vectorized_profiled, execute_vectorized_with};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::eq_columns;
    use crate::expr::ScalarExpr;
    use crate::plan::{Plan, ProjItem};
    use crate::result::ResultSet;
    use crate::{execute, optimize};
    use pcqe_par::Parallelism;
    use pcqe_storage::{Catalog, Column, DataType, Schema, Value};

    /// Run a lowered plan on the vectorized executor, one worker.
    fn vexec(phys: &PhysicalPlan, catalog: &Catalog) -> ResultSet {
        execute_vectorized_with(phys, catalog, &Parallelism::sequential()).unwrap()
    }

    /// The paper's running-example database (Tables 1 and 2).
    fn paper_db() -> Catalog {
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
        c.insert(
            "Proposal",
            vec![
                Value::text("HighReach"),
                Value::text("expansion"),
                Value::Real(2_000_000.0),
            ],
            0.5,
        )
        .unwrap();
        c.insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v1"),
                Value::Real(800_000.0),
            ],
            0.3,
        )
        .unwrap();
        c.insert(
            "Proposal",
            vec![
                Value::text("SkyCam"),
                Value::text("drone v2"),
                Value::Real(900_000.0),
            ],
            0.4,
        )
        .unwrap();
        c.insert(
            "CompanyInfo",
            vec![Value::text("SkyCam"), Value::Real(500_000.0)],
            0.1,
        )
        .unwrap();
        c
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
    fn paper_example_lowers_to_a_hash_join() {
        let catalog = paper_db();
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
    fn physical_execution_matches_logical_on_paper_example() {
        let catalog = paper_db();
        for plan in [
            paper_plan(&catalog),
            optimize(&paper_plan(&catalog), &catalog).unwrap(),
        ] {
            let logical = execute(&plan, &catalog).unwrap();
            let phys = lower(&optimize(&plan, &catalog).unwrap(), &catalog).unwrap();
            let physical = vexec(&phys, &catalog);
            assert_eq!(logical.schema(), physical.schema());
            assert_eq!(logical.rows(), physical.rows());
        }
    }

    #[test]
    fn index_scan_is_chosen_and_bit_identical() {
        let mut catalog = paper_db();
        catalog.create_index("Proposal", "company").unwrap();
        let scan = Plan::scan("Proposal");
        let schema = scan.schema(&catalog).unwrap();
        // company = 'SkyCam' AND funding < 1M — the equality hits the
        // index, the comparison stays as a residual.
        let plan = scan.select(
            ScalarExpr::named(&schema, None, "company")
                .unwrap()
                .eq(ScalarExpr::literal(Value::text("SkyCam")))
                .and(
                    ScalarExpr::named(&schema, None, "funding")
                        .unwrap()
                        .lt(ScalarExpr::literal(Value::Real(900_000.0))),
                ),
        );
        let phys = lower(&plan, &catalog).unwrap();
        let text = phys.to_string();
        assert!(
            text.contains("IndexScan Proposal (company = 'SkyCam') [filter:"),
            "got:\n{text}"
        );
        let logical = execute(&plan, &catalog).unwrap();
        let physical = vexec(&phys, &catalog);
        assert_eq!(logical.rows(), physical.rows());
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
        let logical = execute(&plan, &c).unwrap();
        assert_eq!(logical.len(), 1);
        assert_eq!(logical.rows(), vexec(&phys, &c).rows());
    }

    #[test]
    fn large_equi_join_lowers_to_hash_join_and_matches() {
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
        for i in 0..120i64 {
            c.insert("a", vec![Value::Int(i % 17), Value::Int(i)], 0.5)
                .unwrap();
            c.insert("b", vec![Value::Int(i % 11), Value::Int(i * 2)], 0.5)
                .unwrap();
        }
        let plan = Plan::scan("a").join(
            Plan::scan("b"),
            ScalarExpr::column(0)
                .eq(ScalarExpr::column(2))
                .and(ScalarExpr::column(3).lt(ScalarExpr::literal(Value::Int(100)))),
        );
        let phys = lower(&plan, &c).unwrap();
        assert!(phys.to_string().contains("HashJoin"), "got:\n{phys}");
        let logical = execute(&plan, &c).unwrap();
        for workers in [1usize, 4] {
            let par = Parallelism {
                worker_threads: Some(workers),
                parallel_threshold: 1,
            };
            let physical = execute_vectorized_with(&phys, &c, &par).unwrap();
            assert_eq!(logical.rows(), physical.rows(), "workers={workers}");
        }
    }

    /// An index join renders as one line naming the table, alias and
    /// indexed column, with the probe side as its only child — in the
    /// plan's `Display`, in the side-by-side view and in the rendered
    /// profile, which all take the line from `node_label`.
    #[test]
    fn index_join_renders_and_profiles_line_for_line() {
        let mut c = Catalog::new();
        for name in ["a", "b"] {
            let columns = vec![
                Column::new("k", DataType::Int),
                Column::new("x", DataType::Int),
            ];
            c.create_table(name, Schema::new(columns).unwrap()).unwrap();
        }
        c.create_index("b", "k").unwrap();
        for i in 0..120i64 {
            c.insert("a", vec![Value::Int(i % 17), Value::Int(i)], 0.5)
                .unwrap();
            c.insert("b", vec![Value::Int(i % 11), Value::Int(i * 2)], 0.5)
                .unwrap();
        }
        let plan = Plan::scan("a").join(
            Plan::scan_as("b", "bb"),
            ScalarExpr::column(0)
                .eq(ScalarExpr::column(2))
                .and(ScalarExpr::column(3).lt(ScalarExpr::literal(Value::Int(100)))),
        );
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
        let logical = execute(&plan, &c).unwrap();
        let (rs, profile) =
            execute_vectorized_profiled(&phys, &c, &Parallelism::sequential(), None).unwrap();
        assert_eq!(logical.rows(), rs.rows());
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
        assert_eq!(profile.operators[0].rows_out, logical.len() as u64);
    }

    #[test]
    fn physical_profile_zips_with_physical_display() {
        let catalog = paper_db();
        let plan = optimize(&paper_plan(&catalog), &catalog).unwrap();
        let phys = lower(&plan, &catalog).unwrap();
        let (rs, profile) =
            execute_vectorized_profiled(&phys, &catalog, &Parallelism::sequential(), None).unwrap();
        // Result-neutral: profiling yields the reference's rows.
        assert_eq!(rs.rows(), execute(&plan, &catalog).unwrap().rows());
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
    fn union_difference_sort_limit_aggregate_match_logical() {
        use crate::plan::{AggFunc, AggItem, SortKey};
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        c.create_table("a", schema.clone()).unwrap();
        c.create_table("b", schema).unwrap();
        for i in 0..20i64 {
            c.insert("a", vec![Value::Int(i % 7)], 0.5).unwrap();
            if i % 2 == 0 {
                c.insert("b", vec![Value::Int(i % 5)], 0.5).unwrap();
            }
        }
        let union = Plan::scan("a").union(Plan::scan("b"));
        let diff = Plan::scan("a").difference(Plan::scan("b"));
        let sorted = Plan::scan("a")
            .sort(vec![SortKey {
                expr: ScalarExpr::column(0),
                descending: true,
            }])
            .limit(5);
        let agg = Plan::scan("a").aggregate(
            vec![ProjItem::new(ScalarExpr::column(0), "x")],
            vec![AggItem {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        );
        for plan in [union, diff, sorted, agg] {
            let logical = execute(&plan, &c).unwrap();
            let phys = lower(&plan, &c).unwrap();
            let physical = vexec(&phys, &c);
            assert_eq!(logical.rows(), physical.rows(), "plan:\n{plan}");
        }
    }
}
