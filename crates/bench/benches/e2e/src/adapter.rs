//! The staged replay: the same pipeline `Database` runs, taken apart into
//! its stages and driven through the crates' public functions, with one
//! benchmark span around each call. This is the only file that names an
//! engine-internal symbol; when the engine's surface changes (ROADMAP
//! item 2), this is the file to edit.
//!
//! Engine symbols called here:
//!
//! * `pcqe_storage` — `Catalog::{new, create_table, insert, create_index,
//!   confidence, raise_confidence}`, `Schema::new`
//! * `pcqe_policy` — `PolicyStore::{new, add, select}`, `evaluate_results`
//! * `pcqe_sql` — `parse`, `plan_query`
//! * `pcqe_algebra` — `optimize`, `lower`, `execute_vectorized_profiled`,
//!   `execute_vectorized_with`, `ResultSet::{rows, score_gated_cached,
//!   score_cached, rescore_exact_cached}`, `ExecProfile`
//! * `pcqe_lineage` — `CircuitCache::{new, set_prob, stats, pool_size}`,
//!   `Lineage::{vars, contains_not}`
//! * `pcqe_core` — `ProblemBuilder::{new, lineage_budget, base,
//!   result_from_lineage_cached, require, build}`, `greedy::solve`,
//!   `heuristic::solve`, `dnc::solve`, `multi::{MultiQueryProblem::merge,
//!   solve_greedy}`, `Solution::increments`
//! * `pcqe_engine` — `EngineConfig` (read only: `evaluator`, `delta`,
//!   `default_cost`, `lineage_budget`, `parallelism()`), `ReleasedTuple`
//!
//! Which solver a θ-miss gets is decided by the op's class, i.e. by how the
//! workload built the instance — the engine's `Auto` size thresholds are
//! not repeated here. `engine.strategy_path_ms` is measured through
//! `Database::query` alone and stays right if that dispatch changes.

use crate::check::ReplyView;
use crate::spans::Spans;
use crate::workload::{Class, Row, TableSpec};
use pcqe_algebra::{
    execute_vectorized_profiled, execute_vectorized_with, lower, optimize, ExecProfile, ResultSet,
    ScoredTuple,
};
use pcqe_core::dnc::{self, DncOptions};
use pcqe_core::greedy::{self, GreedyOptions};
use pcqe_core::heuristic::{self, HeuristicOptions};
use pcqe_core::multi::{self, MultiQueryProblem};
use pcqe_core::{ProblemBuilder, ProblemInstance};
use pcqe_engine::{EngineConfig, QueryRequest, ReleasedTuple};
use pcqe_lineage::{CircuitCache, VarId};
use pcqe_par::Parallelism;
use pcqe_policy::{evaluate_results, ConfidencePolicy, PolicyStore, Purpose, Role};
use pcqe_storage::{Catalog, Schema, TupleId};
use std::collections::{BTreeMap, BTreeSet};

/// The staged pipeline's answer to one request.
pub struct Reply {
    /// Rows above β, materialized as `Database` materializes them.
    pub released: Vec<ReleasedTuple>,
    /// Rows withheld.
    pub withheld: usize,
}

impl Reply {
    /// The reply as the shared checks see it.
    pub fn view(&self) -> ReplyView<'_> {
        ReplyView {
            released: self
                .released
                .iter()
                .map(|r| (r.tuple.values(), r.confidence))
                .collect(),
            withheld: self.withheld,
        }
    }
}

/// Work counts taken at the stage boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Plans executed.
    pub executions: u64,
    /// Rows the plans' root operators produced.
    pub rows_out: u64,
    /// Rows the plans' leaf operators read from storage.
    pub rows_scanned: u64,
    /// Lineage nodes across the produced rows.
    pub lineage_nodes: u64,
    /// Rows handed to gated scoring.
    pub rows_scored: u64,
    /// Of those, rows the β bound short-circuited.
    pub exact_skipped: u64,
    /// Memos dropped by the probability sync of a re-query after `apply`.
    pub invalidated_after_apply: u64,
    /// Strategy problems built.
    pub problems: u64,
    /// Base tuples across those problems.
    pub bases: u64,
    /// Greedy phase-1 iterations (greedy, D&C top-up, multi-query).
    pub greedy_iterations: u64,
    /// Branch-and-bound nodes (heuristic, D&C groups).
    pub heuristic_nodes: u64,
}

/// The pipeline state `Database` owns, held stage by stage.
pub struct Staged {
    catalog: Catalog,
    policies: PolicyStore,
    cache: CircuitCache,
    config: EngineConfig,
    par: Parallelism,
    role: Role,
    purpose: Purpose,
    /// Counts so far.
    pub counters: Counters,
}

type Staging<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The executed and scored rows of one request, before materializing.
struct Gated {
    policy: ConfidencePolicy,
    scored: Vec<ScoredTuple>,
    released: Vec<usize>,
    withheld: Vec<usize>,
}

impl Staged {
    /// An empty pipeline under `config` for `role`/`purpose`.
    pub fn new(config: EngineConfig, role: &str, purpose: &str) -> Staged {
        Staged {
            catalog: Catalog::new(),
            policies: PolicyStore::new(),
            cache: CircuitCache::new(),
            par: config.parallelism(),
            config,
            role: Role::from(role),
            purpose: Purpose::from(purpose),
            counters: Counters::default(),
        }
    }

    /// Create, load and index `tables`, and add the policy — the same
    /// order as the end-to-end side, so tuple ids agree.
    pub fn load(
        &mut self,
        spans: &mut Spans,
        tables: &[TableSpec],
        rows: &[Row],
        beta: f64,
    ) -> Staging<()> {
        for table in tables {
            let schema = Schema::new(table.columns.clone()).map_err(err)?;
            self.catalog.create_table(table.name, schema).map_err(err)?;
        }
        for row in rows {
            self.insert(spans, row)?;
        }
        for table in tables {
            for column in &table.indexes {
                spans
                    .time("storage.index_build", || {
                        self.catalog.create_index(table.name, column)
                    })
                    .map_err(err)?;
            }
        }
        let policy = ConfidencePolicy::new(self.role.clone(), self.purpose.clone(), beta);
        self.policies.add(policy.map_err(err)?);
        Ok(())
    }

    /// `Database::insert`.
    pub fn insert(&mut self, spans: &mut Spans, row: &Row) -> Staging<TupleId> {
        let values = row.values.clone();
        spans
            .time("storage.insert", || {
                self.catalog.insert(row.table, values, row.confidence)
            })
            .map_err(err)
    }

    /// `Database::apply`.
    pub fn apply(&mut self, spans: &mut Spans, increments: &[(TupleId, f64)]) -> Staging<()> {
        spans.time("storage.apply", || {
            for &(id, to) in increments {
                self.catalog.raise_confidence(id, to).map_err(err)?;
            }
            Ok(())
        })
    }

    /// Circuit-pool size, for `lineage.pool_nodes_end`.
    pub fn pool_nodes(&self) -> usize {
        self.cache.pool_size()
    }

    /// Cumulative circuit-cache activity.
    pub fn cache_stats(&self) -> pcqe_lineage::CacheStats {
        self.cache.stats()
    }

    /// parse → plan → optimize → lower → execute. `profiled` mirrors the
    /// recording `Database::query`/`query_batch`, which run the profiled
    /// executor; `what_if` runs the plain one.
    fn execute(&mut self, spans: &mut Spans, sql: &str, profiled: bool) -> Staging<ResultSet> {
        let catalog = &self.catalog;
        let ast = spans
            .time("sql.parse", || pcqe_sql::parse(sql))
            .map_err(err)?;
        let plan = spans
            .time("sql.plan", || pcqe_sql::plan_query(&ast, catalog))
            .map_err(err)?;
        let plan = spans
            .time("algebra.optimize", || optimize(&plan, catalog))
            .map_err(err)?;
        let physical = spans
            .time("algebra.lower", || lower(&plan, catalog))
            .map_err(err)?;
        let result_set = if profiled {
            let (result_set, profile) = spans
                .time("algebra.execute", || {
                    execute_vectorized_profiled(&physical, catalog, &self.par, None)
                })
                .map_err(err)?;
            self.count_profile(&profile);
            result_set
        } else {
            spans
                .time("algebra.execute", || {
                    execute_vectorized_with(&physical, catalog, &self.par)
                })
                .map_err(err)?
        };
        Ok(result_set)
    }

    fn count_profile(&mut self, profile: &ExecProfile) {
        let ops = &profile.operators;
        self.counters.executions += 1;
        if let Some(root) = ops.first() {
            self.counters.rows_out += root.rows_out;
            self.counters.lineage_nodes += root.lineage_nodes;
        }
        // Pre-order: an operator is a leaf when the next one is not deeper.
        for (i, op) in ops.iter().enumerate() {
            if ops.get(i + 1).is_none_or(|next| next.depth <= op.depth) {
                self.counters.rows_scanned += op.rows_in;
            }
        }
    }

    /// The `set_prob` sweep before cached scoring; returns how many memos
    /// it invalidated.
    fn sync_probs(
        &mut self,
        spans: &mut Spans,
        result_set: &ResultSet,
        overrides: &BTreeMap<TupleId, f64>,
    ) -> u64 {
        let (catalog, cache) = (&self.catalog, &mut self.cache);
        let before = cache.stats().invalidated;
        spans.time("lineage.sync_probs", || {
            for row in result_set.rows() {
                for v in row.lineage.vars() {
                    let id = TupleId(v.0);
                    let p = overrides
                        .get(&id)
                        .copied()
                        .or_else(|| catalog.confidence(id));
                    if let Some(p) = p {
                        cache.set_prob(v, p);
                    }
                }
            }
        });
        self.cache.stats().invalidated - before
    }

    fn select(&self, spans: &mut Spans) -> Staging<ConfidencePolicy> {
        spans
            .time("policy.select", || {
                self.policies.select(&self.role, &self.purpose).cloned()
            })
            .map_err(err)
    }

    fn gate(spans: &mut Spans, policy: ConfidencePolicy, scored: Vec<ScoredTuple>) -> Gated {
        let decision = spans.time("policy.gate", || {
            let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
            evaluate_results(&policy, &confidences)
        });
        Gated {
            policy,
            scored,
            released: decision.released,
            withheld: decision.withheld,
        }
    }

    fn materialize(spans: &mut Spans, gated: &Gated) -> Reply {
        let released = spans.time("engine.materialize", || {
            gated
                .released
                .iter()
                .map(|&i| {
                    let s = &gated.scored[i];
                    ReleasedTuple {
                        tuple: s.tuple.clone(),
                        lineage: s.lineage.clone(),
                        confidence: s.confidence,
                    }
                })
                .collect()
        });
        Reply {
            released,
            withheld: gated.withheld.len(),
        }
    }

    /// `ProblemBuilder` from the withheld rows' lineage, as
    /// `improve::build_instance` assembles it.
    fn build_problem(
        &mut self,
        spans: &mut Spans,
        gated: &Gated,
        needed: usize,
    ) -> Staging<ProblemInstance> {
        let (catalog, cache, config) = (&self.catalog, &mut self.cache, &self.config);
        let problem = spans.time("core.build_problem", || {
            let withheld: Vec<&ScoredTuple> =
                gated.withheld.iter().map(|&i| &gated.scored[i]).collect();
            if withheld.iter().any(|s| s.lineage.contains_not()) {
                return Err("the workloads build monotone lineage only".to_owned());
            }
            let mut builder = ProblemBuilder::new(gated.policy.threshold, config.delta)
                .lineage_budget(config.lineage_budget);
            let mut seen = BTreeSet::new();
            for s in &withheld {
                for VarId(v) in s.lineage.vars() {
                    if seen.insert(v) {
                        let initial = catalog
                            .confidence(TupleId(v))
                            .ok_or("lineage names an unknown tuple")?;
                        builder.base(v, initial, config.default_cost.clone());
                    }
                }
            }
            for s in &withheld {
                builder
                    .result_from_lineage_cached(&s.lineage, cache)
                    .map_err(err)?;
            }
            builder.require(needed).build().map_err(err)
        })?;
        self.counters.problems += 1;
        self.counters.bases += problem.bases.len() as u64;
        Ok(problem)
    }

    fn greedy_options(&self) -> GreedyOptions {
        GreedyOptions {
            parallelism: self.par.clone(),
            ..GreedyOptions::default()
        }
    }

    /// Run the solver of the op's regime, with the options the engine
    /// gives it, and turn the solution into increments as the engine does.
    /// Nothing is returned: both sides of a traced run apply the engine's
    /// proposal, so that they stay in step whatever either one solved.
    fn solve(&mut self, spans: &mut Spans, class: Class, problem: &ProblemInstance) -> Staging<()> {
        let greedy_options = self.greedy_options();
        let counters = &mut self.counters;
        let solution = match class {
            Class::MissSmall => spans.time("core.solve_heuristic", || {
                let seed = greedy::solve(problem, &greedy_options).map_err(err)?;
                counters.greedy_iterations += seed.stats.iterations;
                let options = HeuristicOptions {
                    node_limit: Some(2_000_000),
                    ..HeuristicOptions::all().with_seed(seed.solution)
                };
                let out = heuristic::solve(problem, &options).map_err(err)?;
                counters.heuristic_nodes += out.stats.nodes;
                Ok::<_, String>(out.solution)
            }),
            Class::MissLarge => spans.time("core.solve_dnc", || {
                let options = DncOptions {
                    greedy: greedy_options,
                    ..DncOptions::default()
                };
                let out = dnc::solve(problem, &options).map_err(err)?;
                counters.greedy_iterations += out.stats.greedy.iterations;
                counters.heuristic_nodes += out.stats.bb_nodes;
                Ok(out.solution)
            }),
            _ => spans.time("core.solve_greedy", || {
                let out = greedy::solve(problem, &greedy_options).map_err(err)?;
                counters.greedy_iterations += out.stats.iterations;
                Ok(out.solution)
            }),
        }?;
        spans.time("core.increments", || {
            std::hint::black_box(solution.increments(problem));
        });
        Ok(())
    }

    /// `Database::query`, stage by stage. When fewer than θ of the rows are
    /// released, strategy finding runs with the solver of `class`'s regime.
    pub fn query(
        &mut self,
        spans: &mut Spans,
        class: Class,
        request: &QueryRequest,
    ) -> Staging<Reply> {
        let policy = self.select(spans)?;
        let result_set = self.execute(spans, &request.sql, true)?;
        let invalidated = self.sync_probs(spans, &result_set, &BTreeMap::new());
        let (cache, evaluator) = (&mut self.cache, &self.config.evaluator);
        let scored = spans
            .time("algebra.score", || {
                result_set.score_gated_cached(cache, evaluator, policy.threshold)
            })
            .map_err(err)?;
        self.counters.rows_scored += scored.scored.len() as u64;
        self.counters.exact_skipped += scored.exact_skipped as u64;
        if class == Class::Requery {
            // Nothing else has moved a confidence since the `apply`.
            self.counters.invalidated_after_apply += invalidated;
        }
        let mut gated = Staged::gate(spans, policy, scored.scored);
        let reply = Staged::materialize(spans, &gated);

        let requested = (request.min_fraction * gated.scored.len() as f64).ceil() as usize;
        if reply.released.len() >= requested {
            return Ok(reply);
        }
        // Improvement inputs must be exact: short-circuited rows are
        // re-scored before the problem is built.
        let (cache, evaluator) = (&mut self.cache, &self.config.evaluator);
        spans
            .time("algebra.rescore_exact", || {
                ResultSet::rescore_exact_cached(
                    &mut gated.scored,
                    &scored.skipped,
                    cache,
                    evaluator,
                )
            })
            .map_err(err)?;
        let problem = self.build_problem(spans, &gated, requested - reply.released.len())?;
        self.solve(spans, class, &problem)?;
        Ok(reply)
    }

    /// `Database::what_if`: the request re-evaluated with `overrides`
    /// substituted for the catalog's confidences.
    pub fn what_if(
        &mut self,
        spans: &mut Spans,
        request: &QueryRequest,
        overrides: &[(TupleId, f64)],
    ) -> Staging<Reply> {
        let result_set = self.execute(spans, &request.sql, false)?;
        let overrides: BTreeMap<TupleId, f64> = overrides.iter().copied().collect();
        self.sync_probs(spans, &result_set, &overrides);
        let scored = self.score_exact(spans, &result_set)?;
        let policy = self.select(spans)?;
        let gated = Staged::gate(spans, policy, scored);
        Ok(Staged::materialize(spans, &gated))
    }

    fn score_exact(
        &mut self,
        spans: &mut Spans,
        result_set: &ResultSet,
    ) -> Staging<Vec<ScoredTuple>> {
        let (cache, evaluator) = (&mut self.cache, &self.config.evaluator);
        spans
            .time("algebra.score", || {
                result_set.score_cached(cache, evaluator)
            })
            .map_err(err)
    }

    /// `Database::query_batch`: every request evaluated with exact
    /// scoring, then one combined strategy over the merged instances.
    pub fn batch(&mut self, spans: &mut Spans, requests: &[QueryRequest]) -> Staging<Vec<Reply>> {
        let mut replies = Vec::with_capacity(requests.len());
        let mut instances = Vec::new();
        for request in requests {
            let result_set = self.execute(spans, &request.sql, true)?;
            self.sync_probs(spans, &result_set, &BTreeMap::new());
            let scored = self.score_exact(spans, &result_set)?;
            let policy = self.select(spans)?;
            let gated = Staged::gate(spans, policy, scored);
            let reply = Staged::materialize(spans, &gated);
            let requested = (request.min_fraction * gated.scored.len() as f64).ceil() as usize;
            if let Some(shortfall) = requested.checked_sub(reply.released.len()) {
                if shortfall > 0 {
                    instances.push(self.build_problem(spans, &gated, shortfall)?);
                }
            }
            replies.push(reply);
        }
        let options = self.greedy_options();
        let counters = &mut self.counters;
        spans.time("core.solve_multi", || {
            let merged = MultiQueryProblem::merge(&instances).map_err(err)?;
            let out = multi::solve_greedy(&merged, &options).map_err(err)?;
            counters.greedy_iterations += out.stats.iterations;
            Ok::<_, String>(())
        })?;
        Ok(replies)
    }
}
