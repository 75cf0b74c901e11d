//! The `Database` façade: storage + policies + query pipeline.

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::improve::{self, ProposeOutcome};
use crate::plans::PlanCache;
use crate::response::{NoProposal, QueryResponse, ReleasedTuple};
use crate::Result;
use pcqe_algebra::{
    execute_vectorized_profiled, execute_vectorized_with, ExecProfile, GatedScore, PhysicalPlan,
    ResultSet, ScoredTuple,
};
use pcqe_cost::CostFn;
use pcqe_obs::clock::{Clock, SystemClock};
use pcqe_par::{ConfidencePath, Decision, Observer, Parallelism, Span};
use pcqe_policy::{evaluate_results, ConfidencePolicy, PolicyStore, Purpose, Role};
use pcqe_provenance::{Assigner, ProvenanceRecord};
use pcqe_storage::{Catalog, Schema, TupleId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A user: a name and the role under which policies are selected.
#[derive(Debug, Clone, PartialEq)]
pub struct User {
    /// Display name, shared with every audit entry of the user's queries.
    pub name: Arc<str>,
    /// RBAC role.
    pub role: Role,
}

impl User {
    /// Create a user with a role.
    pub fn new(name: impl Into<String>, role: impl Into<Role>) -> User {
        User {
            name: Arc::from(name.into()),
            role: role.into(),
        }
    }
}

/// The user's query input ⟨Q, pu, perc⟩ (Section 3.2).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The SQL text `Q`.
    pub sql: String,
    /// The stated purpose `pu`.
    pub purpose: Purpose,
    /// The fraction of results the user expects to receive (`perc`, the
    /// paper's θ). Defaults to 1.0. The engine reads it clamped into
    /// [0, 1], NaN as 0, so a value set by hand means what
    /// [`QueryRequest::expecting`] would have stored.
    pub min_fraction: f64,
}

impl QueryRequest {
    /// A request expecting every result to be released.
    pub fn new(sql: impl Into<String>, purpose: impl Into<Purpose>) -> QueryRequest {
        QueryRequest {
            sql: sql.into(),
            purpose: purpose.into(),
            min_fraction: 1.0,
        }
    }

    /// Set the expected released fraction θ.
    pub fn expecting(mut self, fraction: f64) -> QueryRequest {
        self.min_fraction = theta(fraction);
        self
    }
}

/// A requested fraction as the engine reads it: clamped into [0, 1], with
/// NaN read as 0.
fn theta(fraction: f64) -> f64 {
    if fraction.is_nan() {
        0.0
    } else {
        fraction.clamp(0.0, 1.0)
    }
}

/// The outcome of a statement executed via [`Database::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutcome {
    /// A table was created.
    TableCreated,
    /// An index exists on the column at this position.
    IndexCreated(usize),
    /// Rows were inserted, with their new tuple ids.
    Inserted(Vec<TupleId>),
    /// The text `EXPLAIN [ANALYZE]` renders.
    Explained(String),
}

/// A PCQE database: confidence-carrying tables, confidence policies, cost
/// functions, and the query/improve/apply loop of Figure 1.
#[derive(Debug)]
pub struct Database {
    pub(crate) catalog: Catalog,
    pub(crate) policies: PolicyStore,
    pub(crate) costs: BTreeMap<TupleId, CostFn>,
    config: EngineConfig,
    assigner: Assigner,
    audit: Vec<crate::audit::AuditEntry>,
    /// Shared so [`Database::query`] can hold its lifecycle spans across
    /// `&mut self` pipeline calls.
    recorder: Arc<pcqe_obs::Recorder>,
    /// Causal tracer for [`Database::trace_query`]. Disabled at rest —
    /// every instrumentation point then costs one relaxed atomic load —
    /// and shares the recorder's clock so span timestamps and metric
    /// timings never drift apart.
    tracer: Arc<pcqe_obs::Tracer>,
    version: u64,
    /// The shared circuit pool every scoring pass and strategy-problem
    /// build goes through (DESIGN.md §10). Each public call that scores
    /// (`query`, `what_if`, `query_batch`) opens with
    /// [`pcqe_lineage::CircuitCache::begin_call`], which starts a pool
    /// past its fixed node floor over, so the pool stays bounded; no
    /// circuit handle outlives the call that took it. Probabilities are
    /// re-synced from the catalog (or what-if overrides) before every
    /// scoring pass, so neither a start-over nor an `apply` leaves a stale
    /// value behind.
    cache: pcqe_lineage::CircuitCache,
    /// Lowered plans by query shape, emptied by DDL (DESIGN.md §9).
    plans: PlanCache,
}

impl Database {
    /// Create an empty database.
    pub fn new(config: EngineConfig) -> Database {
        Database::with_clock(config, Arc::new(SystemClock))
    }

    /// Create an empty database whose recorder *and* tracer read the given
    /// clock. Tests pass a [`pcqe_obs::clock::ManualClock`] here so both
    /// metric timings and trace timestamps are fully scripted — the
    /// byte-stable trace goldens in `tests/golden/` depend on it.
    pub fn with_clock(config: EngineConfig, clock: Arc<dyn Clock + Send + Sync>) -> Database {
        Database::with_tracer(
            config,
            pcqe_obs::Tracer::with_clock(clock, pcqe_obs::trace::DEFAULT_TRACE_CAPACITY),
        )
    }

    /// Create an empty database around a caller-built tracer (left
    /// disabled at rest); the recorder shares its clock. For callers whose
    /// traced result sets outgrow the default event buffer.
    pub fn with_tracer(config: EngineConfig, tracer: pcqe_obs::Tracer) -> Database {
        let recorder = pcqe_obs::Recorder::with_clock(tracer.clock().clone());
        let tracer = Arc::new(tracer);
        tracer.set_enabled(false);
        let mut cache = pcqe_lineage::CircuitCache::new();
        cache.set_trace(Some(tracer.clone()));
        Database {
            catalog: Catalog::new(),
            policies: PolicyStore::new(),
            costs: BTreeMap::new(),
            config,
            assigner: Assigner::default(),
            audit: Vec::new(),
            recorder: Arc::new(recorder),
            tracer,
            version: 0,
            cache,
            plans: PlanCache::default(),
        }
    }

    /// Create a table.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        self.catalog.create_table(name, schema)?;
        self.plans.clear();
        Ok(())
    }

    /// Insert a row with an explicit confidence (Figure 1's confidence-
    /// assignment component, when the caller already knows the value).
    pub fn insert(&mut self, table: &str, values: Vec<Value>, confidence: f64) -> Result<TupleId> {
        let id = self.catalog.insert(table, values, confidence)?;
        self.version += 1;
        Ok(id)
    }

    /// Create an equality index on `table.column` (INT/TEXT/BOOL columns
    /// only). Indexes are maintained on every insert, saved and restored
    /// by [`crate::persist`], and change only the *access paths* and join
    /// strategies chosen by the physical planner — never query results.
    /// Returns the indexed column's position. Idempotent: re-creating an
    /// index changes nothing, and keeps every cached plan.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<usize> {
        let indexes = self.catalog.table(table)?.indexes().len();
        let pos = self.catalog.create_index(table, column)?;
        if self.catalog.table(table)?.indexes().len() > indexes {
            self.plans.clear();
        }
        Ok(pos)
    }

    /// Insert a row whose confidence is assessed from provenance records.
    pub fn insert_assessed(
        &mut self,
        table: &str,
        values: Vec<Value>,
        provenance: &[ProvenanceRecord],
    ) -> Result<TupleId> {
        let confidence = self.assigner.assess(provenance)?;
        self.insert(table, values, confidence)
    }

    /// Attach a cost function to a base tuple (tuples without one use
    /// [`EngineConfig::default_cost`]).
    pub fn set_cost(&mut self, id: TupleId, cost: CostFn) -> Result<()> {
        if self.catalog.find_tuple(id).is_none() {
            return Err(pcqe_storage::StorageError::UnknownTuple(id.0).into());
        }
        self.costs.insert(id, cost);
        Ok(())
    }

    /// Add a confidence policy.
    pub fn add_policy(&mut self, policy: ConfidencePolicy) {
        self.policies.add(policy);
    }

    /// Declare that `senior` inherits policies from `junior`.
    pub fn add_role_inheritance(&mut self, senior: &Role, junior: &Role) -> Result<()> {
        self.policies.hierarchy_mut().add(senior, junior)?;
        Ok(())
    }

    /// Declare that queries for `specialised` fall under policies written
    /// for `general` (purpose specialisation).
    pub fn add_purpose_specialisation(
        &mut self,
        specialised: &Purpose,
        general: &Purpose,
    ) -> Result<()> {
        self.policies.purposes_mut().add(specialised, general)?;
        Ok(())
    }

    /// The underlying catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current confidence of a base tuple.
    pub fn confidence(&self, id: TupleId) -> Option<f64> {
        self.catalog.confidence(id)
    }

    /// The append-only audit trail of policy decisions and applied
    /// improvements.
    pub fn audit_log(&self) -> &[crate::audit::AuditEntry] {
        &self.audit
    }

    /// The metrics recorder. Recording starts out on and is switched with
    /// [`pcqe_obs::Recorder::set_enabled`]; it never changes query
    /// answers, proposals, or the audit trail.
    pub fn recorder(&self) -> &pcqe_obs::Recorder {
        &self.recorder
    }

    /// The causal tracer behind [`Database::trace_query`]. Disabled at
    /// rest; enabling it by hand records events from ordinary
    /// [`Database::query`] calls too (drain with
    /// [`pcqe_obs::Tracer::drain`]). Like the recorder, it is write-only:
    /// toggling it never changes query answers, proposals, or the audit
    /// trail.
    pub fn tracer(&self) -> &pcqe_obs::Tracer {
        &self.tracer
    }

    /// A point-in-time snapshot of every metric recorded so far. The
    /// `policy.released` / `policy.withheld` counters are running totals
    /// of exactly the per-query counts in [`Database::audit_log`], and
    /// `improvement.applied` / `improvement.tuples` mirror its
    /// improvement entries (while recording is enabled).
    pub fn metrics_snapshot(&self) -> pcqe_obs::MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// True when metric recording is active.
    fn recording(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Push a query audit entry and put its counts, with the circuit
    /// cache's activity since the last decision, in the query's tally —
    /// so `metrics_snapshot()` and `audit_log()` agree by construction.
    /// The cache is drained whether or not anyone records, so toggling
    /// metrics never changes what a later snapshot attributes to a query.
    fn record_decision(
        &mut self,
        user: &User,
        request: &QueryRequest,
        response: &QueryResponse,
        tally: &mut Tally,
    ) {
        tally.cache = Some(self.cache.take_stats());
        let (released, withheld) = (response.released.len(), response.withheld);
        let proposed = response.proposal.is_some();
        tally.decision = Some((released as u64, withheld as u64, proposed));
        self.audit.push(crate::audit::AuditEntry::Query {
            user: Arc::clone(&user.name),
            role: user.role.shared_name(),
            purpose: request.purpose.shared_name(),
            threshold: response.threshold,
            released,
            withheld,
            proposed,
        });
    }

    /// Push an improvement audit entry and mirror it into the recorder.
    fn record_improvement(&mut self, tuples: usize, cost: f64) {
        if self.recording() {
            self.recorder.counter_add("improvement.applied", 1);
            self.recorder
                .counter_add("improvement.tuples", tuples as u64);
        }
        self.audit
            .push(crate::audit::AuditEntry::Improvement { tuples, cost });
    }

    /// Execute a statement that needs no user: `CREATE TABLE`,
    /// `CREATE INDEX ON t (c)` ([`Database::create_index`]), `INSERT …
    /// [WITH CONFIDENCE c]`, or `EXPLAIN [ANALYZE] <query>`. `EXPLAIN`
    /// renders the logical and physical plans side by side; `EXPLAIN
    /// ANALYZE` runs the physical plan and annotates each operator with
    /// its observed counts, without scoring, gating or recording anything.
    /// Either shows the physical plan a query of its shape runs: the
    /// statement cache's, bound to its literals, where there is one (it
    /// neither fills the cache nor counts a hit or miss).
    /// Queries must go through [`Database::query`] since they need a user
    /// and purpose; passing one here returns an error.
    pub fn execute(&mut self, sql: &str) -> Result<StatementOutcome> {
        match pcqe_sql::parse_statement(sql)? {
            pcqe_sql::Statement::Explain { analyze, query } => {
                let plan = self.plan(&query)?;
                let shape = pcqe_sql::Shape::explained(sql)?;
                let phys = match self.plans.bound(&shape) {
                    Some(cached) => cached,
                    None => Arc::new(pcqe_algebra::lower(&plan, &self.catalog)?),
                };
                Ok(StatementOutcome::Explained(if analyze {
                    self.run_plan(&phys, Some(&()))?.1.render(&phys)
                } else {
                    pcqe_algebra::render_side_by_side(&plan, &phys)
                }))
            }
            pcqe_sql::Statement::CreateIndex { table, column } => Ok(
                StatementOutcome::IndexCreated(self.create_index(&table, &column)?),
            ),
            pcqe_sql::Statement::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|c| pcqe_storage::Column::new(c.name, c.data_type))
                    .collect();
                self.create_table(name, Schema::new(cols)?)?;
                Ok(StatementOutcome::TableCreated)
            }
            pcqe_sql::Statement::Insert {
                table,
                rows,
                confidence,
            } => {
                let confidence = confidence.unwrap_or(1.0);
                // All or nothing: every row is checked once, against the
                // id it will take, before the first is written, so a
                // refused statement (the error is that of its first
                // offending row) leaves no row, id or index posting behind.
                let rows = rows.iter().map(|row| {
                    let values = pcqe_sql::literal_row(row)?;
                    Ok::<_, EngineError>((None, values, confidence))
                });
                let ids = self.catalog.insert_all(&table, rows)?;
                self.version += ids.len() as u64;
                Ok(StatementOutcome::Inserted(ids))
            }
            pcqe_sql::Statement::Query(_) => Err(EngineError::Sql(pcqe_sql::SqlError::Parse {
                pos: 0,
                message: "queries need a user and purpose; use Database::query".into(),
            })),
        }
    }

    /// Plan and optimise a parsed query.
    fn plan(&self, query: &pcqe_sql::ast::Query) -> Result<pcqe_algebra::Plan> {
        let plan = pcqe_sql::plan_query(query, &self.catalog)?;
        Ok(pcqe_algebra::optimize(&plan, &self.catalog)?)
    }

    /// Plan, optimise and lower a parsed query.
    fn lower(&self, query: &pcqe_sql::ast::Query) -> Result<PhysicalPlan> {
        Ok(pcqe_algebra::lower(&self.plan(query)?, &self.catalog)?)
    }

    /// The statement cache's plan for `sql`, of `shape`, bound to its
    /// literals; `None` on a miss. A shape that ran once is learned here,
    /// from the lowering of a copy whose slots hold sentinels.
    fn cached(&mut self, sql: &str, shape: &pcqe_sql::Shape) -> Option<Arc<PhysicalPlan>> {
        if self.plans.seen(shape) {
            let sentinels = pcqe_sql::parse_sentinels(sql).ok();
            let sentinels = sentinels.and_then(|query| self.lower(&query).ok());
            self.plans.learn(shape, sentinels);
        }
        self.plans.bound(shape)
    }

    /// A statement-cache miss: parse, plan, optimise and lower `sql`, of
    /// `shape`, and let the cache keep the plan it ran. An error on the
    /// way is the query's own, and leaves nothing cached.
    fn plan_afresh(&mut self, sql: &str, shape: &pcqe_sql::Shape) -> Result<Arc<PhysicalPlan>> {
        let fresh = Arc::new(self.lower(&pcqe_sql::parse(sql)?)?);
        self.plans.saw(shape, &fresh);
        Ok(fresh)
    }

    /// Run a lowered query on the vectorized executor, on the calling
    /// thread. The per-operator profile is collected (and the listener fed)
    /// only when a listener is attached; otherwise the profile comes back
    /// empty.
    fn run_plan(
        &self,
        phys: &PhysicalPlan,
        listener: Option<&dyn Observer>,
    ) -> Result<(ResultSet, ExecProfile)> {
        let par = Parallelism::sequential();
        Ok(match listener {
            Some(_) => execute_vectorized_profiled(phys, &self.catalog, &par, listener)?,
            None => (
                execute_vectorized_with(phys, &self.catalog, &par)?,
                ExecProfile::default(),
            ),
        })
    }

    /// The one query pipeline (Figure 1, steps 1–4): select the policy,
    /// plan, execute, sync probabilities into the circuit pool, score,
    /// gate, and move the released rows into the response. [`Database::query`],
    /// [`Database::query_batch`] and [`Database::what_if`] all evaluate
    /// through here; `stage` carries what differs between them, and the
    /// execution profile's counts go to `tally` when the recorder listens.
    fn evaluate(
        &mut self,
        user: &User,
        request: &QueryRequest,
        stage: &Stage<'_>,
        tally: &mut Tally,
    ) -> Result<Evaluated> {
        // Select the policy before scoring: β-gated scoring needs the
        // threshold up front, and selection is independent of the rows.
        let policy = self.policies.select(&user.role, &request.purpose)?.clone();
        // Every layer below gets the call's one listener: attached iff the
        // recorder or the tracer listens.
        let listener = stage.listeners.attached();
        let record = stage.listeners.metrics.is_some();
        // The lifecycle's phases nest under the caller's `query` span.
        let phase = |name: &str| stage.lifecycle.then(|| Span::open(stage.listeners, name));
        let timeline = listener
            .and_then(|l| l.timeline())
            .filter(|_| stage.lifecycle);

        let phys = {
            let _phase = phase("plan");
            if let Some(timeline) = timeline {
                timeline.instant("parse", &request.sql);
            }
            let shape = pcqe_sql::Shape::of(&request.sql)?;
            let cached = self.cached(&request.sql, &shape);
            // Counted before planning: a query that fails to plan is a miss.
            if record {
                tally.plan_hit = Some(cached.is_some());
            }
            match cached {
                Some(cached) => cached,
                None => self.plan_afresh(&request.sql, &shape)?,
            }
        };
        let result_set = {
            let _phase = phase("execute");
            let (result_set, profile) = self.run_plan(&phys, listener)?;
            if record {
                tally.profile = Some(profile);
            }
            result_set
        };
        // `paths` tags every row with how its gate-facing confidence was
        // obtained — the causal record behind each trace `Decision`.
        let (gated, paths) = {
            let _phase = phase("score");
            let catalog = &self.catalog;
            let probs = |v: pcqe_lineage::VarId| {
                let id = TupleId(v.0);
                stage
                    .overrides
                    .get(&id)
                    .copied()
                    .or_else(|| catalog.confidence(id))
            };
            sync_cache_probs(&mut self.cache, result_set.rows(), &probs);
            // Only `query` gates at β (rows whose confidence upper bound is
            // already ≤ β are withheld without exact evaluation). Batch and
            // what-if evaluation stay exact.
            let gate = stage.lifecycle.then_some(policy.threshold);
            result_set.score_with(&mut self.cache, &self.config.evaluator, gate)?
        };
        if record {
            let bounded = paths.iter().filter(|p| **p == ConfidencePath::Bounded);
            tally.bounded = bounded.count() as u64;
        }

        let confidences: Vec<f64> = gated.scored.iter().map(|s| s.confidence).collect();
        let decision = {
            let _phase = phase("gate");
            let decision = evaluate_results(&policy, &confidences);
            if let Some(timeline) = timeline {
                // One Decision per scored row, in row order (deterministic):
                // the released flags partition exactly as the audit entry's
                // released/withheld counts. `decision.released` is
                // ascending, so one cursor walks it alongside the rows.
                let mut released = decision.released.iter().peekable();
                for (i, (s, path)) in gated.scored.iter().zip(&paths).enumerate() {
                    timeline.decision(&Decision {
                        tuple: i as u64,
                        released: released.next_if_eq(&&i).is_some(),
                        path: *path,
                        beta: policy.threshold,
                        confidence: s.confidence,
                        lineage_size: s.lineage.size(),
                    });
                }
            }
            decision
        };

        // The released rows move into the response; the withheld ones stay
        // behind, in row order, for strategy finding. The pass visits the
        // rows in order, counting them, and looks each up in
        // `decision.released` (ascending).
        let GatedScore {
            schema,
            scored: mut withheld,
            exact_skipped,
            ..
        } = gated;
        let rows = withheld.len();
        let mut row = 0;
        let released: Vec<ReleasedTuple> = withheld
            .extract_if(.., |_| {
                let hit = decision.released.binary_search(&row).is_ok();
                row += 1;
                hit
            })
            .map(|s| ReleasedTuple {
                tuple: s.tuple,
                lineage: s.lineage,
                confidence: s.confidence,
            })
            .collect();
        let requested = (theta(request.min_fraction) * rows as f64).ceil() as usize;
        Ok(Evaluated {
            shortfall: requested.saturating_sub(released.len()),
            requested,
            response: QueryResponse {
                schema,
                released,
                withheld: decision.withheld.len(),
                threshold: policy.threshold,
                proposal: None,
                no_proposal: None,
            },
            withheld,
            exact_skipped,
        })
    }

    /// Run the full pipeline: evaluate, score, policy-check, and — when
    /// fewer than `perc` of the results survive — find the cheapest
    /// confidence-increment strategy and attach it as a proposal.
    pub fn query(&mut self, user: &User, request: &QueryRequest) -> Result<QueryResponse> {
        self.cache.begin_call();
        let (recorder, tracer) = (Arc::clone(&self.recorder), Arc::clone(&self.tracer));
        let listeners = listeners(&recorder, &tracer, self.recording());
        let mut tally = Tally::new(&self.recorder);
        let lifecycle = Span::open(&listeners, "query");
        let stage = Stage {
            listeners: &listeners,
            lifecycle: true,
            overrides: &BTreeMap::new(),
        };
        let Evaluated {
            mut response,
            withheld,
            exact_skipped,
            requested,
            shortfall,
        } = self.evaluate(user, request, &stage, &mut tally)?;
        tally.exact_skipped = Some(exact_skipped as u64);
        if shortfall == 0 {
            response.no_proposal = Some(NoProposal::NotNeeded);
            drop(lifecycle);
            self.record_decision(user, request, &response, &mut tally);
            return Ok(response);
        }

        // Strategy finding (Figure 1, steps 5–6). It reads each withheld
        // row's lineage and the catalog's base confidences, never a row's
        // scored confidence, so a β-skipped row (which carries its upper
        // bound) needs no exact re-scoring first.
        let ctx = improve::ProposeContext {
            catalog: &self.catalog,
            costs: &self.costs,
            config: &self.config,
            beta: response.threshold,
            needed: shortfall,
            already_released: response.released.len(),
            requested,
            version: self.version,
        };
        let outcome = {
            let _phase = Span::open(&listeners, "propose");
            let metrics = listeners.metrics.map(|r| r as &dyn Observer);
            improve::propose(&ctx, &withheld, metrics, &mut self.cache)?
        };
        drop(lifecycle);
        match outcome {
            ProposeOutcome::Proposal(p) => response.proposal = Some(p),
            ProposeOutcome::No(reason) => response.no_proposal = Some(reason),
        }
        self.record_decision(user, request, &response, &mut tally);
        Ok(response)
    }

    /// [`Database::query`] with the causal tracer enabled for exactly this
    /// call: returns the response alongside the drained
    /// [`QueryTrace`](pcqe_obs::QueryTrace) —
    /// lifecycle spans (`query` > `plan`/`execute`/`score`/`gate`, plus
    /// `propose` when strategy finding runs), per-operator `op:*` spans,
    /// circuit-cache `cache.*` events, and one [`pcqe_par::Decision`] per
    /// result row — the row's gate verdict, with how its confidence was
    /// obtained.
    ///
    /// Tracing is write-only: the response (and any audit entry) is
    /// bit-identical to an untraced [`Database::query`] of the same
    /// request. The tracer comes back in the state it was found in (a
    /// caller that enabled it by hand keeps it enabled), on the error path
    /// too. On error the buffered events are discarded so the next
    /// trace starts clean. Events the tracer's bounded buffer had to drop
    /// are counted in the trace *and* added to the recorder's
    /// `trace.dropped` counter (non-zero only, like the other drained
    /// counters), so a truncated timeline shows up in the metrics too.
    pub fn trace_query(
        &mut self,
        user: &User,
        request: &QueryRequest,
    ) -> Result<(QueryResponse, pcqe_obs::QueryTrace)> {
        let was_enabled = self.tracer.is_enabled();
        self.tracer.set_enabled(true);
        let result = self.query(user, request);
        self.tracer.set_enabled(was_enabled);
        let trace = self.tracer.drain();
        if trace.dropped > 0 && self.recording() {
            self.recorder.counter_add("trace.dropped", trace.dropped);
        }
        Ok((result?, trace))
    }

    /// Run several queries as one batch (the multiple-query extension at
    /// the end of the paper's Section 4): each query is evaluated and
    /// policy-checked individually, and a *single* combined improvement
    /// strategy is computed over the union of their base tuples so that
    /// every query's requested fraction is met at once — shared tuples
    /// are paid for once.
    pub fn query_batch(
        &mut self,
        user: &User,
        requests: &[QueryRequest],
    ) -> Result<crate::response::BatchResponse> {
        use pcqe_core::greedy::GreedyOptions;
        use pcqe_core::multi::{solve_greedy, MultiQueryProblem};

        self.cache.begin_call();
        let (recorder, tracer) = (Arc::clone(&self.recorder), Arc::clone(&self.tracer));
        let listeners = listeners(&recorder, &tracer, self.recording());
        // Evaluate without per-query proposals (done jointly below).
        let stage = Stage {
            listeners: &listeners,
            lifecycle: false,
            overrides: &BTreeMap::new(),
        };
        let mut responses = Vec::with_capacity(requests.len());
        let mut instances = Vec::new();
        let mut refused = None;
        for request in requests {
            let mut tally = Tally::new(&self.recorder);
            let evaluated = self.evaluate(user, request, &stage, &mut tally)?;
            if evaluated.shortfall > 0 {
                match improve::build_instance(
                    &self.catalog,
                    &self.costs,
                    &self.config,
                    &evaluated.withheld,
                    evaluated.response.threshold,
                    evaluated.shortfall,
                    &mut self.cache,
                )? {
                    Ok(instance) => instances.push(instance),
                    Err(reason) => refused = refused.or(Some(reason)),
                }
            }
            // Audit each query's policy decision, exactly as single-query
            // evaluation does (the combined proposal is audited when it is
            // applied; per-query `proposed` is therefore always false).
            self.record_decision(user, request, &evaluated.response, &mut tally);
            responses.push(evaluated.response);
        }

        let mut batch = crate::response::BatchResponse {
            responses,
            proposal: None,
            no_proposal: None,
        };
        if refused.is_some() {
            batch.no_proposal = refused;
            return Ok(batch);
        }
        if instances.is_empty() {
            batch.no_proposal = Some(NoProposal::NotNeeded);
            return Ok(batch);
        }
        let multi = MultiQueryProblem::merge(&instances)?;
        let solved = {
            let _span = Span::open(&listeners, "batch/multi");
            solve_greedy(&multi, &GreedyOptions::default())
        };
        let solved = solved.map(|out| {
            let metrics = listeners.metrics.map(|r| r as &dyn Observer);
            out.stats.emit_as(pcqe_core::sink::SOLVER_MULTI, metrics);
            out.solution
        });
        let released = batch.responses.iter().map(|r| r.released.len()).sum();
        let requested = instances.iter().map(|i| i.required).sum();
        match improve::outcome(solved, multi.problem(), released, requested, self.version)? {
            ProposeOutcome::Proposal(p) => batch.proposal = Some(p),
            ProposeOutcome::No(reason) => batch.no_proposal = Some(reason),
        }
        Ok(batch)
    }

    /// Preview a proposal without applying it: re-evaluate the query with
    /// the proposal's confidences substituted in, returning what the user
    /// *would* see after accepting — the increments are checked exactly as
    /// [`Database::apply`] checks them, so a proposal `apply` would refuse
    /// is refused here with the same error. Nothing observable in the
    /// database changes — this is the "report the cost and the data to the
    /// manager" step of Section 3.1, with the outcome made inspectable. (The
    /// preview warms/invalidates circuit-pool memos, which is why the
    /// receiver is `&mut`; the next scoring pass re-syncs probabilities from
    /// the catalog, so answers are unaffected.)
    ///
    /// This is the incremental-re-scoring fast path: overriding one base
    /// tuple's confidence invalidates only the pool nodes whose var-set
    /// intersects it, so repeated what-if probes re-evaluate a sliver of
    /// each circuit instead of re-expanding every formula.
    pub fn what_if(
        &mut self,
        user: &User,
        request: &QueryRequest,
        proposal: &crate::response::ImprovementProposal,
    ) -> Result<QueryResponse> {
        // Validated like `apply` (a stale version first, then the first
        // offending increment's error) and previewed like it: a raise
        // never lowers, and of two raises of one tuple the higher stands.
        if proposal.version != self.version {
            return Err(EngineError::StaleProposal);
        }
        let mut overrides: BTreeMap<TupleId, f64> = BTreeMap::new();
        for inc in &proposal.increments {
            let raised = self.catalog.check_raise(inc.tuple_id, inc.to)?;
            let to = overrides.entry(inc.tuple_id).or_insert(raised);
            *to = to.max(raised);
        }
        self.cache.begin_call();
        // A preview leaves no execution metrics and no audit entry.
        let (recorder, tracer) = (Arc::clone(&self.recorder), Arc::clone(&self.tracer));
        let listeners = listeners(&recorder, &tracer, false);
        let stage = Stage {
            listeners: &listeners,
            lifecycle: false,
            overrides: &overrides,
        };
        let mut tally = Tally::new(&self.recorder);
        let mut response = self.evaluate(user, request, &stage, &mut tally)?.response;
        tally.cache = Some(self.cache.take_stats());
        response.no_proposal = Some(NoProposal::NotNeeded);
        Ok(response)
    }

    /// Accept a proposal: apply its increments to the database (Figure 1,
    /// steps 8–9, the data-quality improvement component). Rejects
    /// proposals computed against an older database version. All or
    /// nothing: every increment is validated before the first is written,
    /// so a refused proposal (the error is that of its first offending
    /// increment) leaves confidences, version and audit log untouched.
    pub fn apply(&mut self, proposal: &crate::response::ImprovementProposal) -> Result<()> {
        if proposal.version != self.version {
            return Err(EngineError::StaleProposal);
        }
        for inc in &proposal.increments {
            self.catalog.check_raise(inc.tuple_id, inc.to)?;
        }
        for inc in &proposal.increments {
            self.catalog.raise_confidence(inc.tuple_id, inc.to)?;
        }
        self.version += 1;
        self.record_improvement(proposal.increments.len(), proposal.cost);
        Ok(())
    }

    /// Convenience: query, and if a proposal comes back, accept it and
    /// re-run the query (the full loop of Figure 1).
    pub fn query_with_improvement(
        &mut self,
        user: &User,
        request: &QueryRequest,
    ) -> Result<QueryResponse> {
        let first = self.query(user, request)?;
        match &first.proposal {
            Some(p) => {
                let p = p.clone();
                self.apply(&p)?;
                self.query(user, request)
            }
            None => Ok(first),
        }
    }
}

/// Who hears one engine call: the recorder iff `record`, the tracer iff
/// it is on. The caller holds both listeners, so the router outlives the
/// `&mut self` pipeline calls it is handed to.
fn listeners<'a>(
    recorder: &'a pcqe_obs::Recorder,
    tracer: &'a pcqe_obs::Tracer,
    record: bool,
) -> pcqe_obs::Listeners<'a> {
    pcqe_obs::Listeners {
        metrics: record.then_some(recorder),
        trace: tracer.is_enabled().then_some(tracer),
    }
}

/// What differs between the three callers of [`Database::evaluate`].
struct Stage<'a> {
    /// Who hears the call, decided once by the caller: the recorder iff
    /// the call records (`query`, `query_batch`), the tracer iff it is on.
    listeners: &'a pcqe_obs::Listeners<'a>,
    /// [`Database::query`]'s lifecycle: the pipeline's phases open spans
    /// under the caller's `query` span, scoring is β-gated, and every
    /// row's decision is traced. Batch and what-if evaluation score
    /// exactly, outside any span.
    lifecycle: bool,
    /// Confidences that stand in for the catalog's (what-if previews).
    overrides: &'a BTreeMap<TupleId, f64>,
}

/// What [`Database::evaluate`] hands back: the gated response, plus the
/// withheld rows behind it for callers that go on to strategy finding.
struct Evaluated {
    /// The response so far: released rows, no proposal yet.
    response: QueryResponse,
    /// The rows the policy withheld, in row order; a β-skipped row carries
    /// its confidence upper bound.
    withheld: Vec<ScoredTuple>,
    /// Rows whose exact evaluation β-gating skipped.
    exact_skipped: usize,
    /// Results the user asked for (⌈perc · n⌉).
    requested: usize,
    /// How many more results must pass to reach `requested`.
    shortfall: usize,
}

/// One call's own counters — the execution profile's counts, β-gating's,
/// the circuit cache's activity and the audited decision's — gathered as
/// the call goes and folded into the recorder in one call, under one
/// lock, when the tally drops: on the error path too, with whatever was
/// gathered by then.
struct Tally {
    recorder: Arc<pcqe_obs::Recorder>,
    /// The execution profile behind `exec.operators`, `exec.rows_out` and
    /// `exec.lineage_nodes`.
    profile: Option<ExecProfile>,
    /// `lineage.exact_skipped`.
    exact_skipped: Option<u64>,
    /// `plan.cache_hit` (`true`) or `plan.cache_miss`: whether the
    /// statement cache held the query's plan.
    plan_hit: Option<bool>,
    /// `lineage.bounded`: rows gated on their lower bound because exact
    /// evaluation ran past the budget; not emitted at zero.
    bounded: u64,
    /// The circuit cache's `lineage.*` activity; zero deltas are not
    /// emitted, so an engine that never scored a row records none.
    cache: Option<pcqe_lineage::CacheStats>,
    /// `policy.released`, `policy.withheld` and whether a proposal came
    /// back (`query.proposals`); `query.total` counts the decision.
    decision: Option<(u64, u64, bool)>,
}

impl Tally {
    fn new(recorder: &Arc<pcqe_obs::Recorder>) -> Tally {
        Tally {
            recorder: Arc::clone(recorder),
            profile: None,
            exact_skipped: None,
            plan_hit: None,
            bounded: 0,
            cache: None,
            decision: None,
        }
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        let ops = self.profile.as_ref().map(|p| p.operators.as_slice());
        let sum = |field: fn(&pcqe_algebra::OperatorProfile) -> u64| {
            ops.map(|ops| ops.iter().map(field).fold(0, u64::saturating_add))
        };
        let (rows_out, lineage_nodes) = (sum(|op| op.rows_out), sum(|op| op.lineage_nodes));
        let (decision, cache) = (self.decision, self.cache.unwrap_or_default());
        let activity = |name, delta: u64| (delta > 0).then_some((name, delta));
        self.recorder.counters_add(
            [
                self.plan_hit.map(|hit| {
                    (
                        if hit {
                            "plan.cache_hit"
                        } else {
                            "plan.cache_miss"
                        },
                        1,
                    )
                }),
                ops.map(|ops| ("exec.operators", ops.len() as u64)),
                rows_out.map(|n| ("exec.rows_out", n)),
                lineage_nodes.map(|n| ("exec.lineage_nodes", n)),
                self.exact_skipped.map(|n| ("lineage.exact_skipped", n)),
                activity("lineage.bounded", self.bounded),
                activity("lineage.circuit_compiled", cache.compiled),
                activity("lineage.cache_hit", cache.hits()),
                activity("lineage.cache_invalidated", cache.invalidated),
                activity("lineage.pool_resets", cache.resets),
                decision.map(|_| ("query.total", 1)),
                decision.map(|(released, ..)| ("policy.released", released)),
                decision.map(|(_, withheld, _)| ("policy.withheld", withheld)),
                decision
                    .filter(|&(.., proposed)| proposed)
                    .map(|_| ("query.proposals", 1)),
            ]
            .into_iter()
            .flatten(),
        );
    }
}

/// Push the current probability of every variable the result set reads
/// into the circuit cache before a scoring pass. `set_prob` is a
/// bitwise-compared no-op for unchanged values, so this only invalidates
/// memos for tuples whose confidence actually moved (an `apply`, or a
/// what-if override) — the incremental-re-scoring entry point. Variables
/// the source does not know are left unset so scoring fails with
/// `UnknownVar`.
fn sync_cache_probs<F: Fn(pcqe_lineage::VarId) -> Option<f64>>(
    cache: &mut pcqe_lineage::CircuitCache,
    rows: &[pcqe_algebra::DerivedTuple],
    prob_of: &F,
) {
    for row in rows {
        for v in row.lineage.vars() {
            if let Some(p) = prob_of(v) {
                cache.set_prob(v, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditEntry;
    use pcqe_storage::{Column, DataType};

    /// The paper's running example, end to end.
    fn paper_db() -> Database {
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "Proposal",
            Schema::new(vec![
                Column::new("company", DataType::Text),
                Column::new("proposal", DataType::Text),
                Column::new("funding", DataType::Real),
            ])
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "CompanyInfo",
            Schema::new(vec![
                Column::new("company", DataType::Text),
                Column::new("income", DataType::Real),
            ])
            .unwrap(),
        )
        .unwrap();
        // Tuple 02 (p=0.3, +0.1 costs 100) and tuple 03 (p=0.4, +0.1
        // costs 10), as in Section 3.1.
        let t02 = db
            .insert(
                "Proposal",
                vec![
                    Value::text("SkyCam"),
                    Value::text("drone v1"),
                    Value::Real(800_000.0),
                ],
                0.3,
            )
            .unwrap();
        let t03 = db
            .insert(
                "Proposal",
                vec![
                    Value::text("SkyCam"),
                    Value::text("drone v2"),
                    Value::Real(900_000.0),
                ],
                0.4,
            )
            .unwrap();
        let t13 = db
            .insert(
                "CompanyInfo",
                vec![Value::text("SkyCam"), Value::Real(500_000.0)],
                0.1,
            )
            .unwrap();
        db.set_cost(t02, CostFn::linear(1000.0).unwrap()).unwrap();
        db.set_cost(t03, CostFn::linear(100.0).unwrap()).unwrap();
        // Make raising t13 expensive so the optimal fix is t03, as in the
        // paper's narrative.
        db.set_cost(t13, CostFn::linear(10_000.0).unwrap()).unwrap();
        db.add_policy(ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap());
        db.add_policy(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
        db
    }

    const QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
        FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
        WHERE funding < 1000000.0";

    #[test]
    fn secretary_sees_the_result() {
        let mut db = paper_db();
        let resp = db
            .query(
                &User::new("sue", "Secretary"),
                &QueryRequest::new(QUERY, "analysis"),
            )
            .unwrap();
        assert_eq!(resp.released.len(), 1);
        assert!((resp.released[0].confidence - 0.058).abs() < 1e-12);
        assert!(matches!(resp.no_proposal, Some(NoProposal::NotNeeded)));
    }

    #[test]
    fn manager_gets_a_proposal_choosing_the_cheap_tuple() {
        let mut db = paper_db();
        let resp = db
            .query(
                &User::new("mark", "Manager"),
                &QueryRequest::new(QUERY, "investment"),
            )
            .unwrap();
        assert!(resp.released.is_empty(), "0.058 < β = 0.06");
        assert_eq!(resp.withheld, 1);
        let proposal = resp.proposal.expect("a strategy exists");
        // Optimal fix: raise t03 from 0.4 to 0.5, cost 10 (Section 3.1).
        assert!(
            (proposal.cost - 10.0).abs() < 1e-9,
            "cost {}",
            proposal.cost
        );
        assert_eq!(proposal.increments.len(), 1);
        let inc = &proposal.increments[0];
        assert!((inc.from - 0.4).abs() < 1e-12);
        assert!((inc.to - 0.5).abs() < 1e-12);
        assert_eq!(proposal.projected_released, 1);
    }

    #[test]
    fn applying_the_proposal_releases_the_result() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query_with_improvement(&user, &request).unwrap();
        assert_eq!(resp.released.len(), 1);
        // p38 after the fix: (0.3 + 0.5 − 0.15) · 0.1 = 0.065.
        assert!((resp.released[0].confidence - 0.065).abs() < 1e-12);
    }

    #[test]
    fn stale_proposals_are_rejected() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        let proposal = resp.proposal.unwrap();
        // Any write invalidates the proposal.
        db.insert(
            "CompanyInfo",
            vec![Value::text("Other"), Value::Real(1.0)],
            0.5,
        )
        .unwrap();
        assert_eq!(db.apply(&proposal), Err(EngineError::StaleProposal));
    }

    #[test]
    fn partial_fraction_requests_no_proposal_when_met() {
        let mut db = paper_db();
        // Add a second, certain result so half the results already pass.
        db.insert(
            "Proposal",
            vec![
                Value::text("SureThing"),
                Value::text("app"),
                Value::Real(100.0),
            ],
            0.9,
        )
        .unwrap();
        db.insert(
            "CompanyInfo",
            vec![Value::text("SureThing"), Value::Real(5.0)],
            0.9,
        )
        .unwrap();
        let resp = db
            .query(
                &User::new("mark", "Manager"),
                &QueryRequest::new(QUERY, "investment").expecting(0.5),
            )
            .unwrap();
        assert_eq!(resp.released.len(), 1, "only the certain pair passes");
        assert!(matches!(resp.no_proposal, Some(NoProposal::NotNeeded)));
    }

    #[test]
    fn infeasible_improvement_reported() {
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "t",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        db.insert("t", vec![Value::Int(1)], 0.2).unwrap();
        // β = 1.0 can never be strictly exceeded.
        db.add_policy(ConfidencePolicy::new("r", "p", 1.0).unwrap());
        let resp = db
            .query(
                &User::new("u", "r"),
                &QueryRequest::new("SELECT x FROM t", "p"),
            )
            .unwrap();
        assert!(resp.released.is_empty());
        assert!(matches!(
            resp.no_proposal,
            Some(NoProposal::Infeasible { .. })
        ));
    }

    #[test]
    fn negated_lineage_is_not_improvable() {
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "a",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        db.create_table(
            "b",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        db.insert("a", vec![Value::Int(1)], 0.4).unwrap();
        db.insert("b", vec![Value::Int(1)], 0.4).unwrap();
        db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
        let resp = db
            .query(
                &User::new("u", "r"),
                &QueryRequest::new("SELECT x FROM a EXCEPT SELECT x FROM b", "p"),
            )
            .unwrap();
        assert!(resp.released.is_empty());
        assert!(matches!(resp.no_proposal, Some(NoProposal::NonMonotone)));
    }

    #[test]
    fn missing_policy_is_an_error() {
        let mut db = paper_db();
        assert!(matches!(
            db.query(
                &User::new("x", "Intern"),
                &QueryRequest::new(QUERY, "analysis")
            ),
            Err(EngineError::Policy(_))
        ));
    }

    #[test]
    fn audit_log_records_queries_and_improvements() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        db.apply(&resp.proposal.unwrap()).unwrap();
        let _ = db.query(&user, &request).unwrap();
        let log = db.audit_log();
        assert_eq!(log.len(), 3);
        assert!(matches!(
            &log[0],
            AuditEntry::Query { user, released: 0, withheld: 1, proposed: true, .. }
                if &**user == "mark"
        ));
        assert!(matches!(
            &log[1],
            AuditEntry::Improvement { tuples: 1, cost } if (cost - 10.0).abs() < 1e-9
        ));
        assert!(matches!(
            &log[2],
            AuditEntry::Query {
                released: 1,
                proposed: false,
                ..
            }
        ));
    }

    #[test]
    fn metrics_snapshot_mirrors_the_audit_log() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        db.apply(&resp.proposal.unwrap()).unwrap();
        let _ = db.query(&user, &request).unwrap();
        let _ = db
            .query(
                &User::new("sue", "Secretary"),
                &QueryRequest::new(QUERY, "analysis"),
            )
            .unwrap();

        let (mut queries, mut released, mut withheld, mut improvements, mut tuples) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for entry in db.audit_log() {
            match entry {
                AuditEntry::Query {
                    released: r,
                    withheld: w,
                    ..
                } => {
                    queries += 1;
                    released += *r as u64;
                    withheld += *w as u64;
                }
                AuditEntry::Improvement { tuples: t, .. } => {
                    improvements += 1;
                    tuples += *t as u64;
                }
            }
        }
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("query.total"), queries);
        assert_eq!(snap.counter("policy.released"), released);
        assert_eq!(snap.counter("policy.withheld"), withheld);
        assert_eq!(snap.counter("improvement.applied"), improvements);
        assert_eq!(snap.counter("improvement.tuples"), tuples);
        // Solver and execution instrumentation fired too.
        assert_eq!(snap.counter("query.proposals"), 1);
        assert!(snap.counter("exec.operators") > 0);
        assert!(snap.counter("solver.quota.required") > 0);
        // One recorder span per lifecycle phase, and one per solver run
        // inside `propose` (the branch-and-bound and its greedy seed).
        let spans: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(
            spans,
            [
                "query",
                "query/execute",
                "query/gate",
                "query/plan",
                "query/propose",
                "query/propose/greedy",
                "query/propose/heuristic",
                "query/score"
            ]
        );
    }

    #[test]
    fn batch_queries_are_audited_like_single_queries() {
        let mut db = paper_db();
        let user = User::new("sue", "Secretary");
        let requests = [
            QueryRequest::new(QUERY, "analysis"),
            QueryRequest::new(QUERY, "analysis"),
        ];
        let _ = db.query_batch(&user, &requests).unwrap();
        let log = db.audit_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|e| matches!(
            e,
            AuditEntry::Query {
                released: 1,
                withheld: 0,
                proposed: false,
                ..
            }
        )));
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("query.total"), 2);
        assert_eq!(snap.counter("policy.released"), 2);
    }

    #[test]
    fn recording_off_is_result_neutral_and_records_nothing() {
        let mut on = paper_db();
        let mut off = paper_db();
        off.recorder().set_enabled(false);
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let r_on = on.query(&user, &request).unwrap();
        let r_off = off.query(&user, &request).unwrap();
        assert_eq!(r_on.released.len(), r_off.released.len());
        assert_eq!(r_on.withheld, r_off.withheld);
        assert_eq!(r_on.proposal, r_off.proposal);
        assert!(off.metrics_snapshot().is_empty(), "recording off is silent");
        assert!(!on.metrics_snapshot().is_empty());
        // Audit entries are identical either way.
        assert_eq!(on.audit_log(), off.audit_log());
    }

    /// The text `statement` (an `EXPLAIN [ANALYZE]`) renders.
    fn explained(db: &mut Database, statement: &str) -> String {
        match db.execute(statement).unwrap() {
            StatementOutcome::Explained(text) => text,
            other => panic!("{statement}: {other:?}"),
        }
    }

    #[test]
    fn explain_analyze_annotates_observed_row_counts() {
        let mut db = paper_db();
        let text = explained(&mut db, &format!("EXPLAIN ANALYZE {QUERY}"));
        // Physical operators with true observed sizes: the pushed-down σ
        // keeps both sub-million proposals, the join emits 2 SkyCam pairs,
        // and DISTINCT merges them into 1.
        assert!(text.contains("TableScan Proposal [filter:"), "got:\n{text}");
        assert!(text.contains("(rows_in=2 rows_out=2"), "got:\n{text}");
        assert!(
            text.contains("TableScan CompanyInfo (rows_in=1 rows_out=1"),
            "got:\n{text}"
        );
        assert!(
            text.contains("HashJoin [#0 = #3] (rows_in=3 rows_out=2"),
            "got:\n{text}"
        );
        assert!(
            text.contains("Project DISTINCT [company, income] (rows_in=2 rows_out=1"),
            "got:\n{text}"
        );
        // EXPLAIN ANALYZE is read-only: no audit entry, no policy metrics.
        assert!(db.audit_log().is_empty());
        assert_eq!(db.metrics_snapshot().counter("query.total"), 0);
    }

    #[test]
    fn explain_shows_both_plans() {
        let text = explained(&mut paper_db(), &format!("EXPLAIN {QUERY}"));
        assert!(text.contains("LOGICAL"), "got:\n{text}");
        assert!(text.contains("PHYSICAL"), "got:\n{text}");
        assert!(text.contains("HashJoin [#0 = #3]"), "got:\n{text}");
        assert!(text.contains("TableScan Proposal [filter:"), "got:\n{text}");
    }

    /// The pipeline taken apart, unoptimised: logical plan → `lower` →
    /// one-worker vectorized execution → exact scoring in a fresh circuit
    /// pool → `evaluate_results`.
    fn reference(
        db: &Database,
        user: &User,
        request: &QueryRequest,
    ) -> (Vec<ReleasedTuple>, usize) {
        let plan = pcqe_sql::parse_and_plan(&request.sql, db.catalog()).unwrap();
        let physical = pcqe_algebra::lower(&plan, db.catalog()).unwrap();
        let sequential = pcqe_par::Parallelism::sequential();
        let rows =
            pcqe_algebra::execute_vectorized_with(&physical, db.catalog(), &sequential).unwrap();
        let mut pool = pcqe_lineage::CircuitCache::new();
        for v in rows.rows().iter().flat_map(|r| r.lineage.vars()) {
            pool.set_prob(v, db.confidence(TupleId(v.0)).unwrap());
        }
        let scored = rows.score_cached(&mut pool, &db.config.evaluator).unwrap();
        let policy = db.policies.select(&user.role, &request.purpose).unwrap();
        let confidences: Vec<f64> = scored.iter().map(|s| s.confidence).collect();
        let decision = evaluate_results(policy, &confidences);
        let released = decision
            .released
            .iter()
            .map(|&i| ReleasedTuple {
                tuple: scored[i].tuple.clone(),
                lineage: scored[i].lineage.clone(),
                confidence: scored[i].confidence,
            })
            .collect();
        (released, decision.withheld.len())
    }

    #[test]
    fn query_matches_the_reference_pipeline() {
        let mut db = paper_db();
        for (user, purpose) in [
            (User::new("sue", "Secretary"), "analysis"),
            (User::new("mark", "Manager"), "investment"),
        ] {
            let request = QueryRequest::new(QUERY, purpose);
            let (released, withheld) = reference(&db, &user, &request);
            let resp = db.query(&user, &request).unwrap();
            assert_eq!(resp.released, released);
            assert_eq!(resp.withheld, withheld);
        }
        // The Manager's θ path is exempt from gating: the proposal is
        // built from exact confidences.
        let AuditEntry::Query { proposed, .. } = &db.audit_log()[1] else {
            panic!("expected a query entry");
        };
        assert!(proposed);
        // On the paper example the union bound (0.2) exceeds both β
        // values, so gating skips nothing — and must say so.
        assert_eq!(db.metrics_snapshot().counter("lineage.exact_skipped"), 0);
    }

    #[test]
    fn beta_gating_skips_exact_evaluation_for_hopeless_rows() {
        fn build() -> Database {
            let mut db = Database::new(EngineConfig::default());
            db.create_table(
                "a",
                Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
            )
            .unwrap();
            db.create_table(
                "b",
                Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
            )
            .unwrap();
            // Row 1: AND-lineage with upper bound min(0.2, 0.9) = 0.2 ≤ β
            // but exact 0.18 — the short-circuit case.
            db.insert("a", vec![Value::Int(1)], 0.2).unwrap();
            db.insert("b", vec![Value::Int(1)], 0.9).unwrap();
            // Row 2: bound 0.9 > β, exact 0.855 > β — released.
            db.insert("a", vec![Value::Int(2)], 0.9).unwrap();
            db.insert("b", vec![Value::Int(2)], 0.95).unwrap();
            db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
            db
        }
        let sql = "SELECT a.x FROM a JOIN b ON a.x = b.x";
        let user = User::new("u", "r");

        let mut db = build();
        // θ = 0.5 is met by the released row: the hopeless row's exact
        // confidence is never computed.
        let resp = db
            .query(&user, &QueryRequest::new(sql, "p").expecting(0.5))
            .unwrap();
        assert_eq!(resp.released.len(), 1);
        assert!((resp.released[0].confidence - 0.855).abs() < 1e-12);
        assert_eq!(db.metrics_snapshot().counter("lineage.exact_skipped"), 1);

        // θ = 1.0 pulls the withheld row into strategy finding, still
        // unscored: strategy finding reads its lineage, not its confidence.
        let resp = db.query(&user, &QueryRequest::new(sql, "p")).unwrap();
        assert_eq!(db.metrics_snapshot().counter("lineage.exact_skipped"), 2);
        let proposal = resp.proposal.expect("a strategy exists");

        // The proposal was built from the row's lineage over the base
        // confidences, not its bound: raising a.x=1 from 0.2 to 0.6 lifts
        // the row to 0.54 > β, and previewing it releases both rows.
        assert_eq!(proposal.increments.len(), 1);
        assert!((proposal.increments[0].to - 0.6).abs() < 1e-12);
        let request = QueryRequest::new(sql, "p");
        let preview = db.what_if(&user, &request, &proposal).unwrap();
        assert_eq!(preview.released.len(), 2);
        db.apply(&proposal).unwrap();
        let (released, withheld) = reference(&db, &user, &request);
        assert_eq!(preview.released, released);
        assert_eq!(withheld, 0);
    }

    #[test]
    fn index_changes_access_path_but_not_results() {
        let mut db = paper_db();
        let user = User::new("sue", "Secretary");
        let sql = "SELECT proposal FROM Proposal WHERE company = 'SkyCam'";
        let before = db
            .query(&user, &QueryRequest::new(sql, "analysis"))
            .unwrap();
        let created = db.execute("CREATE INDEX ON Proposal (company)").unwrap();
        assert_eq!(created, StatementOutcome::IndexCreated(0));
        let text = explained(&mut db, &format!("EXPLAIN {sql}"));
        assert!(
            text.contains("IndexScan Proposal (company = 'SkyCam')"),
            "got:\n{text}"
        );
        let after = db
            .query(&user, &QueryRequest::new(sql, "analysis"))
            .unwrap();
        assert_eq!(before.released, after.released);
        assert_eq!(before.withheld, after.withheld);
    }

    #[test]
    fn trace_query_is_result_neutral_and_decisions_match_audit() {
        use pcqe_obs::trace::TraceEventKind;
        let mut traced = paper_db();
        let mut plain = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let (resp, trace) = traced.trace_query(&user, &request).unwrap();
        let expected = plain.query(&user, &request).unwrap();
        // Tracing is write-only: same release decision, same proposal,
        // same audit trail as an untraced run.
        assert_eq!(resp.released, expected.released);
        assert_eq!(resp.withheld, expected.withheld);
        assert_eq!(resp.proposal, expected.proposal);
        assert_eq!(traced.audit_log(), plain.audit_log());
        // Exactly one Decision per scored row, matching the audit entry's
        // released/withheld accounting.
        let decisions: Vec<&Decision> = (trace.events.iter())
            .filter_map(|e| match &e.kind {
                TraceEventKind::Decision(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), resp.released.len() + resp.withheld);
        assert!(decisions.iter().all(|d| !d.released));
        assert!((decisions[0].beta - 0.06).abs() < 1e-12);
        assert!((decisions[0].confidence - 0.058).abs() < 1e-12);
        assert!(decisions[0].lineage_size > 0);
        // Lifecycle and operator spans are present.
        let begins: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::SpanBegin { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for name in ["query", "plan", "execute", "score", "gate", "propose"] {
            assert!(begins.contains(&name), "missing span {name}: {begins:?}");
        }
        assert!(
            begins.iter().any(|n| n.starts_with("op:")),
            "operator spans missing: {begins:?}"
        );
        // The tracer is disabled again afterwards and its buffer drained.
        assert!(!traced.tracer().is_enabled());
        assert!(traced.tracer().drain().events.is_empty());
    }

    #[test]
    fn what_if_previews_without_mutating() {
        let mut db = paper_db();
        let user = User::new("mark", "Manager");
        let request = QueryRequest::new(QUERY, "investment");
        let resp = db.query(&user, &request).unwrap();
        let proposal = resp.proposal.unwrap();
        let preview = db.what_if(&user, &request, &proposal).unwrap();
        assert_eq!(preview.released.len(), 1);
        assert!((preview.released[0].confidence - 0.065).abs() < 1e-12);
        // The real database is untouched: the manager still sees nothing.
        let again = db.query(&user, &request).unwrap();
        assert!(again.released.is_empty());
        // And the original proposal is still applicable afterwards.
        db.apply(&proposal).unwrap();
    }

    #[test]
    fn batch_queries_share_one_strategy() {
        // Two tables whose rows derive from... actually two queries over
        // the same table: improving the shared base tuples once must
        // satisfy both queries.
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "m",
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("grp", DataType::Text),
            ])
            .unwrap(),
        )
        .unwrap();
        let shared = db
            .insert("m", vec![Value::Int(1), Value::text("both")], 0.3)
            .unwrap();
        db.insert("m", vec![Value::Int(2), Value::text("a")], 0.3)
            .unwrap();
        db.insert("m", vec![Value::Int(3), Value::text("b")], 0.9)
            .unwrap();
        db.set_cost(shared, CostFn::linear(10.0).unwrap()).unwrap();
        db.add_policy(ConfidencePolicy::new("r", "p", 0.5).unwrap());
        let user = User::new("u", "r");
        let q1 = QueryRequest::new("SELECT x FROM m WHERE grp = 'both' OR grp = 'a'", "p")
            .expecting(0.5);
        let q2 = QueryRequest::new("SELECT x FROM m WHERE grp = 'both' OR grp = 'b'", "p");
        let batch = db.query_batch(&user, &[q1.clone(), q2.clone()]).unwrap();
        assert_eq!(batch.responses.len(), 2);
        let proposal = batch.proposal.clone().expect("a combined strategy exists");
        // The shared cheap tuple is raised once and serves both queries.
        assert!(proposal.increments.iter().any(|i| i.tuple_id == shared));
        db.apply(&proposal).unwrap();
        let r1 = db.query(&user, &q1).unwrap();
        let r2 = db.query(&user, &q2).unwrap();
        assert!(!r1.released.is_empty());
        assert_eq!(r2.released.len(), 2);
    }

    #[test]
    fn batch_with_nothing_to_do_reports_not_needed() {
        let mut db = paper_db();
        let user = User::new("sue", "Secretary");
        let batch = db
            .query_batch(&user, &[QueryRequest::new(QUERY, "analysis")])
            .unwrap();
        assert!(batch.proposal.is_none());
        assert!(matches!(batch.no_proposal, Some(NoProposal::NotNeeded)));
    }

    #[test]
    fn ddl_and_dml_statements() {
        let mut db = Database::new(EngineConfig::default());
        assert_eq!(
            db.execute("CREATE TABLE t (x INT, label TEXT)").unwrap(),
            StatementOutcome::TableCreated
        );
        let out = db
            .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b') WITH CONFIDENCE 0.7")
            .unwrap();
        let StatementOutcome::Inserted(ids) = out else {
            panic!("expected inserted rows");
        };
        assert_eq!(ids.len(), 2);
        assert_eq!(db.confidence(ids[0]), Some(0.7));
        // Default confidence is 1.0.
        let StatementOutcome::Inserted(ids) = db.execute("INSERT INTO t VALUES (3, 'c')").unwrap()
        else {
            panic!()
        };
        assert_eq!(db.confidence(ids[0]), Some(1.0));
        // Queries are rejected through execute.
        assert!(db.execute("SELECT * FROM t").is_err());
        // Type errors surface.
        assert!(db.execute("INSERT INTO t VALUES ('wrong', 1)").is_err());
    }

    #[test]
    fn provenance_backed_inserts() {
        use pcqe_provenance::{CollectionMethod, ProvenanceRecord, Source};
        let mut db = Database::new(EngineConfig::default());
        db.create_table(
            "t",
            Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
        )
        .unwrap();
        let id = db
            .insert_assessed(
                "t",
                vec![Value::Int(1)],
                &[ProvenanceRecord::new(
                    Source::new("registry", 0.9).unwrap(),
                    CollectionMethod::Audited,
                )],
            )
            .unwrap();
        assert!((db.confidence(id).unwrap() - 0.9).abs() < 1e-12);
    }
}
