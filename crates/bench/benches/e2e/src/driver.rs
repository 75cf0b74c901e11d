//! The end-to-end side: one client driving `Database` through its public
//! API and nothing else — `new`, `create_table`, `insert`, `create_index`,
//! `add_policy`, `query`, `what_if`, `apply`, `query_batch` and
//! `metrics_snapshot`. Every reply is checked; only the call is timed.

use crate::alloc;
use crate::check::{proposal_digest, Fnv, ReplyView};
use crate::workload::{Class, Keep, Op, Workload, PURPOSE, ROLE};
use pcqe_engine::{Database, EngineConfig, ImprovementProposal, QueryRequest, QueryResponse, User};
use pcqe_policy::ConfidencePolicy;
use pcqe_storage::{Schema, TupleId};
use std::time::Instant;

/// Worker threads the engine gets. The box has `nproc` = 2.
pub const WORKER_THREADS: usize = 2;

/// The engine configuration under test: the defaults, two workers. The
/// behaviour-neutral switches (`physical_planning`, `vectorized_execution`,
/// `circuit_cache`, `beta_short_circuit`) are deliberately left alone.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        worker_threads: Some(WORKER_THREADS),
        ..EngineConfig::default()
    }
}

/// What one op left behind.
#[derive(Default)]
pub struct Done {
    /// Time inside the `Database` call.
    pub latency_ns: u64,
    /// Allocation calls made inside it.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
    /// Digest of the released rows, confidences and withheld count.
    pub reply: u64,
    /// Cost of the proposal that came back, 0 without one.
    pub proposal_cost: f64,
    /// The proposal's `(tuple, to)` pairs, when a query returned one.
    pub increments: Option<Vec<(TupleId, f64)>>,
    /// Why the op counts as failed, if it does.
    pub failure: Option<String>,
}

impl Done {
    /// Fold this op into a round checksum: reply digest plus proposal.
    pub fn fold_into(&self, h: &mut Fnv) {
        h.word(self.reply);
        if let Some(increments) = &self.increments {
            h.word(proposal_digest(self.proposal_cost, increments));
        }
    }
}

/// The cycle state `improve_loop` carries from op to op.
struct Pending {
    request: QueryRequest,
    expect_rows: usize,
    proposal: ImprovementProposal,
    /// Released count `what_if` predicted for the whole proposal.
    predicted: Option<usize>,
}

/// A loaded database and its one client.
pub struct Engine {
    db: Database,
    user: User,
    beta: f64,
    pending: Option<Pending>,
}

/// The proposal trimmed to the increments a what-if probe keeps.
pub fn trimmed<T: Clone>(increments: &[T], keep: Keep) -> Vec<T> {
    let n = match keep {
        Keep::All => increments.len(),
        Keep::AllButLast => increments.len().saturating_sub(1),
        Keep::FirstHalf => increments.len() / 2,
    };
    increments[..n].to_vec()
}

/// A proposal's `(tuple, to)` pairs.
fn targets(proposal: &ImprovementProposal) -> Vec<(TupleId, f64)> {
    proposal
        .increments
        .iter()
        .map(|i| (i.tuple_id, i.to))
        .collect()
}

fn view(resp: &QueryResponse) -> ReplyView<'_> {
    ReplyView {
        released: resp
            .released
            .iter()
            .map(|r| (r.tuple.values(), r.confidence))
            .collect(),
        withheld: resp.withheld,
    }
}

/// Time and allocation readings taken around one `Database` call.
struct Stopwatch {
    start: Instant,
    allocs: (u64, u64),
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch {
            allocs: alloc::snapshot(),
            start: Instant::now(),
        }
    }

    fn stop(self, done: &mut Done) {
        done.latency_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (allocs, bytes) = alloc::snapshot();
        done.allocs = allocs - self.allocs.0;
        done.alloc_bytes = bytes - self.allocs.1;
    }
}

impl Engine {
    /// Create, load and index the workload's tables, and add its policy.
    pub fn setup(workload: &Workload) -> Result<Engine, String> {
        let mut db = Database::new(engine_config());
        for table in &workload.tables {
            let schema = Schema::new(table.columns.clone()).map_err(|e| e.to_string())?;
            db.create_table(table.name, schema)
                .map_err(|e| e.to_string())?;
        }
        for row in &workload.rows {
            db.insert(row.table, row.values.clone(), row.confidence)
                .map_err(|e| e.to_string())?;
        }
        for table in &workload.tables {
            for column in &table.indexes {
                db.create_index(table.name, column)
                    .map_err(|e| e.to_string())?;
            }
        }
        let policy =
            ConfidencePolicy::new(ROLE, PURPOSE, workload.beta).map_err(|e| e.to_string())?;
        db.add_policy(policy);
        Ok(Engine {
            db,
            user: User::new("bench", ROLE),
            beta: workload.beta,
            pending: None,
        })
    }

    /// The engine's own metrics, for the traced run's cross-checks.
    pub fn metrics(&self) -> pcqe_obs::MetricsSnapshot {
        self.db.metrics_snapshot()
    }

    /// Latency of `request` at θ = 0, where strategy finding cannot run:
    /// what a θ-miss would have cost without its strategy path.
    pub fn latency_without_strategy(&mut self, request: &QueryRequest) -> Result<u64, String> {
        let request = request.clone().expecting(0.0);
        let mut done = Done::default();
        let watch = Stopwatch::start();
        let resp = self.db.query(&self.user, &request);
        watch.stop(&mut done);
        resp.map(|_| done.latency_ns).map_err(|e| e.to_string())
    }

    /// Run one op, time the call, check the reply.
    pub fn run(&mut self, op: &Op) -> Done {
        let mut done = Done::default();
        let outcome = match op {
            Op::Query {
                class,
                request,
                expect_rows,
            } => self.query(&mut done, *class, request, *expect_rows),
            Op::WhatIf(keep) => self.what_if(&mut done, *keep),
            Op::Apply => self.apply(&mut done),
            Op::Insert(row) => {
                let values = row.values.clone();
                let watch = Stopwatch::start();
                let id = self.db.insert(row.table, values, row.confidence);
                watch.stop(&mut done);
                id.map(|id| done.reply = id.0).map_err(|e| e.to_string())
            }
            Op::Batch {
                requests,
                expect_rows,
            } => self.batch(&mut done, requests, expect_rows),
        };
        done.failure = outcome.err();
        done
    }

    fn query(
        &mut self,
        done: &mut Done,
        class: Class,
        request: &QueryRequest,
        expect_rows: usize,
    ) -> Result<(), String> {
        let watch = Stopwatch::start();
        let resp = self.db.query(&self.user, request);
        watch.stop(done);
        let resp = resp.map_err(|e| e.to_string())?;
        let reply = view(&resp);
        done.reply = reply.digest();
        reply.verify(expect_rows, self.beta)?;
        if resp.threshold.to_bits() != self.beta.to_bits() {
            return Err("reply governed by another threshold".to_owned());
        }
        if class == Class::Requery {
            // After `apply` the same query must meet θ, with exactly the
            // released count `what_if` predicted for the whole proposal.
            let pending = self.pending.take().ok_or("re-query without a cycle")?;
            let requested = (request.min_fraction * expect_rows as f64).ceil() as usize;
            if resp.released.len() < requested || resp.proposal.is_some() {
                return Err(format!(
                    "after apply {} of {expect_rows} released, θ asks for {requested}",
                    resp.released.len()
                ));
            }
            if pending.predicted != Some(resp.released.len()) {
                return Err(format!(
                    "what_if predicted {:?} released, re-query released {}",
                    pending.predicted,
                    resp.released.len()
                ));
            }
            return Ok(());
        }
        match (class.is_miss(), resp.proposal) {
            (true, Some(proposal)) => {
                done.proposal_cost = proposal.cost;
                done.increments = Some(targets(&proposal));
                self.pending = Some(Pending {
                    request: request.clone(),
                    expect_rows,
                    proposal,
                    predicted: None,
                });
                Ok(())
            }
            (true, None) => Err(format!("θ-miss without a proposal: {:?}", resp.no_proposal)),
            (false, Some(_)) => Err("strategy finding ran on a θ = 0 query".to_owned()),
            (false, None) => Ok(()),
        }
    }

    fn what_if(&mut self, done: &mut Done, keep: Keep) -> Result<(), String> {
        let pending = self.pending.as_mut().ok_or("what_if without a proposal")?;
        let mut proposal = pending.proposal.clone();
        proposal.increments = trimmed(&proposal.increments, keep);
        let watch = Stopwatch::start();
        let resp = self.db.what_if(&self.user, &pending.request, &proposal);
        watch.stop(done);
        let resp = resp.map_err(|e| e.to_string())?;
        let reply = view(&resp);
        done.reply = reply.digest();
        reply.verify(pending.expect_rows, self.beta)?;
        if keep == Keep::All {
            if resp.released.len() < pending.proposal.requested {
                return Err(format!(
                    "the whole proposal previews {} released, {} requested",
                    resp.released.len(),
                    pending.proposal.requested
                ));
            }
            pending.predicted = Some(resp.released.len());
        }
        Ok(())
    }

    fn apply(&mut self, done: &mut Done) -> Result<(), String> {
        let pending = self.pending.as_ref().ok_or("apply without a proposal")?;
        let watch = Stopwatch::start();
        let applied = self.db.apply(&pending.proposal);
        watch.stop(done);
        applied.map_err(|e| e.to_string())
    }

    fn batch(
        &mut self,
        done: &mut Done,
        requests: &[QueryRequest],
        expect_rows: &[usize],
    ) -> Result<(), String> {
        let watch = Stopwatch::start();
        let batch = self.db.query_batch(&self.user, requests);
        watch.stop(done);
        let batch = batch.map_err(|e| e.to_string())?;
        let mut h = Fnv::new();
        for (resp, &rows) in batch.responses.iter().zip(expect_rows) {
            let reply = view(resp);
            h.word(reply.digest());
            reply.verify(rows, self.beta)?;
        }
        done.reply = h.finish();
        if batch.responses.len() != requests.len() {
            return Err("query_batch dropped a response".to_owned());
        }
        let proposal = batch
            .proposal
            .ok_or("query_batch over θ-misses without a combined proposal")?;
        done.proposal_cost = proposal.cost;
        done.increments = Some(targets(&proposal));
        Ok(())
    }
}
