//! The end-to-end benchmark's answers, checked in tier-1.
//!
//! Each workload of `crates/bench/benches/e2e` runs at its `--check` size
//! (seed 42, one round) through `Database`. Every reply must pass the
//! benchmark's own non-disclosure check, `ReplyView::verify`. Each round's
//! checksum must equal its line in `results/e2e_check_checksums.txt`, the
//! record `./ci.sh --stage bench-e2e-check` holds the benchmark binary to.
//! A change that moves a reply or a proposal fails here, in the debug
//! build, without the release build of the benchmark.
//!
//! The workload generator and the checks are the benchmark's own files,
//! included unchanged. The client below is the benchmark's `driver.rs`
//! `Engine` without its stopwatch: the benchmark times each call with the
//! wall clock, which root clippy bans, and a checksum needs no time.

#[allow(dead_code)]
#[path = "../crates/bench/benches/e2e/src/check.rs"]
mod check;
#[allow(dead_code)]
#[path = "../crates/bench/benches/e2e/src/workload.rs"]
mod workload;

use check::{proposal_digest, Fnv, ReplyView};
use pcqe::engine::{
    Database, EngineConfig, ImprovementProposal, QueryRequest, QueryResponse, User,
};
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{Schema, TupleId};
use std::collections::BTreeMap;
use workload::{Class, Keep, Op, Workload, PURPOSE, ROLE};

/// The seed of `run.sh --check`.
const SEED: u64 = 42;

/// The recorded round checksums, by workload.
fn recorded_checksums() -> BTreeMap<&'static str, u64> {
    let text = include_str!("../results/e2e_check_checksums.txt");
    let lines = text.lines().map(str::trim);
    let records = lines.filter(|line| !line.is_empty() && !line.starts_with('#'));
    records
        .map(|line| {
            let (name, hex) = line
                .split_once(char::is_whitespace)
                .expect("name, checksum");
            let checksum = u64::from_str_radix(hex.trim(), 16).expect("a hex checksum");
            (name, checksum)
        })
        .collect()
}

/// Run one round of workload `name` at `ops` timed ops (its size in the
/// benchmark's `main.rs::check_ops`) and hold it to its recorded checksum.
fn check_workload(name: &str, ops: usize) {
    let workload = workload::build(name, SEED, ops).expect("a known workload");
    let mut engine = Engine::setup(&workload).expect("the workload loads");
    let mut failures = Vec::new();
    let mut record = |i: usize, done: &Done| {
        if let Some(why) = &done.failure {
            failures.push(format!("op {i}: {why}"));
        }
    };
    for (i, op) in workload.warmup.iter().enumerate() {
        record(i, &engine.run(op));
    }
    let mut checksum = Fnv::new();
    for (i, op) in workload.ops.iter().enumerate() {
        let done = engine.run(op);
        done.fold_into(&mut checksum);
        record(i, &done);
    }
    assert!(failures.is_empty(), "{name}: {failures:#?}");
    let checksum = checksum.finish();
    let recorded = recorded_checksums();
    assert_eq!(
        recorded.get(name).copied(),
        Some(checksum),
        "{name}: the round's checksum is {checksum:016x}; \
         results/e2e_check_checksums.txt records {recorded:016x?}"
    );
}

#[test]
fn lookup_answers_as_recorded() {
    check_workload("lookup", 2_000);
}

#[test]
fn analytics_answers_as_recorded() {
    check_workload("analytics", 60);
}

#[test]
fn strategy_answers_as_recorded() {
    check_workload("strategy", 40);
}

#[test]
fn improve_loop_answers_as_recorded() {
    check_workload("improve_loop", 20);
}

/// Worker threads the engine gets, as in the benchmark. Answers are the
/// same at any count.
const WORKER_THREADS: usize = 2;

/// What one op left behind.
#[derive(Default)]
struct Done {
    /// Digest of the released rows, confidences and withheld count.
    reply: u64,
    /// Cost of the proposal that came back, 0 without one.
    proposal_cost: f64,
    /// The proposal's `(tuple, to)` pairs, when a query returned one.
    increments: Option<Vec<(TupleId, f64)>>,
    /// Why the op counts as failed, if it does.
    failure: Option<String>,
}

impl Done {
    /// Fold this op into a round checksum: reply digest plus proposal.
    fn fold_into(&self, h: &mut Fnv) {
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
struct Engine {
    db: Database,
    user: User,
    beta: f64,
    pending: Option<Pending>,
}

/// The proposal trimmed to the increments a what-if probe keeps.
fn trimmed<T: Clone>(increments: &[T], keep: Keep) -> Vec<T> {
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

impl Engine {
    /// Create, load and index the workload's tables, and add its policy.
    fn setup(workload: &Workload) -> Result<Engine, String> {
        let mut db = Database::new(EngineConfig {
            worker_threads: Some(WORKER_THREADS),
            ..EngineConfig::default()
        });
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

    /// Run one op and check the reply.
    fn run(&mut self, op: &Op) -> Done {
        let mut done = Done::default();
        let outcome = match op {
            Op::Query {
                class,
                request,
                expect_rows,
            } => self.query(&mut done, *class, request, *expect_rows),
            Op::WhatIf(keep) => self.what_if(&mut done, *keep),
            Op::Apply => self.apply(),
            Op::Insert(row) => {
                let id = self
                    .db
                    .insert(row.table, row.values.clone(), row.confidence);
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
        let resp = self
            .db
            .query(&self.user, request)
            .map_err(|e| e.to_string())?;
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
        let resp = self
            .db
            .what_if(&self.user, &pending.request, &proposal)
            .map_err(|e| e.to_string())?;
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

    fn apply(&mut self) -> Result<(), String> {
        let pending = self.pending.as_ref().ok_or("apply without a proposal")?;
        self.db.apply(&pending.proposal).map_err(|e| e.to_string())
    }

    fn batch(
        &mut self,
        done: &mut Done,
        requests: &[QueryRequest],
        expect_rows: &[usize],
    ) -> Result<(), String> {
        let batch = self
            .db
            .query_batch(&self.user, requests)
            .map_err(|e| e.to_string())?;
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
