//! Query responses and improvement proposals.

use pcqe_lineage::Lineage;
use pcqe_storage::{Schema, Tuple, TupleId};

/// One result row released to the user.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleasedTuple {
    /// The row's values.
    pub tuple: Tuple,
    /// Its lineage over base tuples.
    pub lineage: Lineage,
    /// Its computed confidence.
    pub confidence: f64,
}

/// A suggested confidence increment on one base tuple, reported to the
/// user before any data-quality action is taken (Figure 1, step 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedIncrement {
    /// The base tuple to improve.
    pub tuple_id: TupleId,
    /// Its current confidence.
    pub from: f64,
    /// The suggested confidence.
    pub to: f64,
    /// Cost of this increment under the tuple's cost function.
    pub cost: f64,
}

/// The strategy-finding component's answer: which base tuples to improve,
/// at what total cost, and what that buys.
#[derive(Debug, Clone, PartialEq)]
pub struct ImprovementProposal {
    /// Total cost of all increments.
    pub cost: f64,
    /// The increments, ordered by base tuple id.
    pub increments: Vec<ProposedIncrement>,
    /// Results that would be released after applying the proposal.
    pub projected_released: usize,
    /// Results the user asked for (⌈perc · n⌉).
    pub requested: usize,
    /// Snapshot version of the database the proposal was computed against
    /// (accepting a stale proposal is rejected).
    pub(crate) version: u64,
}

/// Why no improvement proposal accompanies a partial result.
#[derive(Debug, Clone, PartialEq)]
pub enum NoProposal {
    /// The released fraction already meets the request.
    NotNeeded,
    /// Not even maximal confidence everywhere reaches the request.
    Infeasible {
        /// Results achievable at maximum confidence.
        achievable: usize,
        /// Results requested.
        requested: usize,
    },
    /// Some withheld results have non-monotone (negated) lineage that
    /// confidence increments cannot reliably help, and the quota cannot be
    /// met with the others.
    NonMonotone,
    /// The solver gave up within its budget.
    SolverGaveUp(String),
}

/// The outcome of a policy-checked query (Figure 1, step 10).
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Schema of the result rows.
    pub schema: Schema,
    /// Rows whose confidence exceeds the policy threshold.
    pub released: Vec<ReleasedTuple>,
    /// Number of rows withheld by the policy.
    pub withheld: usize,
    /// The governing threshold β.
    pub threshold: f64,
    /// The improvement proposal, when the request could not be met and a
    /// strategy was found.
    pub proposal: Option<ImprovementProposal>,
    /// Why there is no proposal (when `proposal` is `None`).
    pub no_proposal: Option<NoProposal>,
}

/// The outcome of a [`crate::Database::query_batch`] call: per-query
/// responses plus one combined improvement proposal.
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// Per-query responses (their `proposal` fields stay empty; the
    /// combined proposal below covers all of them).
    pub responses: Vec<QueryResponse>,
    /// One strategy satisfying every query's request, if needed and found.
    pub proposal: Option<ImprovementProposal>,
    /// Why there is no combined proposal (when `proposal` is `None`).
    pub no_proposal: Option<NoProposal>,
}
