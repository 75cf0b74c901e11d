//! Strategy finding on behalf of the engine: build the confidence-
//! increment problem from withheld results, dispatch a solver, translate
//! the solution into an [`ImprovementProposal`].

use crate::config::EngineConfig;
use crate::response::{ImprovementProposal, NoProposal, ProposedIncrement};
use crate::Result;
use pcqe_algebra::ScoredTuple;
use pcqe_core::dnc::{self, DncOptions};
use pcqe_core::greedy::{self, GreedyOptions};
use pcqe_core::heuristic::{self, HeuristicOptions};
use pcqe_core::problem::{ProblemBuilder, ProblemInstance};
use pcqe_core::{CoreError, Solution};
use pcqe_cost::CostFn;
use pcqe_par::{Observer, Span};
use pcqe_storage::{Catalog, TupleId};
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of a propose run: a proposal, or a reason there is none.
pub(crate) enum ProposeOutcome {
    /// A strategy was found.
    Proposal(ImprovementProposal),
    /// No strategy is possible/needed; see the reason.
    No(NoProposal),
}

/// Everything the strategy finder needs besides the withheld rows.
pub(crate) struct ProposeContext<'a> {
    /// The catalog supplying current confidences.
    pub catalog: &'a Catalog,
    /// Per-tuple cost functions.
    pub costs: &'a BTreeMap<TupleId, CostFn>,
    /// Engine configuration (δ, default cost, Shannon budget, D&C's threads).
    pub config: &'a EngineConfig,
    /// The governing threshold β.
    pub beta: f64,
    /// Additional results that must pass.
    pub needed: usize,
    /// Results already released.
    pub already_released: usize,
    /// Total results the user asked for.
    pub requested: usize,
    /// Database version the proposal is valid against.
    pub version: u64,
}

/// Compute an improvement proposal that pushes `ctx.needed` more of the
/// withheld results above β.
///
/// Solver statistics (nodes expanded, prune counts, phase timings, quota
/// progress) are reported to `observer`; pass `None` to discard them. The
/// listener never influences the outcome.
pub(crate) fn propose(
    ctx: &ProposeContext<'_>,
    withheld: &[ScoredTuple],
    observer: Option<&dyn Observer>,
    cache: &mut pcqe_lineage::CircuitCache,
) -> Result<ProposeOutcome> {
    let ProposeContext {
        catalog,
        costs,
        config,
        beta,
        needed,
        already_released,
        requested,
        version,
    } = *ctx;
    let problem = match build_instance(catalog, costs, config, withheld, beta, needed, cache)? {
        Ok(problem) => problem,
        Err(reason) => return Ok(ProposeOutcome::No(reason)),
    };
    let sink = observer.unwrap_or(&());
    sink.count("solver.problem_bases", problem.bases.len() as u64);
    sink.count("solver.quota.required", needed as u64);
    let solved = dispatch(&problem, config.parallelism(), observer);
    outcome(solved, &problem, already_released, requested, version)
}

/// What a solve over `problem` means to the user: the solution as an
/// [`ImprovementProposal`], or the solver's refusal as a [`NoProposal`].
/// `released` results already pass; a proposal promises `requested`.
pub(crate) fn outcome(
    solved: std::result::Result<Solution, CoreError>,
    problem: &ProblemInstance,
    released: usize,
    requested: usize,
    version: u64,
) -> Result<ProposeOutcome> {
    match solved {
        Ok(solution) => {
            let mut increments: Vec<ProposedIncrement> = solution
                .increments(problem)
                .into_iter()
                .map(|inc| ProposedIncrement {
                    tuple_id: TupleId(inc.id),
                    from: inc.from,
                    to: inc.to,
                    cost: inc.cost,
                })
                .collect();
            increments.sort_by_key(|i| i.tuple_id);
            let proposal = ImprovementProposal {
                cost: solution.cost,
                increments,
                projected_released: released + solution.satisfied.len(),
                requested,
                version,
            };
            Ok(ProposeOutcome::Proposal(proposal))
        }
        // The error counts the withheld results of the one query whose
        // quota is out of reach.
        Err(CoreError::Infeasible {
            achievable,
            required,
        }) => Ok(ProposeOutcome::No(NoProposal::Infeasible {
            achievable: released + achievable,
            requested: released + required,
        })),
        Err(CoreError::GaveUp(m)) => Ok(ProposeOutcome::No(NoProposal::SolverGaveUp(m))),
        Err(e) => Err(e.into()),
    }
}

/// Build one query's confidence-increment instance from its withheld
/// results, or say why there is none: too few of them are improvable
/// ([`NoProposal::NonMonotone`]; results with negated lineage are not
/// monotone in base confidences, so raising a base tuple could *lower*
/// them), or one needs more Shannon expansions than `lineage_budget`
/// allows ([`NoProposal::SolverGaveUp`]).
///
/// Result circuits are compiled through the shared
/// [`pcqe_lineage::CircuitCache`] pool: formulas (and subformulas) already
/// expanded while scoring this query are reused instead of re-running
/// Shannon expansion, and each result's flat circuit is extracted from
/// the pool once; every solver evaluates those circuits.
pub(crate) fn build_instance(
    catalog: &Catalog,
    costs: &BTreeMap<TupleId, CostFn>,
    config: &EngineConfig,
    withheld: &[ScoredTuple],
    beta: f64,
    needed: usize,
    cache: &mut pcqe_lineage::CircuitCache,
) -> Result<std::result::Result<ProblemInstance, NoProposal>> {
    let improvable: Vec<&ScoredTuple> = withheld
        .iter()
        .filter(|s| !s.lineage.contains_not())
        .collect();
    if improvable.len() < needed {
        return Ok(Err(NoProposal::NonMonotone));
    }
    let mut builder = ProblemBuilder::new(beta, config.delta).lineage_budget(config.lineage_budget);
    let mut seen = BTreeSet::new();
    for s in &improvable {
        for v in s.lineage.vars() {
            if seen.insert(v.0) {
                let id = TupleId(v.0);
                let initial = catalog.confidence(id).ok_or_else(|| {
                    CoreError::InvalidProblem(format!("lineage references unknown tuple {id}"))
                })?;
                let cost = costs
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| config.default_cost.clone());
                builder.base(v.0, initial, cost);
            }
        }
    }
    for s in &improvable {
        // Compiling is the only lineage step here, and it fails only past
        // the budget.
        match builder.result_from_lineage_cached(&s.lineage, cache) {
            Err(e @ CoreError::Lineage(_)) => {
                return Ok(Err(NoProposal::SolverGaveUp(e.to_string())))
            }
            added => added?,
        };
    }
    Ok(Ok(builder.require(needed).build()?))
}

/// Pick the solver by problem size: exact branch-and-bound (seeded by
/// greedy) up to 12 base tuples, divide-and-conquer past 64 results,
/// greedy in between. The D&C cut-off is not a measured crossover: since
/// greedy's lazy heap, greedy answers cheaper than D&C on Figure 11(c)'s
/// instances and on paths like the engine's own D&C-regime misses
/// (`tests/solver_properties.rs`, `greedy_is_no_dearer_than_dnc`). Each
/// solver runs in a span of its own on `observer` (`greedy`, `heuristic`,
/// `dnc`), and its statistics are reported there as `solver.*` metrics.
/// Only D&C's groups run under the engine's parallelism policy `par`;
/// everything else runs on the calling thread.
fn dispatch(
    problem: &ProblemInstance,
    par: pcqe_par::Parallelism,
    observer: Option<&dyn Observer>,
) -> std::result::Result<Solution, CoreError> {
    let sink = observer.unwrap_or(&());
    let greedy_opts = GreedyOptions::default();
    // One solver's answer, timed in the span `$name` on `sink`, its
    // statistics poured into `sink`.
    macro_rules! solved {
        ($name:literal, $solve:expr) => {{
            let out = {
                let _span = Span::open(sink, $name);
                $solve?
            };
            out.stats.emit(observer);
            out.solution
        }};
    }
    let solution = if problem.bases.len() <= 12 {
        let seed = solved!("greedy", greedy::solve(problem, &greedy_opts));
        let opts = HeuristicOptions {
            node_limit: Some(2_000_000),
            ..HeuristicOptions::all().with_seed(seed)
        };
        solved!("heuristic", heuristic::solve(problem, &opts))
    } else if problem.results.len() > 64 {
        let opts = DncOptions {
            greedy: GreedyOptions {
                parallelism: par,
                ..greedy_opts
            },
        };
        solved!("dnc", dnc::solve(problem, &opts))
    } else {
        solved!("greedy", greedy::solve(problem, &greedy_opts))
    };
    sink.count("solver.quota.satisfied", solution.satisfied.len() as u64);
    Ok(solution)
}
