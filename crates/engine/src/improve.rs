//! Strategy finding on behalf of the engine: build the confidence-
//! increment problem from withheld results, dispatch a solver, translate
//! the solution into an [`ImprovementProposal`].

use crate::config::{EngineConfig, SolverChoice};
use crate::response::{ImprovementProposal, NoProposal, ProposedIncrement};
use crate::Result;
use pcqe_algebra::ScoredTuple;
use pcqe_core::dnc::{self, DncOptions};
use pcqe_core::greedy::{self, GreedyOptions};
use pcqe_core::heuristic::{self, HeuristicOptions};
use pcqe_core::problem::{ProblemBuilder, ProblemInstance};
use pcqe_core::sink::SolverSink;
use pcqe_core::{CoreError, Solution};
use pcqe_cost::CostFn;
use pcqe_storage::{Catalog, TupleId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The outcome of a propose run: a proposal, or a reason there is none.
pub(crate) enum ProposeOutcome {
    /// A strategy was found.
    Proposal(ImprovementProposal),
    /// No strategy is possible/needed; see the reason.
    No(NoProposal),
}

/// Statistics handed back for the runtime estimator.
pub(crate) struct ProposeStats {
    /// Problem size (distinct base tuples), the estimator's x-axis.
    pub problem_size: usize,
    /// Solve time.
    pub elapsed: Duration,
}

/// Everything the strategy finder needs besides the withheld rows.
pub(crate) struct ProposeContext<'a> {
    /// The catalog supplying current confidences.
    pub catalog: &'a Catalog,
    /// Per-tuple cost functions.
    pub costs: &'a BTreeMap<TupleId, CostFn>,
    /// Engine configuration (δ, solver, default cost).
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
/// progress) are emitted into `sink`; pass [`pcqe_core::sink::NullSink`]
/// to discard them. The sink never influences the outcome.
pub(crate) fn propose(
    ctx: &ProposeContext<'_>,
    withheld: &[&ScoredTuple],
    sink: &dyn SolverSink,
    cache: &mut pcqe_lineage::CircuitCache,
) -> Result<(ProposeOutcome, Option<ProposeStats>)> {
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
    // Results with negated lineage are not monotone in base confidences;
    // raising a base tuple could *lower* them. They are excluded from the
    // improvable pool.
    let Some(problem) = build_instance(catalog, costs, config, withheld, beta, needed, cache)?
    else {
        return Ok((ProposeOutcome::No(NoProposal::NonMonotone), None));
    };
    sink.count("solver.problem_bases", problem.bases.len() as u64);
    sink.count("solver.quota.required", needed as u64);
    let solved = dispatch(&problem, &config.solver, &config.parallelism(), sink);
    outcome(solved, &problem, already_released, requested, version)
}

/// What a solve over `problem` means to the user: the solution as an
/// [`ImprovementProposal`], or the solver's refusal as a [`NoProposal`].
/// `released` results already pass; a proposal promises `requested`.
pub(crate) fn outcome(
    solved: std::result::Result<(Solution, Duration), CoreError>,
    problem: &ProblemInstance,
    released: usize,
    requested: usize,
    version: u64,
) -> Result<(ProposeOutcome, Option<ProposeStats>)> {
    match solved {
        Ok((solution, elapsed)) => {
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
            Ok((
                ProposeOutcome::Proposal(proposal),
                Some(ProposeStats {
                    problem_size: problem.bases.len(),
                    elapsed,
                }),
            ))
        }
        // The error counts the withheld results of the one query whose
        // quota is out of reach.
        Err(CoreError::Infeasible {
            achievable,
            required,
        }) => Ok((
            ProposeOutcome::No(NoProposal::Infeasible {
                achievable: released + achievable,
                requested: released + required,
            }),
            None,
        )),
        Err(CoreError::GaveUp(m)) => Ok((ProposeOutcome::No(NoProposal::SolverGaveUp(m)), None)),
        Err(e) => Err(e.into()),
    }
}

/// Build one query's confidence-increment instance from its withheld
/// results; `None` when too few of them are improvable (negated lineage).
///
/// Result circuits are compiled through the shared
/// [`pcqe_lineage::CircuitCache`] pool: formulas (and subformulas) already
/// expanded while scoring this query are reused instead of re-running
/// Shannon expansion, and each result's flat circuit is extracted from
/// the pool once. The greedy/exhaustive/heuristic/dnc/multi solvers all
/// evaluate [`pcqe_core::problem::ConfFn::Compiled`] circuits.
pub(crate) fn build_instance(
    catalog: &Catalog,
    costs: &BTreeMap<TupleId, CostFn>,
    config: &EngineConfig,
    withheld: &[&ScoredTuple],
    beta: f64,
    needed: usize,
    cache: &mut pcqe_lineage::CircuitCache,
) -> Result<Option<ProblemInstance>> {
    let improvable: Vec<&&ScoredTuple> = withheld
        .iter()
        .filter(|s| !s.lineage.contains_not())
        .collect();
    if improvable.len() < needed {
        return Ok(None);
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
        builder.result_from_lineage_cached(&s.lineage, cache)?;
    }
    Ok(Some(builder.require(needed).build()?))
}

/// Run the configured solver; `Auto` picks by problem size, mirroring the
/// crossovers measured in Figure 11(c). The engine's parallelism policy is
/// injected into solvers the user configured with defaults (explicit
/// per-solver options are honoured as given). Each solver's statistics are
/// emitted into `sink` as `solver.*` metrics.
fn dispatch(
    problem: &ProblemInstance,
    choice: &SolverChoice,
    par: &pcqe_par::Parallelism,
    sink: &dyn SolverSink,
) -> std::result::Result<(Solution, Duration), CoreError> {
    let greedy_opts = GreedyOptions {
        parallelism: par.clone(),
        ..GreedyOptions::default()
    };
    // One solver's answer and wall time, its statistics poured into `sink`.
    macro_rules! emitted {
        ($solved:expr) => {{
            let out = $solved?;
            out.stats.emit(sink);
            (out.solution, out.stats.elapsed)
        }};
    }
    let (solution, elapsed) = match choice {
        SolverChoice::Heuristic(opts) => emitted!(heuristic::solve(problem, opts)),
        SolverChoice::Greedy(opts) => emitted!(greedy::solve(problem, opts)),
        SolverChoice::Dnc(opts) => emitted!(dnc::solve(problem, opts)),
        SolverChoice::Auto if problem.bases.len() <= 12 => {
            // Tiny: exact search, seeded by greedy for a tight bound.
            let (seed, _) = emitted!(greedy::solve(problem, &greedy_opts));
            let opts = HeuristicOptions {
                node_limit: Some(2_000_000),
                ..HeuristicOptions::all().with_seed(seed)
            };
            emitted!(heuristic::solve(problem, &opts))
        }
        SolverChoice::Auto if problem.results.len() > 64 => {
            let opts = DncOptions {
                greedy: greedy_opts,
                ..DncOptions::default()
            };
            emitted!(dnc::solve(problem, &opts))
        }
        SolverChoice::Auto => emitted!(greedy::solve(problem, &greedy_opts)),
    };
    sink.count("solver.quota.satisfied", solution.satisfied.len() as u64);
    Ok((solution, elapsed))
}
