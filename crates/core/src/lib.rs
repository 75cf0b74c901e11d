//! Strategy finding — the paper's primary contribution (Section 4).
//!
//! Given a set of intermediate query results whose confidence values fall
//! below a policy threshold β, the *confidence increment problem* asks for
//! the cheapest set of base-tuple confidence increments (at granularity δ,
//! each base tuple carrying its own cost function) such that at least a
//! required number of results exceed β. The problem is NP-hard; the paper
//! proposes three algorithms, all implemented here:
//!
//! * [`heuristic`] — an exact branch-and-bound depth-first search with four
//!   individually-toggleable pruning heuristics H1–H4 (Section 4.1);
//! * [`greedy`] — the two-phase greedy algorithm (Section 4.2): an
//!   aggressive gain-per-cost increment phase followed by a roll-back
//!   phase removing unnecessary increments — one loop over an
//!   [`state::EvalState`], which owns every threshold and quota;
//! * [`dnc`] — the divide-and-conquer algorithm (Section 4.3): partition
//!   the results into weakly-coupled groups by merge-clustering a shared
//!   base-tuple graph, solve each group (greedy, plus branch-and-bound for
//!   small groups), then combine and refine.
//!
//! Extensions beyond the paper's core: [`multi`] is the multiple-query
//! variant sketched at the end of Section 4 — several queries merged over
//! one base-tuple pool and handed to that same greedy as one problem with
//! a quota per query — and [`estimator`] the advance-time statistics
//! sketched in Section 6.
//!
//! ```
//! use pcqe_core::{greedy, problem::ProblemBuilder, greedy::GreedyOptions};
//! use pcqe_cost::CostFn;
//! use pcqe_lineage::Lineage;
//!
//! // One result with lineage (t0 ∨ t1), threshold 0.5: raise the cheaper
//! // base tuple until the OR crosses 0.5.
//! let mut b = ProblemBuilder::new(0.5, 0.1);
//! let t0 = b.base(0, 0.1, CostFn::linear(100.0).unwrap());
//! let t1 = b.base(1, 0.1, CostFn::linear(10.0).unwrap());
//! b.result_from_lineage(&Lineage::or(vec![Lineage::var(0), Lineage::var(1)])).unwrap();
//! let problem = b.require(1).build().unwrap();
//!
//! let out = greedy::solve(&problem, &GreedyOptions::default()).unwrap();
//! assert!(out.solution.levels[t1] > 0.4, "cheap tuple was raised");
//! assert_eq!(out.solution.levels[t0], 0.1, "expensive tuple untouched");
//! ```

pub mod clock;
pub mod dnc;
pub mod error;
pub mod estimator;
pub mod exhaustive;
pub mod greedy;
pub mod heuristic;
pub mod multi;
pub mod ord;
pub mod partition;
pub mod problem;
pub mod sink;
pub mod solution;
pub mod state;

pub use error::CoreError;
pub use problem::{BaseVar, ConfFn, ProblemBuilder, ProblemInstance, ResultSpec};
pub use solution::{Increment, Solution, SolveOutcome};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
