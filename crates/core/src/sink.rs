//! Solver statistics as observations: the bridge from solver stats to
//! observability.
//!
//! Solvers already collect per-run statistics structs ([`HeuristicStats`],
//! [`GreedyStats`], …). The `emit` methods here pour each struct into a
//! [`pcqe_par::Observer`] — the one instrumentation trait every layer
//! reports through — as [`Observer::count`]s under stable metric names
//! (`solver.heuristic.nodes`, `solver.greedy.iterations`, …). Solvers
//! read no clock: a caller that wants a solve timed opens a span around
//! it on the same observer, on that observer's clock.
//!
//! The trait lives in `pcqe-par`, so `pcqe-core` stays free of any
//! observability dependency: `pcqe-obs`'s `Recorder` keeps the numbers,
//! and a caller with no listener passes `None`. Because the solvers
//! themselves are untouched (stats are emitted *after* the solve),
//! instrumentation is result-neutral by construction.
//!
//! [`HeuristicStats`]: crate::heuristic::HeuristicStats
//! [`GreedyStats`]: crate::greedy::GreedyStats

use crate::dnc::DncStats;
use crate::greedy::GreedyStats;
use crate::heuristic::HeuristicStats;
use pcqe_par::Observer;

impl HeuristicStats {
    /// Pour this run's statistics into `observer` under `solver.heuristic.*`.
    pub fn emit(&self, observer: Option<&dyn Observer>) {
        let Some(sink) = observer else { return };
        sink.count("solver.heuristic.nodes", self.nodes);
        sink.count("solver.heuristic.incumbent_updates", self.incumbent_updates);
        sink.count("solver.heuristic.pruned_bound", self.pruned_bound);
        sink.count("solver.heuristic.pruned_h2", self.pruned_h2);
        sink.count("solver.heuristic.pruned_h3", self.pruned_h3);
        sink.count("solver.heuristic.pruned_h4", self.pruned_h4);
        sink.count("solver.heuristic.evals", self.evals);
        sink.count("solver.heuristic.complete", u64::from(self.complete));
    }
}

/// The names one [`GreedyStats`] is filed under: its iterations,
/// reductions and evals, in that order.
pub type GreedyNames = [&'static str; 3];

/// A greedy solve's own names.
pub const SOLVER_GREEDY: GreedyNames = [
    "solver.greedy.iterations",
    "solver.greedy.reductions",
    "solver.greedy.evals",
];

/// D&C's aggregate over its groups' greedy solves.
pub const SOLVER_DNC_GREEDY: GreedyNames = [
    "solver.dnc.greedy.iterations",
    "solver.dnc.greedy.reductions",
    "solver.dnc.greedy.evals",
];

/// The multi-query solver's joint greedy solve.
pub const SOLVER_MULTI: GreedyNames = [
    "solver.multi.iterations",
    "solver.multi.reductions",
    "solver.multi.evals",
];

impl GreedyStats {
    /// Pour this run's statistics into `observer` under `solver.greedy.*`.
    pub fn emit(&self, observer: Option<&dyn Observer>) {
        self.emit_as(SOLVER_GREEDY, observer);
    }

    /// Pour under other names — [`SOLVER_DNC_GREEDY`] for
    /// [`DncStats::emit`], [`SOLVER_MULTI`] for the multi-query solver.
    pub fn emit_as(&self, names: GreedyNames, observer: Option<&dyn Observer>) {
        let Some(sink) = observer else { return };
        let values = [self.iterations, self.reductions, self.evals];
        for (name, value) in names.into_iter().zip(values) {
            sink.count(name, value);
        }
    }
}

impl DncStats {
    /// Pour this run's statistics into `observer` under `solver.dnc.*`.
    pub fn emit(&self, observer: Option<&dyn Observer>) {
        let Some(sink) = observer else { return };
        sink.count("solver.dnc.groups", self.groups as u64);
        sink.count(
            "solver.dnc.largest_group_bases",
            self.largest_group_bases as u64,
        );
        sink.count("solver.dnc.bb_groups", self.bb_groups as u64);
        sink.count("solver.dnc.bb_nodes", self.bb_nodes);
        sink.count(
            "solver.dnc.refinement_reductions",
            self.refinement_reductions,
        );
        self.greedy.emit_as(SOLVER_DNC_GREEDY, observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[expect(
        clippy::disallowed_types,
        reason = "a test listener that captures what it hears across the observer's Sync bound"
    )]
    use std::sync::Mutex;

    /// A test listener capturing every count in order.
    #[derive(Default)]
    #[expect(
        clippy::disallowed_types,
        reason = "a test listener that captures what it hears across the observer's Sync bound"
    )]
    struct Capture {
        counts: Mutex<Vec<(String, u64)>>,
    }

    impl Observer for Capture {
        fn count(&self, name: &str, value: u64) {
            self.counts.lock().unwrap().push((name.to_owned(), value));
        }
    }

    #[test]
    fn heuristic_stats_emit_all_fields() {
        let stats = HeuristicStats {
            nodes: 7,
            incumbent_updates: 2,
            pruned_bound: 3,
            pruned_h2: 4,
            pruned_h3: 5,
            pruned_h4: 6,
            evals: 8,
            complete: true,
        };
        let sink = Capture::default();
        stats.emit(Some(&sink));
        let counts = sink.counts.lock().unwrap();
        assert_eq!(counts.len(), 8);
        assert!(counts.contains(&("solver.heuristic.nodes".to_owned(), 7)));
        assert!(counts.contains(&("solver.heuristic.pruned_h4".to_owned(), 6)));
        assert!(counts.contains(&("solver.heuristic.complete".to_owned(), 1)));
    }

    #[test]
    fn dnc_stats_nest_greedy_under_dnc_prefix() {
        let stats = DncStats {
            groups: 3,
            greedy: GreedyStats {
                iterations: 11,
                ..GreedyStats::default()
            },
            ..DncStats::default()
        };
        let sink = Capture::default();
        stats.emit(Some(&sink));
        let counts = sink.counts.lock().unwrap();
        assert!(counts.contains(&("solver.dnc.groups".to_owned(), 3)));
        assert!(counts.contains(&("solver.dnc.greedy.iterations".to_owned(), 11)));
    }

    #[test]
    fn the_null_listener_and_no_listener_discard_silently() {
        for observer in [Some(&() as &dyn Observer), None] {
            HeuristicStats::default().emit(observer);
            GreedyStats::default().emit(observer);
            DncStats::default().emit(observer);
        }
    }
}
