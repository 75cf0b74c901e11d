//! Solver-statistics sink: the bridge from solver stats to observability.
//!
//! Solvers already collect per-run statistics structs ([`HeuristicStats`],
//! [`GreedyStats`], …). This module defines the [`SolverSink`] trait —
//! a write-only consumer of named counters and durations — plus `emit`
//! methods that pour each stats struct into a sink under stable metric
//! names (`solver.heuristic.nodes`, `solver.greedy.iterations`, …).
//!
//! The indirection keeps `pcqe-core` free of any observability dependency:
//! `pcqe-obs` implements `SolverSink` for its `Recorder`, and callers that
//! don't care pass [`NullSink`]. Because the solvers themselves are
//! untouched (stats are emitted *after* the solve), instrumentation is
//! result-neutral by construction.
//!
//! [`HeuristicStats`]: crate::heuristic::HeuristicStats
//! [`GreedyStats`]: crate::greedy::GreedyStats

use crate::dnc::DncStats;
use crate::exhaustive::ExhaustiveStats;
use crate::greedy::GreedyStats;
use crate::heuristic::HeuristicStats;
use std::time::Duration;

/// A write-only consumer of solver statistics.
///
/// Object-safe; implementations must never panic and must not influence
/// solver behaviour (they only see numbers after the fact).
pub trait SolverSink {
    /// Record a monotonically accumulated count under `name`.
    fn count(&self, name: &str, value: u64);
    /// Record a phase duration under `name`.
    fn duration(&self, name: &str, value: Duration);
}

/// The do-nothing sink: discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl SolverSink for NullSink {
    fn count(&self, _name: &str, _value: u64) {}
    fn duration(&self, _name: &str, _value: Duration) {}
}

impl HeuristicStats {
    /// Pour this run's statistics into `sink` under `solver.heuristic.*`.
    pub fn emit(&self, sink: &dyn SolverSink) {
        sink.count("solver.heuristic.nodes", self.nodes);
        sink.count("solver.heuristic.incumbent_updates", self.incumbent_updates);
        sink.count("solver.heuristic.pruned_bound", self.pruned_bound);
        sink.count("solver.heuristic.pruned_h2", self.pruned_h2);
        sink.count("solver.heuristic.pruned_h3", self.pruned_h3);
        sink.count("solver.heuristic.pruned_h4", self.pruned_h4);
        sink.count("solver.heuristic.evals", self.evals);
        sink.count("solver.heuristic.complete", u64::from(self.complete));
        sink.duration("solver.heuristic.elapsed", self.elapsed);
    }
}

impl GreedyStats {
    /// Pour this run's statistics into `sink` under `solver.greedy.*`.
    pub fn emit(&self, sink: &dyn SolverSink) {
        self.emit_as("solver.greedy", sink);
    }

    /// Pour under an explicit prefix — used by [`DncStats::emit`] to file
    /// its aggregate greedy stats under `solver.dnc.greedy.*`, and by the
    /// multi-query solver under `solver.multi.*`.
    pub fn emit_as(&self, prefix: &str, sink: &dyn SolverSink) {
        sink.count(&format!("{prefix}.iterations"), self.iterations);
        sink.count(&format!("{prefix}.reductions"), self.reductions);
        sink.count(&format!("{prefix}.evals"), self.evals);
        sink.duration(&format!("{prefix}.elapsed"), self.elapsed);
    }
}

impl DncStats {
    /// Pour this run's statistics into `sink` under `solver.dnc.*`.
    pub fn emit(&self, sink: &dyn SolverSink) {
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
        sink.duration("solver.dnc.partition_elapsed", self.partition_elapsed);
        sink.duration("solver.dnc.groups_elapsed", self.groups_elapsed);
        sink.duration("solver.dnc.bb_elapsed", self.bb_elapsed);
        sink.duration("solver.dnc.elapsed", self.elapsed);
        self.greedy.emit_as("solver.dnc.greedy", sink);
    }
}

impl ExhaustiveStats {
    /// Pour this run's statistics into `sink` under `solver.exhaustive.*`.
    pub fn emit(&self, sink: &dyn SolverSink) {
        sink.count("solver.exhaustive.assignments", self.assignments);
        sink.duration("solver.exhaustive.elapsed", self.elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A test sink capturing every call in order.
    #[derive(Default)]
    struct CaptureSink {
        counts: RefCell<Vec<(String, u64)>>,
        durations: RefCell<Vec<(String, Duration)>>,
    }

    impl SolverSink for CaptureSink {
        fn count(&self, name: &str, value: u64) {
            self.counts.borrow_mut().push((name.to_owned(), value));
        }
        fn duration(&self, name: &str, value: Duration) {
            self.durations.borrow_mut().push((name.to_owned(), value));
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
            elapsed: Duration::from_millis(9),
        };
        let sink = CaptureSink::default();
        stats.emit(&sink);
        let counts = sink.counts.borrow();
        assert_eq!(counts.len(), 8);
        assert!(counts.contains(&("solver.heuristic.nodes".to_owned(), 7)));
        assert!(counts.contains(&("solver.heuristic.pruned_h4".to_owned(), 6)));
        assert!(counts.contains(&("solver.heuristic.complete".to_owned(), 1)));
        assert_eq!(
            sink.durations.borrow()[0],
            (
                "solver.heuristic.elapsed".to_owned(),
                Duration::from_millis(9)
            )
        );
    }

    #[test]
    fn dnc_stats_nest_greedy_under_dnc_prefix() {
        let stats = DncStats {
            groups: 3,
            greedy: GreedyStats {
                iterations: 11,
                ..GreedyStats::default()
            },
            groups_elapsed: Duration::from_millis(5),
            bb_elapsed: Duration::from_millis(8),
            ..DncStats::default()
        };
        let sink = CaptureSink::default();
        stats.emit(&sink);
        let counts = sink.counts.borrow();
        assert!(counts.contains(&("solver.dnc.groups".to_owned(), 3)));
        assert!(counts.contains(&("solver.dnc.greedy.iterations".to_owned(), 11)));
        // Where a D&C solve's time went: the group section's wall time and
        // the branch-and-bound time inside it (summed over workers).
        let durations = sink.durations.borrow();
        assert!(durations.contains(&(
            "solver.dnc.groups_elapsed".to_owned(),
            Duration::from_millis(5)
        )));
        assert!(durations.contains(&("solver.dnc.bb_elapsed".to_owned(), Duration::from_millis(8))));
    }

    #[test]
    fn null_sink_discards_silently() {
        HeuristicStats::default().emit(&NullSink);
        GreedyStats::default().emit(&NullSink);
        DncStats::default().emit(&NullSink);
        ExhaustiveStats::default().emit(&NullSink);
    }
}
