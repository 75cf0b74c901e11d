//! The [`Recorder`] as the metric half of [`Observer`] (the timeline half
//! is [`Tracer`]'s), and [`Listeners`], the one router between them.
//!
//! `pcqe-par` defines the trait on the dependency-free side, so every
//! layer reports without depending on this crate; the engine builds one
//! `Listeners` per call and hands every layer that one `&dyn Observer`.

use crate::clock::duration_to_nanos;
use crate::recorder::Recorder;
use crate::trace::Tracer;
use pcqe_par::Observer;

/// The recorder keeps counters and span totals, timed on its own clock;
/// it keeps no timeline, so its [`Observer::timeline`] is `None`. Each
/// span event is folded in under one lock.
impl Observer for Recorder {
    /// Spans nest on one stack per recorder, so they are opened and
    /// closed by one thread at a time, as a query's phases are. The id is
    /// 1 for a span opened while recording is on; `span_end` closes the
    /// innermost open span. A span opened while recording is off is not
    /// kept (its id is 0), and one closed while it is off is not counted:
    /// a half-timed span would mislead.
    fn span_begin(&self, name: &str) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let now = duration_to_nanos(self.clock().monotonic());
        self.lock().span_open(name, now);
        1
    }

    fn span_end(&self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self
            .is_enabled()
            .then(|| duration_to_nanos(self.clock().monotonic()));
        self.lock().span_close(now);
    }

    fn count(&self, name: &str, value: u64) {
        self.counter_add(name, value);
    }
}

/// Who listens to one engine call: the recorder, the tracer, both or
/// neither. Spans go to both (recorder first), each timed on its own
/// listener's clock, counts to the recorder; instants, decisions and
/// timeline-only spans go to [`Observer::timeline`], the tracer.
#[derive(Debug)]
pub struct Listeners<'a> {
    /// The metric listener.
    pub metrics: Option<&'a Recorder>,
    /// The timeline listener.
    pub trace: Option<&'a Tracer>,
}

impl Listeners<'_> {
    /// The router as the call's one listener — `None` when nobody listens,
    /// so the layers below skip their observation work entirely.
    pub fn attached(&self) -> Option<&dyn Observer> {
        (self.metrics.is_some() || self.trace.is_some()).then_some(self as &dyn Observer)
    }

    /// The metric listener, or the null one.
    fn recorder(&self) -> &dyn Observer {
        self.metrics.map_or::<&dyn Observer, _>(&(), |r| r)
    }

    /// The timeline listener, or the null one.
    fn tracer(&self) -> &dyn Observer {
        self.trace.map_or::<&dyn Observer, _>(&(), |t| t)
    }
}

/// A span is opened on both listeners, so its id carries both: the
/// tracer's id above the recorder's, which is 0 or 1.
impl Observer for Listeners<'_> {
    fn timeline(&self) -> Option<&dyn Observer> {
        self.tracer().timeline()
    }

    fn span_begin(&self, name: &str) -> u64 {
        let recorded = self.recorder().span_begin(name);
        (self.tracer().span_begin(name) << 1) | recorded
    }

    fn span_end(&self, id: u64) {
        self.tracer().span_end(id >> 1);
        self.recorder().span_end(id & 1);
    }

    fn count(&self, name: &str, value: u64) {
        self.recorder().count(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use pcqe_core::greedy::GreedyStats;
    use pcqe_core::heuristic::HeuristicStats;
    use pcqe_par::{Decision, Span};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn solver_stats_land_as_counters() {
        let r = Recorder::new();
        let stats = HeuristicStats {
            nodes: 10,
            pruned_h2: 4,
            ..HeuristicStats::default()
        };
        stats.emit(Some(&r));
        let s = r.snapshot();
        assert_eq!(s.counter("solver.heuristic.nodes"), 10);
        assert_eq!(s.counter("solver.heuristic.pruned_h2"), 4);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn greedy_stats_accumulate_across_runs() {
        let r = Recorder::new();
        let one = GreedyStats {
            iterations: 5,
            evals: 7,
            ..GreedyStats::default()
        };
        one.emit(Some(&r));
        one.emit(Some(&r));
        let s = r.snapshot();
        assert_eq!(s.counter("solver.greedy.iterations"), 10);
        assert_eq!(s.counter("solver.greedy.evals"), 14);
    }

    /// The router's routing law, for each of the three shapes a call's
    /// listener can take: spans reach both listeners, counts
    /// only the recorder, and the timeline — instants, decisions, the
    /// executor's `op:` spans — only the tracer, which is the timeline
    /// exactly when a tracer is attached and on.
    #[test]
    fn listeners_route_each_report_to_its_listener() {
        let decision = Decision {
            tuple: 0,
            released: true,
            path: pcqe_par::ConfidencePath::Exact,
            beta: 0.5,
            confidence: 0.9,
            lineage_size: 0,
        };
        for (metrics, trace) in [(true, false), (false, true), (true, true)] {
            let clock = Arc::new(ManualClock::new());
            let recorder = Recorder::with_clock(clock.clone());
            let tracer = Tracer::with_clock(clock.clone(), 16);
            let listeners = Listeners {
                metrics: metrics.then_some(&recorder),
                trace: trace.then_some(&tracer),
            };
            let l = listeners.attached().expect("someone listens");
            assert_eq!(l.timeline().is_some(), trace, "metrics={metrics}");
            l.count("solver.quota.required", 2);
            {
                let _query = Span::open(l, "query");
                clock.advance(Duration::from_nanos(5));
                let _op = l.timeline().map(|t| Span::open(t, "op:Scan"));
                if let Some(t) = l.timeline() {
                    t.instant("cache.hit", "circuit=0");
                    t.decision(&decision);
                }
                let _gate = Span::open(l, "gate");
                clock.advance(Duration::from_nanos(2));
            }
            let s = recorder.snapshot();
            assert_eq!(s.counter("solver.quota.required"), 2 * u64::from(metrics));
            let spans: Vec<(&str, u64)> = (s.spans.iter())
                .map(|(path, stat)| (path.as_str(), stat.total_nanos))
                .collect();
            let expected: &[(&str, u64)] = if metrics {
                &[("query", 7), ("query/gate", 2)]
            } else {
                &[]
            };
            assert_eq!(spans, expected, "metrics={metrics} trace={trace}");
            // Three span pairs, the instant and the decision.
            let events = tracer.drain().events.len();
            assert_eq!(events, if trace { 8 } else { 0 }, "metrics={metrics}");
        }
        let tracer = Tracer::new();
        tracer.set_enabled(false);
        let off = Listeners {
            metrics: None,
            trace: Some(&tracer),
        };
        assert!(
            off.timeline().is_none(),
            "a tracer at rest keeps no timeline"
        );
        let nobody = Listeners {
            metrics: None,
            trace: None,
        };
        assert!(nobody.attached().is_none(), "nobody listens: no listener");
    }

    #[test]
    fn observer_clock_is_the_recorder_clock() {
        let clock = Arc::new(ManualClock::new());
        let r = Recorder::with_clock(clock.clone());
        {
            let _span = Span::open(&r, "query");
            clock.advance(Duration::from_nanos(123));
        }
        assert_eq!(r.snapshot().spans["query"].total_nanos, 123);
    }
}
