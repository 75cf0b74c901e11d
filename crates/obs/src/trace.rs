//! Causal query tracing: a bounded, preallocated buffer of typed events.
//!
//! Where [`crate::Recorder`] *aggregates* (counters and merged span
//! totals), the [`Tracer`] answers the per-query question the
//! aggregates erase: *what happened during this query, in what order,
//! and why was this tuple released or suppressed?* It implements the
//! timeline half of the dependency-free [`pcqe_par::Observer`] trait so
//! every layer of the stack — engine lifecycle spans, per-operator
//! execution spans, circuit cache compile/hit/invalidate events, and one
//! policy decision per result row, which says how the row's confidence
//! was obtained (β-skipped, bounded or exact) — can emit into one
//! ordered timeline.
//!
//! ## Determinism contract
//!
//! Every event carries two orderings: a monotonic `seq` counter (the
//! authoritative order, assigned under the buffer mutex) and a
//! `ts_nanos` timestamp read exclusively through the injected
//! [`crate::clock::Clock`]. Under a
//! [`ManualClock`](crate::clock::ManualClock) the timestamps are
//! scripted, so exports ([`crate::trace_export`]) are byte-stable and
//! golden-testable. Tracing is strictly passive: a disabled tracer costs
//! one relaxed atomic load and never touches the clock, and enabled
//! tracing never influences query answers (proved by
//! `tests/trace_determinism.rs` at the workspace root).
//!
//! ## Bounded memory
//!
//! The event buffer is preallocated at a fixed capacity. When it fills,
//! *new* events are dropped (and counted in [`QueryTrace::dropped`]) —
//! keeping the consistent prefix of the timeline rather than evicting
//! old events and leaving dangling span ends.

use crate::clock::{duration_to_nanos, Clock, SystemClock};
use pcqe_par::{Decision, Observer};
use std::fmt;
#[expect(
    clippy::disallowed_types,
    reason = "locks: the tracer's Mutex-guarded ring buffer and its relaxed enabled flag; write-only, nothing it records feeds back into results"
)]
use std::sync::{
    atomic::{AtomicBool, Ordering},
    Arc, Mutex, MutexGuard,
};

/// Default event-buffer capacity: generous for a single query's
/// lifecycle + operator + cache + decision events.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A span opened. `parent` is the innermost span open at the time
    /// (`None` for a root span).
    SpanBegin {
        /// Span id, unique within one [`QueryTrace`] (ids start at 1;
        /// 0 is the disabled-tracer sentinel and never appears here).
        id: u64,
        /// Enclosing open span, if any.
        parent: Option<u64>,
        /// Span name, e.g. `"query"` or `"op:HashJoin"`.
        name: String,
    },
    /// The span opened as `id` closed.
    SpanEnd {
        /// Id from the matching [`TraceEventKind::SpanBegin`].
        id: u64,
        /// Name copied from the matching begin, so exports need no join.
        name: String,
    },
    /// A point-in-time event, e.g. `"cache.hit"` or `"parse"`.
    Instant {
        /// Event name.
        name: String,
        /// Free-form `key=value` detail text.
        detail: String,
    },
    /// One per-tuple policy decision (see [`pcqe_par::Decision`]).
    Decision(Decision),
}

/// One timeline entry: a deterministic sequence number, a clock reading,
/// and the event payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Position in the timeline (0-based, gap-free within a trace).
    pub seq: u64,
    /// Nanoseconds from the injected clock at emission time.
    pub ts_nanos: u64,
    /// The event payload.
    pub kind: TraceEventKind,
}

/// A drained, immutable per-query timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// Events in `seq` order.
    pub events: Vec<TraceEvent>,
    /// Events that arrived after the buffer filled and were discarded.
    pub dropped: u64,
    /// The buffer capacity the trace was collected under.
    pub capacity: usize,
}

struct Buf {
    events: Vec<TraceEvent>,
    dropped: u64,
    next_seq: u64,
    next_span: u64,
    /// Open spans, innermost last: `(id, name)`.
    open: Vec<(u64, String)>,
}

impl Buf {
    fn with_capacity(capacity: usize) -> Buf {
        Buf {
            events: Vec::with_capacity(capacity),
            dropped: 0,
            next_seq: 0,
            next_span: 0,
            open: Vec::new(),
        }
    }
}

/// A bounded causal-trace collector behind one mutex.
///
/// Mirrors the [`crate::Recorder`] posture exactly: an `AtomicBool`
/// enabled flag (relaxed — the flag only gates observation, never
/// results), an injected clock, and poison-recovering lock access so a
/// panicking caller can never wedge tracing for the rest of the process.
#[expect(
    clippy::disallowed_types,
    reason = "locks: the tracer's Mutex-guarded ring buffer and its relaxed enabled flag; write-only, nothing it records feeds back into results"
)]
pub struct Tracer {
    enabled: AtomicBool,
    clock: Arc<dyn Clock + Send + Sync>,
    capacity: usize,
    inner: Mutex<Buf>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An enabled tracer on the real monotonic clock with the default
    /// capacity.
    pub fn new() -> Tracer {
        Tracer::with_clock(Arc::new(SystemClock), DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled tracer on an explicit clock (tests pass
    /// [`ManualClock`](crate::clock::ManualClock) for byte-stable
    /// exports) with an explicit event capacity.
    #[expect(
        clippy::disallowed_types,
        reason = "locks: the tracer's Mutex-guarded ring buffer and its relaxed enabled flag; write-only, nothing it records feeds back into results"
    )]
    pub fn with_clock(clock: Arc<dyn Clock + Send + Sync>, capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(true),
            clock,
            capacity: capacity.max(1),
            inner: Mutex::new(Buf::with_capacity(capacity.max(1))),
        }
    }

    /// Toggle tracing. Already-buffered events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is tracing currently on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The tracer's clock.
    pub fn clock(&self) -> &Arc<dyn Clock + Send + Sync> {
        &self.clock
    }

    /// A monotonic nanosecond reading from the tracer's clock.
    fn now_nanos(&self) -> u64 {
        duration_to_nanos(self.clock.monotonic())
    }

    #[expect(
        clippy::disallowed_types,
        reason = "locks: the tracer's Mutex-guarded ring buffer and its relaxed enabled flag; write-only, nothing it records feeds back into results"
    )]
    fn lock(&self) -> MutexGuard<'_, Buf> {
        // Poison recovery, same as the recorder: trace events are plain
        // data, always valid, so recover rather than propagate.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one event under the lock; drops (and counts) when full.
    fn push(buf: &mut Buf, capacity: usize, ts_nanos: u64, kind: TraceEventKind) {
        if buf.events.len() >= capacity {
            buf.dropped = buf.dropped.saturating_add(1);
            return;
        }
        let seq = buf.next_seq;
        buf.next_seq = buf.next_seq.saturating_add(1);
        buf.events.push(TraceEvent {
            seq,
            ts_nanos,
            kind,
        });
    }

    /// Take the collected timeline and reset the buffer (sequence and
    /// span counters restart at zero, so every drained trace is
    /// self-contained and byte-stable).
    pub fn drain(&self) -> QueryTrace {
        let mut buf = self.lock();
        let events = std::mem::take(&mut buf.events);
        let dropped = buf.dropped;
        *buf = Buf::with_capacity(self.capacity);
        QueryTrace {
            events,
            dropped,
            capacity: self.capacity,
        }
    }
}

/// The tracer keeps the timeline: spans, instants and decisions, each
/// stamped on its own clock.
impl Observer for Tracer {
    fn timeline(&self) -> Option<&dyn Observer> {
        self.is_enabled().then_some(self as &dyn Observer)
    }

    fn span_begin(&self, name: &str) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let ts = self.now_nanos();
        let mut buf = self.lock();
        buf.next_span = buf.next_span.saturating_add(1);
        let id = buf.next_span;
        let parent = buf.open.last().map(|&(pid, _)| pid);
        // The open stack is tracked even when the event itself is
        // dropped, so later span ends still resolve their names.
        buf.open.push((id, name.to_owned()));
        Self::push(
            &mut buf,
            self.capacity,
            ts,
            TraceEventKind::SpanBegin {
                id,
                parent,
                name: name.to_owned(),
            },
        );
        id
    }

    fn span_end(&self, id: u64) {
        if id == 0 || !self.is_enabled() {
            return;
        }
        let ts = self.now_nanos();
        let mut buf = self.lock();
        let Some(pos) = buf.open.iter().rposition(|&(open_id, _)| open_id == id) else {
            return; // unknown or already-closed span: ignore
        };
        let (_, name) = buf.open.remove(pos);
        Self::push(
            &mut buf,
            self.capacity,
            ts,
            TraceEventKind::SpanEnd { id, name },
        );
    }

    fn instant(&self, name: &str, detail: &str) {
        if !self.is_enabled() {
            return;
        }
        let ts = self.now_nanos();
        let mut buf = self.lock();
        Self::push(
            &mut buf,
            self.capacity,
            ts,
            TraceEventKind::Instant {
                name: name.to_owned(),
                detail: detail.to_owned(),
            },
        );
    }

    fn decision(&self, decision: &Decision) {
        if !self.is_enabled() {
            return;
        }
        let ts = self.now_nanos();
        let mut buf = self.lock();
        Self::push(
            &mut buf,
            self.capacity,
            ts,
            TraceEventKind::Decision(decision.clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use pcqe_par::ConfidencePath;
    use std::time::Duration;

    fn manual(capacity: usize) -> (Arc<ManualClock>, Tracer) {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_clock(clock.clone(), capacity);
        (clock, tracer)
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let (clock, t) = manual(16);
        let root = t.span_begin("query");
        clock.advance(Duration::from_micros(5));
        let child = t.span_begin("score");
        t.instant("cache.hit", "node=1");
        t.span_end(child);
        t.span_end(root);
        let trace = t.drain();
        assert_eq!(trace.events.len(), 5);
        assert_eq!(trace.dropped, 0);
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        match &trace.events[0].kind {
            TraceEventKind::SpanBegin { id, parent, name } => {
                assert_eq!((*id, *parent, name.as_str()), (1, None, "query"));
            }
            other => panic!("expected root begin, got {other:?}"),
        }
        match &trace.events[1].kind {
            TraceEventKind::SpanBegin { id, parent, name } => {
                assert_eq!((*id, *parent, name.as_str()), (2, Some(1), "score"));
            }
            other => panic!("expected child begin, got {other:?}"),
        }
        assert_eq!(trace.events[1].ts_nanos, 5_000);
        match &trace.events[3].kind {
            TraceEventKind::SpanEnd { id, name } => {
                assert_eq!((*id, name.as_str()), (2, "score"));
            }
            other => panic!("expected child end, got {other:?}"),
        }
    }

    #[test]
    fn disabled_tracer_is_inert_and_returns_zero_ids() {
        let t = Tracer::new();
        t.set_enabled(false);
        assert_eq!(t.span_begin("query"), 0);
        t.span_end(0);
        t.instant("x", "y");
        t.decision(&Decision {
            tuple: 1,
            released: true,
            path: ConfidencePath::Exact,
            beta: 0.5,
            confidence: 0.9,
            lineage_size: 0,
        });
        let trace = t.drain();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn full_buffer_drops_new_events_and_counts_them() {
        let (_, t) = manual(2);
        let a = t.span_begin("a");
        let b = t.span_begin("b");
        t.instant("overflow", "");
        t.span_end(b);
        t.span_end(a);
        let trace = t.drain();
        assert_eq!(trace.events.len(), 2, "capacity bounds the buffer");
        assert_eq!(trace.dropped, 3);
        assert_eq!(trace.capacity, 2);
    }

    #[test]
    fn drain_resets_sequence_and_span_ids() {
        let (_, t) = manual(8);
        let id = t.span_begin("first");
        t.span_end(id);
        let first = t.drain();
        let id = t.span_begin("second");
        t.span_end(id);
        let second = t.drain();
        assert_eq!(first.events.len(), 2);
        assert_eq!(second.events.len(), 2);
        assert_eq!(second.events[0].seq, 0, "seq restarts per trace");
        match &second.events[0].kind {
            TraceEventKind::SpanBegin { id, .. } => assert_eq!(*id, 1, "span ids restart"),
            other => panic!("expected begin, got {other:?}"),
        }
    }

    #[test]
    fn unknown_span_end_is_ignored() {
        let (_, t) = manual(8);
        t.span_end(77);
        assert!(t.drain().events.is_empty());
    }

    #[test]
    fn a_decision_lands_on_the_timeline_as_sent() {
        let (_, t) = manual(8);
        t.decision(&Decision {
            tuple: 13,
            released: false,
            path: ConfidencePath::BetaSkipped,
            beta: 0.06,
            confidence: 0.04,
            lineage_size: 3,
        });
        let trace = t.drain();
        let [event] = &trace.events[..] else {
            panic!("one event expected: {:?}", trace.events);
        };
        let TraceEventKind::Decision(d) = &event.kind else {
            panic!("a decision expected: {event:?}");
        };
        assert_eq!(d.tuple, 13);
        assert_eq!(d.path, ConfidencePath::BetaSkipped);
    }
}
