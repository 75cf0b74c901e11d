//! The [`Recorder`]: thread-safe metric collection behind one mutex.
//!
//! All time is read through [`crate::clock::Clock`] — this crate never
//! touches `Instant`/`SystemTime` directly (the root `clippy.toml`
//! disallows both `now` methods, so the `clippy` CI stage would fail if
//! it did). Constructed with
//! [`Recorder::with_clock`] over a [`ManualClock`](crate::clock::ManualClock),
//! every span duration — and therefore every export — is deterministic.
//!
//! Spans arrive through [`pcqe_par::Observer`]'s `span_begin`/`span_end`
//! (the `sink` module), the one span API every layer uses: the recorder
//! keeps its open spans on a stack under its lock, so a span opened as
//! `execute` inside `query` is folded into the [`SpanStat`] at the path
//! `query/execute` when it closes.
//!
//! Recording can be switched off ([`Recorder::set_enabled`]): disabled
//! recorders skip the lock and the clock entirely, so the hot path cost is
//! one relaxed atomic load. Enabled or not, recording never influences
//! computation results — the recorder is write-only from the engine's
//! perspective.
//!
//! Updating a metric that exists allocates nothing: keys are looked up by
//! `&str`, and a name is copied into the store once, when its key is
//! first inserted. A run of updates that belongs together — a query's
//! own counters ([`Recorder::counters_add`]) — takes the lock once. Nor does a span, once its path is known: the path
//! is built in a buffer the recorder reuses.

use crate::clock::{Clock, SystemClock};
use crate::snapshot::{MetricsSnapshot, SpanStat};
use std::collections::BTreeMap;
use std::fmt;
#[expect(
    clippy::disallowed_types,
    reason = "locks: the recorder's one coarse Mutex and its relaxed enabled flag; a write-only sink that never holds the lock across a call out of the crate"
)]
use std::sync::{
    atomic::{AtomicBool, Ordering},
    Arc, Mutex, MutexGuard,
};

#[derive(Default)]
pub(crate) struct Inner {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
    /// The open spans, innermost last: each one's start reading and the
    /// length of its parent's path in `path`.
    open: Vec<(u64, usize)>,
    /// The innermost open span's path, `/`-separated.
    path: String,
}

/// One update per call, all under the one lock the caller holds: a key
/// that exists is found by `&str` and nothing is allocated; a new key is
/// allocated once, on insert.
impl Inner {
    fn counter_add(&mut self, name: &str, value: u64) {
        update(&mut self.counters, name, |c| *c = c.saturating_add(value));
    }

    /// Open the span `name` inside the innermost open one, at `now`.
    pub(crate) fn span_open(&mut self, name: &str, now: u64) {
        self.open.push((now, self.path.len()));
        if !self.path.is_empty() {
            self.path.push('/');
        }
        self.path.push_str(name);
    }

    /// Close the innermost open span, folding its activation into its
    /// path's [`SpanStat`] when `now` is given (recording is on).
    pub(crate) fn span_close(&mut self, now: Option<u64>) {
        let Some((started, parent)) = self.open.pop() else {
            return;
        };
        if let Some(now) = now {
            let elapsed = now.saturating_sub(started);
            let (spans, path) = (&mut self.spans, self.path.as_str());
            update(spans, path, |stat| {
                stat.count = stat.count.saturating_add(1);
                stat.total_nanos = stat.total_nanos.saturating_add(elapsed);
            });
        }
        self.path.truncate(parent);
    }
}

/// Apply `f` to the slot of `name`, inserting a default slot first if
/// there is none.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(slot) => f(slot),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

/// Span nesting the recorder makes room for up front: `query`, a phase,
/// a solver, and one more.
const SPAN_DEPTH: usize = 4;

/// Thread-safe counters and hierarchical spans.
#[expect(
    clippy::disallowed_types,
    reason = "locks: the recorder's one coarse Mutex and its relaxed enabled flag; a write-only sink that never holds the lock across a call out of the crate"
)]
pub struct Recorder {
    enabled: AtomicBool,
    clock: Arc<dyn Clock + Send + Sync>,
    inner: Mutex<Inner>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled recorder on the real monotonic clock.
    pub fn new() -> Recorder {
        Recorder::with_clock(Arc::new(SystemClock))
    }

    /// An enabled recorder on an explicit clock (tests pass
    /// [`ManualClock`](crate::clock::ManualClock) for byte-stable
    /// exports).
    #[expect(
        clippy::disallowed_types,
        reason = "locks: the recorder's one coarse Mutex and its relaxed enabled flag; a write-only sink that never holds the lock across a call out of the crate"
    )]
    pub fn with_clock(clock: Arc<dyn Clock + Send + Sync>) -> Recorder {
        // Room for the span stack and path a query's spans reach, so that
        // no query pays for them.
        let inner = Inner {
            open: Vec::with_capacity(SPAN_DEPTH),
            path: String::with_capacity(SPAN_DEPTH * 16),
            ..Inner::default()
        };
        Recorder {
            enabled: AtomicBool::new(true),
            clock,
            inner: Mutex::new(inner),
        }
    }

    /// Toggle recording. Already-collected data is kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording currently on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The recorder's clock.
    pub fn clock(&self) -> &Arc<dyn Clock + Send + Sync> {
        &self.clock
    }

    #[expect(
        clippy::disallowed_types,
        reason = "locks: the recorder's one coarse Mutex and its relaxed enabled flag; a write-only sink that never holds the lock across a call out of the crate"
    )]
    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding this mutex poisons it; the data is plain
        // counters, always valid, so recover rather than propagate.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The store, locked for a run of updates — `None` while recording is
    /// off, so a caller skips its updates without taking the lock.
    #[expect(
        clippy::disallowed_types,
        reason = "locks: the recorder's one coarse Mutex and its relaxed enabled flag; a write-only sink that never holds the lock across a call out of the crate"
    )]
    fn live(&self) -> Option<MutexGuard<'_, Inner>> {
        self.is_enabled().then(|| self.lock())
    }

    /// Add `value` to the counter `name` (created at 0), saturating.
    pub fn counter_add(&self, name: &str, value: u64) {
        if let Some(mut inner) = self.live() {
            inner.counter_add(name, value);
        }
    }

    /// [`Recorder::counter_add`] for each `(name, value)`, in order, under
    /// one lock. The deltas are read while the lock is held, so pass data
    /// already computed (an array, or an adapter over one).
    pub fn counters_add<'n>(&self, deltas: impl IntoIterator<Item = (&'n str, u64)>) {
        if let Some(mut inner) = self.live() {
            for (name, value) in deltas {
                inner.counter_add(name, value);
            }
        }
    }

    /// An ordered, mutually-consistent copy of all collected metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            spans: inner.spans.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use pcqe_par::Span;
    use std::time::Duration;

    fn manual() -> (Arc<ManualClock>, Recorder) {
        let clock = Arc::new(ManualClock::new());
        let recorder = Recorder::with_clock(clock.clone());
        (clock, recorder)
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Recorder::new();
        r.counter_add("q", 2);
        r.counter_add("q", 3);
        r.counter_add("sat", u64::MAX);
        r.counter_add("sat", 5);
        let s = r.snapshot();
        assert_eq!(s.counter("q"), 5);
        assert_eq!(s.counter("sat"), u64::MAX);
    }

    #[test]
    fn a_run_of_counter_deltas_lands_as_single_updates_do() {
        let (one_by_one, folded) = (Recorder::new(), Recorder::new());
        let deltas = [
            ("q", 2),
            ("zero", 0),
            ("q", 3),
            ("sat", u64::MAX),
            ("sat", 5),
        ];
        for (name, value) in deltas {
            one_by_one.counter_add(name, value);
        }
        folded.counters_add(deltas);
        assert_eq!(folded.snapshot(), one_by_one.snapshot());
        assert_eq!(
            folded.snapshot().counters["zero"],
            0,
            "a zero delta creates its key"
        );
        let off = Recorder::new();
        off.set_enabled(false);
        off.counters_add(deltas);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        r.set_enabled(false);
        r.counter_add("c", 1);
        drop(Span::open(&r, "s"));
        assert!(r.snapshot().is_empty());
        r.set_enabled(true);
        r.counter_add("c", 1);
        assert_eq!(r.snapshot().counter("c"), 1);
    }

    #[test]
    fn spans_time_on_the_manual_clock() {
        let (clock, r) = manual();
        for _ in 0..2 {
            let _query = Span::open(&r, "query");
            clock.advance(Duration::from_micros(10));
            {
                let _exec = Span::open(&r, "execute");
                clock.advance(Duration::from_micros(30));
            }
            clock.advance(Duration::from_micros(5));
        }
        let s = r.snapshot();
        assert_eq!(s.spans["query"].count, 2);
        assert_eq!(s.spans["query"].total_nanos, 90_000);
        assert_eq!(s.spans["query/execute"].total_nanos, 60_000);
        assert_eq!(s.spans.len(), 2, "{:?}", s.spans);
    }

    #[test]
    fn span_opened_while_disabled_never_records() {
        let (clock, r) = manual();
        r.set_enabled(false);
        let span = Span::open(&r, "late");
        r.set_enabled(true); // re-enabled mid-span: still inert
        clock.advance(Duration::from_millis(1));
        drop(Span::open(&r, "inner"));
        drop(span);
        let s = r.snapshot();
        assert_eq!(s.spans.keys().collect::<Vec<_>>(), ["inner"]);
    }

    /// A span switched off before it closes records nothing, and still
    /// leaves the stack, so the next span's path is right.
    #[test]
    fn span_closed_while_disabled_never_records() {
        let (clock, r) = manual();
        let span = Span::open(&r, "early");
        r.set_enabled(false);
        clock.advance(Duration::from_millis(1));
        drop(span);
        r.set_enabled(true);
        drop(Span::open(&r, "next"));
        let s = r.snapshot();
        assert_eq!(s.spans.keys().collect::<Vec<_>>(), ["next"]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test that the recorder counts exactly under contention"
    )]
    fn concurrent_counting_is_exact() {
        let r = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        r.counter_add("n", 1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("n"), 8000);
    }
}
