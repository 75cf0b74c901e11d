//! # pcqe-par — deterministic data parallelism on `std` alone
//!
//! One scheduler on [`std::thread::scope`] — no external dependencies, no
//! global thread pool, no lock, no unsafe code — behind one protocol,
//! [`morsel::map_morsels`] (and its fallible twin
//! [`morsel::try_map_morsels`]): scoped workers claim *unit* indexes from
//! an atomic cursor and the caller reassembles their results **in unit
//! order** (a batch too light for threads runs the same units on the
//! calling thread). Its one caller is the strategy finder's
//! divide-and-conquer, whose units are the independent groups of
//! `pcqe-core`'s partition; plan execution, result scoring and a solver's
//! initial scoring run on the calling thread, where threads were measured
//! not to pay.
//!
//! ## Determinism contract
//!
//! For a pure (or per-unit-seeded) function `f`,
//! `map_morsels(par, units, weight, f)` returns exactly
//! `units.iter().enumerate().map(|(i, u)| f(i, u)).collect()` — the same
//! values in the same order — regardless of how many worker threads ran or
//! how units interleaved. Thread count changes *when* a unit is evaluated,
//! never *what* is evaluated or where its output lands.
//!
//! The contract extends to shared read-only state captured by `f`. D&C's
//! groups read one problem instance and its `Arc`-shared compiled
//! circuits; because `f` only *reads* that state and every unit's output
//! slot is fixed by input order, the groups' answers are bit-identical at
//! any thread count. (Mutable cache state — probability memos,
//! invalidation — never crosses into a parallel batch.)
//!
//! ## Panic propagation
//!
//! A panic inside `f` on any worker is re-raised on the calling thread
//! when the scope joins, so parallel evaluation fails as loudly as the
//! sequential loop it replaces.
//!
//! ## One instrumentation trait
//!
//! [`Observer`] — spans, instants, gate [`Decision`]s, solver counters —
//! lives here because every other crate can name this one; the engine
//! decides once per call which listener every layer gets. [`Span`] is the
//! one way a layer opens a span on it. The dispatcher reports nothing to
//! it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod morsel;

/// How a tuple's confidence was established on the policy-gate path.
///
/// Lives here, next to [`Observer`], for the same reason that trait
/// does: `pcqe-par` is the one dependency-free crate every layer can
/// name, so the scorer (`pcqe-algebra`) and the engine can tag
/// decisions without a dependency on the observability crate that
/// records them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidencePath {
    /// The exact confidence: compiled and evaluated, or served by the
    /// circuit cache's memo (which records that as its `cache.hit`).
    Exact,
    /// The Fréchet-style upper bound already failed β, so exact
    /// expansion was skipped; the recorded confidence is that bound.
    BetaSkipped,
    /// Exact expansion ran past its Shannon budget; the recorded
    /// confidence is the Fréchet lower bound, so a release on it is sound.
    Bounded,
}

/// One per-tuple policy decision: the causal record of why a tuple was
/// released or suppressed by the β gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Which tuple the gate judged: the ordinal of the scored result row
    /// within its query (derived rows have no single base `TupleId`, and
    /// result order is deterministic, so the ordinal is a stable key —
    /// it matches the row's position in the released/withheld audit
    /// accounting).
    pub tuple: u64,
    /// `true` iff the tuple cleared the policy gate.
    pub released: bool,
    /// How the deciding confidence value was computed.
    pub path: ConfidencePath,
    /// The policy threshold the confidence was compared against.
    pub beta: f64,
    /// The confidence value the gate saw (an upper bound when
    /// `path == BetaSkipped`, a lower bound when `path == Bounded`).
    pub confidence: f64,
    /// Lineage nodes behind the tuple (0 = base tuple, no derivation).
    pub lineage_size: usize,
}

/// The one instrumentation trait every layer reports through; every
/// method is a no-op by default and `()` is the null listener.
/// `pcqe-obs` implements it: `Recorder` keeps counters and span totals,
/// `Tracer` the timeline, `Listeners` routes between them. A listener is
/// strictly passive — it may drop what it is sent, never influence the
/// caller.
pub trait Observer: Sync {
    /// The listener that keeps a timeline — the one to send instants,
    /// decisions and timeline-only spans (the executor's `op:*`) to — or
    /// `None` when nothing sent now would be kept. A caller that must
    /// *build* a name or detail string asks first, so a listener that
    /// keeps no timeline costs no formatting.
    fn timeline(&self) -> Option<&dyn Observer> {
        None
    }
    /// Open a span nested in the innermost one still open; returns an id
    /// to close it with. A listener that keeps no span returns 0, and
    /// `span_end(0)` is a no-op. [`Span`] pairs the two calls.
    fn span_begin(&self, _name: &str) -> u64 {
        0
    }
    /// Close the span previously opened as `id`.
    fn span_end(&self, _id: u64) {}
    /// A point-in-time event with a free-form detail string.
    fn instant(&self, _name: &str, _detail: &str) {}
    /// One per-tuple policy decision.
    fn decision(&self, _decision: &Decision) {}
    /// Add `value` to the counter `name` (solver statistics).
    fn count(&self, _name: &str, _value: u64) {}
}

impl Observer for () {}

/// An open span on one [`Observer`], closed when the guard drops — so a
/// span closes on every exit, `?` and early returns included, and spans
/// nest as the guards' scopes do.
#[must_use = "the span closes when the guard drops"]
pub struct Span<'a> {
    observer: &'a dyn Observer,
    id: u64,
}

impl<'a> Span<'a> {
    /// Open the span `name` on `observer` (`&()` opens none).
    pub fn open(observer: &'a dyn Observer, name: &str) -> Span<'a> {
        Span {
            observer,
            id: observer.span_begin(name),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.observer.span_end(self.id);
    }
}

/// Parallelism policy: how many workers, and when to bother.
///
/// `worker_threads = None` asks the host for
/// [`std::thread::available_parallelism`]; `Some(n)` uses exactly `n`
/// workers (even when `n` exceeds the core count — useful for oversubscription
/// tests and for proving thread-count independence on small machines).
/// Batches shorter than `parallel_threshold` always run on the calling
/// thread: spawning costs more than it saves for small inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker count cap. `None` = one worker per available core.
    pub worker_threads: Option<usize>,
    /// Minimum batch length before threads are spawned.
    pub parallel_threshold: usize,
}

/// Default minimum batch size that justifies spawning worker threads.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1024;

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            worker_threads: None,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }
}

impl Parallelism {
    /// A policy that never spawns: bit-for-bit the sequential engine.
    pub fn sequential() -> Self {
        Parallelism {
            worker_threads: Some(1),
            parallel_threshold: usize::MAX,
        }
    }

    /// Workers that would actually run for a batch of `len` items.
    #[expect(
        clippy::disallowed_methods,
        reason = "threads: the dispatcher sizes its worker pool to the machine when no count is set"
    )]
    pub fn workers_for(&self, len: usize) -> usize {
        if len < self.parallel_threshold.max(2) {
            return 1;
        }
        let cap = self.worker_threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        cap.clamp(1, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_for_respects_threshold_and_caps() {
        let par = Parallelism {
            worker_threads: Some(4),
            parallel_threshold: 10,
        };
        assert_eq!(par.workers_for(5), 1, "below threshold");
        assert_eq!(par.workers_for(100), 4, "capped at configured workers");
        assert_eq!(par.workers_for(0), 1, "empty batch needs no workers");
        let seq = Parallelism::sequential();
        assert_eq!(seq.workers_for(1_000_000), 1);
    }

    #[test]
    fn oversubscription_beyond_item_count_is_clamped() {
        let par = Parallelism {
            worker_threads: Some(64),
            parallel_threshold: 2,
        };
        assert_eq!(par.workers_for(3), 3, "never more workers than items");
        let got = morsel::map_morsels(&par, &[10u8, 20, 30], 3, |_, x| x / 10);
        assert_eq!(got, vec![1, 2, 3]);
    }
}
