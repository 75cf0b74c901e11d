//! # pcqe-par — deterministic data parallelism on `std` alone
//!
//! One scheduler on [`std::thread::scope`] — no external dependencies, no
//! global thread pool, no lock, no unsafe code — with one protocol and two
//! faces. The protocol is [`morsel::map_morsels`]: scoped workers claim
//! *unit* indexes from an atomic cursor and the caller reassembles their
//! results **in unit order** (a batch too light for threads runs the same
//! units on the calling thread). The faces differ in who cuts the units:
//! [`morsel::map_morsels`] / [`morsel::try_map_morsels`] take the caller's
//! variable-weight units (a run of stored rows, a hash-join partition);
//! [`map`] / [`try_map_observed`] take a homogeneous item slice, cut it
//! into a few equal chunks per worker and concatenate the parts.
//!
//! ## Determinism contract
//!
//! For a pure (or per-item-seeded) function `f`, `map(par, items, f)`
//! returns exactly `items.iter().map(f).collect()` — the same values in
//! the same order — regardless of how many worker threads ran or how
//! units interleaved. This is what lets the engine keep byte-identical
//! query answers while scaling across cores: thread count changes *when*
//! an item is evaluated, never *what* is evaluated or where its output
//! lands.
//!
//! The contract extends to shared read-only state captured by `f`. The
//! engine's lineage layer hands workers `Arc`-shared compiled circuits
//! drawn from one query's circuit pool (`pcqe-lineage`'s `CircuitCache`);
//! because `f` only *reads* that state and every item's output slot is
//! fixed by input order, scoring a batch over pooled circuits is
//! bit-identical at any thread count. (Mutable cache state — probability
//! memos, invalidation — never crosses into a parallel batch; the engine
//! drives memoized scoring sequentially and uses `map`/`try_map_observed`
//! only with immutable circuit views.)
//!
//! ## Panic propagation
//!
//! A panic inside `f` on any worker is re-raised on the calling thread
//! when the scope joins, so parallel evaluation fails as loudly as the
//! sequential loop it replaces.

pub mod morsel;

/// Per-batch scheduler telemetry handed to a [`ParObserver`].
///
/// Vectors are indexed by worker slot (`0..workers`), so per-worker skew
/// is visible: a healthy batch has near-equal `busy_nanos` entries, a
/// straggling one does not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Items in the batch.
    pub items: usize,
    /// Worker threads that ran (1 = sequential fast path).
    pub workers: usize,
    /// Chunks the batch was cut into.
    pub chunks: usize,
    /// Chunks claimed, per worker slot.
    pub chunks_claimed: Vec<u64>,
    /// Nanoseconds spent computing (claim-to-push), per worker slot.
    pub busy_nanos: Vec<u64>,
    /// Chunks that completed after a higher-indexed chunk — each one
    /// forces the in-order reassembly to hold buffered output.
    pub reassembly_stalls: u64,
}

impl BatchReport {
    /// The report of a batch that ran on the calling thread: one worker
    /// claimed all `chunks` and was busy for `busy_nanos`.
    pub fn sequential(items: usize, chunks: usize, busy_nanos: u64) -> Self {
        BatchReport {
            items,
            workers: 1,
            chunks,
            chunks_claimed: vec![chunks as u64],
            busy_nanos: vec![busy_nanos],
            reassembly_stalls: 0,
        }
    }
}

/// A passive observer of scheduler batches.
///
/// `pcqe-par` has no dependencies, so it cannot name a clock type; the
/// observer supplies its own monotonic nanosecond source via
/// [`ParObserver::now_nanos`] (the `pcqe-obs` recorder forwards
/// `pcqe_core::clock`). Observation is strictly read-only: the scheduler
/// calls `now_nanos` around chunk execution and hands one [`BatchReport`]
/// per parallel batch to [`ParObserver::batch`]. Results are unaffected.
pub trait ParObserver: Sync {
    /// A monotonic nanosecond reading from the observer's clock.
    fn now_nanos(&self) -> u64;
    /// One finished batch's telemetry.
    fn batch(&self, report: &BatchReport);
}

/// How a tuple's confidence was established on the policy-gate path.
///
/// Lives here, next to [`ParObserver`], for the same reason that trait
/// does: `pcqe-par` is the one dependency-free crate every layer can
/// name, so the scorer (`pcqe-algebra`), the circuit cache
/// (`pcqe-lineage`) and the engine can all tag decisions without a
/// dependency on the observability crate that records them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidencePath {
    /// Exact Shannon expansion (or a fresh circuit compile) ran.
    Exact,
    /// The Fréchet-style upper bound already failed β, so exact
    /// expansion was skipped; the recorded confidence is that bound.
    BetaSkipped,
    /// A memoized circuit answered without recompiling lineage.
    CacheHit,
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
    /// `path == BetaSkipped`).
    pub confidence: f64,
    /// Lineage nodes behind the tuple (0 = base tuple, no derivation).
    pub lineage_size: usize,
}

/// A passive causal-trace sink: spans, instant events, and per-tuple
/// [`Decision`] records.
///
/// Like [`ParObserver`], the trait lives on the dependency-free side and
/// the implementation (`pcqe-obs`'s ring-buffer `Tracer`) supplies its
/// own clock. Every method is observation-only: a sink may drop events
/// (bounded buffers) but must never influence the caller — query answers
/// are bit-identical whether a sink is attached, detached, or full.
pub trait TraceSink: Sync {
    /// Open a span; returns an id to close it with. Implementations
    /// return 0 when tracing is disabled, and `span_end(0)` is a no-op.
    fn span_begin(&self, name: &str) -> u64;
    /// Close the span previously opened as `id`.
    fn span_end(&self, id: u64);
    /// Whether events sent now would be recorded. A caller that has to
    /// *build* an event's detail string asks first, so a disabled sink
    /// costs no formatting; sinks that always record keep the default.
    fn enabled(&self) -> bool {
        true
    }
    /// A point-in-time event with a free-form detail string.
    fn instant(&self, name: &str, detail: &str);
    /// One per-tuple policy decision.
    fn decision(&self, decision: &Decision);
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

    /// A policy with a fixed worker count and the default threshold.
    pub fn with_workers(n: usize) -> Self {
        Parallelism {
            worker_threads: Some(n),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Workers that would actually run for a batch of `len` items.
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

/// Chunks per worker a slice is cut into: a few, so a slow chunk does not
/// straggle the whole batch.
const CHUNKS_PER_WORKER: usize = 4;

/// Items per chunk for a slice of `len` items run by `workers` workers;
/// a single worker takes the whole slice as one chunk.
fn chunk_size(len: usize, workers: usize) -> usize {
    match workers {
        0 | 1 => len.max(1),
        _ => len.div_ceil(workers * CHUNKS_PER_WORKER).max(1),
    }
}

/// Apply `f` to every item, in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` for any thread count.
/// Runs on the calling thread when the batch is below the policy's
/// threshold or only one worker is available.
pub fn map<T, R, F>(par: &Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_chunks(par, items, f, None)
}

/// Fallible [`map`] with an optional [`ParObserver`]: apply `f` to every
/// item in parallel and return either all results in input order or the
/// **first error in input order** — matching what a sequential
/// `collect::<Result<Vec<_>, _>>()` would report (later items may still
/// have been evaluated). The observer only reads its own clock and
/// receives counts after the fact; results are identical with or
/// without one.
pub fn try_map_observed<T, R, E, F>(
    par: &Parallelism,
    items: &[T],
    f: F,
    observer: Option<&dyn ParObserver>,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    map_chunks(par, items, f, observer).into_iter().collect()
}

/// The slice face of the dispatcher: cut `items` into chunks, run them as
/// morsels weighing `items.len()`, and concatenate the per-chunk outputs
/// (the first chunk's buffer is the output, so a one-chunk batch is a
/// single direct `collect`).
fn map_chunks<T, R, F>(
    par: &Parallelism,
    items: &[T],
    f: F,
    observer: Option<&dyn ParObserver>,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let len = items.len();
    let chunks: Vec<&[T]> = items
        .chunks(chunk_size(len, par.workers_for(len)))
        .collect();
    let run = |_: usize, chunk: &&[T]| chunk.iter().map(&f).collect::<Vec<R>>();
    let mut parts = morsel::map_morsels(par, &chunks, len, run, observer).into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve(len.saturating_sub(out.len()));
    for mut part in parts {
        out.append(&mut part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn eight() -> Parallelism {
        Parallelism {
            worker_threads: Some(8),
            parallel_threshold: 1,
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = map(&eight(), &[], |x: &u32| x + 1);
        assert!(out.is_empty());
        let out: Vec<u32> = map(&Parallelism::sequential(), &[], |x: &u32| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map(&eight(), &[41u32], |x| {
            calls.fetch_add(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(out, vec![42]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1usize, 2, 3, 8, 17] {
            let par = Parallelism {
                worker_threads: Some(workers),
                parallel_threshold: 1,
            };
            let got = map(&par, &items, |x| x * 3 + 1);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn the_dispatcher_gives_each_unit_its_slice_index() {
        let items = vec!["a", "b", "c", "d", "e"];
        let par = Parallelism {
            worker_threads: Some(4),
            parallel_threshold: 1,
        };
        let got = morsel::map_morsels(&par, &items, 5, |i, s| format!("{i}{s}"), None);
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn below_threshold_stays_on_calling_thread() {
        let caller = std::thread::current().id();
        let par = Parallelism {
            worker_threads: Some(8),
            parallel_threshold: 100,
        };
        let ids = map(&par, &[1, 2, 3], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..5000).collect();
        map(&eight(), &items, |&i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<u32> = (0..1000).collect();
        let result = std::panic::catch_unwind(|| {
            map(&eight(), &items, |&x| {
                if x == 500 {
                    panic!("boom at 500");
                }
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

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
    fn observed_map_matches_unobserved_map_exactly() {
        struct CountingObserver {
            ticks: AtomicUsize,
            batches: Mutex<Vec<BatchReport>>,
        }
        impl ParObserver for CountingObserver {
            fn now_nanos(&self) -> u64 {
                // A fake monotonic clock: one tick per read.
                self.ticks.fetch_add(1, Ordering::Relaxed) as u64
            }
            fn batch(&self, report: &BatchReport) {
                self.batches.lock().expect("batches").push(report.clone());
            }
        }
        let items: Vec<u64> = (0..10_000).collect();
        let plain = map(&eight(), &items, |x| x * 7 + 3);
        let obs = CountingObserver {
            ticks: AtomicUsize::new(0),
            batches: Mutex::new(Vec::new()),
        };
        let observed =
            try_map_observed(&eight(), &items, |x| Ok::<_, ()>(x * 7 + 3), Some(&obs)).unwrap();
        assert_eq!(plain, observed, "observation must not change results");
        let batches = obs.batches.lock().expect("batches");
        assert_eq!(batches.len(), 1, "one report per batch");
        let r = &batches[0];
        assert_eq!(r.items, 10_000);
        assert_eq!(r.workers, 8);
        assert_eq!(r.chunks, 32, "four 313-item chunks per worker");
        assert_eq!(r.chunks_claimed.len(), r.workers);
        assert_eq!(r.busy_nanos.len(), r.workers);
        assert_eq!(
            r.chunks_claimed.iter().sum::<u64>(),
            r.chunks as u64,
            "every chunk claimed exactly once"
        );
    }

    #[test]
    fn sequential_path_still_reports_one_chunk() {
        struct OneBatch(Mutex<Option<BatchReport>>);
        impl ParObserver for OneBatch {
            fn now_nanos(&self) -> u64 {
                0
            }
            fn batch(&self, report: &BatchReport) {
                *self.0.lock().expect("slot") = Some(report.clone());
            }
        }
        let obs = OneBatch(Mutex::new(None));
        let out = try_map_observed(
            &Parallelism::sequential(),
            &[1u8, 2, 3],
            |x| Ok::<_, ()>(x + 1),
            Some(&obs),
        );
        assert_eq!(out, Ok(vec![2, 3, 4]));
        let report = obs.0.lock().expect("slot").clone().expect("reported");
        assert_eq!(report, BatchReport::sequential(3, 1, 0));
        // An empty slice has no chunk to cut, and still reports one.
        let out = try_map_observed(&eight(), &[0u8; 0], |x| Ok::<_, ()>(x + 1), Some(&obs));
        assert_eq!(out, Ok(vec![]));
        let report = obs.0.lock().expect("slot").clone().expect("reported");
        assert_eq!(report, BatchReport::sequential(0, 1, 0));
    }

    #[test]
    fn try_map_observed_keeps_first_error_semantics() {
        struct Null;
        impl ParObserver for Null {
            fn now_nanos(&self) -> u64 {
                0
            }
            fn batch(&self, _report: &BatchReport) {}
        }
        let items: Vec<u32> = (0..10_000).collect();
        let err = try_map_observed(
            &eight(),
            &items,
            |&x| {
                if x % 3000 == 2999 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            },
            Some(&Null),
        )
        .unwrap_err();
        assert_eq!(err, "bad 2999", "must match sequential collect semantics");
        let ok: Vec<u32> = try_map_observed(&eight(), &items, |&x| Ok::<_, ()>(x), None).unwrap();
        assert_eq!(ok, items);
    }

    #[test]
    fn oversubscription_beyond_item_count_is_clamped() {
        let par = Parallelism {
            worker_threads: Some(64),
            parallel_threshold: 2,
        };
        assert_eq!(par.workers_for(3), 3, "never more workers than items");
        let got = map(&par, &[10u8, 20, 30], |x| x / 10);
        assert_eq!(got, vec![1, 2, 3]);
    }
}
