//! # pcqe-par — deterministic data parallelism on `std` alone
//!
//! A small chunked work-queue scheduler built on [`std::thread::scope`].
//! No external dependencies, no global thread pool, no unsafe code: a
//! batch of work items is split into cache-friendly chunks, worker
//! threads claim chunks from an atomic counter, and the per-chunk outputs
//! are reassembled **in input order** before returning.
//!
//! ## Determinism contract
//!
//! For a pure (or per-item-seeded) function `f`, `map(par, items, f)`
//! returns exactly `items.iter().map(f).collect()` — the same values in
//! the same order — regardless of how many worker threads ran or how
//! chunks interleaved. This is what lets the engine keep byte-identical
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Number of chunks to cut a batch into: a few morsels per worker so a
/// slow chunk does not straggle the whole batch.
const CHUNKS_PER_WORKER: usize = 4;

fn chunk_bounds(len: usize, workers: usize) -> (usize, usize) {
    let target_chunks = workers * CHUNKS_PER_WORKER;
    let chunk_size = len.div_ceil(target_chunks).max(1);
    let n_chunks = len.div_ceil(chunk_size);
    (chunk_size, n_chunks)
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
    map_indexed(par, items, |_, item| f(item))
}

/// [`map`], but `f` also receives the item's index in the input slice.
pub fn map_indexed<T, R, F>(par: &Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_indexed_observed(par, items, f, None)
}

/// [`map`] with an optional [`ParObserver`] receiving batch telemetry.
///
/// Identical output to [`map`] for every observer and thread count: the
/// observer only reads its own clock and receives counts after the fact.
pub fn map_observed<T, R, F>(
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
    map_indexed_observed(par, items, |_, item| f(item), observer)
}

/// [`map_indexed`] with an optional [`ParObserver`].
pub fn map_indexed_observed<T, R, F>(
    par: &Parallelism,
    items: &[T],
    f: F,
    observer: Option<&dyn ParObserver>,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    let workers = par.workers_for(len);
    if workers <= 1 {
        let started = observer.map(|o| o.now_nanos());
        let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        if let (Some(obs), Some(t0)) = (observer, started) {
            obs.batch(&BatchReport {
                items: len,
                workers: 1,
                chunks: 1,
                chunks_claimed: vec![1],
                busy_nanos: vec![obs.now_nanos().saturating_sub(t0)],
                reassembly_stalls: 0,
            });
        }
        return out;
    }
    let (chunk_size, n_chunks) = chunk_bounds(len, workers);
    let spawned = workers.min(n_chunks);
    let next_chunk = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    // Per-worker telemetry, written once per worker at loop exit.
    let worker_stats: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::with_capacity(spawned));
    let stalls = AtomicUsize::new(0);
    let max_pushed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..spawned {
            let f = &f;
            let next_chunk = &next_chunk;
            let done = &done;
            let worker_stats = &worker_stats;
            let stalls = &stalls;
            let max_pushed = &max_pushed;
            scope.spawn(move || {
                let mut claimed: u64 = 0;
                let mut busy: u64 = 0;
                loop {
                    let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let t0 = observer.map(|o| o.now_nanos());
                    let start = c * chunk_size;
                    let end = (start + chunk_size).min(len);
                    let out: Vec<R> = items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(off, t)| f(start + off, t))
                        .collect();
                    if let (Some(obs), Some(t0)) = (observer, t0) {
                        claimed += 1;
                        busy += obs.now_nanos().saturating_sub(t0);
                        // A chunk landing after a higher-indexed sibling
                        // means in-order reassembly had to buffer.
                        let seen = max_pushed.fetch_max(c + 1, Ordering::Relaxed);
                        if seen > c + 1 {
                            stalls.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.lock().expect("no poisoned chunk list").push((c, out));
                }
                if observer.is_some() {
                    worker_stats
                        .lock()
                        .expect("no poisoned stats list")
                        .push((w, claimed, busy));
                }
            });
        }
    });
    if let Some(obs) = observer {
        let mut per_worker = worker_stats.into_inner().expect("scope joined all workers");
        per_worker.sort_unstable_by_key(|&(w, _, _)| w);
        obs.batch(&BatchReport {
            items: len,
            workers: spawned,
            chunks: n_chunks,
            chunks_claimed: per_worker.iter().map(|&(_, c, _)| c).collect(),
            busy_nanos: per_worker.iter().map(|&(_, _, b)| b).collect(),
            reassembly_stalls: stalls.load(Ordering::Relaxed) as u64,
        });
    }
    let mut chunks = done.into_inner().expect("scope joined all workers");
    chunks.sort_unstable_by_key(|&(c, _)| c);
    debug_assert_eq!(chunks.len(), n_chunks);
    let mut out = Vec::with_capacity(len);
    for (_, mut part) in chunks {
        out.append(&mut part);
    }
    out
}

/// Fallible [`map_observed`]: apply `f` to every item in parallel and
/// return either all results in input order or the **first error in
/// input order** — matching what a sequential
/// `collect::<Result<Vec<_>, _>>()` would report (later items may still
/// have been evaluated).
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
    let attempts = map_observed(par, items, f, observer);
    attempts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn map_indexed_gives_the_input_slice_index() {
        let items = vec!["a", "b", "c", "d", "e"];
        let par = Parallelism {
            worker_threads: Some(4),
            parallel_threshold: 1,
        };
        let got = map_indexed(&par, &items, |i, s| format!("{i}{s}"));
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
        let observed = map_observed(&eight(), &items, |x| x * 7 + 3, Some(&obs));
        assert_eq!(plain, observed, "observation must not change results");
        let batches = obs.batches.lock().expect("batches");
        assert_eq!(batches.len(), 1, "one report per batch");
        let r = &batches[0];
        assert_eq!(r.items, 10_000);
        assert!(r.workers >= 1 && r.workers <= 8);
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
        let out = map_observed(
            &Parallelism::sequential(),
            &[1u8, 2, 3],
            |x| x + 1,
            Some(&obs),
        );
        assert_eq!(out, vec![2, 3, 4]);
        let report = obs.0.lock().expect("slot").clone().expect("reported");
        assert_eq!(report.workers, 1);
        assert_eq!(report.chunks, 1);
        assert_eq!(report.chunks_claimed, vec![1]);
        assert_eq!(report.reassembly_stalls, 0);
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
