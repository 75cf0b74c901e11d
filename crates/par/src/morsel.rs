//! The dispatcher: every `pcqe-par` batch runs through [`map_morsels`].
//!
//! Work arrives already cut into **units** — morsels of variable weight,
//! such as the independent groups of a divide-and-conquer solve — and each
//! unit gets exactly one `f` application:
//!
//! * workers claim unit indexes from an atomic cursor;
//! * finished units flow back over an [`std::sync::mpsc`] channel and are
//!   reassembled **in unit order** on the calling thread;
//! * `weight` (the work across all units) — not the unit count — decides
//!   whether spawning pays off, via [`Parallelism::workers_for`].
//!
//! For a pure `f` the output is the sequential one at any thread count
//! (see [`map_morsels`], [`try_map_morsels`]). Batch telemetry goes to
//! the caller's [`Observer`] once, after the scope joins — never from
//! inside a worker — so a listener sees deterministic structure (items,
//! chunks) with only the timing fields varying run to run.

use crate::{BatchReport, Observer, Parallelism};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Apply `f` to every unit, in parallel, preserving unit order.
///
/// `weight` is the total work carried by `units` — for D&C's groups, the
/// grid points their searches range over — and gates the spawn decision,
/// so many light units stay on the calling thread. Equivalent to
/// `units.iter().enumerate().map(|(i, u)| f(i, u)).collect()` for any
/// thread count.
pub fn map_morsels<U, R, F>(
    par: &Parallelism,
    units: &[U],
    weight: usize,
    f: F,
    observer: Option<&dyn Observer>,
) -> Vec<R>
where
    U: Sync,
    R: Send,
    F: Fn(usize, &U) -> R + Sync,
{
    let n_units = units.len();
    let workers = par.workers_for(weight).min(n_units.max(1));
    if workers <= 1 {
        let started = observer.map(|o| o.now_nanos());
        let out: Vec<R> = units.iter().enumerate().map(|(i, u)| f(i, u)).collect();
        if let (Some(obs), Some(t0)) = (observer, started) {
            let busy = obs.now_nanos().saturating_sub(t0);
            obs.batch(&BatchReport::sequential(weight, n_units.max(1), busy));
        }
        return out;
    }
    let next_unit = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    // Per-worker telemetry, pushed once per worker at loop exit.
    let (stats_tx, stats_rx) = mpsc::channel::<(usize, u64, u64)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let f = &f;
            let next_unit = &next_unit;
            let tx = tx.clone();
            let stats_tx = stats_tx.clone();
            scope.spawn(move || {
                let mut claimed: u64 = 0;
                let mut busy: u64 = 0;
                loop {
                    let c = next_unit.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units.get(c) else { break };
                    let t0 = observer.map(|o| o.now_nanos());
                    let out = f(c, unit);
                    if let (Some(obs), Some(t0)) = (observer, t0) {
                        claimed += 1;
                        busy += obs.now_nanos().saturating_sub(t0);
                    }
                    if tx.send((c, out)).is_err() {
                        break; // receiver gone: the scope is unwinding
                    }
                }
                if observer.is_some() {
                    let _ = stats_tx.send((w, claimed, busy));
                }
            });
        }
    });
    // The scope joined every worker, so both channels are fully fed;
    // drop our own senders and drain.
    drop(tx);
    drop(stats_tx);
    let mut slots: Vec<Option<R>> = (0..n_units).map(|_| None).collect();
    let mut stalls: u64 = 0;
    let mut max_seen: usize = 0;
    for (c, out) in rx {
        // A unit arriving after a higher-indexed sibling means in-order
        // reassembly had to hold buffered output.
        if max_seen > c + 1 {
            stalls += 1;
        }
        max_seen = max_seen.max(c + 1);
        if let Some(slot) = slots.get_mut(c) {
            *slot = Some(out);
        }
    }
    if let Some(obs) = observer {
        let mut per_worker: Vec<(usize, u64, u64)> = stats_rx.into_iter().collect();
        per_worker.sort_unstable_by_key(|&(w, _, _)| w);
        obs.batch(&BatchReport {
            items: weight,
            workers,
            chunks: n_units,
            chunks_claimed: per_worker.iter().map(|&(_, c, _)| c).collect(),
            busy_nanos: per_worker.iter().map(|&(_, _, b)| b).collect(),
            reassembly_stalls: stalls,
        });
    }
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n_units, "every unit produced exactly once");
    out
}

/// Fallible [`map_morsels`]: all results in unit order, or the **first
/// error in unit order** — matching a sequential
/// `collect::<Result<Vec<_>, _>>()` (later units may still have run).
pub fn try_map_morsels<U, R, E, F>(
    par: &Parallelism,
    units: &[U],
    weight: usize,
    f: F,
    observer: Option<&dyn Observer>,
) -> Result<Vec<R>, E>
where
    U: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &U) -> Result<R, E> + Sync,
{
    map_morsels(par, units, weight, f, observer)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    fn eight() -> Parallelism {
        Parallelism {
            worker_threads: Some(8),
            parallel_threshold: 1,
        }
    }

    #[test]
    fn preserves_unit_order_at_every_thread_count() {
        let units: Vec<Vec<u64>> = (0..97).map(|i| vec![i, i + 1, i + 2]).collect();
        let weight: usize = units.iter().map(Vec::len).sum();
        let expect: Vec<u64> = units
            .iter()
            .enumerate()
            .map(|(i, u)| i as u64 * 1000 + u.iter().sum::<u64>())
            .collect();
        for workers in [1usize, 2, 3, 8, 17] {
            let par = Parallelism {
                worker_threads: Some(workers),
                parallel_threshold: 1,
            };
            let got = map_morsels(
                &par,
                &units,
                weight,
                |i, u| i as u64 * 1000 + u.iter().sum::<u64>(),
                None,
            );
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn weight_below_threshold_stays_on_calling_thread() {
        let caller = std::thread::current().id();
        let par = Parallelism {
            worker_threads: Some(8),
            parallel_threshold: 100,
        };
        // 10 units but only 30 rows of weight: stays sequential.
        let units: Vec<u32> = (0..10).collect();
        let ids = map_morsels(&par, &units, 30, |_, _| std::thread::current().id(), None);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_and_single_unit_batches() {
        let none: Vec<u32> = Vec::new();
        for par in [eight(), Parallelism::sequential()] {
            let out: Vec<u32> = map_morsels(&par, &none, 0, |_, u| u + 1, None);
            assert!(out.is_empty());
        }
        let calls = AtomicUsize::new(0);
        let out = map_morsels(
            &eight(),
            &[41u32],
            5000,
            |_, u| {
                calls.fetch_add(1, Ordering::SeqCst);
                u + 1
            },
            None,
        );
        assert_eq!(out, vec![42]);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one unit, one run");
    }

    #[test]
    fn the_dispatcher_gives_each_unit_its_index() {
        let units = vec!["a", "b", "c", "d", "e"];
        let par = Parallelism {
            worker_threads: Some(4),
            parallel_threshold: 1,
        };
        let got = map_morsels(&par, &units, 5, |i, s| format!("{i}{s}"), None);
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn every_unit_visited_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        let units: Vec<usize> = (0..5000).collect();
        map_morsels(
            &eight(),
            &units,
            units.len(),
            |_, &i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            },
            None,
        );
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn try_map_morsels_returns_first_error_in_unit_order() {
        let units: Vec<u32> = (0..500).collect();
        for observer in [None, Some(&() as &dyn Observer)] {
            let err = try_map_morsels(
                &eight(),
                &units,
                50_000,
                |_, &u| {
                    if u % 100 == 99 {
                        Err(format!("bad {u}"))
                    } else {
                        Ok(u)
                    }
                },
                observer,
            )
            .unwrap_err();
            assert_eq!(err, "bad 99", "must match sequential collect semantics");
        }
        let ok: Vec<u32> =
            try_map_morsels(&eight(), &units, 50_000, |_, &u| Ok::<_, ()>(u), None).unwrap();
        assert_eq!(ok, units);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let units: Vec<u32> = (0..200).collect();
        let result = std::panic::catch_unwind(|| {
            map_morsels(
                &eight(),
                &units,
                20_000,
                |_, &u| {
                    if u == 100 {
                        panic!("boom at 100");
                    }
                    u
                },
                None,
            )
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn one_report_after_the_scope_joins() {
        struct Obs {
            ticks: AtomicUsize,
            batches: Mutex<Vec<BatchReport>>,
        }
        impl Observer for Obs {
            fn now_nanos(&self) -> u64 {
                self.ticks.fetch_add(1, Ordering::Relaxed) as u64
            }
            fn batch(&self, report: &BatchReport) {
                self.batches.lock().expect("batches").push(report.clone());
            }
        }
        let units: Vec<u64> = (0..64).collect();
        let obs = Obs {
            ticks: AtomicUsize::new(0),
            batches: Mutex::new(Vec::new()),
        };
        let plain = map_morsels(&eight(), &units, 64 * 1024, |i, &u| i as u64 + u, None);
        let observed = map_morsels(
            &eight(),
            &units,
            64 * 1024,
            |i, &u| i as u64 + u,
            Some(&obs),
        );
        assert_eq!(plain, observed, "observation must not change results");
        let batches = obs.batches.lock().expect("batches");
        assert_eq!(batches.len(), 1, "one report per morsel batch");
        let r = &batches[0];
        assert_eq!(r.items, 64 * 1024, "items counts weight, not units");
        assert_eq!(r.chunks, 64, "chunks counts morsels");
        assert!(r.workers >= 1 && r.workers <= 8);
        assert_eq!(r.chunks_claimed.len(), r.workers);
        assert_eq!(r.busy_nanos.len(), r.workers);
        assert_eq!(
            r.chunks_claimed.iter().sum::<u64>(),
            r.chunks as u64,
            "every morsel claimed exactly once"
        );
    }

    #[test]
    fn sequential_fast_path_still_reports() {
        struct OneBatch(Mutex<Option<BatchReport>>);
        impl Observer for OneBatch {
            fn batch(&self, report: &BatchReport) {
                *self.0.lock().expect("slot") = Some(report.clone());
            }
        }
        let obs = OneBatch(Mutex::new(None));
        let out = map_morsels(
            &Parallelism::sequential(),
            &[1u8, 2, 3],
            3,
            |_, x| x + 1,
            Some(&obs),
        );
        assert_eq!(out, vec![2, 3, 4]);
        let report = obs.0.lock().expect("slot").clone().expect("reported");
        assert_eq!(report.workers, 1);
        assert_eq!(report.items, 3);
        assert_eq!(report.chunks, 3);
        assert_eq!(report.chunks_claimed, vec![3]);
        assert_eq!(report.reassembly_stalls, 0);
        // An empty batch has no unit to run, and still reports one chunk.
        let out: Vec<u8> = map_morsels(&eight(), &[], 0, |_, x: &u8| x + 1, Some(&obs));
        assert!(out.is_empty());
        let report = obs.0.lock().expect("slot").clone().expect("reported");
        assert_eq!(report, BatchReport::sequential(0, 1, 0));
    }
}
