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
//! (see [`map_morsels`], [`try_map_morsels`]).

use crate::Parallelism;
#[expect(
    clippy::disallowed_types,
    reason = "threads: the one dispatcher: scoped workers claim unit indexes from an atomic cursor and stream (index, result) pairs over mpsc; the caller reassembles them in unit order after the scope joins, so channel order never reaches results"
)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Apply `f` to every unit, in parallel, preserving unit order.
///
/// `weight` is the total work carried by `units` — for D&C's groups, the
/// grid points their searches range over — and gates the spawn decision,
/// so many light units stay on the calling thread. Equivalent to
/// `units.iter().enumerate().map(|(i, u)| f(i, u)).collect()` for any
/// thread count.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "threads: the one dispatcher: scoped workers claim unit indexes from an atomic cursor and stream (index, result) pairs over mpsc; the caller reassembles them in unit order after the scope joins, so channel order never reaches results"
)]
pub fn map_morsels<U, R, F>(par: &Parallelism, units: &[U], weight: usize, f: F) -> Vec<R>
where
    U: Sync,
    R: Send,
    F: Fn(usize, &U) -> R + Sync,
{
    let n_units = units.len();
    let workers = par.workers_for(weight).min(n_units.max(1));
    if workers <= 1 {
        return units.iter().enumerate().map(|(i, u)| f(i, u)).collect();
    }
    let next_unit = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let next_unit = &next_unit;
            let tx = tx.clone();
            scope.spawn(move || loop {
                let c = next_unit.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(c) else { break };
                if tx.send((c, f(c, unit))).is_err() {
                    break; // receiver gone: the scope is unwinding
                }
            });
        }
    });
    // The scope joined every worker, so the channel is fully fed; drop
    // our own sender and drain.
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..n_units).map(|_| None).collect();
    for (c, out) in rx {
        if let Some(slot) = slots.get_mut(c) {
            *slot = Some(out);
        }
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
) -> Result<Vec<R>, E>
where
    U: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &U) -> Result<R, E> + Sync,
{
    map_morsels(par, units, weight, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    #[expect(
        clippy::disallowed_types,
        reason = "a test that counts what the dispatcher's workers run"
    )]
    use std::sync::atomic::AtomicUsize;

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
            let got = map_morsels(&par, &units, weight, |i, u| {
                i as u64 * 1000 + u.iter().sum::<u64>()
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test that light work stays on the calling thread"
    )]
    fn weight_below_threshold_stays_on_calling_thread() {
        let caller = std::thread::current().id();
        let par = Parallelism {
            worker_threads: Some(8),
            parallel_threshold: 100,
        };
        // 10 units but only 30 rows of weight: stays sequential.
        let units: Vec<u32> = (0..10).collect();
        let ids = map_morsels(&par, &units, 30, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a test that counts what the dispatcher's workers run"
    )]
    fn empty_and_single_unit_batches() {
        let none: Vec<u32> = Vec::new();
        for par in [eight(), Parallelism::sequential()] {
            let out: Vec<u32> = map_morsels(&par, &none, 0, |_, u| u + 1);
            assert!(out.is_empty());
        }
        let calls = AtomicUsize::new(0);
        let out = map_morsels(&eight(), &[41u32], 5000, |_, u| {
            calls.fetch_add(1, Ordering::SeqCst);
            u + 1
        });
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
        let got = map_morsels(&par, &units, 5, |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a test that counts what the dispatcher's workers run"
    )]
    fn every_unit_visited_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        let units: Vec<usize> = (0..5000).collect();
        map_morsels(&eight(), &units, units.len(), |_, &i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn try_map_morsels_returns_first_error_in_unit_order() {
        let units: Vec<u32> = (0..500).collect();
        let err = try_map_morsels(&eight(), &units, 50_000, |_, &u| {
            if u % 100 == 99 {
                Err(format!("bad {u}"))
            } else {
                Ok(u)
            }
        })
        .unwrap_err();
        assert_eq!(err, "bad 99", "must match sequential collect semantics");
        let ok: Vec<u32> =
            try_map_morsels(&eight(), &units, 50_000, |_, &u| Ok::<_, ()>(u)).unwrap();
        assert_eq!(ok, units);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let units: Vec<u32> = (0..200).collect();
        let result = std::panic::catch_unwind(|| {
            map_morsels(&eight(), &units, 20_000, |_, &u| {
                if u == 100 {
                    panic!("boom at 100");
                }
                u
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }
}
