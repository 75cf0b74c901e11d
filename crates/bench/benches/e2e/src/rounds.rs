//! End-to-end rounds: rebuild the database from the workload, run the
//! untimed warm-up, replay the fixed-count op stream once, timing every
//! call. The engine's `Tracer` is off and nothing is replayed here.

use crate::alloc;
use crate::check::Fnv;
use crate::driver::Engine;
use crate::stats;
use crate::workload::{Class, Workload};
use std::time::Instant;

/// What one round measured.
pub struct Round {
    /// create + load + index + warm-up, seconds.
    pub setup_s: f64,
    /// Timed ops per second of time spent inside `Database` calls: what
    /// one client with no think time gets. Reply checks run between calls
    /// and are not the engine's time.
    pub throughput_ops_s: f64,
    /// Latency of every timed op with its class, in stream order.
    pub latencies: Vec<(Class, u64)>,
    /// Heap the round holds on to when its last op has returned: the
    /// database with its indexes, circuit pool and audit log (plus this
    /// round's latency list, 16 bytes an op).
    pub live_heap_mb: f64,
    /// FNV-1a over released values, confidence bits and proposal
    /// increments of the timed ops.
    pub checksum: u64,
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops that failed or failed a check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

/// Per op of the stream, the latency of its fastest replay over `rounds`
/// (which all ran the same stream).
pub fn fastest_replays(rounds: &[Round]) -> Vec<(Class, u64)> {
    let mut fastest = rounds.first().map_or(Vec::new(), |r| r.latencies.clone());
    for round in rounds.iter().skip(1) {
        for (best, &(_, ns)) in fastest.iter_mut().zip(&round.latencies) {
            best.1 = best.1.min(ns);
        }
    }
    fastest
}

/// Failures kept for the log.
const FAILURES_SHOWN: usize = 5;

/// Count one op's outcome.
pub fn tally(failure: Option<String>, op: usize, failed: &mut u64, failures: &mut Vec<String>) {
    if let Some(why) = failure {
        *failed += 1;
        if failures.len() < FAILURES_SHOWN {
            failures.push(format!("op {op}: {why}"));
        }
    }
}

/// Run one round of `workload`.
pub fn run(workload: &Workload) -> Result<Round, String> {
    let heap_before = alloc::live_bytes();
    let start = Instant::now();
    let mut engine = Engine::setup(workload)?;
    let (mut failed, mut failures) = (0, Vec::new());
    for (i, op) in workload.warmup.iter().enumerate() {
        tally(engine.run(op).failure, i, &mut failed, &mut failures);
    }
    let setup_s = start.elapsed().as_secs_f64();

    let mut latencies = Vec::with_capacity(workload.ops.len());
    let mut checksum = Fnv::new();
    let mut busy_ns: u64 = 0;
    for (i, op) in workload.ops.iter().enumerate() {
        let done = engine.run(op);
        busy_ns += done.latency_ns;
        latencies.push((op.class(), done.latency_ns));
        done.fold_into(&mut checksum);
        tally(done.failure, i, &mut failed, &mut failures);
    }
    Ok(Round {
        setup_s,
        throughput_ops_s: workload.ops.len() as f64 / (busy_ns as f64 / 1e9),
        latencies,
        live_heap_mb: alloc::live_bytes().saturating_sub(heap_before) as f64 / (1024.0 * 1024.0),
        checksum: checksum.finish(),
        attempted: (workload.warmup.len() + workload.ops.len()) as u64,
        failed,
        failures,
    })
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median latency per class over `samples`, for the classes present.
pub fn class_medians(samples: &[(Class, u64)]) -> Vec<(Class, f64, usize)> {
    Class::ALL
        .iter()
        .filter_map(|&class| {
            let mut v: Vec<u64> = samples
                .iter()
                .filter(|&&(c, _)| c == class)
                .map(|&(_, ns)| ns)
                .collect();
            v.sort_unstable();
            stats::median_sorted(&v).map(|m| (class, ms(m), v.len()))
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
