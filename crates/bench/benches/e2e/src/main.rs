//! `e2e` — the end-to-end benchmark of `Database::query` / `what_if` /
//! `apply` / `query_batch`, with per-layer attribution. See README.md.
//!
//! ```text
//! e2e --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! e2e --check [--workload <name>] [--seed <u64>]
//! ```
//!
//! A closed loop with one client thread, in process. `--trace 0` runs
//! [`ROUNDS`] end-to-end rounds and reports the end-to-end metrics;
//! `--trace 1` runs the traced passes over the first 20 % of the same op
//! stream and reports the per-layer metrics. The last line of standard
//! output is the result object `BENCHMARK.json` describes.

mod adapter;
mod alloc;
mod check;
mod driver;
mod report;
mod rounds;
mod spans;
mod stats;
mod trace;
mod workload;

use report::Metric;
use rounds::{ms, Round};
use std::process::ExitCode;
use workload::{Class, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end rounds per run: many short ones, so that a burst of
/// interference from the box's other tenants spoils some replays of an op
/// and not all of them.
const ROUNDS: usize = 8;
/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 24;
const DEFAULT_SEED: u64 = 42;

/// Timed ops (`improve_loop`: cycles) per second of `--seconds`, sized on
/// the reference box so the timed part of a run lasts about `--seconds`.
/// Op counts are fixed by these constants, not by a clock: both sides of a
/// later comparison do the same work.
fn ops_per_second(workload: &str) -> f64 {
    match workload {
        "lookup" => 30_000.0,
        "analytics" => 165.0,
        "strategy" => 48.0,
        _ => 250.0,
    }
}

/// Timed ops per round under `--check`: enough to reach every op class.
fn check_ops(workload: &str) -> usize {
    match workload {
        "lookup" => 2_000,
        "analytics" => 60,
        "strategy" => 40,
        _ => 20,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn build(name: &str, seed: u64, size: usize) -> Result<Workload, String> {
    workload::build(name, seed, size).ok_or(format!("unknown workload {name}"))
}

fn header(name: &str, args: &Args, workload: &Workload) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# e2e workload={name} seed={} seconds={} trace={} loop=closed clients=1 \
         worker_threads={} nproc={nproc}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        driver::WORKER_THREADS
    );
    println!(
        "# rows={} warmup_ops={} ops_per_round={} traced_prefix={}",
        workload.rows.len(),
        workload.warmup.len(),
        workload.ops.len(),
        workload.traced_prefix
    );
}

fn print_failures(failures: &[String]) {
    for why in failures {
        println!("# FAILED {why}");
    }
}

/// Run `rounds` end-to-end rounds, logging each; the flag is true when no
/// op failed and every round produced the same checksum.
fn end_to_end(workload: &Workload, rounds: usize) -> Result<(Vec<Round>, bool), String> {
    let mut done = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let round = rounds::run(workload)?;
        println!(
            "# round {i}: setup {:.3} s, {:.1} ops/s, checksum {:016x}, {} of {} failed",
            round.setup_s, round.throughput_ops_s, round.checksum, round.failed, round.attempted
        );
        print_failures(&round.failures);
        done.push(round);
    }
    let same = done.iter().all(|r| r.checksum == done[0].checksum);
    if !same {
        println!("# FAILED rounds disagree on the checksum");
    }
    let clean = same && done.iter().all(|r| r.failed == 0);
    Ok((done, clean))
}

/// The end-to-end metrics of a run, from its rounds.
///
/// Every round replays the identical op stream against an identically
/// rebuilt database, so op `i` does the same work in every round, and its
/// latency is taken as the fastest of its replays. On this shared box
/// interference only ever slows an op down, in bursts (same binary, same
/// seed: whole rounds between 49 and 94 ops/s on `strategy`); the fastest
/// replay is the one nearest the undisturbed machine, and it repeats where
/// a mean or a median of rounds does not. Throughput and the percentiles
/// are computed over these per-op latencies; what the rounds read one by
/// one is printed beside them. `setup_s` is the median of the set-ups.
fn end_to_end_metrics(rounds: &[Round], fastest: &[(Class, u64)]) -> Result<Vec<Metric>, String> {
    let samples = fastest.len();
    let mut sorted: Vec<u64> = fastest.iter().map(|&(_, ns)| ns).collect();
    sorted.sort_unstable();
    let too_few = || format!("{samples} ops per round cannot carry a p90; raise --seconds");
    let p50 = ms(stats::percentile(&sorted, 50.0).ok_or_else(too_few)?);
    let p90 = ms(stats::percentile(&sorted, 90.0).ok_or_else(too_few)?);
    let busy_s = sorted.iter().sum::<u64>() as f64 / 1e9;
    // Median of what the rounds read one by one, and a note saying so.
    let by_round = |f: fn(&Round) -> f64| {
        let values: Vec<f64> = rounds.iter().map(f).collect();
        let median = stats::median(&values);
        let spread = stats::spread(&values);
        (
            median,
            format!("by round: median={median:.6} spread={spread:.4}"),
        )
    };
    let replays = format!("n={samples}, fastest of {} replays", rounds.len());
    let (_, throughput_by_round) = by_round(|r| r.throughput_ops_s);
    let (live_heap_mb, heap_by_round) = by_round(|r| r.live_heap_mb);
    let values = [
        by_round(|r| r.setup_s),
        (
            samples as f64 / busy_s,
            format!("{replays}; {throughput_by_round}"),
        ),
        (p50, replays.clone()),
        (p90, replays),
        (
            live_heap_mb,
            format!("{heap_by_round}; VmHWM {:.1} MB", rounds::peak_rss_mb()?),
        ),
    ];
    Ok(report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, note))| Metric {
            name: name.to_owned(),
            value,
            unit,
            note,
        })
        .collect())
}

/// What the sample supports beyond the end-to-end metrics: the p99 and
/// the per-class medians of the same per-op latencies. Informational; the
/// traced run reports its own under `engine.*`.
fn print_classes(fastest: &[(Class, u64)]) {
    let mut sorted: Vec<u64> = fastest.iter().map(|&(_, ns)| ns).collect();
    sorted.sort_unstable();
    match stats::percentile(&sorted, 99.0) {
        Some(p99) => println!("# latency_p99_ms {:.6} n={}", ms(p99), sorted.len()),
        None => println!("# latency_p99_ms unsupported n={}", sorted.len()),
    }
    for (class, median_ms, n) in rounds::class_medians(fastest) {
        println!("# {}_p50_ms {median_ms:.6} n={n}", class.name());
    }
}

fn traced_metrics(traced: &trace::Traced) -> Result<Vec<Metric>, String> {
    report::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = *traced
                .metrics
                .get(&name)
                .ok_or(format!("the traced run did not produce {name}"))?;
            Ok(Metric {
                name,
                value,
                unit,
                note: String::new(),
            })
        })
        .collect()
}

fn write_spans(name: &str, seed: u64, traced: &trace::Traced) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{name}-{seed}.csv"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        traced.spans.write_csv(&mut out)?;
        std::io::Write::flush(&mut out)
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# {} spans written to {}",
        traced.spans.all().len(),
        path.display()
    );
    Ok(())
}

/// One measured run of one workload; prints the result line.
fn measure(name: &str, args: &Args) -> Result<bool, String> {
    let size = (ops_per_second(name) * args.seconds as f64 / ROUNDS as f64).round() as usize;
    let workload = build(name, args.seed, size.max(1))?;
    header(name, args, &workload);
    let (correct, attempted, failed, metrics) = if args.trace {
        let traced = trace::run(&workload)?;
        print_failures(&traced.failures);
        for gap in &traced.gap_violations {
            println!("# recorder gap: {gap}");
        }
        write_spans(name, args.seed, &traced)?;
        (
            traced.failed == 0,
            traced.attempted,
            traced.failed,
            traced_metrics(&traced)?,
        )
    } else {
        let (rounds, clean) = end_to_end(&workload, ROUNDS)?;
        let fastest = rounds::fastest_replays(&rounds);
        print_classes(&fastest);
        (
            clean,
            rounds.iter().map(|r| r.attempted).sum(),
            rounds.iter().map(|r| r.failed).sum(),
            end_to_end_metrics(&rounds, &fastest)?,
        )
    };
    report::print_metrics(&metrics);
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// `--check`: tiny op counts, checks only — two rounds that must agree,
/// then the traced passes, whose replay must match the engine and, on
/// `analytics` and `strategy`, stay within the recorder-gap limit.
fn check(name: &str, args: &Args) -> Result<bool, String> {
    let workload = build(name, args.seed, check_ops(name))?;
    let (_, clean) = end_to_end(&workload, 2)?;
    let traced = trace::run(&workload)?;
    print_failures(&traced.failures);
    let mirrored = traced.gap_violations.is_empty() || !matches!(name, "analytics" | "strategy");
    for gap in &traced.gap_violations {
        println!("# recorder gap: {gap}");
    }
    let ok = clean && traced.failed == 0 && mirrored;
    println!("check {name}: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.check {
        let mut ok = true;
        for name in WORKLOADS {
            if args.workload.as_deref().is_none_or(|w| w == name) {
                ok &= check(name, &args)?;
            }
        }
        return Ok(ok);
    }
    let name = args
        .workload
        .clone()
        .ok_or("--workload <name> is required")?;
    measure(&name, &args)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("e2e: {why}");
            ExitCode::from(2)
        }
    }
}
