//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! figures [fig11a] [fig11b] [fig11c] [all] [--full] [--seed N] [--json PATH] [--check-params]
//! ```
//!
//! * `fig11a` — Figure 11(a) and 11(d): heuristic pruning configurations,
//!   with and without the greedy upper bound.
//! * `fig11b` — Figure 11(b) and 11(e): one- vs two-phase greedy.
//! * `fig11c` — Figure 11(c) and 11(f): scalability of all three solvers.
//! * `all` (default) — everything above.
//! * `--full` — extend the sweeps to the paper's largest sizes (50K/100K);
//!   expect minutes at the top sizes.
//! * `--json PATH` — also dump all series as JSON. The document embeds a
//!   `metrics` block: the run's `pcqe-obs` snapshot (per-figure node and
//!   timing tallies).
//! * `--check-params` — print the Table 4 parameter grid as encoded.

use pcqe_bench::report::{render_fig11a, render_fig11be, render_fig11cf, FigureReport};
use pcqe_bench::{run_fig11a, run_fig11be, run_fig11cf};
use pcqe_workload::WorkloadParams;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut full = false;
    let mut json_path: Option<String> = None;
    let mut which: Vec<&str> = Vec::new();
    let mut check_params = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => return usage("--seed needs an integer"),
                };
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => json_path = Some(p.clone()),
                    None => return usage("--json needs a path"),
                }
            }
            "--full" => full = true,
            "--check-params" => check_params = true,
            "fig11a" | "fig11d" => which.push("fig11a"),
            "fig11b" | "fig11e" => which.push("fig11b"),
            "fig11c" | "fig11f" => which.push("fig11c"),
            "all" => which.extend(["fig11a", "fig11b", "fig11c"]),
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if which.is_empty() && !check_params {
        which.extend(["fig11a", "fig11b", "fig11c"]);
    }

    if check_params {
        print_table4();
    }

    let mut report = FigureReport::default();
    // Observability: tally what each sweep did so the JSON report embeds
    // a `metrics` block alongside the figure series.
    let recorder = pcqe_obs::Recorder::new();

    if which.contains(&"fig11a") {
        println!("== Figure 11(a): heuristics, no greedy bound (10 base tuples) ==");
        report.fig11a = run_fig11a(false, seed);
        print!("{}", render_fig11a(&report.fig11a, "Figure 11(a)"));
        println!();
        println!("== Figure 11(d): heuristics, greedy bound ==");
        report.fig11d = run_fig11a(true, seed);
        print!("{}", render_fig11a(&report.fig11d, "Figure 11(d)"));
        println!();
        for (name, rows) in [("fig11a", &report.fig11a), ("fig11d", &report.fig11d)] {
            for r in rows {
                recorder.counter_add(&format!("bench.{name}.nodes"), r.nodes);
                recorder.histogram_record(&format!("bench.{name}.seconds"), r.seconds);
            }
            recorder.counter_add(&format!("bench.{name}.configs"), rows.len() as u64);
        }
    }

    if which.contains(&"fig11b") {
        let sizes: &[usize] = if full {
            &[1_000, 3_000, 5_000, 7_000, 9_000]
        } else {
            &[1_000, 3_000, 5_000]
        };
        println!("== Figure 11(b)+(e): greedy phases, sizes {sizes:?} ==");
        report.fig11be = run_fig11be(sizes, seed);
        print!("{}", render_fig11be(&report.fig11be));
        println!();
        for r in &report.fig11be {
            recorder.counter_add("bench.fig11be.rows", 1);
            recorder.histogram_record("bench.fig11be.one_phase_seconds", r.one_phase_seconds);
            recorder.histogram_record("bench.fig11be.two_phase_seconds", r.two_phase_seconds);
        }
    }

    if which.contains(&"fig11c") {
        let sizes: Vec<usize> = if full {
            vec![10, 1_000, 5_000, 10_000, 50_000, 100_000]
        } else {
            vec![10, 1_000, 5_000, 10_000]
        };
        println!("== Figure 11(c)+(f): scalability, sizes {sizes:?} ==");
        report.fig11cf = run_fig11cf(&sizes, 100, seed);
        print!("{}", render_fig11cf(&report.fig11cf));
        println!();
        for r in &report.fig11cf {
            match r.seconds {
                Some(sec) => recorder.histogram_record("bench.fig11cf.seconds", sec),
                None => recorder.counter_add("bench.fig11cf.skipped", 1),
            }
        }
    }

    report.metrics = Some(recorder.snapshot());

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn print_table4() {
    println!("== Table 4: parameters and their settings (defaults in bold) ==");
    let d = WorkloadParams::default();
    println!(
        "data size:                10, 1K, 10K, ..., 100K   (default {})",
        d.data_size
    );
    println!(
        "base tuples per result:   5, 10, 25, 50, 100        (default {})",
        d.bases_per_result
    );
    println!("confidence increment δ:   {}", d.delta);
    println!("required results θ:       {}%", d.theta * 100.0);
    println!("confidence level β:       {}", d.beta);
    println!();
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures [fig11a] [fig11b] [fig11c] [all] [--full] [--seed N] [--json PATH] [--check-params]"
    );
    ExitCode::FAILURE
}
