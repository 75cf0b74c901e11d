//! `pcqe-lint` CLI.
//!
//! ```text
//! pcqe-lint [--root DIR] [--format human|json] [--rule ID] [--list-rules]
//! ```
//!
//! Exit status: `0` clean, `1` unsuppressed error findings, `2` usage or
//! I/O failure. With no `--root`, the scan root is found by walking up
//! from the current directory to the first `Cargo.toml` containing a
//! `[workspace]` table — so `cargo run -p pcqe-lint` works from anywhere
//! inside the repository. `--rule` narrows the *displayed* report to one
//! rule id; the exit status still reflects the full analysis, so a
//! filtered view can never hide a failure.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut rule: Option<pcqe_lint::rules::Rule> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--rule" => match args
                .next()
                .as_deref()
                .map(|v| (v, pcqe_lint::rules::Rule::parse(v)))
            {
                Some((_, Some(r))) => rule = Some(r),
                Some((v, None)) => {
                    return usage(&format!("unknown rule id `{v}` (try --list-rules)"))
                }
                None => return usage("--rule needs a rule id (e.g. PCQE-G001)"),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    return usage(&format!(
                        "--format must be `human` or `json`, got `{}`",
                        other.unwrap_or("<none>")
                    ))
                }
            },
            "--list-rules" => {
                for rule in pcqe_lint::rules::Rule::all() {
                    println!("{} {}", rule.code(), rule.summary());
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!(
                    "pcqe-lint: static invariant analyzer (float comparisons, index panics, policy gating, confidentiality)\n\n\
                     usage: pcqe-lint [--root DIR] [--format human|json] [--rule ID] [--list-rules]\n\n\
                     --rule ID narrows the displayed report to one rule; the exit status\n\
                     still reflects the full analysis\n\n\
                     exit status: 0 clean, 1 findings, 2 usage/io error"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!(
                    "pcqe-lint: no workspace root found (run inside the repo or pass --root)"
                );
                return ExitCode::from(2);
            }
        },
    };

    match pcqe_lint::analyze(&root) {
        Ok(analysis) => {
            // Exit semantics come from the FULL analysis; `--rule` only
            // narrows what is printed.
            let clean = analysis.is_clean();
            let display = match rule {
                Some(r) => analysis.filtered(r),
                None => analysis,
            };
            let rendered = match format {
                Format::Human => pcqe_lint::report::human(&display),
                Format::Json => pcqe_lint::report::json(&display),
            };
            print!("{rendered}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("pcqe-lint: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Clone, Copy)]
enum Format {
    Human,
    Json,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("pcqe-lint: {msg} (try --help)");
    ExitCode::from(2)
}

/// Walk up from the current directory to the first manifest declaring a
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !pop(&mut dir) {
            return None;
        }
    }
}

fn pop(dir: &mut PathBuf) -> bool {
    let parent: Option<&Path> = dir.parent();
    match parent {
        Some(p) => {
            let p = p.to_path_buf();
            *dir = p;
            true
        }
        None => false,
    }
}
