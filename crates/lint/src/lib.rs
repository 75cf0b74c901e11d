//! `pcqe-lint` — the in-repo static invariant analyzer.
//!
//! It checks only what the compiler cannot see: properties of call paths
//! and of dataflow, and the two constructs clippy exempts — float-literal
//! comparisons and index expressions on maps and `str`s.
//! Everything clippy can state it states, in the `clippy` CI stage, each
//! exception an item-level `#[expect(<lint>, reason = "…")]`: panicking
//! constructs (every crate root denies clippy's `unwrap_used`,
//! `expect_used`, `panic`, `todo`, `unimplemented` and `unreachable`),
//! and `clippy.toml`'s disallowed types and methods — `HashMap`/`HashSet`,
//! ambient randomness, the wall clock, every lock, atomic, channel and
//! thread of std, `f32` and `f64::total_cmp`. That every dependency is a
//! path dependency is the tier-1 test `tests/hermetic_guard.rs`.
//!
//! The analyzer is std-only — no `syn`, no registry crates — and works
//! in three layers:
//!
//! 1. **Token layer.** Every Rust source is tokenized by a hand-rolled
//!    lexer ([`lexer`]) and matched against one token-window rule
//!    ([`rules`]): a float literal compared with `==`/`!=`, or a
//!    `.partial_cmp(` call.
//! 2. **Graph layer.** The same token streams feed a lightweight item
//!    parser ([`item`]: fns, impls, `use` trees, visibility, per-fn call
//!    and index sites). Every index site in a production function is a
//!    finding as it stands (PCQE-P002); the items then link into a
//!    workspace-wide resolved call graph ([`graph`]) powering the
//!    *reachability* rule — a property that holds along every path, not
//!    just at the call sites a token window happens to see.
//! 3. **Dataflow layer.** Per-function def-use chains (`let` bindings,
//!    format captures, return-value identifiers) plus per-argument call
//!    windows feed a name-based taint analysis ([`flow`]): sources and
//!    sanctioned disclosure channels are declared, and suppressed-tuple
//!    data, β/θ thresholds and pre-gate confidence values are proven not
//!    to reach error-message, trace/metrics or shell sinks outside the
//!    declared channels.
//!
//! Everything declared rather than coded — exceptions and flow
//! sources/sinks/sanctions — lives in one `lint.toml` at the scan root
//! ([`spec`]), every entry with a required reason; entries that no
//! longer do anything are themselves errors. `pcqe-lint --list-rules`
//! prints the rule registry ([`rules::RULES`]); DESIGN.md § "Static
//! invariants" says what each rule protects. Reports come in human and
//! JSON form ([`report`]). Run it as `cargo run -p pcqe-lint`, via
//! `ci.sh`, or through the tier-1 tests `tests/lint_guard.rs` (which
//! also holds the per-rule suppression counts and the clippy
//! expectations to reviewed tables) and `tests/flow_lint_guard.rs`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod flow;
pub mod graph;
pub mod item;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod spec;
pub mod walk;

use rules::{Finding, Rule};
use std::fs;
use std::path::Path;

/// The outcome of scanning a tree.
#[derive(Debug)]
pub struct Analysis {
    /// Unsuppressed findings, sorted by (path, line, rule code). Includes
    /// the manifest-hygiene findings (stale or unreasoned entries).
    pub findings: Vec<Finding>,
    /// Findings silenced by an `[[allow]]` entry or a `[[sanction]]`,
    /// with the entry's reason.
    pub suppressed: Vec<(Finding, String)>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Does the analysis pass (no unsuppressed finding)?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Unsuppressed findings — every one fails the run.
    pub fn error_count(&self) -> usize {
        self.findings.len()
    }

    /// Narrow the report to one rule — a *display* filter for
    /// `--rule` / `.lint … RULE-ID`. Exit-code semantics are the
    /// caller's job: compute them from the full analysis first.
    pub fn filtered(mut self, rule: Rule) -> Analysis {
        self.findings.retain(|f| f.rule == rule);
        self.suppressed.retain(|(f, _)| f.rule == rule);
        self
    }
}

/// Failures of the analyzer itself (not rule findings).
#[derive(Debug)]
pub enum LintError {
    /// Filesystem problems reading the tree.
    Io(String),
    /// `lint.toml` failed to parse.
    Manifest(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(m) => write!(f, "io error: {m}"),
            LintError::Manifest(m) => write!(f, "manifest error: {m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Analyze the tree at `root`, under `<root>/lint.toml` when present
/// (absence means the empty manifest: nothing excused or declared
/// secret).
pub fn analyze(root: &Path) -> Result<Analysis, LintError> {
    let io = |e: std::io::Error, what: &str| LintError::Io(format!("{what}: {e}"));

    let manifest_path = root.join(spec::MANIFEST);
    let spec = if manifest_path.is_file() {
        let text = fs::read_to_string(&manifest_path).map_err(|e| io(e, spec::MANIFEST))?;
        spec::parse(&text, spec::MANIFEST).map_err(LintError::Manifest)?
    } else {
        spec::Spec::default()
    };
    let mut usage = spec.usage();

    // --- Scan ----------------------------------------------------------
    // Each file is lexed once; the token stream feeds the token rule
    // (D004) and the item parser, whose per-function index sites are
    // P002's findings and whose output links into the workspace call
    // graph for the reachability rule (G001) and the dataflow layer
    // (F001–F003). The analyzer itself and the detached bench workspace
    // are dev tools, not production crates, and stay out: no product
    // crate can depend on them (`tests/hermetic_guard.rs` holds every
    // dependency to a workspace path), so a name-collision edge into them
    // is spurious by construction.
    let mut raw: Vec<Finding> = Vec::new();
    let mut items: Vec<item::FileItems> = Vec::new();
    let sources = walk::rust_sources(root).map_err(|e| io(e, "walking sources"))?;
    for rel in &sources {
        let tooling = rel.starts_with("crates/lint/") || rel.starts_with("crates/bench/");
        if tooling || rules::is_test_code(rel) {
            continue;
        }
        let text = fs::read_to_string(root.join(rel)).map_err(|e| io(e, rel))?;
        let toks = lexer::lex(&text);
        let mask = rules::test_region_mask(&toks);
        rules::check_tokens(rel, &toks, &mask, &mut raw);
        let file = item::collect(rel, &toks, &mask);
        rules::check_indexes(rel, &file, &mut raw);
        items.push(file);
    }
    let call_graph = graph::CallGraph::build(items);
    graph::policy_gating(&call_graph, &mut raw);
    // Layer 3: sanctioned flows land directly in the suppressed list
    // with the sanction's reason; unsanctioned ones are findings like
    // any other (and may still be allowlisted individually below).
    let mut suppressed: Vec<(Finding, String)> = Vec::new();
    flow::dataflow(
        &call_graph,
        &spec,
        &mut usage.sanctions_hit,
        &mut raw,
        &mut suppressed,
    );

    // --- Suppress ------------------------------------------------------
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let hit = (spec.allow.iter())
            .position(|e| e.rule == f.rule && e.path == f.path && e.line == f.line);
        match hit {
            Some(idx) => {
                usage.allow_hits[idx] += 1;
                suppressed.push((f, spec.allow[idx].reason.clone()));
            }
            None => findings.push(f),
        }
    }

    // --- Manifest hygiene (A001, A002, F004, F005) ---------------------
    // After suppression, so it sees what every entry did — and so no
    // `[[allow]]` can waive a finding about the manifest itself.
    spec.hygiene(&usage, &mut findings);

    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.code().cmp(b.rule.code()))
    });

    Ok(Analysis {
        findings,
        suppressed,
        files_scanned: sources.len(),
    })
}
