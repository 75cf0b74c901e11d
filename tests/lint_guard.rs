//! Tier-1 gate: the repository must satisfy its own static invariants.
//!
//! Runs `pcqe-lint` in-process over the workspace root with the checked-in
//! `lint.toml`. Any unsuppressed finding — including a stale
//! `[[allow]]` entry (PCQE-A001) — fails the build, so a violating pattern
//! cannot merge even if the author never ran the CLI. This is the same
//! analysis `ci.sh` runs as a dedicated step; the test form makes it part
//! of the plain `cargo test` contract, and so is the suppression ratchet:
//! how many findings each rule may have suppressed is the table below.

use pcqe_lint::rules::{FileClass, Rule};
use std::fs;
use std::path::Path;

/// The findings `lint.toml` suppresses in the workspace, per rule, in
/// registry order; a rule not listed suppresses none. This table is the
/// one record of those counts: docs point here rather than repeat them.
/// The counts are held for *equality*, so the table changes only in
/// review: a new `[[allow]]` or `[[sanction]]` hit fails here until its
/// count is raised beside the entry's reason, and a suppression that went
/// away fails until its count is lowered with the change that removed it.
const SUPPRESSED: [(&str, usize); 5] = [
    ("PCQE-D004", 2),
    ("PCQE-P002", 82),
    ("PCQE-F001", 3),
    ("PCQE-F002", 5),
    ("PCQE-F003", 1),
];

#[test]
fn workspace_passes_its_own_static_analysis() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = pcqe_lint::analyze(root).expect("lint analysis runs");

    // The walk must actually have covered the tree; a silently empty scan
    // would make this guard vacuous.
    assert!(
        analysis.files_scanned >= 100,
        "suspiciously few sources scanned ({})",
        analysis.files_scanned
    );

    assert!(
        analysis.is_clean(),
        "pcqe-lint found violations:\n{}",
        pcqe_lint::report::human(&analysis)
    );

    // Every suppression must carry a reason (rule PCQE-A002 enforces it;
    // this keeps the invariant visible at the gate).
    for (finding, reason) in &analysis.suppressed {
        assert!(
            !reason.trim().is_empty(),
            "unreasoned suppression for {} at {}:{}",
            finding.rule.code(),
            finding.path,
            finding.line
        );
    }

    // The ratchet: suppressed findings per rule equal the reviewed table.
    let suppressed: Vec<(&str, usize)> = Rule::all()
        .into_iter()
        .map(|rule| {
            let n = analysis.suppressed.iter().filter(|(f, _)| f.rule == rule);
            (rule.code(), n.count())
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(
        suppressed, SUPPRESSED,
        "suppressed findings per rule (left) differ from the reviewed table (right): \
         raise a count only with the suppression's reason under review, and lower it \
         with the change that removed one"
    );
}

/// The panic-guarded crates deny clippy's panic lints at their roots
/// (`./ci.sh --stage clippy` checks them), while pcqe-lint's
/// `PANIC_GUARDED` list decides where P002 reports only index panics,
/// leaving `unwrap`/`expect`/`panic!` to clippy. The two must name the
/// same crates, in both directions: a crate added to the list without the
/// deny line would get index-only reporting and no unwrap check at all.
/// Every crate root and every `src/bin` program carries the line if and
/// only if the analyzer classifies it as panic-guarded.
#[test]
fn panic_guarded_crate_roots_deny_clippys_panic_lints() {
    const DENY: &str = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                        clippy::todo,clippy::unimplemented)]";
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sorted = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .map(|entries| {
                entries
                    .map(|e| e.expect("readable dir entry").file_name())
                    .map(|n| n.to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    };
    let mut programs = vec!["src/lib.rs".to_owned()];
    for krate in sorted(&root.join("crates")) {
        let src = format!("crates/{krate}/src");
        programs.push(format!("{src}/lib.rs"));
        programs.push(format!("{src}/main.rs"));
        for bin in sorted(&root.join(&src).join("bin")) {
            programs.push(format!("{src}/bin/{bin}"));
        }
    }
    programs.retain(|p| p.ends_with(".rs") && root.join(p).is_file());

    let mut guarded = 0;
    let mut mismatched = Vec::new();
    for path in &programs {
        let text = fs::read_to_string(root.join(path)).expect("source is readable");
        // Comments do not count; rustfmt may wrap the attribute.
        let code: String = text
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
            .collect();
        let denies = code.contains(DENY);
        let expected = FileClass::classify(path).p001;
        guarded += usize::from(expected);
        if denies != expected {
            mismatched.push(format!(
                "{path}: {} the deny line, but pcqe-lint classifies it as {}",
                if denies { "carries" } else { "lacks" },
                if expected {
                    "panic-guarded"
                } else {
                    "not panic-guarded"
                }
            ));
        }
    }
    assert!(guarded > 0, "no panic-guarded program among {programs:?}");
    assert!(
        mismatched.is_empty(),
        "crate roots and PANIC_GUARDED disagree:\n{}",
        mismatched.join("\n")
    );
}

/// The graph-layer rules (P002 panic-reachability, G001 policy-gating),
/// the token rules D004 (float determinism) and C002 (capability
/// coverage), and the hygiene rule A002 must all be live — i.e. they
/// fire on the fixture trees that plant exactly one violation each. A
/// rule that silently stopped firing would turn the clean workspace
/// gate above into a vacuous check. (The hygiene rule A003 is covered
/// by `tests/concurrency_lint_guard.rs`, the dataflow rules by
/// `tests/flow_lint_guard.rs`.)
#[test]
fn reachability_and_hygiene_rules_are_live() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let graph = pcqe_lint::analyze(&root.join("crates/lint/tests/fixtures/graph"))
        .expect("graph fixture analysis runs");
    for rule in [Rule::P002, Rule::D004, Rule::C002, Rule::G001] {
        assert!(
            graph.findings.iter().any(|f| f.rule == rule),
            "{} must fire on the graph fixture:\n{}",
            rule.code(),
            pcqe_lint::report::human(&graph)
        );
    }
    // The planted transitive panic is reported at the site with the full
    // witness call path from the guarded public API.
    let p002 = graph
        .findings
        .iter()
        .find(|f| f.rule == Rule::P002)
        .expect("P002 finding present");
    assert_eq!(p002.path, "crates/core/src/pick.rs");
    assert!(
        p002.message
            .contains("pcqe_engine::run → pcqe_engine::step → pcqe_core::pick"),
        "witness path missing in: {}",
        p002.message
    );

    let noreason = pcqe_lint::analyze(&root.join("crates/lint/tests/fixtures/noreason"))
        .expect("noreason fixture analysis runs");
    assert!(
        noreason.findings.iter().any(|f| f.rule == Rule::A002),
        "PCQE-A002 must fire on the unreasoned allowlist entry:\n{}",
        pcqe_lint::report::human(&noreason)
    );
}

/// The JSON report is what `.lint json` and `pcqe-lint --format json`
/// print: it must be byte-identical across runs and parseable by the
/// in-repo JSON reader, with counts that agree with the analysis itself.
#[test]
fn json_report_is_byte_stable_and_round_trips_through_the_obs_parser() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let a = pcqe_lint::analyze(root).expect("first analysis runs");
    let b = pcqe_lint::analyze(root).expect("second analysis runs");
    let ja = pcqe_lint::report::json(&a);
    let jb = pcqe_lint::report::json(&b);
    assert_eq!(ja, jb, "JSON report drifted between two identical runs");

    let value = pcqe_obs::json::parse(&ja).expect("report parses with pcqe_obs::json");
    let obj = value.as_object().expect("top level is an object");
    assert_eq!(obj["tool"].as_str(), Some("pcqe-lint"));
    assert_eq!(obj["format_version"].as_u64(), Some(6));
    let findings = obj["findings"].as_array().expect("findings array");
    assert_eq!(findings.len(), a.findings.len());
    let summary = obj["summary"].as_object().expect("summary object");
    assert_eq!(summary["errors"].as_u64(), Some(a.error_count() as u64));
    assert_eq!(summary["files"].as_u64(), Some(a.files_scanned as u64));
    assert_eq!(
        summary["suppressed"].as_u64(),
        Some(a.suppressed.len() as u64)
    );
}
