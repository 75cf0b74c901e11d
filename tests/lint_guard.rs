//! Tier-1 gate: the repository must satisfy its own static invariants.
//!
//! Runs `pcqe-lint` in-process over the workspace root with the checked-in
//! `lint.toml`. Any unsuppressed finding — including a stale
//! `[[allow]]` entry (PCQE-A001) — fails the build, so a violating pattern
//! cannot merge even if the author never ran the CLI. This is the same
//! analysis `ci.sh` runs as a dedicated step; the test form makes it part
//! of the plain `cargo test` contract, and so is the suppression ratchet:
//! how many findings each rule may have suppressed is the table below.
//! The invariants clippy states (`clippy.toml`, the crate roots' deny
//! line) take their exceptions as `#[expect(…)]` attributes, and those
//! are a reviewed table here too.

use pcqe_lint::rules::{is_test_code, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The findings `lint.toml` suppresses in the workspace, per rule, in
/// registry order; a rule not listed suppresses none. This table is the
/// one record of those counts: docs point here rather than repeat them.
/// The counts are held for *equality*, so the table changes only in
/// review: a new `[[allow]]` or `[[sanction]]` hit fails here until its
/// count is raised beside the entry's reason, and a suppression that went
/// away fails until its count is lowered with the change that removed it.
const SUPPRESSED: [(&str, usize); 4] = [
    ("PCQE-D004", 3),
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

/// Every `#[expect(…)]` in the workspace, per file and lint, in path
/// order: each is an exception to an invariant clippy holds
/// (`clippy.toml`'s disallowed types and methods, the crate roots' panic
/// lints). The counts are held for *equality*, like [`SUPPRESSED`]: a new
/// exception fails here until its row is added beside the reason, and one
/// that went away fails until its row is lowered. (An expectation that
/// is no longer met fails `./ci.sh --stage clippy` on its own, as
/// rustc's `unfulfilled_lint_expectations`.)
///
/// The table is also where the concurrency containment premise of
/// DESIGN.md § 7 is read: only pcqe-obs locks, only pcqe-par starts
/// threads, and no file does both. A production expectation for a lock
/// starts its reason with `locks:`, one for a thread with `threads:`;
/// the test holds where those may stand.
const EXPECTED: [(&str, &str, usize); 17] = [
    ("crates/core/src/sink.rs", "clippy::disallowed_types", 2),
    ("crates/engine/src/config.rs", "clippy::expect_used", 1),
    ("crates/lineage/src/cache.rs", "clippy::disallowed_types", 1),
    ("crates/obs/src/clock.rs", "clippy::disallowed_methods", 2),
    ("crates/obs/src/clock.rs", "clippy::disallowed_types", 2),
    (
        "crates/obs/src/recorder.rs",
        "clippy::disallowed_methods",
        1,
    ),
    ("crates/obs/src/recorder.rs", "clippy::disallowed_types", 5),
    ("crates/obs/src/trace.rs", "clippy::disallowed_types", 4),
    ("crates/par/src/lib.rs", "clippy::disallowed_methods", 1),
    ("crates/par/src/morsel.rs", "clippy::disallowed_methods", 2),
    ("crates/par/src/morsel.rs", "clippy::disallowed_types", 5),
    ("crates/storage/src/table.rs", "clippy::disallowed_types", 1),
    ("crates/storage/src/tuple.rs", "clippy::disallowed_types", 1),
    (
        "crates/storage/src/value.rs",
        "clippy::disallowed_methods",
        1,
    ),
    ("crates/workload/src/gen.rs", "clippy::expect_used", 2),
    ("tests/obs_determinism.rs", "clippy::disallowed_types", 2),
    ("tests/trace_determinism.rs", "clippy::disallowed_types", 2),
];

#[test]
fn clippy_expectations_match_the_reviewed_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = pcqe_lint::walk::rust_sources(root).expect("workspace walks");
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    // Files whose production code holds a lock / starts a thread.
    let (mut locks, mut threads) = (BTreeSet::new(), BTreeSet::new());
    // Production `#[allow]`s and module-level attributes for the lints
    // whose exceptions the table holds.
    let mut unlisted = Vec::new();
    // The detached bench workspace has its own clippy.toml, and the
    // analyzer's fixtures are never compiled.
    let compiled = sources
        .iter()
        .filter(|p| !p.starts_with("crates/bench/") && !p.contains("/fixtures/"));
    for path in compiled {
        let text = fs::read_to_string(root.join(path)).expect("source is readable");
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let tests_from = (lines.iter())
            .position(|l| *l == "#[cfg(test)]")
            .unwrap_or(lines.len());
        for (at, line) in lines.iter().enumerate() {
            let production = !is_test_code(path) && at < tests_from;
            let held = [
                "disallowed_types",
                "disallowed_methods",
                "expect_used",
                "float_cmp",
            ];
            let bypass = line.starts_with("#![expect(")
                || ((line.starts_with("#[allow(") || line.starts_with("#![allow("))
                    && held.iter().any(|lint| line.contains(lint)));
            if production && bypass {
                unlisted.push(format!("{path}:{}: {line}", at + 1));
            }
            if !line.starts_with("#[expect(") {
                continue;
            }
            // The attribute, joined across the lines rustfmt wraps it onto.
            let mut attr = String::new();
            for l in &lines[at..] {
                attr.push_str(l);
                if attr.contains(")]") {
                    break;
                }
            }
            let body = &attr["#[expect(".len()..];
            let (lints, rest) = body
                .split_once("reason")
                .unwrap_or_else(|| panic!("{path}:{}: an expectation without a reason", at + 1));
            for lint in lints.split(',').map(str::trim).filter(|l| !l.is_empty()) {
                *counts.entry((path.clone(), lint.to_owned())).or_default() += 1;
            }
            let reason = rest.split('"').nth(1).unwrap_or_default();
            if production {
                if reason.starts_with("locks:") {
                    locks.insert(path.clone());
                }
                if reason.starts_with("threads:") {
                    threads.insert(path.clone());
                }
            }
        }
    }
    let got: Vec<(&str, &str, usize)> = counts
        .iter()
        .map(|((path, lint), &n)| (path.as_str(), lint.as_str(), n))
        .collect();
    assert!(
        unlisted.is_empty(),
        "an exception must be an item-level `#[expect(…, reason)]`:\n{}",
        unlisted.join("\n")
    );
    assert_eq!(
        got, EXPECTED,
        "`#[expect(…)]`s per file and lint (left) differ from the reviewed table \
         (right): change a row only with the exception's reason under review"
    );

    let see = "lock order is no longer settled by containment: argue it and update \
               DESIGN.md § 7 (\"Containment instead of a lock-order analysis\") before \
               widening this pin";
    assert!(
        locks.iter().all(|p| p.starts_with("crates/obs/src/")),
        "a lock outside pcqe-obs: {locks:?}; {see}"
    );
    assert!(
        threads.iter().all(|p| p.starts_with("crates/par/src/")),
        "a thread outside pcqe-par: {threads:?}; {see}"
    );
    assert!(
        !locks.is_empty() && !threads.is_empty(),
        "{locks:?} {threads:?}"
    );
    assert!(locks.is_disjoint(&threads), "{see}");
}

/// Every crate root and every `src/bin` program of the workspace denies
/// clippy's panic lints (`./ci.sh --stage clippy` checks them), so
/// `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`unreachable!` are
/// clippy's everywhere, and pcqe-lint's P002 reports only index panics.
#[test]
fn panic_guarded_crate_roots_deny_clippys_panic_lints() {
    const DENY: &str = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                        clippy::todo,clippy::unimplemented,clippy::unreachable)]";
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
        // The detached bench workspace is not a member.
        if krate == "bench" {
            continue;
        }
        let src = format!("crates/{krate}/src");
        programs.push(format!("{src}/lib.rs"));
        programs.push(format!("{src}/main.rs"));
        for bin in sorted(&root.join(&src).join("bin")) {
            programs.push(format!("{src}/bin/{bin}"));
        }
    }
    programs.retain(|p| p.ends_with(".rs") && root.join(p).is_file());
    assert!(programs.len() >= 14, "too few programs: {programs:?}");

    let lacking: Vec<&String> = programs
        .iter()
        .filter(|path| {
            let text = fs::read_to_string(root.join(path)).expect("source is readable");
            // Comments do not count; rustfmt may wrap the attribute.
            let code: String = text
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
                .collect();
            !code.contains(DENY)
        })
        .collect();
    assert!(
        lacking.is_empty(),
        "these programs lack the deny line {DENY}: {lacking:?}"
    );
}

/// The graph-layer rule G001 (policy gating), the index rule P002, the
/// token rule D004 (float determinism) and the hygiene rule A002 must all
/// be live — i.e. they fire on the fixture trees that plant violations
/// for them. A rule that silently stopped firing would turn the clean
/// workspace gate above into a vacuous check. (The dataflow rules are
/// covered by `tests/flow_lint_guard.rs`.)
#[test]
fn reachability_and_hygiene_rules_are_live() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let graph = pcqe_lint::analyze(&root.join("crates/lint/tests/fixtures/graph"))
        .expect("graph fixture analysis runs");
    for rule in [Rule::P002, Rule::D004, Rule::G001] {
        assert!(
            graph.findings.iter().any(|f| f.rule == rule),
            "{} must fire on the graph fixture:\n{}",
            rule.code(),
            pcqe_lint::report::human(&graph)
        );
    }
    // P002 is flat: the private `never_called` that nothing calls is a
    // finding, and so is a `BTreeMap` index.
    let p002: Vec<(&str, u32)> = (graph.findings.iter())
        .filter(|f| f.rule == Rule::P002)
        .map(|f| (f.path.as_str(), f.line))
        .collect();
    for (site, line) in [("never-called `v[0]`", 11), ("map `m[&k]`", 17)] {
        assert!(
            p002.contains(&("crates/core/src/pick.rs", line)),
            "P002 missed the {site} at crates/core/src/pick.rs:{line}; it reported {p002:?}"
        );
    }

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
