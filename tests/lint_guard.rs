//! Tier-1 gate: the repository must satisfy its own static invariants.
//!
//! Runs `pcqe-lint` in-process over the workspace root with the checked-in
//! `lint.toml`. Any unsuppressed finding — including a stale
//! `[[allow]]` entry (PCQE-A001) — fails the build, so a violating pattern
//! cannot merge even if the author never ran the CLI. This is the same
//! analysis `ci.sh` runs as a dedicated step; the test form makes it part
//! of the plain `cargo test` contract.

use pcqe_lint::rules::Rule;
use std::path::Path;

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
        analysis.manifests_scanned >= 11,
        "suspiciously few manifests scanned ({})",
        analysis.manifests_scanned
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

/// The JSON and SARIF reports are CI artifacts (`ci.sh` writes
/// `results/lint.json` and `results/lint.sarif`): each must be
/// byte-identical across runs and parseable by the in-repo JSON reader
/// that `obs-validate` uses, with counts that agree with the analysis
/// itself.
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
    assert_eq!(obj["format_version"].as_u64(), Some(4));
    let findings = obj["findings"].as_array().expect("findings array");
    assert_eq!(findings.len(), a.findings.len());
    let summary = obj["summary"].as_object().expect("summary object");
    assert_eq!(summary["errors"].as_u64(), Some(a.error_count() as u64));
    assert_eq!(summary["files"].as_u64(), Some(a.files_scanned as u64));
    assert_eq!(
        summary["suppressed"].as_u64(),
        Some(a.suppressed.len() as u64)
    );

    // The per-rule section (since format version 2) must cover every rule id and
    // its counts must re-add to the summary totals — this is the shape the
    // CI gate (`pcqe-obs-validate --schema lint --gate`) puts ceilings on.
    let rules = obj["rules"].as_object().expect("rules object");
    assert_eq!(rules.len(), Rule::all().len());
    let mut errors = 0;
    let mut suppressed = 0;
    for rule in Rule::all() {
        let entry = rules[rule.code()]
            .as_object()
            .unwrap_or_else(|| panic!("rules section missing {}", rule.code()));
        errors += entry["errors"].as_u64().expect("errors count");
        suppressed += entry["suppressed"].as_u64().expect("suppressed count");
    }
    assert_eq!(errors, a.error_count() as u64);
    assert_eq!(suppressed, a.suppressed.len() as u64);

    // The SARIF render of the same analysis: one run by the `pcqe-lint`
    // driver, every rule declared, one result per unsuppressed finding.
    let sa = pcqe_lint::sarif::sarif(&a);
    assert_eq!(sa, pcqe_lint::sarif::sarif(&b), "SARIF export drifted");
    let value = pcqe_obs::json::parse(&sa).expect("SARIF parses with pcqe_obs::json");
    let obj = value.as_object().expect("top level is an object");
    assert_eq!(obj["version"].as_str(), Some("2.1.0"));
    let runs = obj["runs"].as_array().expect("runs array");
    assert_eq!(runs.len(), 1);
    let run = runs[0].as_object().expect("run object");
    let driver = run["tool"].as_object().expect("tool")["driver"]
        .as_object()
        .expect("driver object");
    assert_eq!(driver["name"].as_str(), Some("pcqe-lint"));
    let declared = driver["rules"].as_array().expect("driver rules");
    assert_eq!(declared.len(), Rule::all().len());
    let results = run["results"].as_array().expect("results array");
    assert_eq!(results.len(), a.findings.len());
}
