//! Tier-1 gate for the concurrency-soundness layer of `pcqe-lint`.
//!
//! Mirrors `tests/lint_guard.rs` for the layer-3 rules: each of the
//! capability and concurrency rules (PCQE-C002 capability coverage,
//! PCQE-C003 lock-order cycles, PCQE-C004 lock held across a
//! result-affecting call, PCQE-C005 shared-state escape, PCQE-C006
//! relaxed-atomic reads on the query path, PCQE-A003 stale grants) must
//! demonstrably fire on the fixture tree that seeds exactly those
//! violations — otherwise the clean-workspace assertions below would be
//! vacuous. The second half is the negative direction: the real
//! workspace, including `pcqe-par`'s scoped-thread / in-order-merge
//! scheduler, must pass the full analysis with no concurrency findings
//! and no unreasoned suppressions.

use pcqe_lint::rules::Rule;
use std::path::Path;

/// Every layer-3 rule fires on the `conc` fixture tree. The fixture
/// plants one seeded violation per rule (see
/// `crates/lint/tests/fixtures/conc/`), so a rule missing here means the
/// analysis silently lost coverage.
#[test]
fn concurrency_rules_are_live_on_the_seeded_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let conc = pcqe_lint::analyze(&root.join("crates/lint/tests/fixtures/conc"))
        .expect("conc fixture analysis runs");
    for rule in [
        Rule::C002,
        Rule::C003,
        Rule::C004,
        Rule::C005,
        Rule::C006,
        Rule::A003,
    ] {
        assert!(
            conc.findings.iter().any(|f| f.rule == rule),
            "{} must fire on the conc fixture:\n{}",
            rule.code(),
            pcqe_lint::report::human(&conc)
        );
    }
    // The deadlock witness is a concrete interprocedural path with both
    // lock sites named — the property ROADMAP item 1 asks for.
    let c003 = conc
        .findings
        .iter()
        .find(|f| f.rule == Rule::C003)
        .expect("C003 finding present");
    assert!(
        c003.message
            .contains("pcqe_par::grab_both → pcqe_par::take_right"),
        "deadlock witness path missing in: {}",
        c003.message
    );
}

/// There is no built-in exemption list: a tree *without* a `lint.toml`
/// has no grants at all, so every concurrency token in it — locks in
/// `crates/algebra`, raw threads in `crates/storage`, and even the
/// threads in `crates/par` — is PCQE-C002.
#[test]
fn a_tree_without_a_manifest_reports_ungranted_tokens_as_c002() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = pcqe_lint::analyze(&root.join("crates/lint/tests/fixtures/tree"))
        .expect("tree fixture analysis runs");
    for path in [
        "crates/algebra/src/mutexy.rs",
        "crates/storage/src/spawny.rs",
        "crates/par/src/lib.rs",
    ] {
        assert!(
            tree.findings
                .iter()
                .any(|f| f.rule == Rule::C002 && f.path == path),
            "PCQE-C002 must fire in {path} on the manifest-less tree fixture:\n{}",
            pcqe_lint::report::human(&tree)
        );
    }
}

/// The negative direction: the real workspace is concurrency-clean.
/// `pcqe-par`'s one dispatcher — scoped worker threads, an atomic work
/// cursor, results streamed over `mpsc` and slotted in unit order, no
/// lock — must pass the lock-order, escape, and atomics analyses without
/// findings and without suppressions; its capability `[[grant]]` in
/// `lint.toml` covers the tokens, and everything past that is proven,
/// not waived.
#[test]
fn real_workspace_concurrency_is_clean_without_suppressions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = pcqe_lint::analyze(root).expect("workspace analysis runs");

    for rule in [
        Rule::C002,
        Rule::C003,
        Rule::C004,
        Rule::C005,
        Rule::C006,
        Rule::A003,
    ] {
        assert!(
            !analysis.findings.iter().any(|f| f.rule == rule),
            "unexpected {} in the real workspace:\n{}",
            rule.code(),
            pcqe_lint::report::human(&analysis)
        );
        assert!(
            !analysis.suppressed.iter().any(|(f, _)| f.rule == rule),
            "{} must be proven clean, not suppressed, in the real workspace",
            rule.code()
        );
    }

    // pcqe-par is covered by the scan (not skipped) — otherwise the
    // clean result above would say nothing about the scheduler.
    assert!(
        analysis.files_scanned >= 100,
        "suspiciously few sources scanned ({})",
        analysis.files_scanned
    );
}
