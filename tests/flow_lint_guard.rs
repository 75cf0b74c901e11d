//! Tier-1 gate for the confidentiality-dataflow layer of `pcqe-lint`.
//!
//! Mirrors `tests/concurrency_lint_guard.rs` for the layer-3 rules:
//! each flow rule (PCQE-F001 suppressed tuples into error sinks,
//! PCQE-F002 β/θ thresholds into any non-audit sink, PCQE-F003 pre-gate
//! confidence into trace/metrics, PCQE-F004 unexercised sanctions,
//! PCQE-F005 manifest reason hygiene) must demonstrably fire on the
//! fixture tree that seeds exactly those flows — otherwise the
//! clean-workspace assertions below would be vacuous. The second half
//! is the negative direction: the real workspace must carry **no
//! unsanctioned flow**, and every `[[sanction]]` in `lint.toml`
//! must be exercised (a stale one would itself fire F004).

use pcqe_lint::rules::Rule;
use std::path::Path;

/// Every layer-3 rule fires on the `flows` fixture tree — F003 both as
/// a finding and in its sanctioned form, the rule's designed negative
/// (Decision records are the canonical channel for confidence values).
#[test]
fn flow_rules_are_live_on_the_seeded_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let flows = pcqe_lint::analyze(&root.join("crates/lint/tests/fixtures/flows"))
        .expect("flows fixture analysis runs");
    for rule in [Rule::F001, Rule::F002, Rule::F003, Rule::F004, Rule::F005] {
        assert!(
            flows.findings.iter().any(|f| f.rule == rule),
            "{} must fire on the flows fixture:\n{}",
            rule.code(),
            pcqe_lint::report::human(&flows)
        );
    }
    assert!(
        flows.suppressed.iter().any(|(f, _)| f.rule == Rule::F003),
        "the sanctioned F003 Decision flow must land in the suppressed list:\n{}",
        pcqe_lint::report::human(&flows)
    );

    // The F001 witness is a concrete interprocedural path: the function
    // that bound the suppressed rows, the call edge they crossed, and
    // the error constructor they reached.
    let f001 = flows
        .findings
        .iter()
        .find(|f| f.rule == Rule::F001)
        .expect("F001 finding present");
    assert!(
        f001.message
            .contains("pcqe_engine::gate → pcqe_engine::render"),
        "taint witness path missing in: {}",
        f001.message
    );
    assert!(
        f001.message.contains("GateError::Withheld"),
        "sink constructor missing in: {}",
        f001.message
    );
}

/// The negative direction: the real workspace discloses nothing the
/// manifest does not sanction. Suppressed tuples stay out of error
/// payloads, β/θ values out of shell and trace output, pre-gate
/// confidence out of metrics — and the places that *do* carry them by
/// design (the audit log, Decision records, the solver's cap-reporting
/// errors) are each covered by a reasoned `[[sanction]]`, every one of
/// which is exercised.
#[test]
fn real_workspace_has_no_unsanctioned_flows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = pcqe_lint::analyze(root).expect("workspace analysis runs");

    for rule in [Rule::F001, Rule::F002, Rule::F003, Rule::F004, Rule::F005] {
        assert!(
            !analysis.findings.iter().any(|f| f.rule == rule),
            "unexpected {} in the real workspace:\n{}",
            rule.code(),
            pcqe_lint::report::human(&analysis)
        );
    }

    // The sanctions are working declarations, not dead weight: each of
    // the designed channels in lint.toml suppressed at least one
    // real flow this run (an unexercised one would have fired F004).
    for rule in [Rule::F001, Rule::F002, Rule::F003] {
        assert!(
            analysis.suppressed.iter().any(|(f, _)| f.rule == rule),
            "{} sanctions declared in lint.toml but no flow was suppressed — \
             the manifest and the workspace drifted apart",
            rule.code()
        );
    }

    // The scan covered the workspace — otherwise "no flows" is vacuous.
    assert!(
        analysis.files_scanned >= 100,
        "suspiciously few sources scanned ({})",
        analysis.files_scanned
    );
}
