//! Registry-integrity tests: the rule registry, the CLI, the golden
//! reports and the DESIGN.md documentation must agree on the set of
//! rule ids. A rule that can fire but is undocumented — or documented
//! but unparseable by `--rule` — is a drift bug this file exists to
//! catch.

use pcqe_lint::rules::Rule;
use std::path::Path;
use std::process::Command;

#[test]
fn rule_codes_are_unique_and_well_formed() {
    let mut seen = Vec::new();
    for rule in Rule::all() {
        let code = rule.code();
        assert!(
            !seen.contains(&code),
            "duplicate rule code {code} in the registry"
        );
        seen.push(code);
        // Codes follow the PCQE-<layer letter><3 digits> shape that
        // `lint.toml` entries name rules by.
        let rest = code
            .strip_prefix("PCQE-")
            .unwrap_or_else(|| panic!("{code} missing the PCQE- prefix"));
        assert_eq!(rest.len(), 4, "{code} is not PCQE-XNNN");
        assert!(rest.starts_with(|c: char| c.is_ascii_uppercase()));
        assert!(rest[1..].chars().all(|c| c.is_ascii_digit()));
        assert!(!rule.summary().is_empty(), "{code} has no summary");
    }
    assert_eq!(seen.len(), 10, "registry size drifted: {seen:?}");
}

#[test]
fn every_code_parses_back_to_its_rule() {
    for rule in Rule::all() {
        assert_eq!(
            Rule::parse(rule.code()),
            Some(rule),
            "{} does not round-trip through Rule::parse — `--rule` and \
             `.lint`/`lint.toml` entries cannot name it",
            rule.code()
        );
    }
    assert_eq!(Rule::parse("PCQE-Z999"), None);
    assert_eq!(Rule::parse("pcqe-d004"), None, "ids are case-sensitive");
}

#[test]
fn every_rule_is_documented_in_the_design_rule_table() {
    let design =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md"))
            .expect("DESIGN.md is readable from the workspace root");
    for rule in Rule::all() {
        let needle = format!("`{}`", rule.code());
        assert!(
            design.contains(&needle),
            "{} is in the registry but missing from DESIGN.md's rule table",
            rule.code()
        );
    }
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pcqe-lint"))
}

#[test]
fn list_rules_prints_the_whole_registry_in_order() {
    let out = cli().arg("--list-rules").output().expect("CLI runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let mut last = 0;
    for rule in Rule::all() {
        let at = stdout
            .find(rule.code())
            .unwrap_or_else(|| panic!("{} missing from --list-rules", rule.code()));
        assert!(at >= last, "{} out of registry order", rule.code());
        last = at;
    }
}

#[test]
fn unknown_rule_id_is_a_deterministic_usage_error() {
    let run = || {
        let out = cli()
            .arg("--rule")
            .arg("PCQE-Z999")
            .output()
            .expect("CLI runs");
        (
            out.status.code(),
            String::from_utf8(out.stderr).expect("utf-8"),
        )
    };
    let (code, stderr) = run();
    assert_eq!(code, Some(2), "unknown rule id must be a usage error");
    assert!(
        stderr.contains("unknown rule id `PCQE-Z999`"),
        "unexpected diagnostic: {stderr}"
    );
    assert!(stderr.contains("--list-rules"), "hint missing: {stderr}");
    // Byte-identical on a second run — the message is part of the CLI
    // contract scripts can match on.
    assert_eq!(run(), (code, stderr));
}
