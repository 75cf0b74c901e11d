//! Tier-1 gate for capability containment — what `pcqe-lint` has to say
//! about concurrency.
//!
//! The analyzer does not analyse lock order; it decides *who may lock*.
//! PCQE-C002 confines every concurrency token to a crate with a matching
//! `[[grant]]` in `lint.toml`, PCQE-A003 keeps those grants honest, and
//! the lock-order argument lives where a second lock holder would have
//! to ask for one: in the grant's `reason` (DESIGN.md § 7). These tests
//! show both rules fire on a seeded tree — otherwise the clean-workspace
//! assertions would be vacuous — that the real workspace needs no
//! finding or suppression, and that the premise of the containment
//! argument (one crate locks, another spawns, none does both) still
//! holds.

use pcqe_lint::rules::Rule;
use pcqe_lint::spec::Cap;
use std::path::Path;

/// C002 and A003 fire on the `conc` fixture tree (an uncovered `Mutex`
/// and a granted-but-unused `channels` capability; see
/// `crates/lint/tests/fixtures/conc/`).
#[test]
fn concurrency_rules_are_live_on_the_seeded_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let conc = pcqe_lint::analyze(&root.join("crates/lint/tests/fixtures/conc"))
        .expect("conc fixture analysis runs");
    for rule in [Rule::C002, Rule::A003] {
        assert!(
            conc.findings.iter().any(|f| f.rule == rule),
            "{} must fire on the conc fixture:\n{}",
            rule.code(),
            pcqe_lint::report::human(&conc)
        );
    }
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

/// The negative direction: every concurrency token in the real
/// workspace sits under a grant that is exercised — no C002/A003 finding
/// and none waived — and the grants still have the shape DESIGN § 7's
/// containment argument rests on.
#[test]
fn real_workspace_concurrency_is_clean_without_suppressions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = pcqe_lint::analyze(root).expect("workspace analysis runs");

    for rule in [Rule::C002, Rule::A003] {
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

    // The premise: one crate may lock, another may spawn, and no grant
    // confers both — so there is no second lock to order against and no
    // thread that can hold one.
    let manifest = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml is readable");
    let spec = pcqe_lint::spec::parse(&manifest, "lint.toml").expect("lint.toml parses");
    let holders = |cap: Cap| -> Vec<&str> {
        spec.grants
            .iter()
            .filter(|g| g.caps.contains(&cap))
            .map(|g| g.crate_name.as_str())
            .collect()
    };
    let see = "lock order is no longer settled by containment: argue it in the new \
               grant's `reason` and update DESIGN.md § 7 (\"Containment instead of a \
               lock-order analysis\") before widening this pin";
    assert_eq!(holders(Cap::Locks), ["pcqe-obs"], "{see}");
    assert_eq!(holders(Cap::Threads), ["pcqe-par"], "{see}");
    assert!(
        !spec
            .grants
            .iter()
            .any(|g| g.caps.contains(&Cap::Locks) && g.caps.contains(&Cap::Threads)),
        "{see}"
    );
}
