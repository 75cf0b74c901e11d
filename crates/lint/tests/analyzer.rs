//! End-to-end analyzer tests over the fixture trees in `tests/fixtures/`.
//!
//! Each fixture is a miniature workspace with (at most) one `lint.toml`:
//! `tree/` seeds one violation per token/manifest rule and has no
//! manifest at all, so nothing is granted and every concurrency token in
//! it — even `crates/par`'s threads — is C002; `graph/` seeds the
//! graph-layer rules (P002 panic-reachability, G001 policy-gating) and
//! a granted-vs-ungranted C002 pair, `conc/` seeds capability
//! containment (an uncovered `Mutex` → C002, a stale `channels` grant →
//! A003), `gated/` is the G001 negative (the gate dominates the row
//! constructor),
//! `noreason/` trips the A002 hygiene rule, `allow/` pairs a violation
//! with a reasoned suppression, `stale/` carries an `[[allow]]` entry
//! that excuses nothing, `flows/` seeds the confidentiality-dataflow
//! layer (F001 two-hop error leak, F002 β-to-shell and θ-in-error, F003
//! sanctioned Decision flow and bare trace instant, F004 unused
//! sanction, F005 stale citation), `badmanifest/` has a `lint.toml` the
//! reader rejects, and `clean/` has no findings at all. The golden
//! files `tree.expected.json`/`graph.expected.json`/
//! `flows.expected.json` pin the machine-readable report byte-for-byte
//! — the JSON output is a CI contract.

use pcqe_lint::rules::Rule;
use pcqe_lint::{analyze, report, Analysis};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> Analysis {
    analyze(&fixture(name)).expect("fixture analysis must not fail")
}

#[test]
fn tree_fixture_seeds_every_token_and_manifest_rule() {
    let analysis = run("tree");
    let got: Vec<(Rule, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    let want = vec![
        (Rule::D001, "crates/algebra/src/bad_map.rs", 3),
        (Rule::D001, "crates/algebra/src/bad_map.rs", 5),
        (Rule::D001, "crates/algebra/src/bad_map.rs", 6),
        (Rule::C002, "crates/algebra/src/mutexy.rs", 5),
        (Rule::C002, "crates/algebra/src/mutexy.rs", 7),
        (Rule::C002, "crates/algebra/src/mutexy.rs", 8),
        (Rule::H001, "crates/badcrate/Cargo.toml", 7),
        (Rule::P001, "crates/engine/src/panicky.rs", 4),
        (Rule::P001, "crates/engine/src/panicky.rs", 5),
        (Rule::P001, "crates/engine/src/panicky.rs", 7),
        (Rule::D002, "crates/lineage/src/entropy.rs", 4),
        (Rule::T001, "crates/obs/src/raw_clock.rs", 5),
        // No `lint.toml`, no grants: not even the scheduler may thread.
        (Rule::C002, "crates/par/src/lib.rs", 3),
        (Rule::C002, "crates/par/src/lib.rs", 6),
        (Rule::T001, "crates/sql/src/timing.rs", 4),
        (Rule::T001, "crates/sql/src/timing.rs", 5),
        (Rule::C002, "crates/storage/src/spawny.rs", 4),
    ];
    assert_eq!(got, want, "full findings: {:#?}", analysis.findings);
    assert!(!analysis.is_clean());
    assert_eq!(analysis.error_count(), 17);
    // The exempt case stayed silent: the `#[cfg(test)]` module in
    // covered.rs may use HashMap and unwrap.
    assert!(!got.iter().any(|(_, p, _)| p.contains("covered.rs")));
}

#[test]
fn graph_fixture_seeds_the_graph_layer_and_new_token_rules() {
    let analysis = run("graph");
    let got: Vec<(Rule, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    let want = vec![
        (Rule::C002, "crates/algebra/src/locky.rs", 3),
        (Rule::C002, "crates/algebra/src/locky.rs", 5),
        (Rule::C002, "crates/algebra/src/locky.rs", 6),
        (Rule::D004, "crates/core/src/floaty.rs", 4), // x == 0.0
        (Rule::D004, "crates/core/src/floaty.rs", 4), // x != 1.0
        (Rule::D004, "crates/core/src/floaty.rs", 8), // as f32
        (Rule::D004, "crates/core/src/floaty.rs", 12), // .partial_cmp(
        (Rule::P002, "crates/core/src/pick.rs", 5),   // .unwrap()
        (Rule::P002, "crates/core/src/pick.rs", 15),  // v[i]
        (Rule::G001, "crates/engine/src/database.rs", 24), // release_all
        (Rule::G001, "crates/engine/src/database.rs", 35), // release_physical
    ];
    assert_eq!(got, want, "full findings: {:#?}", analysis.findings);
    // The exempt cases stayed silent: `core/src/ord.rs` is the sanctioned
    // home for raw float ordering, and `crates/par` holds its atomics
    // under the tree's `[[grant]]`.
    assert!(!got.iter().any(|(_, p, _)| p.ends_with("ord.rs")));
    assert!(!got.iter().any(|(_, p, _)| p.contains("par/")));
}

#[test]
fn p002_witness_names_the_full_call_path() {
    let analysis = run("graph");
    let p002 = analysis
        .findings
        .iter()
        .find(|f| f.rule == Rule::P002)
        .expect("P002 fires in the graph fixture");
    // The panic is reported at the site (in pcqe-core, which is not
    // P001-guarded) with the two-hop chain from the engine's public API.
    assert_eq!(p002.path, "crates/core/src/pick.rs");
    assert!(
        p002.message
            .contains("pcqe_engine::run → pcqe_engine::step → pcqe_core::pick"),
        "witness missing in: {}",
        p002.message
    );
    // The never-called `panic!` in the same file stays unreported: P002
    // is reachability, not presence.
    assert!(
        !analysis
            .findings
            .iter()
            .any(|f| f.rule == Rule::P002 && f.line == 9),
        "{:#?}",
        analysis.findings
    );
}

#[test]
fn g001_names_the_ungated_constructor_and_entry_point() {
    let analysis = run("graph");
    let g001: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::G001)
        .collect();
    assert_eq!(g001.len(), 2, "{:#?}", analysis.findings);
    assert!(
        g001[0]
            .message
            .contains("pcqe_engine::Database::query → pcqe_engine::release_all"),
        "witness missing in: {}",
        g001[0].message
    );
    assert!(g001[0].message.contains("evaluate_results"));
    // The physical-execution pipeline is held to the same gate: the
    // extra `execute_physical` hop appears in the witness chain.
    assert!(
        g001[1].message.contains(
            "pcqe_engine::Database::query_physical → pcqe_engine::execute_physical \
             → pcqe_engine::release_physical"
        ),
        "witness missing in: {}",
        g001[1].message
    );
}

#[test]
fn gated_fixture_is_clean_because_the_gate_dominates() {
    // Same shape as the graph fixture's database.rs, but every path from
    // a `Database` entry point — logical or physical — reaches the
    // `ReleasedTuple` constructor through a function that calls
    // `evaluate_results`; the BFS stops at the gate on both pipelines.
    let analysis = run("gated");
    assert!(analysis.is_clean(), "{:#?}", analysis.findings);
    assert!(analysis.findings.is_empty());
}

#[test]
fn unreasoned_allowlist_entry_is_an_error_but_still_suppresses() {
    let analysis = run("noreason");
    assert_eq!(analysis.findings.len(), 1, "{:#?}", analysis.findings);
    let f = &analysis.findings[0];
    assert_eq!(f.rule, Rule::A002);
    assert_eq!(f.path, "lint.toml");
    assert_eq!(f.line, 3);
    assert!(f.message.contains("has no `reason`"));
    // The entry is not stale — it really suppresses the P001 — so A001
    // must not double-report it.
    assert!(!analysis.findings.iter().any(|f| f.rule == Rule::A001));
    assert_eq!(analysis.suppressed.len(), 1);
    assert_eq!(analysis.suppressed[0].0.rule, Rule::P001);
}

#[test]
fn every_rule_id_fires_somewhere_in_the_fixture_suite() {
    let mut seen: Vec<Rule> = run("tree").findings.iter().map(|f| f.rule).collect();
    seen.extend(run("graph").findings.iter().map(|f| f.rule));
    seen.extend(run("conc").findings.iter().map(|f| f.rule));
    seen.extend(run("stale").findings.iter().map(|f| f.rule));
    seen.extend(run("noreason").findings.iter().map(|f| f.rule));
    let flows = run("flows");
    seen.extend(flows.findings.iter().map(|f| f.rule));
    // F003 appears only in the suppressed list: the fixture's Decision
    // flow is sanctioned, which is the rule's designed negative.
    seen.extend(flows.suppressed.iter().map(|(f, _)| f.rule));
    for rule in Rule::all() {
        assert!(seen.contains(&rule), "{} never fired", rule.code());
    }
}

/// The analyzer earns its lines by what it has caught in the *real*
/// workspace (CHANGES.md records each find with the PR that fixed it).
/// Every one of those must stay reproduced by a fixture, at a pinned
/// site, so deleting or loosening the rule that made the find fails
/// here by name.
#[test]
fn every_recorded_workspace_find_is_still_reproduced_by_a_fixture() {
    // (the find, fixture, rule, path, line, what the message must name)
    let finds = [
        (
            "PR 2: HashMap iteration feeding result order",
            "tree",
            Rule::D001,
            "crates/algebra/src/bad_map.rs",
            6,
            "iteration order is unspecified",
        ),
        (
            "PR 4: ~60 index panics reachable from guarded public API",
            "graph",
            Rule::P002,
            "crates/core/src/pick.rs",
            15,
            "slice/array index reachable from guarded public API via \
             pcqe_engine::lookup → pcqe_core::nth",
        ),
        (
            "PR 4: a release path that bypasses the policy gate",
            "graph",
            Rule::G001,
            "crates/engine/src/database.rs",
            24,
            "pcqe_engine::Database::query → pcqe_engine::release_all",
        ),
        (
            "PR 9: InvalidThreshold echoed the rejected θ in its error",
            "flows",
            Rule::F002,
            "crates/engine/src/reject.rs",
            21,
            "reaches error constructor `PolicyError::InvalidThreshold`",
        ),
        (
            "PR 9: gate instants carried the pre-gate confidence into traces",
            "flows",
            Rule::F003,
            "crates/engine/src/reject.rs",
            28,
            "reaches declared trace sink `tracer::instant`",
        ),
        (
            "PR 9: the lexer swallowed the token after a `'\\''` literal",
            "lexhard",
            Rule::C002,
            "crates/engine/src/real.rs",
            23,
            "`Mutex` needs the `locks` capability",
        ),
    ];
    for (find, tree, rule, path, line, names) in finds {
        let analysis = run(tree);
        let hit = analysis
            .findings
            .iter()
            .find(|f| f.rule == rule && f.path == path && f.line == line);
        let Some(hit) = hit else {
            panic!(
                "{find}: no {} at {tree}/{path}:{line} any more:\n{}",
                rule.code(),
                report::human(&analysis)
            );
        };
        assert!(
            hit.message.contains(names),
            "{find}: {} at {path}:{line} no longer names `{names}`: {}",
            rule.code(),
            hit.message
        );
    }
}

#[test]
fn conc_fixture_seeds_capability_containment() {
    let analysis = run("conc");
    let got: Vec<(Rule, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    let want = vec![
        (Rule::C002, "crates/engine/src/nocap.rs", 4),
        (Rule::C002, "crates/engine/src/nocap.rs", 6),
        (Rule::C002, "crates/engine/src/nocap.rs", 7),
        (Rule::A003, "lint.toml", 7), // stale channels grant
    ];
    assert_eq!(got, want, "full findings: {:#?}", analysis.findings);
    // The granted `Mutex` in `crates/obs` stayed silent.
    assert!(!got.iter().any(|(_, p, _)| p.contains("obs/")));
}

#[test]
fn flows_fixture_seeds_the_dataflow_layer() {
    let analysis = run("flows");
    let got: Vec<(Rule, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    let want = vec![
        (Rule::F002, "crates/engine/src/reject.rs", 21), // β in an error
        (Rule::F003, "crates/engine/src/reject.rs", 28), // bare instant
        (Rule::F002, "crates/engine/src/shellout.rs", 6), // β to println!
        (Rule::F001, "crates/engine/src/suppress.rs", 23), // two-hop leak
        (Rule::F005, "lint.toml", 32),                   // stale citation
        (Rule::F004, "lint.toml", 44),                   // unused sanction
    ];
    assert_eq!(got, want, "full findings: {:#?}", analysis.findings);
    // The Decision-record flow is the sanctioned negative: that F003
    // lands in the suppressed list with the manifest's reason.
    assert_eq!(analysis.suppressed.len(), 1);
    let (finding, reason) = &analysis.suppressed[0];
    assert_eq!(finding.rule, Rule::F003);
    assert_eq!(finding.path, "crates/engine/src/traced.rs");
    assert_eq!(
        reason,
        "fixture: Decision records are the designed outlet for confidence"
    );
}

#[test]
fn f001_witness_names_source_sink_and_the_call_edge() {
    let analysis = run("flows");
    let f001 = analysis
        .findings
        .iter()
        .find(|f| f.rule == Rule::F001)
        .expect("F001 fires in the flows fixture");
    // The leak is reported at the sink (inside `render`) with the
    // tainted binding, the error constructor, and the interprocedural
    // chain from the function that bound the suppressed rows.
    assert_eq!(f001.path, "crates/engine/src/suppress.rs");
    assert!(f001.message.contains("`dropped`"), "{}", f001.message);
    assert!(
        f001.message.contains("GateError::Withheld"),
        "{}",
        f001.message
    );
    assert!(
        f001.message
            .contains("pcqe_engine::gate → pcqe_engine::render"),
        "witness missing in: {}",
        f001.message
    );
    // Same analysis, same witness, byte for byte.
    let again = run("flows");
    assert_eq!(analysis.findings, again.findings);
}

#[test]
fn flows_json_report_matches_golden_file() {
    let golden = include_str!("fixtures/flows.expected.json");
    let actual = report::json(&run("flows"));
    assert_eq!(
        actual, golden,
        "JSON report drifted from tests/fixtures/flows.expected.json; \
         if the change is intentional, regenerate with \
         `cargo run -p pcqe-lint -- --root crates/lint/tests/fixtures/flows \
         --format json > crates/lint/tests/fixtures/flows.expected.json`"
    );
}

#[test]
fn clean_fixture_is_clean() {
    let analysis = run("clean");
    assert!(analysis.is_clean(), "{:#?}", analysis.findings);
    assert!(analysis.findings.is_empty());
    assert!(analysis.suppressed.is_empty());
    assert_eq!(analysis.files_scanned, 1);
}

#[test]
fn allowlist_suppresses_with_reason() {
    let analysis = run("allow");
    assert!(analysis.is_clean(), "{:#?}", analysis.findings);
    assert!(
        analysis.findings.is_empty(),
        "nothing may leak past the allowlist"
    );
    assert_eq!(analysis.suppressed.len(), 1);
    let (finding, reason) = &analysis.suppressed[0];
    assert_eq!(finding.rule, Rule::P001);
    assert_eq!(finding.path, "crates/engine/src/risky.rs");
    assert_eq!(finding.line, 4);
    assert_eq!(reason, "fixture: demonstrates a justified suppression");
}

#[test]
fn stale_allowlist_entry_is_an_error() {
    let analysis = run("stale");
    assert!(!analysis.is_clean());
    assert_eq!(analysis.findings.len(), 1, "{:#?}", analysis.findings);
    let f = &analysis.findings[0];
    assert_eq!(f.rule, Rule::A001);
    // The finding points into the manifest itself, at the entry.
    assert_eq!(f.path, "lint.toml");
    assert_eq!(f.line, 3);
    assert!(f.message.contains("stale allowlist entry"));
    assert!(f.message.contains("crates/engine/src/fine.rs"));
}

#[test]
fn analysis_is_deterministic_across_runs() {
    for name in ["tree", "graph", "flows"] {
        let a = run(name);
        let b = run(name);
        assert_eq!(a.findings, b.findings);
        assert_eq!(report::json(&a), report::json(&b));
    }
}

#[test]
fn json_report_matches_golden_file() {
    let golden = include_str!("fixtures/tree.expected.json");
    let actual = report::json(&run("tree"));
    assert_eq!(
        actual, golden,
        "JSON report drifted from tests/fixtures/tree.expected.json; \
         if the change is intentional, regenerate with \
         `cargo run -p pcqe-lint -- --root crates/lint/tests/fixtures/tree \
         --format json > crates/lint/tests/fixtures/tree.expected.json`"
    );
}

// --- CLI behaviour ------------------------------------------------------

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pcqe-lint"))
}

#[test]
fn cli_exits_one_on_findings_and_names_them() {
    let out = cli()
        .args(["--root"])
        .arg(fixture("tree"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    // Every rule code surfaces with a file:line span.
    for code in [
        "PCQE-C002",
        "PCQE-D001",
        "PCQE-D002",
        "PCQE-H001",
        "PCQE-P001",
        "PCQE-T001",
    ] {
        assert!(stdout.contains(code), "missing {code} in:\n{stdout}");
    }
    assert!(stdout.contains("crates/engine/src/panicky.rs:4:"));
    assert!(stdout.contains("crates/obs/src/raw_clock.rs:5:"));
    assert!(stdout.contains("17 error(s)"));
}

#[test]
fn cli_exits_zero_on_clean_tree() {
    for name in ["clean", "gated"] {
        let out = cli()
            .args(["--root"])
            .arg(fixture(name))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{name} must be clean");
    }
}

#[test]
fn cli_graph_json_output_matches_golden_file() {
    let out = cli()
        .args(["--root"])
        .arg(fixture("graph"))
        .args(["--format", "json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(
        stdout,
        include_str!("fixtures/graph.expected.json"),
        "JSON report drifted from tests/fixtures/graph.expected.json; \
         if the change is intentional, regenerate with \
         `cargo run -p pcqe-lint -- --root crates/lint/tests/fixtures/graph \
         --format json > crates/lint/tests/fixtures/graph.expected.json`"
    );
}

#[test]
fn cli_json_output_matches_golden_file() {
    let out = cli()
        .args(["--root"])
        .arg(fixture("tree"))
        .args(["--format", "json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(stdout, include_str!("fixtures/tree.expected.json"));
}

#[test]
fn cli_rule_flag_filters_display_but_not_exit_code() {
    // Filtered to G001: only the two ungated releases print, but the
    // exit code still reflects the full (failing) analysis.
    let out = cli()
        .args(["--root"])
        .arg(fixture("graph"))
        .args(["--rule", "PCQE-G001"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("PCQE-G001"), "{stdout}");
    for absent in ["PCQE-C002", "PCQE-D004", "PCQE-P002"] {
        assert!(
            !stdout.contains(&format!("{absent} [")),
            "{absent} leaked into the filtered report:\n{stdout}"
        );
    }
    assert!(stdout.contains("2 error(s)"), "{stdout}");

    // The short id form works; a rule with no findings prints an empty
    // report but still exits 1 — the filter can never hide a failure.
    let out = cli()
        .args(["--root"])
        .arg(fixture("graph"))
        .args(["--rule", "D001"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("0 error(s)"), "{stdout}");

    // An unknown id is a usage error.
    let out = cli()
        .args(["--rule", "PCQE-Z999"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_exits_two_on_usage_errors_and_unreadable_manifests() {
    let out = cli().args(["--bogus-flag"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // The manifest is the one file the analyzer reads by fixed name;
    // there is no flag to point it elsewhere.
    let out = cli()
        .args(["--allowlist", "lint.toml"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let help = cli().arg("--help").output().expect("binary runs");
    assert!(!String::from_utf8_lossy(&help.stdout).contains("--allowlist"));
    // A manifest the reader rejects stops the run before any analysis.
    let out = cli()
        .args(["--root"])
        .arg(fixture("badmanifest"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("lint.toml:4: unknown table `[[exemption]]`"),
        "{stderr}"
    );
    // The retired ids are unknown like any other.
    for retired in [
        "PCQE-C001",
        "PCQE-D003",
        "PCQE-C003",
        "PCQE-C004",
        "PCQE-C005",
        "PCQE-C006",
    ] {
        let out = cli().args(["--rule", retired]).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{retired}");
    }
}
