//! Hermetic-build guard: every crate in the default workspace must depend
//! only on sibling path crates, never on registry crates. This is what
//! makes `cargo build --offline` succeed with an empty cargo home, and it
//! is the invariant CI's offline build stage relies on.
//!
//! The parser here is deliberately small: it walks each member manifest's
//! `[dependencies]` / `[dev-dependencies]` / `[build-dependencies]`
//! tables and asserts every entry is either `pcqe-*` (a workspace path
//! dependency) or spelled with an explicit `path =`.

use std::fs;
use std::path::{Path, PathBuf};

/// Manifests of the default workspace: the root package plus `crates/*`,
/// minus the `exclude`d bench crate.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let mut entries: Vec<_> = fs::read_dir(&crates)
        .expect("crates/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for dir in entries {
        if dir.file_name().is_some_and(|n| n == "bench") {
            continue; // detached workspace, allowed its own rules
        }
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    manifests
}

/// The dependency names declared in the dependency tables of a manifest.
fn dependency_entries(toml: &str) -> Vec<(String, String)> {
    let mut deps = Vec::new();
    let mut in_dep_table = false;
    for raw in toml.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_dep_table = matches!(
                line,
                "[dependencies]"
                    | "[dev-dependencies]"
                    | "[build-dependencies]"
                    | "[workspace.dependencies]"
            );
            continue;
        }
        if !in_dep_table || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, spec)) = line.split_once('=') {
            // `foo.workspace = true` spells the name before the dot.
            let name = name.trim().split('.').next().unwrap_or("").to_owned();
            deps.push((name, spec.trim().to_owned()));
        }
    }
    deps
}

#[test]
fn default_workspace_has_only_path_dependencies() {
    let manifests = workspace_manifests();
    assert!(
        manifests.len() >= 11,
        "expected the root package plus ten crates, found {}",
        manifests.len()
    );
    for manifest in manifests {
        let toml = fs::read_to_string(&manifest).expect("manifest is readable");
        for (name, spec) in dependency_entries(&toml) {
            let is_workspace_crate = name.starts_with("pcqe-") || name.starts_with("pcqe_");
            let is_path_dep = spec.contains("path =") || spec.contains("path=");
            assert!(
                is_workspace_crate || is_path_dep,
                "{}: dependency `{name}` is not a path dependency — registry \
                 crates break the offline build (spec: {spec})",
                manifest.display()
            );
        }
    }
}

#[test]
fn bench_crate_is_detached_from_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_toml = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        root_toml.contains("exclude = [\"crates/bench\"]"),
        "the root workspace must exclude crates/bench"
    );
    let bench_toml =
        fs::read_to_string(root.join("crates/bench/Cargo.toml")).expect("bench manifest");
    assert!(
        bench_toml.contains("[workspace]"),
        "crates/bench must carry its own [workspace] table so it never \
         joins the default workspace"
    );
    // The bench crate, too, must be registry-free.
    for (name, spec) in dependency_entries(&bench_toml) {
        let is_path_dep = spec.contains("path =") || spec.contains("path=");
        assert!(
            is_path_dep,
            "crates/bench: dependency `{name}` is not a path dependency (spec: {spec})"
        );
    }
}

#[test]
fn no_stray_external_crate_names_in_manifests() {
    // Belt and braces: the names this repo historically depended on must
    // never reappear in any default-workspace manifest.
    const BANNED: &[&str] = &["rand", "proptest", "criterion", "serde", "serde_json"];
    for manifest in workspace_manifests() {
        let toml = fs::read_to_string(&manifest).expect("manifest is readable");
        for (name, _) in dependency_entries(&toml) {
            assert!(
                !BANNED.contains(&name.as_str()),
                "{}: banned registry dependency `{name}`",
                manifest.display()
            );
        }
    }
}

/// `ci.sh`'s stage registry and the stages `.github/workflows/ci.yml`
/// fans out must be the same set, each stage named exactly once on
/// either side — a stage added to the script and not to the workflow
/// would never run in CI, and one removed from the script would fail the
/// workflow with "unknown stage".
#[test]
fn ci_workflow_runs_every_stage_of_the_registry_exactly_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = fs::read_to_string(root.join("ci.sh")).expect("ci.sh is readable");
    let mut registry: Vec<&str> = script
        .lines()
        .skip_while(|l| l.trim() != "STAGES=(")
        .skip(1)
        .map(str::trim)
        .take_while(|l| *l != ")")
        .collect();
    let workflow =
        fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml is readable");
    // Comments mention `--stage <name>`; only the commands count.
    let mut tokens = workflow
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .flat_map(str::split_whitespace);
    let mut fanned_out: Vec<&str> = Vec::new();
    while let Some(token) = tokens.next() {
        if token == "--stage" {
            fanned_out.push(tokens.next().expect("`--stage` names a stage"));
        }
    }
    assert!(!registry.is_empty(), "no `STAGES=(` block found in ci.sh");
    registry.sort_unstable();
    fanned_out.sort_unstable();
    assert_eq!(
        fanned_out, registry,
        "ci.yml's `--stage` arguments (left) and ci.sh's STAGES (right) differ"
    );
    registry.dedup();
    assert_eq!(registry.len(), fanned_out.len(), "a stage is named twice");
}
