//! Exit-code contract for the `pcqe-obs-validate` binary.
//!
//! `ci.sh` keys stage pass/fail off the validator's exit status, so the
//! codes are part of the tool's public interface: `0` valid (and gate
//! cleared), `1` malformed or regressed, `2` usage or I/O error. One
//! test per `--schema` mode and one for the lint `--gate` exercise the
//! real binary end to end, and a further test pins the all-violations
//! behaviour: a document with several problems reports every one of
//! them in a single run.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_pcqe-obs-validate");

/// Write `content` to a unique temp file and return its path.
fn fixture(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pcqe-obs-validate-cli-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, content).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("validator terminated by signal")
}

const METRICS_OK: &str =
    "{\"counters\": {\"a\": 1}, \"gauges\": {}, \"histograms\": {}, \"spans\": {}}";

const LINT_OK: &str = "{\"tool\": \"pcqe-lint\", \"format_version\": 1, \"findings\": [], \
     \"summary\": {\"files\": 1, \"manifests\": 1, \"errors\": 0, \
     \"suppressed\": 0}}";

const TRACE_OK: &str = "{\"displayTimeUnit\": \"ms\", \"dropped\": 0, \"capacity\": 4096, \
     \"traceEvents\": [{\"name\": \"query\", \"ph\": \"B\", \"ts\": 0.000, \
     \"pid\": 1, \"tid\": 1, \"args\": {}}, {\"name\": \"query\", \"ph\": \"E\", \
     \"ts\": 1.000, \"pid\": 1, \"tid\": 1, \"args\": {}}]}";

#[test]
fn metrics_schema_exit_codes() {
    let good = fixture("metrics-good", METRICS_OK);
    let out = run(&["--schema", "metrics", good.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");

    let bad = fixture("metrics-bad", "{\"counters\": {}}");
    let out = run(&["--schema", "metrics", bad.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");

    let out = run(&["--schema", "metrics"]); // no file
    assert_eq!(exit_code(&out), 2, "{out:?}");
}

#[test]
fn lint_schema_exit_codes() {
    let good = fixture("lint-good", LINT_OK);
    let out = run(&["--schema", "lint", good.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");

    let bad = fixture("lint-bad", "{\"tool\": \"other\"}");
    let out = run(&["--schema", "lint", bad.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");

    let out = run(&["--schema", "lint", "--gate"]); // dangling flag
    assert_eq!(exit_code(&out), 2, "{out:?}");
}

#[test]
fn trace_schema_exit_codes() {
    let good = fixture("trace-good", TRACE_OK);
    let out = run(&["--schema", "trace", good.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events=2 dropped=0"), "{stdout}");

    let bad = fixture("trace-bad", "{\"traceEvents\": 7}");
    let out = run(&["--schema", "trace", bad.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");

    let out = run(&["--schema", "bogus", good.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");

    let out = run(&["--schema", "trace", "/nonexistent/trace.json"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
}

#[test]
fn lint_gate_exit_codes() {
    let report = |suppressed: u64| {
        format!(
            "{{\"tool\": \"pcqe-lint\", \"format_version\": 4, \"findings\": [], \
             \"rules\": {{\"PCQE-P002\": {{\"errors\": 0, \"suppressed\": {suppressed}}}}}, \
             \"summary\": {{\"files\": 1, \"manifests\": 1, \"errors\": 0, \
             \"suppressed\": {suppressed}}}}}"
        )
    };
    let baseline = fixture("lint-baseline", &report(2));
    let same = fixture("lint-same", &report(2));
    let gate = |actual: &PathBuf| {
        run(&[
            "--schema",
            "lint",
            "--gate",
            baseline.to_str().unwrap(),
            actual.to_str().unwrap(),
        ])
    };
    let out = gate(&same);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 ceiling(s) respected"), "{stdout}");

    let out = gate(&fixture("lint-grown", &report(3)));
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("above the ceiling 2"), "{stderr}");
}

#[test]
fn retired_modes_are_usage_errors() {
    // The lint ceiling is the only gate, and SARIF is exported but not
    // validated here: the old spellings fail loudly instead of passing
    // vacuously.
    let metrics = fixture("retired-metrics", METRICS_OK);
    let metrics = metrics.to_str().unwrap();
    let trace = fixture("retired-trace", TRACE_OK);
    let trace = trace.to_str().unwrap();
    for args in [
        vec!["--schema", "sarif", metrics],
        vec!["--gate", metrics, metrics],
        vec!["--schema", "metrics", "--gate", metrics, metrics],
        vec!["--schema", "trace", "--gate", trace, trace],
    ] {
        let out = run(&args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
    }
}

#[test]
fn all_violations_are_reported_in_one_run() {
    // A trace document with three independent problems: every one of
    // them must land on stderr in a single invocation.
    let bad = fixture(
        "trace-multi-bad",
        "{\"dropped\": 0, \"traceEvents\": [\
         {\"name\": \"q\", \"ph\": \"X\", \"ts\": 0, \"pid\": 1, \"tid\": 1, \"args\": {}}, \
         {\"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 1, \"args\": {}}]}",
    );
    let out = run(&["--schema", "trace", bad.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing numeric `capacity`"), "{stderr}");
    assert!(stderr.contains("traceEvents[0] `ph` is `X`"), "{stderr}");
    assert!(
        stderr.contains("traceEvents[1] missing string `name`"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 3, "{stderr}");
}
