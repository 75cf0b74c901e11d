//! Exit-code contract for the `pcqe-obs-validate` binary.
//!
//! `ci.sh` keys stage pass/fail off the validator's exit status, so the
//! codes are part of the tool's public interface: `0` valid, `1`
//! malformed, `2` usage or I/O error. One test per `--schema` mode
//! exercises the real binary end to end, one pins the modes that are
//! gone as usage errors, and a further test pins the all-violations
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

const METRICS_OK: &str = "{\"counters\": {\"a\": 1}, \"spans\": {}}";

const TRACE_OK: &str = "{\"displayTimeUnit\": \"ms\", \"dropped\": 0, \"capacity\": 4096, \
     \"traceEvents\": [{\"name\": \"query\", \"ph\": \"B\", \"ts\": 0.000, \
     \"pid\": 1, \"tid\": 1, \"args\": {}}, {\"name\": \"query\", \"ph\": \"E\", \
     \"ts\": 1.000, \"pid\": 1, \"tid\": 1, \"args\": {}}]}";

#[test]
fn metrics_schema_exit_codes() {
    let good = fixture("metrics-good", METRICS_OK);
    let out = run(&["--schema", "metrics", good.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counters=1 spans=0"), "{stdout}");

    let bad = fixture("metrics-bad", "{\"counters\": {}}");
    let out = run(&["--schema", "metrics", bad.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");

    let out = run(&["--schema", "metrics"]); // no file
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
fn retired_modes_are_usage_errors() {
    // There is no gate and no lint or SARIF schema: the lint report's
    // ratchet is a tier-1 test. The old spellings fail loudly instead of
    // passing vacuously.
    let metrics = fixture("retired-metrics", METRICS_OK);
    let metrics = metrics.to_str().unwrap();
    let trace = fixture("retired-trace", TRACE_OK);
    let trace = trace.to_str().unwrap();
    for args in [
        vec!["--schema", "sarif", metrics],
        vec!["--schema", "lint", metrics],
        vec!["--gate", metrics, metrics],
        vec!["--schema", "lint", "--gate", metrics, metrics],
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
