//! `pcqe-obs-validate` — validate an exported JSON artifact.
//!
//! Usage: `pcqe-obs-validate [--schema metrics|lint|trace] [--gate <baseline.json>] <file.json>`
//!
//! Schemas:
//!
//! * `metrics` (default) — the document has the metrics-snapshot shape
//!   (`counters`/`gauges`/`histograms`/`spans` object members);
//! * `lint` — the document has the `pcqe-lint --format json` report
//!   shape (`tool`/`format_version`, a `findings` array of
//!   rule/severity/path/line/message records, and a `summary` object);
//! * `trace` — the document has the Chrome trace-event shape emitted by
//!   `pcqe_obs::trace_export::to_chrome_json` (`traceEvents` array of
//!   name/ph/ts/pid/tid records plus `dropped`/`capacity` accounting).
//!
//! Every check reports **all** violations it finds, in document order
//! (array index order, then fixed key order), before exiting — a CI run
//! never plays whack-a-mole with one error at a time. Only an unparsable
//! document short-circuits, since nothing structural can be checked.
//!
//! `--gate <baseline.json>` (with `--schema lint` only) compares the
//! checked report against a checked-in baseline that acts as a
//! *ceiling*: the summary's `errors` and `suppressed` totals, and each
//! per-rule `errors`/`suppressed` count in the baseline's `rules`
//! section, must not be exceeded (a rule absent from the checked report
//! counts as zero). This is `ci.sh`'s lint-regression gate — new
//! violations and new suppressions both fail even when they hide inside
//! an individually-waived rule.
//!
//! Exit codes: `0` the document parses, matches the schema and clears
//! the gate, `1` the document is malformed or regresses against the
//! baseline, `2` usage or I/O error. Used by `ci.sh` as the smoke check
//! on `results/*.json` — hermetically, with the crate's own parser.

use pcqe_obs::json::{self, Value};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut schema = Schema::Metrics;
    let mut path: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let usage = || {
        eprintln!(
            "usage: pcqe-obs-validate [--schema metrics|lint|trace] \
             [--gate <baseline.json>] <file.json>"
        );
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => match args.next().as_deref() {
                Some("metrics") => schema = Schema::Metrics,
                Some("lint") => schema = Schema::Lint,
                Some("trace") => schema = Schema::Trace,
                _ => return usage(),
            },
            "--gate" => match args.next() {
                Some(p) => gate = Some(p),
                None => return usage(),
            },
            _ if arg.starts_with("--") => return usage(),
            _ if path.is_none() => path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    // Only lint reports have a baseline to gate against.
    if gate.is_some() && !matches!(schema, Schema::Lint) {
        return usage();
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pcqe-obs-validate: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = |file: &str, errors: &[String]| {
        for e in errors {
            eprintln!("pcqe-obs-validate: {file}: {e}");
        }
    };
    let summary = match schema.validate(&text) {
        Ok(summary) => summary,
        Err(errors) => {
            report(&path, &errors);
            return ExitCode::from(1);
        }
    };
    if let Some(gate_path) = gate {
        let baseline = match std::fs::read_to_string(&gate_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("pcqe-obs-validate: {gate_path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(errors) = schema.validate(&baseline) {
            report(&gate_path, &errors);
            return ExitCode::from(1);
        }
        match gate_lint(&baseline, &text) {
            Ok(n) => {
                println!("{path}: ok ({summary}; gate {gate_path}: {n} ceiling(s) respected)");
                ExitCode::SUCCESS
            }
            Err(errors) => {
                for e in &errors {
                    eprintln!("pcqe-obs-validate: {path}: regression vs {gate_path}: {e}");
                }
                ExitCode::from(1)
            }
        }
    } else {
        println!("{path}: ok ({summary})");
        ExitCode::SUCCESS
    }
}

/// Which document shape to check.
#[derive(Clone, Copy)]
enum Schema {
    Metrics,
    Lint,
    Trace,
}

impl Schema {
    fn validate(self, text: &str) -> Result<String, Vec<String>> {
        match self {
            Schema::Metrics => validate_metrics(text),
            Schema::Lint => validate_lint(text),
            Schema::Trace => validate_trace(text),
        }
    }
}

/// Parse, or fail with the single fatal error nothing else can follow.
fn parse_doc(text: &str) -> Result<Value, Vec<String>> {
    json::parse(text).map_err(|e| vec![e])
}

/// Check that `text` is a metrics document; return a one-line summary or
/// every violation in key order.
fn validate_metrics(text: &str) -> Result<String, Vec<String>> {
    let doc = parse_doc(text)?;
    let Some(obj) = doc.as_object() else {
        return Err(vec!["top level must be an object".to_owned()]);
    };
    let mut sizes = Vec::new();
    let mut errors = Vec::new();
    for key in ["counters", "gauges", "histograms", "spans"] {
        match obj.get(key) {
            None => errors.push(format!("missing `{key}` member")),
            Some(section) => match section.as_object() {
                None => errors.push(format!("`{key}` must be an object")),
                Some(members) => sizes.push(format!("{key}={}", members.len())),
            },
        }
    }
    if errors.is_empty() {
        Ok(sizes.join(" "))
    } else {
        Err(errors)
    }
}

/// Enforce `baseline` as a ceiling on `actual` (both already known to
/// be valid lint reports): the summary's `errors` and `suppressed`
/// totals must not exceed the baseline's, and neither may any per-rule
/// count named in the baseline's `rules` section (a rule missing from
/// `actual` counts as zero — rules only ever tighten). Returns the
/// number of ceilings checked, or every exceeded count in baseline
/// order.
fn gate_lint(baseline: &str, actual: &str) -> Result<usize, Vec<String>> {
    let base = parse_doc(baseline)?;
    let act = parse_doc(actual)?;
    let count = |doc: &Value, section: &str, key: &str| -> Option<u64> {
        doc.as_object()
            .and_then(|o| o.get(section).and_then(Value::as_object))
            .and_then(|s| s.get(key).and_then(Value::as_u64))
    };
    let mut ceilings = 0;
    let mut errors = Vec::new();
    for key in ["errors", "suppressed"] {
        let Some(ceiling) = count(&base, "summary", key) else {
            errors.push(format!("baseline summary missing numeric `{key}`"));
            continue;
        };
        let value = count(&act, "summary", key).unwrap_or(0);
        if value > ceiling {
            errors.push(format!(
                "summary `{key}` = {value}, above the ceiling {ceiling}"
            ));
        } else {
            ceilings += 1;
        }
    }
    let rules = base
        .as_object()
        .and_then(|o| o.get("rules").and_then(Value::as_object).cloned())
        .unwrap_or_default();
    for (rule, limits) in &rules {
        let Some(limits) = limits.as_object() else {
            errors.push(format!("baseline rules `{rule}` must be an object"));
            continue;
        };
        for key in ["errors", "suppressed"] {
            let Some(ceiling) = limits.get(key).and_then(Value::as_u64) else {
                errors.push(format!("baseline rules `{rule}` missing numeric `{key}`"));
                continue;
            };
            let value = act
                .as_object()
                .and_then(|o| o.get("rules").and_then(Value::as_object))
                .and_then(|r| r.get(rule).and_then(Value::as_object))
                .and_then(|l| l.get(key).and_then(Value::as_u64))
                .unwrap_or(0);
            if value > ceiling {
                errors.push(format!(
                    "rule `{rule}` {key} = {value}, above the ceiling {ceiling}"
                ));
            } else {
                ceilings += 1;
            }
        }
    }
    if errors.is_empty() {
        Ok(ceilings)
    } else {
        Err(errors)
    }
}

/// Check that `text` is a `pcqe-lint` JSON report; return a summary or
/// every violation in document order.
fn validate_lint(text: &str) -> Result<String, Vec<String>> {
    let doc = parse_doc(text)?;
    let Some(obj) = doc.as_object() else {
        return Err(vec!["top level must be an object".to_owned()]);
    };
    let mut errors = Vec::new();
    match obj.get("tool").and_then(Value::as_str) {
        Some("pcqe-lint") => {}
        Some(tool) => errors.push(format!("`tool` is `{tool}`, expected `pcqe-lint`")),
        None => errors.push("missing string `tool` member".to_owned()),
    }
    if obj.get("format_version").and_then(Value::as_u64).is_none() {
        errors.push("missing numeric `format_version` member".to_owned());
    }
    let mut finding_count = 0;
    match obj.get("findings").and_then(Value::as_array) {
        None => errors.push("missing `findings` array".to_owned()),
        Some(findings) => {
            finding_count = findings.len();
            for (i, f) in findings.iter().enumerate() {
                let Some(f) = f.as_object() else {
                    errors.push(format!("findings[{i}] must be an object"));
                    continue;
                };
                for key in ["rule", "severity", "path", "message"] {
                    if f.get(key).and_then(Value::as_str).is_none() {
                        errors.push(format!("findings[{i}] missing string `{key}`"));
                    }
                }
                if f.get("line").and_then(Value::as_u64).is_none() {
                    errors.push(format!("findings[{i}] missing numeric `line`"));
                }
            }
        }
    }
    let mut counts = Vec::new();
    match obj.get("summary").and_then(Value::as_object) {
        None => errors.push("missing `summary` object".to_owned()),
        Some(summary) => {
            for key in ["files", "manifests", "errors", "suppressed"] {
                match summary.get(key).and_then(Value::as_u64) {
                    Some(n) => counts.push(format!("{key}={n}")),
                    None => errors.push(format!("summary missing numeric `{key}`")),
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(format!("findings={finding_count} {}", counts.join(" ")))
    } else {
        Err(errors)
    }
}

/// Check that `text` is a Chrome trace-event document as emitted by
/// `pcqe_obs::trace_export::to_chrome_json`; return a summary or every
/// violation in document order.
fn validate_trace(text: &str) -> Result<String, Vec<String>> {
    let doc = parse_doc(text)?;
    let Some(obj) = doc.as_object() else {
        return Err(vec!["top level must be an object".to_owned()]);
    };
    let mut errors = Vec::new();
    let mut dropped = 0;
    match obj.get("dropped").and_then(Value::as_u64) {
        Some(n) => dropped = n,
        None => errors.push("missing numeric `dropped` member".to_owned()),
    }
    if obj.get("capacity").and_then(Value::as_u64).is_none() {
        errors.push("missing numeric `capacity` member".to_owned());
    }
    let mut event_count = 0;
    match obj.get("traceEvents").and_then(Value::as_array) {
        None => errors.push("missing `traceEvents` array".to_owned()),
        Some(events) => {
            event_count = events.len();
            for (i, e) in events.iter().enumerate() {
                let Some(e) = e.as_object() else {
                    errors.push(format!("traceEvents[{i}] must be an object"));
                    continue;
                };
                if e.get("name").and_then(Value::as_str).is_none() {
                    errors.push(format!("traceEvents[{i}] missing string `name`"));
                }
                match e.get("ph").and_then(Value::as_str) {
                    Some("B" | "E" | "i") => {}
                    Some(ph) => errors.push(format!(
                        "traceEvents[{i}] `ph` is `{ph}`, expected B, E or i"
                    )),
                    None => errors.push(format!("traceEvents[{i}] missing string `ph`")),
                }
                for key in ["ts", "pid", "tid"] {
                    if e.get(key).and_then(Value::as_f64).is_none() {
                        errors.push(format!("traceEvents[{i}] missing numeric `{key}`"));
                    }
                }
                if e.get("args").and_then(Value::as_object).is_none() {
                    errors.push(format!("traceEvents[{i}] missing `args` object"));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(format!("events={event_count} dropped={dropped}"))
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::{gate_lint, validate_lint, validate_metrics, validate_trace};

    #[test]
    fn accepts_a_minimal_metrics_document() {
        let doc = "{\"counters\": {\"a\": 1}, \"gauges\": {}, \"histograms\": {}, \"spans\": {}}";
        assert_eq!(
            validate_metrics(doc),
            Ok("counters=1 gauges=0 histograms=0 spans=0".to_owned())
        );
    }

    #[test]
    fn rejects_missing_sections_and_non_objects() {
        assert!(validate_metrics("[]").is_err());
        assert!(validate_metrics("{\"counters\": {}}").is_err());
        assert!(validate_metrics(
            "{\"counters\": 1, \"gauges\": {}, \"histograms\": {}, \"spans\": {}}"
        )
        .is_err());
        assert!(validate_metrics("not json").is_err());
    }

    #[test]
    fn metrics_violations_are_all_reported_in_key_order() {
        // Three sections missing, one malformed: four errors, fixed order.
        let errors = validate_metrics("{\"gauges\": 3}").unwrap_err();
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert!(errors[0].contains("`counters`"), "{errors:?}");
        assert!(errors[1].contains("`gauges` must be an object"));
        assert!(errors[2].contains("`histograms`"), "{errors:?}");
        assert!(errors[3].contains("`spans`"), "{errors:?}");
    }

    /// Build a minimal lint report with the given totals and per-rule
    /// counts (format version 2's `rules` section).
    fn lint_report(errors: u64, suppressed: u64, rules: &[(&str, u64, u64)]) -> String {
        let rules = rules
            .iter()
            .map(|(code, e, s)| format!("\"{code}\": {{\"errors\": {e}, \"suppressed\": {s}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"tool\": \"pcqe-lint\", \"format_version\": 2, \"findings\": [], \
             \"rules\": {{{rules}}}, \
             \"summary\": {{\"files\": 1, \"manifests\": 1, \"errors\": {errors}, \
             \"suppressed\": {suppressed}}}}}"
        )
    }

    #[test]
    fn lint_gate_passes_at_or_below_every_ceiling() {
        let baseline = lint_report(0, 126, &[("PCQE-P002", 0, 100), ("PCQE-G001", 0, 0)]);
        let actual = lint_report(0, 120, &[("PCQE-P002", 0, 94), ("PCQE-G001", 0, 0)]);
        // 2 summary ceilings + 2 per rule.
        assert_eq!(gate_lint(&baseline, &actual), Ok(6));
    }

    #[test]
    fn lint_gate_fails_when_a_summary_total_grows() {
        let baseline = lint_report(0, 126, &[]);
        let actual = lint_report(1, 126, &[]);
        let errors = gate_lint(&baseline, &actual).unwrap_err();
        assert!(errors[0].contains("summary `errors` = 1"), "{errors:?}");
        assert!(errors[0].contains("above the ceiling 0"), "{errors:?}");
    }

    #[test]
    fn lint_gate_fails_when_a_single_rule_regresses() {
        // Totals stay flat (a suppression moved between rules), but the
        // per-rule ceiling still catches the G001 regression.
        let baseline = lint_report(0, 2, &[("PCQE-P002", 0, 2), ("PCQE-G001", 0, 0)]);
        let actual = lint_report(0, 2, &[("PCQE-P002", 0, 1), ("PCQE-G001", 0, 1)]);
        let errors = gate_lint(&baseline, &actual).unwrap_err();
        assert!(
            errors[0].contains("rule `PCQE-G001` suppressed = 1"),
            "{errors:?}"
        );
    }

    #[test]
    fn lint_gate_treats_rules_missing_from_the_actual_report_as_zero() {
        let baseline = lint_report(0, 5, &[("PCQE-P002", 0, 5)]);
        let actual = lint_report(0, 0, &[]);
        assert_eq!(gate_lint(&baseline, &actual), Ok(4));
    }

    #[test]
    fn accepts_a_minimal_lint_report() {
        let doc = "{\"tool\": \"pcqe-lint\", \"format_version\": 1, \
                   \"findings\": [{\"rule\": \"PCQE-D001\", \"severity\": \"error\", \
                   \"path\": \"crates/x.rs\", \"line\": 3, \"message\": \"m\"}], \
                   \"summary\": {\"files\": 1, \"manifests\": 1, \"errors\": 1, \
                   \"suppressed\": 0}}";
        assert_eq!(
            validate_lint(doc),
            Ok("findings=1 files=1 manifests=1 errors=1 suppressed=0".to_owned())
        );
    }

    #[test]
    fn rejects_lint_reports_with_the_wrong_shape() {
        // Wrong tool name.
        assert!(validate_lint(
            "{\"tool\": \"other\", \"format_version\": 1, \"findings\": [], \
             \"summary\": {\"files\": 0, \"manifests\": 0, \"errors\": 0, \
             \"suppressed\": 0}}"
        )
        .is_err());
        // Finding missing its line.
        assert!(validate_lint(
            "{\"tool\": \"pcqe-lint\", \"format_version\": 1, \
             \"findings\": [{\"rule\": \"PCQE-D001\", \"severity\": \"error\", \
             \"path\": \"x\", \"message\": \"m\"}], \
             \"summary\": {\"files\": 0, \"manifests\": 0, \"errors\": 1, \
             \"suppressed\": 0}}"
        )
        .is_err());
        // Summary missing a count.
        assert!(validate_lint(
            "{\"tool\": \"pcqe-lint\", \"format_version\": 1, \"findings\": [], \
             \"summary\": {\"files\": 0}}"
        )
        .is_err());
        // A metrics document is not a lint report.
        assert!(validate_lint(
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}, \"spans\": {}}"
        )
        .is_err());
    }

    #[test]
    fn lint_violations_accumulate_across_findings() {
        // Two findings each missing a field, plus a missing summary key:
        // every problem is reported, in document order.
        let doc = "{\"tool\": \"pcqe-lint\", \"format_version\": 1, \
                   \"findings\": [{\"severity\": \"error\", \"path\": \"x\", \
                   \"line\": 1, \"message\": \"m\"}, {\"rule\": \"PCQE-D001\", \
                   \"severity\": \"error\", \"path\": \"x\", \"message\": \"m\"}], \
                   \"summary\": {\"files\": 0, \"manifests\": 0, \"errors\": 0}}";
        let errors = validate_lint(doc).unwrap_err();
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors[0].contains("findings[0] missing string `rule`"));
        assert!(errors[1].contains("findings[1] missing numeric `line`"));
        assert!(errors[2].contains("summary missing numeric `suppressed`"));
    }

    /// A tiny two-event trace document.
    fn trace_doc(events: &[(&str, &str)]) -> String {
        let events = events
            .iter()
            .map(|(name, ph)| {
                format!(
                    "{{\"name\": \"{name}\", \"ph\": \"{ph}\", \"ts\": 0.000, \
                     \"pid\": 1, \"tid\": 1, \"args\": {{}}}}"
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"dropped\": 0, \"capacity\": 4096, \
             \"traceEvents\": [{events}]}}"
        )
    }

    #[test]
    fn accepts_a_minimal_trace_document() {
        let doc = trace_doc(&[("query", "B"), ("query", "E")]);
        assert_eq!(validate_trace(&doc), Ok("events=2 dropped=0".to_owned()));
        // The exporter's own empty document validates too.
        let empty = "{\n  \"displayTimeUnit\": \"ms\",\n  \"dropped\": 0,\n  \
                     \"capacity\": 0,\n  \"traceEvents\": []\n}\n";
        assert_eq!(validate_trace(empty), Ok("events=0 dropped=0".to_owned()));
    }

    #[test]
    fn trace_violations_are_all_reported() {
        // Bad phase on event 0, missing name and args on event 1, and no
        // capacity member: four errors, document order.
        let doc = "{\"dropped\": 0, \"traceEvents\": [\
                   {\"name\": \"q\", \"ph\": \"X\", \"ts\": 0, \"pid\": 1, \
                   \"tid\": 1, \"args\": {}}, \
                   {\"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 1}]}";
        let errors = validate_trace(doc).unwrap_err();
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert!(errors[0].contains("missing numeric `capacity`"));
        assert!(errors[1].contains("traceEvents[0] `ph` is `X`"));
        assert!(errors[2].contains("traceEvents[1] missing string `name`"));
        assert!(errors[3].contains("traceEvents[1] missing `args` object"));
    }
}
