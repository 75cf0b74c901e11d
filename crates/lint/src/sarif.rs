//! Byte-stable SARIF 2.1.0 export of the analysis.
//!
//! SARIF (Static Analysis Results Interchange Format) is what CI
//! annotators and editors ingest; emitting it makes every PCQE finding
//! navigable in a code-review UI without a custom plugin. Like the JSON
//! report the document is written by hand — no serde, registry-free —
//! and is fully deterministic: findings arrive pre-sorted, rules follow
//! [`Rule::all`] order, and the only maps involved are `BTreeMap`s.
//!
//! The subset emitted: one `run` with a `tool.driver` listing every
//! rule (id + short description), one `result` per unsuppressed finding
//! (ruleId, level, message, physical location), and — for the dataflow
//! findings that carry a taint witness — a `codeFlows` entry whose
//! thread-flow locations walk the taint path from source function to
//! sink site. `tests/lint_guard.rs` round-trips the workspace's export
//! through the in-repo JSON parser.

use crate::report::escape;
use crate::rules::Rule;
use crate::Analysis;

/// The SARIF 2.1.0 schema URI embedded in the export.
pub const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Render the analysis as a SARIF 2.1.0 document.
pub fn sarif(analysis: &Analysis) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"$schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"pcqe-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/pcqe-lint\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in Rule::all().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            rule.code(),
            escape(rule.summary())
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", f.rule.code()));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            escape(&f.message)
        ));
        out.push_str("          \"locations\": [");
        out.push_str(&location(&f.path, f.line, 12));
        out.push(']');
        let key = (f.path.clone(), f.line, f.rule.code().to_owned());
        if let Some(hops) = analysis.witnesses.get(&key) {
            out.push_str(",\n          \"codeFlows\": [\n");
            out.push_str("            {\"threadFlows\": [{\"locations\": [");
            for (j, hop) in hops.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n              {\"location\": ");
                out.push_str(&format!(
                    "{{\"message\": {{\"text\": \"{}\"}}, \"physicalLocation\": \
                     {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                     \"region\": {{\"startLine\": {}}}}}}}",
                    escape(&hop.name),
                    escape(&hop.path),
                    hop.line
                ));
                out.push('}');
            }
            out.push_str("\n            ]}]}\n          ]");
        }
        out.push_str("\n        }");
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// Render one SARIF location object, newline-prefixed at `indent`.
fn location(path: &str, line: u32, indent: usize) -> String {
    format!(
        "\n{}{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
         \"region\": {{\"startLine\": {line}}}}}}}",
        " ".repeat(indent),
        escape(path)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowHop, Witnesses};
    use crate::rules::Finding;

    fn sample() -> Analysis {
        let mut witnesses = Witnesses::new();
        witnesses.insert(
            (
                "crates/policy/src/x.rs".to_owned(),
                9,
                "PCQE-F002".to_owned(),
            ),
            vec![
                FlowHop {
                    name: "pcqe_policy::top".into(),
                    path: "crates/policy/src/a.rs".into(),
                    line: 1,
                },
                FlowHop {
                    name: "pcqe_policy::leak".into(),
                    path: "crates/policy/src/x.rs".into(),
                    line: 9,
                },
            ],
        );
        Analysis {
            findings: vec![
                Finding {
                    rule: Rule::D001,
                    path: "crates/core/src/x.rs".into(),
                    line: 3,
                    message: "a \"quoted\" construct".into(),
                },
                Finding {
                    rule: Rule::F002,
                    path: "crates/policy/src/x.rs".into(),
                    line: 9,
                    message: "β leaks".into(),
                },
            ],
            suppressed: Vec::new(),
            files_scanned: 2,
            manifests_scanned: 1,
            witnesses,
        }
    }

    #[test]
    fn emits_schema_driver_and_every_rule() {
        let text = sarif(&sample());
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains(SCHEMA));
        assert!(text.contains("\"name\": \"pcqe-lint\""));
        for rule in Rule::all() {
            assert!(
                text.contains(&format!("\"id\": \"{}\"", rule.code())),
                "driver must list {}",
                rule.code()
            );
        }
    }

    #[test]
    fn results_carry_locations_and_witnesses_become_code_flows() {
        let text = sarif(&sample());
        assert!(text.contains("\"ruleId\": \"PCQE-D001\""));
        assert!(text.contains("a \\\"quoted\\\" construct"));
        assert!(text.contains("\"uri\": \"crates/core/src/x.rs\""));
        assert!(text.contains("\"startLine\": 3"));
        // The F002 finding has a witness → a codeFlows entry with one
        // location per hop; the D001 finding has none.
        assert!(text.contains("\"codeFlows\""));
        assert!(text.contains("pcqe_policy::top"));
        assert_eq!(text.matches("\"codeFlows\"").count(), 1);
    }

    #[test]
    fn byte_stable_across_renders_and_valid_shape_when_empty() {
        let a = sample();
        assert_eq!(sarif(&a), sarif(&a));
        let empty = Analysis {
            findings: Vec::new(),
            suppressed: Vec::new(),
            files_scanned: 0,
            manifests_scanned: 0,
            witnesses: Witnesses::new(),
        };
        let text = sarif(&empty);
        assert!(text.contains("\"results\": []"));
    }
}
