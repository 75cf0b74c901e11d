//! Human and machine-readable finding reports.
//!
//! JSON is emitted by hand (same idiom as the bench harness's report
//! writer): the workspace is registry-free, so no serde. Output is fully
//! deterministic — findings arrive pre-sorted and maps are avoided.

use crate::Analysis;

/// Render the human report: one `path:line: CODE [error] message` per
/// finding plus a summary line.
pub fn human(analysis: &Analysis) -> String {
    let mut out = String::new();
    for f in &analysis.findings {
        out.push_str(&format!(
            "{}:{}: {} [error] {}\n",
            f.path,
            f.line,
            f.rule.code(),
            f.message
        ));
    }
    out.push_str(&format!(
        "pcqe-lint: {} file(s) scanned; {} error(s), {} suppressed\n",
        analysis.files_scanned,
        analysis.error_count(),
        analysis.suppressed.len()
    ));
    out
}

/// Render the JSON report: the findings and a summary of the counts.
///
/// Format version 4 dropped the summary's `warnings` count with the
/// severity axis: every finding is an error, and says so. Format version
/// 5 dropped the per-rule `rules` section, which only a CI ceiling read:
/// the per-rule suppression counts are held by
/// `tests/lint_guard.rs::workspace_passes_its_own_static_analysis`.
/// Format version 6 dropped the summary's `manifests` count with the
/// manifest rule: `tests/hermetic_guard.rs` reads the manifests now.
pub fn json(analysis: &Analysis) -> String {
    let mut out =
        String::from("{\n  \"tool\": \"pcqe-lint\",\n  \"format_version\": 6,\n  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": \"{}\", ", f.rule.code()));
        out.push_str("\"severity\": \"error\", ");
        out.push_str(&format!("\"path\": \"{}\", ", escape(&f.path)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"message\": \"{}\"", escape(&f.message)));
        out.push('}');
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"summary\": {");
    out.push_str(&format!("\"files\": {}, ", analysis.files_scanned));
    out.push_str(&format!("\"errors\": {}, ", analysis.error_count()));
    out.push_str(&format!("\"suppressed\": {}", analysis.suppressed.len()));
    out.push_str("}\n}\n");
    out
}

/// Minimal JSON string escaping: quotes, backslashes, control chars.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Rule};

    fn sample() -> Analysis {
        Analysis {
            findings: vec![Finding {
                rule: Rule::D004,
                path: "crates/core/src/x.rs".into(),
                line: 3,
                message: "a \"quoted\" construct".into(),
            }],
            suppressed: Vec::new(),
            files_scanned: 2,
        }
    }

    #[test]
    fn human_report_names_rule_and_span() {
        let text = human(&sample());
        assert!(text.contains("crates/core/src/x.rs:3: PCQE-D004 [error]"));
        assert!(text.contains("1 error(s)"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let text = json(&sample());
        assert!(text.contains("\"format_version\": 6"));
        assert!(text.contains("\"rule\": \"PCQE-D004\""));
        assert!(text.contains("a \\\"quoted\\\" construct"));
        assert!(text.contains("\"errors\": 1"));
        assert!(!text.contains("\"rules\""));
        // Empty analysis yields an empty findings array, still valid.
        let empty = Analysis {
            findings: Vec::new(),
            suppressed: Vec::new(),
            files_scanned: 0,
        };
        assert!(json(&empty).contains("\"findings\": [],"));
    }
}
