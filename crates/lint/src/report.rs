//! Human and machine-readable finding reports.
//!
//! JSON is emitted by hand (same idiom as the bench harness's report
//! writer): the workspace is registry-free, so no serde. Output is fully
//! deterministic — findings arrive pre-sorted and maps are avoided.

use crate::rules::Rule;
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
        "pcqe-lint: {} file(s), {} manifest(s) scanned; {} error(s), {} suppressed\n",
        analysis.files_scanned,
        analysis.manifests_scanned,
        analysis.error_count(),
        analysis.suppressed.len()
    ));
    out
}

/// Render the JSON report.
///
/// Format version 2 added the `rules` section: one entry per rule id in
/// [`Rule::all`] order with that rule's unsuppressed-error and
/// suppressed counts. CI gates on it (`pcqe-obs-validate --schema lint
/// --gate`): per-rule ceilings make a regression in *any* rule visible
/// even while the totals stay flat. Format version 3 widened the section
/// to the dataflow rules (PCQE-F001–F005); the shape is unchanged, and a
/// retired rule id simply stops appearing. Format version 4 dropped the
/// summary's `warnings` count with the severity axis: every finding is
/// an error, and says so.
pub fn json(analysis: &Analysis) -> String {
    let mut out =
        String::from("{\n  \"tool\": \"pcqe-lint\",\n  \"format_version\": 4,\n  \"findings\": [");
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
    out.push_str("],\n  \"rules\": {");
    for (i, rule) in Rule::all().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let errors = analysis.findings.iter().filter(|f| f.rule == rule).count();
        let suppressed = analysis
            .suppressed
            .iter()
            .filter(|(f, _)| f.rule == rule)
            .count();
        out.push_str(&format!(
            "\n    \"{}\": {{\"errors\": {errors}, \"suppressed\": {suppressed}}}",
            rule.code()
        ));
    }
    out.push_str("\n  },\n  \"summary\": {");
    out.push_str(&format!("\"files\": {}, ", analysis.files_scanned));
    out.push_str(&format!("\"manifests\": {}, ", analysis.manifests_scanned));
    out.push_str(&format!("\"errors\": {}, ", analysis.error_count()));
    out.push_str(&format!("\"suppressed\": {}", analysis.suppressed.len()));
    out.push_str("}\n}\n");
    out
}

/// Minimal JSON string escaping: quotes, backslashes, control chars.
pub(crate) fn escape(s: &str) -> String {
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
                rule: Rule::D001,
                path: "crates/core/src/x.rs".into(),
                line: 3,
                message: "a \"quoted\" construct".into(),
            }],
            suppressed: Vec::new(),
            files_scanned: 2,
            manifests_scanned: 1,
            witnesses: crate::flow::Witnesses::new(),
        }
    }

    #[test]
    fn human_report_names_rule_and_span() {
        let text = human(&sample());
        assert!(text.contains("crates/core/src/x.rs:3: PCQE-D001 [error]"));
        assert!(text.contains("1 error(s)"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let text = json(&sample());
        assert!(text.contains("\"format_version\": 4"));
        assert!(text.contains("\"rule\": \"PCQE-D001\""));
        assert!(text.contains("a \\\"quoted\\\" construct"));
        assert!(text.contains("\"errors\": 1"));
        // The per-rule section counts the D001 error and zeroes the rest.
        assert!(text.contains("\"PCQE-D001\": {\"errors\": 1, \"suppressed\": 0}"));
        assert!(text.contains("\"PCQE-G001\": {\"errors\": 0, \"suppressed\": 0}"));
        // Empty analysis yields an empty findings array, still valid.
        let empty = Analysis {
            findings: Vec::new(),
            suppressed: Vec::new(),
            files_scanned: 0,
            manifests_scanned: 0,
            witnesses: crate::flow::Witnesses::new(),
        };
        assert!(json(&empty).contains("\"findings\": [],"));
    }

    #[test]
    fn json_rules_section_lists_every_rule_once_in_order() {
        let text = json(&sample());
        let codes: Vec<usize> = Rule::all()
            .into_iter()
            .map(|r| text.find(&format!("\"{}\": {{", r.code())).unwrap())
            .collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted, "rules section must follow Rule::all order");
        assert_eq!(codes.len(), 17);
    }
}
