//! Byte-stable exporters: hand-rolled JSON and Prometheus text format.
//!
//! No serde — the workspace is registry-free. Both exporters walk the
//! snapshot's `BTreeMap`s, so equal snapshots always serialize to
//! byte-identical documents; the golden files in
//! `tests/golden/metrics.{json,prom}` pin the formats.

use crate::snapshot::MetricsSnapshot;
use std::fmt::Write as _;

/// Serialize the snapshot as a pretty-printed JSON document (trailing
/// newline included). Key order is the snapshot's map order: sorted.
pub fn to_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"counters\": {},", counters_json(snapshot));
    let _ = writeln!(out, "  \"spans\": {}", spans_json(snapshot));
    out.push_str("}\n");
    out
}

fn counters_json(s: &MetricsSnapshot) -> String {
    object(
        s.counters.iter().map(|(k, v)| (k.as_str(), v.to_string())),
        4,
    )
}

fn spans_json(s: &MetricsSnapshot) -> String {
    object(
        s.spans.iter().map(|(k, v)| {
            (
                k.as_str(),
                format!(
                    "{{\"count\": {}, \"total_nanos\": {}}}",
                    v.count, v.total_nanos
                ),
            )
        }),
        4,
    )
}

/// Render `key: value` pairs as a JSON object with `indent`-space members.
/// Values are pre-rendered JSON.
fn object<'a>(pairs: impl Iterator<Item = (&'a str, String)>, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let members: Vec<String> = pairs
        .map(|(k, v)| format!("{pad}{}: {v}", json_string(k)))
        .collect();
    if members.is_empty() {
        return "{}".to_owned();
    }
    let close_pad = " ".repeat(indent.saturating_sub(2));
    format!("{{\n{}\n{close_pad}}}", members.join(",\n"))
}

/// Escape a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`: `{v:?}` round-trips; non-finite becomes `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Serialize the snapshot in the Prometheus text exposition format
/// (version 0.0.4). Metric names are sanitized (`[a-zA-Z0-9_]`) and
/// prefixed `pcqe_`; spans export `_count` and `_nanos_total` counters.
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let m = metric_name(name, "");
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {value}");
    }
    for (name, stat) in &snapshot.spans {
        let m = metric_name(name, "span_");
        let _ = writeln!(out, "# TYPE {m}_count counter");
        let _ = writeln!(out, "{m}_count {}", stat.count);
        let _ = writeln!(out, "# TYPE {m}_nanos_total counter");
        let _ = writeln!(out, "{m}_nanos_total {}", stat.total_nanos);
    }
    out
}

/// `pcqe_` + optional kind prefix + the sanitized metric name.
fn metric_name(name: &str, kind: &str) -> String {
    let mut out = String::with_capacity(name.len() + kind.len() + 5);
    out.push_str("pcqe_");
    out.push_str(kind);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SpanStat;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("query.total".into(), 3);
        s.counters.insert("policy.released".into(), 2);
        s.spans.insert(
            "query/execute".into(),
            SpanStat {
                count: 3,
                total_nanos: 42_000,
            },
        );
        s
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let doc = to_json(&sample());
        let parsed = crate::json::parse(&doc).expect("export must parse");
        let obj = parsed.as_object().expect("top-level object");
        for key in ["counters", "spans"] {
            assert!(obj.contains_key(key), "missing {key} in:\n{doc}");
        }
        assert!(doc.contains("\"query.total\": 3"));
        assert!(doc.contains("\"count\": 3, \"total_nanos\": 42000"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn json_export_of_empty_snapshot_is_valid() {
        let doc = to_json(&MetricsSnapshot::default());
        assert!(crate::json::parse(&doc).is_ok(), "{doc}");
        assert!(doc.contains("\"counters\": {}"));
    }

    #[test]
    fn identical_snapshots_export_identical_bytes() {
        assert_eq!(to_json(&sample()), to_json(&sample()));
        assert_eq!(to_prometheus(&sample()), to_prometheus(&sample()));
    }

    #[test]
    fn prometheus_export_shapes_each_kind() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE pcqe_query_total counter"));
        assert!(text.contains("pcqe_query_total 3"));
        assert!(text.contains("pcqe_span_query_execute_nanos_total 42000"));
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_floats_round_trip_and_specials_are_null() {
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn prometheus_sanitizes_hostile_metric_names() {
        // Everything outside [a-zA-Z0-9] becomes `_`, including the
        // characters Prometheus would otherwise parse as syntax.
        let mut s = MetricsSnapshot::default();
        s.counters.insert("solver/greedy-elapsed.v2".into(), 1);
        s.counters.insert("weird{label=\"x\"} name".into(), 2);
        s.spans.insert(
            "query/execute phase#1".into(),
            SpanStat {
                count: 1,
                total_nanos: 7,
            },
        );
        let text = to_prometheus(&s);
        assert_eq!(
            text,
            "# TYPE pcqe_solver_greedy_elapsed_v2 counter\n\
             pcqe_solver_greedy_elapsed_v2 1\n\
             # TYPE pcqe_weird_label__x___name counter\n\
             pcqe_weird_label__x___name 2\n\
             # TYPE pcqe_span_query_execute_phase_1_count counter\n\
             pcqe_span_query_execute_phase_1_count 1\n\
             # TYPE pcqe_span_query_execute_phase_1_nanos_total counter\n\
             pcqe_span_query_execute_phase_1_nanos_total 7\n"
        );
        // The sanitized names also survive the JSON path: raw keys are
        // escaped, so the document still parses.
        s.counters.clear();
        s.counters.insert("quote\"and\\slash".into(), 1);
        let doc = to_json(&s);
        assert!(crate::json::parse(&doc).is_ok(), "{doc}");
        assert!(doc.contains("\"quote\\\"and\\\\slash\": 1"), "{doc}");
    }

    #[test]
    fn empty_snapshot_exports_are_byte_stable() {
        // Inline goldens: the empty documents are part of the format
        // contract — consumers (ci.sh, the validator) see exactly this.
        let empty = MetricsSnapshot::default();
        assert_eq!(
            to_json(&empty),
            "{\n  \"counters\": {},\n  \"spans\": {}\n}\n"
        );
        assert_eq!(to_prometheus(&empty), "");
    }
}
