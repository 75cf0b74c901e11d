//! `pcqe-obs-validate` — validate an exported JSON artifact.
//!
//! Usage: `pcqe-obs-validate [--schema metrics|trace] <file.json>`
//!
//! Schemas:
//!
//! * `metrics` (default) — the document has the metrics-snapshot shape
//!   (`counters`/`spans` object members);
//! * `trace` — the document has the Chrome trace-event shape emitted by
//!   `pcqe_obs::trace_export::to_chrome_json` (`traceEvents` array of
//!   name/ph/ts/pid/tid records plus `dropped`/`capacity` accounting).
//!
//! Every check reports **all** violations it finds, in document order
//! (array index order, then fixed key order), before exiting — a CI run
//! never plays whack-a-mole with one error at a time. Only an unparsable
//! document short-circuits, since nothing structural can be checked.
//!
//! Exit codes: `0` the document parses and matches the schema, `1` the
//! document is malformed, `2` usage or I/O error. Used by `ci.sh` as the
//! smoke check on the exported `results/*.json` — hermetically, with the
//! crate's own parser.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use pcqe_obs::json::{self, Value};
use std::process::ExitCode;

fn main() -> ExitCode {
    // The document shape to check: the metrics snapshot unless told otherwise.
    let mut validate: fn(&str) -> Result<String, Vec<String>> = validate_metrics;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let usage = || {
        eprintln!("usage: pcqe-obs-validate [--schema metrics|trace] <file.json>");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => match args.next().as_deref() {
                Some("metrics") => validate = validate_metrics,
                Some("trace") => validate = validate_trace,
                _ => return usage(),
            },
            _ if arg.starts_with("--") => return usage(),
            _ if path.is_none() => path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pcqe-obs-validate: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match validate(&text) {
        Ok(summary) => {
            println!("{path}: ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in errors {
                eprintln!("pcqe-obs-validate: {path}: {e}");
            }
            ExitCode::from(1)
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
    for key in ["counters", "spans"] {
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
    use super::{validate_metrics, validate_trace};

    #[test]
    fn accepts_a_minimal_metrics_document() {
        let doc = "{\"counters\": {\"a\": 1}, \"spans\": {}}";
        assert_eq!(validate_metrics(doc), Ok("counters=1 spans=0".to_owned()));
    }

    #[test]
    fn rejects_missing_sections_and_non_objects() {
        assert!(validate_metrics("[]").is_err());
        assert!(validate_metrics("{\"counters\": {}}").is_err());
        assert!(validate_metrics("{\"counters\": 1, \"spans\": {}}").is_err());
        assert!(validate_metrics("not json").is_err());
    }

    #[test]
    fn metrics_violations_are_all_reported_in_key_order() {
        // One section missing, one malformed: two errors, fixed order.
        let errors = validate_metrics("{\"spans\": 3}").unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("missing `counters`"), "{errors:?}");
        assert!(
            errors[1].contains("`spans` must be an object"),
            "{errors:?}"
        );
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
