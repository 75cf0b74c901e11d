//! Byte-stable exports for a [`QueryTrace`]: Chrome trace-event JSON
//! and collapsed-stack flamegraph text.
//!
//! Both renderers walk the timeline in `seq` order and emit nothing that
//! depends on host state, so a trace collected under a
//! [`ManualClock`](crate::clock::ManualClock) exports byte-identically
//! on every run — `tests/trace_determinism.rs` pins both formats against
//! goldens in `tests/golden/`.
//!
//! ## Chrome trace-event JSON
//!
//! [`to_chrome_json`] emits the `{"traceEvents": [...]}` object format
//! loadable by `chrome://tracing` and Perfetto: span begin/end pairs as
//! `ph: "B"`/`ph: "E"`, instants and decisions as thread-scoped
//! `ph: "i"`. Timestamps are microseconds with the sub-microsecond
//! remainder kept as three decimal digits, so the nanosecond clock
//! round-trips exactly.
//!
//! ## Collapsed stacks
//!
//! [`to_folded`] reconstructs the span stack and emits
//! `frame;frame;leaf count` lines (the `flamegraph.pl`/inferno input
//! format). Weights are **event counts**, not nanoseconds: under a
//! manual clock every duration is scripted (often zero), so counting
//! events is what keeps the export meaningful *and* byte-stable. A
//! flamegraph of a traced query therefore shows where the causal
//! activity happened, not where wall time went.

use crate::export::{json_f64, json_string};
use crate::trace::{QueryTrace, TraceEvent, TraceEventKind};
use pcqe_par::{ConfidencePath, Decision};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Stable text form of a [`ConfidencePath`] (shared by both exporters).
pub(crate) fn path_label(path: ConfidencePath) -> &'static str {
    match path {
        ConfidencePath::Exact => "exact",
        ConfidencePath::BetaSkipped => "beta-skipped",
        ConfidencePath::Bounded => "bounded",
    }
}

/// Microseconds with exact nanosecond remainder: `1234` ns → `"1.234"`.
fn micros(ts_nanos: u64) -> String {
    format!("{}.{:03}", ts_nanos / 1_000, ts_nanos % 1_000)
}

fn decision_args(seq: u64, d: &Decision) -> String {
    format!(
        "{{\"seq\": {seq}, \"tuple\": {}, \"released\": {}, \"path\": {}, \"beta\": {}, \
         \"confidence\": {}, \"lineage_size\": {}}}",
        d.tuple,
        d.released,
        json_string(path_label(d.path)),
        json_f64(d.beta),
        json_f64(d.confidence),
        d.lineage_size
    )
}

fn chrome_event(event: &TraceEvent) -> String {
    let ts = micros(event.ts_nanos);
    let seq = event.seq;
    let (name, ph, extra, args) = match &event.kind {
        TraceEventKind::SpanBegin { id, parent, name } => {
            let parent = match parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            (
                json_string(name),
                "B",
                String::new(),
                format!("{{\"seq\": {seq}, \"span\": {id}, \"parent\": {parent}}}"),
            )
        }
        TraceEventKind::SpanEnd { id, name } => (
            json_string(name),
            "E",
            String::new(),
            format!("{{\"seq\": {seq}, \"span\": {id}}}"),
        ),
        TraceEventKind::Instant { name, detail } => (
            json_string(name),
            "i",
            ", \"s\": \"t\"".to_owned(),
            format!("{{\"seq\": {seq}, \"detail\": {}}}", json_string(detail)),
        ),
        TraceEventKind::Decision(d) => (
            json_string("decision"),
            "i",
            ", \"s\": \"t\"".to_owned(),
            decision_args(seq, d),
        ),
    };
    format!(
        "    {{\"name\": {name}, \"ph\": \"{ph}\", \"ts\": {ts}, \"pid\": 1, \"tid\": 1{extra}, \
         \"args\": {args}}}"
    )
}

/// Render a trace as Chrome trace-event JSON (object format).
///
/// The document is a single top-level object: `traceEvents` (one entry
/// per event, in `seq` order), `displayTimeUnit`, and the tracer's
/// `dropped`/`capacity` accounting so a truncated trace is visibly
/// truncated. Output ends with a newline and is byte-stable for equal
/// traces.
pub fn to_chrome_json(trace: &QueryTrace) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"displayTimeUnit\": \"ms\",");
    let _ = writeln!(out, "  \"dropped\": {},", trace.dropped);
    let _ = writeln!(out, "  \"capacity\": {},", trace.capacity);
    out.push_str("  \"traceEvents\": [");
    let mut first = true;
    for event in &trace.events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&chrome_event(event));
    }
    if !trace.events.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render a trace as collapsed-stack flamegraph text.
///
/// One `frame;frame;leaf count` line per distinct stack, sorted
/// lexicographically. Span begin/end events weight the span's own
/// frame; instants and decisions weight a leaf frame named after the
/// event (decisions collapse to a `decision` leaf) under the enclosing
/// span stack. Events outside any span use the leaf name alone.
pub fn to_folded(trace: &QueryTrace) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    // Open span stack reconstructed from the timeline: (id, name).
    let mut stack: Vec<(u64, String)> = Vec::new();
    let joined = |stack: &[(u64, String)]| -> String {
        let names: Vec<&str> = stack.iter().map(|(_, n)| n.as_str()).collect();
        names.join(";")
    };
    let mut bump = |key: String| {
        let slot = weights.entry(key).or_insert(0);
        *slot = slot.saturating_add(1);
    };
    for event in &trace.events {
        match &event.kind {
            TraceEventKind::SpanBegin { id, name, .. } => {
                stack.push((*id, name.clone()));
                bump(joined(&stack));
            }
            TraceEventKind::SpanEnd { id, .. } => {
                bump(joined(&stack));
                if let Some(pos) = stack.iter().rposition(|(open, _)| open == id) {
                    stack.remove(pos);
                }
            }
            TraceEventKind::Instant { name, .. } => {
                let base = joined(&stack);
                if base.is_empty() {
                    bump(name.clone());
                } else {
                    bump(format!("{base};{name}"));
                }
            }
            TraceEventKind::Decision(_) => {
                let base = joined(&stack);
                if base.is_empty() {
                    bump("decision".to_owned());
                } else {
                    bump(format!("{base};decision"));
                }
            }
        }
    }
    let mut out = String::new();
    for (key, weight) in &weights {
        let _ = writeln!(out, "{key} {weight}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::trace::Tracer;
    use pcqe_par::Observer;
    use std::sync::Arc;
    use std::time::Duration;

    fn sample() -> QueryTrace {
        let clock = Arc::new(ManualClock::new());
        let t = Tracer::with_clock(clock.clone(), 64);
        let q = t.span_begin("query");
        clock.advance(Duration::from_nanos(1_500));
        let s = t.span_begin("score");
        t.instant("cache.hit", "node=7");
        t.decision(&Decision {
            tuple: 13,
            released: false,
            path: ConfidencePath::BetaSkipped,
            beta: 0.06,
            confidence: 0.04,
            lineage_size: 3,
        });
        t.span_end(s);
        t.span_end(q);
        t.drain()
    }

    #[test]
    fn chrome_json_is_wellformed_and_ordered() {
        let doc = to_chrome_json(&sample());
        let parsed = crate::json::parse(&doc).expect("chrome export must parse");
        let events = parsed
            .get("traceEvents")
            .and_then(crate::json::Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| {
                e.get("ph")
                    .and_then(crate::json::Value::as_str)
                    .expect("ph")
            })
            .collect();
        assert_eq!(phases, vec!["B", "B", "i", "i", "E", "E"]);
        assert!(doc.contains("\"ts\": 1.500"), "nanosecond remainder kept");
        assert!(doc.contains("\"path\": \"beta-skipped\""));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn chrome_json_of_empty_trace_is_stable() {
        let doc = to_chrome_json(&QueryTrace::default());
        assert_eq!(
            doc,
            "{\n  \"displayTimeUnit\": \"ms\",\n  \"dropped\": 0,\n  \"capacity\": 0,\n  \
             \"traceEvents\": []\n}\n"
        );
        crate::json::parse(&doc).expect("empty export must parse");
    }

    #[test]
    fn folded_output_collapses_stacks() {
        let folded = to_folded(&sample());
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "query 2",
                "query;score 2",
                "query;score;cache.hit 1",
                "query;score;decision 1",
            ]
        );
    }

    #[test]
    fn folded_event_outside_any_span_uses_leaf_name() {
        let t = Tracer::with_clock(Arc::new(ManualClock::new()), 8);
        t.instant("orphan", "");
        let folded = to_folded(&t.drain());
        assert_eq!(folded, "orphan 1\n");
    }
}
