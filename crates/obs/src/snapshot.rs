//! Immutable, ordered snapshots of recorder state.
//!
//! Every collection is a `BTreeMap` keyed by metric name, so iteration —
//! and therefore every export — is deterministically ordered. A snapshot
//! is taken under one lock acquisition: counters and spans are mutually
//! consistent.

use std::collections::BTreeMap;

/// Aggregate timing for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed activations of this span path.
    pub count: u64,
    /// Total time inside the span, in nanoseconds of the recorder clock.
    pub total_nanos: u64,
}

/// A consistent, ordered copy of everything a [`Recorder`](crate::Recorder)
/// has seen.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Hierarchical spans, keyed by `/`-separated path.
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }

    /// Convenience: a counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_convenience_accessors() {
        let mut s = MetricsSnapshot::default();
        assert!(s.is_empty());
        s.counters.insert("a".into(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.counter("a"), 3);
        assert_eq!(s.counter("missing"), 0);
    }
}
