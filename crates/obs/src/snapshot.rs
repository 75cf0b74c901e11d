//! Immutable, ordered snapshots of recorder state.
//!
//! Every collection is a `BTreeMap` keyed by metric name, so iteration —
//! and therefore every export — is deterministically ordered. A snapshot
//! is taken under one lock acquisition: counters, histograms and spans
//! are mutually consistent.

use std::collections::BTreeMap;

/// Upper bounds (in seconds) for the fixed histogram buckets, chosen to
/// cover microsecond operator timings up to multi-second solver runs.
/// Every histogram shares these bounds: fixed buckets keep merging and
/// export trivially byte-stable.
pub const BUCKET_BOUNDS: [f64; 10] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0, 600.0];

/// A fixed-bucket histogram: cumulative-style export, Prometheus-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observations per bucket; `counts[i]` counts values `<= BUCKET_BOUNDS[i]`
    /// (non-cumulative storage), with the final slot catching everything
    /// above the last bound (`+Inf`).
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    /// Sum of all recorded values.
    sum: f64,
    /// Total number of observations.
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }
}

impl Histogram {
    /// Record one observation. NaN is counted in the overflow bucket and
    /// excluded from `sum` so one bad value cannot poison the export.
    pub fn record(&mut self, value: f64) {
        let idx = if value.is_nan() {
            BUCKET_BOUNDS.len()
        } else {
            BUCKET_BOUNDS
                .iter()
                .position(|&b| value <= b)
                .unwrap_or(BUCKET_BOUNDS.len())
        };
        // `idx <= BUCKET_BOUNDS.len()` and `counts` has one extra overflow
        // slot, but the metrics path must never panic (PCQE-P002), so the
        // impossible miss is simply dropped.
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot = slot.saturating_add(1);
        }
        if !value.is_nan() {
            self.sum += value;
        }
        self.count = self.count.saturating_add(1);
    }

    /// Per-bucket (non-cumulative) counts; the last entry is `+Inf`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative count of observations `<=` each bound, ending with the
    /// total (`+Inf` bucket) — the Prometheus exposition shape.
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc = acc.saturating_add(c);
                acc
            })
            .collect()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

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
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Hierarchical spans, keyed by `/`-separated path.
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
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
    fn histogram_buckets_by_bound() {
        let mut h = Histogram::default();
        h.record(5e-7); // <= 1e-6
        h.record(1e-6); // <= 1e-6 (inclusive bound)
        h.record(0.5); // <= 1.0
        h.record(1e9); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[6], 1);
        assert_eq!(h.bucket_counts()[BUCKET_BOUNDS.len()], 1);
        let cum = h.cumulative_counts();
        assert_eq!(cum[BUCKET_BOUNDS.len()], 4, "+Inf is the total");
        assert!((h.sum() - (5e-7 + 1e-6 + 0.5 + 1e9)).abs() < 1e-3);
    }

    #[test]
    fn histogram_tolerates_nan() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(0.1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts()[BUCKET_BOUNDS.len()], 1);
        assert!((h.sum() - 0.1).abs() < 1e-12, "NaN excluded from sum");
    }

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
