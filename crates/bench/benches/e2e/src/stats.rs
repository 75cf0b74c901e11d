//! The statistics every reported number goes through: medians,
//! nearest-rank percentiles that refuse to overreach their sample,
//! median-of-rounds with its spread, and self time from a span tree.

use crate::spans::{Span, NO_PARENT};

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice:
/// the value at rank ⌈p·n/100⌉. `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank — a tail the sample cannot support.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    sorted.get(rank - 1).copied()
}

/// Nearest-rank median of an ascending slice (`None` when empty). The
/// median is the one quantile reported at any sample size.
pub fn median_sorted(sorted: &[u64]) -> Option<u64> {
    sorted.get(sorted.len().checked_sub(1)? / 2).copied()
}

/// Median of a few per-round values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(max − min) / median` of a few per-round values; 0 when the median is.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let parent = &mut own[s.parent as usize];
            *parent = parent.saturating_sub(s.nanos());
        }
    }
    own
}

/// What no named stage accounts for: the op's untraced latency minus the
/// stage self times. Signed — a replay stage slower than the engine's own
/// makes it negative, and that is reported, not clipped.
pub fn unattributed(op_ns: u64, stage_self_ns: u64) -> i64 {
    op_ns as i64 - stage_self_ns as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(median_sorted(&v), Some(50));
        assert_eq!(median_sorted(&[7]), Some(7));
        assert_eq!(median_sorted(&[]), None);
    }

    #[test]
    fn percentile_refuses_an_unsupported_tail() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 of 100 has exactly ten samples beyond it; p91 has nine.
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), Some(990));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_rounds_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op [0,100) > a [10,40) > a1 [15,25); op > b [50,90)
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("a1", 1, 15, 25),
            span("b", 0, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn stage_self_times_plus_unattributed_is_the_op_time() {
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("a1", 1, 15, 25),
            span("b", 0, 50, 90),
        ];
        let own = self_times(&spans);
        let stages: u64 = own[1..].iter().sum();
        // An engine op faster and one slower than the staged replay.
        for op_ns in [65u64, 180] {
            let rest = unattributed(op_ns, stages);
            assert_eq!(stages as i64 + rest, op_ns as i64);
        }
        assert_eq!(unattributed(65, stages), -5);
    }
}
