//! The workspace's only sanctioned wall-clock access point.
//!
//! Time is an *observability* concern: no decision that affects a
//! returned answer or solution depends on the clock (searches are cut
//! short by node limits, never by time). Concentrating every
//! `Instant::now()` here keeps that boundary auditable — clippy's
//! `disallowed_methods` (the root `clippy.toml`) forbids wall-clock reads
//! anywhere else in the workspace; `crates/bench` is a detached workspace
//! with its own `clippy.toml` (hence the targeted `#[allow]`s below).
//!
//! # Time sources
//!
//! The [`Clock`] trait abstracts the monotonic time source so
//! instrumentation (the recorder's spans, the tracer's timeline) can be
//! driven deterministically in tests. Two implementations ship here:
//!
//! * [`SystemClock`] — the real monotonic clock, reported as a [`Duration`]
//!   since a lazily-pinned process epoch. This module owns the only raw
//!   `Instant::now()` calls in the workspace outside `crates/bench`.
//! * [`ManualClock`] — an atomic counter advanced explicitly by tests, so
//!   golden exports and span trees are byte-stable.

#[expect(
    clippy::disallowed_types,
    reason = "atomics: the manual clock's one tick counter, advanced only by the test that owns it"
)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic time source reporting time as a [`Duration`] since an
/// implementation-defined epoch.
///
/// Object-safe so recorders can hold `Arc<dyn Clock + Send + Sync>`.
/// Implementations must be monotonic: successive readings never decrease.
pub trait Clock {
    /// Monotonic reading since the clock's epoch.
    fn monotonic(&self) -> Duration;
}

/// The process epoch for [`SystemClock`]: pinned on first read so all
/// readings are small, comparable `Duration`s.
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one clock read outside the bench harness"
)]
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The real monotonic clock.
///
/// Readings are `Duration`s since a lazily-pinned process epoch, so the
/// very first reading is near zero and all readings are comparable within
/// one process. This type owns the workspace's sanctioned `Instant::now()`
/// call sites.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one clock read outside the bench harness"
    )]
    fn monotonic(&self) -> Duration {
        let epoch = process_epoch();
        let now = Instant::now();
        now.saturating_duration_since(epoch)
    }
}

/// A deterministic clock for tests: time advances only when told to.
///
/// Shared freely across threads; all methods take `&self`.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "atomics: the manual clock's one tick counter, advanced only by the test that owns it"
)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advance the clock by `by` (saturating at `u64::MAX` nanoseconds).
    pub fn advance(&self, by: Duration) {
        let add = duration_to_nanos(by);
        let mut cur = self.nanos.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(add);
            match self
                .nanos
                .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Set the absolute reading. Monotonicity is the caller's contract —
    /// tests should only move time forward.
    pub fn set(&self, to: Duration) {
        self.nanos.store(duration_to_nanos(to), Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn monotonic(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Clamp a `Duration` to a `u64` nanosecond count.
pub fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_starts_at_zero_and_advances() {
        let c = ManualClock::new();
        assert_eq!(c.monotonic(), Duration::ZERO);
        c.advance(Duration::from_millis(5));
        assert_eq!(c.monotonic(), Duration::from_millis(5));
        c.advance(Duration::from_millis(5));
        assert_eq!(c.monotonic(), Duration::from_millis(10));
        c.set(Duration::from_secs(1));
        assert_eq!(c.monotonic(), Duration::from_secs(1));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock;
        let a = c.monotonic();
        let b = c.monotonic();
        assert!(b >= a);
    }

    #[test]
    fn clock_trait_is_object_safe() {
        let clocks: Vec<Box<dyn Clock + Send + Sync>> =
            vec![Box::new(SystemClock), Box::new(ManualClock::new())];
        for c in &clocks {
            let _ = c.monotonic();
        }
    }
}
