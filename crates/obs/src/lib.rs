//! # pcqe-obs — hermetic metrics and span tracing
//!
//! A std-only, registry-free observability layer for the PCQE stack:
//!
//! * [`Recorder`] — thread-safe counters and hierarchical span totals,
//!   folded from the [`pcqe_par::Observer`] spans it hears and timed
//!   exclusively through [`clock`] (so
//!   [`ManualClock`](clock::ManualClock) makes every export deterministic
//!   in tests);
//! * [`MetricsSnapshot`] — an immutable, ordered copy of the recorder
//!   state, taken atomically;
//! * [`export`] — hand-rolled byte-stable JSON and Prometheus text
//!   exposition (no serde: the workspace is registry-free);
//! * [`json`] — a minimal JSON parser used by CI to validate exports and
//!   by tests to round-trip them;
//! * [`sink`] — the recorder's half of [`pcqe_par::Observer`], the one
//!   instrumentation trait every layer reports through (so solver
//!   statistics and spans flow in without `pcqe-core` or the other layers
//!   depending on this crate), and [`Listeners`], the router
//!   the engine builds once per call to say who hears it;
//! * [`trace`] — the causal side of the story: a bounded [`Tracer`] ring
//!   of typed [`trace::TraceEvent`]s (spans with parent ids, instants,
//!   per-tuple policy [`pcqe_par::Decision`]s), the trait's timeline half;
//! * [`trace_export`] — byte-stable Chrome trace-event JSON and
//!   collapsed-stack flamegraph renderings of a [`QueryTrace`].
//!
//! ## Determinism contract
//!
//! Recording is strictly *passive*: nothing in this crate influences query
//! answers, solver solutions, or scheduling decisions. The engine produces
//! bit-identical results with recording enabled or disabled, at any worker
//! thread count — `tests/obs_determinism.rs` at the workspace root proves
//! it. Snapshots order every map by name (`BTreeMap`), so two snapshots of
//! equal state export byte-identical documents.
//!
//! ## Panic safety
//!
//! Every path in this crate is panic-free (the crate root denies clippy's
//! panic lints): poisoned mutexes are recovered rather than unwrapped,
//! arithmetic saturates, and the export/validate CLI returns exit codes
//! instead of panicking.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod clock;
pub mod export;
pub mod json;
pub mod recorder;
pub mod sink;
pub mod snapshot;
pub mod trace;
pub mod trace_export;

pub use recorder::Recorder;
pub use sink::Listeners;
pub use snapshot::{MetricsSnapshot, SpanStat};
pub use trace::{QueryTrace, Tracer};
