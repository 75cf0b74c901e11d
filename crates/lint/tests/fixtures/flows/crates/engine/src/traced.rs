//! Fixture: a Decision record carries the pre-gate confidence through a
//! declared trace sink. The flow is sanctioned in lint.toml, so
//! the finding lands in the suppressed list — PCQE-F003's negative
//! case, and the entry that keeps the F004 check honest.

/// Stand-in for the obs tracer's Decision constructor.
pub mod tracer {
    /// Record one decision payload.
    pub fn decision(_payload: usize) {}
}

/// Emits the decision record the sanction covers.
pub fn emit(confidence: usize) {
    tracer::decision(confidence);
}
