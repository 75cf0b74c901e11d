//! Fixture: the two leaks the dataflow layer found in the real
//! workspace, which were fixed at the source rather than sanctioned — a
//! rejected threshold echoed back in its own typed error (PCQE-F002)
//! and the pre-gate confidence handed to a trace instant (PCQE-F003).

/// Typed error that must not carry the value it rejects.
pub enum PolicyError {
    /// The offending threshold, shown to whoever sees the error.
    InvalidThreshold(usize),
}

/// Stand-in for the obs tracer's instant-event method.
pub mod tracer {
    /// Record one instant event.
    pub fn instant(_name: &str, _payload: usize) {}
}

/// Echoes β to the caller on rejection.
pub fn validate(beta: usize) -> Result<usize, PolicyError> {
    if beta > 100 {
        return Err(PolicyError::InvalidThreshold(beta));
    }
    Ok(beta)
}

/// Emits the score a row was gated at.
pub fn emit_gate_instant(confidence: usize) {
    tracer::instant("beta.skip", confidence);
}
