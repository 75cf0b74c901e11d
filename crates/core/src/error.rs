//! Error type for the strategy-finding algorithms.

use std::fmt;

/// Errors raised while building or solving a confidence-increment problem.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The problem definition was inconsistent.
    InvalidProblem(String),
    /// Even raising every base tuple to its maximum confidence satisfies
    /// fewer results than required.
    Infeasible {
        /// Results satisfiable at maximum confidence everywhere.
        achievable: usize,
        /// Results the caller required.
        required: usize,
    },
    /// A solver gave up (node limit, or a gain plateau it could not
    /// escape).
    GaveUp(String),
    /// A lineage compilation or evaluation failed while building the
    /// problem.
    Lineage(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidProblem(m) => write!(f, "invalid problem: {m}"),
            CoreError::Infeasible {
                achievable,
                required,
            } => write!(
                f,
                "infeasible: at most {achievable} results can satisfy the threshold, {required} required"
            ),
            CoreError::GaveUp(m) => write!(f, "solver gave up: {m}"),
            CoreError::Lineage(m) => write!(f, "lineage error: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::Infeasible {
            achievable: 2,
            required: 5,
        };
        assert!(e.to_string().contains('2'));
        assert!(e.to_string().contains('5'));
    }
}
