//! Error type for lineage evaluation.

use crate::expr::VarId;
use std::fmt;

/// Errors raised while computing lineage probabilities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageError {
    /// A variable had no probability in the pool or in the supplied
    /// [`crate::ProbSource`].
    UnknownVar(VarId),
    /// Exact evaluation exceeded the Shannon-expansion budget.
    ///
    /// Callers can retry with a larger budget or settle for the sound
    /// interval of [`crate::bounds`], which needs no expansion.
    BudgetExceeded {
        /// The budget that was exhausted.
        budget: usize,
    },
    /// A [`crate::cache::CircuitCache`] handle did not resolve to a pooled
    /// circuit (it belongs to a different cache, or the cache was rebuilt).
    UnknownCircuit(usize),
}

impl fmt::Display for LineageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineageError::UnknownVar(v) => write!(f, "no probability for variable {v}"),
            LineageError::BudgetExceeded { budget } => {
                write!(f, "exact evaluation exceeded budget of {budget} expansions")
            }
            LineageError::UnknownCircuit(id) => {
                write!(f, "no pooled circuit with cache id {id}")
            }
        }
    }
}

impl std::error::Error for LineageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        assert!(LineageError::UnknownVar(VarId(7))
            .to_string()
            .contains("v7"));
        assert!(LineageError::BudgetExceeded { budget: 10 }
            .to_string()
            .contains("10"));
    }
}
