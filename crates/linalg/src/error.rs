//! Error type for linear-algebra operations.

use std::fmt;

/// Errors produced by dense and randomized linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of the operation.
        operation: String,
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// A parameter was outside its valid range.
    InvalidParameter(String),
    /// An iterative routine failed to converge.
    NoConvergence {
        /// Name of the routine.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An input held a NaN or infinite entry.
    NonFinite {
        /// Name of the routine that rejected the input.
        operation: &'static str,
        /// Row of the first non-finite entry.
        row: usize,
        /// Column of the first non-finite entry.
        col: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch {
                operation,
                left,
                right,
            } => write!(
                f,
                "shape mismatch in {operation}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            LinalgError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} did not converge after {iterations} iterations"
                )
            }
            LinalgError::NonFinite {
                operation,
                row,
                col,
            } => write!(f, "non-finite entry at ({row}, {col}) in {operation} input"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_mismatch_message_includes_shapes() {
        let err = LinalgError::ShapeMismatch {
            operation: "matmul".into(),
            left: (2, 3),
            right: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn convergence_message() {
        let err = LinalgError::NoConvergence {
            routine: "jacobi",
            iterations: 100,
        };
        assert!(err.to_string().contains("jacobi"));
    }
}
