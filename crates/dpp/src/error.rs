//! Error type for DPP construction and inference.

use dhmm_linalg::LinalgError;
use std::fmt;

/// Errors produced by DPP kernels, log-determinants and gradients.
#[derive(Debug, Clone, PartialEq)]
pub enum DppError {
    /// A kernel parameter was invalid (e.g. non-positive `ρ`).
    InvalidParameter {
        /// Name of the parameter.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The input matrix had an unusable shape or non-finite entries.
    InvalidInput {
        /// Human-readable reason.
        reason: String,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for DppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DppError::InvalidParameter { parameter, value } => {
                write!(f, "invalid DPP parameter {parameter} = {value}")
            }
            DppError::InvalidInput { reason } => write!(f, "invalid DPP input: {reason}"),
            DppError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for DppError {}

impl From<LinalgError> for DppError {
    fn from(e: LinalgError) -> Self {
        DppError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DppError::InvalidParameter {
            parameter: "rho",
            value: -1.0,
        };
        assert!(e.to_string().contains("rho"));
        let e = DppError::InvalidInput {
            reason: "empty".into(),
        };
        assert!(e.to_string().contains("empty"));
        let e: DppError = LinalgError::Singular { pivot: 0 }.into();
        assert!(matches!(e, DppError::Linalg(_)));
        assert!(e.to_string().contains("linear algebra"));
    }
}
