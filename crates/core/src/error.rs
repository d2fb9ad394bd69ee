//! Error type for embedding construction.

use std::fmt;

use nrp_graph::GraphError;
use nrp_linalg::LinalgError;

/// An invalid forward-push parameter, captured as typed fields.
///
/// Push validation runs on the warm serving path (`forward_push_into`),
/// which must not allocate — so the error is `Copy` and formats lazily on
/// `Display` instead of carrying a `format!`-built message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PushParamError {
    /// `alpha` outside the open interval `(0, 1)`.
    Alpha(f64),
    /// `r_max` not strictly positive.
    RMax(f64),
    /// `source` at or past the graph's node count.
    SourceOutOfBounds {
        /// The out-of-range node id.
        source: u32,
        /// The graph's node count.
        nodes: usize,
    },
}

impl fmt::Display for PushParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushParamError::Alpha(alpha) => write!(f, "alpha must be in (0,1), got {alpha}"),
            PushParamError::RMax(r_max) => write!(f, "r_max must be positive, got {r_max}"),
            PushParamError::SourceOutOfBounds { source, nodes } => {
                write!(f, "source {source} out of bounds for {nodes} nodes")
            }
        }
    }
}

/// Errors produced while constructing embeddings.
#[derive(Debug)]
pub enum NrpError {
    /// A parameter was outside its valid range.
    InvalidParameter(String),
    /// A forward-push parameter was outside its valid range (typed: the
    /// warm path reports it without allocating).
    PushParam(PushParamError),
    /// The underlying graph operation failed.
    Graph(GraphError),
    /// The underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// Serialization or file I/O failed.
    Io(std::io::Error),
    /// Embedding (de)serialization failed.
    Serialization(String),
    /// The run was cancelled through its `EmbedContext` flag.
    Cancelled,
}

impl fmt::Display for NrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NrpError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            NrpError::PushParam(err) => write!(f, "invalid parameter: {err}"),
            NrpError::Graph(err) => write!(f, "graph error: {err}"),
            NrpError::Linalg(err) => write!(f, "linear algebra error: {err}"),
            NrpError::Io(err) => write!(f, "i/o error: {err}"),
            NrpError::Serialization(msg) => write!(f, "serialization error: {msg}"),
            NrpError::Cancelled => write!(f, "embedding run cancelled"),
        }
    }
}

impl std::error::Error for NrpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NrpError::Graph(err) => Some(err),
            NrpError::Linalg(err) => Some(err),
            NrpError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<PushParamError> for NrpError {
    fn from(err: PushParamError) -> Self {
        NrpError::PushParam(err)
    }
}

impl From<GraphError> for NrpError {
    fn from(err: GraphError) -> Self {
        NrpError::Graph(err)
    }
}

impl From<LinalgError> for NrpError {
    fn from(err: LinalgError) -> Self {
        NrpError::Linalg(err)
    }
}

impl From<std::io::Error> for NrpError {
    fn from(err: std::io::Error) -> Self {
        NrpError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let err = NrpError::InvalidParameter("alpha out of range".into());
        assert!(err.to_string().contains("alpha"));
        let err: NrpError = GraphError::EmptyGraph.into();
        assert!(err.to_string().contains("graph"));
        let err: NrpError = LinalgError::InvalidParameter("rank".into()).into();
        assert!(err.to_string().contains("linear algebra"));
    }

    #[test]
    fn sources_are_preserved() {
        let err: NrpError = GraphError::EmptyGraph.into();
        assert!(std::error::Error::source(&err).is_some());
        let err = NrpError::InvalidParameter("x".into());
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn push_param_errors_format_lazily() {
        let err: NrpError = PushParamError::Alpha(1.5).into();
        assert_eq!(
            err.to_string(),
            "invalid parameter: alpha must be in (0,1), got 1.5"
        );
        let err: NrpError = PushParamError::RMax(0.0).into();
        assert!(err.to_string().contains("r_max must be positive"));
        let err: NrpError = PushParamError::SourceOutOfBounds {
            source: 9,
            nodes: 4,
        }
        .into();
        assert_eq!(
            err.to_string(),
            "invalid parameter: source 9 out of bounds for 4 nodes"
        );
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn new_variants_display() {
        assert!(NrpError::Cancelled.to_string().contains("cancelled"));
        assert!(std::error::Error::source(&NrpError::Cancelled).is_none());
    }
}
