//! Error types for the graph substrate.

use std::fmt;
use std::io;

/// Errors produced when constructing or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying I/O failure while reading or writing an edge list.
    Io(io::Error),
    /// A line of an edge-list file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line content (truncated).
        content: String,
    },
    /// A node identifier exceeded the dense `u32` node-id space.
    NodeSpaceExhausted,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "I/O error: {e}"),
            GraphError::Parse { line, content } => {
                write!(f, "cannot parse edge-list line {line}: {content:?}")
            }
            GraphError::NodeSpaceExhausted => {
                write!(f, "more than u32::MAX distinct nodes in input")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = GraphError::Parse {
            line: 3,
            content: "a b c".into(),
        };
        assert!(format!("{e}").contains("line 3"));
        let e = GraphError::from(io::Error::new(io::ErrorKind::NotFound, "nope"));
        assert!(format!("{e}").contains("nope"));
    }

    #[test]
    fn io_error_has_source() {
        use std::error::Error;
        let e = GraphError::from(io::Error::other("x"));
        assert!(e.source().is_some());
        let e = GraphError::NodeSpaceExhausted;
        assert!(e.source().is_none());
    }
}
