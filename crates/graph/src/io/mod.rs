//! Graph (de)serialization: plain edge lists and DIMACS, read into and
//! written from an in-memory [`WeightedGraph`](crate::WeightedGraph).

mod dimacs;
mod edgelist;

pub use dimacs::{read_dimacs, write_dimacs};
pub use edgelist::{read_edge_list, write_edge_list};

use std::fmt;

/// Errors raised by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content with a line number and message.
    Parse {
        /// 1-based line number of the defect (0 when unknown).
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

pub(crate) fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}
