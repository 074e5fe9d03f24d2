//! # popcorn-data
//!
//! Dataset substrate for the Popcorn kernel k-means reproduction.
//!
//! The paper evaluates on six real-world libSVM datasets (Table 2) and on
//! synthetic matrices for the GEMM/SYRK study (Figure 2). Since the exact
//! libSVM files are an external dependency, this crate provides:
//!
//! * [`dataset::Dataset`] — the in-memory container (points + optional labels),
//! * [`synthetic`] — seeded generators for Gaussian blobs, concentric rings
//!   and uniform matrices (the rings are the non-linearly separable workload
//!   that motivates kernel k-means in the first place),
//! * [`libsvm`] / [`csv`] — parsers for the two input formats the original
//!   artifact accepts (`-i` flag), and the check that tells them apart,
//! * [`paper`] — stand-in generators matching the (n, d) of each Table 2
//!   dataset, scalable down for quick runs.

pub mod csv;
pub mod dataset;
pub mod libsvm;
pub mod paper;
pub mod synthetic;

pub use dataset::{Dataset, SparseDataset};
pub use paper::PaperDataset;

/// Errors produced by dataset parsing and generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// The input text could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// An I/O error occurred (message only, to keep the error cloneable).
    Io(String),
    /// Inconsistent dimensions (e.g. ragged rows, label/point count mismatch).
    Shape(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            DataError::Io(msg) => write!(f, "I/O error: {msg}"),
            DataError::Shape(msg) => write!(f, "shape error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e.to_string())
    }
}

/// Result alias used across the data crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DataError::Parse {
            line: 3,
            reason: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = DataError::Io("missing".into());
        assert!(e.to_string().contains("missing"));
        let e = DataError::Shape("ragged".into());
        assert!(e.to_string().contains("ragged"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: DataError = io.into();
        assert!(matches!(e, DataError::Io(_)));
    }
}
