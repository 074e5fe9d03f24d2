//! Error types for sparse matrix construction and kernels.

use std::fmt;

/// Errors produced by sparse matrix construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Expected shape, `(rows, cols)`.
        expected: (usize, usize),
        /// Found shape, `(rows, cols)`.
        found: (usize, usize),
    },
    /// CSR structural arrays are inconsistent (lengths, monotonicity, bounds).
    InvalidStructure {
        /// Description of the structural violation.
        reason: String,
    },
    /// A column (or row) index is out of bounds for the declared shape.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// A cluster assignment referenced a cluster id `>= k`.
    InvalidAssignment {
        /// Position of the offending assignment.
        point: usize,
        /// The offending cluster label.
        label: usize,
        /// Number of clusters.
        k: usize,
    },
    /// The operation requires at least one cluster / row / point.
    Empty {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch {
                op,
                expected,
                found,
            } => write!(
                f,
                "{op}: dimension mismatch, expected {}x{} but found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SparseError::InvalidStructure { reason } => {
                write!(f, "invalid sparse structure: {reason}")
            }
            SparseError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (must be < {bound})")
            }
            SparseError::InvalidAssignment { point, label, k } => {
                write!(f, "point {point} assigned to cluster {label}, but k = {k}")
            }
            SparseError::Empty { op } => write!(f, "{op}: empty input"),
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SparseError::DimensionMismatch {
            op: "spmm",
            expected: (2, 3),
            found: (4, 5),
        };
        assert!(e.to_string().contains("spmm"));
        let e = SparseError::InvalidStructure {
            reason: "rowptr not monotone".into(),
        };
        assert!(e.to_string().contains("monotone"));
        let e = SparseError::IndexOutOfBounds { index: 9, bound: 5 };
        assert!(e.to_string().contains('9'));
        let e = SparseError::InvalidAssignment {
            point: 3,
            label: 7,
            k: 4,
        };
        assert!(e.to_string().contains("cluster 7"));
        let e = SparseError::Empty { op: "selection" };
        assert!(e.to_string().contains("selection"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<SparseError>();
    }
}
