//! Error types for dense linear algebra operations.

use std::fmt;

/// Errors produced by dense matrix construction and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenseError {
    /// Two operands (or an operand and an output) have incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape expected by the operation, `(rows, cols)`.
        expected: (usize, usize),
        /// Shape actually supplied, `(rows, cols)`.
        found: (usize, usize),
    },
    /// The backing buffer length does not match `rows * cols`.
    BufferSizeMismatch {
        /// Expected buffer length.
        expected: usize,
        /// Supplied buffer length.
        found: usize,
    },
    /// A matrix with zero rows or zero columns was supplied where data is required.
    EmptyMatrix {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// Offending index, `(row, col)`.
        index: (usize, usize),
        /// Matrix shape, `(rows, cols)`.
        shape: (usize, usize),
    },
    /// An operation that requires a square matrix received a rectangular one.
    NotSquare {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Supplied shape.
        shape: (usize, usize),
    },
    /// A buffer cannot be allocated: its size overflows, or the allocator
    /// refused it.
    AllocationFailed {
        /// What the buffer would hold.
        what: &'static str,
        /// The bytes it needs, exact.
        bytes: u128,
    },
}

impl fmt::Display for DenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenseError::DimensionMismatch {
                op,
                expected,
                found,
            } => write!(
                f,
                "{op}: dimension mismatch, expected {}x{} but found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            DenseError::BufferSizeMismatch { expected, found } => write!(
                f,
                "buffer size mismatch: expected {expected} elements, found {found}"
            ),
            DenseError::EmptyMatrix { op } => write!(f, "{op}: matrix has no elements"),
            DenseError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            DenseError::NotSquare { op, shape } => {
                write!(
                    f,
                    "{op}: requires a square matrix, found {}x{}",
                    shape.0, shape.1
                )
            }
            DenseError::AllocationFailed { what, bytes } => {
                write!(
                    f,
                    "cannot allocate {what} on the host: it needs {bytes} bytes"
                )
            }
        }
    }
}

impl std::error::Error for DenseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = DenseError::DimensionMismatch {
            op: "gemm",
            expected: (3, 4),
            found: (2, 4),
        };
        let s = e.to_string();
        assert!(s.contains("gemm"));
        assert!(s.contains("3x4"));
        assert!(s.contains("2x4"));
    }

    #[test]
    fn display_buffer_mismatch() {
        let e = DenseError::BufferSizeMismatch {
            expected: 12,
            found: 10,
        };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn display_empty() {
        let e = DenseError::EmptyMatrix { op: "syrk" };
        assert!(e.to_string().contains("syrk"));
    }

    #[test]
    fn display_out_of_bounds() {
        let e = DenseError::IndexOutOfBounds {
            index: (5, 1),
            shape: (2, 2),
        };
        assert!(e.to_string().contains("(5, 1)"));
    }

    #[test]
    fn display_not_square() {
        let e = DenseError::NotSquare {
            op: "diag",
            shape: (2, 3),
        };
        assert!(e.to_string().contains("diag"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<DenseError>();
    }
}
