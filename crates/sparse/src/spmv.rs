//! Sparse matrix-vector multiplication (SpMV).
//!
//! Popcorn computes the centroid norms `‖c_j‖²` with a single SpMV,
//! `−0.5 · V z` (paper Eq. 14–15 and Alg. 2 line 9), instead of forming the
//! full `V K Vᵀ` product and extracting its diagonal. This module provides
//! the CSR SpMV used for that step.

use crate::csr::CsrMatrix;
use crate::errors::SparseError;
use crate::Result;
use popcorn_dense::fma::dispatch;
use popcorn_dense::Scalar;

/// `y = alpha * A * x` for CSR `A` (m×n) and dense `x` (length n).
///
/// Runs on the calling thread, FMA-dispatched: the distance step's `V z`
/// folds only `n` stored entries, a few thousand FMAs, which cost less than
/// starting the kernel threads would. Each row is its own sequential `fma`
/// fold.
pub fn spmv<T: Scalar>(alpha: T, a: &CsrMatrix<T>, x: &[T]) -> Result<Vec<T>> {
    if x.len() != a.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "spmv",
            expected: (a.cols(), 1),
            found: (x.len(), 1),
        });
    }
    let mut y = Vec::with_capacity(a.rows());
    dispatch(
        #[inline(always)]
        || {
            for i in 0..a.rows() {
                let (cols, vals) = a.row(i);
                let mut acc = T::ZERO;
                for (&j, &v) in cols.iter().zip(vals) {
                    acc = v.mul_add(x[j], acc);
                }
                y.push(alpha * acc);
            }
        },
    );
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::DenseMatrix;

    fn sample() -> CsrMatrix<f64> {
        CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[
                vec![1.0, 0.0, 2.0],
                vec![0.0, 3.0, 0.0],
                vec![4.0, 0.0, 0.0],
                vec![0.0, 0.0, 0.0],
            ])
            .unwrap(),
        )
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = spmv(1.0, &a, &x).unwrap();
        assert_eq!(y, vec![7.0, 6.0, 4.0, 0.0]);
    }

    #[test]
    fn spmv_applies_alpha() {
        let a = sample();
        let x = vec![1.0, 1.0, 1.0];
        let y = spmv(-0.5, &a, &x).unwrap();
        assert_eq!(y, vec![-1.5, -1.5, -2.0, 0.0]);
    }

    #[test]
    fn spmv_rejects_bad_length() {
        let a = sample();
        assert!(spmv(1.0, &a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn spmv_zero_matrix() {
        let a = CsrMatrix::<f64>::zeros(3, 2);
        let y = spmv(1.0, &a, &[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
    }
}
