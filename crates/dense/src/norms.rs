//! Diagonals, row sums and row-wise argmin.
//!
//! * `diag(K)` gives the squared feature-space norms of the points (`P̃`,
//!   paper §3.3) at zero extra cost.
//! * The row-wise argmin of the distance matrix `D` performs the cluster
//!   assignment step (paper Alg. 2 lines 11–13, implemented with RAPIDS
//!   `coalescedReduction` in the original code).

use crate::errors::DenseError;
use crate::fma::dispatch;
use crate::matrix::DenseMatrix;
use crate::parallel::par_map_indexed;
use crate::scalar::Scalar;
use crate::Result;

/// Extract the main diagonal of a square matrix.
pub fn diagonal<T: Scalar>(m: &DenseMatrix<T>) -> Result<Vec<T>> {
    if !m.is_square() {
        return Err(DenseError::NotSquare {
            op: "diagonal",
            shape: m.shape(),
        });
    }
    Ok((0..m.rows()).map(|i| m[(i, i)]).collect())
}

/// Index of the smallest element in each row (ties broken towards the lower
/// index, matching a sequential scan). Non-finite entries lose against any
/// finite entry.
pub fn row_argmin<T: Scalar>(m: &DenseMatrix<T>) -> Vec<usize> {
    let mut out = Vec::new();
    row_argmin_into(m, &mut out);
    out
}

/// [`row_argmin`] into a caller-provided buffer (cleared and resized), so hot
/// loops reuse one allocation across iterations. Identical per-row scan —
/// same ties, same non-finite handling.
///
/// Runs on the calling thread, FMA-dispatched: the assignment step scans
/// an `n × k` distance matrix, a few thousand short rows, which cost less
/// than starting the kernel threads would.
pub fn row_argmin_into<T: Scalar>(m: &DenseMatrix<T>, out: &mut Vec<usize>) {
    out.clear();
    out.reserve(m.rows());
    dispatch(
        #[inline(always)]
        || {
            for i in 0..m.rows() {
                let mut best = 0usize;
                let mut best_val = T::INFINITY;
                for (j, &v) in m.row(i).iter().enumerate() {
                    if v < best_val {
                        best_val = v;
                        best = j;
                    }
                }
                out.push(best);
            }
        },
    );
}

/// Sum of every row: `out[i] = Σ_j M[i][j]`.
pub fn row_sums<T: Scalar>(m: &DenseMatrix<T>) -> Vec<T> {
    par_map_indexed(m.rows(), |i| {
        let mut acc = T::ZERO;
        for &x in m.row(i) {
            acc += x;
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_square_only() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(diagonal(&m).unwrap(), vec![1.0, 4.0]);
        let rect = DenseMatrix::<f64>::zeros(2, 3);
        assert!(diagonal(&rect).is_err());
    }

    #[test]
    fn argmin_basic_and_ties() {
        let m = DenseMatrix::from_rows(&[
            vec![3.0f64, 1.0, 2.0],
            vec![5.0, 5.0, 5.0],
            vec![-1.0, 0.0, -1.0],
        ])
        .unwrap();
        assert_eq!(row_argmin(&m), vec![1, 0, 0]);
    }

    #[test]
    fn argmin_with_infinities() {
        let m =
            DenseMatrix::from_rows(&[vec![f64::INFINITY, 2.0], vec![1.0, f64::INFINITY]]).unwrap();
        assert_eq!(row_argmin(&m), vec![1, 0]);
    }

    #[test]
    fn argmin_all_nan_falls_back_to_zero() {
        let m = DenseMatrix::from_rows(&[vec![f64::NAN, f64::NAN]]).unwrap();
        assert_eq!(row_argmin(&m), vec![0]);
    }

    #[test]
    fn row_sums_known() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]).unwrap();
        assert_eq!(row_sums(&m), vec![6.0, 0.0]);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = DenseMatrix::<f64>::zeros(0, 0);
        assert!(row_argmin(&m).is_empty());
        assert!(row_sums(&m).is_empty());
    }
}
