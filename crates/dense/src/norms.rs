//! Row norms, diagonals and row-wise argmin.
//!
//! * `diag(K)` gives the squared feature-space norms of the points (`P̃`,
//!   paper §3.3) at zero extra cost.
//! * Row-wise squared norms of the raw data are needed when computing the
//!   Gaussian kernel (paper Eq. 12).
//! * The row-wise argmin of the distance matrix `D` performs the cluster
//!   assignment step (paper Alg. 2 lines 11–13, implemented with RAPIDS
//!   `coalescedReduction` in the original code).

use crate::errors::DenseError;
use crate::fma::dispatch;
use crate::matrix::DenseMatrix;
use crate::parallel::par_map_indexed;
use crate::scalar::Scalar;
use crate::Result;

/// Squared Euclidean norm of every row: `out[i] = Σ_j M[i][j]^2`.
pub fn row_sq_norms<T: Scalar>(m: &DenseMatrix<T>) -> Vec<T> {
    par_map_indexed(m.rows(), |i| {
        let mut acc = T::ZERO;
        for &x in m.row(i) {
            acc = x.mul_add(x, acc);
        }
        acc
    })
}

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

/// Frobenius norm of a matrix, accumulated in `f64`.
pub fn frobenius_norm<T: Scalar>(m: &DenseMatrix<T>) -> f64 {
    m.as_slice()
        .iter()
        .map(|x| x.to_f64() * x.to_f64())
        .sum::<f64>()
        .sqrt()
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

/// Value of the smallest element in each row.
pub fn row_min<T: Scalar>(m: &DenseMatrix<T>) -> Vec<T> {
    par_map_indexed(m.rows(), |i| {
        let mut best = T::INFINITY;
        for &v in m.row(i) {
            if v < best {
                best = v;
            }
        }
        best
    })
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
    fn row_sq_norms_known() {
        let m =
            DenseMatrix::from_rows(&[vec![3.0f64, 4.0], vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
        assert_eq!(row_sq_norms(&m), vec![25.0, 2.0, 0.0]);
    }

    #[test]
    fn diagonal_square_only() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(diagonal(&m).unwrap(), vec![1.0, 4.0]);
        let rect = DenseMatrix::<f64>::zeros(2, 3);
        assert!(diagonal(&rect).is_err());
    }

    #[test]
    fn frobenius_known() {
        let m = DenseMatrix::from_rows(&[vec![3.0f32, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((frobenius_norm(&m) - 5.0).abs() < 1e-12);
        assert_eq!(frobenius_norm(&DenseMatrix::<f64>::zeros(3, 3)), 0.0);
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
    fn row_min_matches_argmin() {
        let m = DenseMatrix::<f64>::from_fn(10, 7, |i, j| ((i * 13 + j * 5) % 17) as f64);
        let mins = row_min(&m);
        let idxs = row_argmin(&m);
        for i in 0..10 {
            assert_eq!(mins[i], m[(i, idxs[i])]);
        }
    }

    #[test]
    fn row_sums_known() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]).unwrap();
        assert_eq!(row_sums(&m), vec![6.0, 0.0]);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = DenseMatrix::<f64>::zeros(0, 0);
        assert!(row_sq_norms(&m).is_empty());
        assert!(row_argmin(&m).is_empty());
        assert!(row_sums(&m).is_empty());
    }
}
