//! Sparse × sparse matrix multiplication (SpGEMM).
//!
//! The paper notes (§3.3) that the centroid norms *could* be obtained by
//! forming `V K Vᵀ` and extracting its diagonal, but that this performs
//! `O(nk)` unnecessary work compared to the `O(n)` SpMV trick. SpGEMM is
//! provided here so the `ablation_centroid_norms` experiment can quantify
//! that trade-off, and because a general sparse substrate is expected to
//! offer it. The implementation is the classic Gustavson row-by-row algorithm
//! with a dense accumulator per output row.

use crate::csr::CsrMatrix;
use crate::errors::SparseError;
use crate::Result;
use popcorn_dense::Scalar;

/// `C = A * B` for CSR operands, returning a CSR result with sorted columns.
///
/// Gustavson's algorithm: for every row `i` of `A`, scatter `A[i][k] * B[k][:]`
/// into a dense accumulator, then gather the touched columns in sorted order.
pub fn spgemm<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            expected: (a.cols(), a.cols()),
            found: (b.rows(), b.rows()),
        });
    }
    let m = a.rows();
    let n = b.cols();
    let mut row_ptrs = Vec::with_capacity(m + 1);
    let mut col_indices = Vec::new();
    let mut values = Vec::new();
    row_ptrs.push(0usize);

    let mut accumulator = vec![T::ZERO; n];
    let mut touched = vec![false; n];
    let mut touched_cols: Vec<usize> = Vec::new();

    for i in 0..m {
        touched_cols.clear();
        let (a_cols, a_vals) = a.row(i);
        for (&k, &a_ik) in a_cols.iter().zip(a_vals.iter()) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals.iter()) {
                if !touched[j] {
                    touched[j] = true;
                    touched_cols.push(j);
                    accumulator[j] = T::ZERO;
                }
                accumulator[j] = a_ik.mul_add(b_kj, accumulator[j]);
            }
        }
        touched_cols.sort_unstable();
        for &j in &touched_cols {
            col_indices.push(j);
            values.push(accumulator[j]);
            touched[j] = false;
        }
        row_ptrs.push(values.len());
    }
    Ok(CsrMatrix::from_raw_unchecked(
        m,
        n,
        row_ptrs,
        col_indices,
        values,
    ))
}

/// Extract the main diagonal of a square CSR matrix.
pub fn csr_diagonal<T: Scalar>(m: &CsrMatrix<T>) -> Result<Vec<T>> {
    if m.rows() != m.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "csr_diagonal",
            expected: (m.rows(), m.rows()),
            found: m.shape(),
        });
    }
    Ok((0..m.rows()).map(|i| m.get(i, i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::{matmul, DenseMatrix};

    fn random_like(rows: usize, cols: usize, seed: usize) -> CsrMatrix<f64> {
        let dense = DenseMatrix::from_fn(rows, cols, |i, j| {
            let h = (i * 31 + j * 17 + seed * 101) % 7;
            if h < 3 {
                (h as f64) - 1.0
            } else {
                0.0
            }
        });
        CsrMatrix::from_dense(&dense)
    }

    #[test]
    fn spgemm_matches_dense_reference() {
        let a = random_like(6, 5, 1);
        let b = random_like(5, 7, 2);
        let c = spgemm(&a, &b).unwrap();
        let reference = matmul(&a.to_dense(), &b.to_dense()).unwrap();
        assert!(c.to_dense().approx_eq(&reference, 1e-12, 1e-12));
    }

    #[test]
    fn spgemm_identity_is_noop() {
        let a = random_like(4, 4, 3);
        let i = CsrMatrix::<f64>::identity(4);
        let c = spgemm(&a, &i).unwrap();
        assert!(c.to_dense().approx_eq(&a.to_dense(), 1e-12, 1e-12));
        let c2 = spgemm(&i, &a).unwrap();
        assert!(c2.to_dense().approx_eq(&a.to_dense(), 1e-12, 1e-12));
    }

    #[test]
    fn spgemm_rejects_bad_shapes() {
        let a = random_like(3, 4, 1);
        let b = random_like(3, 4, 2);
        assert!(spgemm(&a, &b).is_err());
    }

    #[test]
    fn spgemm_with_zero_matrix() {
        let a = CsrMatrix::<f64>::zeros(3, 4);
        let b = random_like(4, 2, 5);
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (3, 2));
    }

    #[test]
    fn spgemm_output_columns_sorted() {
        let a = random_like(8, 8, 7);
        let b = random_like(8, 8, 9);
        let c = spgemm(&a, &b).unwrap();
        for i in 0..c.rows() {
            let (cols, _) = c.row(i);
            for w in cols.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn diagonal_extraction() {
        let m = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[
                vec![1.0, 2.0, 0.0],
                vec![0.0, 0.0, 0.0],
                vec![0.0, 5.0, 9.0],
            ])
            .unwrap(),
        );
        assert_eq!(csr_diagonal(&m).unwrap(), vec![1.0, 0.0, 9.0]);
        let rect = CsrMatrix::<f64>::zeros(2, 3);
        assert!(csr_diagonal(&rect).is_err());
    }

    #[test]
    fn vkvt_diagonal_matches_dense_computation() {
        // The exact product Popcorn avoids: V K Vᵀ — check SpGEMM agrees with
        // the dense computation on the diagonal.
        let k_dense = DenseMatrix::<f64>::from_fn(5, 5, |i, j| 1.0 / (1.0 + (i + j) as f64));
        let v_dense = DenseMatrix::from_rows(&[
            vec![0.5, 0.5, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ])
        .unwrap();
        let v = CsrMatrix::from_dense(&v_dense);
        let k = CsrMatrix::from_dense(&k_dense);
        let vk = spgemm(&v, &k).unwrap();
        let vkvt = spgemm(&vk, &v.transpose()).unwrap();
        let dense_ref = matmul(&matmul(&v_dense, &k_dense).unwrap(), &v_dense.transpose()).unwrap();
        let diag = csr_diagonal(&vkvt).unwrap();
        for i in 0..2 {
            assert!((diag[i] - dense_ref[(i, i)]).abs() < 1e-12);
        }
    }
}
