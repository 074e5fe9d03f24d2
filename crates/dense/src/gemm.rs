//! General matrix-matrix multiplication (GEMM).
//!
//! The paper computes `B = P̂ P̂ᵀ` with cuBLAS GEMM when `n/d` is large
//! (Section 4.2) and uses the same routine inside the dense "CUDA baseline".
//! This module provides the host products the higher layers run: `A · Bᵀ`
//! through the packed [`nt_product`] microkernel (`matmul_nt`,
//! `matmul_nt_rows`, `matmul_nt_rows_with`), and `A · B` (`matmul`), which
//! builds the Nyström factors and serves projections onto them.

use crate::errors::DenseError;
use crate::fma::dispatch;
use crate::matrix::DenseMatrix;
use crate::microkernel::nt_product;
use crate::parallel::par_chunks_rows;
use crate::scalar::Scalar;
use crate::Result;

/// Cache-blocking tile edge (in elements) for the inner [`matmul`] loops.
///
/// Chosen so a `TILE x TILE` f64 tile of each operand fits comfortably in L1;
/// the exact value only affects performance, never results.
const TILE: usize = 64;

/// `A * B` as a freshly allocated matrix.
///
/// Rows of the output are distributed across worker threads. A
/// `TILE`-blocked `i-k-j` ordering keeps the innermost loop streaming
/// contiguous rows of `B`, and a zero `A[i, k]` is skipped. Runs through
/// the FMA [`dispatch`].
pub fn matmul<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(DenseError::DimensionMismatch {
            op: "matmul (inner dimension)",
            expected: (ka, ka),
            found: (kb, kb),
        });
    }
    let mut c = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 || ka == 0 {
        return Ok(c);
    }
    // C[i][:] += sum_k A[i][k] * B[k][:]
    par_chunks_rows(c.as_mut_slice(), n, |start_row, chunk| {
        dispatch(
            #[inline(always)]
            || {
                for (local_i, c_row) in chunk.chunks_exact_mut(n).enumerate() {
                    let a_row = a.row(start_row + local_i);
                    for k0 in (0..ka).step_by(TILE) {
                        let k_end = (k0 + TILE).min(ka);
                        for (k, &a_ik) in a_row.iter().enumerate().take(k_end).skip(k0) {
                            if a_ik == T::ZERO {
                                continue;
                            }
                            let b_row = b.row(k);
                            for (c_ij, b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                                *c_ij = a_ik.mul_add(*b_kj, *c_ij);
                            }
                        }
                    }
                }
            },
        )
    });
    Ok(c)
}

/// Convenience wrapper: `A * Bᵀ` as a freshly allocated matrix.
///
/// This is the shape used for the kernel matrix `B = P̂ P̂ᵀ` (paper §3.2) and
/// the distances product `P Cᵀ` (paper Eq. 5).
///
/// Every entry is written once, as `0 + 1·acc`, from the parallel row
/// split ([`matmul_nt_rows`] over all rows of `A`).
pub fn matmul_nt<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    matmul_nt_rows(a, 0, a.rows(), b)
}

/// Rows `r0..r1` of `A * Bᵀ` without materializing the row panel of `A` —
/// the compute kernel of the streaming (tiled) Gram path, where copying the
/// panel operand once per tile per iteration would be pure waste.
///
/// Each output entry is the same sequential `mul_add` dot product the full
/// [`matmul_nt`] computes (the same [`nt_product`] microkernel, the same
/// `0 + 1·acc` write), so the panel is **bit-identical** to the matching
/// rows of the full product.
pub fn matmul_nt_rows<T: Scalar>(
    a: &DenseMatrix<T>,
    r0: usize,
    r1: usize,
    b: &DenseMatrix<T>,
) -> Result<DenseMatrix<T>> {
    matmul_nt_rows_with(a, r0, r1, b, |_, _, _| {})
}

/// [`matmul_nt_rows`] with an epilogue fused into the write-back: each run
/// of entries is stored once as `0 + 1·acc` into the fresh output, then
/// handed to `epilogue(i, j0, cells)` while it is in registers and cache,
/// where `cells[t]` is entry `(i, j0 + t)` and `i` is the row of `A`. A
/// product whose entries are mapped (the kernel matrix, paper §4.2) thus
/// writes each entry once, already mapped, instead of making a second pass.
pub fn matmul_nt_rows_with<T: Scalar>(
    a: &DenseMatrix<T>,
    r0: usize,
    r1: usize,
    b: &DenseMatrix<T>,
    epilogue: impl Fn(usize, usize, &mut [T]) + Sync,
) -> Result<DenseMatrix<T>> {
    if a.cols() != b.cols() {
        return Err(DenseError::DimensionMismatch {
            op: "matmul_nt_rows (inner dimension)",
            expected: (a.cols(), a.cols()),
            found: (b.cols(), b.cols()),
        });
    }
    if r0 > r1 || r1 > a.rows() {
        return Err(DenseError::IndexOutOfBounds {
            index: (r0, r1),
            shape: a.shape(),
        });
    }
    let n = b.rows();
    let mut c = DenseMatrix::zeros(r1 - r0, n);
    if r0 == r1 || n == 0 {
        return Ok(c);
    }
    par_chunks_rows(c.as_mut_slice(), n, |start_row, chunk| {
        let rows = r0 + start_row..r0 + start_row + chunk.len() / n;
        nt_product(
            a,
            rows,
            b,
            None,
            #[inline(always)]
            |i, j0, run| {
                let cells = &mut chunk[i * n + j0..][..run.len()];
                for (c, &acc) in cells.iter_mut().zip(run) {
                    *c = T::ZERO + T::ONE * acc;
                }
                epilogue(r0 + start_row + i, j0, cells);
            },
        );
    });
    Ok(c)
}

/// Naive triple-loop reference `A * B` used by tests and property checks.
pub fn gemm_reference<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(DenseError::DimensionMismatch {
            op: "gemm_reference",
            expected: (ka, ka),
            found: (kb, kb),
        });
    }
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for k in 0..ka {
                acc += a[(i, k)] * b[(k, j)];
            }
            c[(i, j)] = acc;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn matmul_small_known_result() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = DenseMatrix::identity(3);
        assert!(matmul(&a, &i3).unwrap().approx_eq(&a, 1e-12, 1e-12));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = mat(&[&[1.0, 0.0, -1.0], &[2.0, 2.0, 2.0], &[0.5, 1.0, 1.5]]);
        let fast = matmul_nt(&a, &b).unwrap();
        let slow = matmul(&a, &b.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12, 1e-12));
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        let b = DenseMatrix::<f64>::zeros(4, 2);
        assert!(matmul(&a, &b).is_err());
        assert!(gemm_reference(&a, &b).is_err());
    }

    #[test]
    fn gemm_larger_than_tile_matches_reference() {
        let n = TILE + 17;
        let a = DenseMatrix::<f64>::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = DenseMatrix::<f64>::from_fn(n, n, |i, j| ((i + j * 3) % 11) as f64 - 5.0);
        let fast = matmul(&a, &b).unwrap();
        let slow = gemm_reference(&a, &b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-9, 1e-9));
    }

    #[test]
    fn matmul_nt_rows_is_bit_identical_to_full_product_rows() {
        let n = TILE + 9; // cross the TILE boundary
        let a = DenseMatrix::<f64>::from_fn(n, 7, |i, j| ((i * 7 + j) as f64 * 0.13).sin());
        let full = matmul_nt(&a, &a).unwrap();
        for (r0, r1) in [(0, n), (0, 1), (3, 17), (TILE, n), (5, 5)] {
            let panel = matmul_nt_rows(&a, r0, r1, &a).unwrap();
            assert_eq!(panel.shape(), (r1 - r0, n));
            for i in r0..r1 {
                for j in 0..n {
                    assert_eq!(
                        panel[(i - r0, j)].to_bits(),
                        full[(i, j)].to_bits(),
                        "panel {r0}..{r1} entry ({i},{j})"
                    );
                }
            }
        }
        assert!(matmul_nt_rows(&a, 3, 2, &a).is_err());
        assert!(matmul_nt_rows(&a, 0, n + 1, &a).is_err());
        let bad = DenseMatrix::<f64>::zeros(4, 9);
        assert!(matmul_nt_rows(&a, 0, 1, &bad).is_err());
    }

    #[test]
    fn gemm_empty_inner_dimension() {
        let a = DenseMatrix::<f64>::zeros(3, 0);
        let b = DenseMatrix::<f64>::zeros(0, 2);
        assert_eq!(matmul(&a, &b).unwrap(), DenseMatrix::zeros(3, 2));
    }

    #[test]
    fn gemm_f32_path() {
        let a = DenseMatrix::<f32>::from_fn(3, 3, |i, j| (i + j) as f32);
        let b = DenseMatrix::<f32>::identity(3);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&a, 1e-6, 1e-6));
    }
}
