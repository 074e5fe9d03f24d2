//! General matrix-matrix multiplication (GEMM).
//!
//! The paper computes `B = P̂ P̂ᵀ` with cuBLAS GEMM when `n/d` is large
//! (Section 4.2) and uses the same routine inside the dense "CUDA baseline".
//! This module provides the host equivalent: a blocked, multi-threaded
//! `C = α · op(A) · op(B) + β · C` with independent transpose flags, plus the
//! convenience wrappers used by the higher layers (`matmul`, `matmul_nt`,
//! `matmul_tn`).

use crate::errors::DenseError;
use crate::fma::dispatch;
use crate::matrix::DenseMatrix;
use crate::microkernel::nt_product;
use crate::parallel::par_chunks_rows;
use crate::scalar::Scalar;
use crate::Result;

/// Whether an operand participates in the product as itself or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transpose {
    /// Use the operand as stored.
    #[default]
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Transpose {
    /// Shape of `op(M)` for a matrix of shape `(rows, cols)`.
    pub fn apply_shape(self, shape: (usize, usize)) -> (usize, usize) {
        match self {
            Transpose::No => shape,
            Transpose::Yes => (shape.1, shape.0),
        }
    }
}

/// Cache-blocking tile edge (in elements) for the inner GEMM loops.
///
/// Chosen so a `TILE x TILE` f64 tile of each operand fits comfortably in L1;
/// the exact value only affects performance, never results.
const TILE: usize = 64;

/// Number of floating point operations performed by a GEMM of the given shape.
///
/// Matches the conventional `2 * m * n * k` count used by the paper when it
/// reports GFLOPS.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes must satisfy `op(A): m x k`, `op(B): k x n`, `C: m x n`.
/// Rows of `C` are distributed across worker threads. The `A · Bᵀ` case runs
/// the register-blocked [`nt_product`] microkernel (dot products over
/// contiguous rows); otherwise a `TILE`-blocked `i-k-j` ordering keeps the
/// innermost loop streaming contiguous memory. Both run through the FMA
/// [`dispatch`].
pub fn gemm<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    op_b: Transpose,
    beta: T,
    c: &mut DenseMatrix<T>,
) -> Result<()> {
    let (m, ka) = op_a.apply_shape(a.shape());
    let (kb, n) = op_b.apply_shape(b.shape());
    if ka != kb {
        return Err(DenseError::DimensionMismatch {
            op: "gemm (inner dimension)",
            expected: (ka, ka),
            found: (kb, kb),
        });
    }
    if c.shape() != (m, n) {
        return Err(DenseError::DimensionMismatch {
            op: "gemm (output)",
            expected: (m, n),
            found: c.shape(),
        });
    }
    if m == 0 || n == 0 {
        return Ok(());
    }

    // Scale C by beta first; the accumulation below is purely additive.
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else if beta != T::ONE {
        c.scale(beta);
    }
    if ka == 0 || alpha == T::ZERO {
        return Ok(());
    }

    // Materialise transposed operands into the layout the inner loops want:
    //   A-side: row-major m x k (row i of `op(A)` contiguous)
    //   B-side: if op(B) == Yes the rows of `b` already are columns of op(B),
    //           i.e. op(B) is "k contiguous per output column", which is the
    //           dot-product friendly layout. If op(B) == No we keep B as
    //           stored and use the i-k-j ordering instead.
    let a_eff: std::borrow::Cow<'_, DenseMatrix<T>> = match op_a {
        Transpose::No => std::borrow::Cow::Borrowed(a),
        Transpose::Yes => std::borrow::Cow::Owned(a.transpose()),
    };

    match op_b {
        Transpose::Yes => {
            // C[i][j] += alpha * dot(Aeff.row(i), B.row(j))
            let a_ref = a_eff.as_ref();
            par_chunks_rows(c.as_mut_slice(), n, |start_row, chunk| {
                let rows = start_row..start_row + chunk.len() / n;
                nt_product(a_ref, rows, b, None, |i, j0, run| {
                    let cells = &mut chunk[i * n + j0..][..run.len()];
                    for (c, &acc) in cells.iter_mut().zip(run) {
                        *c += alpha * acc;
                    }
                });
            });
        }
        Transpose::No => {
            // C[i][:] += alpha * sum_k Aeff[i][k] * B[k][:]
            let a_ref = a_eff.as_ref();
            let b_ref = b;
            par_chunks_rows(c.as_mut_slice(), n, |start_row, chunk| {
                dispatch(
                    #[inline(always)]
                    || {
                        for (local_i, c_row) in chunk.chunks_exact_mut(n).enumerate() {
                            let i = start_row + local_i;
                            let a_row = a_ref.row(i);
                            for k0 in (0..ka).step_by(TILE) {
                                let k_end = (k0 + TILE).min(ka);
                                for (k, &a_ik) in a_row.iter().enumerate().take(k_end).skip(k0) {
                                    let aik = alpha * a_ik;
                                    if aik == T::ZERO {
                                        continue;
                                    }
                                    let b_row = b_ref.row(k);
                                    for (c_ij, b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                                        *c_ij = aik.mul_add(*b_kj, *c_ij);
                                    }
                                }
                            }
                        }
                    },
                )
            });
        }
    }
    Ok(())
}

/// Convenience wrapper: `A * B` as a freshly allocated matrix.
pub fn matmul<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    gemm(T::ONE, a, Transpose::No, b, Transpose::No, T::ZERO, &mut c)?;
    Ok(c)
}

/// Convenience wrapper: `A * Bᵀ` as a freshly allocated matrix.
///
/// This is the shape used for the kernel matrix `B = P̂ P̂ᵀ` (paper §3.2) and
/// the distances product `P Cᵀ` (paper Eq. 5).
///
/// Every entry is written once, as `0 + 1·acc`, from the parallel row
/// split ([`matmul_nt_rows`] over all rows of `A`): the same bits as
/// [`gemm`] with `β = 0`, without its serial fill of the fresh output.
pub fn matmul_nt<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    matmul_nt_rows(a, 0, a.rows(), b)
}

/// Convenience wrapper: `Aᵀ * B` as a freshly allocated matrix.
pub fn matmul_tn<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    let mut c = DenseMatrix::zeros(a.cols(), b.cols());
    gemm(T::ONE, a, Transpose::Yes, b, Transpose::No, T::ZERO, &mut c)?;
    Ok(c)
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

/// Naive triple-loop reference GEMM used by tests and property checks.
pub fn gemm_reference<T: Scalar>(
    a: &DenseMatrix<T>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    op_b: Transpose,
) -> Result<DenseMatrix<T>> {
    let (m, ka) = op_a.apply_shape(a.shape());
    let (kb, n) = op_b.apply_shape(b.shape());
    if ka != kb {
        return Err(DenseError::DimensionMismatch {
            op: "gemm_reference",
            expected: (ka, ka),
            found: (kb, kb),
        });
    }
    let at = |i: usize, k: usize| match op_a {
        Transpose::No => a[(i, k)],
        Transpose::Yes => a[(k, i)],
    };
    let bt = |k: usize, j: usize| match op_b {
        Transpose::No => b[(k, j)],
        Transpose::Yes => b[(j, k)],
    };
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for k in 0..ka {
                acc += at(i, k) * bt(k, j);
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
    fn transpose_shape_helper() {
        assert_eq!(Transpose::No.apply_shape((2, 5)), (2, 5));
        assert_eq!(Transpose::Yes.apply_shape((2, 5)), (5, 2));
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
    fn matmul_tn_matches_explicit_transpose() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = mat(&[&[1.0, 1.0], &[2.0, 0.0], &[3.0, -1.0]]);
        let fast = matmul_tn(&a, &b).unwrap();
        let slow = matmul(&a.transpose(), &b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12, 1e-12));
    }

    #[test]
    fn gemm_alpha_beta_accumulation() {
        let a = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let b = mat(&[&[2.0, 3.0], &[4.0, 5.0]]);
        let mut c = mat(&[&[1.0, 1.0], &[1.0, 1.0]]);
        // C = 2*A*B + 3*C
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 3.0, &mut c).unwrap();
        assert_eq!(c.as_slice(), &[7.0, 9.0, 11.0, 13.0]);
    }

    #[test]
    fn gemm_beta_zero_overwrites_garbage() {
        let a = mat(&[&[1.0, 2.0]]);
        let b = mat(&[&[3.0], &[4.0]]);
        // Both the i-k-j path and the A·Bᵀ path.
        for (b, op_b) in [(b.clone(), Transpose::No), (b.transpose(), Transpose::Yes)] {
            let mut c = DenseMatrix::filled(1, 1, f64::NAN);
            gemm(1.0, &a, Transpose::No, &b, op_b, 0.0, &mut c).unwrap();
            assert_eq!(c[(0, 0)], 11.0);
        }
    }

    #[test]
    fn gemm_alpha_zero_only_scales_c() {
        let a = mat(&[&[1.0, 2.0]]);
        let b = mat(&[&[3.0], &[4.0]]);
        let mut c = DenseMatrix::filled(1, 1, 5.0);
        gemm(0.0, &a, Transpose::No, &b, Transpose::No, 2.0, &mut c).unwrap();
        assert_eq!(c[(0, 0)], 10.0);
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        let b = DenseMatrix::<f64>::zeros(4, 2);
        let mut c = DenseMatrix::<f64>::zeros(2, 2);
        assert!(gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c).is_err());
        let b_ok = DenseMatrix::<f64>::zeros(3, 5);
        let mut c_bad = DenseMatrix::<f64>::zeros(2, 2);
        assert!(gemm(
            1.0,
            &a,
            Transpose::No,
            &b_ok,
            Transpose::No,
            0.0,
            &mut c_bad
        )
        .is_err());
    }

    #[test]
    fn gemm_all_transpose_combinations_match_reference() {
        let a = DenseMatrix::<f64>::from_fn(5, 7, |i, j| ((i * 7 + j) as f64).sin());
        let b = DenseMatrix::<f64>::from_fn(7, 4, |i, j| ((i + 2 * j) as f64).cos());
        for (op_a, a_arg) in [(Transpose::No, a.clone()), (Transpose::Yes, a.transpose())] {
            for (op_b, b_arg) in [(Transpose::No, b.clone()), (Transpose::Yes, b.transpose())] {
                let reference = gemm_reference(&a_arg, op_a, &b_arg, op_b).unwrap();
                let mut c = DenseMatrix::zeros(5, 4);
                gemm(1.0, &a_arg, op_a, &b_arg, op_b, 0.0, &mut c).unwrap();
                assert!(
                    c.approx_eq(&reference, 1e-10, 1e-10),
                    "mismatch for ops {op_a:?} {op_b:?}"
                );
            }
        }
    }

    #[test]
    fn gemm_larger_than_tile_matches_reference() {
        let n = TILE + 17;
        let a = DenseMatrix::<f64>::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = DenseMatrix::<f64>::from_fn(n, n, |i, j| ((i + j * 3) % 11) as f64 - 5.0);
        let fast = matmul(&a, &b).unwrap();
        let slow = gemm_reference(&a, Transpose::No, &b, Transpose::No).unwrap();
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
        let mut c = DenseMatrix::filled(3, 2, 1.0);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 1.0, &mut c).unwrap();
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn gemm_f32_path() {
        let a = DenseMatrix::<f32>::from_fn(3, 3, |i, j| (i + j) as f32);
        let b = DenseMatrix::<f32>::identity(3);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&a, 1e-6, 1e-6));
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
