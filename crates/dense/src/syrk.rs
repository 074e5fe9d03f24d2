//! Symmetric rank-k update (SYRK).
//!
//! Section 4.2 of the paper: when `d` is close to (or larger than) `n`,
//! Popcorn computes `B = P̂ P̂ᵀ` with cuBLAS SYRK, which only fills one
//! triangle and therefore performs roughly half the FLOPs of GEMM. Because
//! cuSPARSE SpMM/SpMV need the full matrix, the explicitly computed triangle
//! is then mirrored into the other half — that copy is exactly the overhead
//! the paper's GEMM/SYRK selection strategy trades off against the saved
//! FLOPs. This module reproduces both the triangular product and the mirror
//! ([`syrk_full`], the Figure 2 product).
//!
//! The host's own kernel matrices need no mirror: [`syrk_packed_with`]
//! writes the lower triangle straight into packed rows
//! ([`crate::PackedSymmetric`]), half the entries of the full matrix, and
//! every consumer reads `(j, i)` from `(i, j)`.

use crate::errors::DenseError;
use crate::matrix::DenseMatrix;
use crate::microkernel::nt_product;
use crate::packed::{packed_offset, par_packed_rows};
use crate::parallel::{num_threads, par_chunks_rows_ranges, triangular_ranges};
use crate::scalar::Scalar;
use crate::Result;
use std::ops::Range;

/// Which triangle of the symmetric output is explicitly computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Triangle {
    /// Fill the lower triangle (including the diagonal).
    #[default]
    Lower,
    /// Fill the upper triangle (including the diagonal).
    Upper,
}

/// FLOPs for a SYRK producing an `n x n` symmetric matrix from an `n x d`
/// operand: roughly half of the corresponding GEMM (`n^2 d` vs `2 n^2 d`),
/// counting the diagonal once. This is the `O(n^2 d / 2)` the paper quotes.
pub fn syrk_flops(n: usize, d: usize) -> u64 {
    // n*(n+1)/2 output entries, each a dot product of length d (mul+add).
    (n as u64 * (n as u64 + 1) / 2) * 2 * d as u64
}

/// `C(tri) = alpha * A * Aᵀ + beta * C(tri)` — only the requested triangle of
/// `C` is written; the other triangle is left untouched.
///
/// `A` is `n x d`, `C` must be `n x n`.
pub fn syrk<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    beta: T,
    c: &mut DenseMatrix<T>,
    triangle: Triangle,
) -> Result<()> {
    syrk_with(alpha, a, beta, c, triangle, |_, _, _| {})
}

/// [`syrk`] with an epilogue fused into the write-back: each run of the
/// triangle's entries, once stored, goes to `epilogue(i, j0, cells)`, where
/// `cells[t]` is entry `(i, j0 + t)` of `C`. With β = 0 every entry of the
/// triangle is written once, `0 + α·acc`, so a fresh `C` is first touched
/// by that write.
pub fn syrk_with<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    beta: T,
    c: &mut DenseMatrix<T>,
    triangle: Triangle,
    epilogue: impl Fn(usize, usize, &mut [T]) + Sync,
) -> Result<()> {
    let n = a.rows();
    if c.shape() != (n, n) {
        return Err(DenseError::DimensionMismatch {
            op: "syrk (output)",
            expected: (n, n),
            found: c.shape(),
        });
    }
    if n == 0 {
        return Ok(());
    }

    // Row i of the lower triangle holds i + 1 cells (the upper n - i), so
    // rows are split by triangular weight into disjoint mutable chunks.
    let ranges = weighted_row_ranges(n, triangle == Triangle::Lower);
    par_chunks_rows_ranges(c.as_mut_slice(), n, &ranges, |start_row, chunk| {
        let rows = start_row..start_row + chunk.len() / n;
        nt_product(
            a,
            rows,
            a,
            Some(triangle),
            #[inline(always)]
            |i, j0, run| {
                let cells = &mut chunk[i * n + j0..][..run.len()];
                // The β test stays out of the entry loop: with it inside, the
                // SYRK of a 4000 × 48 `f32` matrix took 78–88 ms instead of
                // 30–35 ms on a 2-vCPU Xeon.
                if beta == T::ZERO {
                    for (c, &acc) in cells.iter_mut().zip(run) {
                        *c = T::ZERO + alpha * acc;
                    }
                } else {
                    for (c, &acc) in cells.iter_mut().zip(run) {
                        *c = beta * *c + alpha * acc;
                    }
                }
                epilogue(start_row + i, j0, cells);
            },
        );
    });
    Ok(())
}

/// Rows `rows` of the lower triangle of `A·Aᵀ`, packed: the result holds
/// `C[r, 0..=r]` for each `r` in `rows`, back to back (the
/// [`crate::PackedRows`] layout). Every entry is written once as
/// `0 + 1·acc`, the write of [`syrk`] under α = 1, β = 0 and of
/// [`crate::matmul_nt_rows`], into a fresh buffer, then each run goes to
/// `epilogue(i, j0, cells)` as in [`syrk_with`]. Rows split across the
/// kernel threads by their packed length, so each thread writes one
/// contiguous slice.
pub fn syrk_packed_with<T: Scalar>(
    a: &DenseMatrix<T>,
    rows: Range<usize>,
    epilogue: impl Fn(usize, usize, &mut [T]) + Sync,
) -> Result<Vec<T>> {
    if rows.start > rows.end || rows.end > a.rows() {
        return Err(DenseError::IndexOutOfBounds {
            index: (rows.start, rows.end),
            shape: a.shape(),
        });
    }
    let mut out = vec![T::ZERO; packed_offset(rows.end) - packed_offset(rows.start)];
    par_packed_rows(&mut out, rows, |rows, chunk| {
        let first = packed_offset(rows.start);
        nt_product(
            a,
            rows.clone(),
            a,
            Some(Triangle::Lower),
            #[inline(always)]
            |i, j0, run| {
                let r = rows.start + i;
                let cells = &mut chunk[packed_offset(r) - first + j0..][..run.len()];
                for (c, &acc) in cells.iter_mut().zip(run) {
                    *c = T::ZERO + T::ONE * acc;
                }
                epilogue(r, j0, cells);
            },
        );
    });
    Ok(out)
}

/// Copy the explicitly computed triangle into the other half so the matrix is
/// fully stored (the "mirror" step the paper charges against SYRK).
///
/// Each row is cut at its diagonal into its part of the computed triangle,
/// which every thread reads, and its part of the mirrored one, which exactly
/// one thread writes. The destination rows are split across the kernel
/// threads by their copy weight. Each thread copies in square blocks of
/// `MIRROR_BLOCK`: inside a block each destination row segment is written
/// contiguously, and the source column it reads stays cached for the next
/// rows, instead of one cache line (and one page) touched per element down a
/// column of the whole matrix.
pub fn symmetrize_lower<T: Scalar>(c: &mut DenseMatrix<T>, triangle: Triangle) -> Result<()> {
    if !c.is_square() {
        return Err(DenseError::NotSquare {
            op: "symmetrize",
            shape: c.shape(),
        });
    }
    let n = c.rows();
    if n < 2 {
        return Ok(());
    }
    let (src, mut dst): (Vec<&[T]>, Vec<&mut [T]>) = c
        .as_mut_slice()
        .chunks_exact_mut(n)
        .enumerate()
        .map(|(r, row)| match triangle {
            Triangle::Lower => {
                let (computed, mirrored) = row.split_at_mut(r + 1);
                (&*computed, mirrored)
            }
            Triangle::Upper => {
                let (mirrored, computed) = row.split_at_mut(r);
                (&*computed, mirrored)
            }
        })
        .unzip();
    // Destination row r holds n - 1 - r mirrored cells under `Lower` and r
    // under `Upper`.
    let ranges = weighted_row_ranges(n, triangle == Triangle::Upper);
    par_chunks_rows_ranges(&mut dst, 1, &ranges, |first, rows| {
        mirror_rows(&src, first, rows, triangle)
    });
    Ok(())
}

/// One contiguous range of rows per kernel thread, of about equal weight
/// when row `r` of `n` weighs `r + 1` (`heavy_last`) or `n - r`.
fn weighted_row_ranges(n: usize, heavy_last: bool) -> Vec<Range<usize>> {
    let ranges = triangular_ranges(n, num_threads());
    if heavy_last {
        return ranges;
    }
    ranges
        .iter()
        .rev()
        .map(|r| n - r.end..n - r.start)
        .collect()
}

/// Fill the mirrored parts `dst` of rows `first..` from the computed parts
/// `src` of every row. Under `Lower`, `dst[r]` holds columns `r + 1..n` and
/// `src[r]` columns `0..=r`; under `Upper`, `dst[r]` holds `0..r` and
/// `src[r]` holds `r..n`.
fn mirror_rows<T: Scalar>(src: &[&[T]], first: usize, dst: &mut [&mut [T]], triangle: Triangle) {
    let n = src.len();
    for (b, block) in dst.chunks_mut(MIRROR_BLOCK).enumerate() {
        let r0 = first + b * MIRROR_BLOCK;
        for c0 in (0..n).step_by(MIRROR_BLOCK) {
            let c1 = (c0 + MIRROR_BLOCK).min(n);
            for (r, row) in (r0..).zip(block.iter_mut()) {
                match triangle {
                    Triangle::Lower => {
                        let cols = c0.max(r + 1)..c1;
                        if cols.is_empty() {
                            continue;
                        }
                        let cells = &mut row[cols.start - r - 1..cols.end - r - 1];
                        for (cell, col) in cells.iter_mut().zip(cols) {
                            *cell = src[col][r];
                        }
                    }
                    Triangle::Upper => {
                        let cols = c0..c1.min(r);
                        if cols.is_empty() {
                            continue;
                        }
                        for (cell, col) in row[cols.clone()].iter_mut().zip(cols) {
                            *cell = src[col][r - col];
                        }
                    }
                }
            }
        }
    }
}

/// Edge of the square blocks [`symmetrize_lower`] copies. Measured on a
/// 4000 × 4000 `f32` matrix with 4 KiB pages, on one thread: 256 took about
/// 20 ms, 64 about 35 ms, and the unblocked column-order copy about 60 ms.
const MIRROR_BLOCK: usize = 256;

/// Number of bytes moved by the mirror copy for an `n x n` matrix of
/// element size `elem`: the strictly-triangular half is read and written.
pub fn symmetrize_bytes(n: usize, elem: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let tri = n as u64 * (n as u64 - 1) / 2;
    2 * tri * elem as u64
}

/// Convenience wrapper computing the full symmetric product `A Aᵀ` via SYRK +
/// mirror, the exact sequence Popcorn's SYRK-based kernel-matrix algorithm
/// performs.
pub fn syrk_full<T: Scalar>(a: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    let mut c = DenseMatrix::zeros(a.rows(), a.rows());
    syrk(T::ONE, a, T::ZERO, &mut c, Triangle::Lower)?;
    symmetrize_lower(&mut c, Triangle::Lower)?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_nt;

    fn sample(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| {
            ((i * d + j) as f64 * 0.37).sin() + 0.1 * i as f64
        })
    }

    #[test]
    fn syrk_lower_matches_gemm_in_triangle() {
        let a = sample(6, 4);
        let full = matmul_nt(&a, &a).unwrap();
        let mut c = DenseMatrix::zeros(6, 6);
        syrk(1.0, &a, 0.0, &mut c, Triangle::Lower).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                if j <= i {
                    assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-10, "({i},{j})");
                } else {
                    assert_eq!(c[(i, j)], 0.0, "upper triangle must be untouched");
                }
            }
        }
    }

    #[test]
    fn syrk_upper_matches_gemm_in_triangle() {
        let a = sample(5, 3);
        let full = matmul_nt(&a, &a).unwrap();
        let mut c = DenseMatrix::zeros(5, 5);
        syrk(1.0, &a, 0.0, &mut c, Triangle::Upper).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                if j >= i {
                    assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-10);
                } else {
                    assert_eq!(c[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn syrk_full_equals_gemm() {
        let a = sample(9, 5);
        let via_syrk = syrk_full(&a).unwrap();
        let via_gemm = matmul_nt(&a, &a).unwrap();
        assert!(via_syrk.approx_eq(&via_gemm, 1e-10, 1e-10));
    }

    #[test]
    fn syrk_output_is_symmetric() {
        let a = sample(8, 3);
        let c = syrk_full(&a).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
    }

    #[test]
    fn syrk_alpha_beta() {
        let a = sample(4, 2);
        let mut c = DenseMatrix::identity(4);
        // lower triangle: C = 2*A*Aᵀ + 3*C
        syrk(2.0, &a, 3.0, &mut c, Triangle::Lower).unwrap();
        let full = matmul_nt(&a, &a).unwrap();
        for i in 0..4 {
            for j in 0..=i {
                let expected = 2.0 * full[(i, j)] + if i == j { 3.0 } else { 0.0 };
                assert!((c[(i, j)] - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn syrk_rejects_bad_output_shape() {
        let a = sample(3, 2);
        let mut c = DenseMatrix::<f64>::zeros(3, 4);
        assert!(syrk(1.0, &a, 0.0, &mut c, Triangle::Lower).is_err());
    }

    #[test]
    fn symmetrize_requires_square() {
        let mut c = DenseMatrix::<f64>::zeros(2, 3);
        assert!(symmetrize_lower(&mut c, Triangle::Lower).is_err());
    }

    #[test]
    fn symmetrize_upper_source() {
        let mut c = DenseMatrix::<f64>::zeros(3, 3);
        c[(0, 1)] = 5.0;
        c[(0, 2)] = 7.0;
        c[(1, 2)] = 9.0;
        symmetrize_lower(&mut c, Triangle::Upper).unwrap();
        assert_eq!(c[(1, 0)], 5.0);
        assert_eq!(c[(2, 0)], 7.0);
        assert_eq!(c[(2, 1)], 9.0);
    }

    #[test]
    fn flop_and_byte_counts() {
        // n=4, d=3: 10 entries * 2 * 3 = 60 flops
        assert_eq!(syrk_flops(4, 3), 60);
        // 4x4, 6 strictly-lower entries, read+write 4-byte floats
        assert_eq!(symmetrize_bytes(4, 4), 48);
        assert_eq!(symmetrize_bytes(0, 4), 0);
        assert_eq!(symmetrize_bytes(1, 4), 0);
    }

    #[test]
    fn syrk_empty_matrix() {
        let a = DenseMatrix::<f64>::zeros(0, 0);
        let mut c = DenseMatrix::<f64>::zeros(0, 0);
        assert!(syrk(1.0, &a, 0.0, &mut c, Triangle::Lower).is_ok());
    }

    #[test]
    fn packed_rows_are_the_lower_triangle_of_the_mirrored_product() {
        let a = sample(37, 9);
        let full = syrk_full(&a).unwrap();
        for rows in [0..37, 0..1, 5..6, 11..30, 36..37, 4..4] {
            let packed = syrk_packed_with(&a, rows.clone(), |_, _, _| {}).unwrap();
            let want: Vec<u64> = rows
                .clone()
                .flat_map(|i| full.row(i)[..=i].to_vec())
                .map(f64::to_bits)
                .collect();
            let got: Vec<u64> = packed.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "rows {rows:?}");
        }
        assert!(syrk_packed_with(&a, 3..38, |_, _, _| {}).is_err());
    }

    #[test]
    fn syrk_larger_matches_gemm() {
        let a = sample(120, 17);
        let via_syrk = syrk_full(&a).unwrap();
        let via_gemm = matmul_nt(&a, &a).unwrap();
        assert!(via_syrk.approx_eq(&via_gemm, 1e-9, 1e-9));
    }
}
