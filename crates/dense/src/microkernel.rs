//! The packed, register-blocked `A·Bᵀ` microkernel shared by every dense
//! product whose operands both store the reduction dimension contiguously:
//! the `A·Bᵀ` branch of [`gemm`](crate::gemm()), [`matmul_nt_rows`](crate::matmul_nt_rows),
//! [`syrk`](crate::syrk()) and the serve-time cross Gram.
//!
//! The design is the packed microkernel of Goto & van de Geijn ("Anatomy of
//! High-Performance Matrix Multiplication", ACM TOMS 2008), with the one
//! restriction bit-identity imposes: blocking and vectorization run across
//! *output entries*, never across the reduction. Every entry is still
//! `acc = fma(a_ik, b_jk, acc)` over ascending `k` from `acc = 0`, the
//! sequential dot product the callers always computed, so no result depends
//! on the block sizes, the thread count or the FMA dispatch.
//!
//! `NR` rows of `B` are packed `k`-major into one panel, so the `NR` values
//! of step `k` sit side by side. An `MR × NR` block of the output then keeps
//! its accumulators in registers and advances a whole row of them with one
//! vector FMA per step. The only scratch is that one panel, `NR · d`
//! elements per call.

use crate::fma;
use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;
use crate::syrk::Triangle;
use std::ops::Range;

/// Rows of the register block. With `NR` columns filling two 256-bit
/// vectors, a block holds 12 vector accumulators, leaving room in the 16
/// AVX2 registers for the two panel loads and the broadcast `a_ik`.
const MR: usize = 6;

/// `A[a_rows, :] · Bᵀ`, restricted to one triangle when `triangle` is set.
///
/// Calls `write(i, j, acc)` once for every output entry, where `i` counts
/// from `a_rows.start` and `j` indexes the rows of `B`. `Triangle::Lower`
/// keeps the entries with `j ≤ a_rows.start + i` (the row of `A` in the full
/// matrix), `Triangle::Upper` those with `j ≥` it. Each caller keeps its own
/// final write (`c += α·acc`, `prev + α·acc`, ...) in `write`.
///
/// `a` and `b` must have the same number of columns.
pub fn nt_product<T: Scalar>(
    a: &DenseMatrix<T>,
    a_rows: Range<usize>,
    b: &DenseMatrix<T>,
    triangle: Option<Triangle>,
    mut write: impl FnMut(usize, usize, T),
) {
    fma::dispatch(
        #[inline(always)]
        || nt_product_generic(a, a_rows, b, triangle, &mut write),
    )
}

/// [`nt_product`] without the dispatch: the generic body both paths share.
#[inline(always)]
fn nt_product_generic<T: Scalar>(
    a: &DenseMatrix<T>,
    a_rows: Range<usize>,
    b: &DenseMatrix<T>,
    triangle: Option<Triangle>,
    write: &mut impl FnMut(usize, usize, T),
) {
    assert_eq!(a.cols(), b.cols(), "A·Bᵀ needs equal inner dimensions");
    if a_rows.is_empty() || b.rows() == 0 {
        return;
    }
    // Two 256-bit vectors of accumulators per block row.
    if std::mem::size_of::<T>() == 4 {
        blocked::<T, 16>(a, a_rows, b, triangle, write)
    } else {
        blocked::<T, 8>(a, a_rows, b, triangle, write)
    }
}

#[inline(always)]
fn blocked<T: Scalar, const NR: usize>(
    a: &DenseMatrix<T>,
    a_rows: Range<usize>,
    b: &DenseMatrix<T>,
    triangle: Option<Triangle>,
    write: &mut impl FnMut(usize, usize, T),
) {
    let mut panel = vec![T::ZERO; NR * a.cols()];
    if a_rows.len() < MR && triangle.is_none() {
        // Too few rows of A to pay for packing B: a one-row lookup would
        // copy all of B per request. Pack the A rows instead and stream B
        // through the block's row side. The exact product commutes, so
        // fma(b_jk, a_ik, acc) rounds exactly as fma(a_ik, b_jk, acc).
        pack::<T, NR>(&mut panel, a, a_rows.clone());
        for j0 in (0..b.rows()).step_by(MR) {
            let j1 = (j0 + MR).min(b.rows());
            let acc = block::<T, NR>(b, j0..j1, &panel);
            for (j, sums) in (j0..j1).zip(&acc) {
                for (i, &sum) in sums[..a_rows.len()].iter().enumerate() {
                    write(i, j, sum);
                }
            }
        }
        return;
    }
    let (lo, hi) = match triangle {
        None => (0, b.rows()),
        Some(Triangle::Lower) => (0, a_rows.end.min(b.rows())),
        Some(Triangle::Upper) => (a_rows.start, b.rows()),
    };
    for j0 in (lo..hi).step_by(NR) {
        let j1 = (j0 + NR).min(hi);
        pack::<T, NR>(&mut panel, b, j0..j1);
        for i0 in a_rows.clone().step_by(MR) {
            let i1 = (i0 + MR).min(a_rows.end);
            let outside = match triangle {
                None => false,
                Some(Triangle::Lower) => j0 >= i1,
                Some(Triangle::Upper) => j1 <= i0,
            };
            if outside {
                continue;
            }
            let acc = block::<T, NR>(a, i0..i1, &panel);
            for (i, sums) in (i0..i1).zip(&acc) {
                let cols = match triangle {
                    None => j0..j1,
                    Some(Triangle::Lower) => j0..j1.min(i + 1),
                    Some(Triangle::Upper) => j0.max(i)..j1,
                };
                for j in cols {
                    write(i - a_rows.start, j, sums[j - j0]);
                }
            }
        }
    }
}

/// Pack `m[rows, :]` (at most `NR` rows) `k`-major into `panel`:
/// `panel[k·NR + r] = m[rows.start + r, k]`, zero past the last row.
#[inline(always)]
fn pack<T: Scalar, const NR: usize>(panel: &mut [T], m: &DenseMatrix<T>, rows: Range<usize>) {
    debug_assert!(rows.len() <= NR);
    for (k, dst) in panel.chunks_exact_mut(NR).enumerate() {
        for (r, slot) in dst.iter_mut().enumerate() {
            *slot = if r < rows.len() {
                m[(rows.start + r, k)]
            } else {
                T::ZERO
            };
        }
    }
}

/// The `MR × NR` register block: `acc[r][c] = Σ_k fma(m[rows.start + r, k],
/// panel[k·NR + c], acc)` over ascending `k`. Rows past `rows.end` repeat the
/// last row; the caller drops their sums.
#[inline(always)]
fn block<T: Scalar, const NR: usize>(
    m: &DenseMatrix<T>,
    rows: Range<usize>,
    panel: &[T],
) -> [[T; NR]; MR] {
    let d = m.cols();
    // Filled by a plain loop rather than `std::array::from_fn`, which the
    // inliner may keep out of line: the row lengths must stay visible as `d`
    // so the `a_r[k]` reads below share one index check and the loop keeps
    // its row pointers in registers instead of spilling them.
    let mut a: [&[T]; MR] = [&[]; MR];
    for (r, a_r) in a.iter_mut().enumerate() {
        *a_r = &m.row((rows.start + r).min(rows.end - 1))[..d];
    }
    let mut acc = [[T::ZERO; NR]; MR];
    for (k, b_k) in panel[..NR * d].chunks_exact(NR).enumerate() {
        for (acc_r, a_r) in acc.iter_mut().zip(&a) {
            let a_rk = a_r[k];
            for (c, &b) in acc_r.iter_mut().zip(b_k) {
                *c = a_rk.mul_add(b, *c);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Awkward values: signed zeros, subnormals, infinities, and products
    /// whose fused and unfused roundings differ.
    fn awkward<T: Scalar>(rows: usize, cols: usize, salt: usize) -> DenseMatrix<T> {
        let m = DenseMatrix::from_fn(rows, cols, |i, j| {
            let v = match (i * 31 + j * 17 + salt * 7) % 41 {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2..=5 => -0.0,
                6 | 7 => 0.0,
                8 | 9 => 1e-40, // subnormal in f32
                10 => -1e-310,  // subnormal in f64
                11 | 12 => 1.0 + f64::EPSILON,
                _ => ((i * cols + j + salt) as f64 * 0.37).sin() * 3.0,
            };
            T::from_f64(v)
        });
        std::hint::black_box(m)
    }

    /// The sequential-`fma` reference every path must reproduce bit for bit.
    fn reference<T: Scalar>(a: &DenseMatrix<T>, i: usize, b: &DenseMatrix<T>, j: usize) -> T {
        a.row(i)
            .iter()
            .zip(b.row(j))
            .fold(T::ZERO, |acc, (&x, &y)| x.mul_add(y, acc))
    }

    fn in_triangle(triangle: Option<Triangle>, i: usize, j: usize) -> bool {
        match triangle {
            None => true,
            Some(Triangle::Lower) => j <= i,
            Some(Triangle::Upper) => j >= i,
        }
    }

    /// A caller's final write `c = f(c, acc)`, by name.
    type WriteForm<T> = (&'static str, fn(T, T) -> T);

    /// Every final write form the callers use, applied to a pre-filled
    /// output so `−0.0` handling shows.
    fn write_forms<T: Scalar>() -> Vec<WriteForm<T>> {
        vec![
            ("gemm: c += alpha·acc", |c, acc| {
                c + T::from_f64(-2.0) * acc
            }),
            ("matmul_nt_rows: c += 1·acc", |c, acc| c + T::ONE * acc),
            ("syrk: prev + alpha·acc", |c, acc| {
                T::from_f64(0.5) * c + T::from_f64(3.0) * acc
            }),
            ("syrk beta=0: 0 + alpha·acc", |_, acc| {
                T::ZERO + T::from_f64(-1.0) * acc
            }),
            ("cross_gram: acc", |_, acc| acc),
        ]
    }

    fn check_bits<T: Scalar>(m: usize, n: usize, d: usize, bits: fn(T) -> u64) {
        let a = awkward::<T>(m, d, 1);
        let b = awkward::<T>(n, d, 2);
        let start = awkward::<T>(m, n, 3);
        for triangle in [None, Some(Triangle::Lower), Some(Triangle::Upper)] {
            // Triangles compare against the row of A in the full matrix; run
            // on an offset window of rows so the offset is exercised.
            let a_rows = if triangle.is_some() { m / 3..m } else { 0..m };
            for (form, apply) in write_forms::<T>() {
                let mut dispatched = start.clone();
                nt_product(&a, a_rows.clone(), &b, triangle, |i, j, acc| {
                    let c = &mut dispatched[(i, j)];
                    *c = apply(*c, acc)
                });
                let mut generic = start.clone();
                nt_product_generic(&a, a_rows.clone(), &b, triangle, &mut |i, j, acc| {
                    let c = &mut generic[(i, j)];
                    *c = apply(*c, acc)
                });
                let mut expected = start.clone();
                for i in a_rows.clone() {
                    for j in 0..n {
                        if in_triangle(triangle, i, j) {
                            let c = &mut expected[(i - a_rows.start, j)];
                            *c = apply(*c, reference(&a, i, &b, j));
                        }
                    }
                }
                for i in 0..m {
                    for j in 0..n {
                        let want = bits(expected[(i, j)]);
                        let at = format!("{form}, {triangle:?}, {m}x{n}x{d}, entry ({i},{j})");
                        assert_eq!(bits(dispatched[(i, j)]), want, "dispatched: {at}");
                        assert_eq!(bits(generic[(i, j)]), want, "generic: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_path_matches_the_sequential_fma_reference_bit_for_bit() {
        // Rows not a multiple of MR, columns not a multiple of NR (16 for
        // f32, 8 for f64), fewer A rows than MR (the packed-A path), and
        // d ∈ {0, 1, 7} plus a longer reduction.
        for (m, n) in [(1, 5), (5, 23), (6, 16), (13, 37), (20, 9)] {
            for d in [0, 1, 7, 33] {
                check_bits::<f32>(m, n, d, |x| u64::from(x.to_bits()));
                check_bits::<f64>(m, n, d, f64::to_bits);
            }
        }
    }
}
