//! The packed, register-blocked `A·Bᵀ` microkernel shared by every dense
//! product whose operands both store the reduction dimension contiguously:
//! [`matmul_nt_rows`](crate::matmul_nt_rows), the SYRK products
//! ([`syrk_full`](crate::syrk_full), [`syrk_packed_with`](crate::syrk_packed_with))
//! and the serve-time cross Gram.
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
//! vector FMA per step.
//!
//! The loop order is Goto & van de Geijn's too: a chunk of whole panels, up
//! to 64 KiB of `B`, is packed once, and every `MR`-row block of `A` sweeps
//! it before the next chunk is packed. As in BLIS (Van Zee & van de
//! Geijn, ACM TOMS 2015), the register block goes back to the caller one row
//! run at a time, so each output row is written left to right and each
//! caller's final write is a plain slice loop. The only scratch is that
//! chunk, or a single panel when one panel alone exceeds it.

use crate::fma;
use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;
use crate::syrk::Triangle;
use std::ops::Range;

/// Rows of the register block. With `NR` columns filling two 256-bit
/// vectors, a block holds 12 vector accumulators, leaving room in the 16
/// AVX2 registers for the two panel loads and the broadcast `a_ik`.
const MR: usize = 6;

/// Longest run handed to the caller when fewer than `MR` rows of `A` stream
/// `B` through: whole register blocks of `B` rows, gathered per `A` row.
const SMALL_RUN: usize = 16 * MR;

/// Bytes of `B` packed at once. Each kernel thread holds its own chunk, so a
/// larger one costs memory for a smaller gain: on a 2-vCPU Xeon, the
/// 2000 × 2000 × 32 `f32` Nyström panel took 5.1–5.7 ms with 256 KiB,
/// 5.9–6.5 ms with 64 KiB, and 9.9–11.1 ms packing one panel at a time.
const CHUNK_BYTES: usize = 64 * 1024;

/// Rows of `B` in one packed chunk: as many whole `NR`-row panels of `d`
/// columns as fit in [`CHUNK_BYTES`], and at least one.
fn chunk_rows<T: Scalar, const NR: usize>(d: usize) -> usize {
    NR * (CHUNK_BYTES / (d.max(1) * std::mem::size_of::<T>() * NR)).max(1)
}

/// `A[a_rows, :] · Bᵀ`, restricted to one triangle when `triangle` is set.
///
/// Hands the output to `write(i, j0, run)` one run of consecutive entries of
/// one row at a time: `run[t]` is entry `(i, j0 + t)`, where `i` counts from
/// `a_rows.start` and `j0 + t` indexes the rows of `B`. Every entry is
/// written exactly once. `Triangle::Lower` keeps the entries with
/// `j ≤ a_rows.start + i` (the row of `A` in the full matrix),
/// `Triangle::Upper` those with `j ≥` it. Each caller applies its own final
/// write (`0 + 1·acc`, a fold, ...) to every entry of the run.
///
/// `B` is packed in chunks of whole register panels, at most 64 KiB each.
/// Every block of six rows of `A` sweeps a chunk before the next is packed,
/// so each row of `B` is packed once per call and each output row is written
/// left to right, in runs as wide as a panel. With fewer than six rows of
/// `A` and no triangle, `A` is packed instead and `B` streams through, in
/// runs of up to 96 entries.
///
/// `a` and `b` must have the same number of columns.
pub fn nt_product<T: Scalar>(
    a: &DenseMatrix<T>,
    a_rows: Range<usize>,
    b: &DenseMatrix<T>,
    triangle: Option<Triangle>,
    mut write: impl FnMut(usize, usize, &[T]),
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
    write: &mut impl FnMut(usize, usize, &[T]),
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
    write: &mut impl FnMut(usize, usize, &[T]),
) {
    let d = a.cols();
    if a_rows.len() < MR && triangle.is_none() {
        // Too few rows of A to pay for packing B: a one-row lookup would
        // copy all of B per request. Pack the A rows instead and stream B
        // through the block's row side. The exact product commutes, so
        // fma(b_jk, a_ik, acc) rounds exactly as fma(a_ik, b_jk, acc).
        let mut panel = vec![T::ZERO; NR * d];
        pack::<T, NR>(&mut panel, a, a_rows.clone());
        // Each block holds B rows by A rows: its lanes are transposed into
        // one run per A row, gathered over several blocks so the caller's
        // write sees runs of up to `SMALL_RUN` entries, not `MR`.
        let mut runs = [[T::ZERO; SMALL_RUN]; MR];
        for s0 in (0..b.rows()).step_by(SMALL_RUN) {
            let s1 = (s0 + SMALL_RUN).min(b.rows());
            for j0 in (s0..s1).step_by(MR) {
                let j1 = (j0 + MR).min(s1);
                let acc = block::<T, NR>(b, j0..j1, &panel);
                for (i, run) in runs.iter_mut().enumerate().take(a_rows.len()) {
                    for (slot, sums) in run[j0 - s0..].iter_mut().zip(&acc[..j1 - j0]) {
                        *slot = sums[i];
                    }
                }
            }
            for (i, run) in runs.iter().enumerate().take(a_rows.len()) {
                write(i, s0, &run[..s1 - s0]);
            }
        }
        return;
    }
    let (lo, hi) = match triangle {
        None => (0, b.rows()),
        Some(Triangle::Lower) => (0, a_rows.end.min(b.rows())),
        Some(Triangle::Upper) => (a_rows.start, b.rows()),
    };
    let chunk = chunk_rows::<T, NR>(d);
    let panel_len = NR * d;
    let mut panels = vec![T::ZERO; panel_len * chunk.min(hi.saturating_sub(lo)).div_ceil(NR)];
    for c0 in (lo..hi).step_by(chunk) {
        let c1 = (c0 + chunk).min(hi);
        for (p, j0) in (c0..c1).step_by(NR).enumerate() {
            let panel = &mut panels[p * panel_len..(p + 1) * panel_len];
            pack::<T, NR>(panel, b, j0..(j0 + NR).min(c1));
        }
        for i0 in a_rows.clone().step_by(MR) {
            let i1 = (i0 + MR).min(a_rows.end);
            for (p, j0) in (c0..c1).step_by(NR).enumerate() {
                let j1 = (j0 + NR).min(c1);
                let outside = match triangle {
                    None => false,
                    Some(Triangle::Lower) => j0 >= i1,
                    Some(Triangle::Upper) => j1 <= i0,
                };
                if outside {
                    continue;
                }
                let panel = &panels[p * panel_len..(p + 1) * panel_len];
                let acc = block::<T, NR>(a, i0..i1, panel);
                for (i, sums) in (i0..i1).zip(&acc) {
                    let cols = match triangle {
                        None => j0..j1,
                        Some(Triangle::Lower) => j0..j1.min(i + 1),
                        Some(Triangle::Upper) => j0.max(i)..j1,
                    };
                    if !cols.is_empty() {
                        write(
                            i - a_rows.start,
                            cols.start,
                            &sums[cols.start - j0..cols.end - j0],
                        );
                    }
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
    use crate::gemm::matmul_nt_rows;
    use crate::parallel::NUM_THREADS_ENV;
    use crate::syrk::{symmetrize_lower, syrk_full};

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
            ("matmul_nt_rows: 0 + 1·acc", |_, acc| {
                T::ZERO + T::ONE * acc
            }),
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
                nt_product(&a, a_rows.clone(), &b, triangle, |i, j0, run| {
                    for (j, &acc) in (j0..).zip(run) {
                        let c = &mut dispatched[(i, j)];
                        *c = apply(*c, acc)
                    }
                });
                let mut generic = start.clone();
                nt_product_generic(&a, a_rows.clone(), &b, triangle, &mut |i, j0, run| {
                    for (j, &acc) in (j0..).zip(run) {
                        let c = &mut generic[(i, j)];
                        *c = apply(*c, acc)
                    }
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
        // f32, 8 for f64), fewer A rows than MR (the packed-A path, whose
        // runs gather up to 96 rows of B), and d ∈ {0, 1, 7} plus a longer
        // reduction.
        for (m, n) in [(1, 5), (5, 23), (2, 203), (6, 16), (13, 37), (20, 9)] {
            for d in [0, 1, 7, 33] {
                check_bits::<f32>(m, n, d, |x| u64::from(x.to_bits()));
                check_bits::<f64>(m, n, d, f64::to_bits);
            }
        }
    }

    /// The panel width and chunk height [`nt_product`] uses for `T`.
    fn panel_and_chunk<T: Scalar>(d: usize) -> (usize, usize) {
        if std::mem::size_of::<T>() == 4 {
            (16, chunk_rows::<T, 16>(d))
        } else {
            (8, chunk_rows::<T, 8>(d))
        }
    }

    /// Both paths write every entry of `A[a_rows, :]·Bᵀ` in `triangle`
    /// exactly once, with the reference's bits, and no other entry.
    fn check_written_once<T: Scalar>(
        a: &DenseMatrix<T>,
        a_rows: Range<usize>,
        b: &DenseMatrix<T>,
        triangle: Option<Triangle>,
        bits: fn(T) -> u64,
    ) {
        let n = b.rows();
        let want: Vec<Option<u64>> = a_rows
            .clone()
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| in_triangle(triangle, i, j).then(|| bits(reference(a, i, b, j))))
            .collect();
        for dispatched in [true, false] {
            let mut got: Vec<Option<T>> = vec![None; a_rows.len() * n];
            let mut record = |i: usize, j0: usize, run: &[T]| {
                for (j, &acc) in (j0..).zip(run) {
                    let slot = &mut got[i * n + j];
                    assert!(slot.is_none(), "entry ({i},{j}) written twice");
                    *slot = Some(acc);
                }
            };
            if dispatched {
                nt_product(a, a_rows.clone(), b, triangle, record);
            } else {
                nt_product_generic(a, a_rows.clone(), b, triangle, &mut record);
            }
            for (e, (got, want)) in got.into_iter().zip(&want).enumerate() {
                assert_eq!(
                    got.map(bits),
                    *want,
                    "{triangle:?}, rows {a_rows:?} of {n}x{}, dispatched {dispatched}, \
                     entry ({},{})",
                    a.cols(),
                    a_rows.start + e / n,
                    e % n
                );
            }
        }
    }

    fn check_chunk_edges<T: Scalar>(d: usize, bits: fn(T) -> u64) {
        let (nr, chunk) = panel_and_chunk::<T>(d);
        // A 13-row window of A: two register blocks and one partial row.
        let w = 13;
        // The swept rows of B end one panel short of, exactly at, and a
        // partial panel past one and two chunks.
        for span in [
            chunk - nr,
            chunk,
            chunk + 3,
            2 * chunk - nr,
            2 * chunk,
            2 * chunk + 3,
        ] {
            // Every triangle runs on an offset window. A triangle sweeps the
            // rows of B from 0 up to the window's end (Lower) or from its
            // start to the end of B (Upper), so each window sits where the
            // sweep covers `span` rows.
            for (triangle, a_rows, n) in [
                (None, 5..5 + w, span),
                (Some(Triangle::Lower), span - w..span, span),
                (Some(Triangle::Upper), 5..5 + w, 5 + span),
            ] {
                let a = awkward::<T>(a_rows.end, d, 1);
                let b = awkward::<T>(n, d, 2);
                check_written_once(&a, a_rows, &b, triangle, bits);
            }
        }
    }

    #[test]
    fn chunk_edges_match_the_sequential_fma_reference_bit_for_bit() {
        for d in [1, 33] {
            check_chunk_edges::<f32>(d, |x| u64::from(x.to_bits()));
            check_chunk_edges::<f64>(d, f64::to_bits);
        }
    }

    /// [`awkward`] for long reductions: its infinities are kept to row 0, so
    /// most sums stay finite, and rows 2 and 3 are all `−0` and all `+0`, so
    /// the sums between them are exactly `+0`.
    fn long_awkward<T: Scalar>(rows: usize, cols: usize, salt: usize) -> DenseMatrix<T> {
        let mut m = awkward::<T>(rows, cols, salt);
        for i in 1..rows {
            for v in m.row_mut(i) {
                *v = match i {
                    2 => T::from_f64(-0.0),
                    3 => T::ZERO,
                    _ if !v.is_finite() => T::from_f64(0.75),
                    _ => *v,
                };
            }
        }
        m
    }

    /// SYRK with the mirror and `matmul_nt_rows` against the
    /// sequential-`fma` reference, with `B` spanning more than two chunks.
    fn check_products<T: Scalar>(d: usize, bits: fn(T) -> u64) {
        let (nr, chunk) = panel_and_chunk::<T>(d);
        let n = 2 * chunk + nr / 2 + 3;
        let a = long_awkward::<T>(n, d, 4);
        let b = long_awkward::<T>(n + 5, d, 5);
        let gram = DenseMatrix::from_fn(n, n, |i, j| reference(&a, i, &a, j));
        let cross = DenseMatrix::from_fn(n, n + 5, |i, j| reference(&a, i, &b, j));
        // The callers' final write: `0 + 1·acc`.
        let form = |acc: T| T::ZERO + T::ONE * acc;
        let c = syrk_full(&a).unwrap();
        for i in 0..n {
            for j in 0..n {
                let (r, s) = if in_triangle(Some(Triangle::Lower), i, j) {
                    (i, j)
                } else {
                    (j, i)
                };
                assert_eq!(
                    bits(c[(i, j)]),
                    bits(form(gram[(r, s)])),
                    "syrk_full {n}x{d}, entry ({i},{j})"
                );
            }
        }
        let (r0, r1) = (7, n - 4);
        let panel = matmul_nt_rows(&a, r0, r1, &b).unwrap();
        for i in r0..r1 {
            for j in 0..n + 5 {
                let want = bits(form(cross[(i, j)]));
                assert_eq!(
                    bits(panel[(i - r0, j)]),
                    want,
                    "matmul_nt_rows {r0}..{r1}, {n}x{}x{d}, entry ({i},{j})",
                    n + 5
                );
            }
        }
    }

    /// The mirror against a plain element copy, both triangles.
    fn check_mirror(n: usize) {
        let start = DenseMatrix::<f32>::from_fn(n, n, |i, j| (i * n + j) as f32);
        for triangle in [Triangle::Lower, Triangle::Upper] {
            let mut c = start.clone();
            symmetrize_lower(&mut c, triangle).unwrap();
            for i in 0..n {
                for j in 0..n {
                    let want = if in_triangle(Some(triangle), i, j) {
                        start[(i, j)]
                    } else {
                        start[(j, i)]
                    };
                    assert_eq!(
                        c[(i, j)],
                        want,
                        "mirror {triangle:?}, n = {n}, entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn the_dense_products_match_the_sequential_fma_reference_across_chunks() {
        check_products::<f32>(128, |x| u64::from(x.to_bits()));
        check_products::<f64>(128, f64::to_bits);
        // Sizes around the mirror's 256-row blocks.
        for n in [1, 2, 3, 17, 255, 256, 257, 300, 513] {
            check_mirror(n);
        }
        // The kernel thread count is fixed per process, so the test reruns
        // itself in child processes at one and three kernel threads.
        if std::env::var_os(NUM_THREADS_ENV).is_none() {
            let module = module_path!().split_once("::").expect("crate path").1;
            let test = format!(
                "{module}::the_dense_products_match_the_sequential_fma_reference_across_chunks"
            );
            for threads in ["1", "3"] {
                let exe = std::env::current_exe().unwrap();
                let out = std::process::Command::new(exe)
                    .args([test.as_str(), "--exact"])
                    .env(NUM_THREADS_ENV, threads)
                    .output()
                    .unwrap();
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(
                    out.status.success() && stdout.contains("1 passed"),
                    "{threads} kernel threads:\n{stdout}{}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }
    }
}
