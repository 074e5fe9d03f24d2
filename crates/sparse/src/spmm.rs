//! Sparse × dense matrix multiplication (SpMM).
//!
//! Popcorn's dominant per-iteration operation is the distance fold
//! `E = −2 · K Vᵀ` (paper Alg. 2 line 7), which cuSPARSE computes in the
//! orientation with the sparse operand on the left, `Eᵀ = −2 · V Kᵀ =
//! −2 · V K` (`K` is symmetric). Both orientations are provided:
//!
//! * [`spmm`]: `C = alpha * A_sparse * B_dense` (A: m×k CSR, B: k×n dense).
//! * [`spmm_transpose_b`] / [`spmm_transpose_b_into`]:
//!   `C = alpha * B_dense * A_sparseᵀ`, the literal `K Vᵀ` of Eq. 10. Each
//!   output cell gathers the columns of `B` its sparse row selects, without
//!   materialising `Vᵀ`; `B` need not be symmetric.
//! * [`spmm_selection_lower_accumulate`]: the `Eᵀ = V K` orientation over
//!   the packed lower triangle of a symmetric `K`, one panel of rows at a
//!   time. Each stored entry `K[r, l]` feeds two cells, `(c(l), r)` and
//!   `(c(r), l)`, as BLAS `xSPMV` reads a packed matrix; the result has the
//!   gather's bits.
//! * [`spmm_csr_rows_selection_t_into`]: the `K Vᵀ` fold over CSR row panels
//!   of a sparse `K`, scattering each stored entry into its cluster.
//!
//! With `V`'s stored values set to one (the indicator) and `alpha = 1`, the
//! three folds compute the plain per-cluster row sums `Σ_{q ∈ L_c} K[i][q]`
//! bit for bit: `fma(1, x, acc)` rounds `acc + x` once, exactly as `+=`
//! does, and `1 · acc` is `acc`.
//!
//! Each of the three folds takes the set of clusters (rows of `V`) to fold:
//! `Some(set)` folds cluster `c` only where `set[c]` holds and leaves the
//! other clusters' cells as they are, `None` folds every cluster. A folded
//! cell gets the same bits either way, so a caller that keeps last pass's
//! output can refold just the clusters whose members changed.

use crate::csr::{CsrMatrix, CsrRows};
use crate::errors::SparseError;
use crate::selection::SelectionMatrix;
use crate::Result;
use popcorn_dense::fma::dispatch;
use popcorn_dense::parallel::{num_threads, par_chunks_cols_ranges, par_chunks_rows};
use popcorn_dense::{DenseMatrix, PackedRows, Scalar};
use std::ops::Range;

/// FLOPs performed by an SpMM between a sparse matrix with `nnz` stored
/// entries and a dense matrix with `n_cols` columns: each stored entry
/// contributes one multiply-add per output column.
pub fn spmm_flops(nnz: usize, n_cols: usize) -> u64 {
    2 * nnz as u64 * n_cols as u64
}

/// `C = alpha * A * B` where `A` is CSR (m×k) and `B` is dense (k×n).
///
/// Output rows are distributed across threads; each output row is a sparse
/// combination of rows of `B`, so the inner loop streams contiguous memory.
pub fn spmm<T: Scalar>(alpha: T, a: &CsrMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm",
            expected: (a.cols(), b.rows()),
            found: (b.rows(), b.rows()),
        });
    }
    let m = a.rows();
    let n = b.cols();
    let mut c = DenseMatrix::zeros(m, n);
    if n == 0 || m == 0 {
        return Ok(c);
    }
    par_chunks_rows(c.as_mut_slice(), n, |start_row, chunk| {
        for (local_i, c_row) in chunk.chunks_exact_mut(n).enumerate() {
            let i = start_row + local_i;
            let (cols, vals) = a.row(i);
            for (&k, &v) in cols.iter().zip(vals.iter()) {
                let av = alpha * v;
                let b_row = b.row(k);
                for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_ij = av.mul_add(b_kj, *c_ij);
                }
            }
        }
    });
    Ok(c)
}

/// `C = alpha * B * Aᵀ` where `B` is dense (m×k) and `A` is CSR (n×k), so the
/// result is m×n. This is the literal `K Vᵀ` orientation of paper Eq. 10 with
/// `B = K` (n×n dense) and `A = V` (k×n sparse).
///
/// Each output column `j` is a sparse combination of columns of `B` selected
/// by row `j` of `A`; we iterate output rows in parallel and, within a row,
/// accumulate `C[i][j] = Σ_l A[j][l] * B[i][l]` using the CSR row of `A`.
pub fn spmm_transpose_b<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    a: &CsrMatrix<T>,
) -> Result<DenseMatrix<T>> {
    let mut c = DenseMatrix::zeros(b.rows(), a.rows());
    spmm_transpose_b_into(alpha, b, a, None, c.as_mut_slice())?;
    Ok(c)
}

/// [`spmm_transpose_b`] writing into a caller-provided row-major buffer of
/// `b.rows() × a.rows()` entries. The streaming kernel-matrix path uses this
/// to compute a row tile's slice of `E = −2 K Vᵀ` directly into the shared
/// accumulator, with no intermediate matrix: output values are identical to
/// the allocating variant bit for bit (each cell is an independent
/// overwrite). Under `clusters` (see the module docs) only the columns of
/// the rows of `a` in the set are written, and only the columns of `b` those
/// rows store are packed; `None` overwrites every cell.
///
/// Each cell `(i, j)` accumulates `acc = fma(v, B[i, l], acc)` over row `j`'s
/// stored entries `(l, v)` in ascending `l`, then writes `alpha · acc`. The
/// loop is row-blocked: one walk of row `j` feeds eight rows of `B` into as
/// many independent accumulators, which keeps the FMA units busy without
/// touching any cell's operand order.
pub fn spmm_transpose_b_into<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    a: &CsrMatrix<T>,
    clusters: Option<&[bool]>,
    out: &mut [T],
) -> Result<()> {
    if b.cols() != a.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_transpose_b",
            expected: (b.cols(), b.cols()),
            found: (a.cols(), a.cols()),
        });
    }
    let m = b.rows();
    let n = a.rows();
    if out.len() != m * n {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_transpose_b_into (output)",
            expected: (m, n),
            found: (out.len(), 1),
        });
    }
    check_clusters("spmm_transpose_b_into (clusters)", clusters, n)?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    par_chunks_rows(out, n, |start_row, chunk| {
        dispatch(
            #[inline(always)]
            || fold_transpose_b_rows(alpha, b, a, clusters, start_row, chunk),
        )
    });
    Ok(())
}

/// Check that a cluster set, if given, flags each of the `k` clusters.
fn check_clusters(op: &'static str, clusters: Option<&[bool]>, k: usize) -> Result<()> {
    match clusters {
        Some(set) if set.len() != k => Err(SparseError::DimensionMismatch {
            op,
            expected: (k, 1),
            found: (set.len(), 1),
        }),
        _ => Ok(()),
    }
}

/// Rows of `B` one walk of a sparse row feeds: eight independent FMA chains
/// cover the FMA latency and fill one 256-bit vector of `f32`.
const FOLD_ROWS: usize = 8;

/// The body of [`spmm_transpose_b_into`] for the output rows `chunk` holds,
/// the first being row `start_row` of `B`.
///
/// Each block of [`FOLD_ROWS`] rows of `B` is first packed column-major into
/// one panel, so the values a stored entry `(l, v)` meets sit side by side:
/// the walk then reads one panel slot per entry instead of one cache line
/// per row. The panel is the only scratch, `FOLD_ROWS · b.cols()` entries.
/// Under a cluster set only the slots its rows of `a` read are packed.
#[inline(always)]
fn fold_transpose_b_rows<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    a: &CsrMatrix<T>,
    clusters: Option<&[bool]>,
    start_row: usize,
    chunk: &mut [T],
) {
    let n = a.rows();
    let mut panel = vec![[T::ZERO; FOLD_ROWS]; b.cols()];
    for (block, out) in chunk.chunks_mut(FOLD_ROWS * n).enumerate() {
        let i0 = start_row + block * FOLD_ROWS;
        let rows = out.len() / n;
        // Rows past the chunk repeat its last row; their sums are dropped.
        let b_rows: [&[T]; FOLD_ROWS] =
            std::array::from_fn(|r| &b.row(i0 + r.min(rows - 1))[..panel.len()]);
        let pack = |slot: &mut [T; FOLD_ROWS], l: usize| {
            for (x, b_r) in slot.iter_mut().zip(&b_rows) {
                *x = b_r[l];
            }
        };
        match clusters {
            None => {
                for (l, slot) in panel.iter_mut().enumerate() {
                    pack(slot, l);
                }
            }
            Some(set) => {
                for j in (0..n).filter(|&j| set[j]) {
                    for &l in a.row(j).0 {
                        pack(&mut panel[l], l);
                    }
                }
            }
        }
        for j in (0..n).filter(|&j| clusters.is_none_or(|set| set[j])) {
            let (cols, vals) = a.row(j);
            let mut acc = [T::ZERO; FOLD_ROWS];
            for (&l, &v) in cols.iter().zip(vals) {
                for (acc_r, &b_rl) in acc.iter_mut().zip(&panel[l]) {
                    *acc_r = v.mul_add(b_rl, *acc_r);
                }
            }
            for (r, &sum) in acc[..rows].iter().enumerate() {
                out[r * n + j] = alpha * sum;
            }
        }
    }
}

/// `acc[c, :] += V[c, ·] · K` over one panel of a symmetric `K` given by its
/// packed lower triangle, `panel = K[r, 0..=r]` for `r ∈ rows`: that
/// panel's share of `Eᵀ = V K` before its `−2` scale. `V` is `selection`
/// with stored values `cluster_weights` (`1/|L_c|`, or one for plain row
/// sums); `acc` is the row-major `k × n` accumulator. Under `clusters` (see
/// the module docs) only the folded clusters' cells are written.
///
/// Panels come in ascending row order, over cells zeroed before the first.
/// Row `r` first completes the cells `(c, r)`: for each folded cluster `c`,
/// `acc[c, r] = fma(w_c, K[r, l], ·)` over its members `l < r` in ascending
/// order, read from the sorted member lists, so a refold reads a row only at
/// the dirty clusters' members. Row `r` then adds
/// `acc[c(r), j] = fma(w_c(r), K[r, j], ·)` for `j ≤ r`. Every cell `(c, j)`
/// therefore accumulates `fma(w_c, K[l, j], ·)` over `l ∈ L_c` ascending
/// from `+0`, where `K[l, j]` for `l < j` is the stored `K[j, l]`: the
/// operand sequence [`spmm_transpose_b_into`] gives its cell `(j, c)` over
/// the full symmetric matrix, so `alpha · acc[c][j]` is the gather's
/// `E[j][c]` bit for bit.
///
/// The first step runs eight rows at a time, one independent `fma` chain
/// per row, where one row's chain would wait on each `fma` before it. The
/// columns split across the kernel threads in bands of equal work for this
/// panel; a band walks the panel's rows from its first column on, so each
/// cell has one writer.
pub fn spmm_selection_lower_accumulate<T: Scalar>(
    panel: PackedRows<'_, T>,
    selection: &SelectionMatrix<T>,
    cluster_weights: &[T],
    clusters: Option<&[bool]>,
    acc: &mut [T],
) -> Result<()> {
    let (n, k) = (selection.n(), selection.k());
    let rows = panel.rows();
    if rows.end > n {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_selection_lower_accumulate (panel rows)",
            expected: (n, 1),
            found: (rows.end, 1),
        });
    }
    if cluster_weights.len() != k {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_selection_lower_accumulate (weights)",
            expected: (k, 1),
            found: (cluster_weights.len(), 1),
        });
    }
    if acc.len() != k * n {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_selection_lower_accumulate (accumulator)",
            expected: (k, n),
            found: (acc.len(), 1),
        });
    }
    check_clusters("spmm_selection_lower_accumulate (clusters)", clusters, k)?;
    let folded: Vec<usize> = (0..k)
        .filter(|&c| clusters.is_none_or(|set| set[c]))
        .collect();
    if rows.is_empty() || folded.is_empty() {
        return Ok(());
    }
    let bands = lower_bands(rows.clone(), num_threads());
    par_chunks_cols_ranges(acc, n, &bands, |band, acc_rows| {
        dispatch(
            #[inline(always)]
            || {
                fold_lower_band(
                    panel,
                    selection,
                    cluster_weights,
                    clusters,
                    &folded,
                    band,
                    acc_rows,
                )
            },
        )
    });
    Ok(())
}

/// Rows of a block of [`spmm_selection_lower_accumulate`]'s first step: a
/// block's rows feed eight independent `fma` chains, one per row, which
/// cover the `fma` latency and fill one 256-bit vector of `f32`.
const LOWER_BLOCK: usize = 8;

/// Columns of a tile of the first step: the block's eight rows of a tile
/// take 8 KiB of `f32`, which stay in L1 while every folded cluster reads
/// its members out of them.
const LOWER_TILE: usize = 256;

/// How much more one entry of the first step costs than one of the second,
/// by which the column bands weigh the two steps.
const STEP_ONE_WEIGHT: usize = 3;

/// Column bands `0..rows.end` of about equal work for the panel `rows`: a
/// column `j` below the panel meets the panel's `rows.len()` second-step
/// updates; a column inside it meets `j` first-step terms, each of
/// [`STEP_ONE_WEIGHT`], and `rows.end − j` second-step ones. Columns past
/// the panel are untouched.
fn lower_bands(rows: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    let weight = |j: usize| {
        let step_one = if j >= rows.start {
            STEP_ONE_WEIGHT * j
        } else {
            0
        };
        (step_one + rows.end - j.max(rows.start)) as u128
    };
    let parts = parts.clamp(1, rows.end);
    let total: u128 = (0..rows.end).map(weight).sum();
    let mut bands = Vec::with_capacity(parts);
    let (mut start, mut sum) = (0, 0u128);
    for j in 0..rows.end {
        sum += weight(j);
        let p = bands.len() + 1;
        // Close the band once it holds p/parts of the work, keeping one
        // column for every band still to come.
        if p < parts && (sum * parts as u128 >= total * p as u128 || rows.end - j == parts - p + 1)
        {
            bands.push(start..j + 1);
            start = j + 1;
        }
    }
    bands.push(start..rows.end);
    bands
}

/// The body of [`spmm_selection_lower_accumulate`] for the columns `band`,
/// `acc[c]` holding cluster `c`'s accumulator entries in that band: the
/// band's rows in blocks of [`LOWER_BLOCK`], each block's first step
/// ([`complete_cells`]) before its rows' second steps.
#[inline(always)]
fn fold_lower_band<T: Scalar>(
    panel: PackedRows<'_, T>,
    selection: &SelectionMatrix<T>,
    weights: &[T],
    clusters: Option<&[bool]>,
    folded: &[usize],
    band: Range<usize>,
    acc: &mut [&mut [T]],
) {
    let labels = selection.assignments();
    let rows = panel.rows();
    let mut chains = vec![[T::ZERO; LOWER_BLOCK]; folded.len()];
    // Where each folded cluster's members enter each tile of columns.
    let tiles = rows.end.div_ceil(LOWER_TILE) + 1;
    let starts: Vec<usize> = folded
        .iter()
        .flat_map(|&c| {
            let members = selection.csr().row(c).0;
            (0..tiles).map(move |t| members.partition_point(|&l| l < t * LOWER_TILE))
        })
        .collect();
    let mut r = rows.start.max(band.start);
    while r < rows.end {
        let block = r..(r + LOWER_BLOCK).min(rows.end);
        // Step 1 completes the cells of the block's rows inside the band;
        // step 2 of a row touches no cell of a later row.
        let inside = block.start..block.end.min(band.end);
        if !inside.is_empty() {
            let block = (inside, band.start);
            let (folded, chains) = ((folded, &starts[..]), &mut chains[..]);
            complete_cells(panel, selection, weights, folded, block, acc, chains);
        }
        for r in block.clone() {
            let c = labels[r];
            if clusters.is_some_and(|set| !set[c]) {
                continue;
            }
            let (w, hi) = (weights[c], (r + 1).min(band.end));
            let row = &panel.row(r)[band.start..hi];
            for (sum, &x) in acc[c][..hi - band.start].iter_mut().zip(row) {
                *sum = w.mul_add(x, *sum);
            }
        }
        r = block.end;
    }
}

/// Step 1 for the rows `block.0` (at most [`LOWER_BLOCK`], all inside the
/// band starting at column `block.1`): cell `(c, r)` folds `K[r, l]` over
/// the members `l < r` of each folded cluster `c`, ascending, read from the
/// sorted member lists, one independent chain per row (`chains` holds each
/// folded cluster's chains).
///
/// The columns below the block go in tiles of [`LOWER_TILE`], every folded
/// cluster's members in a tile before the next tile; `folded.1` holds where
/// each folded cluster's members enter each tile. Each tile's rows are
/// first copied side by side into one array, so they stay in L1 while the
/// clusters read their members out of them, and a member's entries sit at
/// fixed strides from one index.
#[inline(always)]
fn complete_cells<T: Scalar>(
    panel: PackedRows<'_, T>,
    selection: &SelectionMatrix<T>,
    weights: &[T],
    (folded, starts): (&[usize], &[usize]),
    (block, j0): (Range<usize>, usize),
    acc: &mut [&mut [T]],
    chains: &mut [[T; LOWER_BLOCK]],
) {
    let (b0, len) = (block.start, block.len());
    let cells = b0 - j0..block.end - j0;
    // Rows past the block repeat its last row; their lanes are dropped.
    let rows: [&[T]; LOWER_BLOCK] = std::array::from_fn(|t| &panel.row(b0 + t.min(len - 1))[..b0]);
    let tiles = starts.len() / folded.len().max(1);
    let lists = || {
        folded
            .iter()
            .zip(starts.chunks_exact(tiles))
            .map(|(&c, starts)| (c, selection.csr().row(c).0, starts))
    };
    for (lanes, &c) in chains.iter_mut().zip(folded) {
        lanes[..len].copy_from_slice(&acc[c][cells.clone()]);
    }
    let mut tile = [[T::ZERO; LOWER_TILE]; LOWER_BLOCK];
    for (t, l0) in (0..b0).step_by(LOWER_TILE).enumerate() {
        let l1 = (l0 + LOWER_TILE).min(b0);
        for (dst, row) in tile.iter_mut().zip(&rows) {
            dst[..l1 - l0].copy_from_slice(&row[l0..l1]);
        }
        for (lanes, (c, members, starts)) in chains.iter_mut().zip(lists()) {
            let mut list = &members[starts[t]..starts[t + 1]];
            if l1 < l0 + LOWER_TILE {
                list = &list[..list.partition_point(|&l| l < l1)];
            }
            let (w, mut sums) = (weights[c], *lanes);
            for &l in list {
                let i = l - l0;
                for (sum, row) in sums.iter_mut().zip(&tile) {
                    *sum = w.mul_add(row[i], *sum);
                }
            }
            *lanes = sums;
        }
    }
    // Members inside the block: member `l` belongs to the rows after it.
    for (lanes, (c, members, starts)) in chains.iter_mut().zip(lists()) {
        let w = weights[c];
        let list = members[starts[b0 / LOWER_TILE]..].iter();
        for &l in list
            .skip_while(|&&l| l < b0)
            .take_while(|&&l| l < block.end)
        {
            for (t, sum) in lanes.iter_mut().enumerate().take(len).skip(l - b0 + 1) {
                *sum = w.mul_add(panel.row(b0 + t)[l], *sum);
            }
        }
        acc[c][cells.clone()].copy_from_slice(&lanes[..len]);
    }
}

/// `out[i, :] = alpha * (panel_row_i · Vᵀ)` where `V` is a selection matrix
/// given implicitly by `labels` (point → cluster) and `cluster_weights`
/// (`V`'s stored value per cluster row, `1/|L_j|`), and `panel` is a sparse
/// row panel of the symmetric kernel matrix `K`.
///
/// This is the **sparse-K** counterpart of [`spmm_transpose_b_into`]'s dense
/// `E = alpha · K Vᵀ` tile fold, and it is bit-identical to it whenever the
/// panel stores every entry the dense tile holds (exact zeros included):
/// for each output cell `(i, j)` the dense fold accumulates
/// `acc = fma(v_j, K[i, l], acc)` over `V` row `j`'s stored columns `l` in
/// ascending order, then writes `alpha * acc`. Streaming the panel row's
/// stored `(l, K[i, l])` pairs in ascending `l` and scattering each into
/// accumulator `labels[l]` performs, per cluster `j`, exactly that operand
/// sequence on an independent accumulator — and the trailing in-place
/// `alpha *` scale matches the dense write. Cells of empty clusters stay at
/// the zeroed `+0.0` and scale to the same `alpha * 0.0` the dense fold
/// produces. Cost is `O(panel_nnz + rows · k)` instead of `O(rows · n · k)`.
///
/// Accumulation happens directly in `out` (the caller's slice of the shared
/// `n × k` accumulator): no scratch buffer, no allocation. Under `clusters`
/// (see the module docs) only the cells of the clusters in the set are
/// zeroed, folded and scaled, and stored entries of other clusters are
/// skipped.
pub fn spmm_csr_rows_selection_t_into<T: Scalar>(
    alpha: T,
    panel: CsrRows<'_, T>,
    labels: &[usize],
    cluster_weights: &[T],
    clusters: Option<&[bool]>,
    out: &mut [T],
    k: usize,
) -> Result<()> {
    let rows = panel.row_count();
    if labels.len() != panel.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_csr_rows_selection_t_into (labels)",
            expected: (panel.cols(), 1),
            found: (labels.len(), 1),
        });
    }
    if out.len() != rows * k {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_csr_rows_selection_t_into (output)",
            expected: (rows, k),
            found: (out.len(), 1),
        });
    }
    if cluster_weights.len() != k {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_csr_rows_selection_t_into (weights)",
            expected: (k, 1),
            found: (cluster_weights.len(), 1),
        });
    }
    check_clusters("spmm_csr_rows_selection_t_into (clusters)", clusters, k)?;
    if rows == 0 || k == 0 {
        return Ok(());
    }
    let weights = cluster_weights;
    par_chunks_rows(out, k, |start_row, chunk| {
        dispatch(
            #[inline(always)]
            || match clusters {
                None => fold_csr_rows(alpha, panel, labels, weights, |_| true, start_row, chunk),
                Some(set) => {
                    fold_csr_rows(alpha, panel, labels, weights, |c| set[c], start_row, chunk)
                }
            },
        )
    });
    Ok(())
}

/// The body of [`spmm_csr_rows_selection_t_into`] for the output rows
/// `chunk` holds, the first being panel row `start_row`; `folds(c)` says
/// whether cluster `c` is in the set (always, without one).
#[inline(always)]
fn fold_csr_rows<T: Scalar>(
    alpha: T,
    panel: CsrRows<'_, T>,
    labels: &[usize],
    cluster_weights: &[T],
    folds: impl Fn(usize) -> bool,
    start_row: usize,
    chunk: &mut [T],
) {
    let k = cluster_weights.len();
    for (local, out_row) in chunk.chunks_exact_mut(k).enumerate() {
        for (c, cell) in out_row.iter_mut().enumerate() {
            if folds(c) {
                *cell = T::ZERO;
            }
        }
        let (cols, vals) = panel.row(start_row + local);
        for (&l, &v) in cols.iter().zip(vals.iter()) {
            let j = labels[l];
            if folds(j) {
                out_row[j] = cluster_weights[j].mul_add(v, out_row[j]);
            }
        }
        for (c, cell) in out_row.iter_mut().enumerate() {
            if folds(c) {
                *cell = alpha * *cell;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_values::{awkward_csr, awkward_dense};
    use popcorn_dense::{matmul, PackedSymmetric};

    fn sparse_sample() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 3 0]
        CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]).unwrap(),
        )
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let a = sparse_sample();
        let b = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let c = spmm(1.0, &a, &b).unwrap();
        let reference = matmul(&a.to_dense(), &b).unwrap();
        assert!(c.approx_eq(&reference, 1e-12, 1e-12));
    }

    #[test]
    fn spmm_applies_alpha() {
        let a = sparse_sample();
        let b = DenseMatrix::identity(3);
        let c = spmm(-2.0, &a, &b).unwrap();
        let mut expected = a.to_dense();
        expected.scale(-2.0);
        assert!(c.approx_eq(&expected, 1e-12, 1e-12));
    }

    #[test]
    fn spmm_rejects_bad_shapes() {
        let a = sparse_sample();
        let b = DenseMatrix::<f64>::zeros(2, 2);
        assert!(spmm(1.0, &a, &b).is_err());
    }

    #[test]
    fn spmm_empty_dense_columns() {
        let a = sparse_sample();
        let b = DenseMatrix::<f64>::zeros(3, 0);
        let c = spmm(1.0, &a, &b).unwrap();
        assert_eq!(c.shape(), (2, 0));
    }

    #[test]
    fn spmm_zero_sparse_matrix() {
        let a = CsrMatrix::<f64>::zeros(4, 3);
        let b = DenseMatrix::<f64>::filled(3, 2, 1.0);
        let c = spmm(1.0, &a, &b).unwrap();
        assert_eq!(c, DenseMatrix::zeros(4, 2));
    }

    #[test]
    fn spmm_transpose_b_matches_dense_reference() {
        // K (4x4 symmetric-ish dense) times Vᵀ where V is 2x4 sparse
        let k = DenseMatrix::<f64>::from_fn(4, 4, |i, j| ((i + j) as f64).sin() + 0.5);
        let v = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[vec![0.5, 0.5, 0.0, 0.0], vec![0.0, 0.0, 1.0, 0.0]]).unwrap(),
        );
        let fast = spmm_transpose_b(-2.0, &k, &v).unwrap();
        let mut reference = matmul(&k, &v.to_dense().transpose()).unwrap();
        reference.scale(-2.0);
        assert!(fast.approx_eq(&reference, 1e-12, 1e-12));
        assert_eq!(fast.shape(), (4, 2));
    }

    #[test]
    fn spmm_transpose_b_rejects_bad_shapes() {
        let k = DenseMatrix::<f64>::zeros(4, 4);
        let v = CsrMatrix::<f64>::zeros(2, 5);
        assert!(spmm_transpose_b(1.0, &k, &v).is_err());
    }

    #[test]
    fn both_orientations_consistent_for_symmetric_dense() {
        // For symmetric K: (V * K)ᵀ == K * Vᵀ
        let base = DenseMatrix::<f64>::from_fn(5, 5, |i, j| ((i * 5 + j) as f64 * 0.3).cos());
        let mut k = base.clone();
        // symmetrise
        for i in 0..5 {
            for j in 0..5 {
                let avg = 0.5 * (base[(i, j)] + base[(j, i)]);
                k[(i, j)] = avg;
            }
        }
        let v = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[
                vec![1.0, 0.0, 0.0, 1.0, 0.0],
                vec![0.0, 0.5, 0.5, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0, 1.0],
            ])
            .unwrap(),
        );
        let left = spmm(1.0, &v, &k).unwrap(); // V*K : 3x5
        let right = spmm_transpose_b(1.0, &k, &v).unwrap(); // K*Vᵀ : 5x3
        assert!(left.transpose().approx_eq(&right, 1e-12, 1e-12));
    }

    #[test]
    fn flop_count() {
        assert_eq!(spmm_flops(10, 5), 100);
        assert_eq!(spmm_flops(0, 5), 0);
    }

    /// A CSR matrix storing *every* entry of `dense` — exact zeros included —
    /// so the sparse fold sees exactly the dense tile's operand sequence.
    fn csr_all_entries(dense: &DenseMatrix<f64>) -> CsrMatrix<f64> {
        let (rows, cols) = dense.shape();
        let mut row_ptrs = Vec::with_capacity(rows + 1);
        let mut col_indices = Vec::with_capacity(rows * cols);
        let mut values = Vec::with_capacity(rows * cols);
        row_ptrs.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                col_indices.push(j);
                values.push(v);
            }
            row_ptrs.push(values.len());
        }
        CsrMatrix::from_raw(rows, cols, row_ptrs, col_indices, values).unwrap()
    }

    #[test]
    fn selection_fold_is_bit_identical_to_dense_fold_at_full_density() {
        let n = 9;
        let k = 3;
        let kmat = DenseMatrix::<f64>::from_fn(n, n, |i, j| {
            ((i.min(j) * n + i.max(j)) as f64 * 0.37).sin() * 2.0
        });
        let labels: Vec<usize> = vec![0, 2, 0, 2, 2, 0, 2, 0, 2];
        // Cluster 1 is empty: its column must still match the dense -0.0.
        let mut cardinalities = vec![0usize; k];
        for &l in &labels {
            cardinalities[l] += 1;
        }
        let weights: Vec<f64> = cardinalities
            .iter()
            .map(|&c| if c == 0 { 0.0 } else { 1.0 / c as f64 })
            .collect();
        // The dense reference: V as explicit CSR, folded per tile.
        let mut v_rows = vec![vec![0.0f64; n]; k];
        for (l, &j) in labels.iter().enumerate() {
            v_rows[j][l] = weights[j];
        }
        let v = CsrMatrix::from_dense(&DenseMatrix::from_rows(&v_rows).unwrap());
        let sparse_k = csr_all_entries(&kmat);
        for tile_rows in [1usize, 2, 4, 9] {
            let mut dense_out = vec![0.0f64; n * k];
            let mut sparse_out = vec![0.0f64; n * k];
            let mut r0 = 0usize;
            while r0 < n {
                let r1 = (r0 + tile_rows).min(n);
                let tile = DenseMatrix::from_fn(r1 - r0, n, |li, j| kmat[(r0 + li, j)]);
                spmm_transpose_b_into(-2.0, &tile, &v, None, &mut dense_out[r0 * k..r1 * k])
                    .unwrap();
                spmm_csr_rows_selection_t_into(
                    -2.0,
                    sparse_k.rows_view(r0..r1),
                    &labels,
                    &weights,
                    None,
                    &mut sparse_out[r0 * k..r1 * k],
                    k,
                )
                .unwrap();
                r0 = r1;
            }
            for (i, (a, b)) in dense_out.iter().zip(sparse_out.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tile_rows {tile_rows} cell {i}: dense {a} sparse {b}"
                );
            }
        }
    }

    /// `alpha · Σ_l fma(v_jl, b_il, acc)` per cell, one cell at a time.
    fn fold_reference<T: Scalar>(alpha: T, b: &DenseMatrix<T>, a: &CsrMatrix<T>) -> Vec<T> {
        let mut out = Vec::with_capacity(b.rows() * a.rows());
        for i in 0..b.rows() {
            for j in 0..a.rows() {
                let (cols, vals) = a.row(j);
                let acc = cols
                    .iter()
                    .zip(vals)
                    .fold(T::ZERO, |acc, (&l, &v)| v.mul_add(b[(i, l)], acc));
                out.push(alpha * acc);
            }
        }
        out
    }

    fn check_fold_bits<T: Scalar>(m: usize, n: usize, d: usize, bits: fn(T) -> u64) {
        let b = awkward_dense::<T>(m, d, 1);
        let a = awkward_csr::<T>(n, d, 2);
        let alpha = T::from_f64(-2.0);
        let mut dispatched = vec![T::from_f64(7.0); m * n];
        spmm_transpose_b_into(alpha, &b, &a, None, &mut dispatched).unwrap();
        let mut generic = vec![T::from_f64(7.0); m * n];
        fold_transpose_b_rows(alpha, &b, &a, None, 0, &mut generic);
        let expected = fold_reference(alpha, &b, &a);
        for (cell, &want) in expected.iter().enumerate() {
            let at = format!("{m}x{n}x{d} cell {cell}");
            assert_eq!(bits(dispatched[cell]), bits(want), "dispatched: {at}");
            assert_eq!(bits(generic[cell]), bits(want), "generic: {at}");
        }
    }

    #[test]
    fn row_blocked_fold_matches_the_sequential_fma_reference_bit_for_bit() {
        // Row counts around the eight-row block, and d ∈ {0, 1, 7, 40}.
        for m in [1, 7, 8, 13, 17] {
            for n in [1, 3, 16] {
                for d in [0, 1, 7, 40] {
                    check_fold_bits::<f32>(m, n, d, |x| u64::from(x.to_bits()));
                    check_fold_bits::<f64>(m, n, d, f64::to_bits);
                }
            }
        }
    }

    /// The packed fold over ragged panels of a symmetric `K`'s lower
    /// triangle, each folded both through the public entry and through the
    /// generic body (one band over the panel's columns), then scaled by
    /// `−2`, against the gather's bits over the full matrix.
    fn check_symmetric_fold_bits<T: Scalar>(n: usize, bits: fn(T) -> u64) {
        let raw = awkward_dense::<T>(n, n, 3);
        let kmat = DenseMatrix::from_fn(n, n, |i, j| raw[(i.min(j), i.max(j))]);
        let packed = PackedSymmetric::from_lower(&kmat).unwrap();
        let k = 4;
        // Cluster 1 is empty.
        let labels: Vec<usize> = (0..n).map(|i| [0, 3, 0, 2, 3][i % 5]).collect();
        let selection = SelectionMatrix::<T>::from_assignments(&labels, k).unwrap();
        let weights: Vec<T> = selection
            .cardinalities()
            .iter()
            .map(|&c| match c {
                0 => T::ZERO,
                c => T::ONE / T::from_usize(c),
            })
            .collect();
        let alpha = T::from_f64(-2.0);
        let mut gathered = vec![T::ZERO; n * k];
        spmm_transpose_b_into(alpha, &kmat, selection.csr(), None, &mut gathered).unwrap();
        let all: Vec<usize> = (0..k).collect();
        for tile_rows in [1, 7, 8, 13, n] {
            let mut dispatched = vec![T::ZERO; k * n];
            let mut generic = vec![T::ZERO; k * n];
            let mut r0 = 0;
            while r0 < n {
                let r1 = (r0 + tile_rows).min(n);
                let panel = packed.rows(r0..r1);
                spmm_selection_lower_accumulate(panel, &selection, &weights, None, &mut dispatched)
                    .unwrap();
                let mut acc_rows: Vec<&mut [T]> = generic
                    .chunks_exact_mut(n)
                    .map(|row| &mut row[..r1])
                    .collect();
                fold_lower_band(
                    panel,
                    &selection,
                    &weights,
                    None,
                    &all,
                    0..r1,
                    &mut acc_rows,
                );
                r0 = r1;
            }
            for i in 0..n {
                for c in 0..k {
                    let want = bits(gathered[i * k + c]);
                    let at = format!("n {n} tile_rows {tile_rows} cell ({i},{c})");
                    assert_eq!(
                        bits(alpha * dispatched[c * n + i]),
                        want,
                        "dispatched: {at}"
                    );
                    assert_eq!(bits(alpha * generic[c * n + i]), want, "generic: {at}");
                }
            }
        }
    }

    #[test]
    fn selection_row_fold_over_symmetric_k_matches_the_gather_bit_for_bit() {
        for n in [13, 29, 40] {
            check_symmetric_fold_bits::<f32>(n, |x| u64::from(x.to_bits()));
            check_symmetric_fold_bits::<f64>(n, f64::to_bits);
        }
    }

    #[test]
    fn selection_row_fold_validates_its_inputs() {
        let packed = PackedSymmetric::from_fn(3, |_, _| 1.0f64);
        let selection = SelectionMatrix::<f64>::from_assignments(&[0, 1, 0], 2).unwrap();
        let weights = [0.5, 1.0];
        let mut acc = vec![0.0; 6];
        let panel = packed.rows(0..3);
        assert!(
            spmm_selection_lower_accumulate(panel, &selection, &weights, None, &mut acc).is_ok()
        );
        assert_eq!(acc, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let short = &mut acc[..4];
        assert!(spmm_selection_lower_accumulate(panel, &selection, &weights, None, short).is_err());
        let set = Some(&[true][..]);
        assert!(
            spmm_selection_lower_accumulate(panel, &selection, &weights, set, &mut acc).is_err()
        );
        assert!(
            spmm_selection_lower_accumulate(panel, &selection, &weights[..1], None, &mut acc)
                .is_err()
        );
        // A panel past the selection's points.
        let wide = PackedSymmetric::from_fn(4, |_, _| 1.0f64);
        assert!(matches!(
            spmm_selection_lower_accumulate(wide.rows(0..4), &selection, &weights, None, &mut acc),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn lower_bands_cover_the_panel_columns_in_order() {
        for (rows, parts) in [(0..1, 2), (0..40, 3), (10..20, 2), (39..40, 4), (5..6, 1)] {
            let bands = lower_bands(rows.clone(), parts);
            assert_eq!(bands.first().unwrap().start, 0);
            assert_eq!(bands.last().unwrap().end, rows.end);
            assert!(bands.windows(2).all(|w| w[0].end == w[1].start));
            assert!(bands.iter().all(|b| !b.is_empty()));
        }
        // The first step weighs more, so the later columns' bands narrow.
        let bands = lower_bands(0..4000, 2);
        assert!(bands[0].len() > bands[1].len(), "{bands:?}");
        assert_eq!(lower_bands(0..3, 8), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn selection_fold_validates_shapes() {
        let kmat = DenseMatrix::<f64>::filled(3, 3, 1.0);
        let csr = csr_all_entries(&kmat);
        let labels = vec![0usize, 1, 0];
        let weights = vec![0.5f64, 1.0];
        let mut out = vec![0.0f64; 6];
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels,
            &weights,
            None,
            &mut out,
            2
        )
        .is_ok());
        // Wrong label count.
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels[..2],
            &weights,
            None,
            &mut out,
            2
        )
        .is_err());
        // Wrong output size.
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels,
            &weights,
            None,
            &mut out[..4],
            2
        )
        .is_err());
        // Wrong weight count.
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels,
            &weights[..1],
            None,
            &mut out,
            2
        )
        .is_err());
    }

    /// Each fold under the cluster set `set`, into outputs holding a
    /// sentinel in every cell it may not write, against the same fold over
    /// every cluster: the set's cells match bit for bit and the others keep
    /// the sentinel.
    fn check_cluster_set<T: Scalar>(set: &[bool], bits: fn(T) -> u64) {
        let (n, k) = (29, set.len());
        let raw = awkward_dense::<T>(n, n, 5);
        let kmat = DenseMatrix::from_fn(n, n, |i, j| raw[(i.min(j), i.max(j))]);
        // The last cluster is empty.
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + i / 3) % (k - 1)).collect();
        let selection = SelectionMatrix::<T>::from_assignments(&labels, k).unwrap();
        let weights: Vec<T> = selection
            .cardinalities()
            .iter()
            .map(|&c| match c {
                0 => T::ZERO,
                c => T::ONE / T::from_usize(c),
            })
            .collect();
        let (alpha, sentinel) = (T::from_f64(-2.0), T::from_f64(7.0));
        let check = |full: &[T], subset: &[T], cluster_of: &dyn Fn(usize) -> usize, at: &str| {
            for (cell, (&want, &got)) in full.iter().zip(subset).enumerate() {
                let want = if set[cluster_of(cell)] {
                    want
                } else {
                    sentinel
                };
                assert_eq!(bits(got), bits(want), "{at} set {set:?} cell {cell}");
            }
        };

        let mut full = vec![sentinel; n * k];
        let mut subset = full.clone();
        spmm_transpose_b_into(alpha, &kmat, selection.csr(), None, &mut full).unwrap();
        spmm_transpose_b_into(alpha, &kmat, selection.csr(), Some(set), &mut subset).unwrap();
        check(&full, &subset, &|cell| cell % k, "gather");

        let csr = awkward_csr::<T>(n, n, 6);
        let mut full = vec![sentinel; n * k];
        let mut subset = full.clone();
        for (set, out) in [(None, &mut full), (Some(set), &mut subset)] {
            let view = csr.rows_view(0..n);
            spmm_csr_rows_selection_t_into(alpha, view, &labels, &weights, set, out, k).unwrap();
        }
        check(&full, &subset, &|cell| cell % k, "csr");

        // The packed path accumulates: the set's rows start from zero.
        let packed = PackedSymmetric::from_lower(&kmat).unwrap();
        let mut full = vec![T::ZERO; k * n];
        let mut subset = vec![sentinel; k * n];
        for (c, row) in subset.chunks_exact_mut(n).enumerate() {
            if set[c] {
                row.fill(T::ZERO);
            }
        }
        for rows in [0..7, 7..8, 8..n] {
            let panel = packed.rows(rows);
            spmm_selection_lower_accumulate(panel, &selection, &weights, None, &mut full).unwrap();
            spmm_selection_lower_accumulate(panel, &selection, &weights, Some(set), &mut subset)
                .unwrap();
        }
        check(&full, &subset, &|cell| cell / n, "rows");
    }

    #[test]
    fn cluster_sets_fold_only_their_clusters_bit_for_bit() {
        let sets: [&[bool]; 5] = [
            &[true, false, true, false, true],
            &[false, true, false, false, false],
            &[false, false, false, false, true],
            &[false; 5],
            &[true; 5],
        ];
        for set in sets {
            check_cluster_set::<f32>(set, |x| u64::from(x.to_bits()));
            check_cluster_set::<f64>(set, f64::to_bits);
        }
        let (b, a) = (DenseMatrix::<f64>::zeros(2, 3), sparse_sample());
        let mut out = vec![0.0; 4];
        assert!(spmm_transpose_b_into(1.0, &b, &a, Some(&[true; 2]), &mut out).is_ok());
        assert!(spmm_transpose_b_into(1.0, &b, &a, Some(&[true]), &mut out).is_err());
    }
}
