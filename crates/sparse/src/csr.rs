//! Compressed Sparse Row (CSR) matrix.
//!
//! CSR is the format cuSPARSE expects for SpMM and SpMV and the format the
//! paper stores the selection matrix `V` in (§4.1): a `values` array, a
//! `col_indices` array, and a `row_ptrs` array delimiting each row's slice of
//! the other two.

use crate::csc::CscMatrix;
use crate::errors::SparseError;
use crate::Result;
use popcorn_dense::fma::dispatch;
use popcorn_dense::parallel::{num_threads, par_chunks_rows_ranges, triangular_ranges};
use popcorn_dense::{symmetrize_lower, DenseMatrix, Scalar, Triangle};

/// Output rows one walk of a sparse row fills in [`CsrMatrix::gram`]: each
/// stored entry meets eight scattered source rows at once, eight independent
/// FMA chains.
const GRAM_ROWS: usize = 8;

/// A sparse matrix in Compressed Sparse Row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    row_ptrs: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build a CSR matrix from raw arrays, validating the structure:
    /// `row_ptrs` must have length `rows + 1`, start at 0, be monotone
    /// non-decreasing and end at `nnz`; every column index must be `< cols`
    /// and strictly increasing within a row.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptrs: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self> {
        if row_ptrs.len() != rows + 1 {
            return Err(SparseError::InvalidStructure {
                reason: format!(
                    "row_ptrs length {} != rows + 1 = {}",
                    row_ptrs.len(),
                    rows + 1
                ),
            });
        }
        if row_ptrs[0] != 0 {
            return Err(SparseError::InvalidStructure {
                reason: format!("row_ptrs[0] = {} (must be 0)", row_ptrs[0]),
            });
        }
        if col_indices.len() != values.len() {
            return Err(SparseError::InvalidStructure {
                reason: format!(
                    "col_indices length {} != values length {}",
                    col_indices.len(),
                    values.len()
                ),
            });
        }
        if *row_ptrs.last().expect("non-empty row_ptrs") != values.len() {
            return Err(SparseError::InvalidStructure {
                reason: format!(
                    "row_ptrs last entry {} != nnz {}",
                    row_ptrs.last().unwrap(),
                    values.len()
                ),
            });
        }
        for i in 0..rows {
            if row_ptrs[i] > row_ptrs[i + 1] {
                return Err(SparseError::InvalidStructure {
                    reason: format!("row_ptrs not monotone at row {i}"),
                });
            }
            let mut prev: Option<usize> = None;
            for &c in &col_indices[row_ptrs[i]..row_ptrs[i + 1]] {
                if c >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: c,
                        bound: cols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::InvalidStructure {
                            reason: format!("column indices not strictly increasing in row {i}"),
                        });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptrs,
            col_indices,
            values,
        })
    }

    /// Build a CSR matrix from raw arrays without validation.
    ///
    /// Intended for internal constructors that guarantee well-formed inputs
    /// (COO conversion, the selection-matrix builder, SpGEMM). Debug builds
    /// still assert the basic length invariants.
    pub fn from_raw_unchecked(
        rows: usize,
        cols: usize,
        row_ptrs: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptrs.len(), rows + 1);
        debug_assert_eq!(col_indices.len(), values.len());
        debug_assert_eq!(*row_ptrs.last().unwrap_or(&0), values.len());
        let _ = cols;
        Self {
            rows,
            cols,
            row_ptrs,
            col_indices,
            values,
        }
    }

    /// An empty (all-zero) CSR matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptrs: vec![0; rows + 1],
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n x n` identity as CSR.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            row_ptrs: (0..=n).collect(),
            col_indices: (0..n).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn row_ptrs(&self) -> &[usize] {
        &self.row_ptrs
    }

    /// Column index array (`nnz` entries).
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// Value array (`nnz` entries).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable value array (structure stays fixed).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// The `(col_indices, values)` slices of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let start = self.row_ptrs[i];
        let end = self.row_ptrs[i + 1];
        (&self.col_indices[start..end], &self.values[start..end])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptrs[i + 1] - self.row_ptrs[i]
    }

    /// Value at `(i, j)`, or zero if not stored.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => T::ZERO,
        }
    }

    /// Fraction of entries that are stored: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Convert to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                out[(i, j)] = v;
            }
        }
        out
    }

    /// Build a CSR matrix from the non-zero entries of a dense matrix.
    pub fn from_dense(dense: &DenseMatrix<T>) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptrs = Vec::with_capacity(rows + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_ptrs.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != T::ZERO {
                    col_indices.push(j);
                    values.push(v);
                }
            }
            row_ptrs.push(values.len());
        }
        Self {
            rows,
            cols,
            row_ptrs,
            col_indices,
            values,
        }
    }

    /// Transpose as a new CSR matrix (counting-sort over columns, O(nnz)).
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_indices {
            counts[c + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let row_ptrs_t = counts.clone();
        let mut col_indices_t = vec![0usize; self.nnz()];
        let mut values_t = vec![T::ZERO; self.nnz()];
        let mut next = counts;
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                let pos = next[j];
                col_indices_t[pos] = i;
                values_t[pos] = v;
                next[j] += 1;
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            row_ptrs: row_ptrs_t,
            col_indices: col_indices_t,
            values: values_t,
        }
    }

    /// Convert to CSC format (equivalent to transposing the CSR structure).
    pub fn to_csc(&self) -> CscMatrix<T> {
        let t = self.transpose();
        CscMatrix::from_raw_unchecked(self.rows, self.cols, t.row_ptrs, t.col_indices, t.values)
    }

    /// Scale every stored value in place.
    pub fn scale(&mut self, alpha: T) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Memory footprint in bytes assuming `index_bytes`-wide indices, as used
    /// by the cost model (the paper assumes 32-bit indices, §4.4).
    pub fn storage_bytes(&self, value_bytes: usize, index_bytes: usize) -> u64 {
        (self.values.len() * value_bytes
            + self.col_indices.len() * index_bytes
            + self.row_ptrs.len() * index_bytes) as u64
    }

    /// The Gram matrix `B = A Aᵀ` of this matrix's rows, as a dense
    /// `rows × rows` output.
    ///
    /// This is the sparse analogue of the GEMM/SYRK Gram computation the
    /// paper performs on dense point matrices (§3.2): `B[i][j]` is the inner
    /// product of sparse rows `i` and `j`, so the kernel matrix of a sparse
    /// dataset can be formed without ever densifying the points. The output
    /// is dense because row inner products of real feature matrices are
    /// almost never structurally zero — and the downstream algorithm consumes
    /// a dense kernel matrix anyway.
    ///
    /// Work is distributed over output rows; each worker scatters a block of
    /// its source rows into a dense accumulator of `cols` entries once, then
    /// streams the rows of their lower triangle against it (the upper
    /// triangle is mirrored, like the dense SYRK path), giving
    /// `O(rows · nnz / 2)` inner-product work independent of the (possibly
    /// enormous) feature dimension. Every entry is the same sequential `fma`
    /// fold as [`CsrMatrix::gram_sequential`]'s, so the two agree bit for bit.
    pub fn gram(&self) -> DenseMatrix<T> {
        let n = self.rows;
        let mut out = DenseMatrix::zeros(n, n);
        if n == 0 {
            return out;
        }
        // Row i of the lower triangle streams i+1 rows, so the partition is
        // balanced by triangular weight, not row count.
        let ranges = triangular_ranges(n, num_threads());
        par_chunks_rows_ranges(out.as_mut_slice(), n, &ranges, |start_row, chunk| {
            let mut scatter = vec![[T::ZERO; GRAM_ROWS]; self.cols];
            dispatch(
                #[inline(always)]
                || self.gram_fill_lower_blocked(start_row, chunk, &mut scatter),
            )
        });
        symmetrize_lower(&mut out, Triangle::Lower).expect("gram output is square");
        out
    }

    /// Single-threaded variant of [`CsrMatrix::gram`], for callers that model
    /// strictly sequential hosts (e.g. the single-core CPU reference solver).
    pub fn gram_sequential(&self) -> DenseMatrix<T> {
        let n = self.rows;
        let mut out = DenseMatrix::zeros(n, n);
        if n == 0 {
            return out;
        }
        let mut scatter = vec![T::ZERO; self.cols];
        self.gram_fill_lower_rows(0, out.as_mut_slice(), &mut scatter);
        symmetrize_lower(&mut out, Triangle::Lower).expect("gram output is square");
        out
    }

    /// Compute the lower-triangle Gram entries for a contiguous block of
    /// output rows, one row at a time: the single-core reference loop of
    /// [`CsrMatrix::gram_sequential`]. Entry `(i, j ≤ i)` accumulates
    /// `fma(v_jc, a_ic, acc)` over row `j`'s stored entries in ascending `c`.
    fn gram_fill_lower_rows(&self, start_row: usize, chunk: &mut [T], scatter: &mut [T]) {
        let n = self.rows;
        for (local_i, out_row) in chunk.chunks_exact_mut(n).enumerate() {
            let i = start_row + local_i;
            let (cols_i, vals_i) = self.row(i);
            for (&c, &v) in cols_i.iter().zip(vals_i.iter()) {
                scatter[c] = v;
            }
            for (j, out_ij) in out_row.iter_mut().enumerate().take(i + 1) {
                let (cols_j, vals_j) = self.row(j);
                let mut acc = T::ZERO;
                for (&c, &v) in cols_j.iter().zip(vals_j.iter()) {
                    acc = v.mul_add(scatter[c], acc);
                }
                *out_ij = acc;
            }
            for &c in cols_i {
                scatter[c] = T::ZERO;
            }
        }
    }

    /// [`CsrMatrix::gram_fill_lower_rows`] with [`GRAM_ROWS`] source rows
    /// scattered side by side, so one walk of row `j` feeds all of them into
    /// independent accumulators. Each entry keeps the reference loop's
    /// operand sequence; only the entries `j ≤ i` are written. `scatter`
    /// holds `cols` zeroed slots and is left zeroed. Inlined so the callers'
    /// FMA dispatch covers it.
    #[inline(always)]
    fn gram_fill_lower_blocked(
        &self,
        start_row: usize,
        chunk: &mut [T],
        scatter: &mut [[T; GRAM_ROWS]],
    ) {
        let n = self.rows;
        for (block, out) in chunk.chunks_mut(GRAM_ROWS * n).enumerate() {
            let i0 = start_row + block * GRAM_ROWS;
            let rows = out.len() / n;
            for (r, i) in (i0..i0 + rows).enumerate() {
                let (cols, vals) = self.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    scatter[c][r] = v;
                }
            }
            for j in 0..i0 + rows {
                let (cols_j, vals_j) = self.row(j);
                let mut acc = [T::ZERO; GRAM_ROWS];
                for (&c, &v) in cols_j.iter().zip(vals_j) {
                    for (acc_r, &a_rc) in acc.iter_mut().zip(&scatter[c]) {
                        *acc_r = v.mul_add(a_rc, *acc_r);
                    }
                }
                // Row i0 + r keeps its lower triangle: r >= j - i0.
                for (r, &sum) in acc[..rows].iter().enumerate().skip(j.saturating_sub(i0)) {
                    out[r * n + j] = sum;
                }
            }
            for (r, i) in (i0..i0 + rows).enumerate() {
                for &c in self.row(i).0 {
                    scatter[c][r] = T::ZERO;
                }
            }
        }
    }

    /// FMA-pair FLOP count of a Gustavson-style SpGEMM forming `A Aᵀ`: every
    /// pair of stored entries sharing a column contributes one multiply-add
    /// (2 FLOPs). Used to charge the sparse Gram computation to the cost
    /// model as an SpGEMM rather than a dense GEMM.
    pub fn gram_flops(&self) -> u64 {
        let mut column_counts = vec![0u64; self.cols];
        for &c in &self.col_indices {
            column_counts[c] += 1;
        }
        column_counts.iter().map(|&c| 2 * c * c).sum()
    }

    /// A contiguous row panel `B[r0..r1, :]` of the Gram matrix `B = A Aᵀ`,
    /// **bit-identical** to the same rows of [`CsrMatrix::gram`] /
    /// [`CsrMatrix::gram_sequential`].
    ///
    /// This is the compute kernel of the streaming/tiled kernel-matrix path:
    /// out-of-core fits recompute one panel at a time instead of holding the
    /// full `n × n` Gram matrix, and clustering results must not depend on
    /// that choice. Bit-identity requires reproducing `gram`'s exact
    /// accumulation orders: entries with `j ≤ i` iterate row `j`'s stored
    /// entries against a scatter of row `i` (the lower-triangle order), while
    /// entries with `j > i` — which `gram` fills by mirroring `B[j][i]` —
    /// iterate row `i`'s stored entries against row `j` (a merge join standing
    /// in for the scatter of row `j`, multiplying by an exact `0` where row
    /// `j` has no entry, just as the scatter buffer would).
    pub fn gram_panel(&self, r0: usize, r1: usize) -> DenseMatrix<T> {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "panel rows {r0}..{r1} out of range for {} rows",
            self.rows
        );
        let n = self.rows;
        let mut out = DenseMatrix::zeros(r1 - r0, n);
        if n == 0 || r0 == r1 {
            return out;
        }
        let mut scatter = vec![[T::ZERO; GRAM_ROWS]; self.cols];
        dispatch(
            #[inline(always)]
            || {
                // Lower triangle (j <= i): gram's own loop.
                self.gram_fill_lower_blocked(r0, out.as_mut_slice(), &mut scatter);
                for (local_i, out_row) in out.as_mut_slice().chunks_exact_mut(n).enumerate() {
                    let i = r0 + local_i;
                    // Mirror region (j > i): gram computes B[j][i] with row
                    // i's entries driving the accumulation; replay that order.
                    let (cols_i, vals_i) = self.row(i);
                    for (j, out_ij) in out_row.iter_mut().enumerate().skip(i + 1) {
                        let (cols_j, vals_j) = self.row(j);
                        let mut cursor = 0usize;
                        let mut acc = T::ZERO;
                        for (&c, &v) in cols_i.iter().zip(vals_i.iter()) {
                            while cursor < cols_j.len() && cols_j[cursor] < c {
                                cursor += 1;
                            }
                            let other = if cursor < cols_j.len() && cols_j[cursor] == c {
                                vals_j[cursor]
                            } else {
                                T::ZERO
                            };
                            acc = v.mul_add(other, acc);
                        }
                        *out_ij = acc;
                    }
                }
            },
        );
        out
    }

    /// Stored entries per column — the histogram the Gustavson FLOP counts
    /// are computed from. Depends only on the (immutable) structure, so
    /// repeat panel pricers compute it once and reuse it via
    /// [`CsrMatrix::gram_panel_flops_with`].
    pub fn column_counts(&self) -> Vec<u64> {
        let mut column_counts = vec![0u64; self.cols];
        for &c in &self.col_indices {
            column_counts[c] += 1;
        }
        column_counts
    }

    /// Gustavson FLOP count of [`CsrMatrix::gram_panel`] for rows `r0..r1`:
    /// each pair of stored entries sharing a column, with one member in the
    /// panel rows, contributes one multiply-add. Summing over a disjoint
    /// cover of `0..rows` reproduces [`CsrMatrix::gram_flops`] exactly.
    pub fn gram_panel_flops(&self, r0: usize, r1: usize) -> u64 {
        self.gram_panel_flops_with(&self.column_counts(), r0, r1)
    }

    /// [`CsrMatrix::gram_panel_flops`] against a precomputed
    /// [`CsrMatrix::column_counts`] histogram, so per-tile pricing costs
    /// `O(panel nnz)` instead of rescanning the whole matrix per tile.
    pub fn gram_panel_flops_with(&self, column_counts: &[u64], r0: usize, r1: usize) -> u64 {
        let mut flops = 0u64;
        for i in r0..r1 {
            let (cols_i, _) = self.row(i);
            for &c in cols_i {
                flops += 2 * column_counts[c];
            }
        }
        flops
    }

    /// A zero-copy view of the contiguous row panel `self[r0..r1, :]`.
    ///
    /// The view borrows this matrix's arrays directly — no indptr rebasing,
    /// no copying — so streaming consumers (the CSR-resident kernel-matrix
    /// path) can hand out row panels at any tile height for free.
    pub fn rows_view(&self, rows: std::ops::Range<usize>) -> CsrRows<'_, T> {
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "panel rows {}..{} out of range for {} rows",
            rows.start,
            rows.end,
            self.rows
        );
        CsrRows {
            first_row: rows.start,
            row_ptrs: &self.row_ptrs[rows.start..=rows.end],
            col_indices: &self.col_indices,
            values: &self.values,
            cols: self.cols,
        }
    }
}

/// A borrowed view of a contiguous row panel of a [`CsrMatrix`].
///
/// `row_ptrs` holds the panel's `rows + 1` pointer entries with their
/// **absolute** offsets into `col_indices` / `values` (which cover the whole
/// matrix), so constructing a view never copies or rebases anything. Views
/// are `Copy`: they are three slices and two integers.
#[derive(Debug, Clone, Copy)]
pub struct CsrRows<'a, T: Scalar> {
    first_row: usize,
    row_ptrs: &'a [usize],
    col_indices: &'a [usize],
    values: &'a [T],
    cols: usize,
}

impl<'a, T: Scalar> CsrRows<'a, T> {
    /// Absolute index of the panel's first row in the owning matrix.
    pub fn first_row(&self) -> usize {
        self.first_row
    }

    /// Number of rows in the panel.
    pub fn row_count(&self) -> usize {
        self.row_ptrs.len() - 1
    }

    /// Number of columns of the owning matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entries in the panel.
    pub fn nnz(&self) -> usize {
        self.row_ptrs[self.row_ptrs.len() - 1] - self.row_ptrs[0]
    }

    /// The `(col_indices, values)` slices of panel row `local`
    /// (absolute row `first_row + local`).
    pub fn row(&self, local: usize) -> (&'a [usize], &'a [T]) {
        let start = self.row_ptrs[local];
        let end = self.row_ptrs[local + 1];
        (&self.col_indices[start..end], &self.values[start..end])
    }

    /// Value at `(local, j)`, or zero if not stored (binary search).
    pub fn get(&self, local: usize, j: usize) -> T {
        let (cols, vals) = self.row(local);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => T::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn from_raw_valid() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.row_nnz(1), 0);
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn from_raw_rejects_bad_rowptr_length() {
        let e = CsrMatrix::<f64>::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(e.is_err());
    }

    #[test]
    fn from_raw_rejects_nonzero_start() {
        let e = CsrMatrix::<f64>::from_raw(1, 2, vec![1, 1], vec![], vec![]);
        assert!(e.is_err());
    }

    #[test]
    fn from_raw_rejects_non_monotone() {
        let e = CsrMatrix::<f64>::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure { .. })));
    }

    #[test]
    fn from_raw_rejects_bad_column() {
        let e = CsrMatrix::<f64>::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(
            e,
            Err(SparseError::IndexOutOfBounds { index: 5, bound: 2 })
        ));
    }

    #[test]
    fn from_raw_rejects_unsorted_columns() {
        let e = CsrMatrix::<f64>::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(e.is_err());
    }

    #[test]
    fn from_raw_rejects_mismatched_nnz() {
        let e = CsrMatrix::<f64>::from_raw(1, 3, vec![0, 3], vec![0, 1], vec![1.0, 2.0]);
        assert!(e.is_err());
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 1)], 0.0);
        assert_eq!(d[(2, 1)], 4.0);
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(back, m);
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::<f64>::identity(3);
        assert_eq!(i.to_dense(), DenseMatrix::identity(3));
        let z = CsrMatrix::<f64>::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.to_dense(), DenseMatrix::zeros(2, 5));
        assert_eq!(z.density(), 0.0);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert!(t
            .to_dense()
            .approx_eq(&m.to_dense().transpose(), 1e-12, 1e-12));
        // transpose twice is identity
        assert_eq!(t.transpose().to_dense(), m.to_dense());
    }

    #[test]
    fn transpose_rectangular() {
        let d = DenseMatrix::from_rows(&[vec![0.0f64, 1.0, 0.0, 2.0], vec![3.0, 0.0, 0.0, 0.0]])
            .unwrap();
        let m = CsrMatrix::from_dense(&d);
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 2));
        assert!(t.to_dense().approx_eq(&d.transpose(), 1e-12, 1e-12));
    }

    #[test]
    fn csc_conversion_matches() {
        let m = sample();
        let csc = m.to_csc();
        assert_eq!(csc.shape(), m.shape());
        assert!(csc.to_dense().approx_eq(&m.to_dense(), 1e-12, 1e-12));
    }

    #[test]
    fn scale_values() {
        let mut m = sample();
        m.scale(-2.0);
        assert_eq!(m.get(0, 0), -2.0);
        assert_eq!(m.get(2, 1), -8.0);
    }

    #[test]
    fn storage_bytes_accounting() {
        let m = sample();
        // 4 values * 4B + 4 col idx * 4B + 4 row ptrs * 4B = 48
        assert_eq!(m.storage_bytes(4, 4), 48);
    }

    #[test]
    fn empty_shape_edge_cases() {
        let z = CsrMatrix::<f64>::zeros(0, 0);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.transpose().shape(), (0, 0));
        assert_eq!(z.density(), 0.0);
    }

    #[test]
    fn gram_matches_dense_reference() {
        let dense = DenseMatrix::from_rows(&[
            vec![1.0f64, 0.0, 2.0, 0.0],
            vec![0.0, 3.0, 0.0, 0.0],
            vec![-1.0, 0.0, 0.5, 4.0],
        ])
        .unwrap();
        let sparse = CsrMatrix::from_dense(&dense);
        let gram = sparse.gram();
        let reference = popcorn_dense::matmul_nt(&dense, &dense).unwrap();
        assert!(gram.approx_eq(&reference, 1e-12, 1e-12));
        // symmetric by construction
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(gram[(i, j)], gram[(j, i)]);
            }
        }
    }

    #[test]
    fn gram_of_wide_sparse_matrix() {
        // scotus-shaped: many more features than points, ~99% zeros.
        let dense = DenseMatrix::from_fn(8, 400, |i, j| {
            if (i * 131 + j * 17) % 97 == 0 {
                1.0 + (i + j) as f64 * 0.01
            } else {
                0.0
            }
        });
        let sparse = CsrMatrix::from_dense(&dense);
        assert!(sparse.density() < 0.05);
        let gram = sparse.gram();
        let reference = popcorn_dense::matmul_nt(&dense, &dense).unwrap();
        assert!(gram.approx_eq(&reference, 1e-12, 1e-12));
    }

    #[test]
    fn gram_sequential_matches_parallel_gram() {
        let dense = DenseMatrix::from_fn(9, 40, |i, j| {
            if (i * 13 + j * 7) % 5 == 0 {
                (i + j) as f64 * 0.3 - 1.0
            } else {
                0.0
            }
        });
        let sparse = CsrMatrix::from_dense(&dense);
        assert_eq!(sparse.gram_sequential(), sparse.gram());
    }

    fn check_gram_bits<T: Scalar>(n: usize, d: usize, bits: fn(T) -> u64) {
        let m = crate::test_values::awkward_csr::<T>(n, d, 3);
        // Entry (i, j ≤ i) walks row j's stored entries against row i;
        // the upper triangle mirrors it.
        let lower = |i: usize, j: usize| {
            let (cols, vals) = m.row(j);
            cols.iter()
                .zip(vals)
                .fold(T::ZERO, |acc, (&c, &v)| v.mul_add(m.get(i, c), acc))
        };
        let dispatched = m.gram();
        let mut generic = DenseMatrix::zeros(n, n);
        let mut scatter = vec![[T::ZERO; GRAM_ROWS]; d];
        m.gram_fill_lower_blocked(0, generic.as_mut_slice(), &mut scatter);
        symmetrize_lower(&mut generic, Triangle::Lower).unwrap();
        let sequential = m.gram_sequential();
        let panel = m.gram_panel(0, n);
        for i in 0..n {
            for j in 0..n {
                let want = bits(if j <= i { lower(i, j) } else { lower(j, i) });
                let at = format!("{n}x{d} entry ({i},{j})");
                assert_eq!(bits(dispatched[(i, j)]), want, "gram: {at}");
                assert_eq!(bits(generic[(i, j)]), want, "undispatched body: {at}");
                assert_eq!(bits(sequential[(i, j)]), want, "gram_sequential: {at}");
                assert_eq!(bits(panel[(i, j)]), want, "gram_panel: {at}");
            }
        }
    }

    #[test]
    fn gram_paths_match_the_sequential_fma_reference_bit_for_bit() {
        // Row counts around the eight-row block, and d ∈ {0, 1, 7, 40}.
        for (n, d) in [(1, 0), (5, 1), (9, 7), (23, 40)] {
            check_gram_bits::<f32>(n, d, |x| u64::from(x.to_bits()));
            check_gram_bits::<f64>(n, d, f64::to_bits);
        }
    }

    #[test]
    fn gram_flops_counts_column_pairs() {
        // Column 0 has 2 entries, column 1 has 1: 2*(2^2) + 2*(1^2) = 10.
        let m = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[vec![1.0f64, 0.0], vec![2.0, 3.0]]).unwrap(),
        );
        assert_eq!(m.gram_flops(), 10);
        assert_eq!(CsrMatrix::<f64>::zeros(3, 3).gram_flops(), 0);
    }

    #[test]
    fn gram_empty_matrix() {
        let z = CsrMatrix::<f64>::zeros(0, 0);
        assert_eq!(z.gram().shape(), (0, 0));
        let no_entries = CsrMatrix::<f64>::zeros(3, 5);
        assert_eq!(no_entries.gram(), DenseMatrix::zeros(3, 3));
    }

    #[test]
    fn gram_panel_is_bit_identical_to_full_gram_rows() {
        // The invariant the streaming kernel-matrix path rests on: any row
        // panel reproduces the full Gram's rows bit for bit, including the
        // mirrored upper triangle.
        let dense = DenseMatrix::from_fn(11, 60, |i, j| {
            if (i * 13 + j * 7) % 4 == 0 {
                ((i * 60 + j) as f64 * 0.31).sin() * 2.0
            } else {
                0.0
            }
        });
        let sparse = CsrMatrix::from_dense(&dense);
        let full = sparse.gram();
        for (r0, r1) in [(0, 11), (0, 1), (3, 7), (10, 11), (5, 5)] {
            let panel = sparse.gram_panel(r0, r1);
            assert_eq!(panel.shape(), (r1 - r0, 11));
            for i in r0..r1 {
                for j in 0..11 {
                    assert_eq!(
                        panel[(i - r0, j)].to_bits(),
                        full[(i, j)].to_bits(),
                        "panel {r0}..{r1} entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_panel_flops_partition_the_full_count() {
        let dense = DenseMatrix::from_fn(10, 30, |i, j| {
            if (i + j) % 3 == 0 {
                (i * 30 + j) as f64 * 0.1
            } else {
                0.0
            }
        });
        let sparse = CsrMatrix::from_dense(&dense);
        let total: u64 = sparse.gram_panel_flops(0, 4)
            + sparse.gram_panel_flops(4, 9)
            + sparse.gram_panel_flops(9, 10);
        assert_eq!(total, sparse.gram_flops());
        assert_eq!(sparse.gram_panel_flops(0, 10), sparse.gram_flops());
        assert_eq!(sparse.gram_panel_flops(3, 3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gram_panel_rejects_out_of_range_rows() {
        let m = CsrMatrix::<f64>::zeros(3, 3);
        m.gram_panel(1, 4);
    }

    #[test]
    fn rows_view_matches_owning_rows() {
        let m = sample();
        for r0 in 0..=3 {
            for r1 in r0..=3 {
                let panel = m.rows_view(r0..r1);
                assert_eq!(panel.first_row(), r0);
                assert_eq!(panel.row_count(), r1 - r0);
                assert_eq!(panel.cols(), 3);
                let mut nnz = 0;
                for local in 0..(r1 - r0) {
                    let (pc, pv) = panel.row(local);
                    let (mc, mv) = m.row(r0 + local);
                    assert_eq!(pc, mc);
                    assert_eq!(pv, mv);
                    nnz += pc.len();
                    for j in 0..3 {
                        assert_eq!(panel.get(local, j), m.get(r0 + local, j));
                    }
                }
                assert_eq!(panel.nnz(), nnz);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_view_rejects_out_of_range() {
        let m = CsrMatrix::<f64>::zeros(3, 3);
        let _ = m.rows_view(2..4);
    }
}
