//! Compressed Sparse Row (CSR) matrix.
//!
//! CSR is the format cuSPARSE expects for SpMM and SpMV and the format the
//! paper stores the selection matrix `V` in (§4.1): a `values` array, a
//! `col_indices` array, and a `row_ptrs` array delimiting each row's slice of
//! the other two.
//!
//! The Gram product `B = A Aᵀ` of CSR points (paper §3.2) runs Gustavson's
//! row-wise SpGEMM over a column index of the matrix ([`GramIndex`]), built
//! in one counting-sort pass. Its column lists hold `u32` row ids beside the
//! values, and each stored entry `(i, c)` carries a precomputed cut: one
//! past row `i`'s position in column `c`'s list. The lower triangle's walk
//! of row `i` reads each column list up to that cut, so it touches only the
//! pairs it multiplies, with no search. The 32-bit ids are the width the
//! paper's cost model assumes (§4.4); a matrix of more than `u32::MAX` rows
//! gets a typed error from [`CsrMatrix::gram_index`], never a truncated id.

use crate::errors::SparseError;
use crate::Result;
use popcorn_dense::fma::dispatch;
use popcorn_dense::packed::par_packed_rows;
use popcorn_dense::parallel::par_chunks_rows;
use popcorn_dense::{symmetrize_lower, DenseMatrix, PackedSymmetric, Scalar, Triangle};
use std::borrow::Cow;

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
        // Every pointer is checked before any row is sliced: a pointer past
        // nnz inside a monotone prefix would otherwise slice past the end.
        if let Some(i) = row_ptrs.iter().position(|&p| p > values.len()) {
            return Err(SparseError::InvalidStructure {
                reason: format!(
                    "row_ptrs[{i}] = {} exceeds nnz {}",
                    row_ptrs[i],
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
    /// (the selection-matrix builder, SpGEMM, the libSVM reader). Debug builds
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

    /// The raw arrays `(row_ptrs, col_indices, values)`, handed back so a
    /// caller that rebuilds a matrix of the same kind can reuse them.
    pub fn into_raw(self) -> (Vec<usize>, Vec<usize>, Vec<T>) {
        (self.row_ptrs, self.col_indices, self.values)
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

    /// Transpose as a new CSR matrix (counting-sort over columns,
    /// `O(nnz + cols)`).
    pub fn transpose(&self) -> Self {
        let row_ptrs = slot_offsets(&self.col_indices, self.cols);
        let mut col_indices = vec![0usize; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut next = row_ptrs.clone();
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                col_indices[next[c]] = i;
                values[next[c]] = v;
                next[c] += 1;
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            row_ptrs,
            col_indices,
            values,
        }
    }

    /// The column slot of every stored entry: the column ids themselves
    /// when `cols ≤ nnz`, else each id's rank among the ids that occur.
    /// Either way no buffer sized by the slots outgrows the matrix, however
    /// large `cols` is. Built in `O(nnz log nnz)` at most.
    pub fn column_slots(&self) -> ColumnSlots<'_> {
        if self.cols <= self.nnz() {
            return ColumnSlots {
                entries: Cow::Borrowed(&self.col_indices),
                ids: None,
                width: self.cols,
            };
        }
        let mut ids = self.col_indices.clone();
        ids.sort_unstable();
        ids.dedup();
        let entries = self
            .col_indices
            .iter()
            .map(|c| ids.partition_point(|id| id < c))
            .collect();
        ColumnSlots {
            entries: Cow::Owned(entries),
            width: ids.len(),
            ids: Some(ids),
        }
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
    /// Builds the matrix's [`GramIndex`] and runs its row loop over all rows
    /// (see [`GramIndex::gram_rows`]): Gustavson's row-wise SpGEMM, touching
    /// only the pairs of stored entries that share a column, the work
    /// [`CsrMatrix::gram_flops`] counts. Output rows split evenly over the
    /// kernel threads; every entry is bit-identical to
    /// [`CsrMatrix::gram_sequential`]'s. Errs, as
    /// [`CsrMatrix::gram_index`] does, on more than `u32::MAX` rows.
    pub fn gram(&self) -> Result<DenseMatrix<T>> {
        Ok(self.gram_index()?.gram_rows(0, self.rows))
    }

    /// Single-threaded variant of [`CsrMatrix::gram`], for callers that model
    /// strictly sequential hosts (e.g. the single-core CPU reference solver):
    /// the rows of [`CsrMatrix::gram_sequential_packed`], whose arithmetic
    /// runs on one thread, mirrored into the upper triangle by
    /// [`symmetrize_lower`], which splits its rows across the kernel threads.
    /// Errs as [`CsrMatrix::gram_sequential_packed`] does.
    pub fn gram_sequential(&self) -> popcorn_dense::Result<DenseMatrix<T>> {
        let n = self.rows;
        let lower = self.gram_sequential_packed()?;
        let mut out = DenseMatrix::zeros(n, n);
        for i in 0..n {
            out.row_mut(i)[..=i].copy_from_slice(lower.row(i));
        }
        symmetrize_lower(&mut out, Triangle::Lower)?;
        Ok(out)
    }

    /// The lower triangle of the Gram matrix, packed, computed one row at a
    /// time on one thread: the single-core reference loop. Entry
    /// `(i, j ≤ i)` accumulates `fma(v_jc, a_ic, acc)` over row `j`'s stored
    /// entries in ascending `c`, reading `a_ic` from the scatter slot column
    /// `c` has. The scatter has one slot per column that occurs, so no
    /// buffer is sized by the feature count. A triangle that cannot be
    /// allocated is [`popcorn_dense::DenseError::AllocationFailed`].
    pub fn gram_sequential_packed(&self) -> popcorn_dense::Result<PackedSymmetric<T>> {
        let n = self.rows;
        let mut out = PackedSymmetric::zeros(n)?;
        if n == 0 {
            return Ok(out);
        }
        let column_slots = self.column_slots();
        let slots = column_slots.entries();
        let mut scatter = vec![T::ZERO; column_slots.width()];
        let row_slots = |i: usize| &slots[self.row_ptrs[i]..self.row_ptrs[i + 1]];
        for i in 0..n {
            let (slots_i, vals_i) = (row_slots(i), self.row(i).1);
            for (&s, &v) in slots_i.iter().zip(vals_i.iter()) {
                scatter[s] = v;
            }
            for (j, out_ij) in out.row_mut(i).iter_mut().enumerate() {
                let (slots_j, vals_j) = (row_slots(j), self.row(j).1);
                let mut acc = T::ZERO;
                for (&s, &v) in slots_j.iter().zip(vals_j.iter()) {
                    acc = v.mul_add(scatter[s], acc);
                }
                *out_ij = acc;
            }
            for &s in slots_i {
                scatter[s] = T::ZERO;
            }
        }
        Ok(out)
    }

    /// Entry `(i, j)` of [`CsrMatrix::gram_sequential`] on its own: with
    /// `lo = min(i, j)` and `hi = max(i, j)`, the fold over row `lo`'s
    /// stored entries in ascending `c` of `fma(x_lo_c, x_hi_c, acc)`, where
    /// `x_hi_c` is an exact `+0` when row `hi` stores no entry in column `c`
    /// (a merge join standing in for the reference loop's scatter).
    fn gram_entry(&self, i: usize, j: usize) -> T {
        let (cols_lo, vals_lo) = self.row(i.min(j));
        let (cols_hi, vals_hi) = self.row(i.max(j));
        let mut cursor = 0usize;
        let mut acc = T::ZERO;
        for (&c, &v) in cols_lo.iter().zip(vals_lo) {
            while cursor < cols_hi.len() && cols_hi[cursor] < c {
                cursor += 1;
            }
            let other = if cursor < cols_hi.len() && cols_hi[cursor] == c {
                vals_hi[cursor]
            } else {
                T::ZERO
            };
            acc = v.mul_add(other, acc);
        }
        acc
    }

    /// FMA-pair FLOP count of a Gustavson-style SpGEMM forming `A Aᵀ`: every
    /// pair of stored entries sharing a column contributes one multiply-add
    /// (2 FLOPs). Used to charge the sparse Gram computation to the cost
    /// model as an SpGEMM rather than a dense GEMM. Counts per occurring
    /// column, so it allocates `O(nnz)`, never `O(cols)`.
    pub fn gram_flops(&self) -> u64 {
        let slots = self.column_slots();
        slot_offsets(slots.entries(), slots.width())
            .windows(2)
            .map(|w| {
                let count = (w[1] - w[0]) as u64;
                2 * count * count
            })
            .sum()
    }

    /// The column index the Gram products walk (see [`GramIndex`]), built
    /// by one counting-sort pass over the stored entries in `O(nnz + rows)`
    /// time and memory.
    ///
    /// The index stores row ids as `u32`, and a cut can reach the row
    /// count, so more than `u32::MAX` rows is a
    /// [`SparseError::IndexOutOfBounds`] (naming the last row id and the
    /// bound `u32::MAX`), returned before anything is allocated.
    pub fn gram_index(&self) -> Result<GramIndex<'_, T>> {
        check_gram_rows(self.rows)?;
        let ColumnSlots {
            entries: slots,
            width,
            ..
        } = self.column_slots();
        let col_ptrs = slot_offsets(&slots, width);
        let mut column_entries = vec![
            ColumnEntry {
                row: 0,
                value: T::ZERO
            };
            slots.len()
        ];
        let mut cuts = vec![0u32; slots.len()];
        // Entries of each column slot written so far: rows arrive ascending,
        // so after row `i` writes its entry in slot `s`, the count is one
        // past row `i`'s position in that list.
        let mut written = vec![0u32; width];
        let mut non_finite_rows = Vec::new();
        for i in 0..self.rows {
            let row = u32::try_from(i).expect("row count checked against u32::MAX");
            let entries = self.row_ptrs[i]..self.row_ptrs[i + 1];
            let mut finite = true;
            for ((&s, &value), cut) in slots[entries.clone()]
                .iter()
                .zip(&self.values[entries.clone()])
                .zip(&mut cuts[entries])
            {
                column_entries[col_ptrs[s] + written[s] as usize] = ColumnEntry { row, value };
                written[s] += 1;
                *cut = written[s];
                finite &= value.is_finite();
            }
            if !finite {
                non_finite_rows.push(i);
            }
        }
        Ok(GramIndex {
            matrix: self,
            col_ptrs,
            column_entries,
            slots,
            cuts,
            non_finite_rows,
        })
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

/// Counting-sort offsets of entries by slot: `width + 1` pointers, slot
/// `s`'s entries taking positions `ptrs[s]..ptrs[s + 1]` of a list sorted
/// by slot. `O(entries + width)`.
fn slot_offsets(slots: &[usize], width: usize) -> Vec<usize> {
    let mut ptrs = vec![0usize; width + 1];
    for &s in slots {
        ptrs[s + 1] += 1;
    }
    for s in 0..width {
        ptrs[s + 1] += ptrs[s];
    }
    ptrs
}

/// The row-count guard of [`CsrMatrix::gram_index`]: row ids and cuts are
/// `u32`, and a cut can reach the row count.
fn check_gram_rows(rows: usize) -> Result<()> {
    if rows > u32::MAX as usize {
        return Err(SparseError::IndexOutOfBounds {
            index: rows - 1,
            bound: u32::MAX as usize,
        });
    }
    Ok(())
}

/// A numbering of the columns a [`CsrMatrix`] stores entries in
/// ([`CsrMatrix::column_slots`]): a scatter of one row, or of a row of
/// another matrix with the same columns, needs one slot per occurring
/// column, never one per feature.
#[derive(Debug, Clone)]
pub struct ColumnSlots<'a> {
    /// The slot of every stored entry, in CSR order.
    entries: Cow<'a, [usize]>,
    /// The column ids that occur, ascending, when the slots are their
    /// ranks; `None` when the slots are the column ids themselves.
    ids: Option<Vec<usize>>,
    width: usize,
}

impl ColumnSlots<'_> {
    /// Number of slots.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The slot of every stored entry, in CSR order: stored entry `e` sits
    /// in column slot `entries()[e]`.
    pub fn entries(&self) -> &[usize] {
        &self.entries
    }

    /// The slot of column `col`, or `None` when it has none, in which case
    /// no stored entry is in column `col`.
    pub fn slot_of(&self, col: usize) -> Option<usize> {
        match &self.ids {
            None => (col < self.width).then_some(col),
            Some(ids) => ids.binary_search(&col).ok(),
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

/// One entry of a [`GramIndex`] column list: a row storing the column, and
/// its value there. 8 bytes for `f32`.
#[derive(Debug, Clone, Copy)]
struct ColumnEntry<T> {
    row: u32,
    value: T,
}

/// The column index of a [`CsrMatrix`] that its Gram products walk, built
/// once per matrix by [`CsrMatrix::gram_index`].
///
/// It holds, for each column that occurs, the rows storing it in ascending
/// order, each a `u32` id beside its value in one list; each stored entry's
/// column slot; each stored entry's cut (below); and which rows hold a
/// non-finite value. When `cols ≤ nnz` the slots are the column ids, and
/// wider matrices number their occurring columns first, so memory is
/// `O(nnz + rows)`, never `O(cols)`: for `f32`, 12 bytes per stored entry
/// (an 8-byte list entry and a 4-byte cut) besides the slots, which a
/// matrix with `cols ≤ nnz` borrows. One counting-sort pass over the
/// stored entries, row by row, writes the lists and the cuts. More than
/// `u32::MAX` rows is an error, not a truncated id.
///
/// [`GramIndex::gram_rows`] is the one row loop behind
/// [`CsrMatrix::gram`] and the tiled kernel's CSR panels. Output row `i` is
/// computed in three steps:
///
/// 1. zero-fill the row;
/// 2. for each stored `(c, x_ic)` of row `i` in ascending `c`, and each
///    `(j, x_jc)` of column `c`, set `B[i][j] = fma(x_jc, x_ic, B[i][j])`;
/// 3. the exact fix-up below.
///
/// Entry `(j, i)` gets the same products in the same ascending-`c` order,
/// and the fused product is exact and commutes, so the output is bitwise
/// symmetric without a mirror pass. [`GramIndex::gram_lower_rows_with`]
/// computes the lower triangle alone: each column's row list ascends, so
/// row `i`'s walk stops at row `i`, and about half the multiply-adds go.
/// Where it stops is precomputed: the cut of stored entry `(i, c)` is one
/// past row `i`'s position in column `c`'s list, so the walk reads exactly
/// the pairs it multiplies and searches nothing.
///
/// The reference ([`CsrMatrix::gram_sequential`]) folds entry `(i, j)`
/// over row `lo = min(i, j)`, multiplying by row `hi = max(i, j)`'s value
/// or by `+0` where `hi` stores none. With finite values each such extra
/// `fma(x, +0, acc)` adds a `±0`, which can only turn an accumulator of
/// `−0` into `+0`, and every later `fma` maps the accumulators `−0` and
/// `+0` either to one value or to `−0` and `+0` again. So the two sums are
/// equal, except that the reference may read `+0` where the structural sum
/// is `−0`. With `x = ±∞` the reference gets `∞·0 = NaN`. The fix-up
/// therefore recomputes an entry with the reference's own fold whenever
/// row `i` or row `j` holds a non-finite value or the structural value is
/// `−0`: one branch-free scan per row while it is in cache, and entry by
/// entry only when the scan hits.
#[derive(Debug)]
pub struct GramIndex<'a, T: Scalar> {
    matrix: &'a CsrMatrix<T>,
    /// Column slot `s`'s list is `column_entries[col_ptrs[s]..col_ptrs[s + 1]]`.
    col_ptrs: Vec<usize>,
    /// The rows storing each column slot, ascending, with their values.
    column_entries: Vec<ColumnEntry<T>>,
    /// Column slot of each stored entry of `matrix`, in CSR order.
    slots: Cow<'a, [usize]>,
    /// Cut of each stored entry `(i, c)` of `matrix`, in CSR order: one past
    /// row `i`'s position in column `c`'s list.
    cuts: Vec<u32>,
    /// The rows storing a ±∞ or NaN, ascending.
    non_finite_rows: Vec<usize>,
}

impl<T: Scalar> GramIndex<'_, T> {
    /// Rows `r0..r1` of the Gram matrix `B = A Aᵀ`, bit-identical to the
    /// same rows of [`CsrMatrix::gram_sequential`]. Rows split evenly over
    /// the kernel threads.
    pub fn gram_rows(&self, r0: usize, r1: usize) -> DenseMatrix<T> {
        self.gram_rows_with(r0, r1, |_, _, _| {})
    }

    /// [`GramIndex::gram_rows`] with a per-row epilogue: once row `i` of the
    /// Gram matrix is final (after its fix-up), `epilogue(i, 0, row)` runs on
    /// it while it is in cache, on the thread that computed it. A product
    /// whose entries are mapped (the kernel matrix, paper §4.2) thus stores
    /// them mapped, with no second pass over the output.
    pub fn gram_rows_with(
        &self,
        r0: usize,
        r1: usize,
        epilogue: impl Fn(usize, usize, &mut [T]) + Sync,
    ) -> DenseMatrix<T> {
        let n = self.matrix.rows;
        assert!(
            r0 <= r1 && r1 <= n,
            "panel rows {r0}..{r1} out of range for {n} rows"
        );
        let mut out = DenseMatrix::zeros(r1 - r0, n);
        par_chunks_rows(out.as_mut_slice(), n, |first, chunk| {
            dispatch(
                #[inline(always)]
                || self.fill_rows(r0 + first, chunk, &epilogue),
            )
        });
        out
    }

    /// [`GramIndex::gram_rows_with`] for the lower triangle alone: the packed
    /// rows `r0..r1`, row `i` holding `B[i, 0..=i]` (the
    /// [`popcorn_dense::PackedRows`] layout), each bit-identical to the same
    /// entries of [`GramIndex::gram_rows`]. Row `i`'s walk reads each
    /// column's rows only up to `i`, to the stored entry's cut, and its
    /// fix-up covers only `j ≤ i`. Rows split across the kernel threads by
    /// their packed length. Rows that cannot be allocated are
    /// [`popcorn_dense::DenseError::AllocationFailed`].
    pub fn gram_lower_rows_with(
        &self,
        r0: usize,
        r1: usize,
        epilogue: impl Fn(usize, usize, &mut [T]) + Sync,
    ) -> popcorn_dense::Result<Vec<T>> {
        let n = self.matrix.rows;
        assert!(
            r0 <= r1 && r1 <= n,
            "panel rows {r0}..{r1} out of range for {n} rows"
        );
        par_packed_rows(r0..r1, |rows, chunk| {
            dispatch(
                #[inline(always)]
                || {
                    let mut rest = chunk;
                    for i in rows {
                        let (out_row, tail) = rest.split_at_mut(i + 1);
                        self.structural_row(i, out_row);
                        self.fix_up_row(i, out_row);
                        epilogue(i, 0, out_row);
                        rest = tail;
                    }
                },
            )
        })
    }

    /// Gustavson FLOP count of rows `r0..r1` of the Gram matrix: two for
    /// each pair of a stored entry in those rows and a stored entry in its
    /// column. Summing over a disjoint cover of `0..rows` reproduces
    /// [`CsrMatrix::gram_flops`] exactly. `O(panel nnz)`.
    pub fn panel_flops(&self, r0: usize, r1: usize) -> u64 {
        let entries = self.matrix.row_ptrs[r0]..self.matrix.row_ptrs[r1];
        self.slots[entries]
            .iter()
            .map(|&s| 2 * (self.col_ptrs[s + 1] - self.col_ptrs[s]) as u64)
            .sum()
    }

    /// Whole Gram rows from `first_row` on into `chunk`, each structural
    /// walk followed by its fix-up and the epilogue. Inlined so the
    /// callers' FMA dispatch covers it.
    #[inline(always)]
    fn fill_rows(
        &self,
        first_row: usize,
        chunk: &mut [T],
        epilogue: &impl Fn(usize, usize, &mut [T]),
    ) {
        let n = self.matrix.rows;
        for (i, out_row) in (first_row..).zip(chunk.chunks_exact_mut(n)) {
            self.structural_row(i, out_row);
            self.fix_up_row(i, out_row);
            epilogue(i, 0, out_row);
        }
    }

    /// Steps 1 and 2 of row `i` over the columns `out_row` holds: all `n`,
    /// reading each column list to its end, or the lower triangle's
    /// `0..=i`, reading it to the stored entry's cut.
    #[inline(always)]
    fn structural_row(&self, i: usize, out_row: &mut [T]) {
        // Writing the row first faults each fresh output page in once; a
        // read-modify-write first touch would fault it in twice.
        out_row.fill(T::ZERO);
        let full = out_row.len() == self.matrix.rows;
        let entries = self.matrix.row_ptrs[i]..self.matrix.row_ptrs[i + 1];
        for ((&s, &cut), &x_ic) in self.slots[entries.clone()]
            .iter()
            .zip(&self.cuts[entries.clone()])
            .zip(&self.matrix.values[entries])
        {
            let start = self.col_ptrs[s];
            let end = if full {
                self.col_ptrs[s + 1]
            } else {
                start + cut as usize
            };
            for &ColumnEntry { row, value: x_jc } in &self.column_entries[start..end] {
                let j = row as usize;
                out_row[j] = x_jc.mul_add(x_ic, out_row[j]);
            }
        }
    }

    /// Step 3 of row `i` over the columns `out_row` holds: recompute with
    /// the reference fold every entry whose row or column holds a
    /// non-finite value, or whose structural value is `−0`.
    #[inline(always)]
    fn fix_up_row(&self, i: usize, out_row: &mut [T]) {
        let m = self.matrix;
        if self.non_finite_rows.binary_search(&i).is_ok() {
            for (j, out) in out_row.iter_mut().enumerate() {
                *out = m.gram_entry(i, j);
            }
            return;
        }
        let width = out_row.len();
        for &j in self.non_finite_rows.iter().take_while(|&&j| j < width) {
            out_row[j] = m.gram_entry(i, j);
        }
        // A branch-free scan: a hit is rare, a branch per entry is not.
        let any_negative_zero = out_row
            .iter()
            .fold(false, |hit, &x| hit | is_negative_zero(x));
        if any_negative_zero {
            for (j, out) in out_row.iter_mut().enumerate() {
                if is_negative_zero(*out) {
                    *out = m.gram_entry(i, j);
                }
            }
        }
    }
}

/// Whether `x` is `−0`, by its bits.
#[inline(always)]
fn is_negative_zero<T: Scalar>(x: T) -> bool {
    x.to_f64().to_bits() == (-0.0f64).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::packed_offset;
    use popcorn_dense::parallel::NUM_THREADS_ENV;

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
    fn column_slots_number_the_columns_that_occur() {
        // Three columns, four entries: the slots are the column ids.
        let narrow = sample();
        let slots = narrow.column_slots();
        assert_eq!((slots.width(), slots.entries()), (3, &[0, 2, 0, 1][..]));
        assert_eq!((slots.slot_of(1), slots.slot_of(3)), (Some(1), None));
        // More columns than entries: the slots are ranks of the ids that
        // occur, and a column no entry stores has none.
        let wide = CsrMatrix::<f64>::from_raw(
            2,
            1 << 40,
            vec![0, 2, 3],
            vec![7, 1 << 39, 7],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let slots = wide.column_slots();
        assert_eq!((slots.width(), slots.entries()), (2, &[0, 1, 0][..]));
        assert_eq!(slots.slot_of(1 << 39), Some(1));
        assert_eq!((slots.slot_of(0), slots.slot_of(8)), (None, None));
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
        // Monotone up to a pointer past nnz: rejected, not sliced.
        let e =
            CsrMatrix::<f64>::from_raw(2, 2, vec![0, 999_999_999, 2], vec![0, 1], vec![1.0, 2.0]);
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
        let gram = sparse.gram().unwrap();
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
        let gram = sparse.gram().unwrap();
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
        assert_eq!(sparse.gram_sequential().unwrap(), sparse.gram().unwrap());
    }

    fn check_gram_bits<T: Scalar>(m: &CsrMatrix<T>, bits: fn(T) -> u64) {
        let (n, d) = m.shape();
        // Entry (i, j ≤ i) walks row j's stored entries against row i;
        // the upper triangle mirrors it.
        let lower = |i: usize, j: usize| {
            let (cols, vals) = m.row(j);
            cols.iter()
                .zip(vals)
                .fold(T::ZERO, |acc, (&c, &v)| v.mul_add(m.get(i, c), acc))
        };
        let dispatched = m.gram().unwrap();
        let mut generic = DenseMatrix::zeros(n, n);
        m.gram_index()
            .unwrap()
            .fill_rows(0, generic.as_mut_slice(), &|_, _, _| {});
        let sequential = m.gram_sequential().unwrap();
        let packed = m.gram_sequential_packed().unwrap();
        let index = m.gram_index().unwrap();
        let panel = index.gram_rows(0, n);
        let whole = index.gram_lower_rows_with(0, n, |_, _, _| {}).unwrap();
        // Ragged panels of the lower walk, joined.
        let cuts = [0, n / 3, n / 3 + 1, n];
        let joined: Vec<T> = cuts
            .windows(2)
            .flat_map(|w| {
                index
                    .gram_lower_rows_with(w[0], w[1], |_, _, _| {})
                    .unwrap()
            })
            .collect();
        for i in 0..n {
            for j in 0..n {
                let want = bits(if j <= i { lower(i, j) } else { lower(j, i) });
                // Formatted only when an assert fails.
                let at = || format!("{n}x{d} entry ({i},{j})");
                assert_eq!(bits(dispatched[(i, j)]), want, "gram: {}", at());
                assert_eq!(bits(generic[(i, j)]), want, "undispatched body: {}", at());
                assert_eq!(bits(sequential[(i, j)]), want, "gram_sequential: {}", at());
                assert_eq!(bits(panel[(i, j)]), want, "gram_rows: {}", at());
                assert_eq!(
                    bits(packed[(i, j)]),
                    want,
                    "gram_sequential_packed: {}",
                    at()
                );
                if j <= i {
                    let at_packed = packed_offset(i) + j;
                    assert_eq!(bits(whole[at_packed]), want, "lower walk: {}", at());
                    assert_eq!(bits(joined[at_packed]), want, "lower panels: {}", at());
                }
            }
        }
    }

    /// `m` with column `c` moved to `c · stride + 1`: the same Gram over
    /// `stride` times the columns.
    fn spread_columns<T: Scalar>(m: &CsrMatrix<T>, stride: usize) -> CsrMatrix<T> {
        let col_indices = m.col_indices().iter().map(|&c| c * stride + 1).collect();
        CsrMatrix::from_raw(
            m.rows(),
            m.cols() * stride,
            m.row_ptrs().to_vec(),
            col_indices,
            m.values().to_vec(),
        )
        .unwrap()
    }

    /// Entries where the structural walk alone reads `−0` and the
    /// reference `+0`: the ones only the fix-up's `−0` rule repairs.
    fn negative_zero_repairs<T: Scalar>(m: &CsrMatrix<T>) -> usize {
        let n = m.rows();
        let (index, reference) = (m.gram_index().unwrap(), m.gram_sequential().unwrap());
        let mut row = vec![T::ZERO; n];
        (0..n)
            .map(|i| {
                index.structural_row(i, &mut row);
                (0..n)
                    .filter(|&j| {
                        is_negative_zero(row[j]) && reference[(i, j)].to_f64().to_bits() == 0
                    })
                    .count()
            })
            .sum()
    }

    #[test]
    fn gram_paths_match_the_sequential_fma_reference_bit_for_bit() {
        use crate::test_values::{awkward_csr, finite_awkward_csr};
        // Row counts around the thread split, and d ∈ {0, 1, 7, 40}: one
        // input with ±∞ among its values, and one finite.
        let shapes = [(1, 0), (5, 1), (9, 7), (23, 40)];
        for (n, d) in shapes {
            for m in [awkward_csr::<f32>(n, d, 3), finite_awkward_csr(n, d, 3)] {
                check_gram_bits(&m, |x| u64::from(x.to_bits()));
            }
            for m in [awkward_csr::<f64>(n, d, 3), finite_awkward_csr(n, d, 3)] {
                check_gram_bits(&m, f64::to_bits);
            }
        }
        // The finite input needs the `−0` rule: without it, some entries
        // would differ from the reference.
        // A tall matrix whose columns each hold a few hundred rows, so cuts
        // run past 255 and the ragged panels cut column lists mid-way; and a
        // wide one, with more columns than stored entries, whose column
        // slots are ranks.
        let tall = [awkward_csr::<f32>(520, 2, 3), finite_awkward_csr(520, 2, 3)];
        for m in &tall {
            let index = m.gram_index().unwrap();
            assert!(index.cuts.iter().any(|&cut| cut > 300), "{:?}", m.shape());
            check_gram_bits(m, |x| u64::from(x.to_bits()));
        }
        for m in [awkward_csr::<f64>(23, 7, 3), finite_awkward_csr(23, 7, 3)] {
            let wide = spread_columns(&m, 1 << 20);
            assert!(wide.cols() > wide.nnz());
            assert_ne!(wide.column_slots().entries(), wide.col_indices());
            check_gram_bits(&wide, f64::to_bits);
        }
        let (mut f32_repairs, mut f64_repairs) = (0, 0);
        for (n, d) in shapes {
            f32_repairs += negative_zero_repairs(&finite_awkward_csr::<f32>(n, d, 3));
            f64_repairs += negative_zero_repairs(&finite_awkward_csr::<f64>(n, d, 3));
        }
        assert!(
            f32_repairs > 0 && f64_repairs > 0,
            "{f32_repairs} {f64_repairs}"
        );
        // The kernel thread count is fixed per process, so the test reruns
        // itself in child processes at one and three kernel threads.
        if std::env::var_os(NUM_THREADS_ENV).is_none() {
            let module = module_path!().split_once("::").expect("crate path").1;
            let test =
                format!("{module}::gram_paths_match_the_sequential_fma_reference_bit_for_bit");
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

    #[test]
    fn more_rows_than_u32_ids_is_a_typed_error_that_allocates_nothing() {
        // No arrays at all: the guard must answer before anything is read
        // or allocated.
        let m = CsrMatrix::<f32> {
            rows: u32::MAX as usize + 1,
            cols: 1,
            row_ptrs: Vec::new(),
            col_indices: Vec::new(),
            values: Vec::new(),
        };
        let want = SparseError::IndexOutOfBounds {
            index: u32::MAX as usize,
            bound: u32::MAX as usize,
        };
        assert_eq!(m.gram_index().err(), Some(want.clone()));
        assert_eq!(m.gram().err(), Some(want));
        // The last row id `u32::MAX - 1` and the cut `u32::MAX` still fit.
        assert_eq!(check_gram_rows(u32::MAX as usize), Ok(()));
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
        assert_eq!(z.gram().unwrap().shape(), (0, 0));
        let no_entries = CsrMatrix::<f64>::zeros(3, 5);
        assert_eq!(no_entries.gram().unwrap(), DenseMatrix::zeros(3, 3));
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
        let full = sparse.gram().unwrap();
        let index = sparse.gram_index().unwrap();
        for (r0, r1) in [(0, 11), (0, 1), (3, 7), (10, 11), (5, 5)] {
            let panel = index.gram_rows(r0, r1);
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
    fn sequential_gram_of_astronomical_feature_indices_matches_gram() {
        // 2^61 f32 columns: a scatter sized by the feature count would need
        // 2^63 bytes. Both Grams size theirs by the columns that occur.
        let cols = 1usize << 61;
        let m = CsrMatrix::from_raw(
            3,
            cols,
            vec![0, 2, 4, 7],
            vec![1, cols - 1, 2, 3, 1, 3, cols - 1],
            vec![0.5f32, 1.0, -0.25, 1.0, 1.0, 1e-40, 0.5],
        )
        .unwrap();
        let bits = |g: DenseMatrix<f32>| g.as_slice().iter().map(|v| v.to_bits()).collect();
        let (sequential, gram): (Vec<u32>, Vec<u32>) =
            (bits(m.gram_sequential().unwrap()), bits(m.gram().unwrap()));
        assert_eq!(sequential, gram);
        assert_eq!(f32::from_bits(gram[0]), 1.25);
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
        let index = sparse.gram_index().unwrap();
        let total: u64 =
            index.panel_flops(0, 4) + index.panel_flops(4, 9) + index.panel_flops(9, 10);
        assert_eq!(total, sparse.gram_flops());
        assert_eq!(index.panel_flops(0, 10), sparse.gram_flops());
        assert_eq!(index.panel_flops(3, 3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gram_panel_rejects_out_of_range_rows() {
        let m = CsrMatrix::<f64>::zeros(3, 3);
        let _ = m.gram_index().unwrap().gram_rows(1, 4);
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
