//! The one fold of `K` by the selection matrix `V` (paper Eq. 10), shared by
//! every pass over `K` that runs on the fast kernels: the Popcorn engine's
//! `E = −2·K·Vᵀ`, the dense baseline's per-iteration row reduction and model
//! extraction's statistics pass.
//!
//! The row sums `Σ_{q ∈ L_c} K[i][q]` the baseline and extraction need are
//! the same product with `V`'s stored values set to one (the indicator,
//! [`SelectionMatrix::indicator`]) and no trailing scale. Each tile takes
//! one of three paths, all in `popcorn-sparse`:
//!
//! * sources with symmetric tiles ([`KernelSource::symmetric_tiles`]) fold
//!   `Eᵀ = V·K` row by row into a `k × n` accumulator
//!   ([`spmm_selection_rows_accumulate`]), streaming `K` once, and the pass
//!   ends by writing `E = scale·(Eᵀ)ᵀ`;
//! * other dense tiles gather `E = scale·K·Vᵀ` eight rows at a time
//!   ([`spmm_transpose_b_into`]);
//! * CSR panels scatter their stored entries
//!   ([`spmm_csr_rows_selection_t_into`]).
//!
//! Every cell `(i, c)` accumulates `fma(w_c, K[i][l], acc)` over `l ∈ L_c`
//! ascending from `+0`, then takes the scale once. Under unit weights that
//! is the plain loop `acc += K[i][l]` bit for bit: `fma(1, x, acc)` rounds
//! `acc + x` once, exactly as `+=` does, and `1·acc` is `acc`. The CPU
//! reference keeps its own sequential loops ([`crate::rowsum`]); the tests
//! there compare the two.
//!
//! The fold charges nothing: each caller runs it under its own record.

use crate::kernel_source::KernelSource;
use crate::Result;
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_sparse::{
    spmm_csr_rows_selection_t_into, spmm_selection_rows_accumulate, spmm_transpose_b_into,
    CsrMatrix, CsrRows, SelectionMatrix,
};
use std::ops::Range;

/// What each member of a cluster contributes to the fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FoldWeights {
    /// `V`'s stored values `1/|L_c|`: Popcorn's `K·Vᵀ`.
    Mean,
    /// The indicator's ones: the plain row sums `Σ_{q ∈ L_c} K[i][q]`.
    Unit,
}

/// One pass of `K` folded by `V` into an `n × k` matrix, tile by tile (see
/// the module docs). The buffers live across passes: `E` is recycled from
/// the caller's last distance matrix, and the `k × n` accumulator of the
/// symmetric path is host scratch, which the modeled device never holds.
pub(crate) struct SelectionFold<T: Scalar> {
    weights: FoldWeights,
    scale: T,
    /// This pass's `V`, with its labels and cluster sizes.
    selection: Option<SelectionMatrix<T>>,
    /// The weight of each cluster's members, bitwise `V`'s stored values
    /// (or ones), for the row and CSR paths.
    cluster_weights: Vec<T>,
    /// The indicator of `V`, which the gather walks under unit weights.
    indicator: Option<CsrMatrix<T>>,
    /// Whether this pass's tiles fold row by row into `e_t`.
    symmetric: bool,
    e: Option<DenseMatrix<T>>,
    /// Recycled `n × k` buffer, zero-filled and reused as the next `E`.
    spare: Option<DenseMatrix<T>>,
    /// The `k × n` accumulator of `Eᵀ` on the symmetric path.
    e_t: Vec<T>,
    /// `diag(K)` read off the tiles of the pass that asked for it.
    diag: Vec<T>,
    collect_diag: bool,
}

impl<T: Scalar> SelectionFold<T> {
    /// A fold under `weights` whose output cells take `scale` once.
    pub(crate) fn new(weights: FoldWeights, scale: f64) -> Self {
        Self {
            weights,
            scale: T::from_f64(scale),
            selection: None,
            cluster_weights: Vec::new(),
            indicator: None,
            symmetric: false,
            e: None,
            spare: None,
            e_t: Vec::new(),
            diag: Vec::new(),
            collect_diag: false,
        }
    }

    /// Start a pass of `source` under `selection`, zeroing the accumulators.
    /// With `collect_diag` the pass also reads `diag(K)` off its tiles:
    /// `tile[i][i]`, or a CSR row's stored diagonal entry (zero if absent).
    pub(crate) fn begin(
        &mut self,
        source: &dyn KernelSource<T>,
        selection: SelectionMatrix<T>,
        collect_diag: bool,
    ) {
        let (n, k) = (selection.n(), selection.k());
        self.cluster_weights.clear();
        match self.weights {
            FoldWeights::Mean => self
                .cluster_weights
                .extend(crate::distances::selection_weights(&selection)),
            FoldWeights::Unit => self.cluster_weights.resize(k, T::ONE),
        }
        let csr = source.csr().is_some();
        self.symmetric = !csr && source.symmetric_tiles();
        if self.symmetric {
            self.e_t.clear();
            self.e_t.resize(k * n, T::ZERO);
        }
        let gathers = !csr && !self.symmetric;
        self.indicator =
            (gathers && self.weights == FoldWeights::Unit).then(|| selection.indicator());
        self.selection = Some(selection);
        self.e = Some(match self.spare.take() {
            Some(mut spare) if spare.rows() == n && spare.cols() == k => {
                spare.fill(T::ZERO);
                spare
            }
            _ => DenseMatrix::zeros(n, k),
        });
        self.collect_diag = collect_diag;
        if collect_diag {
            self.diag.clear();
            self.diag.resize(n, T::ZERO);
        }
    }

    /// This pass's selection matrix.
    pub(crate) fn selection(&self) -> &SelectionMatrix<T> {
        self.selection.as_ref().expect("begin ran")
    }

    /// Fold the row tile `tile = K[rows, :]`.
    pub(crate) fn tile(&mut self, rows: Range<usize>, tile: &DenseMatrix<T>) -> Result<()> {
        let selection = self.selection.as_ref().expect("begin ran");
        if self.collect_diag {
            for (local, i) in rows.clone().enumerate() {
                self.diag[i] = tile.row(local)[i];
            }
        }
        if self.symmetric {
            let labels = &selection.assignments()[rows];
            spmm_selection_rows_accumulate(tile, labels, &self.cluster_weights, &mut self.e_t)?;
        } else {
            let k = selection.k();
            let v = self.indicator.as_ref().unwrap_or(selection.csr());
            let e = self.e.as_mut().expect("begin ran");
            // Rows r0..r1 of the row-major `E` are contiguous.
            let out = &mut e.as_mut_slice()[rows.start * k..rows.end * k];
            spmm_transpose_b_into(self.scale, tile, v, out)?;
        }
        Ok(())
    }

    /// Fold the CSR row panel `panel = K[rows, :]`.
    pub(crate) fn csr_panel(&mut self, rows: Range<usize>, panel: CsrRows<'_, T>) -> Result<()> {
        let selection = self.selection.as_ref().expect("begin ran");
        if self.collect_diag {
            for (local, i) in rows.clone().enumerate() {
                let (cols, vals) = panel.row(local);
                self.diag[i] = cols
                    .iter()
                    .position(|&c| c == i)
                    .map_or(T::ZERO, |p| vals[p]);
            }
        }
        let k = selection.k();
        let e = self.e.as_mut().expect("begin ran");
        let out = &mut e.as_mut_slice()[rows.start * k..rows.end * k];
        let (labels, weights) = (selection.assignments(), &self.cluster_weights);
        spmm_csr_rows_selection_t_into(self.scale, panel, labels, weights, out, k)?;
        Ok(())
    }

    /// End the pass: the `n × k` fold, `E[i][c] = scale · acc[i][c]`.
    pub(crate) fn finish(&mut self) -> DenseMatrix<T> {
        let mut e = self.e.take().expect("begin ran");
        if self.symmetric {
            let (n, k) = e.shape();
            for (i, row) in e.as_mut_slice().chunks_exact_mut(k).enumerate() {
                for (c, cell) in row.iter_mut().enumerate() {
                    *cell = self.scale * self.e_t[c * n + i];
                }
            }
        }
        e
    }

    /// `diag(K)` as collected by the last pass that asked for it.
    pub(crate) fn diag(&self) -> &[T] {
        &self.diag
    }

    /// Hand an `n × k` buffer back for reuse as the next pass's `E`.
    pub(crate) fn recycle(&mut self, buffer: DenseMatrix<T>) {
        self.spare = Some(buffer);
    }
}
