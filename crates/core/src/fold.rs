//! The one fold of `K` by the selection matrix `V` (paper Eq. 10), shared by
//! every pass over `K` that runs on the fast kernels: the Popcorn engine's
//! `E = −2·K·Vᵀ`, the dense baseline's per-iteration row reduction and model
//! extraction's statistics pass.
//!
//! The row sums `Σ_{q ∈ L_c} K[i][q]` the baseline and extraction need are
//! the same product with `V`'s stored values set to one (the indicator,
//! [`SelectionMatrix::indicator`]) and no trailing scale. Each panel takes
//! the path of its kind ([`Panel`]), all in `popcorn-sparse`:
//!
//! * packed lower panels of a symmetric `K` fold `Eᵀ = V·K` into a `k × n`
//!   accumulator ([`spmm_selection_lower_accumulate`]), each stored entry
//!   read once for the two cells it feeds, and the pass ends by writing
//!   `E = scale·(Eᵀ)ᵀ`;
//! * dense row tiles gather `E = scale·K·Vᵀ` eight rows at a time
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
//! # Folding only the clusters that changed
//!
//! Cell `(i, c)` depends on `K` and on cluster `c`'s member set, and on
//! nothing else: its weight, its operands `K[i][l]` for `l ∈ L_c` and their
//! ascending order. Every pass of a fit yields the same bits of `K` (the
//! tiling, shard and recovery suites pin that). So the fold keeps the
//! accumulator of the last pass that reached [`SelectionFold::finish`], and
//! the next pass over the same source refolds only the *dirty* clusters,
//! those a point entered or left since. The clean clusters keep their cells,
//! bit for bit what a full pass would compute. This is the exact, bound-free
//! case of skipping work whose result cannot change (Elkan, ICML 2003;
//! Hamerly, SDM 2010). A pass folds every cluster when there is no such
//! last pass: on a fresh fold or after [`SelectionFold::forget`] (each fit's
//! first iteration), over another source (by address), `n` or `k`, or when
//! the last pass never finished.
//!
//! # Reading only the columns dirty clusters read
//!
//! On the gather path a pass that refolds some but not all clusters reads
//! only the columns of `K` whose point now belongs to a dirty cluster. It
//! names them ([`SelectionFold::columns`]), so a source that reconstructs
//! its tiles ([`crate::nystrom::NystromKernel`]) produces just those
//! columns ([`KernelSource::for_each_tile_of`]). A compact tile folds under
//! `V` restricted to the listed columns: each dirty cluster's row keeps its
//! members at their positions in the list, so cell `(i, c)` meets the same
//! operands in the same ascending order, and the clean clusters' cells stay
//! untouched. A full-width tile folds as before, so a source may ignore the
//! request. A pass that collects `diag(K)` needs every tile row's own column
//! and requests none.
//!
//! The fold charges nothing: each caller runs it under its own record, which
//! prices the paper's full SpMM whatever the cache skips.

use crate::kernel_source::{KernelSource, Panel, PanelKind};
use crate::Result;
use popcorn_dense::{DenseMatrix, PackedRows, Scalar};
use popcorn_sparse::{
    spmm_csr_rows_selection_t_into, spmm_selection_lower_accumulate, spmm_transpose_b_into,
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
/// the module docs). The accumulator lives across passes, as the cache of
/// the clusters that did not change; it is host scratch, which the modeled
/// device never holds. `E` is recycled from the caller's last distance
/// matrix.
pub(crate) struct SelectionFold<T: Scalar> {
    weights: FoldWeights,
    scale: T,
    /// This pass's `V`, with its labels and cluster sizes; the last pass's
    /// until the next `begin`.
    selection: Option<SelectionMatrix<T>>,
    /// The weight of each cluster's members, bitwise `V`'s stored values
    /// (or ones), for the row and CSR paths.
    cluster_weights: Vec<T>,
    /// The indicator of `V`, which the gather walks under unit weights.
    indicator: Option<CsrMatrix<T>>,
    /// Whether this pass's panels are packed lower rows, folded into `Eᵀ`.
    lower: bool,
    /// `Eᵀ` (`k × n`, unscaled) on the lower path; `E` (`n × k`, scaled) on
    /// the gather and CSR paths, whose output `E` becomes the distance
    /// matrix in place and so cannot keep the values.
    acc: Vec<T>,
    /// The pass in progress, from `begin` to `finish`.
    pass: Option<PassKey>,
    /// The last pass that reached `finish`, unless another pass began
    /// since: `acc` then holds its fold under `selection`'s labels.
    folded: Option<PassKey>,
    /// Per cluster, whether this pass refolds it.
    dirty: Vec<bool>,
    /// Whether this pass reads only `columns`.
    narrow: bool,
    /// The columns a narrow pass reads: the points whose cluster is dirty,
    /// ascending.
    columns: Vec<usize>,
    /// `V` restricted to `columns` (`k × columns.len()`): a dirty cluster's
    /// row holds its members' positions in `columns` under its weight, a
    /// clean cluster's row is empty. Rebuilt in its own buffers each pass.
    restricted: Option<CsrMatrix<T>>,
    /// Recycled `n × k` buffer, reused as the next `E`.
    spare: Option<DenseMatrix<T>>,
    /// `diag(K)` read off the tiles of the pass that asked for it.
    diag: Vec<T>,
    collect_diag: bool,
}

/// What a pass folds: its source and shape. The source is kept by address
/// alone (the data pointer, as `std::ptr::addr_eq` compares it, stored as an
/// integer so the fold stays `Send`); a source fixes the fold's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PassKey {
    source: usize,
    n: usize,
    k: usize,
}

/// The clusters a pass folds, as the kernels take them: `Some(None)` when
/// every cluster is dirty, so a full pass runs the kernels' full path, and
/// `None` when none is, so the pass calls no kernel.
fn refold(dirty: &[bool]) -> Option<Option<&[bool]>> {
    if dirty.iter().all(|&d| d) {
        Some(None)
    } else {
        dirty.contains(&true).then_some(Some(dirty))
    }
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
            lower: false,
            acc: Vec::new(),
            pass: None,
            folded: None,
            dirty: Vec::new(),
            narrow: false,
            columns: Vec::new(),
            restricted: None,
            spare: None,
            diag: Vec::new(),
            collect_diag: false,
        }
    }

    /// Fold every cluster on the next pass. Engines call this on each fit's
    /// first iteration, so no cache outlives its fit.
    pub(crate) fn forget(&mut self) {
        self.folded = None;
    }

    /// Start a pass of `source` under `selection`: mark the clusters it
    /// refolds, zero their accumulator rows and, on a gather pass that
    /// refolds some but not all clusters, list the columns it reads. With
    /// `collect_diag` the pass also reads `diag(K)` off its tiles:
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
        let kind = source.panel_kind();
        self.lower = kind == PanelKind::Lower;
        let gathers = kind == PanelKind::Rows;
        self.indicator =
            (gathers && self.weights == FoldWeights::Unit).then(|| selection.indicator());
        let key = PassKey {
            source: std::ptr::from_ref(source).cast::<()>().addr(),
            n,
            k,
        };
        self.mark_dirty(key, &selection);
        if self.lower {
            let rows = self.acc.chunks_exact_mut(n).zip(&self.dirty);
            for (row, _) in rows.filter(|&(_, &dirty)| dirty) {
                row.fill(T::ZERO);
            }
        }
        self.narrow = gathers && !collect_diag && self.dirty.contains(&false);
        if self.narrow {
            self.restrict(&selection);
        }
        self.selection = Some(selection);
        self.pass = Some(key);
        self.collect_diag = collect_diag;
        if collect_diag {
            self.diag.clear();
            self.diag.resize(n, T::ZERO);
        }
    }

    /// Mark the clusters the pass of `key` under `selection` refolds: those a
    /// point entered or left since the last pass, when that pass finished
    /// over the same source and shape, and otherwise all of them. A full
    /// pass writes every accumulator cell, so the buffer is only resized.
    fn mark_dirty(&mut self, key: PassKey, selection: &SelectionMatrix<T>) {
        let finished = self.folded.take() == Some(key);
        self.dirty.clear();
        match self.selection.as_ref().filter(|_| finished) {
            Some(last) => {
                self.dirty.resize(key.k, false);
                for (&old, &new) in last.assignments().iter().zip(selection.assignments()) {
                    if old != new {
                        self.dirty[old] = true;
                        self.dirty[new] = true;
                    }
                }
            }
            None => {
                self.dirty.resize(key.k, true);
                self.acc.resize(key.n * key.k, T::ZERO);
            }
        }
    }

    /// List the columns a narrow pass under `selection` reads, the points
    /// whose cluster is dirty, and restrict `V` to them. The list ascends, so
    /// each restricted row keeps its members' order.
    fn restrict(&mut self, selection: &SelectionMatrix<T>) {
        let labels = selection.assignments();
        self.columns.clear();
        self.columns
            .extend((0..labels.len()).filter(|&l| self.dirty[labels[l]]));
        let (mut row_ptrs, mut cols, mut values) = self
            .restricted
            .take()
            .map(CsrMatrix::into_raw)
            .unwrap_or_default();
        row_ptrs.clear();
        cols.clear();
        values.clear();
        row_ptrs.push(0);
        for (c, &dirty) in self.dirty.iter().enumerate() {
            if dirty {
                let members = selection.csr().row(c).0;
                let positions = members
                    .iter()
                    .map(|l| self.columns.partition_point(|p| p < l));
                cols.extend(positions);
                values.resize(cols.len(), self.cluster_weights[c]);
            }
            row_ptrs.push(cols.len());
        }
        let (k, width) = (self.dirty.len(), self.columns.len());
        self.restricted = Some(CsrMatrix::from_raw_unchecked(
            k, width, row_ptrs, cols, values,
        ));
    }

    /// The columns of `K` this pass reads, ascending, when it reads fewer
    /// than all: on the gather path, when some but not all clusters are
    /// dirty and the pass does not collect `diag(K)`. They are the points
    /// whose cluster is dirty, none when no cluster is. `None` otherwise.
    pub(crate) fn columns(&self) -> Option<&[usize]> {
        self.narrow.then_some(self.columns.as_slice())
    }

    /// This pass's selection matrix.
    pub(crate) fn selection(&self) -> &SelectionMatrix<T> {
        self.selection.as_ref().expect("begin ran")
    }

    /// Fold one panel of the kind the pass's source hands out.
    pub(crate) fn panel(&mut self, rows: Range<usize>, panel: Panel<'_, T>) -> Result<()> {
        match panel {
            Panel::Rows(tile) => self.tile(rows, tile),
            Panel::Lower(panel) => self.lower_panel(panel),
            Panel::Csr(panel) => self.csr_panel(rows, panel),
        }
    }

    /// Fold the dense row tile `tile = K[rows, :]`, or on a narrow pass the
    /// compact tile `K[rows, columns]` (see the module docs).
    fn tile(&mut self, rows: Range<usize>, tile: &DenseMatrix<T>) -> Result<()> {
        let selection = self.selection.as_ref().expect("begin ran");
        if self.collect_diag {
            for (local, i) in rows.clone().enumerate() {
                self.diag[i] = tile.row(local)[i];
            }
        }
        let Some(clusters) = refold(&self.dirty) else {
            return Ok(());
        };
        let (n, k) = (selection.n(), selection.k());
        // A tile of any other width meets the full `V` and errs there.
        let v = match self.restricted.as_ref().filter(|_| self.narrow) {
            Some(restricted) if tile.cols() != n && tile.cols() == restricted.cols() => restricted,
            _ => self.indicator.as_ref().unwrap_or(selection.csr()),
        };
        // Rows r0..r1 of the row-major `E` are contiguous.
        let out = &mut self.acc[rows.start * k..rows.end * k];
        spmm_transpose_b_into(self.scale, tile, v, clusters, out)?;
        Ok(())
    }

    /// Fold the packed lower rows `panel = K[r, 0..=r]` of a symmetric `K`.
    fn lower_panel(&mut self, panel: PackedRows<'_, T>) -> Result<()> {
        let selection = self.selection.as_ref().expect("begin ran");
        if self.collect_diag {
            for i in panel.rows() {
                self.diag[i] = panel.row(i)[i];
            }
        }
        let Some(clusters) = refold(&self.dirty) else {
            return Ok(());
        };
        let weights = &self.cluster_weights;
        spmm_selection_lower_accumulate(panel, selection, weights, clusters, &mut self.acc)?;
        Ok(())
    }

    /// Fold the CSR row panel `panel = K[rows, :]`.
    fn csr_panel(&mut self, rows: Range<usize>, panel: CsrRows<'_, T>) -> Result<()> {
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
        let Some(clusters) = refold(&self.dirty) else {
            return Ok(());
        };
        let k = selection.k();
        let out = &mut self.acc[rows.start * k..rows.end * k];
        let (labels, weights) = (selection.assignments(), &self.cluster_weights);
        spmm_csr_rows_selection_t_into(self.scale, panel, labels, weights, clusters, out, k)?;
        Ok(())
    }

    /// End the pass: the `n × k` fold, `E[i][c] = scale · acc[i][c]`,
    /// written over every cell of a recycled buffer. The accumulator now
    /// caches this pass for the next one.
    pub(crate) fn finish(&mut self) -> DenseMatrix<T> {
        let key = self.pass.take().expect("begin ran");
        let (n, k) = (key.n, key.k);
        let mut e = match self.spare.take() {
            Some(spare) if spare.shape() == (n, k) => spare,
            _ => DenseMatrix::zeros(n, k),
        };
        if self.lower {
            for (i, row) in e.as_mut_slice().chunks_exact_mut(k).enumerate() {
                for (c, cell) in row.iter_mut().enumerate() {
                    *cell = self.scale * self.acc[c * n + i];
                }
            }
        } else {
            e.as_mut_slice().copy_from_slice(&self.acc);
        }
        self.folded = Some(key);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_source::{FullKernel, TilePolicy};
    use crate::sparsified::SparsifiedKernel;
    use popcorn_dense::PackedSymmetric;
    use popcorn_gpusim::SimExecutor;
    use std::sync::Arc;

    const N: usize = 37;
    const K: usize = 5;
    const ALL: &[usize] = &[0, 1, 2, 3, 4];
    /// Ragged row tiles: 5, 1, 13 and 18 rows.
    const TILE_BOUNDS: &[usize] = &[0, 5, 6, 19, N];
    /// The whole matrix in one tile.
    const WHOLE: &[usize] = &[0, N];

    /// A kernel entry for `seed`: signed zeros, subnormals in both
    /// precisions and `1 + ε` among ordinary values, with a rare ±∞ or NaN.
    fn entry<T: Scalar>(seed: usize) -> T {
        T::from_f64(match (seed * 7919) % 401 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            _ => match (seed * 7919) % 61 {
                0..=2 => -0.0,
                3 => 0.0,
                4 => 1e-40,
                5 => -1e-310,
                6 => 1.0 + f64::EPSILON,
                _ => (seed as f64 * 0.37).sin() * 3.0,
            },
        })
    }

    /// The fold's three paths, the gather twice: over a source that hands
    /// out full tiles whatever the fold requests, and over one that serves
    /// exactly the requested columns (as the Nyström source does).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Path {
        Lower,
        Gather,
        Columns,
        Csr,
    }

    /// The `salt`-th kernel matrix of a path: bitwise symmetric for the
    /// packed path.
    fn matrix<T: Scalar>(path: Path, salt: usize) -> DenseMatrix<T> {
        DenseMatrix::from_fn(N, N, |i, j| match path {
            Path::Lower => entry(i.min(j) * N + i.max(j) + salt * N * N),
            Path::Gather | Path::Columns | Path::Csr => entry(i * N + j + salt * N * N),
        })
    }

    /// The entries of `m` in about two thirds of its cells, stored zeros
    /// included.
    fn csr_of<T: Scalar>(m: &DenseMatrix<T>) -> CsrMatrix<T> {
        let (mut row_ptrs, mut cols, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..N {
            for j in (0..N).filter(|&j| (i * 7 + j * 5) % 3 != 0) {
                cols.push(j);
                values.push(m[(i, j)]);
            }
            row_ptrs.push(cols.len());
        }
        CsrMatrix::from_raw(N, N, row_ptrs, cols, values).unwrap()
    }

    /// How a pass hands its tiles to the fold.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Drive {
        /// Full-width tiles whatever the fold requests: a resident source,
        /// or the lockstep batch driver.
        Full,
        /// Tiles of exactly the requested columns, full ones when the fold
        /// requests none.
        Requested,
        /// Full-width tiles to a pass that collects `diag(K)`.
        Diag,
    }

    /// One pass of `fold` over `source` (whose dense rows are `m`) under
    /// `labels`, in the row tiles `bounds` handed out as `drive` says, in
    /// the source's panel kind. With `fail` the second tile (the only one of
    /// a whole pass) has a column too few (or, packed, runs past the last
    /// row), so the pass errs before `finish`.
    fn pass<T: Scalar>(
        fold: &mut SelectionFold<T>,
        source: &dyn KernelSource<T>,
        m: &DenseMatrix<T>,
        labels: &[usize],
        bounds: &[usize],
        drive: Drive,
        fail: bool,
    ) -> Result<DenseMatrix<T>> {
        let selection = SelectionMatrix::from_assignments(labels, K)?;
        fold.begin(source, selection, drive == Drive::Diag);
        let columns: Vec<usize> = match fold.columns() {
            Some(columns) if drive == Drive::Requested => columns.to_vec(),
            _ => (0..N).collect(),
        };
        let packed = PackedSymmetric::from_lower(m).unwrap();
        let past_the_end = PackedSymmetric::<T>::zeros(N + 1);
        for (t, rows) in bounds.windows(2).map(|w| w[0]..w[1]).enumerate() {
            let broken = fail && t == (bounds.len() - 2).min(1);
            let width = columns.len() - usize::from(broken);
            match source.panel_kind() {
                PanelKind::Csr if broken => {
                    let short = CsrMatrix::zeros(rows.len(), width);
                    fold.panel(rows.clone(), Panel::Csr(short.rows_view(0..rows.len())))?
                }
                PanelKind::Csr => {
                    let csr = source.csr().unwrap();
                    fold.panel(rows.clone(), Panel::Csr(csr.rows_view(rows)))?
                }
                PanelKind::Lower if broken => {
                    let panel = past_the_end.rows(rows.start..N + 1);
                    fold.panel(rows, Panel::Lower(panel))?
                }
                PanelKind::Lower => fold.panel(rows.clone(), Panel::Lower(packed.rows(rows)))?,
                PanelKind::Rows => {
                    let tile = DenseMatrix::from_fn(rows.len(), width, |r, p| {
                        m[(rows.start + r, columns[p])]
                    });
                    fold.panel(rows, Panel::Rows(&tile))?
                }
            }
        }
        Ok(fold.finish())
    }

    /// The row-fold oracle of `m` under `labels`: rows `l` in ascending
    /// order, `acc[c(l), i] = fma(w_c(l), m[l, i], acc)` from `+0` for every
    /// column `i`, then `E[i][c] = scale · acc[c][i]`.
    fn row_fold<T: Scalar>(
        m: &DenseMatrix<T>,
        labels: &[usize],
        weights: FoldWeights,
        scale: f64,
    ) -> Vec<T> {
        let selection = SelectionMatrix::<T>::from_assignments(labels, K).unwrap();
        let w: Vec<T> = match weights {
            FoldWeights::Mean => crate::distances::selection_weights(&selection),
            FoldWeights::Unit => vec![T::ONE; K],
        };
        let mut acc = [T::ZERO; K * N];
        for (l, &c) in labels.iter().enumerate() {
            for (sum, &x) in acc[c * N..(c + 1) * N].iter_mut().zip(m.row(l)) {
                *sum = w[c].mul_add(x, *sum);
            }
        }
        let scale = T::from_f64(scale);
        (0..N * K)
            .map(|e| scale * acc[(e % K) * N + e / K])
            .collect()
    }

    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// Move the first member of cluster `from` to cluster `to`.
    fn move_first(labels: &mut [usize], from: usize, to: usize) {
        let i = labels.iter().position(|&c| c == from).unwrap();
        labels[i] = to;
    }

    /// A step of the label sequence: what it exercises, the source it folds,
    /// its label change and the clusters the cached fold must refold.
    type Step = (&'static str, usize, fn(&mut Vec<usize>), &'static [usize]);

    const STEPS: [Step; 9] = [
        ("the first pass", 0, |_| {}, ALL),
        (
            "one point swapped",
            0,
            |l| {
                let (a, b) = (
                    l.iter().position(|&c| c == 0),
                    l.iter().position(|&c| c == 2),
                );
                l.swap(a.unwrap(), b.unwrap());
            },
            &[0, 2],
        ),
        (
            "a cluster that only loses",
            0,
            |l| move_first(l, 4, 1),
            &[1, 4],
        ),
        ("no change", 0, |_| {}, &[]),
        (
            "a cluster emptied",
            0,
            |l| l.iter_mut().filter(|c| **c == 1).for_each(|c| *c = 0),
            &[0, 1],
        ),
        (
            "empty clusters refilled",
            0,
            |l| {
                for (i, c) in l.iter_mut().enumerate() {
                    match (*c, i % 3) {
                        (0, 0) => *c = 1,
                        (2, 1) => *c = 3,
                        _ => {}
                    }
                }
            },
            &[0, 1, 2, 3],
        ),
        (
            "every cluster dirty",
            0,
            |l| l.iter_mut().for_each(|c| *c = (*c + 1) % K),
            ALL,
        ),
        ("a switch of source", 1, |_| {}, ALL),
        ("a switch back", 0, |_| {}, ALL),
    ];

    /// Drive one fold along `path` through the label sequence, in the row
    /// tiles `bounds`. After every pass, check which clusters it refolded
    /// and which columns it requested, and compare its `E` (and any
    /// `diag(K)` it collected) with a freshly built fold's, bit for bit, and
    /// on the packed path with the row-fold oracle over the full matrix.
    fn check_sequence<T: Scalar>(path: Path, weights: FoldWeights, scale: f64, bounds: &[usize]) {
        let exec = SimExecutor::a100_f32();
        let matrices = [matrix::<T>(path, 0), matrix::<T>(path, 1)];
        let sources: Vec<Box<dyn KernelSource<T> + '_>> = matrices
            .iter()
            .map(|m| -> Box<dyn KernelSource<T> + '_> {
                match path {
                    Path::Lower => Box::new(FullKernel::computed(Arc::new(
                        PackedSymmetric::from_lower(m).unwrap(),
                    ))),
                    Path::Gather | Path::Columns => Box::new(FullKernel::new(m).unwrap()),
                    Path::Csr => Box::new(
                        SparsifiedKernel::from_csr(csr_of(m), TilePolicy::Full, K, &exec).unwrap(),
                    ),
                }
            })
            .collect();
        let drive = match path {
            Path::Columns => Drive::Requested,
            _ => Drive::Full,
        };
        let at = |step: &str| {
            format!(
                "{path:?} {weights:?} {}: {step}",
                std::any::type_name::<T>()
            )
        };
        let check = |fold: &mut SelectionFold<T>,
                     step: &str,
                     s: usize,
                     labels: &[usize],
                     dirty: &[usize],
                     drive: Drive| {
            let (source, m) = (&*sources[s], &matrices[s]);
            let e = pass(fold, source, m, labels, bounds, drive, false).unwrap();
            let mut fresh = SelectionFold::new(weights, scale);
            let want = pass(&mut fresh, source, m, labels, bounds, drive, false);
            let want = want.unwrap();
            assert_eq!(bits(e.as_slice()), bits(want.as_slice()), "{}", at(step));
            if path == Path::Lower {
                let oracle = row_fold(m, labels, weights, scale);
                assert_eq!(bits(e.as_slice()), bits(&oracle), "row fold, {}", at(step));
            }
            if drive == Drive::Diag {
                assert_eq!(bits(fold.diag()), bits(fresh.diag()), "diag, {}", at(step));
            }
            let refolded: Vec<usize> = (0..K).filter(|&c| fold.dirty[c]).collect();
            assert_eq!(refolded, dirty, "refolded clusters, {}", at(step));
            // The gather requests the members of the dirty clusters under
            // the new labels, unless it refolds every cluster or reads the
            // diagonal.
            let gathers = matches!(path, Path::Gather | Path::Columns);
            let narrow = gathers && drive != Drive::Diag && dirty.len() < K;
            let members = (0..N).filter(|&l| dirty.contains(&labels[l]));
            let requested = narrow.then(|| members.collect::<Vec<_>>());
            assert_eq!(
                fold.columns().map(<[usize]>::to_vec),
                requested,
                "requested columns, {}",
                at(step)
            );
            fold.recycle(e);
        };

        let mut fold = SelectionFold::new(weights, scale);
        // Cluster 3 starts empty.
        let mut labels: Vec<usize> = (0..N).map(|i| [0, 4, 2, 1, 4, 0, 2][i % 7]).collect();
        for (step, s, change, dirty) in STEPS {
            change(&mut labels);
            check(&mut fold, step, s, &labels, dirty, drive);
        }
        // A request answered with full tiles, as the lockstep driver does.
        move_first(&mut labels, 0, 3);
        let full_tiles = "a request answered with full tiles";
        check(&mut fold, full_tiles, 0, &labels, &[0, 3], Drive::Full);
        // A pass that reads the diagonal needs every column.
        move_first(&mut labels, 1, 2);
        check(
            &mut fold,
            "a pass collecting diag(K)",
            0,
            &labels,
            &[1, 2],
            Drive::Diag,
        );
        // A pass that errs before `finish`.
        move_first(&mut labels, 2, 4);
        let failed = pass(
            &mut fold,
            &*sources[0],
            &matrices[0],
            &labels,
            bounds,
            drive,
            true,
        );
        assert!(failed.is_err(), "{}", at("a failed pass"));
        check(
            &mut fold,
            "the pass after a failed one",
            0,
            &labels,
            ALL,
            drive,
        );
        fold.forget();
        check(&mut fold, "a pass after forget", 0, &labels, ALL, drive);
    }

    #[test]
    fn refolding_the_changed_clusters_matches_a_fresh_fold_bit_for_bit() {
        for path in [Path::Lower, Path::Gather, Path::Columns, Path::Csr] {
            for bounds in [TILE_BOUNDS, WHOLE] {
                check_sequence::<f32>(path, FoldWeights::Mean, -2.0, bounds);
                check_sequence::<f64>(path, FoldWeights::Mean, -2.0, bounds);
                check_sequence::<f32>(path, FoldWeights::Unit, 1.0, bounds);
                check_sequence::<f64>(path, FoldWeights::Unit, 1.0, bounds);
            }
        }
        let name = "refolding_the_changed_clusters_matches_a_fresh_fold_bit_for_bit";
        crate::test_support::rerun_at_kernel_threads(module_path!(), name);
    }
}
