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
//! The fold charges nothing: each caller runs it under its own record, which
//! prices the paper's full SpMM whatever the cache skips.

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
    /// Whether this pass's tiles fold row by row into `Eᵀ`.
    symmetric: bool,
    /// `Eᵀ` (`k × n`, unscaled) on the symmetric path; `E` (`n × k`,
    /// scaled) on the gather and CSR paths, whose output `E` becomes the
    /// distance matrix in place and so cannot keep the values.
    acc: Vec<T>,
    /// The pass in progress, from `begin` to `finish`.
    pass: Option<PassKey>,
    /// The last pass that reached `finish`, unless another pass began
    /// since: `acc` then holds its fold under `selection`'s labels.
    folded: Option<PassKey>,
    /// Per cluster, whether this pass refolds it.
    dirty: Vec<bool>,
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
            symmetric: false,
            acc: Vec::new(),
            pass: None,
            folded: None,
            dirty: Vec::new(),
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
    /// refolds and zero their accumulator rows. With `collect_diag` the pass
    /// also reads `diag(K)` off its tiles: `tile[i][i]`, or a CSR row's
    /// stored diagonal entry (zero if absent).
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
        let gathers = !csr && !self.symmetric;
        self.indicator =
            (gathers && self.weights == FoldWeights::Unit).then(|| selection.indicator());
        let key = PassKey {
            source: std::ptr::from_ref(source).cast::<()>().addr(),
            n,
            k,
        };
        self.mark_dirty(key, &selection);
        if self.symmetric {
            let rows = self.acc.chunks_exact_mut(n).zip(&self.dirty);
            for (row, _) in rows.filter(|&(_, &dirty)| dirty) {
                row.fill(T::ZERO);
            }
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
        let Some(clusters) = refold(&self.dirty) else {
            return Ok(());
        };
        let weights = &self.cluster_weights;
        if self.symmetric {
            let labels = &selection.assignments()[rows];
            spmm_selection_rows_accumulate(tile, labels, weights, clusters, &mut self.acc)?;
        } else {
            let k = selection.k();
            let v = self.indicator.as_ref().unwrap_or(selection.csr());
            // Rows r0..r1 of the row-major `E` are contiguous.
            let out = &mut self.acc[rows.start * k..rows.end * k];
            spmm_transpose_b_into(self.scale, tile, v, clusters, out)?;
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
        if self.symmetric {
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
    use popcorn_dense::parallel::NUM_THREADS_ENV;
    use popcorn_gpusim::SimExecutor;

    const N: usize = 37;
    const K: usize = 5;
    const ALL: &[usize] = &[0, 1, 2, 3, 4];
    /// Ragged row tiles: 5, 1, 13 and 18 rows.
    const TILE_BOUNDS: [usize; 5] = [0, 5, 6, 19, N];

    /// A finite kernel entry for `seed`: signed zeros, subnormals in both
    /// precisions and `1 + ε` among ordinary values.
    fn entry<T: Scalar>(seed: usize) -> T {
        T::from_f64(match (seed * 7919) % 61 {
            0..=2 => -0.0,
            3 => 0.0,
            4 => 1e-40,
            5 => -1e-310,
            6 => 1.0 + f64::EPSILON,
            _ => (seed as f64 * 0.37).sin() * 3.0,
        })
    }

    /// The fold's three paths.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Rows,
        Gather,
        Csr,
    }

    /// The `salt`-th kernel matrix of a path: bitwise symmetric for the row
    /// path.
    fn matrix<T: Scalar>(path: Path, salt: usize) -> DenseMatrix<T> {
        DenseMatrix::from_fn(N, N, |i, j| match path {
            Path::Rows => entry(i.min(j) * N + i.max(j) + salt * N * N),
            Path::Gather | Path::Csr => entry(i * N + j + salt * N * N),
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

    /// One pass of `fold` over `source` (whose dense rows are `m`) under
    /// `labels`, in ragged row tiles. With `fail` the second tile has a
    /// column too few, so the pass errs before `finish`.
    fn pass<T: Scalar>(
        fold: &mut SelectionFold<T>,
        source: &dyn KernelSource<T>,
        m: &DenseMatrix<T>,
        labels: &[usize],
        fail: bool,
    ) -> Result<DenseMatrix<T>> {
        fold.begin(source, SelectionMatrix::from_assignments(labels, K)?, false);
        for (t, rows) in TILE_BOUNDS.windows(2).map(|w| w[0]..w[1]).enumerate() {
            let cols = if fail && t == 1 { N - 1 } else { N };
            match source.csr() {
                Some(_) if cols < N => {
                    let short = CsrMatrix::zeros(rows.len(), cols);
                    fold.csr_panel(rows.clone(), short.rows_view(0..rows.len()))?
                }
                Some(csr) => fold.csr_panel(rows.clone(), csr.rows_view(rows))?,
                None => {
                    let tile =
                        DenseMatrix::from_fn(rows.len(), cols, |r, j| m[(rows.start + r, j)]);
                    fold.tile(rows, &tile)?
                }
            }
        }
        Ok(fold.finish())
    }

    fn bits<T: Scalar>(e: &DenseMatrix<T>) -> Vec<u64> {
        e.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
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

    /// Drive one fold along `path` through the label sequence. After every
    /// pass, check which clusters it refolded and compare its `E` with a
    /// freshly built fold's, bit for bit.
    fn check_sequence<T: Scalar>(path: Path, weights: FoldWeights, scale: f64) {
        let exec = SimExecutor::a100_f32();
        let matrices = [matrix::<T>(path, 0), matrix::<T>(path, 1)];
        let sources: Vec<Box<dyn KernelSource<T> + '_>> = matrices
            .iter()
            .map(|m| -> Box<dyn KernelSource<T> + '_> {
                match path {
                    Path::Rows => Box::new(FullKernel::computed(m).unwrap()),
                    Path::Gather => Box::new(FullKernel::new(m).unwrap()),
                    Path::Csr => Box::new(
                        SparsifiedKernel::from_csr(csr_of(m), TilePolicy::Full, K, &exec).unwrap(),
                    ),
                }
            })
            .collect();
        let at = |step: &str| {
            format!(
                "{path:?} {weights:?} {}: {step}",
                std::any::type_name::<T>()
            )
        };
        let check = |fold: &mut SelectionFold<T>, step, s: usize, labels: &[usize], dirty| {
            let (source, m) = (&*sources[s], &matrices[s]);
            let e = pass(fold, source, m, labels, false).unwrap();
            let want = pass(
                &mut SelectionFold::new(weights, scale),
                source,
                m,
                labels,
                false,
            );
            assert_eq!(bits(&e), bits(&want.unwrap()), "{}", at(step));
            let refolded: Vec<usize> = (0..K).filter(|&c| fold.dirty[c]).collect();
            assert_eq!(refolded, dirty, "refolded clusters, {}", at(step));
            fold.recycle(e);
        };

        let mut fold = SelectionFold::new(weights, scale);
        // Cluster 3 starts empty.
        let mut labels: Vec<usize> = (0..N).map(|i| [0, 4, 2, 1, 4, 0, 2][i % 7]).collect();
        for (step, s, change, dirty) in STEPS {
            change(&mut labels);
            check(&mut fold, step, s, &labels, dirty);
        }
        // A pass that errs before `finish`, after folding its first tile.
        move_first(&mut labels, 2, 4);
        let failed = pass(&mut fold, &*sources[0], &matrices[0], &labels, true);
        assert!(failed.is_err(), "{}", at("a failed pass"));
        check(&mut fold, "the pass after a failed one", 0, &labels, ALL);
        fold.forget();
        check(&mut fold, "a pass after forget", 0, &labels, ALL);
    }

    #[test]
    fn refolding_the_changed_clusters_matches_a_fresh_fold_bit_for_bit() {
        for path in [Path::Rows, Path::Gather, Path::Csr] {
            check_sequence::<f32>(path, FoldWeights::Mean, -2.0);
            check_sequence::<f64>(path, FoldWeights::Mean, -2.0);
            check_sequence::<f32>(path, FoldWeights::Unit, 1.0);
            check_sequence::<f64>(path, FoldWeights::Unit, 1.0);
        }
        // The kernel thread count is fixed per process, so the test reruns
        // itself in child processes at one and three kernel threads.
        if std::env::var_os(NUM_THREADS_ENV).is_none() {
            let module = module_path!().split_once("::").expect("crate path").1;
            let name = "refolding_the_changed_clusters_matches_a_fresh_fold_bit_for_bit";
            let test = format!("{module}::{name}");
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
