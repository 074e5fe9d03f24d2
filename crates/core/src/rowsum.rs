//! The row-sum distance engines: [`CpuEngine`] (the CPU reference's) and
//! [`BaselineEngine`] (the dense GPU baseline's).
//!
//! Both engines compute their distances from the same intermediate:
//! per-point, per-cluster row sums `Σ_{q ∈ L_c} K[i][q]`, folded over the
//! kernel matrix tile by tile, with `diag(K)` collected from the first
//! pass's tiles. Only the *charging* (which simulated kernel, which
//! utilization) and the finishing arithmetic differ between the two solvers.
//!
//! The row sums are the product `V·K` with `V`'s stored values set to one,
//! so the baseline folds them with the shared fold (`crate::fold`) that
//! runs Popcorn's SpMM kernels, under unit weights and no trailing scale;
//! model extraction does the same for the serving statistics. The CPU
//! reference keeps its own plain, sequential loops (`RowSumFold`): they
//! are the PRMLT-style reference, and the oracle the tests below compare the
//! shared fold against bit for bit. `fma(1, x, acc)` rounds `acc + x` once,
//! exactly as `+=` does, and each cell meets its operands in the same
//! ascending order on both sides. The engines live in the core crate so a
//! fitted model ([`crate::model`]) replays its own family's engine through
//! [`crate::model::ModelFamily::engine`].

use crate::fold::{FoldWeights, SelectionFold};
use crate::kernel_matrix::INDEX_BYTES;
use crate::kernel_source::{KernelSource, Panel};
use crate::pipeline::DistanceEngine;
use crate::Result;
use popcorn_dense::{DenseMatrix, PackedRows, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};
use popcorn_sparse::{CsrRows, SelectionMatrix};
use std::ops::Range;

/// Utilization hint for the baseline's shared-memory row-reduction kernel.
///
/// Larger `k` means a longer shared-memory buffer per thread block, more bank
/// conflicts and more serialization of the final write-back; the paper
/// measures baseline throughput falling from ~409 to ~304 GFLOP/s as `k`
/// grows from 10 to 100. The model captures that with a utilization that
/// decays linearly in `k` down to a floor of 0.8.
pub fn reduction_utilization(k: usize) -> f64 {
    (1.0 - 0.002 * k.min(100) as f64).max(0.8)
}

/// The PRMLT-style distance engine: one sequential pass over `K` per
/// iteration, charged at CPU efficiencies. The pass streams `K` row by row,
/// so it consumes the kernel matrix tile-wise without changing a single
/// arithmetic operation: per tile it runs the plain sequential loops of its
/// `RowSumFold` (collecting `diag(K)` on the way during the first
/// iteration), over full rows or over packed lower rows, whose stored
/// entries each feed both their cells, and the finish step assembles the
/// distances from those sums.
pub struct CpuEngine<T: Scalar> {
    fold: RowSumFold<T>,
}

impl<T: Scalar> CpuEngine<T> {
    /// A fresh engine for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            fold: RowSumFold::new(k),
        }
    }
}

impl<T: Scalar> CpuEngine<T> {
    /// Run `fold` over `rows` of `n` columns under the record of the
    /// sequential dense pass.
    fn dense_pass(
        &mut self,
        rows: Range<usize>,
        n: usize,
        executor: &dyn Executor,
        fold: impl FnOnce(&mut RowSumFold<T>),
    ) {
        let t = rows.len();
        let k = self.fold.k;
        let elem = std::mem::size_of::<T>();
        let iteration = self.fold.iteration;
        let state = &mut self.fold;
        executor.run(
            format!(
                "cpu distances iteration {iteration} rows {}..{} (n={n}, k={k})",
                rows.start, rows.end
            ),
            Phase::PairwiseDistances,
            OpClass::Gemm, // dense arithmetic at CPU efficiencies
            OpCost::new(
                2 * t as u64 * n as u64,
                t as u64 * n as u64 * elem as u64,
                t as u64 * k as u64 * elem as u64,
            ),
            || fold(state),
        );
    }
}

impl<T: Scalar> DistanceEngine<T> for CpuEngine<T> {
    fn begin_iteration(
        &mut self,
        iteration: usize,
        source: &dyn KernelSource<T>,
        labels: &[usize],
        executor: &dyn Executor,
    ) -> Result<()> {
        self.fold
            .begin_iteration(iteration, source.n(), labels, executor);
        Ok(())
    }

    fn consume_tile(
        &mut self,
        rows: Range<usize>,
        tile: &DenseMatrix<T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        self.dense_pass(rows.clone(), tile.cols(), executor, |fold| {
            fold.accumulate_tile(rows, tile)
        });
        Ok(())
    }

    fn consume_lower_tile(
        &mut self,
        rows: Range<usize>,
        panel: PackedRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        // Charged as the full rows the packed ones stand for.
        let n = self.fold.labels.len();
        self.dense_pass(rows, n, executor, |fold| fold.accumulate_lower_tile(panel));
        Ok(())
    }

    fn consume_csr_tile(
        &mut self,
        rows: Range<usize>,
        panel: CsrRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        // A sequential scalar loop touches only the stored entries, so the
        // CPU reference *does* benefit from sparsity: the pass is charged
        // per nnz, not per n².
        let nnz = panel.nnz();
        let t = rows.len();
        let k = self.fold.k;
        let elem = std::mem::size_of::<T>();
        let iteration = self.fold.iteration;
        let fold = &mut self.fold;
        executor.run(
            format!(
                "cpu sparse distances iteration {iteration} rows {}..{} (nnz={nnz}, k={k})",
                rows.start, rows.end
            ),
            Phase::PairwiseDistances,
            OpClass::Gemm, // scalar adds at CPU efficiencies
            OpCost::new(
                2 * nnz as u64,
                nnz as u64 * (elem + INDEX_BYTES) as u64,
                t as u64 * k as u64 * elem as u64,
            ),
            || fold.accumulate_csr_tile(rows.clone(), panel),
        );
        Ok(())
    }

    fn finish_iteration(&mut self, executor: &dyn Executor) -> Result<DenseMatrix<T>> {
        let row_sums = self.fold.take_row_sums();
        let RowSumFold {
            k,
            iteration,
            ref labels,
            ref sizes,
            ..
        } = self.fold;
        let diag = self.fold.diag();
        let n = diag.len();
        // The assembly's modeled footprint is already part of the row-sum
        // pass's charge (it covered the n x k write); run it under a
        // zero-cost record so its measured host time stays attributed to the
        // distance phase, as it was when one closure did the whole pass.
        Ok(executor.run(
            format!("cpu distances assembly iteration {iteration} (n={n}, k={k})"),
            Phase::PairwiseDistances,
            OpClass::Other,
            OpCost::new(0, 0, 0),
            || {
                let norms = centroid_norms(&cluster_self_terms(&row_sums, labels, k), sizes);
                distance_assembly(&row_sums, |i| diag[i].to_f64(), sizes, &norms)
            },
        ))
    }

    fn recycle_distances(&mut self, distances: DenseMatrix<T>) {
        self.fold.recycle(distances);
    }
}

/// The baseline's three-hand-written-kernels distance engine. Kernel 1 (the
/// dominant row reduction) streams `K` row by row, so it consumes the matrix
/// tile-wise — one launch per tile, one launch total for an in-core source.
/// On the host it is the shared fold (`crate::fold`) under unit weights:
/// the row sums are `V·K` with `V`'s stored values set to one, and the first
/// iteration collects `diag(K)` from the same tiles. Like Popcorn's, the fold
/// refolds only the clusters whose members changed after a fit's first
/// pass, and asks a gathering source for only the columns they read.
/// Kernels 2 and 3 run once per iteration after the last tile.
pub struct BaselineEngine<T: Scalar> {
    k: usize,
    fold: SelectionFold<T>,
}

impl<T: Scalar> BaselineEngine<T> {
    /// A fresh engine for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            fold: SelectionFold::new(FoldWeights::Unit, 1.0),
        }
    }

    /// Kernel 1: per-row reduction of `K` into an `n × k` buffer of cluster
    /// sums (the baseline's dominant kernel), charged for `t` rows of `n`
    /// columns whichever layout the rows arrive in.
    fn row_reduction(
        &mut self,
        rows: Range<usize>,
        n: usize,
        executor: &dyn Executor,
        fold: impl FnOnce(&mut SelectionFold<T>, Range<usize>) -> Result<()>,
    ) -> Result<()> {
        let t = rows.len();
        let k = self.k;
        let elem = std::mem::size_of::<T>();
        let state = &mut self.fold;
        executor.run(
            format!(
                "baseline kernel 1: row reduction rows {}..{} (n={n}, k={k})",
                rows.start, rows.end
            ),
            Phase::PairwiseDistances,
            OpClass::HandwrittenReduction,
            OpCost::new(
                2 * t as u64 * n as u64,
                t as u64 * n as u64 * elem as u64,
                t as u64 * k as u64 * elem as u64,
            )
            .with_utilization(reduction_utilization(k)),
            || fold(state, rows),
        )
    }
}

impl<T: Scalar> DistanceEngine<T> for BaselineEngine<T> {
    fn begin_iteration(
        &mut self,
        iteration: usize,
        source: &dyn KernelSource<T>,
        labels: &[usize],
        executor: &dyn Executor,
    ) -> Result<()> {
        let selection = SelectionMatrix::from_assignments(labels, self.k)?;
        if iteration == 0 {
            let n = source.n() as u64;
            executor.track_alloc(n * self.k as u64 * std::mem::size_of::<T>() as u64);
            self.fold.forget();
        }
        // diag(K) comes from the tiles of this engine's first pass.
        let first_pass = self.fold.diag().is_empty();
        self.fold.begin(source, selection, first_pass);
        Ok(())
    }

    fn consume_tile(
        &mut self,
        rows: Range<usize>,
        tile: &DenseMatrix<T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        // Charged as the full tile's rows of `n` columns, compact or not.
        let n = self.fold.selection().n();
        self.row_reduction(rows, n, executor, |fold, rows| {
            fold.panel(rows, Panel::Rows(tile))
        })
    }

    fn consume_lower_tile(
        &mut self,
        rows: Range<usize>,
        panel: PackedRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        let n = self.fold.selection().n();
        self.row_reduction(rows, n, executor, |fold, rows| {
            fold.panel(rows, Panel::Lower(panel))
        })
    }

    fn consume_csr_tile(
        &mut self,
        rows: Range<usize>,
        panel: CsrRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        // Faithful to the original: the baseline's row-reduction kernel has
        // no sparse variant, so a CSR-resident K is folded correctly but
        // *charged as if dense* — one thread per column, zeros included.
        // This is exactly the cost asymmetry the sparse workloads expose.
        self.row_reduction(rows, panel.cols(), executor, |fold, rows| {
            fold.panel(rows, Panel::Csr(panel))
        })
    }

    fn columns(&self) -> Option<&[usize]> {
        self.fold.columns()
    }

    fn finish_iteration(&mut self, executor: &dyn Executor) -> Result<DenseMatrix<T>> {
        let row_sums = self.fold.finish();
        let k = self.k;
        let selection = self.fold.selection();
        let (labels, sizes) = (selection.assignments(), selection.cardinalities());
        let diag = self.fold.diag();
        let n = diag.len();
        let elem = std::mem::size_of::<T>();

        // Kernel 2: reduce the buffer into per-cluster norms
        // Σ_{p,q∈L_c} K_pq / |L_c|² (the role Popcorn's SpMV plays), stored
        // in `T` as the baseline stores them.
        let centroid_norms = executor.run(
            format!("baseline kernel 2: centroid norms (n={n}, k={k})"),
            Phase::PairwiseDistances,
            OpClass::HandwrittenReduction,
            OpCost::new(2 * n as u64, n as u64 * elem as u64, k as u64 * elem as u64)
                .with_utilization(reduction_utilization(k)),
            || {
                centroid_norms(&cluster_self_terms(&row_sums, labels, k), sizes)
                    .into_iter()
                    .map(|norm| T::from_f64(norm).to_f64())
                    .collect::<Vec<f64>>()
            },
        );

        // Kernel 3: n*k threads assemble the distances.
        Ok(executor.run(
            format!("baseline kernel 3: distance assembly (n={n}, k={k})"),
            Phase::PairwiseDistances,
            OpClass::Elementwise,
            OpCost::elementwise_elems(n as u64 * k as u64, 2, 1, 3, elem),
            || distance_assembly(&row_sums, |i| diag[i].to_f64(), sizes, &centroid_norms),
        ))
    }

    fn recycle_distances(&mut self, distances: DenseMatrix<T>) {
        self.fold.recycle(distances);
    }
}

/// The CPU reference's per-iteration row-sum state: plain sequential loops,
/// `out[labels[q]] += K[i][q]`, undispatched.
struct RowSumFold<T: Scalar> {
    k: usize,
    iteration: usize,
    diag: Option<Vec<T>>,
    diag_pending: Vec<T>,
    sizes: Vec<usize>,
    labels: Vec<usize>,
    row_sums: Option<DenseMatrix<T>>,
    /// Recycled `n × k` buffer (usually last iteration's distance matrix,
    /// handed back by the driver) zero-filled and reused as the next row-sum
    /// accumulator instead of allocating per pass.
    spare: Option<DenseMatrix<T>>,
}

impl<T: Scalar> RowSumFold<T> {
    /// A fresh fold for `k` clusters.
    fn new(k: usize) -> Self {
        Self {
            k,
            iteration: 0,
            diag: None,
            diag_pending: Vec::new(),
            sizes: Vec::new(),
            labels: Vec::new(),
            row_sums: None,
            spare: None,
        }
    }

    /// `diag(K)`, available once the first iteration's tiles were folded and
    /// [`RowSumFold::take_row_sums`] sealed them.
    fn diag(&self) -> &[T] {
        self.diag.as_ref().expect("first iteration folded")
    }

    /// Start one iteration: rebuild sizes, reset the row-sum buffer, and (on
    /// the first iteration) track the buffer's modeled residency.
    fn begin_iteration(
        &mut self,
        iteration: usize,
        n: usize,
        labels: &[usize],
        executor: &dyn Executor,
    ) {
        self.iteration = iteration;
        // Reuse the allocation across iterations; the copy itself is O(n),
        // noise next to the O(n^2) row-sum fold it feeds.
        self.labels.clear();
        self.labels.extend_from_slice(labels);
        self.sizes = vec![0usize; self.k];
        for &l in labels {
            self.sizes[l] += 1;
        }
        if iteration == 0 {
            self.diag_pending = vec![T::ZERO; n];
            executor.track_alloc(n as u64 * self.k as u64 * std::mem::size_of::<T>() as u64);
        }
        self.row_sums = Some(match self.spare.take() {
            Some(mut spare) if spare.rows() == n && spare.cols() == self.k => {
                spare.fill(T::ZERO);
                spare
            }
            _ => DenseMatrix::zeros(n, self.k),
        });
    }

    /// Hand an `n × k` buffer back for reuse as the next iteration's row-sum
    /// accumulator (see the engines' `recycle_distances`).
    fn recycle(&mut self, buffer: DenseMatrix<T>) {
        self.spare = Some(buffer);
    }

    /// Fold one row tile of `K` into the row sums (collecting the diagonal
    /// during the first iteration). Callers wrap this in their own charged
    /// `executor.run` so each solver models its own kernel.
    fn accumulate_tile(&mut self, rows: Range<usize>, tile: &DenseMatrix<T>) {
        let row_sums = self.row_sums.as_mut().expect("begin_iteration ran");
        let collect_diag = self.diag.is_none();
        for (local, i) in rows.enumerate() {
            let row = tile.row(local);
            if collect_diag {
                self.diag_pending[i] = row[i];
            }
            let out = row_sums.row_mut(i);
            for (q, &v) in row.iter().enumerate() {
                out[self.labels[q]] += v;
            }
        }
    }

    /// Fold the packed lower rows `panel = K[r, 0..=r]` of a symmetric `K`
    /// into the row sums (collecting the diagonal during the first
    /// iteration): row `r` adds `K[r, q]` to `out[r][lab[q]]` for `q ≤ r`,
    /// and to `out[q][lab[r]]` for `q < r`. Over rows in ascending order,
    /// each cell `(i, c)` then sums `K[i, q]` over ascending `q` as
    /// [`RowSumFold::accumulate_tile`] does: `q ≤ i` from row `i`, each
    /// `q > i` from row `q`.
    fn accumulate_lower_tile(&mut self, panel: PackedRows<'_, T>) {
        let row_sums = self.row_sums.as_mut().expect("begin_iteration ran");
        let k = self.k;
        let sums = row_sums.as_mut_slice();
        let collect_diag = self.diag.is_none();
        for r in panel.rows() {
            let row = panel.row(r);
            if collect_diag {
                self.diag_pending[r] = row[r];
            }
            let label = self.labels[r];
            for (q, &v) in row.iter().enumerate() {
                sums[r * k + self.labels[q]] += v;
                if q < r {
                    sums[q * k + label] += v;
                }
            }
        }
    }

    /// Fold one CSR row panel of `K` into the row sums. Absent entries are
    /// exact zeros, and `x + 0.0` preserves `x` bitwise, so at full density
    /// this matches [`RowSumFold::accumulate_tile`] bit for bit while only
    /// touching the stored entries.
    fn accumulate_csr_tile(&mut self, rows: Range<usize>, panel: CsrRows<'_, T>) {
        let row_sums = self.row_sums.as_mut().expect("begin_iteration ran");
        let collect_diag = self.diag.is_none();
        for (local, i) in rows.enumerate() {
            let (cols, vals) = panel.row(local);
            if collect_diag {
                // The sparsifier always keeps the diagonal; absent means the
                // matrix was supplied pre-sparsified without it.
                self.diag_pending[i] = cols
                    .iter()
                    .position(|&c| c == i)
                    .map_or(T::ZERO, |p| vals[p]);
            }
            let out = row_sums.row_mut(i);
            for (&q, &v) in cols.iter().zip(vals.iter()) {
                out[self.labels[q]] += v;
            }
        }
    }

    /// Seal the iteration: hand the finished row sums to the caller (and, on
    /// the first iteration, promote the collected diagonal).
    fn take_row_sums(&mut self) -> DenseMatrix<T> {
        if self.diag.is_none() {
            self.diag = Some(std::mem::take(&mut self.diag_pending));
        }
        self.row_sums.take().expect("begin_iteration ran")
    }
}

/// Per-cluster self-similarity terms `Σ_{p,q ∈ L_c} K_pq`, folded from the
/// sealed row sums exactly the way both row-sum engines fold them — shared
/// here so model extraction reproduces the fit arithmetic by construction.
pub(crate) fn cluster_self_terms<T: Scalar>(
    row_sums: &DenseMatrix<T>,
    labels: &[usize],
    k: usize,
) -> Vec<f64> {
    let mut cluster_self = vec![0.0f64; k];
    for (i, &l) in labels.iter().enumerate() {
        cluster_self[l] += row_sums[(i, l)].to_f64();
    }
    cluster_self
}

/// Per-cluster centroid norms `Σ_{p,q ∈ L_c} K_pq / |L_c|²` from the
/// self-similarity terms (meaningless, and never read, for empty clusters).
pub(crate) fn centroid_norms(cluster_self: &[f64], sizes: &[usize]) -> Vec<f64> {
    cluster_self
        .iter()
        .zip(sizes)
        .map(|(&s, &card)| s / (card as f64 * card as f64))
        .collect()
}

/// The kernel-trick distance assembly every row-sum path finishes with:
/// `D[i][c] = diag(i) − 2·sums[i][c]/|L_c| + centroid_norms[c]`, with empty
/// clusters pinned to `diag(i)`.
pub(crate) fn distance_assembly<T: Scalar>(
    sums: &DenseMatrix<T>,
    diag: impl Fn(usize) -> f64,
    sizes: &[usize],
    centroid_norms: &[f64],
) -> DenseMatrix<T> {
    DenseMatrix::from_fn(sums.rows(), sizes.len(), |i, c| {
        if sizes[c] == 0 {
            return T::from_f64(diag(i));
        }
        let card = sizes[c] as f64;
        T::from_f64(diag(i) - 2.0 * sums[(i, c)].to_f64() / card + centroid_norms[c])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_source::{FullKernel, PanelKind};
    use popcorn_dense::PackedSymmetric;
    use popcorn_gpusim::SimExecutor;
    use popcorn_sparse::CsrMatrix;
    use std::sync::Arc;

    const N: usize = 37;
    const K: usize = 5;
    /// Ragged row tiles: 5, 1, 13 and 18 rows.
    const TILE_BOUNDS: [usize; 5] = [0, 5, 6, 19, N];

    /// A kernel entry for `seed`: mostly ordinary values, with signed zeros,
    /// subnormals in both precisions, ±∞ and ±3.4e38 (two of which overflow
    /// an `f32` sum) mixed in.
    fn awkward<T: Scalar>(seed: usize) -> T {
        T::from_f64(match (seed * 7919) % 97 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2..=4 => -0.0,
            5 => 0.0,
            6 => 1e-40,
            7 => -1e-310,
            8 => 3.4e38,
            9 => -3.4e38,
            _ => (seed as f64 * 0.37).sin() * 3.0,
        })
    }

    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// Cluster 3 is empty.
    fn labels() -> Vec<usize> {
        (0..N).map(|i| [0, 4, 2, 1, 4, 0, 2][i % 7]).collect()
    }

    /// Where the ragged row tiles come from: dense rows, packed lower rows
    /// or CSR panels.
    enum Tiles<'a, T: Scalar> {
        Dense(&'a DenseMatrix<T>),
        Lower(&'a PackedSymmetric<T>),
        Csr(&'a CsrMatrix<T>),
    }

    /// Fold the ragged row tiles with `RowSumFold`'s plain loop and with the
    /// shared fold under unit weights over `source`, and compare the row
    /// sums and the collected diagonal bit for bit. Packed lower rows are
    /// folded by the plain packed loop too, and the plain full-row loop over
    /// the rows they expand to is the oracle of both.
    fn check_tiles<T: Scalar>(tiles: Tiles<'_, T>, source: &dyn KernelSource<T>) {
        let exec = SimExecutor::a100_f32();
        let labels = labels();
        let mut plain = RowSumFold::new(K);
        plain.begin_iteration(0, N, &labels, &exec);
        let mut packed = RowSumFold::new(K);
        packed.begin_iteration(0, N, &labels, &exec);
        let mut shared = SelectionFold::new(FoldWeights::Unit, 1.0);
        let selection = SelectionMatrix::from_assignments(&labels, K).unwrap();
        shared.begin(source, selection, true);
        for rows in TILE_BOUNDS.windows(2).map(|w| w[0]..w[1]) {
            match tiles {
                Tiles::Dense(matrix) => {
                    let slice = &matrix.as_slice()[rows.start * N..rows.end * N];
                    let tile = DenseMatrix::from_vec(rows.len(), N, slice.to_vec()).unwrap();
                    plain.accumulate_tile(rows.clone(), &tile);
                    shared.panel(rows, Panel::Rows(&tile)).unwrap();
                }
                Tiles::Lower(matrix) => {
                    plain.accumulate_tile(rows.clone(), &matrix.full_rows(rows.clone()));
                    packed.accumulate_lower_tile(matrix.rows(rows.clone()));
                    shared
                        .panel(rows.clone(), Panel::Lower(matrix.rows(rows)))
                        .unwrap();
                }
                Tiles::Csr(matrix) => {
                    let panel = matrix.rows_view(rows.clone());
                    plain.accumulate_csr_tile(rows.clone(), panel);
                    shared.panel(rows, Panel::Csr(panel)).unwrap();
                }
            }
        }
        let (plain_sums, shared_sums) = (plain.take_row_sums(), shared.finish());
        assert_eq!(bits(plain_sums.as_slice()), bits(shared_sums.as_slice()));
        assert_eq!(bits(plain.diag()), bits(shared.diag()));
        if let Tiles::Lower(_) = tiles {
            let packed_sums = packed.take_row_sums();
            assert_eq!(bits(plain_sums.as_slice()), bits(packed_sums.as_slice()));
            assert_eq!(bits(plain.diag()), bits(packed.diag()));
        }
    }

    fn unit_weight_cases<T: Scalar>() {
        // Symmetric K as its packed lower triangle, folded into Eᵀ.
        let symmetric = PackedSymmetric::<T>::from_fn(N, |i, j| awkward(j * N + i));
        let computed = FullKernel::computed(Arc::new(symmetric.clone()));
        assert_eq!(computed.panel_kind(), PanelKind::Lower);
        check_tiles(Tiles::Lower(&symmetric), &computed);

        // Asymmetric dense K, gathered eight rows at a time.
        let asymmetric = DenseMatrix::<T>::from_fn(N, N, |i, j| awkward(i * N + j + 11));
        let caller = FullKernel::new(&asymmetric).unwrap();
        assert_eq!(caller.panel_kind(), PanelKind::Rows);
        check_tiles(Tiles::Dense(&asymmetric), &caller);

        // CSR panels storing about two thirds of the entries, half of the
        // diagonal ones among them; stored zeros stay explicit.
        let (mut row_ptrs, mut cols, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..N {
            for j in (0..N).filter(|&j| (i * 7 + j * 5 + (i * j) % 4) % 3 != 0) {
                cols.push(j);
                values.push(awkward::<T>(i * N + j + 29));
            }
            row_ptrs.push(cols.len());
        }
        let csr = CsrMatrix::from_raw(N, N, row_ptrs, cols, values).unwrap();
        check_tiles(Tiles::Csr(&csr), &caller);
    }

    #[test]
    fn the_shared_fold_under_unit_weights_is_the_plain_loop() {
        unit_weight_cases::<f32>();
        unit_weight_cases::<f64>();
        let name = "the_shared_fold_under_unit_weights_is_the_plain_loop";
        crate::test_support::rerun_at_kernel_threads(module_path!(), name);
    }
}
