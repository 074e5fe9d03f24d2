//! The row-sum distance engines: [`CpuEngine`] (the CPU reference's) and
//! [`BaselineEngine`] (the dense GPU baseline's), and the tile-wise fold
//! they share.
//!
//! Both engines compute their distances from the same intermediate:
//! per-point, per-cluster row sums `Σ_{q ∈ L_c} K[i][q]`, folded row by row
//! over the kernel matrix, with `diag(K)` collected for free on the first
//! pass. Only the *charging* (which simulated kernel, which utilization) and
//! the finishing arithmetic differ between the two solvers, so the fold
//! itself ([`RowSumFold`]) lives here exactly once — keeping the engines bit
//! for bit in lockstep by construction. The engines live in the core crate
//! so a fitted model ([`crate::model`]) replays its own family's engine
//! through [`crate::model::ModelFamily::engine`]; model extraction reuses the
//! fold to collect the per-cluster statistics of the serving assembly.

use crate::kernel_matrix::INDEX_BYTES;
use crate::kernel_source::KernelSource;
use crate::pipeline::DistanceEngine;
use crate::Result;
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};
use popcorn_sparse::CsrRows;
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
/// arithmetic operation: per tile it folds the shared [`RowSumFold`]
/// accumulator (collecting `diag(K)` on the way during the first iteration),
/// and the finish step assembles the distances from those sums.
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
        let n = tile.cols();
        let t = rows.len();
        let k = self.fold.k;
        let elem = std::mem::size_of::<T>();
        let iteration = self.fold.iteration;
        let fold = &mut self.fold;
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
            || fold.accumulate_tile(rows.clone(), tile),
        );
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
/// tile-wise — one launch per tile, one launch total for an in-core source —
/// folding the shared [`RowSumFold`] accumulator (which collects `diag(K)`
/// during the first iteration); kernels 2 and 3 run once per iteration after
/// the last tile.
pub struct BaselineEngine<T: Scalar> {
    fold: RowSumFold<T>,
}

impl<T: Scalar> BaselineEngine<T> {
    /// A fresh engine for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            fold: RowSumFold::new(k),
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
        fold: impl FnOnce(&mut RowSumFold<T>, Range<usize>),
    ) {
        let t = rows.len();
        let k = self.fold.k;
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
        );
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
        self.row_reduction(rows, tile.cols(), executor, |fold, rows| {
            fold.accumulate_tile(rows, tile)
        });
        Ok(())
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
        let n = self.fold.labels.len();
        self.row_reduction(rows, n, executor, |fold, rows| {
            fold.accumulate_csr_tile(rows, panel)
        });
        Ok(())
    }

    fn finish_iteration(&mut self, executor: &dyn Executor) -> Result<DenseMatrix<T>> {
        let row_sums = self.fold.take_row_sums();
        let RowSumFold {
            k,
            ref labels,
            ref sizes,
            ..
        } = self.fold;
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

/// Per-iteration row-sum state shared by the row-sum engines and the
/// model-extraction pass.
pub struct RowSumFold<T: Scalar> {
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
    pub fn new(k: usize) -> Self {
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

    /// Cluster cardinalities of the current labels.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// `diag(K)`, available once the first iteration's tiles were folded and
    /// [`RowSumFold::take_row_sums`] sealed them.
    pub fn diag(&self) -> &[T] {
        self.diag.as_ref().expect("first iteration folded")
    }

    /// Start one iteration: rebuild sizes, reset the row-sum buffer, and (on
    /// the first iteration) track the buffer's modeled residency.
    pub fn begin_iteration(
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
    pub fn recycle(&mut self, buffer: DenseMatrix<T>) {
        self.spare = Some(buffer);
    }

    /// Fold one row tile of `K` into the row sums (collecting the diagonal
    /// during the first iteration). Callers wrap this in their own charged
    /// `executor.run` so each solver models its own kernel.
    pub fn accumulate_tile(&mut self, rows: Range<usize>, tile: &DenseMatrix<T>) {
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

    /// Fold one CSR row panel of `K` into the row sums. Absent entries are
    /// exact zeros, and `x + 0.0` preserves `x` bitwise, so at full density
    /// this matches [`RowSumFold::accumulate_tile`] bit for bit while only
    /// touching the stored entries.
    pub fn accumulate_csr_tile(&mut self, rows: Range<usize>, panel: CsrRows<'_, T>) {
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
    pub fn take_row_sums(&mut self) -> DenseMatrix<T> {
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
