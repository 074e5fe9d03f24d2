//! The Popcorn kernel k-means solver (paper Algorithm 2).
//!
//! [`KernelKmeans`] is the [`KernelSolver`] shell over the [`Popcorn`]
//! family: the points are uploaded in the layout they come in, the kernel
//! matrix is computed with dynamic GEMM/SYRK selection (or SpGEMM for sparse
//! inputs), and `PopcornEngine` runs the per-iteration SpMM + SpMV distance
//! step — all executed on the host substrates while every operation is
//! charged to a [`popcorn_gpusim::SimExecutor`] so the result carries both
//! measured host timings and modeled A100 timings broken down by phase.

use crate::config::KernelKmeansConfig;
use crate::distances::{finish_distances, run_csr_tile_fold, run_tile_fold};
use crate::fold::{FoldWeights, SelectionFold};
use crate::kernel_source::{KernelSource, Panel};
use crate::model::ModelFamily;
use crate::pipeline::DistanceEngine;
use crate::solver::{FitInput, KernelFamily, KernelSolver};
use crate::Result;
use popcorn_dense::{DenseMatrix, PackedRows, PackedSymmetric, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};
use popcorn_sparse::SelectionMatrix;
use std::ops::Range;

/// The paper's matrix-centric family: the points cross the bus in their own
/// layout, and `K` is one GEMM, SYRK or SpGEMM (§4.1–4.2).
#[derive(Debug, Clone, Copy)]
pub struct Popcorn;

impl KernelFamily for Popcorn {
    const FAMILY: ModelFamily = ModelFamily::Popcorn;

    /// Data preparation: the host → device copy of `P̂` (paper §4.1).
    fn prepare<T: Scalar>(
        input: FitInput<'_, T>,
        executor: &dyn Executor,
    ) -> Result<Option<DenseMatrix<T>>> {
        input.charge_upload(executor);
        Ok(None)
    }

    fn kernel_matrix<T: Scalar>(
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
    ) -> Result<PackedSymmetric<T>> {
        Ok(input
            .compute_kernel_matrix(config.kernel, config.strategy, executor)?
            .0)
    }
}

/// The Popcorn kernel k-means solver.
pub type KernelKmeans = KernelSolver<Popcorn>;

/// Popcorn's matrix-centric distance engine: rebuild `V`, one SpMM per kernel
/// tile, one gather, one SpMV and one assembly kernel per iteration (Alg. 2
/// lines 4–10). The point norms `P̃ = diag(K)` are extracted once on first
/// use. With an in-core source (one tile) the per-iteration trace is the
/// classic SpMM + gather + SpMV + assembly quartet.
///
/// Each SpMM is the shared fold (`crate::fold`) under `V`'s weights
/// `1/|L_c|` and the scale `−2`: over a source of packed lower panels
/// ([`KernelSource::for_each_lower_tile`]) it folds `Eᵀ = V K`, reading each
/// stored entry once for both cells it feeds; over dense row tiles it
/// gathers `E = −2 K Vᵀ`. Both give the same bits under the same records. After a fit's first
/// pass the fold refolds only the clusters whose members changed, and on the
/// gather path it asks the source for only the columns those clusters read
/// ([`DistanceEngine::columns`]).
pub(crate) struct PopcornEngine<T: Scalar> {
    k: usize,
    point_norms: Option<Vec<T>>,
    fold: SelectionFold<T>,
}

impl<T: Scalar> PopcornEngine<T> {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            point_norms: None,
            fold: SelectionFold::new(FoldWeights::Mean, -2.0),
        }
    }
}

impl<T: Scalar> DistanceEngine<T> for PopcornEngine<T> {
    fn begin_iteration(
        &mut self,
        iteration: usize,
        source: &dyn KernelSource<T>,
        labels: &[usize],
        executor: &dyn Executor,
    ) -> Result<()> {
        let n = source.n();
        let elem = std::mem::size_of::<T>();

        // P̃ = diag(K), computed once (paper Alg. 2 line 2).
        if self.point_norms.is_none() {
            self.point_norms = Some(source.diag(executor)?);
        }

        // Rebuild V from the current assignment (lines 4 / 14; a small
        // counting-sort kernel in the original implementation).
        let selection = executor.run(
            format!("rebuild V (iteration {iteration})"),
            Phase::Assignment,
            OpClass::Other,
            OpCost::elementwise(n, 1, 3, 0, elem),
            || SelectionMatrix::<T>::from_assignments(labels, self.k),
        )?;

        // The n x k accumulator for E = -2 K V^T (becomes D in place),
        // recycled through recycle_distances across iterations. A fit's
        // first pass folds every cluster; later ones refold the changed.
        if iteration == 0 {
            executor.track_alloc(n as u64 * self.k as u64 * elem as u64);
            self.fold.forget();
        }
        self.fold.begin(source, selection, false);
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
        let fold = &mut self.fold;
        run_tile_fold::<T>(rows.clone(), n, self.k, executor, || {
            fold.panel(rows, Panel::Rows(tile))
        })
    }

    fn consume_lower_tile(
        &mut self,
        rows: Range<usize>,
        panel: PackedRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        // Charged as the full tile's rows of `n` columns.
        let n = self.fold.selection().n();
        let fold = &mut self.fold;
        run_tile_fold::<T>(rows.clone(), n, self.k, executor, || {
            fold.panel(rows, Panel::Lower(panel))
        })
    }

    fn consume_csr_tile(
        &mut self,
        rows: Range<usize>,
        panel: popcorn_sparse::CsrRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        let (fold, n, nnz) = (&mut self.fold, panel.cols(), panel.nnz());
        run_csr_tile_fold::<T>(rows.clone(), nnz, n, self.k, executor, || {
            fold.panel(rows, Panel::Csr(panel))
        })
    }

    fn columns(&self) -> Option<&[usize]> {
        self.fold.columns()
    }

    fn finish_iteration(&mut self, executor: &dyn Executor) -> Result<DenseMatrix<T>> {
        let e = self.fold.finish();
        let point_norms = self.point_norms.as_ref().expect("populated in begin");
        Ok(finish_distances(e, point_norms, self.fold.selection(), executor)?.distances)
    }

    fn recycle_distances(&mut self, distances: DenseMatrix<T>) {
        self.fold.recycle(distances);
    }

    /// `P̃` comes from the source's `diag(K)`.
    fn reads_source_diag(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::CoreError;
    use crate::init::Initialization;
    use crate::kernel::KernelFunction;
    use crate::kernel_source::{FullKernel, PanelKind, TilePolicy, TiledKernel};
    use crate::nystrom::NystromKernel;
    use crate::solver::Solver;
    use crate::sparsified::{SparsifiedKernel, Sparsify};
    use crate::strategy::KernelMatrixStrategy;
    use popcorn_gpusim::{SimExecutor, StreamMeter, Streaming};
    use popcorn_sparse::CsrMatrix;
    use std::sync::Arc;

    /// Two well separated blobs in 2-D, 12 points each.
    fn blob_points() -> DenseMatrix<f64> {
        DenseMatrix::from_fn(24, 2, |i, j| {
            let offset = if i < 12 { 0.0 } else { 20.0 };
            offset + ((i * 2 + j) as f64 * 0.37).sin() * 0.5
        })
    }

    fn quick_config(k: usize) -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(k)
            .with_kernel(KernelFunction::Linear)
            .with_max_iter(20)
            .with_convergence_check(true, 1e-9)
            .with_seed(3)
    }

    #[test]
    fn recovers_two_blobs_with_linear_kernel() {
        let result = KernelKmeans::new(quick_config(2))
            .fit(&blob_points())
            .unwrap();
        assert_eq!(result.labels.len(), 24);
        assert!(result.converged);
        // The two halves must be internally consistent and mutually distinct.
        let first = result.labels[0];
        let second = result.labels[12];
        assert_ne!(first, second);
        assert!(result.labels[..12].iter().all(|&l| l == first));
        assert!(result.labels[12..].iter().all(|&l| l == second));
    }

    #[test]
    fn objective_is_monotone_non_increasing() {
        let result = KernelKmeans::new(
            quick_config(3)
                .with_convergence_check(false, 0.0)
                .with_max_iter(10),
        )
        .fit(&blob_points())
        .unwrap();
        let history = result.objective_history();
        assert_eq!(history.len(), 10);
        for w in history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn runs_exactly_max_iter_without_convergence_check() {
        let result = KernelKmeans::new(quick_config(2).with_convergence_check(false, 0.0))
            .fit(&blob_points())
            .unwrap();
        assert_eq!(result.iterations, 20);
        assert!(!result.converged);
    }

    #[test]
    fn polynomial_and_gaussian_kernels_run() {
        for kernel in [
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 1.0,
                sigma: 5.0,
            },
        ] {
            let cfg = quick_config(2).with_kernel(kernel);
            let result = KernelKmeans::new(cfg).fit(&blob_points()).unwrap();
            assert_eq!(result.non_empty_clusters(), 2);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KernelKmeans::new(quick_config(3))
            .fit(&blob_points())
            .unwrap();
        let b = KernelKmeans::new(quick_config(3))
            .fit(&blob_points())
            .unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn kmeanspp_initialisation_works() {
        let cfg = quick_config(2).with_init(Initialization::KmeansPlusPlus);
        let result = KernelKmeans::new(cfg).fit(&blob_points()).unwrap();
        assert_eq!(result.non_empty_clusters(), 2);
        assert!(result.converged);
    }

    #[test]
    fn timings_are_populated_per_phase() {
        let result = KernelKmeans::new(quick_config(2))
            .fit(&blob_points())
            .unwrap();
        assert!(result.modeled_timings.data_preparation > 0.0);
        assert!(result.modeled_timings.kernel_matrix > 0.0);
        assert!(result.modeled_timings.pairwise_distances > 0.0);
        assert!(result.modeled_timings.assignment > 0.0);
        assert!(result.modeled_timings.total() > 0.0);
        assert!(result.host_timings.total() > 0.0);
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn fit_from_kernel_skips_kernel_matrix_phase() {
        let points = blob_points();
        let kernel_matrix = crate::kernel::kernel_matrix_reference(&points, KernelFunction::Linear);
        let result = KernelKmeans::new(quick_config(2))
            .fit_from_kernel(&kernel_matrix)
            .unwrap();
        // No Gram-matrix product is performed — only the cheap diag(K)
        // extraction is attributed to the kernel-matrix phase.
        assert_eq!(result.trace.class_summary(OpClass::Gemm).0, 0.0);
        assert_eq!(result.trace.class_summary(OpClass::Syrk).0, 0.0);
        assert!(result.modeled_timings.pairwise_distances > 0.0);
        assert!(result.modeled_timings.kernel_matrix < result.modeled_timings.pairwise_distances);
        assert_eq!(result.non_empty_clusters(), 2);
    }

    #[test]
    fn strategy_override_is_respected() {
        // Both forced strategies produce the same clustering.
        let a = KernelKmeans::new(quick_config(2).with_strategy(KernelMatrixStrategy::ForceGemm))
            .fit(&blob_points())
            .unwrap();
        let b = KernelKmeans::new(quick_config(2).with_strategy(KernelMatrixStrategy::ForceSyrk))
            .fit(&blob_points())
            .unwrap();
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn input_validation_errors() {
        let solver = KernelKmeans::new(quick_config(30));
        assert!(matches!(
            solver.fit(&blob_points()),
            Err(CoreError::InvalidConfig(_))
        ));
        let nan_points = DenseMatrix::from_rows(&[vec![f64::NAN, 1.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            KernelKmeans::new(quick_config(2)).fit(&nan_points),
            Err(CoreError::InvalidInput(_))
        ));
        let empty_features = DenseMatrix::<f64>::zeros(5, 0);
        assert!(KernelKmeans::new(quick_config(2))
            .fit(&empty_features)
            .is_err());
        let rect = DenseMatrix::<f64>::zeros(4, 3);
        assert!(KernelKmeans::new(quick_config(2))
            .fit_from_kernel(&rect)
            .is_err());
    }

    #[test]
    fn f32_path_produces_same_clustering_as_f64() {
        let points64 = blob_points();
        let points32: DenseMatrix<f32> = points64.cast();
        let a = KernelKmeans::new(quick_config(2)).fit(&points64).unwrap();
        let b = KernelKmeans::new(quick_config(2)).fit(&points32).unwrap();
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn shared_executor_accumulates_across_fits() {
        let exec = SimExecutor::a100_f32();
        let solver = KernelKmeans::new(quick_config(2)).with_executor(exec.clone());
        solver.fit(&blob_points()).unwrap();
        let after_one = exec.trace().len();
        solver.fit(&blob_points()).unwrap();
        assert!(exec.trace().len() > after_one);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let points = DenseMatrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64 * 3.0);
        let cfg = quick_config(6).with_max_iter(10);
        let result = KernelKmeans::new(cfg).fit(&points).unwrap();
        // With k = n and repair enabled every cluster ends up non-empty.
        assert_eq!(result.non_empty_clusters(), 6);
        assert!(result.objective < 1e-9);
    }

    #[test]
    fn sparse_fit_matches_dense_fit_exactly() {
        // The headline of the API redesign: the same points fed as CSR must
        // produce the identical clustering, with the Gram product charged as
        // SpGEMM instead of GEMM/SYRK.
        let points = blob_points();
        let csr = CsrMatrix::from_dense(&points);
        for kernel in [KernelFunction::Linear, KernelFunction::paper_polynomial()] {
            let cfg = quick_config(3).with_kernel(kernel);
            let dense = KernelKmeans::new(cfg.clone()).fit(&points).unwrap();
            let sparse = KernelKmeans::new(cfg).fit_sparse(&csr).unwrap();
            assert_eq!(dense.labels, sparse.labels, "kernel {}", kernel.name());
            assert_eq!(dense.iterations, sparse.iterations);
            assert!((dense.objective - sparse.objective).abs() < 1e-9);
            let (spgemm_time, _) = sparse.trace.class_summary(OpClass::SpGEMM);
            assert!(spgemm_time > 0.0, "sparse gram must be charged as SpGEMM");
            assert_eq!(sparse.trace.class_summary(OpClass::Gemm).0, 0.0);
        }
    }

    #[test]
    fn huge_feature_indices_fit_whole_and_tiled() {
        // libSVM rows using feature 4e9: every buffer of the CSR fit must be
        // sized by the stored entries, not by the feature count.
        let csr = CsrMatrix::from_raw(
            3,
            4_000_000_001,
            vec![0, 2, 4, 6],
            vec![1, 4_000_000_000, 2, 3, 1, 4_000_000_000],
            vec![0.5f64, 1.0, 0.25, 1.0, 1.0, 0.5],
        )
        .unwrap();
        for tiling in [TilePolicy::Full, TilePolicy::Rows(2)] {
            let fit = KernelKmeans::new(quick_config(2).with_tiling(tiling)).fit_sparse(&csr);
            assert!(fit.is_ok(), "{tiling:?}: {:?}", fit.err());
        }
    }

    /// One distance pass of a fresh `family` engine over `source`, driven
    /// as the fit drives it: CSR panels when the source keeps `K`
    /// CSR-resident, dense tiles otherwise.
    fn engine_distances(
        family: ModelFamily,
        source: &dyn KernelSource<f64>,
        labels: &[usize],
        k: usize,
        exec: &SimExecutor,
    ) -> Vec<u64> {
        let mut engine = family.engine::<f64>(k).unwrap();
        let mut meter = StreamMeter::new(Streaming::Off);
        let distances =
            crate::pipeline::distance_pass(source, &mut *engine, 0, labels, &mut meter, exec);
        let distances = distances.unwrap();
        distances.as_slice().iter().map(|d| d.to_bits()).collect()
    }

    /// The source's `K`, whole.
    fn materialize(source: &dyn KernelSource<f64>, exec: &SimExecutor) -> DenseMatrix<f64> {
        if let Some(csr) = source.csr() {
            return csr.to_dense();
        }
        let n = source.n();
        let mut matrix = DenseMatrix::zeros(n, n);
        let out = matrix.as_mut_slice();
        source
            .for_each_tile(exec, &mut |rows, tile| {
                out[rows.start * n..rows.end * n].copy_from_slice(tile.as_slice());
                Ok(())
            })
            .unwrap();
        matrix
    }

    #[test]
    fn the_distance_fold_follows_the_source() {
        let points = blob_points();
        let exec = SimExecutor::a100_f32();
        let k = 4;
        // Cluster 3 is empty.
        let labels: Vec<usize> = (0..24).map(|i| [0, 2, 1, 2, 0][i % 5]).collect();
        let selection = SelectionMatrix::from_assignments(&labels, k).unwrap();
        // Popcorn's reference: the gather over the source's matrix, under
        // the source's own `diag(K)`.
        let gather = |source: &dyn KernelSource<f64>| -> Vec<u64> {
            let norms = source.diag(&exec).unwrap();
            let matrix = materialize(source, &exec);
            let out = crate::distances::compute_distances(&matrix, &norms, &selection, &exec);
            let distances = out.unwrap().distances;
            distances.as_slice().iter().map(|d| d.to_bits()).collect()
        };
        let run = |family, source: &dyn KernelSource<f64>| {
            engine_distances(family, source, &labels, k, &exec)
        };

        // A caller's matrix may be asymmetric: the engines keep the gather.
        let asymmetric = DenseMatrix::from_fn(24, 24, |i, j| ((i * 24 + j) as f64 * 0.37).sin());
        let caller = FullKernel::new(&asymmetric).unwrap();
        assert_eq!(caller.panel_kind(), PanelKind::Rows);
        // Folding only its lower triangle would change the bits.
        let lower = PackedSymmetric::from_lower(&asymmetric).unwrap();
        let as_computed = FullKernel::computed(Arc::new(lower));
        assert_ne!(run(ModelFamily::Popcorn, &as_computed), gather(&caller));
        assert_ne!(
            run(ModelFamily::DenseBaseline, &as_computed),
            run(ModelFamily::CpuReference, &caller)
        );

        // The solver's computed K, whole or in tiles, folds its packed rows.
        let kernel = KernelFunction::paper_polynomial();
        let strategy = KernelMatrixStrategy::default();
        let (computed, _) =
            crate::kernel_matrix::compute_kernel_matrix(&points, kernel, strategy, &exec).unwrap();
        let full = FullKernel::computed(Arc::new(computed));
        let tiled = TiledKernel::new(FitInput::Dense(&points), kernel, 5, &exec).unwrap();
        assert_eq!(full.panel_kind(), PanelKind::Lower);
        assert_eq!(tiled.panel_kind(), PanelKind::Lower);

        // Reconstructed and sparsified kernels promise no symmetry.
        let input = FitInput::Dense(&points);
        let nystrom = NystromKernel::new(input, kernel, 6, 1, TilePolicy::Auto, k, &exec).unwrap();
        let sparsify = Sparsify::Knn { neighbors: 3 };
        let sparsified =
            SparsifiedKernel::build(input, kernel, sparsify, TilePolicy::Auto, k, &exec).unwrap();
        assert_eq!(nystrom.panel_kind(), PanelKind::Rows);
        assert_eq!(sparsified.panel_kind(), PanelKind::Csr);

        // Whichever path a source takes, Popcorn gets the gather's bits and
        // the dense baseline's unit-weight fold the CPU reference's.
        let sources: [&dyn KernelSource<f64>; 5] = [&caller, &full, &tiled, &nystrom, &sparsified];
        for (case, source) in sources.into_iter().enumerate() {
            assert_eq!(
                run(ModelFamily::Popcorn, source),
                gather(source),
                "case {case}"
            );
            assert_eq!(
                run(ModelFamily::DenseBaseline, source),
                run(ModelFamily::CpuReference, source),
                "case {case}"
            );
        }
    }

    #[test]
    fn dyn_solver_dispatch_works() {
        let solver: Box<dyn Solver<f64>> = Box::new(KernelKmeans::new(quick_config(2)));
        assert_eq!(solver.name(), "popcorn");
        assert_eq!(solver.config().k, 2);
        let result = solver.fit(&blob_points()).unwrap();
        assert!(result.converged);
    }
}
