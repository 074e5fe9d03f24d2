//! The Popcorn kernel k-means solver (paper Algorithm 2).
//!
//! [`KernelKmeans`] wires the pieces together through the shared
//! [`crate::pipeline`]: kernel-matrix computation with dynamic GEMM/SYRK
//! selection (or SpGEMM for sparse inputs), the per-iteration SpMM + SpMV
//! distance engine, argmin assignment and selection-matrix rebuild — all
//! executed on the host substrates while every operation is charged to a
//! [`SimExecutor`] so the result carries both measured host timings and
//! modeled A100 timings broken down by phase.

use crate::batch::{self, BatchResult, FitJob};
use crate::config::KernelKmeansConfig;
use crate::distances::{
    accumulate_distance_csr_tile, accumulate_distance_tile, accumulate_distance_tile_t,
    finish_distances, scale_transposed, selection_weights,
};
use crate::kernel_source::{run_with_source, KernelSource};
use crate::pipeline::{self, DistanceEngine};
use crate::result::ClusteringResult;
use crate::solver::{FitInput, Solver};
use crate::Result;
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_gpusim::{
    DeviceSpec, Executor, ExecutorExt, OpClass, OpCost, Phase, ResidencyScope, SimExecutor,
};
use popcorn_sparse::SelectionMatrix;
use std::ops::Range;
use std::sync::Arc;

/// The Popcorn kernel k-means solver.
#[derive(Debug, Clone)]
pub struct KernelKmeans {
    config: KernelKmeansConfig,
    executor: Option<Arc<dyn Executor>>,
}

/// Popcorn's matrix-centric distance engine: rebuild `V`, one SpMM per kernel
/// tile, one gather, one SpMV and one assembly kernel per iteration (Alg. 2
/// lines 4–10). The point norms `P̃ = diag(K)` are extracted once on first
/// use. With an in-core source (one tile) the per-iteration trace is the
/// classic SpMM + gather + SpMV + assembly quartet.
///
/// Over a source whose tiles are symmetric
/// ([`KernelSource::symmetric_tiles`]) each SpMM folds its tile into
/// `Eᵀ = V K` row by row, streaming `K` once, and the iteration ends by
/// writing `E = −2 · (Eᵀ)ᵀ`; over any other source it gathers `E = −2 K Vᵀ`.
/// Both give the same bits under the same records.
pub(crate) struct PopcornEngine<T: Scalar> {
    k: usize,
    point_norms: Option<Vec<T>>,
    selection: Option<SelectionMatrix<T>>,
    e: Option<DenseMatrix<T>>,
    /// Recycled distance matrix from the previous iteration, zero-filled and
    /// reused as the next `E` accumulator instead of allocating a fresh
    /// `n × k` buffer per pass (bit-identical: zeroed memory either way).
    spare: Option<DenseMatrix<T>>,
    /// Per-cluster fold weights `1/|L_j|` for the sparse and symmetric tile
    /// folds, rebuilt in place each iteration so neither allocates per tile.
    cluster_weights: Vec<T>,
    /// Whether this iteration's source has symmetric tiles.
    symmetric: bool,
    /// The `k × n` accumulator of `Eᵀ = V K` for symmetric sources, zeroed
    /// in place each iteration. Host scratch: the modeled device holds `E`.
    e_t: Vec<T>,
}

impl<T: Scalar> PopcornEngine<T> {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            point_norms: None,
            selection: None,
            e: None,
            spare: None,
            cluster_weights: Vec::new(),
            symmetric: false,
            e_t: Vec::new(),
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
        // Fold weights for the sparse path, refreshed in place (bitwise the
        // selection matrix's stored values).
        self.cluster_weights.clear();
        self.cluster_weights.extend(selection_weights(&selection));
        self.selection = Some(selection);
        self.symmetric = source.symmetric_tiles();
        if self.symmetric {
            self.e_t.clear();
            self.e_t.resize(self.k * n, T::ZERO);
        }

        // The n x k accumulator for E = -2 K V^T (becomes D in place). The
        // buffer is allocated once and recycled through recycle_distances
        // across iterations.
        if iteration == 0 {
            executor.track_alloc(n as u64 * self.k as u64 * elem as u64);
        }
        self.e = Some(match self.spare.take() {
            Some(mut spare) if spare.rows() == n && spare.cols() == self.k => {
                spare.fill(T::ZERO);
                spare
            }
            _ => DenseMatrix::zeros(n, self.k),
        });
        Ok(())
    }

    fn consume_tile(
        &mut self,
        rows: Range<usize>,
        tile: &DenseMatrix<T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        let selection = self.selection.as_ref().expect("begin_iteration ran");
        if self.symmetric {
            let weights = &self.cluster_weights;
            accumulate_distance_tile_t(&mut self.e_t, rows, tile, selection, weights, executor)
        } else {
            let e = self.e.as_mut().expect("begin_iteration ran");
            accumulate_distance_tile(e, rows, tile, selection, executor)
        }
    }

    fn consume_csr_tile(
        &mut self,
        rows: Range<usize>,
        panel: popcorn_sparse::CsrRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        let e = self.e.as_mut().expect("begin_iteration ran");
        let selection = self.selection.as_ref().expect("begin_iteration ran");
        accumulate_distance_csr_tile(e, rows, panel, selection, &self.cluster_weights, executor)
    }

    fn finish_iteration(&mut self, executor: &dyn Executor) -> Result<DenseMatrix<T>> {
        let mut e = self.e.take().expect("begin_iteration ran");
        if self.symmetric {
            scale_transposed(&self.e_t, &mut e);
        }
        let selection = self.selection.as_ref().expect("begin_iteration ran");
        let point_norms = self.point_norms.as_ref().expect("populated in begin");
        Ok(finish_distances(e, point_norms, selection, executor)?.distances)
    }

    fn recycle_distances(&mut self, distances: DenseMatrix<T>) {
        self.spare = Some(distances);
    }
}

impl KernelKmeans {
    /// Create a solver with the given configuration. The simulated device
    /// defaults to the paper's A100 and is created lazily at `fit` time so
    /// that the element width matches the scalar type used.
    pub fn new(config: KernelKmeansConfig) -> Self {
        Self {
            config,
            executor: None,
        }
    }

    /// Use a specific simulator executor (e.g. a different device preset, a
    /// shared profiler, or a multi-device [`popcorn_gpusim::ShardedExecutor`]).
    /// The executor's trace is *not* reset by `fit`.
    pub fn with_executor(self, executor: impl Executor + 'static) -> Self {
        self.with_shared_executor(Arc::new(executor))
    }

    /// Use an already-shared executor handle (the CLI's sharded topology
    /// goes through this).
    pub fn with_shared_executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The solver configuration.
    pub fn config(&self) -> &KernelKmeansConfig {
        &self.config
    }

    fn executor_for<T: Scalar>(&self) -> Arc<dyn Executor> {
        self.executor.clone().unwrap_or_else(|| {
            Arc::new(SimExecutor::new(
                DeviceSpec::a100_80gb(),
                std::mem::size_of::<T>(),
            ))
        })
    }

    fn iterate_source<T: Scalar>(
        &self,
        source: &dyn KernelSource<T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
    ) -> Result<ClusteringResult> {
        let mut engine = PopcornEngine::new(config.k);
        pipeline::iterate(source, config, executor, &mut engine)
    }
}

impl<T: Scalar> Solver<T> for KernelKmeans {
    fn name(&self) -> &'static str {
        "popcorn"
    }

    fn config(&self) -> &KernelKmeansConfig {
        &self.config
    }

    /// Run the full pipeline on dense or CSR points: upload, then — per the
    /// tiling plan — either a precomputed kernel matrix (GEMM/SYRK for dense,
    /// SpGEMM for sparse) or a streamed [`crate::ShardedKernelSource`] that
    /// recomputes row tiles every iteration, then the clustering iterations. Tiling never
    /// changes the results, only what is resident and what is charged.
    fn fit_input_with(
        &self,
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
    ) -> Result<ClusteringResult> {
        config.validate(input.n())?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let executor: &dyn Executor = &*executor;
        let _residency = ResidencyScope::new(executor);

        // Data preparation: host -> device copy of P̂ (paper §4.1).
        input.charge_upload(executor);

        run_with_source(
            input,
            config.kernel,
            config.approx,
            config.tiling,
            config.k,
            executor,
            || {
                Ok(input
                    .compute_kernel_matrix(config.kernel, config.strategy, executor)?
                    .0)
            },
            |source| self.iterate_source(source, config, executor),
        )
    }

    /// Run only the clustering iterations over a kernel source. Used by the
    /// distance-phase experiments (Figures 4–6), which exclude the
    /// kernel-matrix time by design.
    fn fit_from_source_with(
        &self,
        source: &dyn KernelSource<T>,
        config: &KernelKmeansConfig,
    ) -> Result<ClusteringResult> {
        let executor = self.executor_for::<T>();
        let executor: &dyn Executor = &*executor;
        let _residency = ResidencyScope::new(executor);
        self.iterate_source(source, config, executor)
    }

    /// [`Solver::fit_input_with`] plus model extraction off the live kernel
    /// source, so the model shares the fit's resident state.
    fn fit_model_with(
        &self,
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
    ) -> Result<(ClusteringResult, crate::model::FittedModel<T>)> {
        config.validate(input.n())?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let executor: &dyn Executor = &*executor;
        let _residency = ResidencyScope::new(executor);
        input.charge_upload(executor);
        crate::model::fit_model_via(
            crate::model::ModelFamily::Popcorn,
            input,
            input,
            config,
            executor,
            || {
                Ok(input
                    .compute_kernel_matrix(config.kernel, config.strategy, executor)?
                    .0)
            },
        )
    }

    /// Warm-start/mini-batch refits over the model's resident kernel state —
    /// see [`crate::model::RefitRequest`] for the residency rules.
    fn refit(
        &self,
        model: &crate::model::FittedModel<T>,
        request: &crate::model::RefitRequest<T>,
    ) -> Result<(ClusteringResult, crate::model::FittedModel<T>)> {
        let executor = self.executor_for::<T>();
        let executor: &dyn Executor = &*executor;
        let _residency = ResidencyScope::new(executor);
        crate::model::refit_via(
            crate::model::ModelFamily::Popcorn,
            model,
            request,
            executor,
            &|input, config, executor| {
                Ok(input
                    .compute_kernel_matrix(config.kernel, config.strategy, executor)?
                    .0)
            },
        )
    }

    /// The restart protocol: upload the points once, then either compute `K`
    /// exactly once (in-core) or stream recomputed tiles where **one tile
    /// pass per iteration feeds every job** (out-of-core) — the lockstep
    /// driver in [`crate::batch`], fanning per-job work across
    /// `options.host_threads` workers.
    fn fit_batch_with(
        &self,
        input: FitInput<'_, T>,
        jobs: &[FitJob],
        options: &batch::BatchOptions,
    ) -> Result<BatchResult> {
        let plan = batch::validate_jobs(&input, jobs)?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let executor: &dyn Executor = &*executor;
        let _residency = ResidencyScope::new(executor);
        let mark = executor.trace().len();
        input.charge_upload(executor);
        // The lockstep driver keeps every job's n x k buffer live at once, so
        // the residency plan budgets the sum of the jobs' k values.
        let k_budget = jobs.iter().map(|j| j.config.k).sum();
        run_with_source(
            input,
            plan.kernel,
            plan.approx,
            plan.tiling,
            k_budget,
            executor,
            || {
                Ok(input
                    .compute_kernel_matrix(plan.kernel, plan.strategy, executor)?
                    .0)
            },
            |source| {
                // P̃ = diag(K) is identical across jobs: compute and charge it
                // once in the shared phase; per-job engines read the cache.
                source.diag(executor)?;
                batch::drive_shared_source_with(jobs, source, executor, mark, options, |job| {
                    Box::new(PopcornEngine::new(job.config.k))
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::CoreError;
    use crate::init::Initialization;
    use crate::kernel::KernelFunction;
    use crate::kernel_source::{FullKernel, TilePolicy, TiledKernel};
    use crate::nystrom::NystromKernel;
    use crate::sparsified::{SparsifiedKernel, Sparsify};
    use crate::strategy::KernelMatrixStrategy;
    use popcorn_sparse::CsrMatrix;

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

    /// One distance pass of a fresh engine over `source`.
    fn engine_distances(
        source: &dyn KernelSource<f64>,
        labels: &[usize],
        k: usize,
        exec: &SimExecutor,
    ) -> Vec<u64> {
        let mut engine = PopcornEngine::new(k);
        engine.begin_iteration(0, source, labels, exec).unwrap();
        source
            .for_each_tile(exec, &mut |rows, tile| {
                engine.consume_tile(rows, tile, exec)
            })
            .unwrap();
        let distances = engine.finish_iteration(exec).unwrap();
        distances.as_slice().iter().map(|d| d.to_bits()).collect()
    }

    #[test]
    fn the_distance_fold_follows_the_source() {
        let points = blob_points();
        let exec = SimExecutor::a100_f32();
        let k = 4;
        // Cluster 3 is empty.
        let labels: Vec<usize> = (0..24).map(|i| [0, 2, 1, 2, 0][i % 5]).collect();
        let selection = SelectionMatrix::from_assignments(&labels, k).unwrap();
        let gather = |matrix: &DenseMatrix<f64>| -> Vec<u64> {
            let norms = popcorn_dense::diagonal(matrix).unwrap();
            let out = crate::distances::compute_distances(matrix, &norms, &selection, &exec);
            let distances = out.unwrap().distances;
            distances.as_slice().iter().map(|d| d.to_bits()).collect()
        };

        // A caller's matrix may be asymmetric: the engine keeps the gather.
        let asymmetric = DenseMatrix::from_fn(24, 24, |i, j| ((i * 24 + j) as f64 * 0.37).sin());
        let source = FullKernel::new(&asymmetric).unwrap();
        assert!(!source.symmetric_tiles());
        assert_eq!(
            engine_distances(&source, &labels, k, &exec),
            gather(&asymmetric)
        );
        // Folding its rows as columns would change the bits.
        let as_computed = FullKernel::computed(&asymmetric).unwrap();
        assert_ne!(
            engine_distances(&as_computed, &labels, k, &exec),
            gather(&asymmetric)
        );

        // The solver's computed K, whole or in tiles, folds row by row to the
        // gather's bits.
        let kernel = KernelFunction::paper_polynomial();
        let strategy = KernelMatrixStrategy::default();
        let (computed, _) =
            crate::kernel_matrix::compute_kernel_matrix(&points, kernel, strategy, &exec).unwrap();
        let full = FullKernel::computed(&computed).unwrap();
        let tiled = TiledKernel::new(FitInput::Dense(&points), kernel, 5, &exec).unwrap();
        for source in [&full as &dyn KernelSource<f64>, &tiled] {
            assert!(source.symmetric_tiles());
            assert_eq!(
                engine_distances(source, &labels, k, &exec),
                gather(&computed)
            );
        }

        // Reconstructed and sparsified kernels promise no symmetry.
        let input = FitInput::Dense(&points);
        let nystrom = NystromKernel::new(input, kernel, 6, 1, TilePolicy::Auto, k, &exec).unwrap();
        let sparsify = Sparsify::Knn { neighbors: 3 };
        let sparsified =
            SparsifiedKernel::build(input, kernel, sparsify, TilePolicy::Auto, k, &exec).unwrap();
        assert!(!nystrom.symmetric_tiles());
        assert!(!sparsified.symmetric_tiles());
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
