//! The unified solver API: [`Solver`], [`FitInput`] and the one kernel
//! k-means shell, [`KernelSolver`].
//!
//! Every clustering implementation in this workspace — Popcorn itself and the
//! three baselines — exposes the same surface: construct with a
//! [`KernelKmeansConfig`], then `fit` a dense point matrix, `fit_sparse` a
//! CSR point matrix, or `fit_from_kernel` a precomputed kernel matrix. The
//! CLI driver and the experiment harness dispatch over `&dyn Solver<T>`, so
//! adding a solver never adds another match arm to the drivers.
//!
//! The three kernel k-means implementations (Popcorn, the CPU reference and
//! the dense GPU baseline) run one Alg. 2 loop and differ only in how the
//! points reach the device, how `K` is built and which distance engine runs.
//! So they are one [`KernelSolver`] over a [`KernelFamily`]: the family's
//! [`ModelFamily`] tag names the engine and default device, and two hooks
//! prepare the points and build the in-core `K`. Everything else — validation,
//! residency, the kernel-source plan, the loop, model extraction, refits and
//! the lockstep batch — exists once.
//!
//! [`FitInput`] is the layout-erased borrow of the points. It owns input
//! validation, the modeled host→device upload, and the kernel-matrix
//! computation — dense inputs go through the GEMM/SYRK strategy (paper §4.2),
//! sparse inputs through the SpGEMM Gram path, so the paper's sparse text
//! workloads (scotus: ~99.9% zeros) are clustered without ever materializing
//! a dense copy of the points.

use crate::batch::{self, BatchResult, FitJob};
use crate::config::KernelKmeansConfig;
use crate::errors::CoreError;
use crate::kernel::KernelFunction;
use crate::kernel_matrix::{self, INDEX_BYTES};
use crate::kernel_source::{run_with_source, FullKernel, KernelSource};
use crate::model::{self, FittedModel, ModelFamily, RefitRequest};
use crate::pipeline;
use crate::result::ClusteringResult;
use crate::strategy::{GramRoutine, KernelMatrixStrategy};
use crate::Result;
use popcorn_dense::{DenseMatrix, PackedSymmetric, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase, ResidencyScope, SimExecutor};
use popcorn_sparse::CsrMatrix;
use std::marker::PhantomData;
use std::sync::Arc;

/// A borrowed point matrix in whichever layout the caller has it.
#[derive(Debug, Clone, Copy)]
pub enum FitInput<'a, T: Scalar> {
    /// Row-major dense points (`n × d`).
    Dense(&'a DenseMatrix<T>),
    /// CSR sparse points (`n × d`); kept sparse through validation, upload
    /// accounting and the Gram product.
    Sparse(&'a CsrMatrix<T>),
}

impl<'a, T: Scalar> From<&'a DenseMatrix<T>> for FitInput<'a, T> {
    fn from(points: &'a DenseMatrix<T>) -> Self {
        FitInput::Dense(points)
    }
}

impl<'a, T: Scalar> From<&'a CsrMatrix<T>> for FitInput<'a, T> {
    fn from(points: &'a CsrMatrix<T>) -> Self {
        FitInput::Sparse(points)
    }
}

impl<'a, T: Scalar> FitInput<'a, T> {
    /// Number of points `n`.
    pub fn n(&self) -> usize {
        match self {
            FitInput::Dense(p) => p.rows(),
            FitInput::Sparse(p) => p.rows(),
        }
    }

    /// Number of features `d`.
    pub fn d(&self) -> usize {
        match self {
            FitInput::Dense(p) => p.cols(),
            FitInput::Sparse(p) => p.cols(),
        }
    }

    /// Number of stored entries (`n·d` for dense inputs).
    pub fn nnz(&self) -> usize {
        match self {
            FitInput::Dense(p) => p.rows() * p.cols(),
            FitInput::Sparse(p) => p.nnz(),
        }
    }

    /// `true` for the CSR variant.
    pub fn is_sparse(&self) -> bool {
        matches!(self, FitInput::Sparse(_))
    }

    /// Stored-entry fraction (1.0 for dense inputs).
    pub fn density(&self) -> f64 {
        match self {
            FitInput::Dense(_) => 1.0,
            FitInput::Sparse(p) => p.density(),
        }
    }

    /// Validate the points: at least one feature, and no NaN/∞ values.
    pub fn validate(&self) -> Result<()> {
        if self.d() == 0 {
            return Err(CoreError::InvalidInput("points have zero features".into()));
        }
        let finite = match self {
            FitInput::Dense(p) => p.as_slice().iter().all(|v| v.is_finite()),
            FitInput::Sparse(p) => p.values().iter().all(|v| v.is_finite()),
        };
        if !finite {
            return Err(CoreError::InvalidInput(
                "points contain non-finite values".into(),
            ));
        }
        Ok(())
    }

    /// Bytes a host→device upload of these points moves: the dense array for
    /// dense inputs, the three CSR arrays for sparse inputs (§4.1; 32-bit
    /// indices per §4.4). Computed in `u64` so `n · d` products past the
    /// 32-bit boundary never truncate on narrow targets.
    pub fn upload_bytes(&self) -> u64 {
        let elem = std::mem::size_of::<T>();
        match self {
            FitInput::Dense(p) => dense_upload_bytes(p.rows(), p.cols(), elem),
            FitInput::Sparse(p) => p.storage_bytes(elem, INDEX_BYTES),
        }
    }

    /// Charge the modeled host→device copy of the points to the executor and
    /// track their device residency.
    pub fn charge_upload(&self, executor: &dyn Executor) {
        let layout = if self.is_sparse() { "csr" } else { "dense" };
        executor.charge(
            format!("upload P {} ({} x {})", layout, self.n(), self.d()),
            Phase::DataPreparation,
            OpClass::Transfer,
            OpCost::transfer(self.upload_bytes()),
        );
        executor.track_alloc(self.upload_bytes());
    }

    /// Compute the kernel matrix `K = kernel(P̂ P̂ᵀ)` for these points,
    /// selecting GEMM/SYRK for dense inputs and SpGEMM for sparse inputs.
    pub fn compute_kernel_matrix(
        &self,
        kernel: KernelFunction,
        strategy: KernelMatrixStrategy,
        executor: &dyn Executor,
    ) -> Result<(PackedSymmetric<T>, GramRoutine)> {
        match self {
            FitInput::Dense(p) => {
                kernel_matrix::compute_kernel_matrix(p, kernel, strategy, executor)
            }
            FitInput::Sparse(p) => kernel_matrix::compute_kernel_matrix_csr(p, kernel, executor),
        }
    }

    /// A dense copy of the points. Only the dense GPU baseline uses this —
    /// the paper's baseline implementation cannot consume sparse operands, so
    /// it pays for the densification the other solvers avoid. CSR points
    /// take `n × d` entries whatever they store, so the size is checked and
    /// the buffer reserved fallibly: a libSVM file whose largest feature
    /// index is 4e9 gets [`CoreError::HostAllocationFailed`], not an abort.
    pub fn to_dense(&self) -> Result<DenseMatrix<T>> {
        let p = match self {
            FitInput::Dense(p) => return Ok((*p).clone()),
            FitInput::Sparse(p) => p,
        };
        let (n, d) = (p.rows(), p.cols());
        let failed = || CoreError::HostAllocationFailed {
            what: "the dense copy of the points",
            shape: (n, d),
            bytes: n as u128 * d as u128 * std::mem::size_of::<T>() as u128,
        };
        let len = n.checked_mul(d).ok_or_else(failed)?;
        let mut values = Vec::new();
        values.try_reserve_exact(len).map_err(|_| failed())?;
        values.resize(len, T::ZERO);
        for i in 0..n {
            let (cols, vals) = p.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                values[i * d + j] = v;
            }
        }
        Ok(DenseMatrix::from_vec(n, d, values)?)
    }
}

/// Upload bytes of a dense `rows × cols` matrix of `elem`-byte scalars,
/// computed in `u64` before any product — the `n · d` intermediate exceeds
/// `u32::MAX` well inside the paper's dataset range.
pub fn dense_upload_bytes(rows: usize, cols: usize, elem: usize) -> u64 {
    rows as u64 * cols as u64 * elem as u64
}

/// The interface every clustering implementation exposes.
///
/// Object-safe: the CLI driver and bench harness hold solvers as
/// `Box<dyn Solver<f32>>` and drive them uniformly. The `_with` variants take
/// an explicit configuration instead of the solver's own, so one solver
/// instance can run a job under another configuration (the property suites
/// compare batches against standalone per-job fits through them).
pub trait Solver<T: Scalar> {
    /// Short display name ("popcorn", "cpu-reference", ...).
    fn name(&self) -> &'static str;

    /// The solver configuration.
    fn config(&self) -> &KernelKmeansConfig;

    /// Run the full pipeline on points in either layout: validate, upload,
    /// kernel matrix, clustering iterations.
    fn fit_input(&self, input: FitInput<'_, T>) -> Result<ClusteringResult> {
        self.fit_input_with(input, self.config())
    }

    /// Run the full pipeline with an explicit configuration.
    fn fit_input_with(
        &self,
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
    ) -> Result<ClusteringResult>;

    /// Run only the clustering iterations on a **borrowed** precomputed
    /// kernel matrix (used by the distance-phase experiments, Figures 4–6) —
    /// the single-tile case of [`Solver::fit_from_source_with`]. Solvers
    /// that do not operate on a kernel matrix (Lloyd) return
    /// [`CoreError::Unsupported`].
    fn fit_from_kernel(&self, kernel_matrix: &DenseMatrix<T>) -> Result<ClusteringResult> {
        let source = FullKernel::new(kernel_matrix)?;
        self.fit_from_source_with(&source, self.config())
    }

    /// Run only the clustering iterations over a [`KernelSource`] — the
    /// layer every kernel-matrix consumer goes through, whether the matrix
    /// is resident ([`crate::FullKernel`]) or streamed in recomputed row
    /// tiles ([`crate::TiledKernel`]). Solvers that do not operate on a
    /// kernel matrix (Lloyd) return [`CoreError::Unsupported`].
    fn fit_from_source_with(
        &self,
        source: &dyn KernelSource<T>,
        config: &KernelKmeansConfig,
    ) -> Result<ClusteringResult>;

    /// Fit and freeze a serving model in one pass — the result of
    /// [`Solver::fit_input`] plus a [`FittedModel`] that keeps the fit's
    /// resident kernel state for assignment and refits.
    fn fit_model(&self, input: FitInput<'_, T>) -> Result<(ClusteringResult, FittedModel<T>)>;

    /// Refit a fitted model: reuse its resident kernel state and stored
    /// points (charge-once residency), optionally warm-starting from the
    /// stored labels and/or appending new points — see [`RefitRequest`].
    /// With warm-start off and no new points, the refit is bit-identical to
    /// a cold fit.
    fn refit(
        &self,
        model: &FittedModel<T>,
        request: &RefitRequest<T>,
    ) -> Result<(ClusteringResult, FittedModel<T>)>;

    /// Fit every job of a batch over the same input, sharing whatever work
    /// is identical across jobs — the default-options convenience over
    /// [`Solver::fit_batch_with`].
    fn fit_batch(&self, input: FitInput<'_, T>, jobs: &[FitJob]) -> Result<BatchResult> {
        self.fit_batch_with(input, jobs, &batch::BatchOptions::default())
    }

    /// Fit every job of a batch over the same input with explicit
    /// [`batch::BatchOptions`] (host-thread policy for the parallel restart
    /// driver).
    ///
    /// [`KernelSolver`] runs the shared-`K` lockstep driver
    /// ([`batch::drive_shared_source_with`]) for every kernel family: the
    /// family's data preparation and the kernel matrix are charged exactly
    /// once for the whole batch, every job's clustering iterations borrow
    /// the shared matrix, and per-job engine work fans out across
    /// `options.host_threads` workers. Lloyd has no kernel matrix and shares
    /// its points upload the same way ([`batch::drive_shared_kernel_with`]).
    /// Per-job results are bit-identical to standalone `fit_input` calls at
    /// every thread count.
    fn fit_batch_with(
        &self,
        input: FitInput<'_, T>,
        jobs: &[FitJob],
        options: &batch::BatchOptions,
    ) -> Result<BatchResult>;

    /// Convenience: fit dense points.
    fn fit(&self, points: &DenseMatrix<T>) -> Result<ClusteringResult> {
        self.fit_input(FitInput::Dense(points))
    }

    /// Convenience: fit CSR points without densifying them.
    fn fit_sparse(&self, points: &CsrMatrix<T>) -> Result<ClusteringResult> {
        self.fit_input(FitInput::Sparse(points))
    }
}

/// What sets one kernel k-means implementation apart from the others. The
/// [`ModelFamily`] tag supplies the name, the distance engine
/// ([`ModelFamily::engine`]) and the default device; the two hooks supply how
/// the points reach the device and how the in-core `K` is built.
/// [`KernelSolver`] does everything else the same way for every family.
pub trait KernelFamily {
    /// The family tag fitted models carry.
    const FAMILY: ModelFamily;

    /// Charge whatever moves the points to the device. Returns a dense copy
    /// when the family cannot run on `input` as given; the fit then runs on
    /// that copy, while a fitted model keeps `input` itself. Errs when that
    /// copy cannot be allocated.
    fn prepare<T: Scalar>(
        input: FitInput<'_, T>,
        executor: &dyn Executor,
    ) -> Result<Option<DenseMatrix<T>>>;

    /// Compute and charge the in-core kernel matrix of `input` under
    /// `config`'s kernel function and Gram strategy, as its packed lower
    /// triangle. A refit that rebuilds `K` hands over the model's stored
    /// points, unprepared.
    fn kernel_matrix<T: Scalar>(
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
    ) -> Result<PackedSymmetric<T>>;
}

/// The one kernel k-means solver shell, generic over its [`KernelFamily`].
/// [`crate::KernelKmeans`] and the baselines' `CpuKernelKmeans` and
/// `DenseGpuBaseline` are aliases of it.
#[derive(Debug, Clone)]
pub struct KernelSolver<F> {
    config: KernelKmeansConfig,
    executor: Option<Arc<dyn Executor>>,
    family: PhantomData<F>,
}

impl<F: KernelFamily> KernelSolver<F> {
    /// Create a solver with the given configuration. The simulated device
    /// defaults to the family's ([`ModelFamily::default_device`]) and is
    /// created at `fit` time so that the element width matches the scalar
    /// type used.
    pub fn new(config: KernelKmeansConfig) -> Self {
        Self {
            config,
            executor: None,
            family: PhantomData,
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
                F::FAMILY.default_device(),
                std::mem::size_of::<T>(),
            ))
        })
    }

    /// Prepare `input` for the family, then hand `run` the kernel source
    /// [`run_with_source`] plans for it under `config`, with an `n × k`
    /// workspace of `k_budget` columns.
    fn run_prepared<T: Scalar, R>(
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
        k_budget: usize,
        executor: &dyn Executor,
        run: impl FnMut(&dyn KernelSource<T>) -> Result<R>,
    ) -> Result<R> {
        let dense = F::prepare(input, executor)?;
        let input = dense.as_ref().map_or(input, FitInput::Dense);
        run_with_source(
            input,
            config.kernel,
            config.approx,
            config.tiling,
            k_budget,
            executor,
            || F::kernel_matrix(input, config, executor),
            run,
        )
    }

    /// The clustering iterations over `source`, on the family's engine.
    fn iterate<T: Scalar>(
        source: &dyn KernelSource<T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
    ) -> Result<ClusteringResult> {
        let mut engine = F::FAMILY.engine(config.k)?;
        pipeline::iterate(source, config, executor, engine.as_mut())
    }
}

impl<T: Scalar, F: KernelFamily> Solver<T> for KernelSolver<F> {
    fn name(&self) -> &'static str {
        F::FAMILY.name()
    }

    fn config(&self) -> &KernelKmeansConfig {
        &self.config
    }

    /// Prepare the points, then — per the tiling plan — either the in-core
    /// kernel matrix or a streamed source that recomputes row tiles every
    /// iteration, then the clustering iterations. Tiling never changes the
    /// results, only what is resident and what is charged.
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
        Self::run_prepared(input, config, config.k, executor, |source| {
            Self::iterate(source, config, executor)
        })
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
        let _residency = ResidencyScope::new(&*executor);
        Self::iterate(source, config, &*executor)
    }

    /// The fit plus model extraction off the live kernel source, so the
    /// model shares the fit's resident state. The model stores `input` as
    /// given, even where the fit ran on a prepared dense copy, so serving
    /// does not pin the expansion.
    fn fit_model(&self, input: FitInput<'_, T>) -> Result<(ClusteringResult, FittedModel<T>)> {
        let config = &self.config;
        config.validate(input.n())?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let executor: &dyn Executor = &*executor;
        let _residency = ResidencyScope::new(executor);
        let dense = F::prepare(input, executor)?;
        let prepared = dense.as_ref().map_or(input, FitInput::Dense);
        model::fit_and_extract::<F, T>(None, prepared, input, config, None, executor)
    }

    /// Warm-start/mini-batch refits over the model's resident kernel state —
    /// see [`RefitRequest`] for the residency rules.
    fn refit(
        &self,
        model: &FittedModel<T>,
        request: &RefitRequest<T>,
    ) -> Result<(ClusteringResult, FittedModel<T>)> {
        let executor = self.executor_for::<T>();
        let _residency = ResidencyScope::new(&*executor);
        model::refit_via::<F, T>(model, request, &*executor)
    }

    /// The restart protocol: prepare the points once, then either compute
    /// `K` exactly once (in-core) or stream recomputed tiles where **one tile
    /// pass per iteration feeds every job** (out-of-core) — the lockstep
    /// driver in [`crate::batch`], fanning per-job work across
    /// `options.host_threads` workers.
    fn fit_batch_with(
        &self,
        input: FitInput<'_, T>,
        jobs: &[FitJob],
        options: &batch::BatchOptions,
    ) -> Result<BatchResult> {
        batch::validate_jobs(&input, jobs)?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let executor: &dyn Executor = &*executor;
        let _residency = ResidencyScope::new(executor);
        let mark = executor.trace().len();
        // Every job shares one `K` and one residency plan, so the first
        // job's config speaks for them. The lockstep driver keeps every
        // job's n x k buffer live at once, so the plan budgets the sum of
        // the jobs' k values.
        let k_budget = jobs.iter().map(|j| j.config.k).sum();
        Self::run_prepared(input, &jobs[0].config, k_budget, executor, |source| {
            batch::drive_shared_source_with(jobs, source, executor, mark, options, |job| {
                F::FAMILY.engine(job.config.k)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_gpusim::SimExecutor;

    fn sparse_points() -> CsrMatrix<f64> {
        CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[
                vec![1.0, 0.0, 0.0, 2.0],
                vec![0.0, 0.0, 3.0, 0.0],
                vec![0.5, 0.0, 0.0, 0.0],
            ])
            .unwrap(),
        )
    }

    #[test]
    fn accessors_match_layout() {
        let dense = DenseMatrix::<f64>::filled(3, 4, 1.0);
        let input = FitInput::from(&dense);
        assert_eq!(input.n(), 3);
        assert_eq!(input.d(), 4);
        assert_eq!(input.nnz(), 12);
        assert!(!input.is_sparse());
        assert_eq!(input.density(), 1.0);

        let csr = sparse_points();
        let input = FitInput::from(&csr);
        assert_eq!(input.n(), 3);
        assert_eq!(input.d(), 4);
        assert_eq!(input.nnz(), 4);
        assert!(input.is_sparse());
        assert!(input.density() < 0.5);
    }

    #[test]
    fn validation_rejects_bad_points() {
        let empty = DenseMatrix::<f64>::zeros(3, 0);
        assert!(FitInput::from(&empty).validate().is_err());
        let nan = DenseMatrix::from_rows(&[vec![f64::NAN, 1.0]]).unwrap();
        assert!(FitInput::from(&nan).validate().is_err());
        let sparse_nan = CsrMatrix::from_dense(&nan);
        assert!(FitInput::from(&sparse_nan).validate().is_err());
        let ok = sparse_points();
        assert!(FitInput::from(&ok).validate().is_ok());
    }

    #[test]
    fn sparse_upload_is_smaller_than_dense() {
        let csr = sparse_points();
        let dense = csr.to_dense();
        let sparse_bytes = FitInput::from(&csr).upload_bytes();
        let dense_bytes = FitInput::from(&dense).upload_bytes();
        assert!(
            sparse_bytes < dense_bytes,
            "{sparse_bytes} vs {dense_bytes}"
        );
    }

    #[test]
    fn upload_bytes_survive_32bit_product_boundaries() {
        // The u64-first arithmetic: an n·d product past u32::MAX must not
        // truncate (it would on a 32-bit usize with the old usize math).
        assert_eq!(
            dense_upload_bytes(70_000, 70_000, 4),
            70_000u64 * 70_000 * 4
        );
        assert!(dense_upload_bytes(1 << 20, 1 << 14, 8) > u32::MAX as u64);
        // And the small-matrix case still matches the definition exactly.
        let dense = DenseMatrix::<f64>::filled(3, 4, 1.0);
        assert_eq!(FitInput::from(&dense).upload_bytes(), 3 * 4 * 8);
    }

    #[test]
    fn charge_upload_tracks_residency() {
        let dense = DenseMatrix::<f64>::filled(6, 5, 1.0);
        let input = FitInput::from(&dense);
        let exec = SimExecutor::a100_f32();
        input.charge_upload(&exec);
        assert_eq!(exec.resident_bytes(), input.upload_bytes());
        assert_eq!(exec.peak_resident_bytes(), input.upload_bytes());
    }

    #[test]
    fn kernel_matrix_agrees_across_layouts() {
        let csr = sparse_points();
        let dense = csr.to_dense();
        let exec = SimExecutor::a100_f32();
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::default_gaussian(),
        ] {
            let (from_dense, _) = FitInput::from(&dense)
                .compute_kernel_matrix(kernel, KernelMatrixStrategy::default(), &exec)
                .unwrap();
            let (from_sparse, routine) = FitInput::from(&csr)
                .compute_kernel_matrix(kernel, KernelMatrixStrategy::default(), &exec)
                .unwrap();
            assert_eq!(routine, GramRoutine::SpGemm);
            let (from_dense, from_sparse) = (from_dense.to_dense(), from_sparse.to_dense());
            assert!(from_dense.approx_eq(&from_sparse, 1e-12, 1e-12));
        }
    }

    #[test]
    fn sparse_gram_is_charged_as_spgemm() {
        let csr = sparse_points();
        let exec = SimExecutor::a100_f32();
        FitInput::from(&csr)
            .compute_kernel_matrix(
                KernelFunction::paper_polynomial(),
                KernelMatrixStrategy::default(),
                &exec,
            )
            .unwrap();
        let trace = exec.trace();
        let (spgemm_time, spgemm_flops) = trace.class_summary(OpClass::SpGEMM);
        assert!(spgemm_time > 0.0);
        assert_eq!(spgemm_flops, csr.gram_flops());
        assert_eq!(trace.class_summary(OpClass::Gemm).0, 0.0);
        assert_eq!(trace.class_summary(OpClass::Syrk).0, 0.0);
    }
}
