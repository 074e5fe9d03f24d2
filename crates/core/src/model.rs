//! Clustering as a service: fitted models, out-of-sample assignment and
//! warm-start refits.
//!
//! A [`FittedModel`] freezes everything a serving path needs from one fit:
//! the final labels, the training points, the kernel configuration, the
//! per-cluster statistics of the distance assembly, and — crucially — the
//! *resident* kernel state the fit already paid for (the full matrix, the
//! sparsified CSR matrix, or the Nyström factors), shared with the fit's
//! kernel source behind an `Arc` ([`ResidentKernel`]). Serving then prices:
//!
//! * **training-set assignment** as one pass of the family's own distance
//!   engine ([`ModelFamily::engine`]) over the resident state, then one step
//!   of the fit loop from the stored labels — no kernel recomputation, no
//!   re-upload; for a converged fit the replay reproduces the fit labels bit
//!   for bit;
//! * **out-of-sample assignment** as a small cross-kernel product — `q × n`
//!   against the training points for exact/sparse models, `q × m` against the
//!   landmarks for Nyström models — never the `n × n` matrix; the `q × n`
//!   product is folded into the `q × k` scores as it is written, so the host
//!   never holds it;
//! * **refits** ([`crate::solver::Solver::refit`]) that reuse the resident
//!   kernel state and optionally warm-start from the stored labels; with
//!   warm-start disabled a refit is bit-identical to a cold fit.
//!
//! Models serialize to a plain-text format ([`FittedModel::save`] /
//! [`FittedModel::load`]) with every float stored as IEEE-754 bits. A file
//! keeps what the kernel state is made from (the points, the config, a
//! Nyström model's landmarks and core), and `load` rebuilds `K` and the
//! Nyström factors with the fit's own producers: a lossless handoff.

use crate::config::KernelKmeansConfig;
use crate::errors::CoreError;
use crate::fold::{FoldWeights, SelectionFold};
use crate::init::Initialization;
use crate::kernel::{KernelFunction, KernelMap};
use crate::kernel_matrix::{charge_kernel_map, packed_kernel_matrix, INDEX_BYTES};
use crate::kernel_source::{
    self, KernelSource, Panel, PanelKind, PanelVisitor, TilePolicy, TiledKernel,
};
use crate::lloyd;
use crate::nystrom::{KernelApprox, NystromFactors};
use crate::pipeline::{self, DistanceEngine, Run};
use crate::popcorn::PopcornEngine;
use crate::result::ClusteringResult;
use crate::rowsum::{self, BaselineEngine, CpuEngine};
use crate::solver::{FitInput, KernelFamily};
use crate::sparsified::Sparsify;
use crate::strategy::KernelMatrixStrategy;
use crate::Result;
use popcorn_dense::fma::dispatch;
use popcorn_dense::microkernel::nt_product;
use popcorn_dense::{matmul, row_argmin, DenseMatrix, PackedSymmetric, Scalar};
use popcorn_gpusim::{
    DeviceSpec, Executor, ExecutorExt, OpClass, OpCost, Phase, StreamMeter, Streaming,
};
use popcorn_sparse::{CsrMatrix, SelectionMatrix};
use std::fmt::Write as _;
use std::sync::Arc;

/// Which solver family produced a fitted model. Serving replays the family's
/// exact finishing arithmetic, so training-set assignment stays bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// The paper's matrix-centric solver ([`crate::popcorn::KernelKmeans`]).
    Popcorn,
    /// The sequential CPU reference.
    CpuReference,
    /// The handwritten dense GPU baseline.
    DenseBaseline,
    /// Lloyd's algorithm on raw points (no kernel matrix).
    Lloyd,
}

impl ModelFamily {
    /// Stable name, matching the owning solver's `Solver::name()`.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::Popcorn => "popcorn",
            ModelFamily::CpuReference => "cpu-reference",
            ModelFamily::DenseBaseline => "dense-gpu-baseline",
            ModelFamily::Lloyd => "lloyd",
        }
    }

    /// Inverse of [`ModelFamily::name`].
    pub fn from_name(name: &str) -> Result<Self> {
        match name {
            "popcorn" => Ok(ModelFamily::Popcorn),
            "cpu-reference" => Ok(ModelFamily::CpuReference),
            "dense-gpu-baseline" => Ok(ModelFamily::DenseBaseline),
            "lloyd" => Ok(ModelFamily::Lloyd),
            other => Err(CoreError::InvalidInput(format!(
                "unknown model family '{other}'"
            ))),
        }
    }

    /// The device the family's solver models unless handed an executor: the
    /// single EPYC 7763 core for the CPU reference (PRMLT, §5.4), the paper's
    /// A100 otherwise.
    pub fn default_device(self) -> DeviceSpec {
        match self {
            ModelFamily::CpuReference => DeviceSpec::epyc7763_single_core(),
            _ => DeviceSpec::a100_80gb(),
        }
    }

    /// `true` for families that operate on a kernel matrix (everything but
    /// Lloyd).
    pub fn is_kernel(self) -> bool {
        !matches!(self, ModelFamily::Lloyd)
    }

    /// The family's distance engine for `k` clusters — the one map from a
    /// family to its engine, so fits, refits and training replays of a
    /// model run the same per-iteration arithmetic and charges. Lloyd runs
    /// no kernel distance engine.
    pub fn engine<T: Scalar>(self, k: usize) -> Result<Box<dyn DistanceEngine<T>>> {
        Ok(match self {
            ModelFamily::Popcorn => Box::new(PopcornEngine::new(k)),
            ModelFamily::CpuReference => Box::new(CpuEngine::new(k)),
            ModelFamily::DenseBaseline => Box::new(BaselineEngine::new(k)),
            ModelFamily::Lloyd => {
                return Err(CoreError::Unsupported(
                    "Lloyd models keep no kernel-matrix state and run no distance engine".into(),
                ))
            }
        })
    }
}

/// An owned copy of a fit's point set, in the layout it was supplied in.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedPoints<T: Scalar> {
    /// Row-major dense points (`n × d`).
    Dense(DenseMatrix<T>),
    /// CSR sparse points (`n × d`).
    Csr(CsrMatrix<T>),
}

impl<T: Scalar> OwnedPoints<T> {
    /// Clone a borrowed fit input into owned storage.
    pub fn from_input(input: FitInput<'_, T>) -> Self {
        match input {
            FitInput::Dense(p) => OwnedPoints::Dense(p.clone()),
            FitInput::Sparse(p) => OwnedPoints::Csr(p.clone()),
        }
    }

    /// Borrow back as a [`FitInput`].
    pub fn as_input(&self) -> FitInput<'_, T> {
        match self {
            OwnedPoints::Dense(p) => FitInput::Dense(p),
            OwnedPoints::Csr(p) => FitInput::Sparse(p),
        }
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.as_input().n()
    }

    /// Feature dimension.
    pub fn d(&self) -> usize {
        self.as_input().d()
    }

    /// Stack `other`'s rows under `self`'s (mini-batch refits). Both sides
    /// must share the layout and the feature dimension.
    pub fn concat(&self, other: &OwnedPoints<T>) -> Result<OwnedPoints<T>> {
        if self.d() != other.d() {
            return Err(CoreError::InvalidInput(format!(
                "cannot concatenate point sets with {} and {} features",
                self.d(),
                other.d()
            )));
        }
        match (self, other) {
            (OwnedPoints::Dense(a), OwnedPoints::Dense(b)) => {
                let split = a.rows();
                Ok(OwnedPoints::Dense(DenseMatrix::from_fn(
                    a.rows() + b.rows(),
                    a.cols(),
                    |i, j| {
                        if i < split {
                            a[(i, j)]
                        } else {
                            b[(i - split, j)]
                        }
                    },
                )))
            }
            (OwnedPoints::Csr(a), OwnedPoints::Csr(b)) => {
                let base = a.nnz();
                let mut ptrs = a.row_ptrs().to_vec();
                ptrs.extend(b.row_ptrs().iter().skip(1).map(|&p| p + base));
                let mut cols = a.col_indices().to_vec();
                cols.extend_from_slice(b.col_indices());
                let mut vals = a.values().to_vec();
                vals.extend_from_slice(b.values());
                Ok(OwnedPoints::Csr(CsrMatrix::from_raw(
                    a.rows() + b.rows(),
                    a.cols(),
                    ptrs,
                    cols,
                    vals,
                )?))
            }
            _ => Err(CoreError::InvalidInput(
                "cannot concatenate dense and CSR point sets".into(),
            )),
        }
    }
}

/// One answered assignment request.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentBatch {
    /// Cluster label per query row.
    pub labels: Vec<usize>,
    /// Modeled device-seconds this batch charged to the executor.
    pub modeled_seconds: f64,
    /// `true` when the queries were recognised (bitwise) as the training set
    /// and answered by replaying the fit's own distance pass over resident
    /// state instead of the out-of-sample cross-kernel path.
    pub replayed_training: bool,
}

/// What a [`crate::solver::Solver::refit`] should do with a fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitRequest<T: Scalar> {
    /// Replacement configuration (`None` keeps the model's).
    pub config: Option<KernelKmeansConfig>,
    /// Seed the refit from the stored labels (and, for Lloyd, the stored
    /// centroids) instead of the configured initialization. With this off a
    /// refit is bit-identical to a cold fit of the same data and config.
    pub warm_start: bool,
    /// Extra rows to append to the training set (mini-batch growth). Only the
    /// new rows are charged as an upload; the old points stayed resident.
    pub new_points: Option<OwnedPoints<T>>,
}

impl<T: Scalar> RefitRequest<T> {
    /// A warm-start refit of the same data and config.
    pub fn warm() -> Self {
        Self {
            config: None,
            warm_start: true,
            new_points: None,
        }
    }

    /// A cold refit (bit-identical to a fresh fit).
    pub fn cold() -> Self {
        Self {
            config: None,
            warm_start: false,
            new_points: None,
        }
    }

    /// Builder-style setter for a replacement configuration.
    pub fn with_config(mut self, config: KernelKmeansConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Builder-style setter for appended mini-batch rows.
    pub fn with_new_points(mut self, points: OwnedPoints<T>) -> Self {
        self.new_points = Some(points);
        self
    }
}

/// The kernel-matrix state a fit leaves resident on the (modeled) device. A
/// kernel source hands out its own state through
/// [`KernelSource::resident`]; the [`FittedModel`] frozen from the fit, its
/// clones and the models refitted over it all keep that state behind the
/// same `Arc`, so none of them copies a matrix or a factor.
#[derive(Debug, Clone, PartialEq)]
pub enum ResidentKernel<T: Scalar> {
    /// The symmetric `n × n` matrix of an in-core fit, kept as its packed
    /// lower triangle (the modeled device holds it whole).
    Full(Arc<PackedSymmetric<T>>),
    /// The sparsified CSR matrix.
    Csr(Arc<CsrMatrix<T>>),
    /// Nyström factors.
    Nystrom {
        /// The rank-`m` factorization.
        factors: Arc<NystromFactors<T>>,
        /// Row-tile granularity the fit streamed reconstructed panels at.
        tile_rows: usize,
    },
    /// Nothing but the points: tiles are honestly recomputed at serve time,
    /// exactly as the fit recomputed them.
    Streamed {
        /// Row-tile granularity of the recomputed tiles.
        tile_rows: usize,
    },
    /// No kernel state at all (Lloyd models).
    None,
}

/// Per-cluster statistics frozen at extraction time; the out-of-sample
/// distance assembly is built from these alone.
#[derive(Debug, Clone, PartialEq)]
enum ModelStats {
    /// Kernel families: `cluster_self[c] = Σ_{p,q ∈ L_c} K_pq` and the
    /// cluster cardinalities under the final labels.
    Kernel {
        cluster_self: Vec<f64>,
        sizes: Vec<usize>,
    },
    /// Lloyd: the centroids the final assignment was made against.
    Lloyd { centroids: Vec<Vec<f64>> },
}

/// A clustering frozen for serving: see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel<T: Scalar> {
    family: ModelFamily,
    config: KernelKmeansConfig,
    labels: Vec<usize>,
    points: OwnedPoints<T>,
    /// Gram diagonal `xᵀx` of the training points, with the fit paths' exact
    /// accumulation arithmetic (cross-kernel normalisation needs it).
    gram_diag: Vec<f64>,
    /// `diag(K)` under the model's kernel (empty for Lloyd models).
    kernel_diag: Vec<T>,
    resident: ResidentKernel<T>,
    stats: ModelStats,
    /// Nyström only: `F[j][c] = Σ_{i ∈ L_c} C[i][j]`, so out-of-sample scores
    /// are `S = Ĥ_q F` (`q × m` times `m × k`). Rebuilt deterministically on
    /// load, never serialized.
    landmark_fold: Option<DenseMatrix<T>>,
    approx_error_bound: Option<f64>,
}

impl<T: Scalar> FittedModel<T> {
    /// The solver family that produced this model.
    pub fn family(&self) -> ModelFamily {
        self.family
    }

    /// The configuration the model was fitted under.
    pub fn config(&self) -> &KernelKmeansConfig {
        &self.config
    }

    /// The final training labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of training points.
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Feature dimension.
    pub fn d(&self) -> usize {
        self.points.d()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// The stored training points.
    pub fn points(&self) -> &OwnedPoints<T> {
        &self.points
    }

    /// The fit's approximation-error bound, if the kernel state is lossy.
    pub fn approx_error_bound(&self) -> Option<f64> {
        self.approx_error_bound
    }

    /// Lloyd models: the centroids the final assignment was made against.
    pub fn centroids(&self) -> Option<&[Vec<f64>]> {
        match &self.stats {
            ModelStats::Lloyd { centroids } => Some(centroids),
            ModelStats::Kernel { .. } => None,
        }
    }

    /// Short name of the resident kernel state (`"full"`, `"csr"`,
    /// `"nystrom"`, `"streamed"` or `"none"`).
    pub fn resident_kind(&self) -> &'static str {
        match &self.resident {
            ResidentKernel::Full(_) => "full",
            ResidentKernel::Csr(_) => "csr",
            ResidentKernel::Nystrom { .. } => "nystrom",
            ResidentKernel::Streamed { .. } => "streamed",
            ResidentKernel::None => "none",
        }
    }

    /// Modeled bytes of kernel state the model keeps resident (excludes the
    /// points; see [`FitInput::upload_bytes`] for those).
    pub fn resident_bytes(&self) -> u64 {
        let elem = std::mem::size_of::<T>() as u64;
        let n = self.n() as u64;
        match &self.resident {
            ResidentKernel::Full(_) => n * n * elem,
            ResidentKernel::Csr(matrix) => {
                matrix.storage_bytes(std::mem::size_of::<T>(), INDEX_BYTES)
            }
            ResidentKernel::Nystrom { factors, .. } => {
                let m = factors.landmarks.len() as u64;
                (2 * n * m + m * m) * elem
            }
            ResidentKernel::Streamed { tile_rows } => *tile_rows as u64 * n * elem,
            ResidentKernel::None => 0,
        }
    }

    /// One-line human description (the serve binary's `Stats` reply).
    pub fn describe(&self) -> String {
        format!(
            "{} model: n={}, d={}, k={}, resident={} ({} B)",
            self.family.name(),
            self.n(),
            self.d(),
            self.k(),
            self.resident_kind(),
            self.resident_bytes()
        )
    }

    /// Build a Lloyd model from a finished fit. The result must carry the
    /// assignment-entering centroids (`ClusteringResult::centroids`).
    pub fn from_lloyd(
        config: &KernelKmeansConfig,
        result: &ClusteringResult,
        input: FitInput<'_, T>,
    ) -> Result<Self> {
        let centroids = result.centroids.clone().ok_or_else(|| {
            CoreError::InvalidInput("the fit result carries no centroids to serve".into())
        })?;
        if result.labels.len() != input.n() {
            return Err(CoreError::InvalidInput(format!(
                "fit produced {} labels for {} points",
                result.labels.len(),
                input.n()
            )));
        }
        Ok(Self {
            family: ModelFamily::Lloyd,
            config: config.clone(),
            labels: result.labels.clone(),
            points: OwnedPoints::from_input(input),
            gram_diag: TiledKernel::compute_gram_diag(&input),
            kernel_diag: Vec::new(),
            resident: ResidentKernel::None,
            stats: ModelStats::Lloyd { centroids },
            landmark_fold: None,
            approx_error_bound: None,
        })
    }

    /// Label a batch of queries. Training-set inputs (recognised bitwise) are
    /// answered by replaying the fit's distance pass over resident state;
    /// anything else goes through the out-of-sample cross-kernel path, whose
    /// modeled cost scales with `q × n` (exact/sparse) or `q × m` (Nyström) —
    /// never `n × n`.
    pub fn assign(
        &self,
        queries: FitInput<'_, T>,
        executor: &dyn Executor,
    ) -> Result<AssignmentBatch> {
        queries.validate()?;
        if queries.d() != self.d() {
            return Err(CoreError::InvalidInput(format!(
                "queries have {} features but the model was fitted on {}",
                queries.d(),
                self.d()
            )));
        }
        let start = executor.total_modeled_seconds();
        let replayed_training = self.is_training_input(queries);
        let labels = if replayed_training {
            self.assign_training(executor)?
        } else {
            self.assign_queries(queries, executor)?
        };
        Ok(AssignmentBatch {
            labels,
            modeled_seconds: executor.total_modeled_seconds() - start,
            replayed_training,
        })
    }

    /// `true` iff `queries` is bitwise the stored training set (same layout,
    /// shape, sparsity pattern and IEEE-754 bits).
    fn is_training_input(&self, queries: FitInput<'_, T>) -> bool {
        let bits_eq = |a: &[T], b: &[T]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
        };
        match (&self.points, queries) {
            (OwnedPoints::Dense(a), FitInput::Dense(b)) => {
                a.rows() == b.rows() && a.cols() == b.cols() && bits_eq(a.as_slice(), b.as_slice())
            }
            (OwnedPoints::Csr(a), FitInput::Sparse(b)) => {
                a.rows() == b.rows()
                    && a.cols() == b.cols()
                    && a.row_ptrs() == b.row_ptrs()
                    && a.col_indices() == b.col_indices()
                    && bits_eq(a.values(), b.values())
            }
            _ => false,
        }
    }

    /// Replay one pass and one step of the fit's loop with the family's own
    /// engine over the resident state, from the stored labels. For a
    /// converged fit (final iteration changed nothing) this reproduces the
    /// fit labels bit for bit, charging no kernel-matrix recomputation for
    /// `full`/`csr`/`nystrom` resident state (`streamed` models honestly
    /// recompute tiles, exactly as the fit did).
    fn assign_training(&self, executor: &dyn Executor) -> Result<Vec<usize>> {
        if self.family == ModelFamily::Lloyd {
            return self.lloyd_assign(self.points.as_input(), executor);
        }
        let mut copy = None;
        let source = ModelSource::new(self, &mut copy, executor)?;
        let mut engine = self.family.engine(self.config.k)?;
        // A one-iteration budget: the loop runs one pass and one step.
        let config = self.config.clone().with_max_iter(1);
        let labels = Some(self.labels.clone());
        let mut runs = [Run::new(&config, executor, engine.as_mut(), labels)];
        let mut meter = StreamMeter::new(Streaming::Off);
        pipeline::lockstep(&mut runs, &source, executor, 1, &mut meter)?;
        Ok(runs[0].state.labels().to_vec())
    }

    /// Out-of-sample assignment. All kernel families share the exact distance
    /// identity `D(x,c) = K(x,x) − 2/|L_c|·Σ_{i∈L_c} K(x,i) +
    /// cluster_self[c]/|L_c|²`; Lloyd models score against their stored
    /// centroids.
    fn assign_queries(
        &self,
        queries: FitInput<'_, T>,
        executor: &dyn Executor,
    ) -> Result<Vec<usize>> {
        if self.family == ModelFamily::Lloyd {
            return self.lloyd_assign(queries, executor);
        }
        let q = queries.n();
        let d = self.d();
        let k = self.config.k;
        let elem = std::mem::size_of::<T>();
        let qnnz = queries.nnz() as u64;
        let query_gram_diag = executor.run(
            format!("serve query gram diag (q={q}, d={d})"),
            Phase::PairwiseDistances,
            OpClass::Reduction,
            OpCost::new(2 * qnnz, qnnz * elem as u64, q as u64 * 8),
            || TiledKernel::compute_gram_diag(&queries),
        );
        let (scores, qdiag) = match &self.resident {
            ResidentKernel::Nystrom { factors, .. } => {
                self.nystrom_scores(factors, queries, &query_gram_diag, executor)?
            }
            _ => self.exact_scores(queries, &query_gram_diag, executor)?,
        };
        let ModelStats::Kernel {
            cluster_self,
            sizes,
        } = &self.stats
        else {
            return Err(CoreError::Unsupported(
                "kernel-family model carries Lloyd statistics".into(),
            ));
        };
        let distances = executor.run(
            format!("serve distance assembly (q={q}, k={k})"),
            Phase::PairwiseDistances,
            OpClass::Elementwise,
            OpCost::elementwise_elems(q as u64 * k as u64, 2, 1, 3, elem),
            || {
                let norms = rowsum::centroid_norms(cluster_self, sizes);
                rowsum::distance_assembly(&scores, |i| qdiag[i], sizes, &norms)
            },
        );
        Ok(executor.run(
            format!("serve argmin over D rows (q={q}, k={k})"),
            Phase::Assignment,
            OpClass::Reduction,
            OpCost::elementwise_elems(q as u64 * k as u64, 1, 0, 1, elem),
            || row_argmin(&distances),
        ))
    }

    /// Exact/sparse/streamed models: score queries against every training
    /// point — a `q × n` cross-kernel product folded by label as it is
    /// written ([`cross_scores`]), so the host holds no `q × n` buffer. The
    /// simulated device does: its records charge the product, the map and
    /// the fold over the full buffer, as the paper's separate kernels would.
    fn exact_scores(
        &self,
        queries: FitInput<'_, T>,
        query_gram_diag: &[f64],
        executor: &dyn Executor,
    ) -> Result<(DenseMatrix<T>, Vec<f64>)> {
        let q = queries.n();
        let n = self.n();
        let d = self.d();
        let k = self.config.k;
        let elem = std::mem::size_of::<T>();
        let train = self.points.as_input();
        let tnnz = train.nnz() as u64;
        let qnnz = queries.nnz() as u64;
        let buffer_bytes = q as u64 * n as u64 * elem as u64;
        executor.track_alloc(buffer_bytes);
        let kernel = self.config.kernel;
        let scores = executor.run(
            format!("serve cross gram (q={q}, n={n}, d={d})"),
            Phase::PairwiseDistances,
            OpClass::Gemm,
            OpCost::new(
                2 * q as u64 * tnnz,
                (qnnz + tnnz) * elem as u64,
                buffer_bytes,
            ),
            || {
                let map = KernelMap::new(kernel, query_gram_diag, &self.gram_diag);
                cross_scores(queries, train, map, &self.labels, k)
            },
        );
        charge_kernel_map::<T>(
            executor,
            format!("serve cross kernel map (q={q}, n={n})"),
            Phase::PairwiseDistances,
            kernel,
            q as u64 * n as u64,
        );
        let qdiag: Vec<f64> = query_gram_diag
            .iter()
            .map(|&g| self.config.kernel.apply(g, g, g))
            .collect();
        // The fold ran in the product's write-back, so its host time is the
        // cross gram's.
        executor.charge(
            format!("serve score fold (q={q}, n={n}, k={k})"),
            Phase::PairwiseDistances,
            OpClass::Reduction,
            OpCost::new(
                q as u64 * n as u64,
                q as u64 * n as u64 * elem as u64,
                q as u64 * k as u64 * elem as u64,
            ),
        );
        executor.track_free(buffer_bytes);
        Ok((scores, qdiag))
    }

    /// Nyström models: score queries against the `m` landmarks only — the
    /// `q × m` cross kernel is projected through `W⁺` and folded by label, so
    /// the training set is never touched.
    fn nystrom_scores(
        &self,
        factors: &NystromFactors<T>,
        queries: FitInput<'_, T>,
        query_gram_diag: &[f64],
        executor: &dyn Executor,
    ) -> Result<(DenseMatrix<T>, Vec<f64>)> {
        let q = queries.n();
        let d = self.d();
        let k = self.config.k;
        let m = factors.landmarks.len();
        let elem = std::mem::size_of::<T>();
        let qnnz = queries.nnz() as u64;
        let kernel = self.config.kernel;
        let landmark_points = self.landmark_points(&factors.landmarks);
        // The modeled device reads the landmark rows as the model stores
        // them: an `m × d` block, or a CSR model's stored entries.
        let landmark_bytes = match &landmark_points {
            OwnedPoints::Dense(_) => m as u64 * d as u64 * elem as u64,
            OwnedPoints::Csr(p) => p.storage_bytes(elem, INDEX_BYTES),
        };
        let k_xl = executor.run(
            format!("serve landmark cross gram (q={q}, m={m}, d={d})"),
            Phase::PairwiseDistances,
            OpClass::Gemm,
            OpCost::new(
                2 * qnnz * m as u64,
                landmark_bytes + qnnz * elem as u64,
                q as u64 * m as u64 * elem as u64,
            ),
            || {
                let landmark_diag: Vec<f64> = factors
                    .landmarks
                    .iter()
                    .map(|&l| self.gram_diag[l])
                    .collect();
                let map = KernelMap::new(kernel, query_gram_diag, &landmark_diag);
                let mut k_xl = DenseMatrix::<T>::zeros(q, m);
                cross_kernel(queries, landmark_points.as_input(), map, |i, j0, run| {
                    k_xl.row_mut(i)[j0..][..run.len()].copy_from_slice(run)
                });
                k_xl
            },
        );
        charge_kernel_map::<T>(
            executor,
            format!("serve landmark kernel map (q={q}, m={m})"),
            Phase::PairwiseDistances,
            kernel,
            q as u64 * m as u64,
        );
        let hat_q = executor.run(
            format!("serve nystrom project (q={q}, m={m})"),
            Phase::PairwiseDistances,
            OpClass::Gemm,
            OpCost::gemm(q, m, m, elem),
            || matmul(&k_xl, &factors.core_pinv_t),
        )?;
        let qdiag = executor.run(
            format!("serve nystrom diag (q={q}, m={m})"),
            Phase::PairwiseDistances,
            OpClass::Elementwise,
            OpCost::elementwise_elems(q as u64 * m as u64, 2, 0, 2, elem),
            || {
                (0..q)
                    .map(|i| {
                        let mut acc = T::ZERO;
                        for (&h, &c) in hat_q.row(i).iter().zip(k_xl.row(i).iter()) {
                            acc = h.mul_add(c, acc);
                        }
                        acc.to_f64()
                    })
                    .collect::<Vec<f64>>()
            },
        );
        let fold = self.landmark_fold.as_ref().ok_or_else(|| {
            CoreError::InvalidInput("nystrom model is missing its landmark fold".into())
        })?;
        let scores = executor.run(
            format!("serve nystrom score fold (q={q}, m={m}, k={k})"),
            Phase::PairwiseDistances,
            OpClass::Gemm,
            OpCost::gemm(q, k, m, elem),
            || matmul(&hat_q, fold),
        )?;
        Ok((scores, qdiag))
    }

    /// The landmark rows of the training points, in the points' own layout
    /// — all of the training set an out-of-sample Nyström query touches. A
    /// CSR model's rows stay CSR, so no buffer is sized by the feature
    /// count.
    fn landmark_points(&self, landmarks: &[usize]) -> OwnedPoints<T> {
        match &self.points {
            OwnedPoints::Dense(p) => {
                OwnedPoints::Dense(DenseMatrix::from_fn(landmarks.len(), p.cols(), |r, j| {
                    p[(landmarks[r], j)]
                }))
            }
            OwnedPoints::Csr(p) => {
                let (mut ptrs, mut idx, mut vals) = (vec![0], Vec::new(), Vec::new());
                for &l in landmarks {
                    let (cols, values) = p.row(l);
                    idx.extend_from_slice(cols);
                    vals.extend_from_slice(values);
                    ptrs.push(idx.len());
                }
                OwnedPoints::Csr(CsrMatrix::from_raw_unchecked(
                    landmarks.len(),
                    p.cols(),
                    ptrs,
                    idx,
                    vals,
                ))
            }
        }
    }

    /// Lloyd scoring: nearest stored centroid, through the Lloyd solver's own
    /// sweep ([`lloyd::nearest_centroids`]), so training-set replays are bit
    /// for bit.
    fn lloyd_assign(&self, points: FitInput<'_, T>, executor: &dyn Executor) -> Result<Vec<usize>> {
        let ModelStats::Lloyd { centroids } = &self.stats else {
            return Err(CoreError::Unsupported(
                "only Lloyd models score against centroids".into(),
            ));
        };
        let (n, d, k) = (points.n(), points.d(), centroids.len());
        Ok(executor.run(
            format!("serve lloyd assignment (q={n}, d={d}, k={k})"),
            Phase::PairwiseDistances,
            OpClass::Gemm,
            lloyd::sweep_cost(points, k),
            || lloyd::nearest_centroids(points, centroids).0,
        ))
    }
}

/// The cross kernel `K[i][j] = κ(query_i, train_j)` over any layout
/// pairing: the cross Gram `⟨query_i, train_j⟩` under `map`, applied in the
/// write-back. Each mapped run of row `i` goes to `emit(i, j0, run)`, where
/// `run[t]` is entry `(i, j0 + t)`; no `q × n` matrix is ever held. Every
/// entry is emitted exactly once, and each row's runs arrive left to right
/// without gaps, so an epilogue that folds them adds a row's terms in
/// ascending `j`. Dense pairs run the register-blocked [`nt_product`]
/// microkernel, which hands out its runs in that order, and map each run in
/// one reused training row; the other pairings fill and map that row whole.
/// Every entry is the accumulator of `fma(x_k, y_k, acc)` over ascending
/// `k`, mapped as it is.
fn cross_kernel<T: Scalar>(
    queries: FitInput<'_, T>,
    train: FitInput<'_, T>,
    map: KernelMap<'_>,
    mut emit: impl FnMut(usize, usize, &[T]),
) {
    let q = queries.n();
    let mut row = vec![T::ZERO; train.n()];
    match (queries, train) {
        (FitInput::Dense(p), FitInput::Dense(t)) => {
            nt_product(
                p,
                0..q,
                t,
                None,
                #[inline(always)]
                |i, j0, run| {
                    let cells = &mut row[j0..][..run.len()];
                    cells.copy_from_slice(run);
                    map.run(i, j0, cells);
                    emit(i, j0, cells);
                },
            );
        }
        // The other pairings fold one entry at a time, in the FMA dispatch:
        // each `mul_add` is one instruction there, not a library call.
        (FitInput::Sparse(p), FitInput::Dense(t)) => dispatch(
            #[inline(always)]
            || {
                // The query row scattered into a dense scratch: the training
                // points are `n × d` already, so `d` is bounded by them.
                let mut scratch = vec![T::ZERO; t.cols()];
                for i in 0..q {
                    scratch.iter_mut().for_each(|v| *v = T::ZERO);
                    let (cols, vals) = p.row(i);
                    for (&c, &v) in cols.iter().zip(vals.iter()) {
                        scratch[c] = v;
                    }
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = dense_dot(&scratch, t.row(j));
                    }
                    map.run(i, 0, &mut row);
                    emit(i, 0, &row);
                }
            },
        ),
        (FitInput::Dense(p), FitInput::Sparse(t)) => dispatch(
            #[inline(always)]
            || {
                for i in 0..q {
                    let query = p.row(i);
                    for (j, slot) in row.iter_mut().enumerate() {
                        let (cols, vals) = t.row(j);
                        let mut acc = T::ZERO;
                        for (&c, &v) in cols.iter().zip(vals.iter()) {
                            acc = v.mul_add(query[c], acc);
                        }
                        *slot = acc;
                    }
                    map.run(i, 0, &mut row);
                    emit(i, 0, &row);
                }
            },
        ),
        (FitInput::Sparse(p), FitInput::Sparse(t)) => dispatch(
            #[inline(always)]
            || {
                // The query row scattered into one slot per column the
                // training points store: no buffer sized by the feature
                // count, which a libSVM index of 4e9 makes 16 GB. A query
                // column no training entry stores has no slot, and no entry
                // reads it.
                let columns = t.column_slots();
                let (row_ptrs, slots) = (t.row_ptrs(), columns.entries());
                let mut scratch = vec![T::ZERO; columns.width()];
                for i in 0..q {
                    let (cols, vals) = p.row(i);
                    for (&c, &v) in cols.iter().zip(vals.iter()) {
                        if let Some(s) = columns.slot_of(c) {
                            scratch[s] = v;
                        }
                    }
                    for (j, slot) in row.iter_mut().enumerate() {
                        let row_slots = &slots[row_ptrs[j]..row_ptrs[j + 1]];
                        let mut acc = T::ZERO;
                        for (&s, &v) in row_slots.iter().zip(t.row(j).1) {
                            acc = v.mul_add(scratch[s], acc);
                        }
                        *slot = acc;
                    }
                    map.run(i, 0, &mut row);
                    emit(i, 0, &row);
                    for &c in cols {
                        if let Some(s) = columns.slot_of(c) {
                            scratch[s] = T::ZERO;
                        }
                    }
                }
            },
        ),
    }
}

/// The label fold of the cross kernel, `S[i][c] = Σ_{j ∈ L_c} K[i][j]`
/// (`Eᵀ`'s cross term before its `−2/|L_c|` scale), added in
/// [`cross_kernel`]'s write-back: each score sums its terms in ascending
/// `j`, as a fold over the finished matrix would.
fn cross_scores<T: Scalar>(
    queries: FitInput<'_, T>,
    train: FitInput<'_, T>,
    map: KernelMap<'_>,
    labels: &[usize],
    k: usize,
) -> DenseMatrix<T> {
    let mut scores = DenseMatrix::<T>::zeros(queries.n(), k);
    cross_kernel(queries, train, map, |i, j0, run| {
        let out = scores.row_mut(i);
        for (&c, &v) in labels[j0..][..run.len()].iter().zip(run) {
            out[c] += v;
        }
    });
    scores
}

/// `fma(x_k, y_k, acc)` over ascending `k`, from `acc = 0`.
#[inline(always)]
fn dense_dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&x, &y) in x.iter().zip(y) {
        acc = x.mul_add(y, acc);
    }
    acc
}

/// `F[j][c] = Σ_{i ∈ L_c} C[i][j]` — the label fold of the cross factor,
/// `(V·C)ᵀ` under unit weights, accumulated in `T` in row order (`acc + x`
/// rounds as `fma(1, x, acc)` does; deterministic, so it can be rebuilt on
/// load instead of being serialized).
fn build_landmark_fold<T: Scalar>(
    cross: &DenseMatrix<T>,
    labels: &[usize],
    k: usize,
) -> DenseMatrix<T> {
    let m = cross.cols();
    let mut fold_t = vec![T::ZERO; k * m];
    for (i, &c) in labels.iter().enumerate() {
        for (sum, &x) in fold_t[c * m..(c + 1) * m].iter_mut().zip(cross.row(i)) {
            *sum += x;
        }
    }
    DenseMatrix::from_fn(m, k, |j, c| fold_t[c * m + j])
}

/// Freeze a finished fit into a [`FittedModel`]: keep the source's resident
/// kernel state (already charged by the fit, and shared rather than copied
/// — see [`KernelSource::resident`]), and stream the source once under the
/// final labels to collect `diag(K)` and the per-cluster statistics the
/// serving assembly needs. The row sums behind those statistics are `V·K`
/// under unit weights: the shared fold runs them on Popcorn's SpMM kernels
/// (over the packed lower rows of a computed `K`), bit for bit the CPU
/// reference's plain loop.
fn extract<T: Scalar>(
    family: ModelFamily,
    config: &KernelKmeansConfig,
    result: &ClusteringResult,
    store_input: FitInput<'_, T>,
    source: &dyn KernelSource<T>,
    executor: &dyn Executor,
) -> Result<FittedModel<T>> {
    let n = source.n();
    let d = store_input.d();
    let k = config.k;
    let elem = std::mem::size_of::<T>();
    if store_input.n() != n || result.labels.len() != n {
        return Err(CoreError::InvalidInput(format!(
            "model extraction saw {} points, {} labels and a {n}-row kernel source",
            store_input.n(),
            result.labels.len()
        )));
    }
    let labels = result.labels.clone();
    let nnz = store_input.nnz() as u64;
    let gram_diag = executor.run(
        format!("serve gram diag (n={n}, d={d})"),
        Phase::DataPreparation,
        OpClass::Reduction,
        OpCost::new(2 * nnz, nnz * elem as u64, n as u64 * 8),
        || TiledKernel::compute_gram_diag(&store_input),
    );

    // One streamed pass collects diag(K) and the row sums for the
    // per-cluster statistics: the shared fold under unit weights. The source
    // charges its own tile production (nothing for resident state); the fold
    // itself is charged here, its n x k row-sum buffer held on the device.
    executor.track_alloc(n as u64 * k as u64 * elem as u64);
    let mut fold = SelectionFold::new(FoldWeights::Unit, 1.0);
    fold.begin(source, SelectionMatrix::from_assignments(&labels, k)?, true);
    source.for_each_panel(executor, None, &mut |rows, panel| {
        let (r0, r1, t) = (rows.start, rows.end, rows.len() as u64);
        let (name, cost) = match panel {
            Panel::Csr(csr) => {
                let pnnz = csr.nnz() as u64;
                (
                    format!("serve stats fold rows {r0}..{r1} (nnz={pnnz}, k={k})"),
                    OpCost::new(
                        pnnz,
                        pnnz * (elem + INDEX_BYTES) as u64,
                        t * k as u64 * elem as u64,
                    ),
                )
            }
            // Charged as the full tile's rows of `n` columns.
            Panel::Rows(_) | Panel::Lower(_) => (
                format!("serve stats fold rows {r0}..{r1} (n={n}, k={k})"),
                OpCost::new(
                    t * n as u64,
                    t * n as u64 * elem as u64,
                    t * k as u64 * elem as u64,
                ),
            ),
        };
        executor.run(
            name,
            Phase::DataPreparation,
            OpClass::Reduction,
            cost,
            || fold.panel(rows, panel),
        )
    })?;
    let row_sums = fold.finish();
    let kernel_diag = fold.diag().to_vec();
    let sizes = fold.selection().cardinalities().to_vec();
    let cluster_self = rowsum::cluster_self_terms(&row_sums, &labels, k);

    let resident = source.resident();
    let landmark_fold = match &resident {
        ResidentKernel::Nystrom { factors, .. } => {
            Some(build_landmark_fold(&factors.cross, &labels, k))
        }
        _ => None,
    };
    Ok(FittedModel {
        family,
        config: config.clone(),
        labels,
        points: OwnedPoints::from_input(store_input),
        gram_diag,
        kernel_diag,
        resident,
        stats: ModelStats::Kernel {
            cluster_self,
            sizes,
        },
        landmark_fold,
        approx_error_bound: source.approx_error_bound(),
    })
}

/// A [`KernelSource`] over a fitted model's resident kernel state: resident
/// matrices and factors stream with **no** `Phase::KernelMatrix` charges
/// (they were paid for at fit time), Nyström panels are reconstructed under
/// `Phase::PairwiseDistances` serve labels, and `streamed` models honestly
/// recompute tiles through an inner [`TiledKernel`], exactly as the fit did.
/// It hands the model's own state back through [`KernelSource::resident`],
/// so a refit over this source shares it with the model.
struct ModelSource<'a, T: Scalar> {
    model: &'a FittedModel<T>,
    kernel: ModelKernel<'a, T>,
}

/// A fitted model's kernel state, as its source streams it.
enum ModelKernel<'a, T: Scalar> {
    Full(&'a PackedSymmetric<T>),
    Csr(&'a CsrMatrix<T>),
    /// The factors and the tile height of their panels.
    Nystrom(&'a NystromFactors<T>, usize),
    /// `streamed` state recomputes the fit's exact panels.
    Streamed(Box<TiledKernel<'a, T>>),
}

/// The points a fit made `K` and the Nyström factors from: a dense
/// baseline's fit ran on a dense copy of CSR points, made here into `copy`;
/// every other fit ran on the points themselves. The CSR Gram walk and the
/// dense product differ on exact `−0` sums, which the linear and zero-offset
/// sigmoid kernels keep, so a rebuild or a replay must start from the same
/// layout.
fn kernel_input<'a, T: Scalar>(
    points: &'a OwnedPoints<T>,
    family: ModelFamily,
    copy: &'a mut Option<DenseMatrix<T>>,
) -> Result<FitInput<'a, T>> {
    Ok(match (points, family) {
        (OwnedPoints::Csr(p), ModelFamily::DenseBaseline) => {
            FitInput::Dense(copy.insert(FitInput::Sparse(p).to_dense()?))
        }
        _ => points.as_input(),
    })
}

impl<'a, T: Scalar> ModelSource<'a, T> {
    /// `copy` holds the dense copy of the points that `streamed` state
    /// recomputes its panels from, when the fit made one
    /// ([`kernel_input`]).
    fn new(
        model: &'a FittedModel<T>,
        copy: &'a mut Option<DenseMatrix<T>>,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let kernel = match &model.resident {
            ResidentKernel::Full(matrix) => ModelKernel::Full(matrix),
            ResidentKernel::Csr(matrix) => ModelKernel::Csr(matrix),
            ResidentKernel::Nystrom { factors, tile_rows } => {
                ModelKernel::Nystrom(factors, *tile_rows)
            }
            ResidentKernel::Streamed { tile_rows } => {
                ModelKernel::Streamed(Box::new(TiledKernel::new(
                    kernel_input(&model.points, model.family, copy)?,
                    model.config.kernel,
                    *tile_rows,
                    executor,
                )?))
            }
            ResidentKernel::None => {
                return Err(CoreError::Unsupported(
                    "Lloyd models keep no kernel-matrix state to serve".into(),
                ))
            }
        };
        Ok(Self { model, kernel })
    }
}

impl<T: Scalar> KernelSource<T> for ModelSource<'_, T> {
    fn n(&self) -> usize {
        self.model.n()
    }

    fn diag(&self, _executor: &dyn Executor) -> Result<Vec<T>> {
        // Collected at extraction time from the fit's own tiles; resident, so
        // no new charge.
        Ok(self.model.kernel_diag.clone())
    }

    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>> {
        let n = self.model.n();
        let elem = std::mem::size_of::<T>();
        match &self.kernel {
            ModelKernel::Full(matrix) => {
                let mut row = vec![T::ZERO; n];
                matrix.full_row_into(i, &mut row);
                Ok(row)
            }
            ModelKernel::Csr(matrix) => Ok(executor.run(
                format!("serve gather K row {i} (nnz={})", matrix.row_nnz(i)),
                Phase::PairwiseDistances,
                OpClass::Elementwise,
                OpCost::elementwise_elems(n as u64, 1, 1, 0, elem),
                || {
                    let mut row = vec![T::ZERO; n];
                    let (cols, vals) = matrix.row(i);
                    for (&c, &v) in cols.iter().zip(vals.iter()) {
                        row[c] = v;
                    }
                    row
                },
            )),
            ModelKernel::Nystrom(factors, _) => {
                let m = factors.landmarks.len();
                let name = format!("serve nystrom row {i} (n={n}, m={m})");
                let panel =
                    factors.panel(name, Phase::PairwiseDistances, i..i + 1, None, executor)?;
                Ok(panel.row(0).to_vec())
            }
            ModelKernel::Streamed(tiled) => tiled.row(i, executor),
        }
    }

    /// A resident `full` matrix is the fit's computed `K` (or its rebuild),
    /// and `streamed` state recomputes the fit's exact panels: both hand out
    /// packed lower rows. Nyström panels are dense rows.
    fn panel_kind(&self) -> PanelKind {
        match self.kernel {
            ModelKernel::Full(_) | ModelKernel::Streamed(_) => PanelKind::Lower,
            ModelKernel::Csr(_) => PanelKind::Csr,
            ModelKernel::Nystrom(..) => PanelKind::Rows,
        }
    }

    /// Resident state is one uncharged panel, a zero-copy view like the
    /// fit-time sources'. Nyström panels reconstruct only the requested
    /// columns, as the fit's source does, and `streamed` state recomputes
    /// the fit's panels.
    fn for_each_panel(
        &self,
        executor: &dyn Executor,
        columns: Option<&[usize]>,
        f: &mut PanelVisitor<'_, T>,
    ) -> Result<()> {
        let n = self.model.n();
        match &self.kernel {
            ModelKernel::Full(matrix) => f(0..n, Panel::Lower(matrix.rows(0..n))),
            ModelKernel::Csr(matrix) => f(0..n, Panel::Csr(matrix.rows_view(0..n))),
            ModelKernel::Nystrom(factors, tile_rows) => {
                let m = factors.landmarks.len();
                let cross = factors.cross_rows(columns);
                let step = (*tile_rows).max(1);
                let mut r0 = 0usize;
                while r0 < n {
                    let r1 = (r0 + step).min(n);
                    let name = format!("serve nystrom panel rows {r0}..{r1} (n={n}, m={m})");
                    let phase = Phase::PairwiseDistances;
                    let tile = factors.panel(name, phase, r0..r1, cross.as_ref(), executor)?;
                    f(r0..r1, Panel::Rows(&tile))?;
                    r0 = r1;
                }
                Ok(())
            }
            ModelKernel::Streamed(tiled) => tiled.for_each_panel(executor, columns, f),
        }
    }

    fn approx_error_bound(&self) -> Option<f64> {
        self.model.approx_error_bound
    }

    fn resident(&self) -> ResidentKernel<T> {
        self.model.resident.clone()
    }
}

/// The one fit-then-extract body behind [`crate::KernelSolver`]'s
/// `fit_model` and every [`refit_via`] arm: iterate the family's engine from
/// `init` (or the configured initialization) over `resident`'s own state
/// when given, else over the source [`kernel_source::run_with_source`] plans
/// for `run_input`, then freeze the model off that source while it is still
/// alive (so resident state is shared, not recomputed). `run_input` is what
/// the fit iterates over (the dense baseline's prepared copy), `store_input`
/// what the model keeps (the original layout, so training-set recognition
/// sees the caller's bytes).
pub(crate) fn fit_and_extract<F: KernelFamily, T: Scalar>(
    resident: Option<&FittedModel<T>>,
    run_input: FitInput<'_, T>,
    store_input: FitInput<'_, T>,
    config: &KernelKmeansConfig,
    init: Option<Vec<usize>>,
    executor: &dyn Executor,
) -> Result<(ClusteringResult, FittedModel<T>)> {
    let family = F::FAMILY;
    let mut engine = family.engine(config.k)?;
    let fit = |source: &dyn KernelSource<T>| {
        let result = pipeline::iterate_init(source, config, executor, engine.as_mut(), init)?;
        let model = extract(family, config, &result, store_input, source, executor)?;
        Ok((result, model))
    };
    match resident {
        Some(model) => fit(&ModelSource::new(model, &mut None, executor)?),
        None => kernel_source::run_with_source(
            run_input,
            config.kernel,
            config.approx,
            config.tiling,
            config.k,
            executor,
            || F::kernel_matrix(run_input, config, executor),
            fit,
        ),
    }
}

/// Refit driver shared by the kernel-family solvers. Residency rules:
///
/// * same kernel and approximation, no new points → iterate over the
///   model's resident state (the internal `ModelSource`): no re-upload,
///   no kernel-matrix recomputation, and the refitted model shares that
///   state with this one;
/// * changed kernel/approximation → rebuild the kernel state from the
///   stored points (still resident — no re-upload, and no data preparation:
///   [`KernelFamily::kernel_matrix`] gets the stored points as they are);
/// * appended points → only the new rows are charged as an upload; a
///   warm start seeds them through [`FittedModel::assign`].
///
/// With `warm_start` off and no new points, the refit drives
/// [`pipeline::iterate_init`] with `None` — the cold fit's exact code path,
/// so labels, objectives and iteration counts are bit-identical to a fresh
/// fit of the same data and config.
pub(crate) fn refit_via<F: KernelFamily, T: Scalar>(
    model: &FittedModel<T>,
    request: &RefitRequest<T>,
    executor: &dyn Executor,
) -> Result<(ClusteringResult, FittedModel<T>)> {
    let family = F::FAMILY;
    if model.family != family {
        return Err(CoreError::InvalidInput(format!(
            "cannot refit a {} model with the {} solver",
            model.family.name(),
            family.name()
        )));
    }
    let config = request
        .config
        .clone()
        .unwrap_or_else(|| model.config.clone());
    let (combined, init) = match &request.new_points {
        None => (None, request.warm_start.then(|| model.labels.clone())),
        Some(new) => {
            let new_input = new.as_input();
            new_input.validate()?;
            if new.d() != model.d() {
                return Err(CoreError::InvalidInput(format!(
                    "appended points have {} features but the model was fitted on {}",
                    new.d(),
                    model.d()
                )));
            }
            // Warm start: old labels carry over, new rows are seeded through
            // the serving path (still priced q × n/m, not n²).
            let init = if request.warm_start {
                let mut labels = model.labels.clone();
                labels.extend(model.assign(new_input, executor)?.labels);
                Some(labels)
            } else {
                None
            };
            let combined = model.points.concat(new)?;
            // Only the appended rows cross the bus; the training points
            // stayed resident.
            new_input.charge_upload(executor);
            (Some(combined), init)
        }
    };
    let reuse = combined.is_none()
        && config.kernel == model.config.kernel
        && config.approx == model.config.approx
        && !matches!(model.resident, ResidentKernel::None);
    let input = combined.as_ref().unwrap_or(&model.points).as_input();
    fit_and_extract::<F, T>(
        reuse.then_some(model),
        input,
        input,
        &config,
        init,
        executor,
    )
}

const FORMAT_HEADER: &str = "popcorn-model v2";
const FORMAT_VERSION_PREFIX: &str = "popcorn-model v";

/// The on-disk text format revision a model was parsed from (see
/// [`FittedModel::load_versioned`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFormat {
    /// A pre-versioning file with no `popcorn-model vN` header line: the
    /// v1 body. Still accepted, but deprecated; re-saving writes the current
    /// header.
    V0Headerless,
    /// `popcorn-model v1`: the v2 body plus blocks `load` reads past and
    /// rebuilds (`K`; the Nyström `n × m` factors and landmark rows). Still
    /// accepted, but deprecated.
    V1,
    /// The current `popcorn-model v2` format: no `n × n` or `n × m` block. A
    /// Nyström model keeps its `m × m` core pseudo-inverse, whose eigen-clip
    /// fallback (`O(m³)` Jacobi sweeps) would dominate a load.
    V2,
}

impl ModelFormat {
    /// Short human-readable name (`v0 (headerless)`, `v1` or `v2`).
    pub fn describe(&self) -> &'static str {
        match self {
            ModelFormat::V0Headerless => "v0 (headerless)",
            ModelFormat::V1 => "v1",
            ModelFormat::V2 => "v2",
        }
    }

    /// `true` for revisions older than the one [`FittedModel::save`] writes
    /// — callers should suggest re-saving to upgrade.
    pub fn is_deprecated(&self) -> bool {
        !matches!(self, ModelFormat::V2)
    }
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn push_scalar_line<T: Scalar>(out: &mut String, tag: &str, values: &[T]) {
    let _ = write!(out, "{tag} {}", values.len());
    for v in values {
        let _ = write!(out, " {}", hex(v.to_f64()));
    }
    out.push('\n');
}

fn push_usize_line(out: &mut String, tag: &str, values: &[usize]) {
    let _ = write!(out, "{tag} {}", values.len());
    for &v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

/// One untagged line of space-separated hex values.
fn push_row<T: Scalar>(out: &mut String, values: &[T]) {
    for (j, v) in values.iter().enumerate() {
        if j > 0 {
            out.push(' ');
        }
        out.push_str(&hex(v.to_f64()));
    }
    out.push('\n');
}

fn push_matrix<T: Scalar>(out: &mut String, m: &DenseMatrix<T>) {
    for i in 0..m.rows() {
        push_row(out, m.row(i));
    }
}

fn push_csr<T: Scalar>(out: &mut String, m: &CsrMatrix<T>) {
    push_usize_line(out, "ptrs", m.row_ptrs());
    push_usize_line(out, "cols", m.col_indices());
    push_scalar_line(out, "vals", m.values());
}

/// Line-oriented reader with positioned errors.
struct Reader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines(),
            line_no: 0,
        }
    }

    fn bad(&self, msg: impl std::fmt::Display) -> CoreError {
        CoreError::InvalidInput(format!("model text line {}: {msg}", self.line_no))
    }

    fn line(&mut self) -> Result<&'a str> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| CoreError::InvalidInput("model text ended early".into()))
    }

    /// Read past `lines` lines without parsing them.
    fn skip(&mut self, lines: usize) -> Result<()> {
        for _ in 0..lines {
            self.line()?;
        }
        Ok(())
    }

    /// The next line, which must start with `tag`; returns the remaining
    /// whitespace-separated tokens.
    fn tagged(&mut self, tag: &str) -> Result<Vec<&'a str>> {
        let line = self.line()?;
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some(t) if t == tag => Ok(toks.collect()),
            other => Err(self.bad(format!("expected '{tag}', got '{}'", other.unwrap_or("")))),
        }
    }

    /// A tagged line whose first token is a count, followed by that many
    /// tokens.
    fn counted(&mut self, tag: &str) -> Result<Vec<&'a str>> {
        let toks = self.tagged(tag)?;
        let Some((&count, rest)) = toks.split_first() else {
            return Err(self.bad(format!("'{tag}' line is missing its count")));
        };
        let count = self.parse_int(count)?;
        if rest.len() != count {
            return Err(self.bad(format!(
                "'{tag}' declares {count} values but carries {}",
                rest.len()
            )));
        }
        Ok(rest.to_vec())
    }

    fn parse_int<I: std::str::FromStr>(&self, tok: &str) -> Result<I> {
        tok.parse()
            .map_err(|_| self.bad(format!("invalid integer '{tok}'")))
    }

    fn parse_hex(&self, tok: &str) -> Result<f64> {
        u64::from_str_radix(tok, 16)
            .map(f64::from_bits)
            .map_err(|_| self.bad(format!("invalid float bits '{tok}'")))
    }

    fn parse_scalar<T: Scalar>(&self, tok: &str) -> Result<T> {
        Ok(T::from_f64(self.parse_hex(tok)?))
    }

    fn scalar_vec<T: Scalar>(&mut self, tag: &str) -> Result<Vec<T>> {
        self.counted(tag)?
            .into_iter()
            .map(|t| self.parse_scalar(t))
            .collect()
    }

    fn usize_vec(&mut self, tag: &str) -> Result<Vec<usize>> {
        self.counted(tag)?
            .into_iter()
            .map(|t| self.parse_int(t))
            .collect()
    }

    /// `rows` untagged lines of exactly `cols` hex tokens.
    fn matrix<T: Scalar>(&mut self, rows: usize, cols: usize) -> Result<DenseMatrix<T>> {
        // Grown line by line: `rows` is only a claim of the file.
        let mut data = Vec::new();
        for _ in 0..rows {
            let line = self.line()?;
            let row: Vec<T> = line
                .split_whitespace()
                .map(|t| self.parse_scalar(t))
                .collect::<Result<_>>()?;
            if row.len() != cols {
                return Err(self.bad(format!(
                    "matrix row carries {} values, expected {cols}",
                    row.len()
                )));
            }
            data.push(row);
        }
        Ok(DenseMatrix::from_rows(&data)?)
    }

    fn csr<T: Scalar>(&mut self, rows: usize, cols: usize, nnz: usize) -> Result<CsrMatrix<T>> {
        let ptrs = self.usize_vec("ptrs")?;
        if ptrs.len() != rows.saturating_add(1) {
            return Err(self.bad(format!(
                "CSR block declares {rows} rows but carries {} row pointers",
                ptrs.len()
            )));
        }
        let idx = self.usize_vec("cols")?;
        let vals = self.scalar_vec("vals")?;
        if idx.len() != nnz || vals.len() != nnz {
            return Err(self.bad(format!(
                "CSR block declares nnz={nnz} but carries {} indices and {} values",
                idx.len(),
                vals.len()
            )));
        }
        Ok(CsrMatrix::from_raw(rows, cols, ptrs, idx, vals)?)
    }
}

impl<T: Scalar> FittedModel<T> {
    /// Serialize to the `popcorn-model v2` text format. Every float is
    /// written as its IEEE-754 bit pattern (via `f64`, lossless for `f32`
    /// and `f64`), so `save → load` round-trips bit for bit. `K` and the
    /// Nyström `n × m` factors are not written: [`FittedModel::load`]
    /// rebuilds them.
    pub fn save(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{FORMAT_HEADER}");
        let _ = writeln!(out, "family {}", self.family.name());
        let c = &self.config;
        let _ = writeln!(out, "k {}", c.k);
        let _ = writeln!(out, "max-iter {}", c.max_iter);
        let _ = writeln!(out, "tolerance {}", hex(c.tolerance));
        let _ = writeln!(out, "check-convergence {}", u8::from(c.check_convergence));
        match c.kernel {
            KernelFunction::Linear => {
                let _ = writeln!(out, "kernel linear");
            }
            KernelFunction::Polynomial {
                gamma,
                coef0,
                degree,
            } => {
                let _ = writeln!(
                    out,
                    "kernel polynomial {} {} {degree}",
                    hex(gamma),
                    hex(coef0)
                );
            }
            KernelFunction::Gaussian { gamma, sigma } => {
                let _ = writeln!(out, "kernel gaussian {} {}", hex(gamma), hex(sigma));
            }
            KernelFunction::Sigmoid { gamma, coef0 } => {
                let _ = writeln!(out, "kernel sigmoid {} {}", hex(gamma), hex(coef0));
            }
        }
        match c.strategy {
            KernelMatrixStrategy::ForceGemm => {
                let _ = writeln!(out, "strategy force-gemm");
            }
            KernelMatrixStrategy::ForceSyrk => {
                let _ = writeln!(out, "strategy force-syrk");
            }
            KernelMatrixStrategy::Auto { threshold } => {
                let _ = writeln!(out, "strategy auto {}", hex(threshold));
            }
        }
        match c.init {
            Initialization::Random => {
                let _ = writeln!(out, "init random");
            }
            Initialization::KmeansPlusPlus => {
                let _ = writeln!(out, "init kmeans-plus-plus");
            }
        }
        let _ = writeln!(out, "seed {}", c.seed);
        let _ = writeln!(out, "repair {}", u8::from(c.repair_empty_clusters));
        match c.tiling {
            TilePolicy::Auto => {
                let _ = writeln!(out, "tiling auto");
            }
            TilePolicy::Full => {
                let _ = writeln!(out, "tiling full");
            }
            TilePolicy::Rows(r) => {
                let _ = writeln!(out, "tiling rows {r}");
            }
        }
        match c.approx {
            KernelApprox::Exact => {
                let _ = writeln!(out, "approx exact");
            }
            KernelApprox::Nystrom { landmarks, seed } => {
                let _ = writeln!(out, "approx nystrom {landmarks} {seed}");
            }
            KernelApprox::NystromAuto { epsilon, seed } => {
                let _ = writeln!(out, "approx nystrom-auto {} {seed}", hex(epsilon));
            }
            KernelApprox::Sparsified { sparsify } => match sparsify {
                Sparsify::Knn { neighbors } => {
                    let _ = writeln!(out, "approx sparsified-knn {neighbors}");
                }
                Sparsify::Threshold { tau } => {
                    let _ = writeln!(out, "approx sparsified-threshold {}", hex(tau));
                }
            },
        }
        match c.streaming {
            Streaming::Off => {
                let _ = writeln!(out, "streaming off");
            }
            Streaming::DoubleBuffered => {
                let _ = writeln!(out, "streaming double-buffered");
            }
        }
        push_usize_line(&mut out, "labels", &self.labels);
        match &self.points {
            OwnedPoints::Dense(p) => {
                let _ = writeln!(out, "points dense {} {}", p.rows(), p.cols());
                push_matrix(&mut out, p);
            }
            OwnedPoints::Csr(p) => {
                let _ = writeln!(out, "points csr {} {} {}", p.rows(), p.cols(), p.nnz());
                push_csr(&mut out, p);
            }
        }
        push_scalar_line(&mut out, "gram-diag", &self.gram_diag);
        push_scalar_line(&mut out, "kernel-diag", &self.kernel_diag);
        match &self.resident {
            ResidentKernel::Full(matrix) => {
                let _ = writeln!(out, "resident full {}", matrix.n());
            }
            ResidentKernel::Csr(matrix) => {
                let _ = writeln!(out, "resident csr {} {}", matrix.rows(), matrix.nnz());
                push_csr(&mut out, matrix);
            }
            ResidentKernel::Nystrom { factors, tile_rows } => {
                let landmarks = &factors.landmarks;
                let _ = writeln!(out, "resident nystrom {} {tile_rows}", landmarks.len());
                push_usize_line(&mut out, "landmarks", landmarks);
                push_matrix(&mut out, &factors.core_pinv_t);
            }
            ResidentKernel::Streamed { tile_rows } => {
                let _ = writeln!(out, "resident streamed {tile_rows}");
            }
            ResidentKernel::None => {
                let _ = writeln!(out, "resident none");
            }
        }
        match &self.stats {
            ModelStats::Kernel {
                cluster_self,
                sizes,
            } => {
                let _ = writeln!(out, "stats kernel");
                push_scalar_line(&mut out, "cluster-self", cluster_self);
                push_usize_line(&mut out, "sizes", sizes);
            }
            ModelStats::Lloyd { centroids } => {
                let d = centroids.first().map_or(0, Vec::len);
                let _ = writeln!(out, "stats lloyd {} {d}", centroids.len());
                for row in centroids {
                    push_row(&mut out, row);
                }
            }
        }
        match self.approx_error_bound {
            Some(b) => {
                let _ = writeln!(out, "bound {}", hex(b));
            }
            None => {
                let _ = writeln!(out, "bound none");
            }
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parse a model saved by [`FittedModel::save`], rebuilding what the
    /// file omits with the fit's own producers, charged to no executor: `K`
    /// (over a dense copy of CSR points for the dense baseline, as its fit
    /// ran), the Nyström factors and landmark fold. A `K` or factors that
    /// cannot be allocated is an error, not an abort.
    pub fn load(text: &str) -> Result<Self> {
        Self::load_versioned(text).map(|(model, _)| model)
    }

    /// [`FittedModel::load`] reporting which format revision the file used:
    /// a `popcorn-model v2` or `v1` header parses as [`ModelFormat::V2`] or
    /// [`ModelFormat::V1`], a file with no header line at all as the
    /// pre-versioning [`ModelFormat::V0Headerless`] layout (the v1 body), and
    /// any other `popcorn-model vN` header — a future revision this build
    /// does not know — is rejected outright rather than misparsed.
    pub fn load_versioned(text: &str) -> Result<(Self, ModelFormat)> {
        let first = text.lines().next().unwrap_or("").trim();
        let format = match first.strip_prefix(FORMAT_VERSION_PREFIX) {
            Some("2") => ModelFormat::V2,
            Some("1") => ModelFormat::V1,
            Some(version) => {
                return Err(CoreError::InvalidInput(format!(
                    "unsupported model format '{FORMAT_VERSION_PREFIX}{version}': this build \
                     reads '{FORMAT_HEADER}' files, and deprecated v1 and headerless v0 ones; \
                     re-save the model with a matching popcorn version"
                )));
            }
            None => ModelFormat::V0Headerless,
        };
        let mut r = Reader::new(text);
        if format != ModelFormat::V0Headerless {
            r.line()?;
        }
        Ok((Self::load_body(&mut r, format)?, format))
    }

    fn load_body(r: &mut Reader<'_>, format: ModelFormat) -> Result<Self> {
        let fam = r.tagged("family")?;
        let family = ModelFamily::from_name(fam.first().copied().unwrap_or(""))?;

        let mut config = KernelKmeansConfig::default();
        let toks = r.tagged("k")?;
        config.k = r.parse_int(toks.first().copied().unwrap_or(""))?;
        let toks = r.tagged("max-iter")?;
        config.max_iter = r.parse_int(toks.first().copied().unwrap_or(""))?;
        let toks = r.tagged("tolerance")?;
        config.tolerance = r.parse_hex(toks.first().copied().unwrap_or(""))?;
        let toks = r.tagged("check-convergence")?;
        config.check_convergence = toks.first().copied() == Some("1");
        let toks = r.tagged("kernel")?;
        config.kernel = match toks.as_slice() {
            ["linear"] => KernelFunction::Linear,
            ["polynomial", g, c0, deg] => KernelFunction::Polynomial {
                gamma: r.parse_hex(g)?,
                coef0: r.parse_hex(c0)?,
                degree: r.parse_int(deg)?,
            },
            ["gaussian", g, s] => KernelFunction::Gaussian {
                gamma: r.parse_hex(g)?,
                sigma: r.parse_hex(s)?,
            },
            ["sigmoid", g, c0] => KernelFunction::Sigmoid {
                gamma: r.parse_hex(g)?,
                coef0: r.parse_hex(c0)?,
            },
            _ => return Err(r.bad("unknown kernel")),
        };
        let toks = r.tagged("strategy")?;
        config.strategy = match toks.as_slice() {
            ["force-gemm"] => KernelMatrixStrategy::ForceGemm,
            ["force-syrk"] => KernelMatrixStrategy::ForceSyrk,
            ["auto", t] => KernelMatrixStrategy::Auto {
                threshold: r.parse_hex(t)?,
            },
            _ => return Err(r.bad("unknown strategy")),
        };
        let toks = r.tagged("init")?;
        config.init = match toks.as_slice() {
            ["random"] => Initialization::Random,
            ["kmeans-plus-plus"] => Initialization::KmeansPlusPlus,
            _ => return Err(r.bad("unknown init")),
        };
        let toks = r.tagged("seed")?;
        config.seed = r.parse_int(toks.first().copied().unwrap_or(""))?;
        let toks = r.tagged("repair")?;
        config.repair_empty_clusters = toks.first().copied() == Some("1");
        let toks = r.tagged("tiling")?;
        config.tiling = match toks.as_slice() {
            ["auto"] => TilePolicy::Auto,
            ["full"] => TilePolicy::Full,
            ["rows", n] => TilePolicy::Rows(r.parse_int(n)?),
            _ => return Err(r.bad("unknown tiling policy")),
        };
        let toks = r.tagged("approx")?;
        config.approx = match toks.as_slice() {
            ["exact"] => KernelApprox::Exact,
            ["nystrom", m, s] => KernelApprox::Nystrom {
                landmarks: r.parse_int(m)?,
                seed: r.parse_int(s)?,
            },
            ["nystrom-auto", e, s] => KernelApprox::NystromAuto {
                epsilon: r.parse_hex(e)?,
                seed: r.parse_int(s)?,
            },
            ["sparsified-knn", nb] => KernelApprox::Sparsified {
                sparsify: Sparsify::Knn {
                    neighbors: r.parse_int(nb)?,
                },
            },
            ["sparsified-threshold", t] => KernelApprox::Sparsified {
                sparsify: Sparsify::Threshold {
                    tau: r.parse_hex(t)?,
                },
            },
            _ => return Err(r.bad("unknown approximation")),
        };
        let toks = r.tagged("streaming")?;
        config.streaming = match toks.as_slice() {
            ["off"] => Streaming::Off,
            ["double-buffered"] => Streaming::DoubleBuffered,
            _ => return Err(r.bad("unknown streaming policy")),
        };

        let labels = r.usize_vec("labels")?;
        let toks = r.tagged("points")?;
        let points = match toks.as_slice() {
            ["dense", n, d] => {
                let (n, d) = (r.parse_int(n)?, r.parse_int(d)?);
                OwnedPoints::Dense(r.matrix(n, d)?)
            }
            ["csr", n, d, nnz] => {
                let (n, d, nnz) = (r.parse_int(n)?, r.parse_int(d)?, r.parse_int(nnz)?);
                OwnedPoints::Csr(r.csr(n, d, nnz)?)
            }
            _ => return Err(r.bad("unknown points layout")),
        };
        let gram_diag = r.scalar_vec("gram-diag")?;
        let kernel_diag: Vec<T> = r.scalar_vec("kernel-diag")?;

        // Every count must agree with the others before serving indexes by
        // them, or a rebuild sizes a buffer by them.
        let (n, k) = (labels.len(), config.k);
        if k == 0 || labels.iter().any(|&l| l >= k) {
            return Err(CoreError::InvalidInput(
                "model labels are out of range for its k".into(),
            ));
        }
        let expect = |what: &str, got: usize, want: usize| {
            if got == want {
                Ok(())
            } else {
                Err(CoreError::InvalidInput(format!(
                    "model carries {got} {what}, expected {want}"
                )))
            }
        };
        expect("points", points.n(), n)?;
        expect("gram-diag entries", gram_diag.len(), n)?;
        if family.is_kernel() {
            expect("kernel-diag entries", kernel_diag.len(), n)?;
        }
        // v0 and v1 files also carry the blocks rebuilt below: a full
        // model's `n` rows of `K`; a Nyström model's `hat` and `cross`
        // (`n` rows each) before its core, and its landmark rows (`m`) and
        // their Gram diagonal (one line) after it.
        let rebuilt_lines = |lines| if format == ModelFormat::V2 { 0 } else { lines };
        let kernel = config.kernel;
        let toks = r.tagged("resident")?;
        let resident = match toks.as_slice() {
            ["full", rows] => {
                let rows = r.parse_int(rows)?;
                expect("resident matrix rows", rows, n)?;
                r.skip(rebuilt_lines(rows))?;
                let mut copy = None;
                let input = kernel_input(&points, family, &mut copy)?;
                ResidentKernel::Full(Arc::new(packed_kernel_matrix(input, kernel)?))
            }
            ["csr", rows, nnz] => {
                let (rows, nnz) = (r.parse_int(rows)?, r.parse_int(nnz)?);
                expect("resident CSR rows", rows, n)?;
                ResidentKernel::Csr(Arc::new(r.csr(rows, rows, nnz)?))
            }
            ["nystrom", m, tile_rows] => {
                let (m, tile_rows) = (r.parse_int(m)?, r.parse_int(tile_rows)?);
                let landmarks = r.usize_vec("landmarks")?;
                if m == 0 || landmarks.len() != m || landmarks.iter().any(|&l| l >= n) {
                    return Err(r.bad(format!("expected {m} landmark rows below {n}")));
                }
                r.skip(rebuilt_lines(2 * n))?;
                let core_pinv_t = r.matrix(m, m)?;
                r.skip(rebuilt_lines(m + 1))?;
                let mut copy = None;
                let input = kernel_input(&points, family, &mut copy)?;
                let factors = NystromFactors::rebuild(input, kernel, &landmarks, core_pinv_t)?;
                ResidentKernel::Nystrom {
                    factors: Arc::new(factors),
                    tile_rows,
                }
            }
            ["streamed", tile_rows] => ResidentKernel::Streamed {
                tile_rows: r.parse_int(tile_rows)?,
            },
            ["none"] => ResidentKernel::None,
            _ => return Err(r.bad("unknown resident kernel state")),
        };
        let toks = r.tagged("stats")?;
        let stats = match toks.as_slice() {
            ["kernel"] => ModelStats::Kernel {
                cluster_self: r.scalar_vec("cluster-self")?,
                sizes: r.usize_vec("sizes")?,
            },
            ["lloyd", k, d] => {
                let centroids = r.matrix::<f64>(r.parse_int(k)?, r.parse_int(d)?)?;
                ModelStats::Lloyd {
                    centroids: (0..centroids.rows())
                        .map(|c| centroids.row(c).to_vec())
                        .collect(),
                }
            }
            _ => return Err(r.bad("unknown stats block")),
        };
        let toks = r.tagged("bound")?;
        let approx_error_bound = match toks.as_slice() {
            ["none"] => None,
            [b] => Some(r.parse_hex(b)?),
            _ => return Err(r.bad("unknown bound")),
        };
        r.tagged("end")?;

        match &stats {
            ModelStats::Kernel {
                cluster_self,
                sizes,
            } => {
                expect("cluster-self entries", cluster_self.len(), k)?;
                expect("cluster sizes", sizes.len(), k)?;
            }
            ModelStats::Lloyd { centroids } => {
                expect("centroids", centroids.len(), k)?;
                for centroid in centroids {
                    expect("centroid values", centroid.len(), points.d())?;
                }
            }
        }
        let landmark_fold = match &resident {
            ResidentKernel::Nystrom { factors, .. } => {
                Some(build_landmark_fold(&factors.cross, &labels, k))
            }
            _ => None,
        };
        Ok(Self {
            family,
            config,
            labels,
            points,
            gram_diag,
            kernel_diag,
            resident,
            stats,
            landmark_fold,
            approx_error_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popcorn::KernelKmeans;
    use crate::solver::{KernelSolver, Solver};
    use popcorn_gpusim::{DeviceSpec, SimExecutor};

    fn toy_points() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![4.0, 4.1],
            vec![4.1, 4.0],
            vec![4.05, 4.05],
        ])
        .unwrap()
    }

    fn toy_config() -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(2).with_max_iter(10)
    }

    /// Awkward values for the cross kernel: `−0` entries, one row in
    /// seven holding an infinity, ordinary values.
    fn awkward_points(n: usize, d: usize, salt: usize) -> DenseMatrix<f32> {
        DenseMatrix::from_fn(n, d, |i, j| {
            match (i + salt, (i * 31 + j * 17 + salt) % 61) {
                (r, 0) if r % 7 == 0 => f32::INFINITY,
                (r, 1) if r % 7 == 0 => f32::NEG_INFINITY,
                (_, 2..=15) => -0.0,
                (_, 16..=30) => 0.0,
                _ => ((i * d + j + salt) as f32 * 0.37).sin() * 0.2,
            }
        })
    }

    /// The cross Gram of one layout pairing, one entry at a time, as the
    /// serving path computed it before the map moved into its write-back:
    /// a query scattered into a dense row, folded against every column of
    /// a dense training row or the stored entries of a sparse one.
    fn two_step_cross_gram(
        queries: FitInput<'_, f32>,
        train: FitInput<'_, f32>,
    ) -> DenseMatrix<f32> {
        let d = train.d();
        DenseMatrix::from_fn(queries.n(), train.n(), |i, j| {
            let mut scratch = vec![0.0f32; d];
            match queries {
                FitInput::Dense(p) => scratch.copy_from_slice(p.row(i)),
                FitInput::Sparse(p) => {
                    let (cols, vals) = p.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        scratch[c] = v;
                    }
                }
            }
            match train {
                FitInput::Dense(t) => scratch
                    .iter()
                    .zip(t.row(j))
                    .fold(0.0, |acc, (&x, &y)| x.mul_add(y, acc)),
                FitInput::Sparse(t) => {
                    let (cols, vals) = t.row(j);
                    cols.iter()
                        .zip(vals)
                        .fold(0.0, |acc, (&c, &v)| v.mul_add(scratch[c], acc))
                }
            }
        })
    }

    /// The cross kernel gathered into a matrix, checking the contract the
    /// score fold relies on: each row's runs arrive left to right, without
    /// gaps or overlaps, and cover the row.
    fn gathered_cross_kernel(
        queries: FitInput<'_, f32>,
        train: FitInput<'_, f32>,
        map: KernelMap<'_>,
    ) -> DenseMatrix<f32> {
        let mut out = DenseMatrix::<f32>::zeros(queries.n(), train.n());
        let mut next = vec![0; queries.n()];
        cross_kernel(queries, train, map, |i, j0, run| {
            assert_eq!(j0, next[i], "row {i}: a run starts out of order");
            next[i] += run.len();
            out.row_mut(i)[j0..][..run.len()].copy_from_slice(run);
        });
        assert!(next.iter().all(|&j| j == train.n()), "rows left unwritten");
        out
    }

    #[test]
    fn the_cross_kernel_is_the_cross_gram_under_the_map_bit_for_bit() {
        // 100 training rows at d = 512 span four packed chunks of B; one and
        // three queries take the packed-query path, thirteen the blocked
        // one.
        // The CSR rows are also spread over 200 times as many columns, more
        // than they store, so the training points' column slots are ranks;
        // each wide query also stores the last column, which no training
        // row stores. Spread, every sparse dot product keeps its bits.
        let widen = |m: &CsrMatrix<f32>, last: bool| {
            let cols = m.cols() * 200;
            let (mut ptrs, mut idx, mut vals) = (vec![0], Vec::new(), Vec::new());
            for i in 0..m.rows() {
                let (c, v) = m.row(i);
                idx.extend(c.iter().map(|&c| c * 200));
                vals.extend_from_slice(v);
                if last {
                    idx.push(cols - 1);
                    vals.push(1.5);
                }
                ptrs.push(idx.len());
            }
            CsrMatrix::from_raw(m.rows(), cols, ptrs, idx, vals).unwrap()
        };
        let train = awkward_points(100, 512, 0);
        let train_csr = CsrMatrix::from_dense(&train);
        let train_wide = widen(&train_csr, false);
        assert!(train_wide.cols() > train_wide.nnz());
        let train_diag = TiledKernel::compute_gram_diag(&FitInput::Dense(&train));
        // Interleaved labels: every run mixes clusters, so each score sums
        // terms from many runs, and adding them out of order would round
        // differently.
        let k = 5;
        let labels: Vec<usize> = (0..train.rows()).map(|j| (j * 3 + j / 7) % k).collect();
        for q in [1, 3, 13] {
            let queries = awkward_points(q, 512, 5);
            let queries_csr = CsrMatrix::from_dense(&queries);
            let queries_wide = widen(&queries_csr, true);
            let query_diag = TiledKernel::compute_gram_diag(&FitInput::Dense(&queries));
            for kernel in [
                KernelFunction::Linear,
                KernelFunction::paper_polynomial(),
                KernelFunction::Gaussian {
                    gamma: 0.7,
                    sigma: 1.3,
                },
                KernelFunction::Sigmoid {
                    gamma: 0.2,
                    coef0: 0.1,
                },
            ] {
                for queries in [FitInput::Dense(&queries), FitInput::Sparse(&queries_csr)] {
                    for train in [FitInput::Dense(&train), FitInput::Sparse(&train_csr)] {
                        let map = KernelMap::new(kernel, &query_diag, &train_diag);
                        let fused = gathered_cross_kernel(queries, train, map);
                        let scores = cross_scores(queries, train, map, &labels, k);
                        let gram = two_step_cross_gram(queries, train);
                        let at = format!(
                            "{}, q = {q}, sparse queries {}, sparse training points {}",
                            kernel.name(),
                            queries.is_sparse(),
                            train.is_sparse()
                        );
                        for i in 0..q {
                            // The plain fold over the finished row.
                            let mut want_scores = vec![0.0f32; k];
                            for j in 0..train.n() {
                                let b = gram[(i, j)].to_f64();
                                let want = kernel.apply(b, query_diag[i], train_diag[j]) as f32;
                                assert_eq!(
                                    fused[(i, j)].to_bits(),
                                    want.to_bits(),
                                    "{at}: entry ({i},{j})"
                                );
                                want_scores[labels[j]] += want;
                            }
                            for (c, want) in want_scores.iter().enumerate() {
                                assert_eq!(
                                    scores[(i, c)].to_bits(),
                                    want.to_bits(),
                                    "{at}: score ({i},{c})"
                                );
                            }
                        }
                    }
                }
                let map = KernelMap::new(kernel, &query_diag, &train_diag);
                let narrow = gathered_cross_kernel(
                    FitInput::Sparse(&queries_csr),
                    FitInput::Sparse(&train_csr),
                    map,
                );
                let wide = gathered_cross_kernel(
                    FitInput::Sparse(&queries_wide),
                    FitInput::Sparse(&train_wide),
                    map,
                );
                for (i, (a, b)) in narrow.as_slice().iter().zip(wide.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{}, q = {q}, wide entry {i}",
                        kernel.name()
                    );
                }
            }
        }
        crate::test_support::rerun_at_kernel_threads(
            module_path!(),
            "the_cross_kernel_is_the_cross_gram_under_the_map_bit_for_bit",
        );
    }

    #[test]
    fn a_csr_model_over_2_pow_61_columns_assigns_a_sparse_query() {
        // Dense, one row of these f32 points would take 2^63 bytes: a
        // buffer sized by the feature count cannot even be requested, by
        // the cross kernel or by a Nyström model's landmark rows.
        let cols = 1usize << 61;
        let far = cols - 1;
        let points = CsrMatrix::<f32>::from_raw(
            3,
            cols,
            vec![0, 2, 4, 6],
            vec![0, far, 1, 2, 0, far],
            vec![0.5, 1.0, 0.25, 1.0, 1.0, 0.5],
        )
        .unwrap();
        for config in [
            KernelKmeansConfig::paper_defaults(2),
            KernelKmeansConfig::paper_defaults(2).with_approx(KernelApprox::Nystrom {
                landmarks: 2,
                seed: 1,
            }),
        ] {
            let (fit, model) = KernelKmeans::new(config)
                .fit_model(FitInput::Sparse(&points))
                .unwrap();
            // Point 0 as a one-row query: its kernel row, and so its label
            // under the settled fit's statistics, is point 0's.
            let query =
                CsrMatrix::<f32>::from_raw(1, cols, vec![0, 2], vec![0, far], vec![0.5, 1.0])
                    .unwrap();
            let executor = SimExecutor::new(DeviceSpec::a100_80gb(), std::mem::size_of::<f32>());
            let batch = model.assign(FitInput::Sparse(&query), &executor).unwrap();
            assert!(!batch.replayed_training);
            assert_eq!(
                batch.labels,
                vec![fit.labels[0]],
                "{}",
                model.resident_kind()
            );
            // The landmark product reads the landmark rows' stored entries
            // and the query's two, not `m × 2^61` dense values.
            if let ResidentKernel::Nystrom { factors, .. } = &model.resident {
                let OwnedPoints::Csr(rows) = model.landmark_points(&factors.landmarks) else {
                    panic!("a CSR model's landmark rows stay CSR")
                };
                let trace = executor.trace();
                let read = trace.records().iter().find_map(|r| {
                    r.name
                        .starts_with("serve landmark cross gram")
                        .then_some(r.cost.bytes_read)
                });
                assert_eq!(read, Some(rows.storage_bytes(4, INDEX_BYTES) + 2 * 4));
            }
        }
    }

    #[test]
    fn a_csr_nystrom_model_scores_queries_as_its_densified_points_do() {
        // Two entries in three are zero. The CSR model's landmark rows stay
        // CSR; the same model over the densified points takes the dense
        // paths. A zero term leaves a finite accumulator's bits as they are.
        let dense = DenseMatrix::<f32>::from_fn(60, 12, |i, j| match (i + 2 * j) % 3 {
            0 => ((i * 12 + j) as f32 * 0.37).sin() + (i % 4) as f32 * 2.0,
            _ => 0.0,
        });
        let csr = CsrMatrix::from_dense(&dense);
        let queries = DenseMatrix::<f32>::from_fn(7, 12, |i, j| match (i + j) % 3 {
            0 => ((i * 5 + j) as f32 * 0.61).cos() * 3.0,
            1 => -0.0,
            _ => 0.0,
        });
        let queries_csr = CsrMatrix::from_dense(&queries);
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 0.7,
                sigma: 1.3,
            },
            KernelFunction::Sigmoid {
                gamma: 0.2,
                coef0: 0.1,
            },
        ] {
            let config = KernelKmeansConfig::paper_defaults(4)
                .with_kernel(kernel)
                .with_approx(KernelApprox::Nystrom {
                    landmarks: 8,
                    seed: 3,
                });
            let (_, model) = KernelKmeans::new(config)
                .fit_model(FitInput::Sparse(&csr))
                .unwrap();
            let ResidentKernel::Nystrom { factors, .. } = &model.resident else {
                panic!("a Nyström fit keeps its factors")
            };
            let mut densified = model.clone();
            densified.points = OwnedPoints::Dense(dense.clone());
            for queries in [FitInput::Dense(&queries), FitInput::Sparse(&queries_csr)] {
                let diag = TiledKernel::compute_gram_diag(&queries);
                let executor = SimExecutor::new(DeviceSpec::a100_80gb(), 4);
                let (scores, qdiag) = model
                    .nystrom_scores(factors, queries, &diag, &executor)
                    .unwrap();
                let (want, want_qdiag) = densified
                    .nystrom_scores(factors, queries, &diag, &executor)
                    .unwrap();
                let at = format!("{}, sparse queries {}", kernel.name(), queries.is_sparse());
                for (c, (a, b)) in scores.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{at}: score {c}");
                }
                for (i, (a, b)) in qdiag.iter().zip(&want_qdiag).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{at}: diagonal {i}");
                }
            }
        }
    }

    #[test]
    fn a_model_file_row_pointer_past_nnz_is_an_error() {
        // One inner entry of the resident CSR block's `ptrs` line raised
        // past nnz: the loader sliced the column indices by it and panicked.
        let config = toy_config().with_approx(KernelApprox::Sparsified {
            sparsify: Sparsify::Knn { neighbors: 5 },
        });
        let (_, model) = KernelKmeans::new(config)
            .fit_model(FitInput::Dense(&toy_points()))
            .unwrap();
        assert_eq!(model.resident_kind(), "csr");
        let text = model.save();
        let hostile = text
            .lines()
            .map(|line| match line.strip_prefix("ptrs ") {
                Some(rest) => {
                    let mut tokens: Vec<&str> = rest.split_whitespace().collect();
                    tokens[2] = "999999999";
                    format!("ptrs {}", tokens.join(" "))
                }
                None => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(hostile.trim_end(), text.trim_end());
        assert!(FittedModel::<f64>::load(&hostile).is_err());
    }

    #[test]
    fn family_names_roundtrip() {
        for family in [
            ModelFamily::Popcorn,
            ModelFamily::CpuReference,
            ModelFamily::DenseBaseline,
            ModelFamily::Lloyd,
        ] {
            assert_eq!(ModelFamily::from_name(family.name()).unwrap(), family);
        }
        assert!(ModelFamily::from_name("mystery").is_err());
    }

    #[test]
    fn owned_points_concat() {
        let a = OwnedPoints::Dense(toy_points());
        let b = OwnedPoints::Dense(DenseMatrix::from_rows(&[vec![9.0, 9.0]]).unwrap());
        let c = a.concat(&b).unwrap();
        assert_eq!(c.n(), 7);
        let OwnedPoints::Dense(m) = &c else {
            panic!("dense concat stays dense")
        };
        assert_eq!(m[(6, 0)], 9.0);

        let sa = OwnedPoints::Csr(CsrMatrix::from_dense(&toy_points()));
        let sb = OwnedPoints::Csr(CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[vec![0.0, 9.0]]).unwrap(),
        ));
        let sc = sa.concat(&sb).unwrap();
        assert_eq!(sc.n(), 7);
        let OwnedPoints::Csr(m) = &sc else {
            panic!("csr concat stays csr")
        };
        assert_eq!(m.get(6, 1), 9.0);

        assert!(a.concat(&sb).is_err());
    }

    #[test]
    fn extraction_holds_an_n_by_k_row_sum_buffer_on_the_device() {
        // The statistics pass is charged like a row reduction that keeps its
        // n × k buffer resident; a sharded fit's per-device peaks include it.
        let points = toy_points();
        let config = toy_config();
        let (fit, model) = KernelKmeans::new(config.clone())
            .fit_model(FitInput::Dense(&points))
            .unwrap();
        let ResidentKernel::Full(matrix) = &model.resident else {
            panic!("an in-core fit keeps the full K")
        };
        let source = kernel_source::FullKernel::computed(Arc::clone(matrix));
        let executor = SimExecutor::new(DeviceSpec::a100_80gb(), std::mem::size_of::<f64>());
        let input = FitInput::Dense(&points);
        let family = ModelFamily::Popcorn;
        let extracted = extract(family, &config, &fit, input, &source, &executor).unwrap();
        assert_eq!(executor.resident_bytes(), 6 * 2 * 8);
        assert_eq!(extracted.save(), model.save());
        // The fold over the packed rows and the one over the same matrix's
        // dense rows give the same statistics.
        let full = matrix.to_dense();
        let rows = kernel_source::FullKernel::new(&full).unwrap();
        let folded = extract(family, &config, &fit, input, &rows, &executor).unwrap();
        assert_eq!(folded.save(), model.save());
    }

    #[test]
    fn training_replay_reproduces_fit_labels_without_kernel_charges() {
        let points = toy_points();
        let solver = KernelKmeans::new(toy_config());
        let (result, model) = solver.fit_model(FitInput::Dense(&points)).unwrap();
        assert_eq!(model.family(), ModelFamily::Popcorn);
        assert_eq!(model.resident_kind(), "full");

        let executor = SimExecutor::new(DeviceSpec::a100_80gb(), std::mem::size_of::<f64>());
        let batch = model.assign(FitInput::Dense(&points), &executor).unwrap();
        assert!(batch.replayed_training);
        assert_eq!(batch.labels, result.labels);
        assert!(batch.modeled_seconds > 0.0);
        for op in executor.trace().records() {
            assert_ne!(
                op.phase,
                Phase::KernelMatrix,
                "training replay must not recompute the kernel matrix: {}",
                op.name
            );
        }
    }

    #[test]
    fn out_of_sample_queries_get_nearest_cluster() {
        let points = toy_points();
        let solver = KernelKmeans::new(toy_config());
        let (result, model) = solver.fit_model(FitInput::Dense(&points)).unwrap();

        let queries = DenseMatrix::from_rows(&[vec![0.02, 0.03], vec![4.02, 4.03]]).unwrap();
        let executor = SimExecutor::new(DeviceSpec::a100_80gb(), std::mem::size_of::<f64>());
        let batch = model.assign(FitInput::Dense(&queries), &executor).unwrap();
        assert!(!batch.replayed_training);
        assert_eq!(batch.labels[0], result.labels[0]);
        assert_eq!(batch.labels[1], result.labels[3]);
    }

    #[test]
    fn save_load_roundtrips_bit_for_bit() {
        let points = toy_points();
        let solver = KernelKmeans::new(toy_config());
        let (_, model) = solver.fit_model(FitInput::Dense(&points)).unwrap();
        let text = model.save();
        let loaded = FittedModel::<f64>::load(&text).unwrap();
        assert_eq!(loaded, model);
        // The rebuilt `K` is not written back.
        assert_eq!(loaded.save(), text);
        assert!(FittedModel::<f64>::load("not a model").is_err());
        assert!(FittedModel::<f64>::load(FORMAT_HEADER).is_err());
        // Counts a file declares are only claims: each is checked against
        // what the file carries and against the others, so a hostile count
        // is a typed error, never a panic in the loader or in `assign`.
        let with_line = |tag: &str, line: &str| {
            text.lines()
                .map(|l| match l.split_whitespace().next() {
                    Some(t) if t == tag => line,
                    _ => l,
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        for hostile in [
            text.replace("points dense 6 2", "points dense 18446744073709551615 2"),
            with_line("sizes", "sizes 1 3"),
            with_line("cluster-self", "cluster-self 1 0000000000000000"),
            with_line("resident", "resident full 7"),
        ] {
            assert!(FittedModel::<f64>::load(&hostile).is_err());
        }
    }

    /// The CPU reference's and the dense baseline's fits as far as a model's
    /// load depends on them (both families live in `popcorn-baselines`):
    /// the CPU reference fits the points as given, the dense baseline a
    /// dense copy of CSR points, and both `K`s carry the shared producer's
    /// bits (`popcorn-baselines` pins the CPU reference's sequential loops
    /// to it).
    struct BaselineLike<const DENSIFY: bool>;

    impl<const DENSIFY: bool> KernelFamily for BaselineLike<DENSIFY> {
        const FAMILY: ModelFamily = if DENSIFY {
            ModelFamily::DenseBaseline
        } else {
            ModelFamily::CpuReference
        };

        fn prepare<T: Scalar>(
            input: FitInput<'_, T>,
            _executor: &dyn Executor,
        ) -> Result<Option<DenseMatrix<T>>> {
            Ok(match input {
                FitInput::Sparse(_) if DENSIFY => Some(input.to_dense()?),
                _ => None,
            })
        }

        fn kernel_matrix<T: Scalar>(
            input: FitInput<'_, T>,
            config: &KernelKmeansConfig,
            _executor: &dyn Executor,
        ) -> Result<PackedSymmetric<T>> {
            match input {
                FitInput::Sparse(_) if DENSIFY => {
                    packed_kernel_matrix(FitInput::Dense(&input.to_dense()?), config.kernel)
                }
                _ => packed_kernel_matrix(input, config.kernel),
            }
        }
    }

    /// Blobs with exact zeros, `−0` and subnormals of both signs. Every
    /// sixth row holds nothing else, so its Gram entries with the others
    /// like it are sums of underflowed products, some of them `−0`.
    fn awkward_blobs<T: Scalar>(n: usize, d: usize) -> DenseMatrix<T> {
        let tiny = if std::mem::size_of::<T>() == 4 {
            3e-39
        } else {
            3e-309
        };
        DenseMatrix::from_fn(n, d, |i, j| {
            let v = match ((i * 7 + j * 3) % 9, i % 6 == 5) {
                (0, _) => 0.0,
                (1, _) => -0.0,
                (2..=4, true) | (2, false) => tiny,
                (5..=8, true) | (3, false) => -tiny,
                _ => (i % 3) as f64 * 3.0 + ((i * d + j) as f64 * 0.37).sin(),
            };
            T::from_f64(v)
        })
    }

    /// `a` and `b` hold the same bits: their saved text (every stored float
    /// by its bits), and every entry of the `K`, the factors and the
    /// landmark fold that a file omits.
    fn assert_same_bits<T: Scalar>(a: &FittedModel<T>, b: &FittedModel<T>, at: &str) {
        assert_eq!(a.save(), b.save(), "{at}: saved text");
        let bits = |x: &[T]| x.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
        match (&a.resident, &b.resident) {
            (ResidentKernel::Full(x), ResidentKernel::Full(y)) => {
                assert_eq!(bits(x.as_slice()), bits(y.as_slice()), "{at}: K");
            }
            (
                ResidentKernel::Nystrom { factors: x, .. },
                ResidentKernel::Nystrom { factors: y, .. },
            ) => {
                assert_eq!(x.landmarks, y.landmarks, "{at}: landmarks");
                assert_eq!(
                    bits(x.cross.as_slice()),
                    bits(y.cross.as_slice()),
                    "{at}: C"
                );
                assert_eq!(bits(x.hat.as_slice()), bits(y.hat.as_slice()), "{at}: H");
                let (pa, pb) = (&x.core_pinv_t, &y.core_pinv_t);
                assert_eq!(bits(pa.as_slice()), bits(pb.as_slice()), "{at}: W+");
                assert_eq!(bits(&x.diag), bits(&y.diag), "{at}: diag");
                assert_eq!(bits(&x.diag), bits(&a.kernel_diag), "{at}: kernel diag");
            }
            (ResidentKernel::Csr(x), ResidentKernel::Csr(y)) => {
                assert_eq!(x.col_indices(), y.col_indices(), "{at}: CSR K");
                assert_eq!(bits(x.values()), bits(y.values()), "{at}: CSR K");
            }
            (x, y) => assert_eq!(x, y, "{at}: resident state"),
        }
        let fold = |m: &FittedModel<T>| m.landmark_fold.as_ref().map(|f| bits(f.as_slice()));
        assert_eq!(fold(a), fold(b), "{at}: landmark fold");
    }

    fn check_rebuilt_models<T: Scalar>() {
        let points = awkward_blobs::<T>(24, 5);
        let csr = CsrMatrix::from_dense(&points);
        let kernels = [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 0.7,
                sigma: 1.3,
            },
            // No offset: `tanh` keeps a `−0` Gram entry's sign.
            KernelFunction::Sigmoid {
                gamma: 0.2,
                coef0: 0.0,
            },
        ];
        let config = KernelKmeansConfig::paper_defaults(3)
            .with_seed(2)
            .with_max_iter(6);
        let residents = [
            ("full", config.clone()),
            (
                "nystrom",
                config.clone().with_approx(KernelApprox::Nystrom {
                    landmarks: 7,
                    seed: 3,
                }),
            ),
            (
                "nystrom",
                config.clone().with_approx(KernelApprox::NystromAuto {
                    epsilon: 1e-3,
                    seed: 3,
                }),
            ),
            (
                "csr",
                config.clone().with_approx(KernelApprox::Sparsified {
                    sparsify: Sparsify::Knn { neighbors: 5 },
                }),
            ),
            ("streamed", config.clone().with_tiling(TilePolicy::Rows(7))),
        ];
        for input in [FitInput::Dense(&points), FitInput::Sparse(&csr)] {
            for kernel in kernels {
                for (kind, config) in &residents {
                    let config = config.clone().with_kernel(kernel);
                    let fits = [
                        KernelKmeans::new(config.clone()).fit_model(input),
                        KernelSolver::<BaselineLike<false>>::new(config.clone()).fit_model(input),
                        KernelSolver::<BaselineLike<true>>::new(config.clone()).fit_model(input),
                    ];
                    for fit in fits {
                        let (_, model) = fit.unwrap();
                        let at = format!(
                            "{} {kind} {}, sparse points {}, {} bytes",
                            model.family().name(),
                            kernel.name(),
                            input.is_sparse(),
                            std::mem::size_of::<T>()
                        );
                        assert_eq!(model.resident_kind(), *kind, "{at}");
                        let (loaded, format) = FittedModel::<T>::load_versioned(&model.save())
                            .unwrap_or_else(|e| panic!("{at}: {e}"));
                        assert_eq!(format, ModelFormat::V2);
                        assert_same_bits(&loaded, &model, &at);
                    }
                }
            }
            // Lloyd models keep no kernel state: their file is all of them.
            let (mut fit, _) = KernelKmeans::new(config.clone()).fit_model(input).unwrap();
            let tiny = points[(5, 2)].to_f64();
            fit.centroids = Some(vec![vec![0.0, -0.0, tiny, -tiny, 1.5]; 3]);
            let model = FittedModel::from_lloyd(&config, &fit, input).unwrap();
            let loaded = FittedModel::<T>::load(&model.save()).unwrap();
            assert_same_bits(&loaded, &model, "lloyd");
        }
    }

    #[test]
    fn loading_rebuilds_every_model_bit_for_bit() {
        check_rebuilt_models::<f32>();
        check_rebuilt_models::<f64>();
    }

    /// Whether two resident states are one allocation.
    fn same_allocation<T: Scalar>(a: &ResidentKernel<T>, b: &ResidentKernel<T>) -> bool {
        match (a, b) {
            (ResidentKernel::Full(a), ResidentKernel::Full(b)) => Arc::ptr_eq(a, b),
            (ResidentKernel::Csr(a), ResidentKernel::Csr(b)) => Arc::ptr_eq(a, b),
            (
                ResidentKernel::Nystrom { factors: a, .. },
                ResidentKernel::Nystrom { factors: b, .. },
            ) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn clones_and_warm_refits_share_the_resident_kernel_state() {
        let points = toy_points();
        for (kind, approx) in [
            ("full", KernelApprox::Exact),
            (
                "csr",
                KernelApprox::Sparsified {
                    sparsify: Sparsify::Knn { neighbors: 3 },
                },
            ),
            (
                "nystrom",
                KernelApprox::Nystrom {
                    landmarks: 3,
                    seed: 1,
                },
            ),
        ] {
            let solver = KernelKmeans::new(toy_config().with_approx(approx));
            let (_, model) = solver.fit_model(FitInput::Dense(&points)).unwrap();
            assert_eq!(model.resident_kind(), kind);
            let clone = model.clone();
            assert!(
                same_allocation(&model.resident, &clone.resident),
                "{kind} clone"
            );
            let (_, refitted) = solver.refit(&model, &RefitRequest::warm()).unwrap();
            assert!(
                same_allocation(&model.resident, &refitted.resident),
                "{kind} warm refit"
            );
        }
    }

    #[test]
    fn a_model_source_streams_the_panels_of_its_resident_kind() {
        let points = toy_points();
        let input = FitInput::Dense(&points);
        let (_, exact) = KernelKmeans::new(toy_config()).fit_model(input).unwrap();
        let ResidentKernel::Full(matrix) = &exact.resident else {
            panic!("an in-core fit keeps the full K")
        };
        let sparsify = Sparsify::Knn { neighbors: 3 };
        let nystrom = KernelApprox::Nystrom {
            landmarks: 3,
            seed: 1,
        };
        for (kind, config, panels) in [
            ("full", toy_config(), PanelKind::Lower),
            (
                "streamed",
                toy_config().with_tiling(TilePolicy::Rows(4)),
                PanelKind::Lower,
            ),
            (
                "csr",
                toy_config().with_approx(KernelApprox::Sparsified { sparsify }),
                PanelKind::Csr,
            ),
            (
                "nystrom",
                toy_config().with_approx(nystrom),
                PanelKind::Rows,
            ),
        ] {
            let (_, model) = KernelKmeans::new(config).fit_model(input).unwrap();
            assert_eq!(model.resident_kind(), kind);
            let exec = SimExecutor::new(DeviceSpec::a100_80gb(), std::mem::size_of::<f64>());
            let mut copy = None;
            let source = ModelSource::new(&model, &mut copy, &exec).unwrap();
            assert_eq!(source.panel_kind(), panels, "{kind}");
            // One pass holds the source's rows, bit for bit, in panels of
            // its kind that cover every row once.
            let streamed = crate::kernel_source::tests::panel_pass(&source, &exec, None);
            for i in 0..points.rows() {
                let row = source.row(i, &exec).unwrap();
                for (j, v) in row.into_iter().enumerate() {
                    assert_eq!(streamed[(i, j)].to_bits(), v.to_bits(), "{kind} ({i},{j})");
                    if kind == "streamed" {
                        assert_eq!(v.to_bits(), matrix[(i, j)].to_bits(), "{kind} ({i},{j})");
                    }
                }
            }
            // Column requests reach the Nyström panels only.
            let columns = [1, 4];
            let compact = crate::kernel_source::tests::panel_pass(&source, &exec, Some(&columns));
            for i in 0..points.rows() {
                for j in columns {
                    assert_eq!(compact[(i, j)].to_bits(), streamed[(i, j)].to_bits());
                }
            }
            let tiles = source.for_each_tile(&exec, &mut |_, _| Ok(()));
            assert_eq!(tiles.is_ok(), panels == PanelKind::Rows, "{kind}");
        }
    }

    #[test]
    fn a_streamed_dense_baseline_model_of_csr_points_replays_the_k_its_fit_streamed() {
        // The fit streams its panels from the dense copy of the CSR points.
        // The linear kernel keeps the `−0` Gram sums of `awkward_blobs`,
        // where the CSR walk and the dense product differ.
        let points = awkward_blobs::<f32>(24, 5);
        let csr = CsrMatrix::from_dense(&points);
        let config = KernelKmeansConfig::paper_defaults(3)
            .with_seed(2)
            .with_max_iter(6)
            .with_kernel(KernelFunction::Linear)
            .with_tiling(TilePolicy::Rows(7));
        let (_, model) = KernelSolver::<BaselineLike<true>>::new(config)
            .fit_model(FitInput::Sparse(&csr))
            .unwrap();
        assert_eq!(model.resident_kind(), "streamed");
        let exec = SimExecutor::new(DeviceSpec::a100_80gb(), 4);
        let dense = FitInput::Sparse(&csr).to_dense().unwrap();
        let fit = TiledKernel::new(FitInput::Dense(&dense), KernelFunction::Linear, 7, &exec);
        let want = crate::kernel_source::tests::panel_pass(&fit.unwrap(), &exec, None);
        let mut copy = None;
        let source = ModelSource::new(&model, &mut copy, &exec).unwrap();
        let got = crate::kernel_source::tests::panel_pass(&source, &exec, None);
        for i in 0..24 {
            for j in 0..24 {
                assert_eq!(got[(i, j)].to_bits(), want[(i, j)].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn headerless_v0_files_load_with_a_deprecation_marker() {
        // A full model saved by the build before v2: its `K` block is read
        // past, and `K` is rebuilt.
        let text = include_str!("../../../tests/fixtures/v1-dense-full.model");
        let (loaded, format) = FittedModel::<f32>::load_versioned(text).unwrap();
        assert_eq!(format, ModelFormat::V1);
        assert!(format.is_deprecated());
        let (v2, format) = FittedModel::<f32>::load_versioned(&loaded.save()).unwrap();
        assert_eq!(format, ModelFormat::V2);
        assert!(!format.is_deprecated());
        assert_eq!(v2, loaded);
        // Strip the header: the body is byte-identical to the pre-versioning
        // layout, so it must load as v0 and flag itself deprecated.
        let headerless = text
            .strip_prefix("popcorn-model v1")
            .unwrap()
            .trim_start_matches('\n');
        let (v0, format) = FittedModel::<f32>::load_versioned(headerless).unwrap();
        assert_eq!(v0, loaded);
        assert_eq!(format, ModelFormat::V0Headerless);
        assert!(format.is_deprecated());
        assert_eq!(format.describe(), "v0 (headerless)");
        assert_eq!(FittedModel::<f32>::load(headerless).unwrap(), loaded);
        // A file that ends inside the block it reads past is still an error.
        let cut = headerless.lines().count() - 12;
        let truncated: Vec<&str> = headerless.lines().take(cut).collect();
        assert!(FittedModel::<f32>::load(&truncated.join("\n")).is_err());
    }

    #[test]
    fn future_format_versions_are_rejected_with_a_clear_error() {
        let points = toy_points();
        let solver = KernelKmeans::new(toy_config());
        let (_, model) = solver.fit_model(FitInput::Dense(&points)).unwrap();
        let future = model.save().replace(FORMAT_HEADER, "popcorn-model v3");
        let err = FittedModel::<f64>::load_versioned(&future).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unsupported model format 'popcorn-model v3'"),
            "error must name the offending version: {msg}"
        );
        assert!(
            msg.contains("popcorn-model v2"),
            "error must name the supported version: {msg}"
        );
    }

    #[test]
    fn cold_refit_is_bit_identical_to_the_fit() {
        let points = toy_points();
        let solver = KernelKmeans::new(toy_config());
        let (result, model) = solver.fit_model(FitInput::Dense(&points)).unwrap();
        let (re_result, re_model) = solver.refit(&model, &RefitRequest::cold()).unwrap();
        assert_eq!(re_result.labels, result.labels);
        assert_eq!(re_result.iterations, result.iterations);
        assert_eq!(re_model.labels(), model.labels());
    }

    #[test]
    fn warm_refit_with_new_points_extends_the_model() {
        let points = toy_points();
        let solver = KernelKmeans::new(toy_config());
        let (_, model) = solver.fit_model(FitInput::Dense(&points)).unwrap();
        let extra = DenseMatrix::from_rows(&[vec![0.07, 0.02], vec![4.07, 4.02]]).unwrap();
        let request = RefitRequest::warm().with_new_points(OwnedPoints::Dense(extra));
        let (result, new_model) = solver.refit(&model, &request).unwrap();
        assert_eq!(result.labels.len(), 8);
        assert_eq!(new_model.n(), 8);
        // The appended points land with their neighbours.
        assert_eq!(result.labels[6], result.labels[0]);
        assert_eq!(result.labels[7], result.labels[3]);
    }
}
