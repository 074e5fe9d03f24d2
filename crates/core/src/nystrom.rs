//! Nyström low-rank kernel approximation: [`NystromKernel`], the first
//! *approximate* [`KernelSource`] backend.
//!
//! Every exact path in this repo scales through the `n × n` kernel matrix —
//! tiling (PR 3) gets past device memory and sharding (PR 4) past one device,
//! but the memory *wall* itself stays quadratic: at n = 1M the f32 matrix is
//! 4 TB. The Nyström method breaks that wall with a rank-`m` factorization
//! over `m` landmark points:
//!
//! ```text
//! K  ≈  K̂  =  C · W⁺ · Cᵀ        C = K[:, L]  (n × m),   W = K[L, L]  (m × m)
//! ```
//!
//! where `L` is a set of `m` landmark rows chosen by the same D² (kernel
//! k-means++) sampling the seeding machinery already uses
//! ([`crate::init`]'s shared selection loop — one implementation, one RNG
//! draw sequence). The factors occupy `O(n·m)` memory and every reconstructed
//! row panel `K̂[r0..r1, :] = H[r0..r1, :] · Cᵀ` (with `H = C·W⁺` precomputed)
//! is a plain GEMM the cost model already prices — so the iteration pipeline,
//! the lockstep batch driver, the host-thread fan-out and the sharded
//! executor all run over this source **unchanged**.
//!
//! The core pseudo-inverse `W⁺` is computed in `f64`, std-only: a strict
//! Cholesky factorization (the fast path for the numerically well-behaved
//! case, with a relative pivot floor so rank deficiency is detected instead
//! of inverted through), falling back to a cyclic-Jacobi
//! eigen-decomposition with small-eigenvalue clipping when `W` is
//! (near-)singular — exactly the textbook regularized Nyström
//! pseudo-inverse. The factorization is charged
//! to the executor under the small-dense [`OpClass::Factorize`] class; the
//! `C·W⁺` product and every reconstructed panel are charged as GEMM.
//!
//! Determinism: the factors are built once on the driver thread, every panel
//! entry is the same sequential `mul_add` dot product at any tile height
//! ([`matmul_nt_rows`]'s bit-identity contract), and the streamed order is
//! global row order — so Nyström fits are bit-identical across tile sizes,
//! host-thread counts and device counts, just like the exact backends.

use crate::init::select_spread_rows;
use crate::kernel::KernelFunction;
use crate::kernel_source::{
    KernelSource, Panel, PanelKind, PanelVisitor, PhaseResidency, TilePolicy, TiledKernel,
};
use crate::model::ResidentKernel;
use crate::shard::{RowBudget, ShardPlan, ShardRows, ShardStream};
use crate::solver::FitInput;
use crate::{CoreError, Result};
use popcorn_dense::{matmul, matmul_nt_rows, DenseMatrix, Scalar};
use popcorn_gpusim::{DeviceSpec, Executor, ExecutorExt, OpClass, OpCost, Phase, SimExecutor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;

/// Which kernel-matrix representation a fit runs over: the exact `n × n`
/// matrix (resident, tiled or sharded — the planner decides) or a rank-`m`
/// Nyström factorization.
///
/// `Nystrom { landmarks: m, .. }` with `m >= n` degenerates to the exact
/// path: a rank-`n` factorization reproduces `K` only up to rounding, so the
/// dispatch falls through to the exact backends instead and the results are
/// bit-identical to an `Exact` fit by construction. `Sparsified` with a
/// keep-everything sparsifier (`knn >= n` or `τ = 0`) degenerates the same
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KernelApprox {
    /// The exact kernel matrix (the default).
    #[default]
    Exact,
    /// Rank-`m` Nyström factorization over `landmarks` D²-sampled rows.
    Nystrom {
        /// Number of landmark points `m` (clamped to `n`).
        landmarks: usize,
        /// Seed of the landmark D² sampling.
        seed: u64,
    },
    /// Adaptive-rank Nyström (`--landmarks auto:EPS`): double `m` from 16,
    /// reusing every already-sampled landmark, until the trace-based
    /// reconstruction bound drops to `epsilon` or the factorization reaches
    /// full rank ([`NystromKernel::new_adaptive`]).
    NystromAuto {
        /// Target mean absolute diagonal reconstruction error.
        epsilon: f64,
        /// Seed of the landmark D² sampling.
        seed: u64,
    },
    /// CSR-resident sparsified kernel matrix
    /// ([`crate::sparsified::SparsifiedKernel`]).
    Sparsified {
        /// The per-row sparsification rule (kNN or |K_ij| ≥ τ).
        sparsify: crate::sparsified::Sparsify,
    },
}

impl KernelApprox {
    /// Human-readable form for reports and error messages.
    pub fn describe(&self) -> String {
        match self {
            KernelApprox::Exact => "exact".to_string(),
            KernelApprox::Nystrom { landmarks, seed } => {
                format!("nystrom(m={landmarks}, seed={seed})")
            }
            KernelApprox::NystromAuto { epsilon, seed } => {
                format!("nystrom-auto(eps={epsilon}, seed={seed})")
            }
            KernelApprox::Sparsified { sparsify } => {
                format!("sparsified({})", sparsify.describe())
            }
        }
    }
}

/// The factors of a rank-`m` Nyström approximation — everything derived
/// from one fixed set of sampled landmark rows. A [`NystromKernel`] owns
/// them behind an `Arc` and shares them, through
/// [`KernelSource::resident`], with the fitted models frozen from it, so
/// serving keeps the `O(n·m)` factors and prices out-of-sample assignment
/// at `q × m`, not `q × n`.
#[derive(Debug, Clone, PartialEq)]
pub struct NystromFactors<T: Scalar> {
    /// Cross kernel `C = K[:, L]`, `n × m`.
    pub cross: DenseMatrix<T>,
    /// `H = C · W⁺`, `n × m`; a reconstructed panel is `H[r0..r1, :] · Cᵀ`.
    pub hat: DenseMatrix<T>,
    /// `(W⁺)ᵀ = W⁺` in `T` precision, `m × m` — the factor an out-of-sample
    /// query `x` needs to form its own hat row `h_x = k(x, L) · W⁺` with the
    /// same arithmetic the training rows used.
    pub core_pinv_t: DenseMatrix<T>,
    /// Reconstructed diagonal `K̂_ii`, bit-identical to the tile entries.
    pub diag: Vec<T>,
    /// The landmark row indices, in D²-selection order.
    pub landmarks: Vec<usize>,
}

impl<T: Scalar> NystromFactors<T> {
    /// A fit's factors over the landmark rows `landmarks` of `input` and
    /// its pseudo-inverted core, rebuilt bit for bit for a model's load:
    /// each exact row through [`TiledKernel::row`], as the fit sampled it,
    /// then [`build_factors`]'s products, charged to a scratch executor.
    /// `n` and `m` are a file's claims, so the rows' and factors' bytes are
    /// reserved first: [`CoreError::HostAllocationFailed`] if they cannot be.
    pub(crate) fn rebuild(
        input: FitInput<'_, T>,
        kernel: KernelFunction,
        landmarks: &[usize],
        core_pinv_t: DenseMatrix<T>,
    ) -> Result<Self> {
        let (n, m, elem) = (input.n(), landmarks.len(), std::mem::size_of::<T>());
        let bytes = 3 * n as u128 * m as u128 * elem as u128;
        let failed = || CoreError::HostAllocationFailed {
            what: "the Nyström landmark rows and factors",
            shape: (n, 3 * m),
            bytes,
        };
        let len = usize::try_from(bytes).map_err(|_| failed())?;
        Vec::<u8>::new()
            .try_reserve_exact(len)
            .map_err(|_| failed())?;
        let scratch = SimExecutor::new(DeviceSpec::a100_80gb(), elem);
        let exact = TiledKernel::build(input, kernel, 1, &scratch)?;
        let rows = landmarks
            .iter()
            .map(|&l| Ok((l, exact.row(l, &scratch)?)))
            .collect::<Result<Vec<_>>>()?;
        factors_over_core(&rows, core_pinv_t, n, &scratch)
    }

    /// `C[columns, :]`, the cross factor rows a column panel
    /// ([`NystromFactors::panel`]) multiplies by; `None` when the reader
    /// asks for every column.
    pub(crate) fn cross_rows(&self, columns: Option<&[usize]>) -> Option<DenseMatrix<T>> {
        let columns = columns.filter(|columns| columns.len() < self.cross.rows())?;
        Some(DenseMatrix::from_fn(
            columns.len(),
            self.cross.cols(),
            |p, j| self.cross[(columns[p], j)],
        ))
    }

    /// The reconstructed panel `K̂[rows, :] = H[rows, :]·Cᵀ`, or with
    /// `cross = Some(C[columns, :])` only its columns `columns`:
    /// `H[rows, :]·C[columns, :]ᵀ`. Each entry is the same sequential `fma`
    /// dot product under the same `0 + 1·acc` write, so a column panel's
    /// entries are the full panel's bit for bit. Either way the record `name`
    /// in `phase` charges the full `rows × n × m` GEMM.
    pub(crate) fn panel(
        &self,
        name: String,
        phase: Phase,
        rows: Range<usize>,
        cross: Option<&DenseMatrix<T>>,
        executor: &dyn Executor,
    ) -> Result<DenseMatrix<T>> {
        let (n, m) = self.cross.shape();
        let elem = std::mem::size_of::<T>();
        let cross = cross.unwrap_or(&self.cross);
        Ok(executor.run(
            name,
            phase,
            OpClass::Gemm,
            OpCost::gemm(rows.len(), n, m, elem),
            || matmul_nt_rows(&self.hat, rows.start, rows.end, cross),
        )?)
    }
}

/// A rank-`m` Nyström factorization of the kernel matrix, streamed through
/// the [`KernelSource`] protocol as reconstructed row panels.
///
/// Owns its factors (no borrow of the input points survives construction):
/// the cross-kernel `C = K[:, L]` and the precomputed `H = C · W⁺`, both
/// `n × m`, plus the reconstructed diagonal. A tile is
/// `K̂[r0..r1, :] = H[r0..r1, :] · Cᵀ`, computed with the bit-stable panel
/// GEMM and charged as one.
pub struct NystromKernel<T: Scalar> {
    factors: Arc<NystromFactors<T>>,
    /// Streaming tile height chosen by the residency planner.
    tile_rows: usize,
    /// Mean absolute diagonal reconstruction error `mean_i |K_ii − K̂_ii|` —
    /// the cheap trace-based quality bound surfaced through
    /// [`KernelSource::approx_error_bound`].
    error_bound: f64,
    /// `true` when the strict Cholesky fast path failed and the core
    /// pseudo-inverse came from the eigen-clip fallback.
    used_eigen_fallback: bool,
    /// The panel walk. The factors are replicated on every device and
    /// panels are recomputed each pass regardless, so a recovery moves only
    /// attribution and each device's panel buffer: nothing is re-uploaded
    /// and no cached tile is replayed.
    stream: ShardStream,
}

impl<T: Scalar> NystromKernel<T> {
    /// Build the factorization: D²-sample `landmarks` rows from the exact
    /// kernel (streamed — the full matrix is never materialized), form
    /// `C` and `W`, pseudo-invert `W` in `f64` (strict Cholesky, then
    /// eigen-clip), precompute `H = C·W⁺`, and plan the streaming tile
    /// height against the executor's device(s). Every stage is charged:
    /// the `C` build as per-row GEMM/SpGEMM panels, the pseudo-inverse under
    /// [`OpClass::Factorize`], the `H` product and later every reconstructed
    /// panel as GEMM.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        input: FitInput<'_, T>,
        kernel: KernelFunction,
        landmarks: usize,
        seed: u64,
        tiling: TilePolicy,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let n = input.n();
        if n == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        if landmarks == 0 || landmarks > n {
            return Err(CoreError::InvalidConfig(format!(
                "nystrom landmarks must be in 1..={n}, got {landmarks}"
            )));
        }
        let m = landmarks;
        let elem = std::mem::size_of::<T>();
        let stream = plan_panels::<T>(n, m, input.upload_bytes(), tiling, k_budget, executor)?;

        // --- landmark sampling over the exact kernel, streamed ---------------
        // A single-row exact source supplies diag(K) and the sampled rows; the
        // full matrix is never resident. The sampled rows are the *columns* of
        // C (K is symmetric), so this phase's row fetches are exactly the
        // (priced) work of building the cross factor.
        let exact = TiledKernel::build(input, kernel, 1, executor)?;
        let exact_diag = exact.diag(executor)?;
        let sampling = PhaseResidency::track(
            executor,
            m as u64 * n as u64 * elem as u64 + n as u64 * 8 + n as u64 * elem as u64,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let landmark_rows = select_spread_rows(&exact, m, &exact_diag, &mut rng, executor)?;

        let factors = build_factors(&landmark_rows, &exact_diag, n, executor)?;

        // The sampling working set (landmark rows, weights, exact diagonal)
        // is released before the persistent factors land — the planner's
        // budget covers factors + tile, not factors + tile + transients.
        drop(sampling);
        Ok(Self::assemble(factors, stream, executor))
    }

    /// Adaptive-rank construction (`--landmarks auto:EPS`): starting from
    /// `m = min(16, n)`, build the factorization and double `m` until the
    /// trace-based bound ([`NystromKernel::diag_error`]) drops to `epsilon`
    /// or the factorization reaches full rank. Already-sampled landmarks are
    /// **reused** across trials — the D² sampling resumes from the prior
    /// state ([`crate::init`]'s resumable selection loop), so the accepted
    /// rank-`m` factorization is bit-identical to a fixed
    /// `Nystrom { landmarks: m }` run with the same seed. Every trial's
    /// factor build is charged; only the accepted factors stay resident.
    #[allow(clippy::too_many_arguments)]
    pub fn new_adaptive(
        input: FitInput<'_, T>,
        kernel: KernelFunction,
        epsilon: f64,
        seed: u64,
        tiling: TilePolicy,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let n = input.n();
        if n == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "nystrom auto epsilon must be finite and positive, got {epsilon}"
            )));
        }
        let elem = std::mem::size_of::<T>();
        let input_bytes = input.upload_bytes();

        let exact = TiledKernel::build(input, kernel, 1, executor)?;
        let exact_diag = exact.diag(executor)?;
        // The sampling working set grows as the rank doubles; the guard is
        // kept current so an error on any trial frees exactly what was
        // tracked.
        let mut sampling = PhaseResidency::track(executor, n as u64 * 8 + n as u64 * elem as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut landmark_rows: Vec<(usize, Vec<T>)> = Vec::new();
        let mut best_dist: Vec<f64> = Vec::new();
        let mut m = 16.min(n);
        let factors = loop {
            sampling.grow((m - landmark_rows.len()) as u64 * n as u64 * elem as u64);
            crate::init::extend_spread_rows(
                &exact,
                m,
                &exact_diag,
                &mut rng,
                executor,
                &mut landmark_rows,
                &mut best_dist,
            )?;
            // The trial factors are transient until accepted: tracked for
            // the duration of the build, freed again when the rank doubles.
            let trial = PhaseResidency::track(executor, factor_bytes::<T>(n, m));
            let (factors, error_bound, used_eigen_fallback) =
                build_factors(&landmark_rows, &exact_diag, n, executor)?;
            if error_bound <= epsilon || m == n {
                drop(trial);
                break (factors, error_bound, used_eigen_fallback);
            }
            m = (m * 2).min(n);
            drop(trial);
        };
        drop(sampling);
        let stream = plan_panels::<T>(
            n,
            landmark_rows.len(),
            input_bytes,
            tiling,
            k_budget,
            executor,
        )?;
        Ok(Self::assemble(factors, stream, executor))
    }

    /// Keep the accepted factors resident — replicated on every device —
    /// next to each device's panel buffer.
    fn assemble(
        (factors, error_bound, used_eigen_fallback): (NystromFactors<T>, f64, bool),
        stream: ShardStream,
        executor: &dyn Executor,
    ) -> Self {
        executor.track_alloc(factor_bytes::<T>(
            factors.cross.rows(),
            factors.cross.cols(),
        ));
        let source = Self {
            factors: Arc::new(factors),
            tile_rows: stream.plan().max_tile_rows().max(1),
            error_bound,
            used_eigen_fallback,
            stream,
        };
        source.stream.track(&source, executor);
        source
    }

    /// Number of landmarks `m` (the factorization rank).
    pub fn rank(&self) -> usize {
        self.factors.cross.cols()
    }

    /// The landmark row indices, in D²-selection order.
    pub fn landmarks(&self) -> &[usize] {
        &self.factors.landmarks
    }

    /// `true` when the core pseudo-inverse needed the eigen-clip fallback.
    pub fn used_eigen_fallback(&self) -> bool {
        self.used_eigen_fallback
    }

    /// Mean absolute diagonal reconstruction error (the trace-based bound).
    pub fn diag_error(&self) -> f64 {
        self.error_bound
    }

    /// Modeled resident bytes of the factors (C, H, diagonal).
    pub fn factor_bytes(&self) -> u64 {
        factor_bytes::<T>(self.factors.cross.rows(), self.factors.cross.cols())
    }

    /// Compute (and charge) the reconstructed panel `K̂[rows, :]`, or its
    /// columns `C[columns, :]` holds ([`NystromFactors::panel`]).
    fn compute_tile(
        &self,
        rows: Range<usize>,
        cross: Option<&DenseMatrix<T>>,
        executor: &dyn Executor,
    ) -> Result<DenseMatrix<T>> {
        let (n, m) = self.factors.cross.shape();
        let name = format!(
            "nystrom panel rows {}..{} (n={n}, m={m})",
            rows.start, rows.end
        );
        self.factors
            .panel(name, Phase::KernelMatrix, rows, cross, executor)
    }
}

/// Modeled bytes of rank-`m` factors over `n` points: `C` and `H`, both
/// `n × m`, plus the reconstructed diagonal.
fn factor_bytes<T: Scalar>(n: usize, m: usize) -> u64 {
    let elem = std::mem::size_of::<T>() as u64;
    2 * n as u64 * m as u64 * elem + n as u64 * elem
}

/// Plan the panel stream of a rank-`m` factorization. The factors stay
/// resident for the whole fit, so they join the points in the planner's
/// workspace; the streamed panel is still `rows × n`, so the exact
/// planner's capacity math carries over unchanged.
fn plan_panels<T: Scalar>(
    n: usize,
    m: usize,
    input_bytes: u64,
    tiling: TilePolicy,
    k_budget: usize,
    executor: &dyn Executor,
) -> Result<ShardStream> {
    let elem = std::mem::size_of::<T>();
    let budget = RowBudget {
        n,
        k_budget,
        elem,
        input_bytes: input_bytes + factor_bytes::<T>(n, m),
        tiling,
    };
    let plan = ShardPlan::for_executor(n, k_budget, elem, budget.input_bytes, tiling, executor)?;
    Ok(ShardStream::new(plan, budget))
}

impl<T: Scalar> ShardRows for NystromKernel<T> {}

impl<T: Scalar> KernelSource<T> for NystromKernel<T> {
    fn n(&self) -> usize {
        self.factors.cross.rows()
    }

    fn diag(&self, _executor: &dyn Executor) -> Result<Vec<T>> {
        // Computed (and charged) once at construction.
        Ok(self.factors.diag.clone())
    }

    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>> {
        let _active = self.stream.on_row(executor, i);
        let panel = self.compute_tile(i..i + 1, None, executor)?;
        Ok(panel.row(0).to_vec())
    }

    /// The reconstruction promises no symmetry: dense rows.
    fn panel_kind(&self) -> PanelKind {
        PanelKind::Rows
    }

    /// Reconstructs only the requested columns: `C[columns, :]` is gathered
    /// once per pass, and each tile is `H[r0..r1, :]·C[columns, :]ᵀ`, compact
    /// because first-touching a zeroed full-width tile would cost about as
    /// much as computing it. Records, residency and the shard walk are a
    /// full pass's.
    fn for_each_panel(
        &self,
        executor: &dyn Executor,
        columns: Option<&[usize]>,
        f: &mut PanelVisitor<'_, T>,
    ) -> Result<()> {
        let cross = self.factors.cross_rows(columns);
        // Global row order with per-device attribution — the exact sharded
        // source's contract, over reconstructed panels.
        self.stream.walk(self, executor, &mut |_, rows| {
            let tile = self.compute_tile(rows.clone(), cross.as_ref(), executor)?;
            f(rows, Panel::Rows(&tile))
        })
    }

    fn approx_error_bound(&self) -> Option<f64> {
        Some(self.error_bound)
    }

    fn resident(&self) -> ResidentKernel<T> {
        ResidentKernel::Nystrom {
            factors: Arc::clone(&self.factors),
            tile_rows: self.tile_rows,
        }
    }
}

/// Build (and charge) the factors from `m` sampled landmark rows: the cross
/// factor `C`, the pseudo-inverted core, `H = C·W⁺` and the reconstructed
/// diagonal, with the trace-based quality bound and whether the
/// pseudo-inverse needed the eigen-clip fallback. Shared verbatim between
/// the fixed-rank and adaptive constructors so both charge identically and
/// an adaptive fit that accepts rank `m` is bit-identical to a fixed rank-`m`
/// run.
fn build_factors<T: Scalar>(
    landmark_rows: &[(usize, Vec<T>)],
    exact_diag: &[T],
    n: usize,
    executor: &dyn Executor,
) -> Result<(NystromFactors<T>, f64, bool)> {
    let m = landmark_rows.len();
    // W[a][b] = K[l_a, l_b], pseudo-inverted in f64.
    let core =
        DenseMatrix::<f64>::from_fn(m, m, |a, b| landmark_rows[a].1[landmark_rows[b].0].to_f64());
    let (core_pinv, used_eigen_fallback) = executor.run(
        format!("nystrom core pseudo-inverse (m={m})"),
        Phase::KernelMatrix,
        OpClass::Factorize,
        // ~m³/3 Cholesky + m³ triangular inverse + m³ symmetric product;
        // the eigen fallback costs more but stays O(m³) — charge the
        // common path, the class's low efficiency already models the
        // latency-bound character of small dense factorizations.
        OpCost::new(
            3 * m as u64 * m as u64 * m as u64,
            2 * m as u64 * m as u64 * 8,
            m as u64 * m as u64 * 8,
        ),
        // The core's entries come from `T`-precision kernel rows, so its
        // spectral noise floor is T's epsilon, not f64's.
        || pseudo_inverse_spd(&core, T::EPSILON.to_f64()),
    );
    let core_pinv_t = DenseMatrix::<T>::from_fn(m, m, |a, b| T::from_f64(core_pinv[(a, b)]));
    let factors = factors_over_core(landmark_rows, core_pinv_t, n, executor)?;
    // The trace-based quality bound: mean |K_ii − K̂_ii|. The exact
    // diagonal is already in hand from the sampling phase, so the bound
    // is free beyond the subtraction. `n == 0` is rejected up front,
    // but the bound must stay finite even for a defensively-empty
    // diagonal rather than propagate a 0/0 NaN into reports.
    let error_bound = if exact_diag.is_empty() {
        0.0
    } else {
        exact_diag
            .iter()
            .zip(factors.diag.iter())
            .map(|(&e, &a)| (e.to_f64() - a.to_f64()).abs())
            .sum::<f64>()
            / exact_diag.len() as f64
    };
    Ok((factors, error_bound, used_eigen_fallback))
}

/// The factors over the landmark rows and the pseudo-inverted core: `C`,
/// then `H = C·W⁺` and the reconstructed diagonal, each charged.
fn factors_over_core<T: Scalar>(
    landmark_rows: &[(usize, Vec<T>)],
    core_pinv_t: DenseMatrix<T>,
    n: usize,
    executor: &dyn Executor,
) -> Result<NystromFactors<T>> {
    let m = landmark_rows.len();
    let elem = std::mem::size_of::<T>();
    // C[i][j] = K[i, l_j] = landmark row j at position i (K symmetric).
    let cross = DenseMatrix::<T>::from_fn(n, m, |i, j| landmark_rows[j].1[i]);
    let hat = executor.run(
        format!("nystrom hat factor H = C W+ (n={n}, m={m})"),
        Phase::KernelMatrix,
        OpClass::Gemm,
        OpCost::gemm(n, m, m, elem),
        || matmul(&cross, &core_pinv_t),
    )?;
    // Reconstructed diagonal, computed with the *same* arithmetic a
    // panel entry uses (sequential mul_add fold, `0 + 1·acc` write) so
    // `diag()[i]` equals the tile entry `K̂[i, i]` bit for bit — engines
    // that collect the diagonal from tiles agree with ones that ask for
    // it up front.
    let diag: Vec<T> = executor.run(
        format!("nystrom reconstructed diag (n={n}, m={m})"),
        Phase::KernelMatrix,
        OpClass::Elementwise,
        OpCost::elementwise_elems(n as u64, 2 * m, 1, 2 * m, elem),
        || {
            (0..n)
                .map(|i| {
                    let mut acc = T::ZERO;
                    for (&h, &c) in hat.row(i).iter().zip(cross.row(i).iter()) {
                        acc = h.mul_add(c, acc);
                    }
                    T::ZERO + T::ONE * acc
                })
                .collect()
        },
    );
    Ok(NystromFactors {
        cross,
        hat,
        core_pinv_t,
        diag,
        landmarks: landmark_rows.iter().map(|&(i, _)| i).collect(),
    })
}

/// Pseudo-inverse of a symmetric positive semi-definite matrix, std-only and
/// in `f64`: strict Cholesky (fast path), falling back to a cyclic-Jacobi
/// eigen-decomposition with eigenvalues below `m·u·λ_max` clipped to zero
/// (the regularized Nyström pseudo-inverse). `unit_roundoff` is the machine
/// epsilon of the precision the entries of `w` were *computed* in — a core
/// assembled from f32 kernel rows carries f32-level noise even though it is
/// stored in f64, and eigenvalues below that noise floor are indistinguishable
/// from zero; inverting them amplifies garbage into the hat factor. The
/// Cholesky refuses pivots below `m·u·max_diag` for the same reason, so
/// near-singular cores take the clipped eigen path instead. Returns the
/// (exactly symmetric) pseudo-inverse and whether the fallback ran.
fn pseudo_inverse_spd(w: &DenseMatrix<f64>, unit_roundoff: f64) -> (DenseMatrix<f64>, bool) {
    let m = w.rows();
    let u = unit_roundoff.max(f64::EPSILON);
    let max_diag = (0..m).map(|i| w[(i, i)]).fold(0.0f64, f64::max);
    let pivot_floor = max_diag * m as f64 * u;
    if let Some(lower) = cholesky(w, pivot_floor) {
        return (symmetric_inverse_from_cholesky(&lower), false);
    }
    let (eigenvalues, vectors) = jacobi_eigen(w);
    let lambda_max = eigenvalues.iter().cloned().fold(0.0f64, f64::max);
    let clip = lambda_max * m as f64 * u;
    // W⁺ = Σ_{λ_e > clip} (1/λ_e) v_e v_eᵀ — symmetric by construction
    // (entry (i,j) and (j,i) fold the same products in the same order).
    let pinv = DenseMatrix::<f64>::from_fn(m, m, |i, j| {
        let mut acc = 0.0f64;
        for (e, &lambda) in eigenvalues.iter().enumerate() {
            if lambda > clip && clip.is_finite() {
                acc += vectors[(i, e)] * vectors[(j, e)] / lambda;
            }
        }
        acc
    });
    (pinv, true)
}

/// Lower-triangular Cholesky factor of `w`, or `None` when a pivot falls
/// below `pivot_floor` (the matrix is not comfortably positive definite and
/// the caller should regularize instead).
fn cholesky(w: &DenseMatrix<f64>, pivot_floor: f64) -> Option<DenseMatrix<f64>> {
    let m = w.rows();
    let mut lower = DenseMatrix::<f64>::zeros(m, m);
    for i in 0..m {
        for j in 0..=i {
            let mut sum = w[(i, j)];
            for p in 0..j {
                sum -= lower[(i, p)] * lower[(j, p)];
            }
            if i == j {
                if sum <= pivot_floor || !sum.is_finite() {
                    return None;
                }
                lower[(i, j)] = sum.sqrt();
            } else {
                lower[(i, j)] = sum / lower[(j, j)];
            }
        }
    }
    Some(lower)
}

/// `(L·Lᵀ)⁻¹` from the Cholesky factor: invert `L` by forward substitution,
/// then form `Bᵀ·B` with `B = L⁻¹` — exactly symmetric because entries
/// `(i,j)` and `(j,i)` fold the same products in the same order.
fn symmetric_inverse_from_cholesky(lower: &DenseMatrix<f64>) -> DenseMatrix<f64> {
    let m = lower.rows();
    // B = L⁻¹ (lower triangular): B[i][j] for j <= i.
    let mut inv = DenseMatrix::<f64>::zeros(m, m);
    for j in 0..m {
        inv[(j, j)] = 1.0 / lower[(j, j)];
        for i in (j + 1)..m {
            let mut sum = 0.0f64;
            for p in j..i {
                sum -= lower[(i, p)] * inv[(p, j)];
            }
            inv[(i, j)] = sum / lower[(i, i)];
        }
    }
    DenseMatrix::<f64>::from_fn(m, m, |i, j| {
        let mut acc = 0.0f64;
        for p in i.max(j)..m {
            acc += inv[(p, i)] * inv[(p, j)];
        }
        acc
    })
}

/// Cyclic-Jacobi eigen-decomposition of a symmetric matrix: returns the
/// eigenvalues and a matrix whose *columns* are the eigenvectors. Plain
/// textbook sweeps — `m` is the (small) landmark count, so O(m³) per sweep
/// is fine and the rotation count is bounded by the sweep cap.
fn jacobi_eigen(w: &DenseMatrix<f64>) -> (Vec<f64>, DenseMatrix<f64>) {
    let m = w.rows();
    let mut a = w.clone();
    let mut v = DenseMatrix::<f64>::from_fn(m, m, |i, j| if i == j { 1.0 } else { 0.0 });
    for _sweep in 0..64 {
        let mut off = 0.0f64;
        for i in 0..m {
            for j in (i + 1)..m {
                off += a[(i, j)] * a[(i, j)];
            }
        }
        if off.sqrt() <= 1e-14 * (1.0 + a_norm(&a)) {
            break;
        }
        for p in 0..m {
            for q in (p + 1)..m {
                let apq = a[(p, q)];
                if apq == 0.0 {
                    continue;
                }
                let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for i in 0..m {
                    let aip = a[(i, p)];
                    let aiq = a[(i, q)];
                    a[(i, p)] = c * aip - s * aiq;
                    a[(i, q)] = s * aip + c * aiq;
                }
                for j in 0..m {
                    let apj = a[(p, j)];
                    let aqj = a[(q, j)];
                    a[(p, j)] = c * apj - s * aqj;
                    a[(q, j)] = s * apj + c * aqj;
                }
                for i in 0..m {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = c * vip - s * viq;
                    v[(i, q)] = s * vip + c * viq;
                }
            }
        }
    }
    let eigenvalues = (0..m).map(|i| a[(i, i)]).collect();
    (eigenvalues, v)
}

fn a_norm(a: &DenseMatrix<f64>) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            acc += a[(i, j)] * a[(i, j)];
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::kernel_matrix_reference;
    use popcorn_gpusim::SimExecutor;

    fn sample_points(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| {
            let offset = if i % 2 == 0 { 0.0 } else { 6.0 };
            offset + ((i * d + j) as f64 * 0.37).sin() * 1.5
        })
    }

    fn build(
        points: &DenseMatrix<f64>,
        kernel: KernelFunction,
        m: usize,
    ) -> (NystromKernel<f64>, SimExecutor) {
        let exec = SimExecutor::a100_f32();
        let source = NystromKernel::new(
            FitInput::Dense(points),
            kernel,
            m,
            7,
            TilePolicy::Auto,
            4,
            &exec,
        )
        .unwrap();
        (source, exec)
    }

    #[test]
    fn approx_describe_and_default() {
        assert_eq!(KernelApprox::default(), KernelApprox::Exact);
        assert_eq!(KernelApprox::Exact.describe(), "exact");
        assert_eq!(
            KernelApprox::Nystrom {
                landmarks: 512,
                seed: 3
            }
            .describe(),
            "nystrom(m=512, seed=3)"
        );
        assert_eq!(
            KernelApprox::NystromAuto {
                epsilon: 0.5,
                seed: 3
            }
            .describe(),
            "nystrom-auto(eps=0.5, seed=3)"
        );
    }

    #[test]
    fn adaptive_rank_matches_fixed_rank_bitwise() {
        let points = sample_points(40, 6);
        let kernel = KernelFunction::paper_polynomial();
        let exec = SimExecutor::a100_f32();
        let adaptive = NystromKernel::new_adaptive(
            FitInput::Dense(&points),
            kernel,
            1e-3,
            7,
            TilePolicy::Auto,
            4,
            &exec,
        )
        .unwrap();
        let m = adaptive.rank();
        assert!(adaptive.diag_error() <= 1e-3 || m == 40);
        // The accepted factorization is bit-identical to a fixed rank-m run
        // with the same seed: the D² sampling resumed, never restarted.
        let (fixed, exec) = {
            let exec = SimExecutor::a100_f32();
            let source = NystromKernel::new(
                FitInput::Dense(&points),
                kernel,
                m,
                7,
                TilePolicy::Auto,
                4,
                &exec,
            )
            .unwrap();
            (source, exec)
        };
        assert_eq!(adaptive.landmarks(), fixed.landmarks());
        let a = KernelSource::diag(&adaptive, &exec).unwrap();
        let b = KernelSource::diag(&fixed, &exec).unwrap();
        for i in 0..40 {
            assert_eq!(a[i].to_bits(), b[i].to_bits());
        }
        fixed
            .for_each_tile(&exec, &mut |rows, tile| {
                let mirror = adaptive.compute_tile(rows.clone(), None, &exec).unwrap();
                for local in 0..rows.len() {
                    for j in 0..40 {
                        assert_eq!(tile[(local, j)].to_bits(), mirror[(local, j)].to_bits());
                    }
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn adaptive_rank_caps_at_full_rank_for_tiny_epsilon() {
        let points = sample_points(20, 3);
        let exec = SimExecutor::a100_f32();
        let source = NystromKernel::new_adaptive(
            FitInput::Dense(&points),
            KernelFunction::paper_polynomial(),
            1e-300,
            3,
            TilePolicy::Auto,
            2,
            &exec,
        )
        .unwrap();
        assert!(source.rank() <= 20);
        assert!(source.rank() >= 16, "doubling must have run past the start");
    }

    #[test]
    fn adaptive_rank_validates_epsilon() {
        let points = sample_points(10, 3);
        let exec = SimExecutor::a100_f32();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(NystromKernel::new_adaptive(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                bad,
                1,
                TilePolicy::Auto,
                2,
                &exec,
            )
            .is_err());
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_with_clear_errors() {
        let points = sample_points(10, 3);
        let exec = SimExecutor::a100_f32();
        let make = |input: FitInput<'_, f64>, m: usize| {
            NystromKernel::new(
                input,
                KernelFunction::Linear,
                m,
                7,
                TilePolicy::Auto,
                4,
                &exec,
            )
        };
        let expect_err = |result: Result<NystromKernel<f64>>| match result {
            Ok(_) => panic!("expected the degenerate config to be rejected"),
            Err(e) => e,
        };
        // Zero landmarks never reach the factorization arithmetic (the
        // pseudo-inverse of an empty core, a 0/0 error bound, ...).
        let err = expect_err(make(FitInput::Dense(&points), 0));
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
        // Neither does a rank above n.
        let err = expect_err(make(FitInput::Dense(&points), 11));
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
        // An empty dataset is an input error, not a panic.
        let empty = DenseMatrix::<f64>::zeros(0, 3);
        let err = expect_err(make(FitInput::Dense(&empty), 1));
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err:?}");
        // Config-level validation mirrors the API rejection, so a solver
        // never constructs the degenerate source in the first place.
        assert!(crate::KernelKmeansConfig::paper_defaults(2)
            .with_approx(KernelApprox::Nystrom {
                landmarks: 0,
                seed: 0
            })
            .validate(10)
            .is_err());
    }

    #[test]
    fn error_bound_is_finite_for_every_valid_rank() {
        // The mean-diagonal bound divides by the diagonal length; pin that
        // it stays finite at the extremes of the valid rank range.
        let points = sample_points(9, 3);
        for m in [1, 9] {
            let (source, _) = build(&points, KernelFunction::paper_polynomial(), m);
            let bound = source.approx_error_bound().unwrap();
            assert!(bound.is_finite(), "rank {m} bound {bound} not finite");
            assert!(bound >= 0.0);
        }
    }

    #[test]
    fn full_rank_reconstruction_matches_exact_kernel() {
        // m = n: C = P·K⁻¹·... degenerates to K·K⁺·K = K (up to rounding).
        let points = sample_points(18, 4);
        let kernel = KernelFunction::paper_polynomial();
        let exact = kernel_matrix_reference(&points, kernel);
        let (source, exec) = build(&points, kernel, 18);
        assert_eq!(source.rank(), 18);
        let mut out = DenseMatrix::<f64>::zeros(18, 18);
        source
            .for_each_tile(&exec, &mut |rows, tile| {
                for (local, i) in rows.clone().enumerate() {
                    out.row_mut(i).copy_from_slice(tile.row(local));
                }
                Ok(())
            })
            .unwrap();
        assert!(
            out.approx_eq(&exact, 1e-6, 1e-6 * a_norm(&exact)),
            "rank-n reconstruction must reproduce K"
        );
        assert!(source.approx_error_bound().unwrap() < 1e-6 * a_norm(&exact));
    }

    #[test]
    fn landmarks_are_distinct_and_in_range() {
        let points = sample_points(30, 3);
        let (source, _) = build(&points, KernelFunction::Linear, 12);
        let mut seen = [false; 30];
        for &l in source.landmarks() {
            assert!(l < 30);
            assert!(!seen[l], "landmark {l} chosen twice");
            seen[l] = true;
        }
        assert_eq!(source.landmarks().len(), 12);
    }

    #[test]
    fn diag_and_row_match_tile_entries_bitwise() {
        let points = sample_points(21, 5);
        let (source, exec) = build(&points, KernelFunction::paper_polynomial(), 9);
        let diag = KernelSource::diag(&source, &exec).unwrap();
        let mut visited = 0usize;
        source
            .for_each_tile(&exec, &mut |rows, tile| {
                for (local, i) in rows.clone().enumerate() {
                    assert_eq!(
                        diag[i].to_bits(),
                        tile[(local, i)].to_bits(),
                        "diag({i}) must equal the tile entry"
                    );
                    visited += 1;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(visited, 21);
        for i in [0usize, 7, 20] {
            let row = source.row(i, &exec).unwrap();
            assert_eq!(row.len(), 21);
            assert_eq!(row[i].to_bits(), diag[i].to_bits());
        }
    }

    #[test]
    fn tile_height_does_not_change_the_reconstruction() {
        let points = sample_points(17, 4);
        let exec = SimExecutor::a100_f32();
        let reference = NystromKernel::new(
            FitInput::Dense(&points),
            KernelFunction::Linear,
            6,
            7,
            TilePolicy::Auto,
            2,
            &exec,
        )
        .unwrap();
        let mut full = DenseMatrix::<f64>::zeros(17, 17);
        reference
            .for_each_tile(&exec, &mut |rows, tile| {
                for (local, i) in rows.clone().enumerate() {
                    full.row_mut(i).copy_from_slice(tile.row(local));
                }
                Ok(())
            })
            .unwrap();
        for tile_rows in [1usize, 3, 5, 16] {
            let tiled = NystromKernel::new(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                6,
                7,
                TilePolicy::Rows(tile_rows),
                2,
                &exec,
            )
            .unwrap();
            tiled
                .for_each_tile(&exec, &mut |rows, tile| {
                    for (local, i) in rows.clone().enumerate() {
                        for j in 0..17 {
                            assert_eq!(
                                tile[(local, j)].to_bits(),
                                full[(i, j)].to_bits(),
                                "tile_rows={tile_rows} ({i},{j})"
                            );
                        }
                    }
                    Ok(())
                })
                .unwrap();
        }
    }

    /// One pass of `source` over `columns` on `exec`: each tile with its
    /// rows, and the records the pass charged (host seconds left out).
    #[allow(clippy::type_complexity)]
    fn column_pass<T: Scalar>(
        source: &NystromKernel<T>,
        exec: &dyn Executor,
        columns: Option<&[usize]>,
    ) -> (
        Vec<(Range<usize>, DenseMatrix<T>)>,
        Vec<(String, Phase, OpClass, OpCost, u64)>,
    ) {
        let mark = exec.trace().len();
        let mut tiles = Vec::new();
        source
            .for_each_panel(exec, columns, &mut |rows, panel| {
                let Panel::Rows(tile) = panel else {
                    panic!("a Nyström source hands out dense rows")
                };
                tiles.push((rows, tile.clone()));
                Ok(())
            })
            .unwrap();
        let records = exec.trace().records()[mark..]
            .iter()
            .map(|r| {
                let seconds = r.modeled_seconds.to_bits();
                (r.name.clone(), r.phase, r.class, r.cost, seconds)
            })
            .collect();
        (tiles, records)
    }

    fn column_tiles_match_full_tiles<T: Scalar>() {
        use popcorn_gpusim::{DeviceSpec, LinkSpec, ShardedExecutor};
        let n = 23;
        let points = sample_points(n, 5).cast::<T>();
        let lists: [Vec<usize>; 5] = [
            vec![],
            vec![11],
            vec![0, n - 1],
            (0..n).step_by(2).collect(),
            (0..n).collect(),
        ];
        let single = SimExecutor::a100_f32();
        let sharded =
            ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        let executors: [(&dyn Executor, usize); 2] = [(&single, 1), (&sharded, 3)];
        for (exec, devices) in executors {
            // Ragged tiles: 7, 7, 7 and 2 rows on one device, shorter ones
            // at the shard boundaries on three.
            let source = NystromKernel::new(
                FitInput::Dense(&points),
                KernelFunction::paper_polynomial(),
                6,
                7,
                TilePolicy::Rows(7),
                4,
                exec,
            )
            .unwrap();
            let (full, full_records) = column_pass(&source, exec, None);
            for columns in &lists {
                let at = format!("{devices} device(s), columns {columns:?}");
                let (tiles, records) = column_pass(&source, exec, Some(columns));
                assert_eq!(records, full_records, "{at}");
                assert_eq!(tiles.len(), full.len(), "{at}");
                for ((rows, tile), (full_rows, full_tile)) in tiles.iter().zip(&full) {
                    assert_eq!(rows, full_rows, "{at}");
                    assert_eq!(tile.shape(), (rows.len(), columns.len()), "{at}");
                    for local in 0..rows.len() {
                        for (p, &j) in columns.iter().enumerate() {
                            let (got, want) = (tile[(local, p)], full_tile[(local, j)]);
                            let (got, want) = (got.to_f64().to_bits(), want.to_f64().to_bits());
                            assert_eq!(got, want, "{at} ({local}, {j})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_tiles_are_the_full_tiles_columns_under_the_same_records() {
        column_tiles_match_full_tiles::<f32>();
        column_tiles_match_full_tiles::<f64>();
        let name = "column_tiles_are_the_full_tiles_columns_under_the_same_records";
        crate::test_support::rerun_at_kernel_threads(module_path!(), name);
    }

    #[test]
    fn validates_landmark_count() {
        let points = sample_points(10, 2);
        let exec = SimExecutor::a100_f32();
        for bad in [0usize, 11] {
            assert!(NystromKernel::new(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                bad,
                1,
                TilePolicy::Auto,
                2,
                &exec,
            )
            .is_err());
        }
    }

    #[test]
    fn pinv_recovers_inverse_of_spd_matrix() {
        // A = Bᵀ·B + I is comfortably SPD: the Cholesky path must run.
        let m = 8;
        let b = DenseMatrix::<f64>::from_fn(m, m, |i, j| ((i * m + j) as f64 * 0.61).sin());
        let mut a = DenseMatrix::<f64>::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                let mut acc = if i == j { 1.0 } else { 0.0 };
                for p in 0..m {
                    acc += b[(p, i)] * b[(p, j)];
                }
                a[(i, j)] = acc;
            }
        }
        let (pinv, fallback) = pseudo_inverse_spd(&a, f64::EPSILON);
        assert!(!fallback, "an SPD matrix must take the Cholesky path");
        // A·A⁺ = I.
        for i in 0..m {
            for j in 0..m {
                let mut acc = 0.0f64;
                for p in 0..m {
                    acc += a[(i, p)] * pinv[(p, j)];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((acc - expect).abs() < 1e-8, "({i},{j}): {acc}");
            }
        }
        // And the result is exactly symmetric.
        for i in 0..m {
            for j in 0..m {
                assert_eq!(pinv[(i, j)].to_bits(), pinv[(j, i)].to_bits());
            }
        }
    }

    #[test]
    fn pinv_of_singular_matrix_satisfies_penrose_identity() {
        // Rank-2 PSD matrix of size 5: the jitter ladder cannot rescue a
        // genuinely singular core at machine precision scale, but the
        // pseudo-inverse must still satisfy W·W⁺·W = W.
        let m = 5;
        let u = DenseMatrix::<f64>::from_fn(m, 2, |i, j| ((i + 3 * j) as f64 * 0.83).cos());
        let w = DenseMatrix::<f64>::from_fn(m, m, |i, j| {
            (0..2).map(|e| u[(i, e)] * u[(j, e)]).sum::<f64>()
        });
        let (pinv, _) = pseudo_inverse_spd(&w, f64::EPSILON);
        let mut wpw = DenseMatrix::<f64>::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                let mut acc = 0.0f64;
                for p in 0..m {
                    for q in 0..m {
                        acc += w[(i, p)] * pinv[(p, q)] * w[(q, j)];
                    }
                }
                wpw[(i, j)] = acc;
            }
        }
        assert!(
            wpw.approx_eq(&w, 1e-6, 1e-8),
            "W·W⁺·W must reproduce W for a singular PSD core"
        );
    }

    #[test]
    fn jacobi_eigen_diagonalizes() {
        let m = 6;
        let w = DenseMatrix::<f64>::from_fn(m, m, |i, j| {
            let x = ((i * m + j) as f64 * 0.47).sin();
            let y = ((j * m + i) as f64 * 0.47).sin();
            x + y + if i == j { 3.0 } else { 0.0 }
        });
        let (eigenvalues, v) = jacobi_eigen(&w);
        // W·v_e = λ_e·v_e for every eigen-pair.
        for e in 0..m {
            for i in 0..m {
                let mut wv = 0.0f64;
                for j in 0..m {
                    wv += w[(i, j)] * v[(j, e)];
                }
                assert!(
                    (wv - eigenvalues[e] * v[(i, e)]).abs() < 1e-9,
                    "eigenpair {e} row {i}"
                );
            }
        }
    }

    #[test]
    fn error_bound_shrinks_with_rank() {
        let points = sample_points(40, 6);
        let kernel = KernelFunction::paper_polynomial();
        let (low, _) = build(&points, kernel, 2);
        let (high, _) = build(&points, kernel, 40);
        let low_bound = low.approx_error_bound().unwrap();
        let high_bound = high.approx_error_bound().unwrap();
        assert!(low_bound >= 0.0 && high_bound >= 0.0);
        assert!(
            high_bound <= low_bound + 1e-12,
            "rank 40 bound {high_bound} must not exceed rank 2 bound {low_bound}"
        );
    }

    #[test]
    fn residency_stays_under_a_cap_the_exact_matrix_exceeds() {
        use popcorn_gpusim::{DeviceSpec, ResidencyScope};
        // 900 f64 points: exact K is 6.5 MB; cap the device at 2 MB.
        let n = 900;
        let cap: u64 = 2 << 20;
        let points = sample_points(n, 4);
        let exec = SimExecutor::new(DeviceSpec::a100_80gb().with_mem_bytes(cap), 8);
        assert!(
            crate::kernel_source::full_kernel_matrix_bytes(n, 8) > cap as u128,
            "the wall must be real"
        );
        let peak = {
            let _scope = ResidencyScope::new(&exec);
            let source = NystromKernel::new(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                32,
                3,
                TilePolicy::Auto,
                4,
                &exec,
            )
            .unwrap();
            source
                .for_each_tile(&exec, &mut |_rows, _tile| Ok(()))
                .unwrap();
            exec.peak_resident_bytes()
        };
        assert!(peak > 0);
        assert!(peak <= cap, "peak {peak} must stay under the {cap} cap");
    }
}
