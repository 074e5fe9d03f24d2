//! # popcorn-baselines
//!
//! The comparison implementations the paper evaluates Popcorn against:
//!
//! * [`cpu::CpuKernelKmeans`] — a faithful single-threaded dense CPU kernel
//!   k-means, standing in for the PRMLT (MATLAB) implementation used in
//!   §5.4. Charged to a one-core EPYC 7763 cost model.
//! * [`gpu_dense::DenseGpuBaseline`] — the paper's in-house "CUDA baseline"
//!   (§5.3): GEMM-only kernel matrix plus three hand-written kernels (a
//!   shared-memory row reduction, a centroid-norm reduction and an
//!   embarrassingly parallel distance assembly). Numerically identical to
//!   Popcorn; charged with the hand-written kernels' less favourable memory
//!   behaviour.
//! * [`lloyd::LloydKmeans`] — classical (linear) k-means, used by the
//!   examples to demonstrate the clustering-quality gap on non-linearly
//!   separable data that motivates kernel k-means in the first place.
//!
//! The two kernel baselines are aliases of [`popcorn_core::KernelSolver`],
//! the one shell Popcorn also runs on: this crate supplies only their
//! [`popcorn_core::KernelFamily`] hooks ([`cpu::CpuReference`],
//! [`gpu_dense::DenseBaseline`]) — how the points reach the device and how
//! `K` is built. Their distance engines live in
//! [`popcorn_core::rowsum`], so fitted models replay them at serve time.
//!
//! All solvers accept the same [`popcorn_core::KernelKmeansConfig`] (Lloyd
//! ignores the kernel), implement the [`popcorn_core::Solver`] trait — so the
//! CLI driver and experiment harness hold them as `Box<dyn Solver<T>>` and
//! feed them dense or CSR points through [`popcorn_core::FitInput`] — and
//! return the same [`popcorn_core::ClusteringResult`].

pub mod cpu;
pub mod gpu_dense;
pub mod lloyd;

pub use cpu::CpuKernelKmeans;
pub use gpu_dense::DenseGpuBaseline;
pub use lloyd::LloydKmeans;

use popcorn_core::{KernelKmeans, KernelKmeansConfig, ModelFamily, Solver};
use popcorn_dense::Scalar;
use popcorn_gpusim::{DeviceSpec, Executor};
use std::sync::Arc;

/// Every implementation in the workspace, as data — the single registry the
/// CLI driver and the experiment harness construct solvers from, so adding
/// an implementation means adding exactly one arm here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Popcorn (sparse formulation).
    Popcorn,
    /// The dense GPU baseline.
    DenseBaseline,
    /// The single-threaded CPU reference.
    Cpu,
    /// Classical (linear) k-means via Lloyd's algorithm.
    Lloyd,
}

impl SolverKind {
    /// All implementations, in `-l 0..3` order.
    pub const ALL: [SolverKind; 4] = [
        SolverKind::DenseBaseline,
        SolverKind::Cpu,
        SolverKind::Popcorn,
        SolverKind::Lloyd,
    ];

    /// Construct the implementation behind the unified [`Solver`] trait.
    pub fn build<T: Scalar>(self, config: KernelKmeansConfig) -> Box<dyn Solver<T>> {
        match self {
            SolverKind::Popcorn => Box::new(KernelKmeans::new(config)),
            SolverKind::DenseBaseline => Box::new(DenseGpuBaseline::new(config)),
            SolverKind::Cpu => Box::new(CpuKernelKmeans::new(config)),
            SolverKind::Lloyd => Box::new(LloydKmeans::new(config)),
        }
    }

    /// Construct the implementation with an explicit simulator executor —
    /// e.g. a device whose memory capacity was overridden by the CLI's
    /// `--device-mem` flag, or a multi-device
    /// [`popcorn_gpusim::ShardedExecutor`] built from `--devices N`.
    pub fn build_with_executor<T: Scalar>(
        self,
        config: KernelKmeansConfig,
        executor: Arc<dyn Executor>,
    ) -> Box<dyn Solver<T>> {
        match self {
            SolverKind::Popcorn => {
                Box::new(KernelKmeans::new(config).with_shared_executor(executor))
            }
            SolverKind::DenseBaseline => {
                Box::new(DenseGpuBaseline::new(config).with_shared_executor(executor))
            }
            SolverKind::Cpu => {
                Box::new(CpuKernelKmeans::new(config).with_shared_executor(executor))
            }
            SolverKind::Lloyd => Box::new(LloydKmeans::new(config).with_shared_executor(executor)),
        }
    }

    /// The model family this implementation fits.
    pub fn family(self) -> ModelFamily {
        match self {
            SolverKind::Popcorn => ModelFamily::Popcorn,
            SolverKind::DenseBaseline => ModelFamily::DenseBaseline,
            SolverKind::Cpu => ModelFamily::CpuReference,
            SolverKind::Lloyd => ModelFamily::Lloyd,
        }
    }

    /// The device this implementation models by default
    /// ([`ModelFamily::default_device`]).
    pub fn default_device(self) -> DeviceSpec {
        self.family().default_device()
    }

    /// Display name (matches `Solver::name` of the built implementation).
    pub fn name(self) -> &'static str {
        self.family().name()
    }
}

/// The implementation that fits (and so refits) a family's models.
impl From<ModelFamily> for SolverKind {
    fn from(family: ModelFamily) -> Self {
        match family {
            ModelFamily::Popcorn => SolverKind::Popcorn,
            ModelFamily::CpuReference => SolverKind::Cpu,
            ModelFamily::DenseBaseline => SolverKind::DenseBaseline,
            ModelFamily::Lloyd => SolverKind::Lloyd,
        }
    }
}
