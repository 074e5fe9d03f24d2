//! # popcorn-core
//!
//! The paper's primary contribution: matrix-centric Kernel K-means
//! ("Popcorn", PPoPP '25), formulated so that the per-iteration work is an
//! SpMM, an SpMV and a handful of elementwise kernels.
//!
//! The pipeline (paper Algorithm 2):
//!
//! 1. `B = P̂ P̂ᵀ` with GEMM or SYRK, chosen dynamically from the ratio `n/d`
//!    ([`strategy::KernelMatrixStrategy`], paper §4.2);
//! 2. `K = kernel(B)` elementwise ([`kernel::KernelFunction`]);
//! 3. `P̃ = diag(K)` once;
//! 4. per iteration:
//!    * `E = −2 K Vᵀ` via SpMM,
//!    * `z_i = −0.5 · E[i, cluster(i)]`, `C̃ = V z` via SpMV (paper Eq. 14–15),
//!    * `D = E + P̃ + C̃`,
//!    * `cluster(i) = argmin_j D[i][j]`, rebuild `V`.
//!
//! [`popcorn::KernelKmeans`] drives the loop on top of the
//! `popcorn-dense`/`popcorn-sparse` substrates while charging every operation
//! to a `popcorn-gpusim` executor, producing both real results and modeled
//! A100 timings. It is the [`KernelSolver`] shell over the
//! [`popcorn::Popcorn`] family; the baselines crate supplies the CPU
//! reference and the dense GPU baseline as two more families of that shell.

pub mod arithmetic;
pub mod assignment;
pub mod batch;
pub mod config;
pub mod distances;
pub mod errors;
mod fold;
pub mod init;
pub mod kernel;
pub mod kernel_matrix;
pub mod kernel_source;
pub mod lloyd;
pub mod model;
pub mod nystrom;
pub mod pipeline;
pub mod popcorn;
pub mod result;
pub mod rowsum;
pub mod shard;
pub mod solver;
pub mod sparsified;
pub mod strategy;
#[cfg(test)]
mod test_support;

pub use batch::{BatchOptions, BatchReport, BatchResult, FitJob, HostParallelism, JobReport};
pub use config::KernelKmeansConfig;
pub use errors::CoreError;
pub use init::Initialization;
pub use kernel::KernelFunction;
pub use kernel_source::{
    FullKernel, KernelSource, Panel, PanelKind, PanelVisitor, TilePolicy, TileVisitor, TiledKernel,
};
pub use model::{
    AssignmentBatch, FittedModel, ModelFamily, ModelFormat, OwnedPoints, RefitRequest,
};
pub use nystrom::{KernelApprox, NystromFactors, NystromKernel};
pub use popcorn::KernelKmeans;
pub use result::{ClusteringResult, IterationStats, TimingBreakdown};
pub use shard::{DeviceShard, ShardPlan, ShardedKernelSource};
pub use solver::{FitInput, KernelFamily, KernelSolver, Solver};
pub use sparsified::{SparsifiedKernel, Sparsify};
pub use strategy::{GramRoutine, KernelMatrixStrategy};

/// Result alias used across the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;
