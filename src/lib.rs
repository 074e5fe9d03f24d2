//! # popcorn
//!
//! Umbrella crate for the Popcorn reproduction (PPoPP '25, "Popcorn:
//! Accelerating Kernel K-means on GPUs through Sparse Linear Algebra").
//! It re-exports the workspace crates under stable module names so examples,
//! integration tests and downstream users need a single dependency:
//!
//! ```
//! use popcorn::prelude::*;
//!
//! let data = popcorn::data::synthetic::concentric_rings::<f32>(200, 2, 4.0, 0.1, 7);
//! let config = KernelKmeansConfig::paper_defaults(2)
//!     .with_kernel(KernelFunction::default_gaussian())
//!     .with_convergence_check(true, 1e-6);
//! let result = KernelKmeans::new(config).fit(data.points()).unwrap();
//! assert_eq!(result.labels.len(), 200);
//! ```

/// Dense linear algebra substrate (GEMM, SYRK, the distance assembly).
pub use popcorn_dense as dense;

/// Sparse linear algebra substrate (CSR, SpMM, SpMV, SpGEMM, `V`).
pub use popcorn_sparse as sparse;

/// Analytical GPU execution simulator (device specs, cost model, roofline).
pub use popcorn_gpusim as gpusim;

/// Dataset generation and IO.
pub use popcorn_data as data;

/// Clustering quality metrics and run statistics.
pub use popcorn_metrics as metrics;

/// The Popcorn kernel k-means algorithm.
pub use popcorn_core as core;

/// Baseline implementations (CPU kernel k-means, dense GPU baseline, Lloyd).
pub use popcorn_baselines as baselines;

/// Model serving runtime (bounded request queue, assignment, refits).
pub use popcorn_serve as serve;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use popcorn_baselines::{CpuKernelKmeans, DenseGpuBaseline, LloydKmeans};
    pub use popcorn_core::{AssignmentBatch, FittedModel, ModelFamily, OwnedPoints, RefitRequest};
    pub use popcorn_core::{
        BatchOptions, BatchReport, BatchResult, ClusteringResult, FitInput, FitJob, FullKernel,
        HostParallelism, Initialization, JobReport, KernelApprox, KernelFunction, KernelKmeans,
        KernelKmeansConfig, KernelMatrixStrategy, KernelSource, NystromKernel, ShardPlan,
        ShardedKernelSource, Solver, SparsifiedKernel, Sparsify, TilePolicy, TiledKernel,
        TimingBreakdown,
    };
    pub use popcorn_data::{Dataset, PaperDataset, SparseDataset};
    pub use popcorn_dense::{DenseMatrix, Scalar};
    pub use popcorn_gpusim::{
        DeviceSpec, DeviceTopology, Executor, ExecutorExt, FaultPlan, LinkSpec, RecoveryReport,
        ShardedExecutor, SimExecutor,
    };
    pub use popcorn_metrics::{
        adjusted_rand_index, normalized_mutual_information, silhouette_score,
    };
    pub use popcorn_sparse::{CsrMatrix, SelectionMatrix};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let config = KernelKmeansConfig::paper_defaults(2).with_max_iter(2);
        let points = DenseMatrix::<f32>::from_fn(10, 2, |i, j| (i * 2 + j) as f32);
        let result = KernelKmeans::new(config).fit(&points).unwrap();
        assert_eq!(result.labels.len(), 10);
    }
}
