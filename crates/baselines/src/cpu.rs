//! Single-threaded CPU kernel k-means (the PRMLT stand-in, paper §5.4).
//!
//! The PRMLT MATLAB implementation computes the kernel matrix densely and
//! evaluates the kernel-trick distances with dense matrix arithmetic on a
//! single core. This module reproduces that behaviour: straightforward
//! sequential loops (no SpMM/SpMV, no multi-threaded arithmetic), charged to
//! the single-core EPYC 7763 cost model. Numerically it solves exactly the same
//! problem as Popcorn, so the two can be cross-validated label-for-label.
//!
//! Sparse (CSR) inputs are supported through the shared SpGEMM Gram path:
//! the kernel matrix is formed directly from the sparse rows — the points
//! are never densified — and the clustering loop proceeds identically.
//!
//! The solver is the [`KernelSolver`] shell over the [`CpuReference`]
//! family, which uploads nothing (the points are host-resident) and builds
//! `K` with the sequential loops below. Its distance engine,
//! [`popcorn_core::rowsum::CpuEngine`], lives in the core crate, so a fitted
//! CPU-reference model replays it at serve time.

use popcorn_core::kernel::KernelFunction;
use popcorn_core::kernel_matrix::spgemm_gram_cost;
use popcorn_core::solver::{FitInput, KernelFamily, KernelSolver};
use popcorn_core::{KernelKmeansConfig, ModelFamily, Result};
use popcorn_dense::{DenseMatrix, PackedSymmetric, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};

/// The PRMLT stand-in family: host-resident points, sequential `K`, the
/// single-core EPYC device model.
#[derive(Debug, Clone, Copy)]
pub struct CpuReference;

impl KernelFamily for CpuReference {
    const FAMILY: ModelFamily = ModelFamily::CpuReference;

    /// The points are host-resident: nothing crosses a bus.
    fn prepare<T: Scalar>(
        _input: FitInput<'_, T>,
        _executor: &dyn Executor,
    ) -> Result<Option<DenseMatrix<T>>> {
        Ok(None)
    }

    /// The PRMLT-style kernel matrix, charged at CPU efficiencies: dense
    /// sequential K = kernel(P Pᵀ) (always the full GEMM-equivalent work —
    /// PRMLT does not use SYRK), or a *sequential* Gustavson-style Gram
    /// product for CSR points (this solver models a single core — the shared
    /// `CsrMatrix::gram` is multi-threaded), charged with the same SpGEMM
    /// cost definition the shared sparse path uses. The host computes and
    /// keeps the lower triangle, packed.
    fn kernel_matrix<T: Scalar>(
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
    ) -> Result<PackedSymmetric<T>> {
        let kernel = config.kernel;
        let elem = std::mem::size_of::<T>();
        // The full n x n matrix becomes resident under the host-memory model.
        executor.track_alloc(input.n() as u64 * input.n() as u64 * elem as u64);
        Ok(match input {
            FitInput::Dense(points) => {
                let (n, d) = (points.rows(), points.cols());
                executor.run(
                    format!("cpu dense kernel matrix (n={n}, d={d})"),
                    Phase::KernelMatrix,
                    OpClass::Gemm,
                    OpCost::gemm(n, n, d, elem),
                    || compute_kernel_matrix_sequential(points, kernel),
                )
            }
            FitInput::Sparse(points) => {
                let (n, d, nnz) = (points.rows(), points.cols(), points.nnz());
                executor.run(
                    format!("cpu spgemm kernel matrix (n={n}, d={d}, nnz={nnz})"),
                    Phase::KernelMatrix,
                    OpClass::SpGEMM,
                    spgemm_gram_cost(points),
                    || compute_kernel_matrix_sequential_csr(points, kernel),
                )
            }
        })
    }
}

/// Single-threaded dense CPU kernel k-means.
pub type CpuKernelKmeans = KernelSolver<CpuReference>;

/// Sequential sparse kernel-matrix computation: the packed rows of
/// `CsrMatrix::gram_sequential_packed` (one thread, one scatter buffer)
/// plus the kernel application, honouring this solver's single-core
/// contract.
fn compute_kernel_matrix_sequential_csr<T: Scalar>(
    points: &popcorn_sparse::CsrMatrix<T>,
    kernel: KernelFunction,
) -> PackedSymmetric<T> {
    let mut gram = points.gram_sequential_packed();
    kernel.apply_to_packed(&mut gram);
    gram
}

/// Sequential dense kernel-matrix computation (no blocking, no threads):
/// entry `(i, j ≤ i)` is the plain dot product of rows `i` and `j`.
fn compute_kernel_matrix_sequential<T: Scalar>(
    points: &DenseMatrix<T>,
    kernel: KernelFunction,
) -> PackedSymmetric<T> {
    let mut gram = PackedSymmetric::from_fn(points.rows(), |i, j| {
        let mut acc = T::ZERO;
        for (&a, &b) in points.row(i).iter().zip(points.row(j)) {
            acc = a.mul_add(b, acc);
        }
        acc
    });
    kernel.apply_to_packed(&mut gram);
    gram
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_core::kernel_source::{FullKernel, KernelSource};
    use popcorn_core::pipeline::DistanceEngine;
    use popcorn_core::rowsum::CpuEngine;
    use popcorn_core::{KernelKmeans, Solver};
    use popcorn_gpusim::{DeviceSpec, SimExecutor};
    use popcorn_sparse::CsrMatrix;

    fn blob_points() -> DenseMatrix<f64> {
        DenseMatrix::from_fn(20, 2, |i, j| {
            let offset = if i < 10 { 0.0 } else { 15.0 };
            offset + ((i * 2 + j) as f64 * 0.41).sin() * 0.4
        })
    }

    fn config(k: usize) -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(15)
            .with_convergence_check(true, 1e-10)
            .with_seed(5)
    }

    #[test]
    fn recovers_two_blobs() {
        let result = CpuKernelKmeans::new(config(2)).fit(&blob_points()).unwrap();
        assert!(result.converged);
        let first = result.labels[0];
        let second = result.labels[10];
        assert_ne!(first, second);
        assert!(result.labels[..10].iter().all(|&l| l == first));
        assert!(result.labels[10..].iter().all(|&l| l == second));
    }

    #[test]
    fn matches_popcorn_exactly_with_same_seed() {
        // Same init, same kernel, same data => identical label sequences.
        let points = blob_points();
        for k in [2, 3, 4] {
            let cpu = CpuKernelKmeans::new(config(k)).fit(&points).unwrap();
            let popcorn = KernelKmeans::new(config(k)).fit(&points).unwrap();
            assert_eq!(cpu.labels, popcorn.labels, "k = {k}");
            assert_eq!(cpu.iterations, popcorn.iterations, "k = {k}");
            assert!((cpu.objective - popcorn.objective).abs() < 1e-6, "k = {k}");
        }
    }

    #[test]
    fn sparse_fit_matches_dense_fit() {
        let points = blob_points();
        let csr = CsrMatrix::from_dense(&points);
        for k in [2, 3] {
            let dense = CpuKernelKmeans::new(config(k)).fit(&points).unwrap();
            let sparse = CpuKernelKmeans::new(config(k)).fit_sparse(&csr).unwrap();
            assert_eq!(dense.labels, sparse.labels, "k = {k}");
            assert!((dense.objective - sparse.objective).abs() < 1e-9);
            // The sparse gram is charged as SpGEMM on the CPU model.
            assert!(sparse.trace.class_summary(OpClass::SpGEMM).0 > 0.0);
        }
    }

    #[test]
    fn objective_monotone() {
        let result = CpuKernelKmeans::new(config(3).with_convergence_check(false, 0.0))
            .fit(&blob_points())
            .unwrap();
        let history = result.objective_history();
        for w in history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn modeled_time_far_slower_than_popcorn_gpu() {
        // The modeled single-core CPU should be at least an order of
        // magnitude slower than the modeled A100 — the effect the paper's
        // Figure 3 reports (11–73x for the baseline GPU code). Compared at a
        // paper-scale problem size so launch overheads don't dominate.
        use popcorn_gpusim::CostModel;
        let cpu_model = CostModel::new(DeviceSpec::epyc7763_single_core(), 4);
        let gpu_model = CostModel::new(DeviceSpec::a100_80gb(), 4);
        let cost = OpCost::gemm(60_000, 60_000, 780, 4); // MNIST-sized kernel matrix
        let speedup = cpu_model.time_seconds(OpClass::Gemm, &cost)
            / gpu_model.time_seconds(OpClass::Gemm, &cost);
        assert!(speedup > 10.0, "expected >10x, got {speedup:.1}x");
    }

    #[test]
    fn validates_config_and_inputs() {
        assert!(CpuKernelKmeans::new(config(50))
            .fit(&blob_points())
            .is_err());
        let no_features = DenseMatrix::<f64>::zeros(5, 0);
        assert!(CpuKernelKmeans::new(config(2)).fit(&no_features).is_err());
        let rect = DenseMatrix::<f64>::zeros(4, 3);
        assert!(CpuKernelKmeans::new(config(2))
            .fit_from_kernel(&rect)
            .is_err());
    }

    #[test]
    fn cpu_engine_matches_core_reference() {
        let points = blob_points();
        let kernel_matrix = popcorn_core::kernel::kernel_matrix_reference(
            &points,
            KernelFunction::paper_polynomial(),
        );
        let labels: Vec<usize> = (0..points.rows()).map(|i| i % 3).collect();
        let exec = SimExecutor::cpu_single_core_f32();
        let source = FullKernel::new(&kernel_matrix).unwrap();
        let mut engine = CpuEngine::<f64>::new(3);
        engine.begin_iteration(0, &source, &labels, &exec).unwrap();
        source
            .for_each_tile(&exec, &mut |rows, tile| {
                engine.consume_tile(rows, tile, &exec)
            })
            .unwrap();
        let ours = engine.finish_iteration(&exec).unwrap();
        let reference =
            popcorn_core::distances::compute_distances_reference(&kernel_matrix, &labels, 3);
        assert!(ours.approx_eq(&reference, 1e-9, 1e-9));
    }

    #[test]
    fn uses_cpu_device_by_default() {
        let result = CpuKernelKmeans::new(config(2)).fit(&blob_points()).unwrap();
        assert!(result
            .trace
            .records()
            .iter()
            .all(|r| r.modeled_seconds >= 0.0));
        // The default executor models the EPYC core: no 5 µs GPU launch gaps,
        // so the number of records equals kernel matrix + 2 per iteration.
        assert!(result.trace.len() >= 3);
    }
}
