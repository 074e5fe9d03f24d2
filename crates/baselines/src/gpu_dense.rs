//! The dense "CUDA baseline" (paper §5.3).
//!
//! The paper's baseline GPU implementation does not use sparse matrices. It
//! computes the kernel matrix with cuBLAS GEMM (never SYRK, never the dynamic
//! selection) and then evaluates the per-iteration distances with three
//! hand-written kernels:
//!
//! 1. **Row reduction** — one thread block per row of `K`, reducing the
//!    entries of the row into a shared-memory buffer of length `k` according
//!    to the cluster assignment of the entry's column. Functionally this is
//!    the SpMM of Popcorn; the shared-memory reduction and its bank conflicts
//!    are why its throughput *drops* as `k` grows (Figure 5).
//! 2. **Centroid norms** — `n` threads reduce the buffer from kernel 1 into
//!    the per-cluster norms (the role of Popcorn's SpMV).
//! 3. **Distance assembly** — `n·k` threads combine the two buffers with
//!    `diag(K)` into the distance matrix.
//!
//! The host computation here produces numerically identical results to
//! Popcorn; what differs is the cost accounting: kernel 1 and 2 are charged
//! as [`OpClass::HandwrittenReduction`] with a utilization that *decreases*
//! with `k` ([`popcorn_core::rowsum::reduction_utilization`]), reproducing
//! the measured baseline behaviour. On the host, kernel 1's row sums
//! `Σ_{q ∈ L_c} K[i][q]` are the product `V·K` with `V`'s stored values set
//! to one, so they run through Popcorn's own SpMM kernels (over the packed
//! lower triangle of the computed, bitwise-symmetric `K`) and match the CPU
//! reference's plain loop bit for bit. The three kernels form
//! [`popcorn_core::rowsum::BaselineEngine`], which lives in the core crate so
//! a fitted baseline model replays it at serve time. The solver is the
//! [`KernelSolver`] shell over the [`DenseBaseline`] family, whose two hooks
//! are the densifying data preparation and the GEMM kernel matrix.
//!
//! Sparse (CSR) inputs are accepted for driver uniformity, but — faithfully
//! to the original — the baseline cannot consume sparse operands: the points
//! are densified up front and the conversion is charged to the simulator,
//! which is exactly the cost asymmetry the paper's sparse datasets expose.

use popcorn_core::kernel_matrix::gemm_kernel_matrix;
use popcorn_core::solver::{dense_upload_bytes, FitInput, KernelFamily, KernelSolver};
use popcorn_core::{KernelKmeansConfig, ModelFamily, Result};
use popcorn_dense::{DenseMatrix, PackedSymmetric, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};
use std::borrow::Cow;

/// The paper's in-house CUDA baseline family: dense-only points, a GEMM
/// kernel matrix, the hand-written distance kernels.
#[derive(Debug, Clone, Copy)]
pub struct DenseBaseline;

impl KernelFamily for DenseBaseline {
    const FAMILY: ModelFamily = ModelFamily::DenseBaseline;

    /// Densify CSR points (charged), then upload the dense `P`.
    fn prepare<T: Scalar>(
        input: FitInput<'_, T>,
        executor: &dyn Executor,
    ) -> Result<Option<DenseMatrix<T>>> {
        let points = dense_points(input, executor)?;
        let (n, d) = (points.rows(), points.cols());
        let bytes = dense_upload_bytes(n, d, std::mem::size_of::<T>());
        executor.charge(
            format!("upload P ({n} x {d})"),
            Phase::DataPreparation,
            OpClass::Transfer,
            OpCost::transfer(bytes),
        );
        executor.track_alloc(bytes);
        Ok(match points {
            Cow::Owned(points) => Some(points),
            Cow::Borrowed(_) => None,
        })
    }

    /// Always GEMM (§5.3 — never SYRK, never the dynamic selection). A
    /// refit hands over the model's stored points, which may be CSR: they
    /// are densified first (charged) — the fit's preparation minus the
    /// upload, since the stored points stayed device-resident.
    fn kernel_matrix<T: Scalar>(
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
    ) -> Result<PackedSymmetric<T>> {
        let points = dense_points(input, executor)?;
        let (n, d) = (points.rows(), points.cols());
        let elem = std::mem::size_of::<T>();
        let kernel_matrix = executor.run(
            format!("gemm kernel matrix (n={n}, d={d})"),
            Phase::KernelMatrix,
            OpClass::Gemm,
            OpCost::gemm(n, n, d, elem),
            || gemm_kernel_matrix(&points, config.kernel),
        )?;
        executor.track_alloc(n as u64 * n as u64 * elem as u64);
        Ok(kernel_matrix)
    }
}

/// The paper's dense CUDA baseline implementation of kernel k-means.
pub type DenseGpuBaseline = KernelSolver<DenseBaseline>;

/// The points in the dense layout: the baseline cannot stream CSR operands
/// into cuBLAS, so sparse inputs are expanded first, charged as a
/// data-preparation pass. Errs when the `n × d` copy cannot be allocated.
fn dense_points<'a, T: Scalar>(
    input: FitInput<'a, T>,
    executor: &dyn Executor,
) -> Result<Cow<'a, DenseMatrix<T>>> {
    match input {
        FitInput::Dense(points) => Ok(Cow::Borrowed(points)),
        FitInput::Sparse(_) => {
            let (n, d, elem) = (input.n(), input.d(), std::mem::size_of::<T>());
            Ok(Cow::Owned(executor.run(
                format!("densify P ({n} x {d}, nnz={})", input.nnz()),
                Phase::DataPreparation,
                OpClass::Other,
                OpCost::elementwise_elems(n as u64 * d as u64, 1, 1, 0, elem),
                || input.to_dense(),
            )?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_core::kernel::KernelFunction;
    use popcorn_core::rowsum::reduction_utilization;
    use popcorn_core::{KernelKmeans, Solver};
    use popcorn_gpusim::DeviceSpec;
    use popcorn_sparse::CsrMatrix;

    fn blob_points() -> DenseMatrix<f64> {
        DenseMatrix::from_fn(24, 3, |i, j| {
            let offset = if i < 12 { 0.0 } else { 12.0 };
            offset + ((i * 3 + j) as f64 * 0.29).cos() * 0.6
        })
    }

    fn config(k: usize) -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(15)
            .with_convergence_check(true, 1e-10)
            .with_seed(9)
    }

    #[test]
    fn matches_popcorn_labels_exactly() {
        let points = blob_points();
        for kernel in [KernelFunction::Linear, KernelFunction::paper_polynomial()] {
            for k in [2, 3, 5] {
                let cfg = config(k).with_kernel(kernel);
                let baseline = DenseGpuBaseline::new(cfg.clone()).fit(&points).unwrap();
                let popcorn = KernelKmeans::new(cfg).fit(&points).unwrap();
                assert_eq!(
                    baseline.labels,
                    popcorn.labels,
                    "kernel {} k {k}",
                    kernel.name()
                );
                assert!((baseline.objective - popcorn.objective).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn recovers_two_blobs() {
        let result = DenseGpuBaseline::new(config(2))
            .fit(&blob_points())
            .unwrap();
        assert!(result.converged);
        assert_eq!(result.non_empty_clusters(), 2);
    }

    #[test]
    fn sparse_input_is_densified_and_charged() {
        let points = blob_points();
        let csr = CsrMatrix::from_dense(&points);
        let dense = DenseGpuBaseline::new(config(3)).fit(&points).unwrap();
        let via_sparse = DenseGpuBaseline::new(config(3)).fit_sparse(&csr).unwrap();
        // Identical clustering, but the sparse route pays a densify op.
        assert_eq!(dense.labels, via_sparse.labels);
        assert!(via_sparse
            .trace
            .records()
            .iter()
            .any(|r| r.name.starts_with("densify P")));
        assert_eq!(via_sparse.trace.len(), dense.trace.len() + 1);
    }

    #[test]
    fn a_dense_copy_no_host_can_allocate_is_a_typed_error() {
        // 3 x 2^59 f32 entries take 6.9e18 bytes, more than any host's
        // address space holds, so the reservation fails everywhere.
        let cols = 1usize << 59;
        let (indices, values) = (vec![0, cols - 1, 1, 0], vec![0.5f32, 1.0, 0.25, 1.0]);
        let csr = CsrMatrix::from_raw(3, cols, vec![0, 2, 3, 4], indices, values).unwrap();
        let err = DenseGpuBaseline::new(config(2))
            .fit_sparse(&csr)
            .unwrap_err();
        let bytes = 3 * (1u128 << 59) * 4;
        assert_eq!(
            err,
            popcorn_core::CoreError::HostAllocationFailed {
                what: "the dense copy of the points",
                shape: (3, cols),
                bytes,
            }
        );
        let message = err.to_string();
        assert!(message.contains(&format!("3 x {cols} entries need {bytes} bytes")));
    }

    #[test]
    fn uses_handwritten_kernel_class_not_spmm() {
        let result = DenseGpuBaseline::new(config(3))
            .fit(&blob_points())
            .unwrap();
        let (hand_time, hand_flops) = result.trace.class_summary(OpClass::HandwrittenReduction);
        assert!(hand_time > 0.0);
        assert!(hand_flops > 0);
        let (spmm_time, _) = result.trace.class_summary(OpClass::SpMM);
        assert_eq!(spmm_time, 0.0);
        let (spmv_time, _) = result.trace.class_summary(OpClass::SpMV);
        assert_eq!(spmv_time, 0.0);
    }

    #[test]
    fn modeled_distance_phase_slower_than_popcorn() {
        // The crux of Figure 4: for the same paper-scale problem, the
        // baseline's hand-written reduction kernel is modeled slower than
        // Popcorn's cuSPARSE-class SpMM — by roughly the 1.5–2.6x the paper
        // measures. (At toy sizes kernel-launch overhead hides the effect,
        // so this checks the cost model at a representative size.)
        use popcorn_core::distances::spmm_utilization;
        use popcorn_gpusim::CostModel;
        let model = CostModel::new(DeviceSpec::a100_80gb(), 4);
        let mut previous = 0.0f64;
        for k in [10usize, 50, 100] {
            let n = 20_000usize;
            let popcorn_cost = OpCost::spmm_kvt(n, k, 4, 4).with_utilization(spmm_utilization(k));
            let baseline_cost = OpCost::new(
                2 * (n as u64) * (n as u64),
                (n * n * 4) as u64,
                (n * k * 4) as u64,
            )
            .with_utilization(reduction_utilization(k));
            let t_popcorn = model.time_seconds(OpClass::SpMM, &popcorn_cost);
            let t_baseline = model.time_seconds(OpClass::HandwrittenReduction, &baseline_cost);
            let speedup = t_baseline / t_popcorn;
            assert!(
                speedup > 1.2 && speedup < 3.0,
                "k = {k}: modeled speedup {speedup:.2} out of the expected band"
            );
            assert!(
                speedup > previous,
                "speedup should grow with k in the model"
            );
            previous = speedup;
        }
    }

    #[test]
    fn reduction_utilization_decreases_with_k() {
        assert!(reduction_utilization(10) > reduction_utilization(50));
        assert!(reduction_utilization(50) > reduction_utilization(100));
        assert!(reduction_utilization(100) >= 0.6);
        assert!(reduction_utilization(10_000) >= 0.6);
        assert!(reduction_utilization(1) <= 1.0);
    }

    #[test]
    fn objective_monotone() {
        let result = DenseGpuBaseline::new(config(4).with_convergence_check(false, 0.0))
            .fit(&blob_points())
            .unwrap();
        let history = result.objective_history();
        for w in history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn validates_inputs() {
        assert!(DenseGpuBaseline::new(config(100))
            .fit(&blob_points())
            .is_err());
        let rect = DenseMatrix::<f64>::zeros(3, 2);
        assert!(DenseGpuBaseline::new(config(2))
            .fit_from_kernel(&rect)
            .is_err());
        let no_features = DenseMatrix::<f64>::zeros(5, 0);
        assert!(DenseGpuBaseline::new(config(2)).fit(&no_features).is_err());
    }
}
