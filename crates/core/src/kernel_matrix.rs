//! Kernel matrix computation (paper §3.2 and §4.2).
//!
//! `K` is computed in two steps: the Gram matrix `B = P̂ P̂ᵀ` with either GEMM
//! or SYRK (chosen by [`KernelMatrixStrategy`]), then an elementwise
//! application of the kernel function (`thrust::transform` in the original).
//! Each step is charged to the simulator so the experiments can attribute
//! time exactly as the paper's Figure 8 does.

use crate::errors::CoreError;
use crate::kernel::KernelFunction;
use crate::strategy::{self, GramRoutine, KernelMatrixStrategy};
use crate::Result;
use popcorn_dense::parallel::par_chunks_rows;
use popcorn_dense::{matmul_nt, symmetrize_lower, syrk, DenseMatrix, Scalar, Triangle};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};
use popcorn_sparse::CsrMatrix;

/// Width of the sparse index type assumed by the cost accounting (the paper
/// assumes 32-bit indices in §4.4).
pub const INDEX_BYTES: usize = 4;

/// Compute the Gram matrix `B = P̂ P̂ᵀ` with the requested routine, charging
/// the corresponding cuBLAS-like cost to the executor.
pub fn compute_gram<T: Scalar>(
    points: &DenseMatrix<T>,
    routine: GramRoutine,
    executor: &dyn Executor,
) -> Result<DenseMatrix<T>> {
    let n = points.rows();
    let d = points.cols();
    let elem = std::mem::size_of::<T>();
    let gram = match routine {
        GramRoutine::Gemm => executor.run(
            format!("gemm B = P*P^T (n={n}, d={d})"),
            Phase::KernelMatrix,
            OpClass::Gemm,
            OpCost::gemm(n, n, d, elem),
            || matmul_nt(points, points),
        )?,
        GramRoutine::Syrk => executor.run(
            format!("syrk B = P*P^T lower (n={n}, d={d})"),
            Phase::KernelMatrix,
            OpClass::Syrk,
            // The mirror copy's traffic is part of the SYRK charge.
            OpCost::syrk_with_mirror(n, d, elem).with_utilization(strategy::syrk_utilization(n, d)),
            || -> popcorn_dense::Result<DenseMatrix<T>> {
                let mut b = DenseMatrix::zeros(n, n);
                syrk(T::ONE, points, T::ZERO, &mut b, Triangle::Lower)?;
                symmetrize_lower(&mut b, Triangle::Lower)?;
                Ok(b)
            },
        )?,
        GramRoutine::SpGemm => {
            return Err(CoreError::InvalidInput(
                "the SpGemm gram routine requires a sparse (CSR) input; \
                 use compute_gram_csr"
                    .into(),
            ))
        }
    };
    // The full n x n matrix becomes device-resident.
    executor.track_alloc(n as u64 * n as u64 * elem as u64);
    Ok(gram)
}

/// Modeled cost of the SpGEMM Gram product `B = P̂ P̂ᵀ` over CSR points.
///
/// Gustavson-style accounting: FLOPs are the stored-entry pairs (not
/// `2n²d`), both CSR operands are streamed once and the dense n×n output is
/// written once; the irregular access pattern is priced by the SpGEMM
/// class's low compute/memory efficiencies. The single definition is shared
/// by every execution path that charges a sparse Gram product.
pub fn spgemm_gram_cost<T: Scalar>(points: &CsrMatrix<T>) -> OpCost {
    let n = points.rows();
    let elem = std::mem::size_of::<T>();
    OpCost::new(
        points.gram_flops(),
        2 * points.storage_bytes(elem, INDEX_BYTES),
        n as u64 * n as u64 * elem as u64,
    )
}

/// Compute the Gram matrix `B = P̂ P̂ᵀ` directly from CSR points, charging the
/// product to the executor as an SpGEMM (cuSPARSE-class, §4.4) rather than a
/// dense GEMM — the sparse input never gets densified. The host runs the
/// structural row loop of [`CsrMatrix::gram`], which does the multiply-adds
/// the charge counts and allocates nothing sized by the feature count.
pub fn compute_gram_csr<T: Scalar>(
    points: &CsrMatrix<T>,
    executor: &dyn Executor,
) -> Result<DenseMatrix<T>> {
    let n = points.rows();
    let d = points.cols();
    let nnz = points.nnz();
    let gram = executor.run(
        format!("spgemm B = P*P^T (n={n}, d={d}, nnz={nnz})"),
        Phase::KernelMatrix,
        OpClass::SpGEMM,
        spgemm_gram_cost(points),
        || points.gram(),
    );
    // The full n x n matrix becomes device-resident.
    let elem = std::mem::size_of::<T>();
    executor.track_alloc(n as u64 * n as u64 * elem as u64);
    Ok(gram)
}

/// Apply the kernel function elementwise to a Gram matrix, charging the
/// transform to the executor (shared tail of the dense and sparse paths).
///
/// Rows are transformed in place on the kernel worker threads; each entry
/// gets the same arithmetic as [`KernelFunction::apply_to_gram`], which stays
/// sequential for the single-core CPU reference.
fn apply_kernel_to_gram<T: Scalar>(
    gram: &mut DenseMatrix<T>,
    kernel: KernelFunction,
    executor: &dyn Executor,
) {
    let n = gram.rows();
    let elem = std::mem::size_of::<T>();
    executor.run(
        format!("apply {} kernel to B (n={n})", kernel.name()),
        Phase::KernelMatrix,
        OpClass::Elementwise,
        OpCost::elementwise_elems(
            n as u64 * n as u64,
            1,
            1,
            kernel.flops_per_entry().max(1),
            elem,
        ),
        || {
            let diag: Vec<f64> = (0..n).map(|i| gram[(i, i)].to_f64()).collect();
            par_chunks_rows(gram.as_mut_slice(), n, |start_row, chunk| {
                let row_diag = &diag[start_row..start_row + chunk.len() / n];
                kernel.apply_to_rows(chunk, row_diag, &diag);
            });
        },
    );
}

/// Compute the kernel matrix `K = kernel(P̂ P̂ᵀ)`, returning the matrix and
/// the Gram routine that was selected.
pub fn compute_kernel_matrix<T: Scalar>(
    points: &DenseMatrix<T>,
    kernel: KernelFunction,
    strategy: KernelMatrixStrategy,
    executor: &dyn Executor,
) -> Result<(DenseMatrix<T>, GramRoutine)> {
    let routine = strategy.select(points.rows(), points.cols());
    let mut gram = compute_gram(points, routine, executor)?;
    apply_kernel_to_gram(&mut gram, kernel, executor);
    Ok((gram, routine))
}

/// Compute the kernel matrix `K = kernel(P̂ P̂ᵀ)` from CSR points: SpGEMM Gram
/// product followed by the same elementwise kernel application the dense path
/// uses. The GEMM/SYRK strategy does not apply — the routine is always
/// [`GramRoutine::SpGemm`].
pub fn compute_kernel_matrix_csr<T: Scalar>(
    points: &CsrMatrix<T>,
    kernel: KernelFunction,
    executor: &dyn Executor,
) -> Result<(DenseMatrix<T>, GramRoutine)> {
    let mut gram = compute_gram_csr(points, executor)?;
    apply_kernel_to_gram(&mut gram, kernel, executor);
    Ok((gram, GramRoutine::SpGemm))
}

/// Extract `diag(K)` — the squared feature-space norms of the points (`P̃`,
/// paper §3.3) — charging the small elementwise gather to the executor.
pub fn extract_point_norms<T: Scalar>(
    kernel_matrix: &DenseMatrix<T>,
    executor: &dyn Executor,
) -> Result<Vec<T>> {
    let n = kernel_matrix.rows();
    let elem = std::mem::size_of::<T>();
    let norms = executor.run(
        "extract diag(K)",
        Phase::KernelMatrix,
        OpClass::Elementwise,
        OpCost::elementwise(n, 1, 1, 0, elem),
        || popcorn_dense::diagonal(kernel_matrix),
    )?;
    Ok(norms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::kernel_matrix_reference;
    use popcorn_gpusim::SimExecutor;

    fn sample_points(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| ((i * d + j) as f64 * 0.17).sin())
    }

    #[test]
    fn gemm_and_syrk_paths_agree() {
        let points = sample_points(12, 5);
        let exec = SimExecutor::a100_f32();
        let via_gemm = compute_gram(&points, GramRoutine::Gemm, &exec).unwrap();
        let via_syrk = compute_gram(&points, GramRoutine::Syrk, &exec).unwrap();
        assert!(via_gemm.approx_eq(&via_syrk, 1e-10, 1e-10));
    }

    #[test]
    fn kernel_matrix_matches_reference() {
        let points = sample_points(10, 4);
        let exec = SimExecutor::a100_f32();
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 0.5,
                sigma: 1.0,
            },
        ] {
            let (k, _) =
                compute_kernel_matrix(&points, kernel, KernelMatrixStrategy::ForceGemm, &exec)
                    .unwrap();
            let reference = kernel_matrix_reference(&points, kernel);
            assert!(
                k.approx_eq(&reference, 1e-9, 1e-9),
                "kernel {}",
                kernel.name()
            );
        }
    }

    #[test]
    fn strategy_selection_is_reported() {
        let exec = SimExecutor::a100_f32();
        let tall = sample_points(300, 2); // n/d = 150 -> GEMM
        let (_, routine) = compute_kernel_matrix(
            &tall,
            KernelFunction::Linear,
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        assert_eq!(routine, GramRoutine::Gemm);

        let wide = sample_points(20, 30); // n/d < 1 -> SYRK
        let (_, routine) = compute_kernel_matrix(
            &wide,
            KernelFunction::Linear,
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        assert_eq!(routine, GramRoutine::Syrk);
    }

    #[test]
    fn operations_are_charged_to_kernel_matrix_phase() {
        let points = sample_points(16, 3);
        let exec = SimExecutor::a100_f32();
        let (k, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::ForceSyrk,
            &exec,
        )
        .unwrap();
        let norms = extract_point_norms(&k, &exec).unwrap();
        assert_eq!(norms.len(), 16);
        let trace = exec.trace();
        assert!(trace.len() >= 3);
        assert!(trace.phase_modeled_seconds(Phase::KernelMatrix) > 0.0);
        assert_eq!(trace.phase_modeled_seconds(Phase::PairwiseDistances), 0.0);
        // SYRK op class was used
        let (syrk_time, _) = trace.class_summary(OpClass::Syrk);
        assert!(syrk_time > 0.0);
    }

    #[test]
    fn point_norms_are_kernel_diagonal() {
        let points = sample_points(8, 3);
        let exec = SimExecutor::a100_f32();
        let (k, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::ForceGemm,
            &exec,
        )
        .unwrap();
        let norms = extract_point_norms(&k, &exec).unwrap();
        for i in 0..8 {
            assert_eq!(norms[i], k[(i, i)]);
        }
    }

    #[test]
    fn modeled_syrk_beats_gemm_when_d_is_large() {
        // Figure 2's right-hand regime: d comparable to n -> SYRK faster.
        let exec_gemm = SimExecutor::a100_f32();
        let exec_syrk = SimExecutor::a100_f32();
        let points = sample_points(64, 64);
        compute_gram(&points, GramRoutine::Gemm, &exec_gemm).unwrap();
        compute_gram(&points, GramRoutine::Syrk, &exec_syrk).unwrap();
        // At this tiny size launch overhead dominates, so compare the raw
        // cost-model times for a paper-sized problem instead.
        let model = exec_gemm.cost_model();
        let n = 10_000;
        let d = 10_000;
        let t_gemm = model.time_seconds(OpClass::Gemm, &OpCost::gemm(n, n, d, 4));
        let t_syrk = model.time_seconds(OpClass::Syrk, &OpCost::syrk_with_mirror(n, d, 4));
        assert!(t_syrk < t_gemm, "SYRK should win for n == d");
    }
}
