//! Kernel matrix computation (paper §3.2 and §4.2).
//!
//! `K` is the Gram matrix `B = P̂ P̂ᵀ`, computed with either GEMM or SYRK
//! (chosen by [`KernelMatrixStrategy`]), or SpGEMM for CSR points, under an
//! elementwise application of the kernel function (`thrust::transform` in
//! the original). The trace keeps the paper's two steps, the product's
//! record and then the map's, so the experiments can attribute time exactly
//! as the paper's Figure 8 does; the modeled device holds the paper's full
//! `n × n` matrix, mirror included.
//!
//! The host keeps only the lower triangle, packed ([`PackedSymmetric`]),
//! whichever routine the strategy picks: GEMM and SYRK entries are the same
//! sequential `fma` dot product, so both routes run the triangular product
//! ([`syrk_packed_with`]), and the SpGEMM row loop stops each column at the
//! row it fills ([`popcorn_sparse::GramIndex::gram_lower_rows_with`]). The
//! map runs in the product's write-back (`KernelMap`): each stored entry is
//! written once, already mapped, into memory it first touches with that
//! write. No mirror is copied; every consumer reads `(j, i)` from `(i, j)`.
//! [`compute_gram`] and [`compute_gram_csr`] still build the full Gram
//! matrix, as the Figure 2 benchmark times it.

use crate::errors::CoreError;
use crate::kernel::{KernelFunction, KernelMap};
use crate::kernel_source::TiledKernel;
use crate::solver::FitInput;
use crate::strategy::{self, GramRoutine, KernelMatrixStrategy};
use crate::Result;
use popcorn_dense::{
    matmul_nt_rows, syrk_full, syrk_packed_with, DenseMatrix, PackedSymmetric, Scalar,
};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};
use popcorn_sparse::CsrMatrix;

/// Width of the sparse index type assumed by the cost accounting (the paper
/// assumes 32-bit indices in §4.4).
pub const INDEX_BYTES: usize = 4;

/// Compute the full Gram matrix `B = P̂ P̂ᵀ` with the requested routine —
/// SYRK fills the lower triangle and mirrors it — charging the
/// corresponding cuBLAS-like cost to the executor.
pub fn compute_gram<T: Scalar>(
    points: &DenseMatrix<T>,
    routine: GramRoutine,
    executor: &dyn Executor,
) -> Result<DenseMatrix<T>> {
    dense_gram(points, routine, executor, || match routine {
        GramRoutine::Syrk => syrk_full(points),
        _ => matmul_nt_rows(points, 0, points.rows(), points),
    })
}

/// Run `product` under the record of the dense Gram routine `routine`; the
/// full `n × n` matrix becomes device-resident.
fn dense_gram<T: Scalar, P, E>(
    points: &DenseMatrix<T>,
    routine: GramRoutine,
    executor: &dyn Executor,
    product: impl FnOnce() -> std::result::Result<P, E>,
) -> Result<P>
where
    CoreError: From<E>,
{
    let n = points.rows();
    let d = points.cols();
    let elem = std::mem::size_of::<T>();
    let gram = match routine {
        GramRoutine::Gemm => executor.run(
            format!("gemm B = P*P^T (n={n}, d={d})"),
            Phase::KernelMatrix,
            OpClass::Gemm,
            OpCost::gemm(n, n, d, elem),
            product,
        )?,
        GramRoutine::Syrk => executor.run(
            format!("syrk B = P*P^T lower (n={n}, d={d})"),
            Phase::KernelMatrix,
            OpClass::Syrk,
            // The mirror copy's traffic is part of the SYRK charge.
            OpCost::syrk_with_mirror(n, d, elem).with_utilization(strategy::syrk_utilization(n, d)),
            product,
        )?,
        GramRoutine::SpGemm => {
            return Err(CoreError::InvalidInput(
                "the SpGemm gram routine requires a sparse (CSR) input; \
                 use compute_gram_csr"
                    .into(),
            ))
        }
    };
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

/// Compute the full Gram matrix `B = P̂ P̂ᵀ` directly from CSR points,
/// charging the product to the executor as an SpGEMM (cuSPARSE-class, §4.4)
/// rather than a dense GEMM — the sparse input never gets densified. The
/// host runs the structural row loop of [`CsrMatrix::gram`], which does the
/// multiply-adds the charge counts and allocates nothing sized by the
/// feature count. More than `u32::MAX` points is an error (the row ids of
/// [`popcorn_sparse::GramIndex`] are 32-bit).
pub fn compute_gram_csr<T: Scalar>(
    points: &CsrMatrix<T>,
    executor: &dyn Executor,
) -> Result<DenseMatrix<T>> {
    Ok(csr_gram(points, executor, || points.gram())?)
}

/// Run `product` under the SpGEMM Gram record of `points`; the full `n × n`
/// matrix becomes device-resident.
fn csr_gram<T: Scalar, P>(
    points: &CsrMatrix<T>,
    executor: &dyn Executor,
    product: impl FnOnce() -> P,
) -> P {
    let n = points.rows();
    let d = points.cols();
    let nnz = points.nnz();
    let gram = executor.run(
        format!("spgemm B = P*P^T (n={n}, d={d}, nnz={nnz})"),
        Phase::KernelMatrix,
        OpClass::SpGEMM,
        spgemm_gram_cost(points),
        product,
    );
    let elem = std::mem::size_of::<T>();
    executor.track_alloc(n as u64 * n as u64 * elem as u64);
    gram
}

/// The Gram diagonal `kernel`'s map reads: `xᵀx` per point as the Gram
/// paths compute it ([`TiledKernel::compute_gram_diag`]) for the Gaussian,
/// nothing for the kernels that read only `b_ij`.
pub(crate) fn map_diag<T: Scalar>(kernel: KernelFunction, points: &FitInput<'_, T>) -> Vec<f64> {
    if kernel.needs_diagonal() {
        TiledKernel::compute_gram_diag(points)
    } else {
        Vec::new()
    }
}

/// Charge a kernel map fused into a product's write-back as the
/// elementwise transform of `entries` Gram entries, recorded after the
/// product: the map's host time is inside the product's record.
pub(crate) fn charge_kernel_map<T: Scalar>(
    executor: &dyn Executor,
    name: String,
    phase: Phase,
    kernel: KernelFunction,
    entries: u64,
) {
    let elem = std::mem::size_of::<T>();
    let flops = kernel.flops_per_entry().max(1);
    let cost = OpCost::elementwise_elems(entries, 1, 1, flops, elem);
    executor.charge(name, phase, OpClass::Elementwise, cost);
}

/// The packed lower triangle of `K = kernel(P̂ P̂ᵀ)`, recording nothing: the
/// one producer of the in-core `K`, at fit and at load. Dense points run the
/// triangular product, the entries both the GEMM and the SYRK route store;
/// CSR points run the SpGEMM walk over the lower triangle. The kernel map
/// runs in the product's write-back.
pub(crate) fn packed_kernel_matrix<T: Scalar>(
    points: FitInput<'_, T>,
    kernel: KernelFunction,
) -> Result<PackedSymmetric<T>> {
    let n = points.n();
    let diag = map_diag(kernel, &points);
    let map = KernelMap::new(kernel, &diag, &diag);
    let lower = match points {
        FitInput::Dense(p) => syrk_packed_with(
            p,
            0..n,
            #[inline(always)]
            |i, j0, cells| map.run(i, j0, cells),
        )?,
        FitInput::Sparse(p) => p.gram_index()?.gram_lower_rows_with(
            0,
            n,
            #[inline(always)]
            |i, j0, cells| map.run(i, j0, cells),
        )?,
    };
    Ok(PackedSymmetric::from_vec(n, lower)?)
}

/// Compute the kernel matrix `K = kernel(P̂ P̂ᵀ)` as its packed lower
/// triangle, returning it and the Gram routine that was selected. The
/// routine names and prices the product's record; the host runs the
/// triangular product either way.
pub fn compute_kernel_matrix<T: Scalar>(
    points: &DenseMatrix<T>,
    kernel: KernelFunction,
    strategy: KernelMatrixStrategy,
    executor: &dyn Executor,
) -> Result<(PackedSymmetric<T>, GramRoutine)> {
    let routine = strategy.select(points.rows(), points.cols());
    let matrix = dense_gram(points, routine, executor, || {
        packed_kernel_matrix(FitInput::Dense(points), kernel)
    })?;
    charge_apply::<T>(kernel, points.rows(), executor);
    Ok((matrix, routine))
}

/// Compute the kernel matrix `K = kernel(P̂ P̂ᵀ)` from CSR points as its
/// packed lower triangle: the SpGEMM row loop over the lower triangle under
/// the same kernel map the dense path uses. The GEMM/SYRK strategy does not
/// apply — the routine is always [`GramRoutine::SpGemm`]. More than
/// `u32::MAX` points is an error, as for [`compute_gram_csr`].
pub fn compute_kernel_matrix_csr<T: Scalar>(
    points: &CsrMatrix<T>,
    kernel: KernelFunction,
    executor: &dyn Executor,
) -> Result<(PackedSymmetric<T>, GramRoutine)> {
    let matrix = csr_gram(points, executor, || {
        packed_kernel_matrix(FitInput::Sparse(points), kernel)
    })?;
    charge_apply::<T>(kernel, points.rows(), executor);
    Ok((matrix, GramRoutine::SpGemm))
}

/// `K = kernel(P̂ P̂ᵀ)` over dense points as its packed lower triangle, by
/// the triangular product whose write-back applies the kernel map,
/// recording nothing: for a solver that charges the product and the map as
/// one GEMM (the dense baseline, §5.3). Bit-identical to
/// [`compute_kernel_matrix`] on either route.
pub fn gemm_kernel_matrix<T: Scalar>(
    points: &DenseMatrix<T>,
    kernel: KernelFunction,
) -> Result<PackedSymmetric<T>> {
    packed_kernel_matrix(FitInput::Dense(points), kernel)
}

/// The record of the in-core kernel map over the whole `n × n` matrix.
fn charge_apply<T: Scalar>(kernel: KernelFunction, n: usize, executor: &dyn Executor) {
    charge_kernel_map::<T>(
        executor,
        format!("apply {} kernel to B (n={n})", kernel.name()),
        Phase::KernelMatrix,
        kernel,
        n as u64 * n as u64,
    );
}

/// Extract `diag(K)` — the squared feature-space norms of the points (`P̃`,
/// paper §3.3) — charging the small elementwise gather to the executor.
pub fn extract_point_norms<T: Scalar>(
    kernel_matrix: &PackedSymmetric<T>,
    executor: &dyn Executor,
) -> Result<Vec<T>> {
    Ok(charge_point_norms::<T, _>(
        kernel_matrix.n(),
        executor,
        || kernel_matrix.diagonal(),
    ))
}

/// [`extract_point_norms`] of a caller's full matrix, under the same record.
pub(crate) fn extract_dense_point_norms<T: Scalar>(
    kernel_matrix: &DenseMatrix<T>,
    executor: &dyn Executor,
) -> Result<Vec<T>> {
    Ok(charge_point_norms::<T, _>(
        kernel_matrix.rows(),
        executor,
        || popcorn_dense::diagonal(kernel_matrix),
    )?)
}

/// Run the diagonal gather `diag` of an `n × n` kernel matrix under its
/// record.
fn charge_point_norms<T: Scalar, R>(
    n: usize,
    executor: &dyn Executor,
    diag: impl FnOnce() -> R,
) -> R {
    let elem = std::mem::size_of::<T>();
    executor.run(
        "extract diag(K)",
        Phase::KernelMatrix,
        OpClass::Elementwise,
        OpCost::elementwise(n, 1, 1, 0, elem),
        diag,
    )
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
                k.to_dense().approx_eq(&reference, 1e-9, 1e-9),
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

    /// Points whose Gram entries include `±∞` and NaN among ordinary
    /// values, with rows of `−0` and `+0`: one row in seven holds an
    /// infinity, and rows 2 and 3 are all `−0` and all `+0`.
    fn awkward_points<T: Scalar>(n: usize, d: usize) -> DenseMatrix<T> {
        DenseMatrix::from_fn(n, d, |i, j| {
            let v = match (i, (i * 31 + j * 17) % 61) {
                (2, _) => -0.0,
                (3, _) => 0.0,
                (_, 0) if i % 7 == 0 => f64::INFINITY,
                (_, 1) if i % 7 == 0 => f64::NEG_INFINITY,
                (_, 2..=9) => -0.0,
                _ => ((i * d + j) as f64 * 0.37).sin() * 0.2,
            };
            T::from_f64(v)
        })
    }

    /// Every entry's bits (`f32` widens exactly, NaN payloads included).
    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// The lower triangle of the square matrix `m`, row by row: the packed
    /// entries a producer of `m`'s triangle must store.
    fn lower_bits<T: Scalar>(m: &DenseMatrix<T>) -> Vec<u64> {
        (0..m.rows()).flat_map(|i| bits(&m.row(i)[..=i])).collect()
    }

    fn all_kernels() -> [KernelFunction; 4] {
        [
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
        ]
    }

    /// The packed matrix of every route against the lower triangle of its
    /// full Gram product followed by `apply_to_gram`, which is bitwise
    /// symmetric, and the route's records: the product's, then the map's,
    /// which carries no host time of its own.
    fn check_mapped_routes<T: Scalar>() {
        // At d = 512 the microkernel packs 32 rows of B per chunk in f32 and
        // 16 in f64, so 100 rows span four and seven chunks.
        let (n, d) = (100, 512);
        let points = awkward_points::<T>(n, d);
        let csr = CsrMatrix::from_dense(&points);
        let map_record = |exec: &SimExecutor, kernel: KernelFunction| {
            let trace = exec.trace();
            let records = trace.records();
            let map = records.last().unwrap();
            assert_eq!(
                map.name,
                format!("apply {} kernel to B (n={n})", kernel.name())
            );
            assert_eq!(map.host_seconds, 0.0);
            assert_eq!(records.len(), 2);
            records[0].clone()
        };
        let symmetric = |m: &DenseMatrix<T>| {
            (0..n).all(|i| (0..i).all(|j| bits(&[m[(i, j)]]) == bits(&[m[(j, i)]])))
        };
        for kernel in all_kernels() {
            for (strategy, routine) in [
                (KernelMatrixStrategy::ForceGemm, GramRoutine::Gemm),
                (KernelMatrixStrategy::ForceSyrk, GramRoutine::Syrk),
            ] {
                let exec = SimExecutor::a100_f32();
                let (mapped, selected) =
                    compute_kernel_matrix(&points, kernel, strategy, &exec).unwrap();
                assert_eq!(selected, routine);
                let product = map_record(&exec, kernel);
                let oracle_exec = SimExecutor::a100_f32();
                let mut oracle = compute_gram(&points, routine, &oracle_exec).unwrap();
                let oracle_record = oracle_exec.trace().records()[0].clone();
                assert_eq!(oracle_record.name, product.name);
                assert_eq!(oracle_record.cost, product.cost);
                kernel.apply_to_gram(&mut oracle);
                assert!(symmetric(&oracle), "{} over {routine:?}", kernel.name());
                assert!(
                    bits(mapped.as_slice()) == lower_bits(&oracle),
                    "{} over {routine:?}",
                    kernel.name()
                );
            }
            let exec = SimExecutor::a100_f32();
            let (mapped, _) = compute_kernel_matrix_csr(&csr, kernel, &exec).unwrap();
            let product = map_record(&exec, kernel);
            let oracle_exec = SimExecutor::a100_f32();
            let mut oracle = compute_gram_csr(&csr, &oracle_exec).unwrap();
            assert_eq!(oracle_exec.trace().records()[0].name, product.name);
            kernel.apply_to_gram(&mut oracle);
            assert!(symmetric(&oracle), "{} over CSR", kernel.name());
            assert!(
                bits(mapped.as_slice()) == lower_bits(&oracle),
                "{} over CSR",
                kernel.name()
            );
        }
    }

    #[test]
    fn every_route_writes_the_gram_under_apply_to_gram_bit_for_bit() {
        check_mapped_routes::<f32>();
        check_mapped_routes::<f64>();
        crate::test_support::rerun_at_kernel_threads(
            module_path!(),
            "every_route_writes_the_gram_under_apply_to_gram_bit_for_bit",
        );
    }

    #[test]
    fn the_baselines_gemm_kernel_matrix_is_the_gemm_route() {
        let points = awkward_points::<f32>(100, 512);
        for kernel in all_kernels() {
            let exec = SimExecutor::a100_f32();
            let (routed, _) =
                compute_kernel_matrix(&points, kernel, KernelMatrixStrategy::ForceGemm, &exec)
                    .unwrap();
            let fused = gemm_kernel_matrix(&points, kernel).unwrap();
            assert!(
                bits(fused.as_slice()) == bits(routed.as_slice()),
                "{}",
                kernel.name()
            );
            // And the lower triangle of the full GEMM under the map.
            let mut oracle = compute_gram(&points, GramRoutine::Gemm, &exec).unwrap();
            kernel.apply_to_gram(&mut oracle);
            assert!(
                bits(fused.as_slice()) == lower_bits(&oracle),
                "{}",
                kernel.name()
            );
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
