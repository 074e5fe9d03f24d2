//! Matrix-centric pairwise distance computation (paper §3.1, §3.3, §4.3).
//!
//! Given the kernel matrix `K`, the point norms `P̃ = diag(K)` and the current
//! selection matrix `V`, one iteration's distance matrix is
//!
//! ```text
//! D = −2 K Vᵀ + P̃ + C̃          (Eq. 10)
//! ```
//!
//! where the centroid norms `C̃` are obtained with the SpMV trick
//! (Eq. 14–15): gather `z_i = −0.5 · E[i, cluster(i)]` from `E = −2KVᵀ`,
//! then `C̃ = V z`. Every step is charged to the simulator with the same
//! granularity the original implementation has (one cuSPARSE SpMM, one small
//! gather kernel, one cuSPARSE SpMV, one assembly kernel).

use crate::kernel_matrix::INDEX_BYTES;
use crate::Result;
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};
use popcorn_sparse::{spmm_transpose_b_into, spmv, SelectionMatrix};

/// Utilization hint for the distance SpMM as a function of `k`.
///
/// An SpMM whose dense output has only `k` columns cannot fully occupy an
/// A100 for small `k`; the paper observes exactly this as throughput that
/// *increases* with `k` for Popcorn (Figure 5). The model captures it with a
/// utilization factor rising from ~0.56 at small `k` towards 0.9 at `k ≈ 100`,
/// which places the modeled SpMM throughput in the 370–729 GFLOP/s range the
/// paper measures.
pub fn spmm_utilization(k: usize) -> f64 {
    (0.55 + 0.35 * (k.min(100) as f64) / 100.0).min(0.9)
}

/// Output of one distance computation.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceOutput<T: Scalar> {
    /// The `n × k` distance matrix `D` (squared feature-space distances).
    pub distances: DenseMatrix<T>,
    /// The centroid squared norms `‖c_j‖²` (length `k`).
    pub centroid_norms: Vec<T>,
}

/// Accumulate one row tile's slice of `E = −2 K Vᵀ` into `e`.
///
/// The SpMM computes each output row independently from the matching row of
/// `K`, so assembling `E` tile by tile is bit-identical to the one-shot full
/// product — this is what lets the streaming kernel-matrix path reproduce the
/// in-core results exactly. Charged as a cuSPARSE-class SpMM over the tile
/// (with `rows == n`, the charge equals the classic full-matrix SpMM).
pub fn accumulate_distance_tile<T: Scalar>(
    e: &mut DenseMatrix<T>,
    rows: std::ops::Range<usize>,
    tile: &DenseMatrix<T>,
    selection: &SelectionMatrix<T>,
    executor: &dyn Executor,
) -> Result<()> {
    let (n, k) = (selection.n(), selection.k());
    let minus_two = T::from_f64(-2.0);
    // Rows r0..r1 of the row-major accumulator are contiguous, so the SpMM
    // writes the tile's slice of E in place — no intermediate matrix.
    let out = &mut e.as_mut_slice()[rows.start * k..rows.end * k];
    run_tile_fold::<T>(rows, n, k, executor, || {
        spmm_transpose_b_into(minus_two, tile, selection.csr(), None, out)?;
        Ok(())
    })
}

/// Run one dense tile fold of `E = −2 K Vᵀ` under its record: a
/// cuSPARSE-class SpMM over the tile's rows, named for the full product when
/// the tile spans all of `K`.
pub(crate) fn run_tile_fold<T: Scalar>(
    rows: std::ops::Range<usize>,
    n: usize,
    k: usize,
    executor: &dyn Executor,
    fold: impl FnOnce() -> Result<()>,
) -> Result<()> {
    let elem = std::mem::size_of::<T>();
    let name = if rows.len() == n {
        format!("spmm E = -2*K*V^T (n={n}, k={k})")
    } else {
        format!(
            "spmm E[{}..{}] = -2*K_tile*V^T (n={n}, k={k})",
            rows.start, rows.end
        )
    };
    executor.run(
        name,
        Phase::PairwiseDistances,
        OpClass::SpMM,
        OpCost::spmm_kvt_rows(rows.len(), n, k, elem, INDEX_BYTES)
            .with_utilization(spmm_utilization(k)),
        fold,
    )
}

/// Run one CSR panel fold of `E = −2 K Vᵀ` under its record: a
/// cuSPARSE-class SpMM priced on the panel's `nnz`, not `rows × n`.
pub(crate) fn run_csr_tile_fold<T: Scalar>(
    rows: std::ops::Range<usize>,
    nnz: usize,
    n: usize,
    k: usize,
    executor: &dyn Executor,
    fold: impl FnOnce() -> Result<()>,
) -> Result<()> {
    let elem = std::mem::size_of::<T>();
    executor.run(
        format!(
            "spmm E[{}..{}] = -2*K_csr*V^T (n={n}, k={k}, nnz={nnz})",
            rows.start, rows.end
        ),
        Phase::PairwiseDistances,
        OpClass::SpMM,
        OpCost::spmm_csr_kvt_rows(nnz, rows.len(), n, k, elem, INDEX_BYTES)
            .with_utilization(spmm_utilization(k)),
        fold,
    )
}

/// Per-cluster fold weights `1/|L_j|` — exactly the stored values of the
/// selection matrix `V` (bitwise: both sides compute
/// `T::ONE / T::from_usize(|L_j|)`), with empty clusters at zero (their
/// weight is never read: no stored kernel entry maps to an empty cluster).
/// Computed once per iteration so the sparse fold stays alloc-free per tile.
pub fn selection_weights<T: Scalar>(selection: &SelectionMatrix<T>) -> Vec<T> {
    selection
        .cardinalities()
        .iter()
        .map(|&card| {
            if card == 0 {
                T::ZERO
            } else {
                T::ONE / T::from_usize(card)
            }
        })
        .collect()
}

/// Finish one iteration's distance matrix from the fully accumulated
/// `E = −2 K Vᵀ`: the gather, the SpMV centroid-norm trick and the assembly
/// kernel (paper Alg. 2 lines 8–10).
pub fn finish_distances<T: Scalar>(
    mut e: DenseMatrix<T>,
    point_norms: &[T],
    selection: &SelectionMatrix<T>,
    executor: &dyn Executor,
) -> Result<DistanceOutput<T>> {
    let n = selection.n();
    let k = selection.k();
    let elem = std::mem::size_of::<T>();

    // z_i = −0.5 · E[i, cluster(i)]  (gather; paper Alg. 2 line 8)
    let minus_half = T::from_f64(-0.5);
    let z = executor.run(
        "gather z from E",
        Phase::PairwiseDistances,
        OpClass::Elementwise,
        OpCost::elementwise(n, 1, 1, 1, elem),
        || -> Result<Vec<T>> {
            let gathered = selection.gather_z(&e)?;
            Ok(gathered.into_iter().map(|v| minus_half * v).collect())
        },
    )?;

    // C̃ = V z  (SpMV; paper Alg. 2 line 9)
    let centroid_norms = executor.run(
        format!("spmv c_norms = V*z (n={n}, k={k})"),
        Phase::PairwiseDistances,
        OpClass::SpMV,
        OpCost::spmv(selection.csr().nnz(), k, n, elem, INDEX_BYTES),
        || spmv(T::ONE, selection.csr(), &z),
    )?;

    // D = E + P̃ + C̃  (assembly kernel; paper Alg. 2 line 10)
    executor.run(
        format!("assemble D = E + P~ + C~ (n={n}, k={k})"),
        Phase::PairwiseDistances,
        OpClass::Elementwise,
        OpCost::elementwise_elems(n as u64 * k as u64, 1, 1, 2, elem),
        || assemble(&mut e, point_norms, &centroid_norms),
    )?;

    Ok(DistanceOutput {
        distances: e,
        centroid_norms,
    })
}

/// Compute `D = −2KVᵀ + P̃ + C̃` for the current assignment from a resident
/// kernel matrix (the single-tile case of the streaming path; used directly
/// by the distance-phase experiments and benches).
pub fn compute_distances<T: Scalar>(
    kernel_matrix: &DenseMatrix<T>,
    point_norms: &[T],
    selection: &SelectionMatrix<T>,
    executor: &dyn Executor,
) -> Result<DistanceOutput<T>> {
    let n = kernel_matrix.rows();
    let k = selection.k();
    let mut e = DenseMatrix::zeros(n, k);
    accumulate_distance_tile(&mut e, 0..n, kernel_matrix, selection, executor)?;
    finish_distances(e, point_norms, selection, executor)
}

fn assemble<T: Scalar>(
    e: &mut DenseMatrix<T>,
    point_norms: &[T],
    centroid_norms: &[T],
) -> Result<()> {
    popcorn_dense::ops::assemble_distances(e, point_norms, centroid_norms)?;
    Ok(())
}

/// Reference distance computation straight from the definition
/// `D[i][j] = ‖φ(pᵢ) − c_j‖² = K_ii − (2/|L_j|) Σ_{q∈L_j} K_iq +
/// (1/|L_j|²) Σ_{p,q∈L_j} K_pq`, used by tests to validate the
/// matrix-centric path.
pub fn compute_distances_reference<T: Scalar>(
    kernel_matrix: &DenseMatrix<T>,
    assignments: &[usize],
    k: usize,
) -> DenseMatrix<T> {
    let n = kernel_matrix.rows();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        members[c].push(i);
    }
    // Precompute the per-cluster double sums.
    let cluster_self: Vec<f64> = members
        .iter()
        .map(|m| {
            let mut s = 0.0;
            for &p in m {
                for &q in m {
                    s += kernel_matrix[(p, q)].to_f64();
                }
            }
            if m.is_empty() {
                0.0
            } else {
                s / (m.len() * m.len()) as f64
            }
        })
        .collect();
    DenseMatrix::from_fn(n, k, |i, j| {
        let m = &members[j];
        if m.is_empty() {
            // An empty cluster has centroid at the origin of feature space.
            return T::from_f64(kernel_matrix[(i, i)].to_f64());
        }
        let cross: f64 = m
            .iter()
            .map(|&q| kernel_matrix[(i, q)].to_f64())
            .sum::<f64>()
            / m.len() as f64;
        T::from_f64(kernel_matrix[(i, i)].to_f64() - 2.0 * cross + cluster_self[j])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::{FoldWeights, SelectionFold};
    use crate::kernel::{kernel_matrix_reference, KernelFunction};
    use popcorn_dense::diagonal;
    use popcorn_gpusim::SimExecutor;

    fn setup(kernel: KernelFunction) -> (DenseMatrix<f64>, Vec<usize>) {
        let points = DenseMatrix::from_fn(9, 3, |i, j| ((i * 3 + j) as f64 * 0.31).cos());
        let k_matrix = kernel_matrix_reference(&points, kernel);
        let assignments = vec![0, 1, 2, 0, 1, 2, 0, 1, 0];
        (k_matrix, assignments)
    }

    #[test]
    fn matrix_centric_distances_match_reference() {
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 1.0,
                sigma: 1.5,
            },
        ] {
            let (k_matrix, assignments) = setup(kernel);
            let selection = SelectionMatrix::from_assignments(&assignments, 3).unwrap();
            let p_norms = diagonal(&k_matrix).unwrap();
            let exec = SimExecutor::a100_f32();
            let out = compute_distances(&k_matrix, &p_norms, &selection, &exec).unwrap();
            let reference = compute_distances_reference(&k_matrix, &assignments, 3);
            assert!(
                out.distances.approx_eq(&reference, 1e-9, 1e-9),
                "kernel {} distances disagree",
                kernel.name()
            );
        }
    }

    #[test]
    fn centroid_norms_match_explicit_vkvt_diagonal() {
        let (k_matrix, assignments) = setup(KernelFunction::paper_polynomial());
        let selection = SelectionMatrix::from_assignments(&assignments, 3).unwrap();
        let p_norms = diagonal(&k_matrix).unwrap();
        let exec = SimExecutor::a100_f32();
        let out = compute_distances(&k_matrix, &p_norms, &selection, &exec).unwrap();
        // Explicit V K Vᵀ diagonal (the wasteful approach the SpMV trick avoids).
        let v_dense = selection.csr().to_dense();
        let vk = popcorn_dense::matmul(&v_dense, &k_matrix).unwrap();
        let vkvt = popcorn_dense::matmul_nt(&vk, &v_dense).unwrap();
        for j in 0..3 {
            assert!(
                (out.centroid_norms[j] - vkvt[(j, j)]).abs() < 1e-9,
                "centroid {j}: {} vs {}",
                out.centroid_norms[j],
                vkvt[(j, j)]
            );
        }
    }

    #[test]
    fn distances_are_nonnegative_and_zero_for_singleton_own_cluster() {
        // A point alone in its cluster is its own centroid: distance 0.
        let points =
            DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![5.0, 5.0], vec![1.1, 0.1]]).unwrap();
        let k_matrix = kernel_matrix_reference(&points, KernelFunction::Linear);
        let assignments = vec![0, 1, 0];
        let selection = SelectionMatrix::from_assignments(&assignments, 2).unwrap();
        let p_norms = diagonal(&k_matrix).unwrap();
        let exec = SimExecutor::a100_f32();
        let out = compute_distances(&k_matrix, &p_norms, &selection, &exec).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!(
                    out.distances[(i, j)] > -1e-9,
                    "negative distance at ({i},{j})"
                );
            }
        }
        assert!(out.distances[(1, 1)].abs() < 1e-9);
    }

    #[test]
    fn operations_charged_to_distance_phase() {
        let (k_matrix, assignments) = setup(KernelFunction::Linear);
        let selection = SelectionMatrix::from_assignments(&assignments, 3).unwrap();
        let p_norms = diagonal(&k_matrix).unwrap();
        let exec = SimExecutor::a100_f32();
        compute_distances(&k_matrix, &p_norms, &selection, &exec).unwrap();
        let trace = exec.trace();
        assert_eq!(trace.len(), 4, "SpMM + gather + SpMV + assembly");
        assert!(trace.phase_modeled_seconds(Phase::PairwiseDistances) > 0.0);
        assert_eq!(trace.phase_modeled_seconds(Phase::KernelMatrix), 0.0);
        let (spmm_time, spmm_flops) = trace.class_summary(OpClass::SpMM);
        assert!(spmm_time > 0.0);
        assert_eq!(spmm_flops, 2 * 9 * 9);
        let (spmv_time, _) = trace.class_summary(OpClass::SpMV);
        assert!(spmv_time > 0.0);
    }

    #[test]
    fn tiled_accumulation_is_bit_identical_to_one_shot_spmm() {
        // The distance SpMM computes each output row from the matching row of
        // K, so assembling E from row tiles must reproduce the one-shot
        // product bit for bit — the invariant the streaming path rests on.
        let (k_matrix, assignments) = setup(KernelFunction::paper_polynomial());
        let selection = SelectionMatrix::from_assignments(&assignments, 3).unwrap();
        let p_norms = diagonal(&k_matrix).unwrap();
        let exec = SimExecutor::a100_f32();
        let full = compute_distances(&k_matrix, &p_norms, &selection, &exec).unwrap();
        for tile_rows in [1usize, 2, 4, 9] {
            let mut e = DenseMatrix::zeros(9, 3);
            let mut r0 = 0;
            while r0 < 9 {
                let r1 = (r0 + tile_rows).min(9);
                let tile =
                    DenseMatrix::from_vec(r1 - r0, 9, k_matrix.as_slice()[r0 * 9..r1 * 9].to_vec())
                        .unwrap();
                accumulate_distance_tile(&mut e, r0..r1, &tile, &selection, &exec).unwrap();
                r0 = r1;
            }
            let tiled = finish_distances(e, &p_norms, &selection, &exec).unwrap();
            for i in 0..9 {
                for j in 0..3 {
                    assert_eq!(
                        tiled.distances[(i, j)].to_bits(),
                        full.distances[(i, j)].to_bits(),
                        "tile_rows {tile_rows} entry ({i},{j})"
                    );
                }
            }
            assert_eq!(tiled.centroid_norms, full.centroid_norms);
        }
    }

    #[test]
    fn tile_charges_sum_to_the_full_spmm_flops() {
        let (k_matrix, assignments) = setup(KernelFunction::Linear);
        let selection = SelectionMatrix::from_assignments(&assignments, 3).unwrap();
        let exec = SimExecutor::a100_f32();
        let mut e = DenseMatrix::zeros(9, 3);
        for (r0, r1) in [(0usize, 4usize), (4, 9)] {
            let tile =
                DenseMatrix::from_vec(r1 - r0, 9, k_matrix.as_slice()[r0 * 9..r1 * 9].to_vec())
                    .unwrap();
            accumulate_distance_tile(&mut e, r0..r1, &tile, &selection, &exec).unwrap();
        }
        let (_, spmm_flops) = exec.trace().class_summary(OpClass::SpMM);
        assert_eq!(spmm_flops, 2 * 9 * 9, "tiles cover the full 2n² FLOPs");
        assert_eq!(exec.trace().len(), 2);
    }

    #[test]
    fn csr_fold_at_full_density_is_bit_identical_to_the_dense_fold() {
        // A CSR panel storing EVERY entry (including explicit zeros) must
        // reproduce the dense SpMM fold bit for bit — at any tile height,
        // with an empty cluster in the mix.
        let (k_matrix, _) = setup(KernelFunction::paper_polynomial());
        let assignments = vec![0, 2, 0, 2, 2, 0, 2, 0, 2]; // cluster 1 empty
        let selection = SelectionMatrix::from_assignments(&assignments, 3).unwrap();
        let weights = selection_weights(&selection);
        assert_eq!(weights[1], 0.0);
        let exec = SimExecutor::a100_f32();
        let mut dense_e = DenseMatrix::zeros(9, 3);
        accumulate_distance_tile(&mut dense_e, 0..9, &k_matrix, &selection, &exec).unwrap();
        let all_entries = popcorn_sparse::CsrMatrix::from_raw(
            9,
            9,
            (0..=9).map(|i| i * 9).collect(),
            (0..81).map(|e| e % 9).collect(),
            k_matrix.as_slice().to_vec(),
        )
        .unwrap();
        let source = crate::FullKernel::new(&k_matrix).unwrap();
        let mut fold = SelectionFold::new(FoldWeights::Mean, -2.0);
        for tile_rows in [1usize, 2, 4, 9] {
            fold.begin(&source, selection.clone(), false);
            let mut r0 = 0;
            while r0 < 9 {
                let r1 = (r0 + tile_rows).min(9);
                let panel = all_entries.rows_view(r0..r1);
                run_csr_tile_fold::<f64>(r0..r1, panel.nnz(), 9, 3, &exec, || {
                    fold.panel(r0..r1, crate::kernel_source::Panel::Csr(panel))
                })
                .unwrap();
                r0 = r1;
            }
            let e = fold.finish();
            for i in 0..9 {
                for j in 0..3 {
                    assert_eq!(
                        e[(i, j)].to_bits(),
                        dense_e[(i, j)].to_bits(),
                        "tile_rows {tile_rows} entry ({i},{j})"
                    );
                }
            }
        }
        // The sparse charge is priced on nnz under the SpMM class.
        let (_, spmm_flops) = exec.trace().class_summary(OpClass::SpMM);
        assert!(spmm_flops > 0);
    }

    #[test]
    fn utilization_heuristic_shape() {
        assert!(spmm_utilization(10) < spmm_utilization(50));
        assert!(spmm_utilization(50) < spmm_utilization(100));
        assert!((spmm_utilization(100) - 0.9).abs() < 1e-12);
        assert!((spmm_utilization(1000) - 0.9).abs() < 1e-12);
        assert!(spmm_utilization(1) >= 0.5);
        assert!(spmm_utilization(1) <= 1.0);
    }

    #[test]
    fn reference_handles_empty_clusters() {
        let (k_matrix, assignments) = setup(KernelFunction::Linear);
        // Use k=5 so clusters 3 and 4 are empty.
        let reference = compute_distances_reference(&k_matrix, &assignments, 5);
        assert_eq!(reference.cols(), 5);
        for i in 0..9 {
            assert_eq!(reference[(i, 4)], k_matrix[(i, i)]);
        }
    }
}
