//! Lloyd's assignment sweep: every point's nearest centroid in Euclidean
//! distance. The Lloyd solver's fit loop and a Lloyd model's serving path
//! both run it, each under its own record, so a training-set replay gives
//! the fit's labels bit for bit.
//!
//! Both layouts evaluate the *same* expansion
//! `‖x − c‖² = ‖c‖² + Σ_{x_j ≠ 0} ((x_j − c_j)² − c_j²)` — zero coordinates
//! contribute exactly `0.0`, so skipping them changes nothing — which makes
//! dense and CSR points produce bit-identical distances and labels, at
//! `O(nnz(x))` per centroid for a CSR point. The correction terms are summed
//! apart from the large `‖c‖²` offset so their precision survives the final
//! cancellation.

use crate::kernel_matrix::INDEX_BYTES;
use crate::solver::FitInput;
use popcorn_dense::Scalar;
use popcorn_gpusim::OpCost;

/// Each point's nearest centroid (the lower index on an exact tie) and the
/// objective: the sum of those nearest squared distances.
pub fn nearest_centroids<T: Scalar>(
    points: FitInput<'_, T>,
    centroids: &[Vec<f64>],
) -> (Vec<usize>, f64) {
    let sq_norms: Vec<f64> = centroids
        .iter()
        .map(|c| c.iter().map(|&x| x * x).sum())
        .collect();
    match points {
        FitInput::Dense(p) => sweep(p.rows(), centroids, &sq_norms, |i, centroid| {
            correction(p.row(i).iter().zip(centroid))
        }),
        FitInput::Sparse(p) => sweep(p.rows(), centroids, &sq_norms, |i, centroid| {
            let (cols, vals) = p.row(i);
            correction(vals.iter().zip(cols.iter().map(|&j| &centroid[j])))
        }),
    }
}

/// Modeled cost of one [`nearest_centroids`] sweep against `k` centroids.
pub fn sweep_cost<T: Scalar>(points: FitInput<'_, T>, k: usize) -> OpCost {
    let (n, d, k) = (points.n() as u64, points.d() as u64, k as u64);
    let elem = std::mem::size_of::<T>() as u64;
    match points {
        FitInput::Dense(_) => OpCost::new(3 * n * k * d, (n * d + k * d) * elem, n * elem),
        FitInput::Sparse(p) => {
            // Per centroid: one pass over the stored entries plus the ‖c‖²
            // term.
            let nnz = p.nnz() as u64;
            OpCost::new(
                (3 * nnz + n) * k,
                nnz * (elem + INDEX_BYTES as u64) + k * d * elem,
                n * elem,
            )
        }
    }
}

/// The argmin over centroids of `‖c‖² + correction_at(i, c)`, clamped at zero,
/// for each of `n` points.
fn sweep(
    n: usize,
    centroids: &[Vec<f64>],
    sq_norms: &[f64],
    correction_at: impl Fn(usize, &[f64]) -> f64,
) -> (Vec<usize>, f64) {
    let mut labels = vec![0usize; n];
    let mut objective = 0.0f64;
    for (i, slot) in labels.iter_mut().enumerate() {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let dist = (sq_norms[c] + correction_at(i, centroid)).max(0.0);
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        *slot = best;
        objective += best_d;
    }
    (labels, objective)
}

/// `Σ ((x_j − c_j)² − c_j²)` over the pairs `(x_j, c_j)` with `x_j ≠ 0`.
fn correction<'a, T: Scalar>(pairs: impl Iterator<Item = (&'a T, &'a f64)>) -> f64 {
    let mut correction = 0.0f64;
    for (x, &cj) in pairs {
        let x = x.to_f64();
        if x != 0.0 {
            let diff = x - cj;
            correction += diff * diff - cj * cj;
        }
    }
    correction
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::DenseMatrix;
    use popcorn_sparse::CsrMatrix;

    #[test]
    fn dense_and_csr_points_give_the_same_labels_and_objective_bits() {
        let dense = DenseMatrix::from_vec(
            4,
            3,
            vec![
                0.5, 0.0, -0.0, //
                0.0, 2.25, 1.0, //
                -1.5, 0.0, 0.75, //
                3.0, -0.0, 0.0,
            ],
        )
        .unwrap();
        // Every coordinate of row 0 and row 3 is stored, zeros and `-0.0`
        // included; rows 1 and 2 store only their non-zeros.
        let csr = CsrMatrix::from_raw(
            4,
            3,
            vec![0, 3, 5, 7, 10],
            vec![0, 1, 2, 1, 2, 0, 2, 0, 1, 2],
            vec![0.5, 0.0, -0.0, 2.25, 1.0, -1.5, 0.75, 3.0, -0.0, 0.0],
        )
        .unwrap();
        let centroids = vec![
            vec![0.1, 0.3, -0.2],
            vec![1.7, -0.4, 0.9],
            vec![-0.6, 2.0, 0.0],
        ];
        let (dense_labels, dense_objective) =
            nearest_centroids(FitInput::Dense(&dense), &centroids);
        let (csr_labels, csr_objective) = nearest_centroids(FitInput::Sparse(&csr), &centroids);
        assert_eq!(dense_labels, csr_labels);
        assert_eq!(dense_objective.to_bits(), csr_objective.to_bits());
        assert_eq!(dense_labels, vec![0, 2, 0, 1]);
    }

    #[test]
    fn an_exact_tie_keeps_the_lower_index() {
        // (1, 0) sits at squared distance 1 from both (0, 0) and (2, 0).
        let points = DenseMatrix::from_vec(1, 2, vec![1.0f64, 0.0]).unwrap();
        let near = vec![0.0, 0.0];
        let far = vec![2.0, 0.0];
        for centroids in [vec![near.clone(), far.clone()], vec![far, near]] {
            let (labels, objective) = nearest_centroids(FitInput::Dense(&points), &centroids);
            assert_eq!(labels, vec![0]);
            assert_eq!(objective, 1.0);
        }
    }
}
