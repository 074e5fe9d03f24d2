//! The cluster selection matrix `V` (paper Eq. 7).
//!
//! `V ∈ R^{k×n}` has one row per cluster and one column per point;
//! `V[j][i] = 1/|L_j|` when point `i` belongs to cluster `j` and 0 otherwise.
//! Two properties drive the whole Popcorn formulation:
//!
//! * `V` has **exactly one non-zero per column** (every point belongs to
//!   exactly one cluster), which is what makes the SpMV trick for centroid
//!   norms work (paper §3.3), and
//! * `V` has exactly `n` non-zeros in total, so `K Vᵀ` is an SpMM with
//!   `O(n²)` work and `V z` is an SpMV with `O(n)` work.
//!
//! The paper rebuilds `V`'s CSR arrays from the assignment array with a small
//! CUDA kernel each iteration (§4.1); [`SelectionMatrix::from_assignments`]
//! is the host equivalent (a counting sort over cluster labels).

use crate::csr::CsrMatrix;
use crate::errors::SparseError;
use crate::Result;
use popcorn_dense::Scalar;

/// The sparse selection matrix `V` together with the assignment metadata the
/// algorithm needs every iteration (cluster cardinalities and the assignment
/// array itself).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionMatrix<T: Scalar> {
    /// `V` as a k×n CSR matrix with entries `1/|L_j|`.
    csr: CsrMatrix<T>,
    /// `assignments[i]` = cluster of point `i`.
    assignments: Vec<usize>,
    /// `cardinalities[j]` = number of points in cluster `j`.
    cardinalities: Vec<usize>,
}

impl<T: Scalar> SelectionMatrix<T> {
    /// Build `V` from a cluster assignment array.
    ///
    /// `assignments[i]` must be `< k` for every point. Empty clusters are
    /// allowed (their row of `V` simply has no entries); the caller decides
    /// how to repair them (see `popcorn-core`'s empty-cluster handling).
    pub fn from_assignments(assignments: &[usize], k: usize) -> Result<Self> {
        if k == 0 {
            return Err(SparseError::Empty {
                op: "selection matrix (k = 0)",
            });
        }
        let n = assignments.len();
        if n == 0 {
            return Err(SparseError::Empty {
                op: "selection matrix (no points)",
            });
        }
        let mut cardinalities = vec![0usize; k];
        for (i, &label) in assignments.iter().enumerate() {
            if label >= k {
                return Err(SparseError::InvalidAssignment { point: i, label, k });
            }
            cardinalities[label] += 1;
        }

        // Counting sort of point indices by cluster label gives the CSR
        // structure directly: row j holds the (sorted) indices of the points
        // assigned to cluster j.
        let mut row_ptrs = vec![0usize; k + 1];
        for j in 0..k {
            row_ptrs[j + 1] = row_ptrs[j] + cardinalities[j];
        }
        let mut col_indices = vec![0usize; n];
        let mut values = vec![T::ZERO; n];
        let mut cursor = row_ptrs.clone();
        for (i, &label) in assignments.iter().enumerate() {
            let pos = cursor[label];
            col_indices[pos] = i;
            values[pos] = T::ONE / T::from_usize(cardinalities[label]);
            cursor[label] += 1;
        }
        // Point indices are visited in increasing order, so each row's column
        // indices are already strictly increasing.
        let csr = CsrMatrix::from_raw_unchecked(k, n, row_ptrs, col_indices, values);
        Ok(Self {
            csr,
            assignments: assignments.to_vec(),
            cardinalities,
        })
    }

    /// The underlying CSR matrix (k×n, entries `1/|L_j|`).
    pub fn csr(&self) -> &CsrMatrix<T> {
        &self.csr
    }

    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.csr.rows()
    }

    /// Number of points `n`.
    pub fn n(&self) -> usize {
        self.csr.cols()
    }

    /// The assignment array used to build this matrix.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Cluster cardinalities `|L_j|`.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cardinalities
    }

    /// Number of empty clusters.
    pub fn empty_clusters(&self) -> usize {
        self.cardinalities.iter().filter(|&&c| c == 0).count()
    }

    /// An unnormalised copy of `V` (entries 1 instead of `1/|L_j|`), i.e. the
    /// cluster indicator matrix. Used by baselines and tests.
    pub fn indicator(&self) -> CsrMatrix<T> {
        let mut m = self.csr.clone();
        for v in m.values_mut() {
            *v = T::ONE;
        }
        m
    }

    /// Gather the vector `z` (paper Eq. 14) from a dense matrix `E = −2KVᵀ`
    /// of shape n×k: `z[i] = E[i][cluster(i)]`.
    pub fn gather_z(&self, e: &popcorn_dense::DenseMatrix<T>) -> Result<Vec<T>> {
        if e.rows() != self.n() || e.cols() != self.k() {
            return Err(SparseError::DimensionMismatch {
                op: "gather_z",
                expected: (self.n(), self.k()),
                found: e.shape(),
            });
        }
        Ok(self
            .assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| e[(i, c)])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::DenseMatrix;

    #[test]
    fn builds_expected_structure() {
        // points: 0->c1, 1->c0, 2->c1, 3->c1, 4->c0
        let v = SelectionMatrix::<f64>::from_assignments(&[1, 0, 1, 1, 0], 2).unwrap();
        assert_eq!(v.k(), 2);
        assert_eq!(v.n(), 5);
        assert_eq!(v.cardinalities(), &[2, 3]);
        assert_eq!(v.csr().nnz(), 5);
        let dense = v.csr().to_dense();
        assert_eq!(dense[(0, 1)], 0.5);
        assert_eq!(dense[(0, 4)], 0.5);
        assert!((dense[(1, 0)] - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(dense[(1, 1)], 0.0);
    }

    #[test]
    fn exactly_one_nonzero_per_column() {
        let assignments: Vec<usize> = (0..50).map(|i| (i * 7 + 3) % 4).collect();
        let v = SelectionMatrix::<f64>::from_assignments(&assignments, 4).unwrap();
        let dense = v.csr().to_dense();
        for col in 0..50 {
            let nnz = (0..4).filter(|&row| dense[(row, col)] != 0.0).count();
            assert_eq!(nnz, 1, "column {col}");
        }
        assert_eq!(v.csr().nnz(), 50);
    }

    #[test]
    fn row_sums_are_one_for_nonempty_clusters() {
        let assignments = vec![0, 1, 2, 0, 1, 2, 0];
        let v = SelectionMatrix::<f64>::from_assignments(&assignments, 3).unwrap();
        let dense = v.csr().to_dense();
        for row in 0..3 {
            let sum: f64 = (0..7).map(|c| dense[(row, c)]).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn centroid_product_matches_mean() {
        // C = V P must equal per-cluster means of rows of P (paper Eq. 8).
        let p = DenseMatrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ])
        .unwrap();
        let assignments = vec![0, 1, 0, 1];
        let v = SelectionMatrix::<f64>::from_assignments(&assignments, 2).unwrap();
        let c = popcorn_dense::matmul(&v.csr().to_dense(), &p).unwrap();
        assert_eq!(c.row(0), &[3.0, 4.0]); // mean of rows 0 and 2
        assert_eq!(c.row(1), &[5.0, 6.0]); // mean of rows 1 and 3
    }

    #[test]
    fn empty_clusters_allowed_and_counted() {
        let v = SelectionMatrix::<f64>::from_assignments(&[0, 0, 0], 3).unwrap();
        assert_eq!(v.cardinalities(), &[3, 0, 0]);
        assert_eq!(v.empty_clusters(), 2);
        assert_eq!(v.csr().row_nnz(1), 0);
        assert_eq!(v.csr().nnz(), 3);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(matches!(
            SelectionMatrix::<f64>::from_assignments(&[0, 5, 1], 3),
            Err(SparseError::InvalidAssignment {
                point: 1,
                label: 5,
                k: 3
            })
        ));
        assert!(SelectionMatrix::<f64>::from_assignments(&[], 3).is_err());
        assert!(SelectionMatrix::<f64>::from_assignments(&[0, 1], 0).is_err());
    }

    #[test]
    fn indicator_has_unit_entries() {
        let v = SelectionMatrix::<f64>::from_assignments(&[0, 1, 1, 0], 2).unwrap();
        let ind = v.indicator();
        assert!(ind.values().iter().all(|&x| x == 1.0));
        assert_eq!(ind.nnz(), 4);
    }

    #[test]
    fn gather_z_picks_assigned_column() {
        let v = SelectionMatrix::<f64>::from_assignments(&[1, 0, 1], 2).unwrap();
        let e = DenseMatrix::from_rows(&[vec![10.0, 11.0], vec![20.0, 21.0], vec![30.0, 31.0]])
            .unwrap();
        assert_eq!(v.gather_z(&e).unwrap(), vec![11.0, 20.0, 31.0]);
        let bad = DenseMatrix::<f64>::zeros(3, 3);
        assert!(v.gather_z(&bad).is_err());
    }

    #[test]
    fn single_cluster_all_points() {
        let v = SelectionMatrix::<f64>::from_assignments(&[0; 10], 1).unwrap();
        let dense = v.csr().to_dense();
        for c in 0..10 {
            assert!((dense[(0, c)] - 0.1).abs() < 1e-15);
        }
    }

    #[test]
    fn assignments_round_trip() {
        let assignments = vec![2, 0, 1, 2, 2, 1];
        let v = SelectionMatrix::<f64>::from_assignments(&assignments, 3).unwrap();
        assert_eq!(v.assignments(), assignments.as_slice());
    }
}
