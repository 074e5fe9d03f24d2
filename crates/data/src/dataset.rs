//! The in-memory dataset containers.
//!
//! [`Dataset`] holds dense points; [`SparseDataset`] holds CSR points and is
//! what the sparse-preserving libSVM loader produces, so the paper's
//! high-dimensional text workloads (scotus: d = 126 405, ~99.9% zeros) are
//! carried to the solvers without ever being densified.

use crate::{DataError, Result};
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_sparse::CsrMatrix;

/// A dataset: a dense `n × d` point matrix (the paper's `P̂`), an optional
/// ground-truth label per point, and a human-readable name.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset<T: Scalar> {
    name: String,
    points: DenseMatrix<T>,
    labels: Option<Vec<usize>>,
}

impl<T: Scalar> Dataset<T> {
    /// Create a dataset from a point matrix.
    pub fn new(name: impl Into<String>, points: DenseMatrix<T>) -> Self {
        Self {
            name: name.into(),
            points,
            labels: None,
        }
    }

    /// Create a dataset with ground-truth labels.
    pub fn with_labels(
        name: impl Into<String>,
        points: DenseMatrix<T>,
        labels: Vec<usize>,
    ) -> Result<Self> {
        if labels.len() != points.rows() {
            return Err(DataError::Shape(format!(
                "{} labels for {} points",
                labels.len(),
                points.rows()
            )));
        }
        Ok(Self {
            name: name.into(),
            points,
            labels: Some(labels),
        })
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points `n`.
    pub fn n(&self) -> usize {
        self.points.rows()
    }

    /// Number of features `d`.
    pub fn d(&self) -> usize {
        self.points.cols()
    }

    /// The point matrix `P̂` (n × d, row-major).
    pub fn points(&self) -> &DenseMatrix<T> {
        &self.points
    }

    /// Mutable access to the point matrix.
    pub fn points_mut(&mut self) -> &mut DenseMatrix<T> {
        &mut self.points
    }

    /// Ground-truth labels, when known.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// Number of distinct ground-truth classes (0 when unlabelled).
    pub fn num_classes(&self) -> usize {
        match &self.labels {
            None => 0,
            Some(l) => {
                let mut sorted: Vec<usize> = l.clone();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len()
            }
        }
    }

    /// Size of the point matrix in bytes at the given element width — used by
    /// the simulator to charge the host→device transfer (paper §4.1).
    pub fn bytes(&self, elem: usize) -> u64 {
        (self.n() * self.d() * elem) as u64
    }

    /// Take the first `n` points (cheap truncation used by `--scale` options).
    pub fn head(&self, n: usize) -> Self {
        let n = n.min(self.n());
        let indices: Vec<usize> = (0..n).collect();
        let points = self.points.select_rows(&indices).expect("indices in range");
        let labels = self.labels.as_ref().map(|l| l[..n].to_vec());
        Self {
            name: self.name.clone(),
            points,
            labels,
        }
    }

    /// Convert the dataset to another scalar precision.
    pub fn cast<U: Scalar>(&self) -> Dataset<U> {
        Dataset {
            name: self.name.clone(),
            points: self.points.cast(),
            labels: self.labels.clone(),
        }
    }

    /// The point matrix as CSR (explicit zeros are dropped). Use this to
    /// route an already-dense dataset through a solver's sparse fit path.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        CsrMatrix::from_dense(&self.points)
    }
}

/// A dataset whose points are stored in CSR form: an `n × d` sparse matrix,
/// an optional ground-truth label per point, and a human-readable name.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDataset<T: Scalar> {
    name: String,
    points: CsrMatrix<T>,
    labels: Option<Vec<usize>>,
}

impl<T: Scalar> SparseDataset<T> {
    /// Create a sparse dataset from a CSR point matrix.
    pub fn new(name: impl Into<String>, points: CsrMatrix<T>) -> Self {
        Self {
            name: name.into(),
            points,
            labels: None,
        }
    }

    /// Create a sparse dataset with ground-truth labels.
    pub fn with_labels(
        name: impl Into<String>,
        points: CsrMatrix<T>,
        labels: Vec<usize>,
    ) -> Result<Self> {
        if labels.len() != points.rows() {
            return Err(DataError::Shape(format!(
                "{} labels for {} points",
                labels.len(),
                points.rows()
            )));
        }
        Ok(Self {
            name: name.into(),
            points,
            labels: Some(labels),
        })
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points `n`.
    pub fn n(&self) -> usize {
        self.points.rows()
    }

    /// Number of features `d`.
    pub fn d(&self) -> usize {
        self.points.cols()
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.points.nnz()
    }

    /// Stored-entry fraction `nnz / (n·d)`.
    pub fn density(&self) -> f64 {
        self.points.density()
    }

    /// The CSR point matrix `P̂`.
    pub fn points(&self) -> &CsrMatrix<T> {
        &self.points
    }

    /// Ground-truth labels, when known.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// Number of distinct ground-truth classes (0 when unlabelled).
    pub fn num_classes(&self) -> usize {
        match &self.labels {
            None => 0,
            Some(l) => {
                let mut sorted: Vec<usize> = l.clone();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len()
            }
        }
    }

    /// Densify into a [`Dataset`] (same name and labels). This is the step
    /// the sparse fit path exists to avoid; it is provided for baselines and
    /// cross-validation tests.
    pub fn to_dense(&self) -> Dataset<T> {
        Dataset {
            name: self.name.clone(),
            points: self.points.to_dense(),
            labels: self.labels.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let d = Dataset::new("toy", points());
        assert_eq!(d.name(), "toy");
        assert_eq!(d.n(), 3);
        assert_eq!(d.d(), 2);
        assert!(d.labels().is_none());
        assert_eq!(d.num_classes(), 0);
        assert_eq!(d.bytes(4), 24);
    }

    #[test]
    fn labels_validated() {
        let ok = Dataset::with_labels("toy", points(), vec![0, 1, 0]).unwrap();
        assert_eq!(ok.labels().unwrap(), &[0, 1, 0]);
        assert_eq!(ok.num_classes(), 2);
        assert!(Dataset::with_labels("toy", points(), vec![0, 1]).is_err());
    }

    #[test]
    fn head_truncates_points_and_labels() {
        let d = Dataset::with_labels("toy", points(), vec![0, 1, 2]).unwrap();
        let h = d.head(2);
        assert_eq!(h.n(), 2);
        assert_eq!(h.labels().unwrap(), &[0, 1]);
        // asking for more than available is a no-op
        assert_eq!(d.head(10).n(), 3);
    }

    #[test]
    fn cast_changes_precision() {
        let d = Dataset::new("toy", points());
        let f: Dataset<f32> = d.cast();
        assert_eq!(f.points()[(2, 1)], 6.0f32);
        assert_eq!(f.n(), 3);
    }

    #[test]
    fn dense_sparse_round_trip() {
        let d = Dataset::with_labels("toy", points(), vec![0, 1, 0]).unwrap();
        let sparse = SparseDataset::with_labels("toy", d.to_csr(), vec![0, 1, 0]).unwrap();
        assert_eq!(sparse.name(), "toy");
        assert_eq!(sparse.n(), 3);
        assert_eq!(sparse.d(), 2);
        assert_eq!(sparse.nnz(), 6);
        assert_eq!(sparse.density(), 1.0);
        assert_eq!(sparse.labels().unwrap(), &[0, 1, 0]);
        assert_eq!(sparse.num_classes(), 2);
        let back = sparse.to_dense();
        assert_eq!(back, d);
        assert_eq!(d.to_csr(), *sparse.points());
    }

    #[test]
    fn sparse_dataset_validates_labels() {
        let csr = popcorn_sparse::CsrMatrix::from_dense(&points());
        assert!(SparseDataset::with_labels("toy", csr.clone(), vec![0, 1]).is_err());
        let unlabelled = SparseDataset::new("toy", csr);
        assert!(unlabelled.labels().is_none());
        assert_eq!(unlabelled.num_classes(), 0);
    }
}
