//! Row-major dense matrix.
//!
//! The paper stores the point matrix `P̂`, the kernel matrix `K` and the
//! distance matrix `D` as row-major dense buffers on the device. This module
//! provides the equivalent host container used throughout the workspace.

use crate::errors::DenseError;
use crate::scalar::{approx_eq, Scalar};
use crate::Result;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix over a floating point scalar.
///
/// Element `(i, j)` lives at offset `i * cols + j` of the backing buffer,
/// mirroring the layout used by the CUDA implementation in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Create a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Create a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = T::ONE;
        }
        m
    }

    /// Build a matrix from a row-major buffer.
    ///
    /// Returns [`DenseError::BufferSizeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(DenseError::BufferSizeMismatch {
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Build a matrix from a slice of equally long rows.
    pub fn from_rows(rows: &[Vec<T>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(DenseError::DimensionMismatch {
                    op: "from_rows",
                    expected: (i, cols),
                    found: (i, r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Build a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` when `rows == cols`.
    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the backing row-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element access with bounds checking.
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        if i >= self.rows || j >= self.cols {
            return Err(DenseError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Set an element with bounds checking.
    pub fn set(&mut self, i: usize, j: usize, value: T) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(DenseError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        self.data[i * self.cols + j] = value;
        Ok(())
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<T> {
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Fill the whole matrix with a value.
    pub fn fill(&mut self, value: T) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Out-of-place transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Return a new matrix with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(T) -> T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise `self - other` as a new matrix.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        if self.shape() != other.shape() {
            return Err(DenseError::DimensionMismatch {
                op: "sub",
                expected: self.shape(),
                found: other.shape(),
            });
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
        })
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale(&mut self, alpha: T) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Extract a sub-matrix of the given rows (copies).
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(DenseError::IndexOutOfBounds {
                    index: (i, 0),
                    shape: self.shape(),
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Self {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Approximate elementwise equality with relative tolerance `rtol` and
    /// absolute tolerance `atol`.
    pub fn approx_eq(&self, other: &Self, rtol: f64, atol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| approx_eq(a, b, rtol, atol))
    }

    /// Convert every element to another scalar type.
    pub fn cast<U: Scalar>(&self) -> DenseMatrix<U> {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect(),
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = DenseMatrix::<f64>::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_empty());
        assert!(!m.is_square());
    }

    #[test]
    fn empty_matrix() {
        let m = DenseMatrix::<f32>::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn identity_diagonal() {
        let m = DenseMatrix::<f64>::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
        assert!(m.is_square());
    }

    #[test]
    fn from_vec_checks_size() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f64; 4]).is_ok());
        let err = DenseMatrix::from_vec(2, 2, vec![1.0f64; 3]).unwrap_err();
        assert!(matches!(
            err,
            DenseError::BufferSizeMismatch {
                expected: 4,
                found: 3
            }
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let ok = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok[(1, 0)], 3.0);
        let err = DenseMatrix::from_rows(&[vec![1.0f64], vec![2.0, 3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn from_fn_layout() {
        let m = DenseMatrix::<f64>::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn get_set_bounds() {
        let mut m = DenseMatrix::<f32>::zeros(2, 2);
        m.set(0, 1, 5.0).unwrap();
        assert_eq!(m.get(0, 1).unwrap(), 5.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn row_and_col_access() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn map_and_scale() {
        let mut m = DenseMatrix::from_rows(&[vec![1.0f64, -2.0]]).unwrap();
        let mapped = m.map(|x| x * x);
        assert_eq!(mapped.as_slice(), &[1.0, 4.0]);
        m.scale(3.0);
        assert_eq!(m.as_slice(), &[3.0, -6.0]);
    }

    #[test]
    fn sub_is_elementwise() {
        let a = DenseMatrix::from_rows(&[vec![1.0f64, 2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![10.0f64, 20.0]]).unwrap();
        let d = b.sub(&a).unwrap();
        assert_eq!(d.as_slice(), &[9.0, 18.0]);
        let bad = DenseMatrix::<f64>::zeros(2, 2);
        assert!(b.sub(&bad).is_err());
    }

    #[test]
    fn select_rows_subset() {
        let m =
            DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let s = m.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert!(m.select_rows(&[3]).is_err());
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = DenseMatrix::from_rows(&[vec![1.0f64, 2.0]]).unwrap();
        let mut b = a.clone();
        b[(0, 1)] += 1e-12;
        assert!(a.approx_eq(&b, 1e-9, 1e-9));
        b[(0, 0)] = 2.0;
        assert!(!a.approx_eq(&b, 1e-9, 1e-9));
    }

    #[test]
    fn cast_between_precisions() {
        let a = DenseMatrix::from_rows(&[vec![1.5f64, -2.25]]).unwrap();
        let b: DenseMatrix<f32> = a.cast();
        assert_eq!(b[(0, 0)], 1.5f32);
        assert_eq!(b[(0, 1)], -2.25f32);
    }

    #[test]
    fn filled_constant() {
        let m = DenseMatrix::<f64>::filled(2, 2, 7.5);
        assert!(m.as_slice().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn into_vec_returns_buffer() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0]]).unwrap();
        assert_eq!(m.into_vec(), vec![1.0, 2.0]);
    }
}
