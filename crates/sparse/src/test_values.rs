//! Test inputs that stress the bit-identity of the FMA-dispatched kernels.

use crate::CsrMatrix;
use popcorn_dense::{DenseMatrix, Scalar};

/// An awkward value for entry `(i, j)`: signed zeros, subnormals, ±∞ and a
/// product whose fused and unfused roundings differ, among ordinary values.
fn awkward_value<T: Scalar>(i: usize, j: usize, cols: usize, salt: usize) -> T {
    let v = match (i * 31 + j * 17 + salt * 7) % 41 {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2..=5 => -0.0,
        6 | 7 => 0.0,
        8 | 9 => 1e-40, // subnormal in f32
        10 => -1e-310,  // subnormal in f64
        11 | 12 => 1.0 + f64::EPSILON,
        _ => ((i * cols + j + salt) as f64 * 0.37).sin() * 3.0,
    };
    T::from_f64(v)
}

/// A finite awkward value for entry `(i, j)`: values whose products
/// underflow to `−0` in f32 and f64 alike, explicit ±0 and `1 + ε`, among
/// ordinary values.
fn finite_awkward_value<T: Scalar>(i: usize, j: usize, cols: usize, salt: usize) -> T {
    // Normal in T, with a square far below T's smallest subnormal.
    let tiny = T::MAX.to_f64().powf(-0.75);
    let v = match (i * 31 + j * 17 + salt * 7) % 11 {
        0..=2 => -tiny,
        3..=5 => tiny,
        6 => -0.0,
        7 => 0.0,
        8 => 1.0 + T::EPSILON.to_f64(),
        _ => ((i * cols + j + salt) as f64 * 0.37).sin() * 3.0,
    };
    T::from_f64(v)
}

/// A dense matrix of [`awkward_value`]s.
pub(crate) fn awkward_dense<T: Scalar>(rows: usize, cols: usize, salt: usize) -> DenseMatrix<T> {
    std::hint::black_box(DenseMatrix::from_fn(rows, cols, |i, j| {
        awkward_value(i, j, cols, salt)
    }))
}

/// A CSR matrix storing about two thirds of its entries, each an
/// [`awkward_value`] (explicit zeros included).
pub(crate) fn awkward_csr<T: Scalar>(rows: usize, cols: usize, salt: usize) -> CsrMatrix<T> {
    csr_of(rows, cols, |i, j| {
        (!(i * 5 + j * 3 + salt).is_multiple_of(3)).then(|| awkward_value(i, j, cols, salt))
    })
}

/// A CSR matrix of [`finite_awkward_value`]s. Where [`awkward_csr`] stores
/// whole rows, each row here stores its own two thirds of the columns, so
/// pairs of rows share some columns and not others.
pub(crate) fn finite_awkward_csr<T: Scalar>(rows: usize, cols: usize, salt: usize) -> CsrMatrix<T> {
    csr_of(rows, cols, |i, j| {
        (!(2 * i + j + salt).is_multiple_of(3)).then(|| finite_awkward_value(i, j, cols, salt))
    })
}

/// A CSR matrix storing `value(i, j)` wherever it is `Some`.
fn csr_of<T: Scalar>(
    rows: usize,
    cols: usize,
    value: impl Fn(usize, usize) -> Option<T>,
) -> CsrMatrix<T> {
    let mut row_ptrs = vec![0];
    let mut col_indices = Vec::new();
    let mut values = Vec::new();
    for i in 0..rows {
        for (j, v) in (0..cols).filter_map(|j| value(i, j).map(|v| (j, v))) {
            col_indices.push(j);
            values.push(v);
        }
        row_ptrs.push(values.len());
    }
    let m = CsrMatrix::from_raw(rows, cols, row_ptrs, col_indices, values).expect("valid CSR");
    std::hint::black_box(m)
}
