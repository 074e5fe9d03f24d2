//! Elementwise and broadcast operations.
//!
//! These are the host equivalents of the paper's small hand-written CUDA
//! kernels and `thrust::transform` calls: applying the kernel function to
//! every entry of `B`, and adding the implicitly stored `P̃` (one value per
//! row) and `C̃` (one value per column) vectors to `−2KVᵀ` when assembling
//! the distance matrix `D` (paper §4.3).

use crate::errors::DenseError;
use crate::fma::dispatch;
use crate::matrix::DenseMatrix;
use crate::parallel::par_chunks_rows;
use crate::scalar::Scalar;
use crate::Result;

/// `y += alpha * x` over two equally long slices.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) -> Result<()> {
    if x.len() != y.len() {
        return Err(DenseError::BufferSizeMismatch {
            expected: y.len(),
            found: x.len(),
        });
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha.mul_add(*xi, *yi);
    }
    Ok(())
}

/// Scale every element of a slice in place.
pub fn scale_in_place<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Elementwise (Hadamard) product of two matrices as a new matrix.
pub fn hadamard<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    if a.shape() != b.shape() {
        return Err(DenseError::DimensionMismatch {
            op: "hadamard",
            expected: a.shape(),
            found: b.shape(),
        });
    }
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice().iter()) {
        *o *= x;
    }
    Ok(out)
}

/// Add `row_values[i]` to every element of row `i`: `M[i][j] += row_values[i]`.
///
/// This realises the `+ P̃` term of Eq. 10, where `P̃` has identical columns
/// and is therefore stored as a single length-`n` vector.
pub fn add_row_broadcast<T: Scalar>(m: &mut DenseMatrix<T>, row_values: &[T]) -> Result<()> {
    if row_values.len() != m.rows() {
        return Err(DenseError::BufferSizeMismatch {
            expected: m.rows(),
            found: row_values.len(),
        });
    }
    let cols = m.cols();
    if cols == 0 {
        return Ok(());
    }
    par_chunks_rows(m.as_mut_slice(), cols, |start_row, chunk| {
        for (local_i, row) in chunk.chunks_exact_mut(cols).enumerate() {
            let v = row_values[start_row + local_i];
            for x in row.iter_mut() {
                *x += v;
            }
        }
    });
    Ok(())
}

/// Add `col_values[j]` to every element of column `j`: `M[i][j] += col_values[j]`.
///
/// This realises the `+ C̃` term of Eq. 10, where `C̃` has identical rows and
/// is therefore stored as a single length-`k` vector.
pub fn add_col_broadcast<T: Scalar>(m: &mut DenseMatrix<T>, col_values: &[T]) -> Result<()> {
    if col_values.len() != m.cols() {
        return Err(DenseError::BufferSizeMismatch {
            expected: m.cols(),
            found: col_values.len(),
        });
    }
    let cols = m.cols();
    if cols == 0 {
        return Ok(());
    }
    par_chunks_rows(m.as_mut_slice(), cols, |_start_row, chunk| {
        for row in chunk.chunks_exact_mut(cols) {
            for (x, v) in row.iter_mut().zip(col_values.iter()) {
                *x += *v;
            }
        }
    });
    Ok(())
}

/// Fused distance assembly: `D[i][j] = E[i][j] + p_norms[i] + c_norms[j]`,
/// performed in place on `E` (which holds `−2KVᵀ` on entry).
///
/// The paper implements exactly this as a single custom kernel with one
/// thread per entry (§4.3); fusing the two broadcasts halves the memory
/// traffic compared to calling [`add_row_broadcast`] then [`add_col_broadcast`].
///
/// Runs on the calling thread, FMA-dispatched: `E` is `n × k`, 64K entries
/// at `n = 4000, k = 16`, which cost less than starting the kernel threads
/// would. Each entry is its own addition, so no bit depends on the split.
pub fn assemble_distances<T: Scalar>(
    e: &mut DenseMatrix<T>,
    p_norms: &[T],
    c_norms: &[T],
) -> Result<()> {
    if p_norms.len() != e.rows() {
        return Err(DenseError::BufferSizeMismatch {
            expected: e.rows(),
            found: p_norms.len(),
        });
    }
    if c_norms.len() != e.cols() {
        return Err(DenseError::BufferSizeMismatch {
            expected: e.cols(),
            found: c_norms.len(),
        });
    }
    let cols = e.cols();
    if cols == 0 {
        return Ok(());
    }
    dispatch(
        #[inline(always)]
        || {
            for (row, &p) in e.as_mut_slice().chunks_exact_mut(cols).zip(p_norms) {
                for (x, c) in row.iter_mut().zip(c_norms.iter()) {
                    *x += p + *c;
                }
            }
        },
    );
    Ok(())
}

/// Sum of all elements of a matrix (in `f64` to avoid precision loss).
pub fn sum_all<T: Scalar>(m: &DenseMatrix<T>) -> f64 {
    m.as_slice().iter().map(|x| x.to_f64()).sum()
}

/// Dot product of two equally long slices, accumulated in the scalar type.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> Result<T> {
    if x.len() != y.len() {
        return Err(DenseError::BufferSizeMismatch {
            expected: x.len(),
            found: y.len(),
        });
    }
    let mut acc = T::ZERO;
    for (a, b) in x.iter().zip(y.iter()) {
        acc = a.mul_add(*b, acc);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = vec![1.0f64, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y).unwrap();
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        let short = vec![1.0];
        assert!(axpy(1.0, &short, &mut y).is_err());
    }

    #[test]
    fn scale_in_place_basic() {
        let mut x = vec![1.0f32, -2.0, 4.0];
        scale_in_place(0.5, &mut x);
        assert_eq!(x, vec![0.5, -1.0, 2.0]);
    }

    #[test]
    fn hadamard_product() {
        let a = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![5.0f64, 6.0], vec![7.0, 8.0]]).unwrap();
        let h = hadamard(&a, &b).unwrap();
        assert_eq!(h.as_slice(), &[5.0, 12.0, 21.0, 32.0]);
        let bad = DenseMatrix::<f64>::zeros(1, 2);
        assert!(hadamard(&a, &bad).is_err());
    }

    #[test]
    fn row_broadcast_adds_per_row() {
        let mut m = DenseMatrix::<f64>::zeros(3, 2);
        add_row_broadcast(&mut m, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.row(0), &[1.0, 1.0]);
        assert_eq!(m.row(1), &[2.0, 2.0]);
        assert_eq!(m.row(2), &[3.0, 3.0]);
        assert!(add_row_broadcast(&mut m, &[1.0]).is_err());
    }

    #[test]
    fn col_broadcast_adds_per_col() {
        let mut m = DenseMatrix::<f64>::zeros(2, 3);
        add_col_broadcast(&mut m, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert!(add_col_broadcast(&mut m, &[1.0]).is_err());
    }

    #[test]
    fn assemble_matches_two_broadcasts() {
        let e0 = DenseMatrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * -2.0);
        let p = vec![1.0, 2.0, 3.0, 4.0];
        let c = vec![10.0, 20.0, 30.0];

        let mut fused = e0.clone();
        assemble_distances(&mut fused, &p, &c).unwrap();

        let mut twostep = e0.clone();
        add_row_broadcast(&mut twostep, &p).unwrap();
        add_col_broadcast(&mut twostep, &c).unwrap();

        assert!(fused.approx_eq(&twostep, 1e-12, 1e-12));
    }

    #[test]
    fn assemble_rejects_bad_lengths() {
        let mut e = DenseMatrix::<f64>::zeros(2, 2);
        assert!(assemble_distances(&mut e, &[1.0], &[1.0, 2.0]).is_err());
        assert!(assemble_distances(&mut e, &[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn sum_and_dot() {
        let m = DenseMatrix::from_rows(&[vec![1.0f32, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(sum_all(&m), 10.0);
        assert_eq!(dot(&[1.0f64, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
        assert!(dot(&[1.0f64], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn broadcasts_on_empty_matrix() {
        let mut m = DenseMatrix::<f64>::zeros(0, 0);
        add_row_broadcast(&mut m, &[]).unwrap();
        add_col_broadcast(&mut m, &[]).unwrap();
        assemble_distances(&mut m, &[], &[]).unwrap();
    }
}
