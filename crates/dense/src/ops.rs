//! Distance assembly.
//!
//! The host equivalent of one of the paper's small hand-written CUDA
//! kernels: adding the implicitly stored `P̃` (one value per row) and `C̃`
//! (one value per column) vectors to `−2KVᵀ` when assembling the distance
//! matrix `D` (paper §4.3).

use crate::errors::DenseError;
use crate::fma::dispatch;
use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;
use crate::Result;

/// Fused distance assembly: `D[i][j] = E[i][j] + p_norms[i] + c_norms[j]`,
/// performed in place on `E` (which holds `−2KVᵀ` on entry).
///
/// The paper implements exactly this as a single custom kernel with one
/// thread per entry (§4.3); fusing the two broadcasts halves the memory
/// traffic compared to adding `P̃` and `C̃` in two passes.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_matches_two_broadcasts() {
        let e0 = DenseMatrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * -2.0);
        let p = vec![1.0, 2.0, 3.0, 4.0];
        let c = vec![10.0, 20.0, 30.0];

        let mut fused = e0.clone();
        assemble_distances(&mut fused, &p, &c).unwrap();

        let expected = DenseMatrix::from_fn(4, 3, |i, j| e0[(i, j)] + (p[i] + c[j]));
        assert_eq!(fused, expected);
    }

    #[test]
    fn assemble_rejects_bad_lengths() {
        let mut e = DenseMatrix::<f64>::zeros(2, 2);
        assert!(assemble_distances(&mut e, &[1.0], &[1.0, 2.0]).is_err());
        assert!(assemble_distances(&mut e, &[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn broadcasts_on_empty_matrix() {
        let mut m = DenseMatrix::<f64>::zeros(0, 0);
        assemble_distances(&mut m, &[], &[]).unwrap();
    }
}
