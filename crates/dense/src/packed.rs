//! Packed storage of a symmetric matrix: its lower triangle, row by row.
//!
//! A symmetric `n × n` matrix is fully described by its entries `(i, j ≤ i)`.
//! [`PackedSymmetric`] keeps exactly those `n(n+1)/2` entries in one buffer,
//! row `i` holding `K[i, 0..=i]` right after row `i − 1`: half the memory of
//! the full matrix, and each stored entry stands for both `(i, j)` and
//! `(j, i)`. Packed formats keep level-3 speed at half the memory
//! (Gustavson, Waśniewski, Dongarra and Langou, "Rectangular full packed
//! format for Cholesky's algorithm", ACM TOMS 37(2), 2010), and a fold over
//! packed rows reads each stored entry once for the two updates it feeds, as
//! BLAS `xSPMV` does.
//!
//! [`PackedRows`] views a contiguous range of rows, the form in which a
//! kernel source hands out its row panels.

use crate::errors::DenseError;
use crate::matrix::DenseMatrix;
use crate::parallel::num_threads;
use crate::scalar::Scalar;
use crate::Result;
use std::alloc::{alloc_zeroed, Layout};
use std::any::TypeId;
use std::ops::{Index, Range};

/// Offset of row `i` in a packed lower triangle, `i(i+1)/2`. The halving
/// comes first, so nothing overflows whenever the offset itself fits.
#[inline]
pub fn packed_offset(i: usize) -> usize {
    if i.is_multiple_of(2) {
        (i / 2) * (i + 1)
    } else {
        i * i.div_ceil(2)
    }
}

/// Entries of the packed lower triangle of an `n × n` matrix, `n(n+1)/2`,
/// computed in `u128`; `None` when the count does not fit in `usize`.
pub fn packed_len(n: usize) -> Option<usize> {
    usize::try_from(n as u128 * (n as u128 + 1) / 2).ok()
}

/// `len` zeros of `T`, for a buffer whose size comes from its caller's
/// input: [`DenseError::AllocationFailed`], naming `what` and the bytes,
/// when the size overflows or the allocator refuses it, instead of the
/// abort of `vec![T::ZERO; len]`. The allocation is the one that macro
/// makes for `f32` and `f64`: zeroed by the allocator, so a large buffer's
/// pages are first touched by the caller's own writes.
fn zeroed<T: Scalar>(len: usize, what: &'static str) -> Result<Vec<T>> {
    let bytes = len as u128 * std::mem::size_of::<T>() as u128;
    let failed = || DenseError::AllocationFailed { what, bytes };
    let layout = Layout::array::<T>(len).map_err(|_| failed())?;
    // Only `f32` and `f64` are known to read all-zero bytes as `T::ZERO`.
    let floats = [TypeId::of::<f32>(), TypeId::of::<f64>()];
    if layout.size() == 0 || !floats.contains(&TypeId::of::<T>()) {
        let mut data = Vec::new();
        data.try_reserve_exact(len).map_err(|_| failed())?;
        data.resize(len, T::ZERO);
        return Ok(data);
    }
    // SAFETY: `layout` has a non-zero size.
    let ptr = unsafe { alloc_zeroed(layout) }.cast::<T>();
    if ptr.is_null() {
        return Err(failed());
    }
    // SAFETY: `ptr` is a live allocation of the global allocator, the one
    // `Vec` uses, made with `Layout::array::<T>(len)`, so its size and
    // alignment are those of a `Vec<T>` of capacity `len`. `T` is `f32` or
    // `f64`, for which every bit pattern is a value, so the `len` zeroed
    // elements are initialised (and each is `+0.0`, `T::ZERO`).
    Ok(unsafe { Vec::from_raw_parts(ptr, len, len) })
}

/// The lower triangle of a symmetric `n × n` matrix, packed by rows (see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedSymmetric<T: Scalar> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> PackedSymmetric<T> {
    /// The zero matrix of order `n`, allocated fallibly: `n(n+1)/2` entries
    /// that overflow the address space or that the allocator refuses are
    /// [`DenseError::AllocationFailed`].
    pub fn zeros(n: usize) -> Result<Self> {
        const WHAT: &str = "a packed lower triangle";
        let len = packed_len(n).ok_or(DenseError::AllocationFailed {
            what: WHAT,
            bytes: n as u128 * (n as u128 + 1) / 2 * std::mem::size_of::<T>() as u128,
        })?;
        Ok(Self {
            n,
            data: zeroed(len, WHAT)?,
        })
    }

    /// Wrap a buffer holding the packed rows `0..n`.
    pub fn from_vec(n: usize, data: Vec<T>) -> Result<Self> {
        match packed_len(n) {
            Some(len) if len == data.len() => Ok(Self { n, data }),
            len => Err(DenseError::BufferSizeMismatch {
                expected: len.unwrap_or(usize::MAX),
                found: data.len(),
            }),
        }
    }

    /// The matrix whose entry `(i, j ≤ i)` is `f(i, j)`, allocated as
    /// [`PackedSymmetric::zeros`] allocates it.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Result<Self> {
        let mut m = Self::zeros(n)?;
        for i in 0..n {
            for (j, x) in m.row_mut(i).iter_mut().enumerate() {
                *x = f(i, j);
            }
        }
        Ok(m)
    }

    /// The lower triangle of the square matrix `m`; its upper triangle is
    /// not read.
    pub fn from_lower(m: &DenseMatrix<T>) -> Result<Self> {
        if !m.is_square() {
            return Err(DenseError::NotSquare {
                op: "pack the lower triangle",
                shape: m.shape(),
            });
        }
        Self::from_fn(m.rows(), |i, j| m[(i, j)])
    }

    /// Order `n` of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed rows, back to back.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Row `i` of the triangle: `K[i, 0..=i]`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[packed_offset(i)..packed_offset(i + 1)]
    }

    /// Row `i` of the triangle, mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[packed_offset(i)..packed_offset(i + 1)]
    }

    /// Entry `(i, j)` of the symmetric matrix, from either triangle.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self[(i, j)]
    }

    /// The diagonal `K[i, i]`.
    pub fn diagonal(&self) -> Vec<T> {
        (0..self.n)
            .map(|i| self.data[packed_offset(i + 1) - 1])
            .collect()
    }

    /// Rows `rows` as a panel view.
    pub fn rows(&self, rows: Range<usize>) -> PackedRows<'_, T> {
        assert!(
            rows.start <= rows.end && rows.end <= self.n,
            "rows {rows:?} out of range for order {}",
            self.n
        );
        let data = &self.data[packed_offset(rows.start)..packed_offset(rows.end)];
        PackedRows {
            start: rows.start,
            end: rows.end,
            data,
        }
    }

    /// Row `i` of the full symmetric matrix into `out` (`n` entries): the
    /// stored row, then column `i` of the rows below.
    pub fn full_row_into(&self, i: usize, out: &mut [T]) {
        let (lower, upper) = out[..self.n].split_at_mut(i + 1);
        lower.copy_from_slice(self.row(i));
        for (x, j) in upper.iter_mut().zip(i + 1..) {
            *x = self.data[packed_offset(j) + i];
        }
    }

    /// Rows `rows` of the full symmetric matrix.
    pub fn full_rows(&self, rows: Range<usize>) -> DenseMatrix<T> {
        let n = self.n;
        let mut out = DenseMatrix::zeros(rows.len(), n);
        for (i, dst) in rows.zip(out.as_mut_slice().chunks_exact_mut(n.max(1))) {
            self.full_row_into(i, dst);
        }
        out
    }

    /// The full symmetric matrix.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        self.full_rows(0..self.n)
    }
}

impl<T: Scalar> Index<(usize, usize)> for PackedSymmetric<T> {
    type Output = T;

    /// Entry `(i, j)` of the symmetric matrix, stored at `(max, min)`.
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of bounds for order {}",
            self.n
        );
        &self.data[packed_offset(i.max(j)) + i.min(j)]
    }
}

/// A contiguous range of packed rows: row `r` holds `K[r, 0..=r]`. Borrowed
/// from a [`PackedSymmetric`] or from a panel buffer a producer filled.
#[derive(Debug, Clone, Copy)]
pub struct PackedRows<'a, T: Scalar> {
    start: usize,
    end: usize,
    data: &'a [T],
}

impl<'a, T: Scalar> PackedRows<'a, T> {
    /// View `data` as the packed rows `rows`.
    pub fn new(rows: Range<usize>, data: &'a [T]) -> Result<Self> {
        let len = packed_offset(rows.end).saturating_sub(packed_offset(rows.start));
        if rows.start > rows.end || data.len() != len {
            return Err(DenseError::BufferSizeMismatch {
                expected: len,
                found: data.len(),
            });
        }
        Ok(Self {
            start: rows.start,
            end: rows.end,
            data,
        })
    }

    /// The rows of the view.
    pub fn rows(&self) -> Range<usize> {
        self.start..self.end
    }

    /// The packed rows, back to back.
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }

    /// Row `r` (an absolute row index inside [`PackedRows::rows`]):
    /// `K[r, 0..=r]`.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [T] {
        let base = packed_offset(self.start);
        &self.data[packed_offset(r) - base..packed_offset(r + 1) - base]
    }
}

/// The packed rows `rows`, zeroed and then filled by `f` in parallel on
/// disjoint chunks: one contiguous range of rows per kernel thread, of
/// about equal packed length, so each thread's rows are one slice of the
/// buffer. `f` receives its rows and their slice. The buffer is allocated
/// fallibly (see [`PackedSymmetric::zeros`]): rows a caller sizes from its
/// input, a whole kernel matrix, are [`DenseError::AllocationFailed`] when
/// they cannot be held.
pub fn par_packed_rows<T, F>(rows: Range<usize>, f: F) -> Result<Vec<T>>
where
    T: Scalar,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let base = packed_offset(rows.start);
    let mut buffer = zeroed(packed_offset(rows.end) - base, "packed lower rows")?;
    let data = buffer.as_mut_slice();
    let parts = num_threads().min(rows.len());
    if parts <= 1 {
        if !rows.is_empty() {
            f(rows, data);
        }
        return Ok(buffer);
    }
    let total = data.len();
    let mut chunks = Vec::with_capacity(parts);
    let (mut rest, mut start) = (data, rows.start);
    for p in 1..=parts {
        let end = if p == parts {
            rows.end
        } else {
            // The first row whose offset reaches p/parts of the panel,
            // keeping every part at least one row.
            let target = base + total / parts * p;
            let (lo, hi) = (start + 1, rows.end - (parts - p));
            (lo..hi).find(|&e| packed_offset(e) >= target).unwrap_or(hi)
        };
        let (head, tail) = rest.split_at_mut(packed_offset(end) - packed_offset(start));
        chunks.push((start..end, head));
        (rest, start) = (tail, end);
    }
    std::thread::scope(|scope| {
        for (rows, chunk) in chunks {
            let f = &f;
            scope.spawn(move || f(rows, chunk));
        }
    });
    Ok(buffer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_lengths_do_not_overflow() {
        assert_eq!(packed_offset(0), 0);
        assert_eq!(packed_offset(1), 1);
        assert_eq!(packed_offset(4), 10);
        assert_eq!(packed_offset(5), 15);
        assert_eq!(packed_len(4), Some(10));
        assert_eq!(packed_len(0), Some(0));
        // The offset of row 5e9 fits in 64 bits; the product i(i+1) would not.
        let i = 5_000_000_000usize;
        assert_eq!(packed_offset(i) as u128, i as u128 * (i as u128 + 1) / 2);
        assert_eq!(packed_len(usize::MAX), None);
    }

    #[test]
    fn rows_entries_and_the_diagonal_read_the_symmetric_matrix() {
        let full = DenseMatrix::from_fn(5, 5, |i, j| (i.max(j) * 10 + i.min(j)) as f64);
        let packed = PackedSymmetric::from_lower(&full).unwrap();
        assert_eq!(packed.as_slice().len(), 15);
        assert_eq!(packed.row(3), &[30.0, 31.0, 32.0, 33.0]);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(packed.get(i, j), full[(i, j)]);
            }
        }
        assert_eq!(packed.diagonal(), vec![0.0, 11.0, 22.0, 33.0, 44.0]);
        assert_eq!(packed.to_dense(), full);
        assert_eq!(packed.full_rows(2..4), full.select_rows(&[2, 3]).unwrap());
        let view = packed.rows(2..4);
        assert_eq!(view.rows(), 2..4);
        assert_eq!(view.row(3), packed.row(3));
        assert_eq!(view.as_slice().len(), 7);
        assert!(PackedRows::new(2..4, &view.as_slice()[1..]).is_err());
        assert!(PackedSymmetric::from_vec(5, vec![0.0; 14]).is_err());
        assert!(PackedSymmetric::from_lower(&DenseMatrix::<f64>::zeros(2, 3)).is_err());
    }

    #[test]
    fn packed_row_chunks_cover_the_panel_once() {
        for rows in [0..0, 3..4, 0..7, 5..40, 0..1000] {
            let base = packed_offset(rows.start);
            let data = par_packed_rows(rows.clone(), |sub, chunk: &mut [f64]| {
                assert!(!sub.is_empty());
                assert_eq!(
                    chunk.len(),
                    packed_offset(sub.end) - packed_offset(sub.start)
                );
                assert!(chunk.iter().all(|x| x.to_bits() == 0), "zeroed");
                for r in sub.clone() {
                    let at = packed_offset(r) - packed_offset(sub.start);
                    chunk[at..at + r + 1].fill((r + 1) as f64);
                }
            })
            .unwrap();
            assert_eq!(data.len(), packed_offset(rows.end) - base);
            for r in rows {
                let at = packed_offset(r) - base;
                assert!(data[at..at + r + 1].iter().all(|&x| x == (r + 1) as f64));
            }
        }
    }

    #[test]
    fn buffers_that_cannot_be_held_are_typed_errors() {
        // 2^31 rows hold 2^61 + 2^30 entries: more than `isize::MAX` bytes
        // in either precision, which no allocation may take.
        let n = 1usize << 31;
        let bytes = |elem: u128| (n as u128) * (n as u128 + 1) / 2 * elem;
        for (err, elem) in [
            (PackedSymmetric::<f64>::zeros(n).unwrap_err(), 8),
            (PackedSymmetric::<f32>::zeros(n).unwrap_err(), 4),
        ] {
            assert_eq!(
                err,
                DenseError::AllocationFailed {
                    what: "a packed lower triangle",
                    bytes: bytes(elem),
                }
            );
        }
        let err = par_packed_rows::<f64, _>(0..n, |_, _| unreachable!()).unwrap_err();
        assert_eq!(
            err,
            DenseError::AllocationFailed {
                what: "packed lower rows",
                bytes: bytes(8),
            }
        );
        assert!(err.to_string().contains(&bytes(8).to_string()));
        let empty = PackedSymmetric::<f32>::zeros(0).unwrap();
        assert_eq!(empty.as_slice().len(), 0);
    }
}
