//! Scoped-thread parallelism helpers.
//!
//! The GPU implementation in the paper relies on cuBLAS / cuSPARSE for
//! parallelism; on the host side this crate parallelises its kernels by
//! splitting output rows across a small number of scoped threads. The helpers
//! here keep that policy in one place so every kernel (GEMM, SYRK, SpMM, ...)
//! behaves identically and degrades gracefully to sequential execution on a
//! single-core machine or when `POPCORN_NUM_THREADS=1`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable controlling the number of worker threads.
pub const NUM_THREADS_ENV: &str = "POPCORN_NUM_THREADS";

static CACHED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads used by the dense and sparse kernels.
///
/// Resolution order: `POPCORN_NUM_THREADS` environment variable (values `< 1`
/// are clamped to 1), then [`std::thread::available_parallelism`], then 1.
/// The value is computed once and cached for the lifetime of the process.
pub fn num_threads() -> usize {
    let cached = CACHED_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = match std::env::var(NUM_THREADS_ENV) {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    CACHED_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Split `0..total` into at most `parts` contiguous, nearly equal ranges.
///
/// Every element is covered exactly once; empty ranges are never produced.
pub fn split_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    if total == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(total);
    let base = total / parts;
    let extra = total % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, total);
    ranges
}

/// Split `0..total` into at most `parts` contiguous ranges of nearly equal
/// *triangular* weight (row `i` weighing `i + 1`) — the right partition for
/// kernels that only touch the lower triangle, where equal row counts would
/// leave the first workers mostly idle.
pub fn triangular_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    if total == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(total);
    let total_weight = total as f64 * (total as f64 + 1.0) / 2.0;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 1..=parts {
        let end = if p == parts {
            total
        } else {
            // Boundary where the cumulative weight e(e+1)/2 reaches p/parts
            // of the total, clamped so every part keeps at least one row.
            let target = total_weight * p as f64 / parts as f64;
            let lo = start + 1;
            let hi = total - (parts - p);
            (((2.0 * target).sqrt()).round() as usize).clamp(lo, hi)
        };
        ranges.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, total);
    ranges
}

/// Apply `f` to disjoint mutable row-chunks of `data` cut at the given row
/// ranges, in parallel — the explicit-partition variant of
/// [`par_chunks_rows`], for kernels whose per-row work is non-uniform.
///
/// `ranges` must be contiguous, non-empty and cover `0..rows` exactly (as
/// produced by [`split_ranges`] or [`triangular_ranges`]).
pub fn par_chunks_rows_ranges<T, F>(data: &mut [T], row_len: usize, ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if row_len == 0 || data.is_empty() || ranges.is_empty() {
        return;
    }
    debug_assert_eq!(
        data.len() % row_len,
        0,
        "buffer is not a whole number of rows"
    );
    debug_assert_eq!(ranges.last().unwrap().end, data.len() / row_len);
    if ranges.len() == 1 {
        f(ranges[0].start, data);
        return;
    }
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for r in ranges {
        let (head, tail) = rest.split_at_mut((r.end - r.start) * row_len);
        chunks.push((r.start, head));
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (start_row, chunk) in chunks {
            let f = &f;
            scope.spawn(move || f(start_row, chunk));
        }
    });
}

/// Apply `f` to disjoint mutable row-chunks of `data` in parallel.
///
/// `data` is interpreted as a row-major matrix with `row_len` elements per
/// row; the closure receives the starting row index of the chunk and the
/// chunk itself.
pub fn par_chunks_rows<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if row_len == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(
        data.len() % row_len,
        0,
        "buffer is not a whole number of rows"
    );
    let rows = data.len() / row_len;
    let ranges = split_ranges(rows, num_threads());
    if ranges.len() <= 1 {
        f(0, data);
        return;
    }
    // Split the buffer into per-thread slices that line up with the row ranges.
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    let mut consumed = 0;
    for r in &ranges {
        let take = (r.end - r.start) * row_len;
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((consumed, head));
        consumed += r.end - r.start;
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (start_row, chunk) in chunks {
            let f = &f;
            scope.spawn(move || f(start_row, chunk));
        }
    });
}

/// Apply `f` to disjoint column ranges of the row-major matrix `data`
/// (`row_len` columns per row) in parallel, one call per range — the
/// column-split counterpart of [`par_chunks_rows`], for kernels that update
/// every row but whose columns are independent.
///
/// Each call receives its column range and one mutable slice per row of
/// `data`, holding that row's entries in the range. The ranges must be
/// contiguous, non-empty and start at column 0, and may end before
/// `row_len`, in which case the columns past the last range are left alone.
pub fn par_chunks_cols_ranges<T, F>(data: &mut [T], row_len: usize, ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [&mut [T]]) + Sync,
{
    if row_len == 0 || data.is_empty() || ranges.is_empty() {
        return;
    }
    debug_assert_eq!(
        data.len() % row_len,
        0,
        "buffer is not a whole number of rows"
    );
    debug_assert!(ranges[0].start == 0 && ranges.last().unwrap().end <= row_len);
    let mut parts: Vec<Vec<&mut [T]>> = ranges
        .iter()
        .map(|_| Vec::with_capacity(data.len() / row_len))
        .collect();
    for row in data.chunks_exact_mut(row_len) {
        let mut rest = row;
        for (part, cols) in parts.iter_mut().zip(ranges) {
            let (head, tail) = rest.split_at_mut(cols.len());
            part.push(head);
            rest = tail;
        }
    }
    if ranges.len() == 1 {
        f(ranges[0].clone(), &mut parts[0]);
        return;
    }
    std::thread::scope(|scope| {
        for (cols, mut part) in ranges.iter().cloned().zip(parts) {
            let f = &f;
            scope.spawn(move || f(cols, &mut part));
        }
    });
}

/// Map a function over `0..n` in parallel, collecting the results in order.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    par_chunks_rows(&mut out, 1, |start, chunk| {
        for (offset, slot) in chunk.iter_mut().enumerate() {
            *slot = f(start + offset);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_exactly_once() {
        for total in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(total, parts);
                let mut covered = vec![false; total];
                for r in &ranges {
                    assert!(!r.is_empty(), "empty range produced");
                    for i in r.clone() {
                        assert!(!covered[i], "element {i} covered twice");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "total={total} parts={parts}");
            }
        }
    }

    #[test]
    fn split_zero_parts_is_empty() {
        assert!(split_ranges(10, 0).is_empty());
        assert!(split_ranges(0, 4).is_empty());
    }

    #[test]
    fn split_is_balanced() {
        let ranges = split_ranges(10, 3);
        let sizes: Vec<_> = ranges.iter().map(|r| r.end - r.start).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn par_chunks_rows_writes_disjoint() {
        let mut data = vec![0u64; 12];
        par_chunks_rows(&mut data, 3, |start_row, chunk| {
            for (local_row, row) in chunk.chunks_exact_mut(3).enumerate() {
                for x in row.iter_mut() {
                    *x = (start_row + local_row) as u64;
                }
            }
        });
        assert_eq!(data, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn par_chunks_cols_writes_disjoint_column_ranges() {
        let mut data = vec![0u64; 3 * 7];
        let ranges = split_ranges(7, num_threads());
        par_chunks_cols_ranges(&mut data, 7, &ranges, |cols, rows| {
            assert_eq!(rows.len(), 3);
            for (r, row) in rows.iter_mut().enumerate() {
                assert_eq!(row.len(), cols.len());
                for (x, c) in row.iter_mut().zip(cols.clone()) {
                    *x += (r * 10 + c) as u64;
                }
            }
        });
        let expected: Vec<u64> = (0..3)
            .flat_map(|r| (0..7).map(move |c| (r * 10 + c) as u64))
            .collect();
        assert_eq!(data, expected);
        par_chunks_cols_ranges(&mut data, 0, &ranges, |_, _| panic!("no work expected"));
    }

    #[test]
    fn par_chunks_rows_empty_inputs() {
        let mut empty: Vec<u64> = Vec::new();
        par_chunks_rows(&mut empty, 4, |_, _| panic!("no work expected"));
        let mut data = vec![1u64; 4];
        par_chunks_rows(&mut data, 0, |_, _| panic!("no work expected"));
        assert_eq!(data, vec![1, 1, 1, 1]);
    }

    #[test]
    fn triangular_ranges_cover_everything_with_balanced_weight() {
        for total in [1usize, 2, 7, 100, 6400] {
            for parts in [1usize, 2, 3, 8, 64] {
                let ranges = triangular_ranges(total, parts);
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, total);
                let mut covered = 0usize;
                let mut weights = Vec::new();
                for r in &ranges {
                    assert!(!r.is_empty());
                    assert_eq!(r.start, covered);
                    covered = r.end;
                    weights.push(r.clone().map(|i| (i + 1) as u64).sum::<u64>());
                }
                assert_eq!(covered, total);
                // Weights are near-balanced once there is enough work to split.
                if total >= 100 && parts > 1 {
                    let max = *weights.iter().max().unwrap() as f64;
                    let mean = weights.iter().sum::<u64>() as f64 / weights.len() as f64;
                    assert!(max / mean < 1.5, "total={total} parts={parts}: {weights:?}");
                }
            }
        }
        assert!(triangular_ranges(0, 4).is_empty());
        assert!(triangular_ranges(10, 0).is_empty());
    }

    #[test]
    fn par_chunks_rows_ranges_matches_even_partition() {
        let mut data = vec![0u64; 30];
        let ranges = triangular_ranges(10, 3);
        par_chunks_rows_ranges(&mut data, 3, &ranges, |start_row, chunk| {
            for (local_row, row) in chunk.chunks_exact_mut(3).enumerate() {
                for x in row.iter_mut() {
                    *x = (start_row + local_row) as u64;
                }
            }
        });
        let expected: Vec<u64> = (0..10u64).flat_map(|r| [r, r, r]).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = par_map_indexed(257, |i| i * 2);
        assert_eq!(out.len(), 257);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
        // Cached value must be stable.
        assert_eq!(num_threads(), num_threads());
    }
}
