//! Property-based tests (proptest) on the core invariants of the
//! reproduction, spanning the dense, sparse and core crates.

use popcorn::core::distances::{compute_distances, compute_distances_reference};
use popcorn::core::kernel::kernel_matrix_reference;
use popcorn::dense::{diagonal, matmul, matmul_nt, row_argmin, syrk_full};
use popcorn::prelude::*;
use popcorn::sparse::spgemm;
use popcorn::sparse::{spmv, CsrMatrix};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a dense matrix with bounded shape and well-behaved values.
fn dense_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| DenseMatrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy: a sparse matrix from random `(row, col, value)` entries over a
/// bounded shape. Entries at the same position are summed in the order they
/// were drawn, and a sum that cancels to zero stays stored.
fn sparse_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, -5.0f64..5.0), 0..=(r * c).min(40)).prop_map(
            move |entries| {
                let mut sums = BTreeMap::new();
                for (i, j, v) in entries {
                    sums.entry((i, j)).and_modify(|s| *s += v).or_insert(v);
                }
                let mut row_ptrs = vec![0; r + 1];
                for &(i, _) in sums.keys() {
                    row_ptrs[i + 1] += 1;
                }
                for i in 0..r {
                    row_ptrs[i + 1] += row_ptrs[i];
                }
                let col_indices = sums.keys().map(|&(_, j)| j).collect();
                let values = sums.into_values().collect();
                CsrMatrix::from_raw(r, c, row_ptrs, col_indices, values).unwrap()
            },
        )
    })
}

/// Strategy: an assignment of `n` points to `k` clusters with every cluster
/// index in range.
fn assignment(max_n: usize, max_k: usize) -> impl Strategy<Value = (Vec<usize>, usize)> {
    (2..=max_k).prop_flat_map(move |k| {
        proptest::collection::vec(0..k, k..=max_n).prop_map(move |labels| (labels, k))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- dense substrate -------------------------------------------------

    #[test]
    fn gemm_matches_naive_reference(a in dense_matrix(10, 8), b in dense_matrix(8, 9)) {
        // Force compatible inner dimensions by truncating.
        let k = a.cols().min(b.rows());
        let a = DenseMatrix::from_fn(a.rows(), k, |i, j| a[(i, j)]);
        let b = DenseMatrix::from_fn(k, b.cols(), |i, j| b[(i, j)]);
        let fast = matmul(&a, &b).unwrap();
        let mut reference = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[(i, l)] * b[(l, j)];
                }
                reference[(i, j)] = acc;
            }
        }
        prop_assert!(fast.approx_eq(&reference, 1e-9, 1e-9));
    }

    #[test]
    fn syrk_equals_gemm_with_transpose(a in dense_matrix(12, 6)) {
        let via_syrk = syrk_full(&a).unwrap();
        let via_gemm = matmul_nt(&a, &a).unwrap();
        prop_assert!(via_syrk.approx_eq(&via_gemm, 1e-9, 1e-9));
        // and the result is symmetric
        for i in 0..a.rows() {
            for j in 0..a.rows() {
                prop_assert!((via_syrk[(i, j)] - via_syrk[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_is_an_involution(a in dense_matrix(9, 9)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn row_argmin_points_at_row_minimum(a in dense_matrix(10, 7)) {
        let mins = row_argmin(&a);
        for (i, &j) in mins.iter().enumerate() {
            for c in 0..a.cols() {
                prop_assert!(a[(i, j)] <= a[(i, c)]);
            }
        }
    }

    // --- sparse substrate ------------------------------------------------

    #[test]
    fn csr_dense_round_trip(m in sparse_matrix(10, 10)) {
        let dense = m.to_dense();
        let back = CsrMatrix::from_dense(&dense);
        prop_assert_eq!(back.to_dense(), dense);
    }

    #[test]
    fn csr_transpose_matches_dense_transpose(m in sparse_matrix(9, 7)) {
        prop_assert!(m
            .transpose()
            .to_dense()
            .approx_eq(&m.to_dense().transpose(), 1e-12, 1e-12));
    }

    #[test]
    fn spmv_matches_dense_multiply(a in sparse_matrix(9, 7), x in proptest::collection::vec(-3.0f64..3.0, 7)) {
        let x = &x[..a.cols().min(x.len())];
        prop_assume!(x.len() == a.cols());
        let y = spmv(1.0, &a, x).unwrap();
        let dense = a.to_dense();
        for i in 0..a.rows() {
            let expected: f64 = (0..a.cols()).map(|j| dense[(i, j)] * x[j]).sum();
            prop_assert!((y[i] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn spgemm_matches_dense_multiply(a in sparse_matrix(7, 5), b in sparse_matrix(5, 6)) {
        prop_assume!(a.cols() == b.rows());
        let sparse_result = spgemm(&a, &b).unwrap();
        let dense_result = matmul(&a.to_dense(), &b.to_dense()).unwrap();
        prop_assert!(sparse_result.to_dense().approx_eq(&dense_result, 1e-9, 1e-9));
    }

    // --- selection matrix and the Popcorn identities ----------------------

    #[test]
    fn selection_matrix_invariants((labels, k) in assignment(30, 6)) {
        let v = SelectionMatrix::<f64>::from_assignments(&labels, k).unwrap();
        // exactly n non-zeros, exactly one per column
        prop_assert_eq!(v.csr().nnz(), labels.len());
        let dense = v.csr().to_dense();
        for col in 0..labels.len() {
            let nnz = (0..k).filter(|&r| dense[(r, col)] != 0.0).count();
            prop_assert_eq!(nnz, 1);
        }
        // non-empty rows sum to exactly one
        for row in 0..k {
            let sum: f64 = (0..labels.len()).map(|c| dense[(row, c)]).sum();
            if v.cardinalities()[row] > 0 {
                prop_assert!((sum - 1.0).abs() < 1e-9);
            } else {
                prop_assert_eq!(sum, 0.0);
            }
        }
    }

    #[test]
    fn matrix_centric_distances_equal_kernel_trick_reference(
        (labels, k) in assignment(20, 5),
        seed in 0u64..1000,
    ) {
        let n = labels.len();
        let points = DenseMatrix::<f64>::from_fn(n, 3, |i, j| {
            (((i * 3 + j) as f64) + seed as f64 * 0.13).sin() * 2.0
        });
        let kernel_matrix = kernel_matrix_reference(&points, KernelFunction::paper_polynomial());
        let selection = SelectionMatrix::from_assignments(&labels, k).unwrap();
        let norms = diagonal(&kernel_matrix).unwrap();
        let exec = SimExecutor::a100_f32();
        let fast = compute_distances(&kernel_matrix, &norms, &selection, &exec).unwrap();
        let reference = compute_distances_reference(&kernel_matrix, &labels, k);
        prop_assert!(fast.distances.approx_eq(&reference, 1e-7, 1e-7));
    }

    #[test]
    fn popcorn_objective_never_increases(
        n in 12usize..40,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        let points = DenseMatrix::<f64>::from_fn(n, 2, |i, j| {
            ((i * 2 + j) as f64 * 0.7 + seed as f64).sin() * 5.0
        });
        let config = KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(8)
            .with_convergence_check(false, 0.0)
            .with_seed(seed);
        let result = KernelKmeans::new(config).fit(&points).unwrap();
        let history = result.objective_history();
        for w in history.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-7, "objective increased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn popcorn_and_cpu_baseline_agree_for_random_shapes(
        n in 10usize..32,
        k in 2usize..5,
        seed in 0u64..200,
    ) {
        let points = DenseMatrix::<f64>::from_fn(n, 3, |i, j| {
            ((i * 3 + j + seed as usize) as f64 * 0.31).cos() * 3.0
        });
        let config = KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(6)
            .with_convergence_check(false, 0.0)
            .with_seed(seed);
        let popcorn = KernelKmeans::new(config.clone()).fit(&points).unwrap();
        let cpu = CpuKernelKmeans::new(config).fit(&points).unwrap();
        prop_assert_eq!(popcorn.labels, cpu.labels);
    }
}
