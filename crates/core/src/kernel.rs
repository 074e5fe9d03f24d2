//! Kernel functions.
//!
//! The kernel trick (paper §2.2): instead of projecting points into the
//! high-dimensional feature space, evaluate a kernel function `κ(x, y)` that
//! equals the feature-space inner product. The paper implements the
//! polynomial and Gaussian kernels (§3.2) and the artifact additionally
//! exposes linear and sigmoid kernels via its `-f` flag; all four are
//! provided here.
//!
//! All kernels are computed *from the Gram matrix* `B = P̂ P̂ᵀ`:
//!
//! * polynomial / linear / sigmoid need only `B[i][j]`,
//! * the Gaussian kernel needs `B[i][j]`, `B[i][i]` and `B[j][j]`
//!   (paper Eq. 12), i.e. the diagonal of `B` as well.

use popcorn_dense::fma::dispatch;
use popcorn_dense::{DenseMatrix, Scalar};

/// A kernel function `κ(x, y)` evaluated from Gram-matrix entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelFunction {
    /// `κ(x, y) = xᵀy` — reduces kernel k-means to classical k-means in the
    /// input space; useful for validation.
    Linear,
    /// `κ(x, y) = (γ·xᵀy + c)^r` — the kernel used in the paper's experiments
    /// with γ = 1, c = 1, r = 2.
    Polynomial {
        /// Scale applied to the inner product.
        gamma: f64,
        /// Additive constant `c`.
        coef0: f64,
        /// Integer exponent `r`.
        degree: i32,
    },
    /// `κ(x, y) = exp(−γ‖x − y‖² / σ²)` (paper §3.2).
    Gaussian {
        /// Numerator scale γ.
        gamma: f64,
        /// Bandwidth σ.
        sigma: f64,
    },
    /// `κ(x, y) = tanh(γ·xᵀy + c)` — the artifact's `-f sigmoid` option.
    Sigmoid {
        /// Scale applied to the inner product.
        gamma: f64,
        /// Additive constant `c`.
        coef0: f64,
    },
}

impl KernelFunction {
    /// The polynomial kernel with the parameters the paper uses in §5.1.3
    /// (γ = 1, c = 1, r = 2).
    pub fn paper_polynomial() -> Self {
        KernelFunction::Polynomial {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        }
    }

    /// A Gaussian kernel with unit γ and σ.
    pub fn default_gaussian() -> Self {
        KernelFunction::Gaussian {
            gamma: 1.0,
            sigma: 1.0,
        }
    }

    /// Short name matching the artifact's `-f` flag values.
    pub fn name(&self) -> &'static str {
        match self {
            KernelFunction::Linear => "linear",
            KernelFunction::Polynomial { .. } => "polynomial",
            KernelFunction::Gaussian { .. } => "gaussian",
            KernelFunction::Sigmoid { .. } => "sigmoid",
        }
    }

    /// `true` when the kernel needs the diagonal of `B` (the Gaussian does).
    pub fn needs_diagonal(&self) -> bool {
        matches!(self, KernelFunction::Gaussian { .. })
    }

    /// Evaluate the kernel from Gram-matrix entries: `b_ij = xᵀy`,
    /// `b_ii = xᵀx`, `b_jj = yᵀy`.
    pub fn apply(&self, b_ij: f64, b_ii: f64, b_jj: f64) -> f64 {
        match *self {
            KernelFunction::Linear => b_ij,
            KernelFunction::Polynomial {
                gamma,
                coef0,
                degree,
            } => {
                let mut x = [gamma * b_ij + coef0];
                powi_lanes(&mut x, degree);
                x[0]
            }
            KernelFunction::Gaussian { gamma, sigma } => gaussian(gamma, sigma, b_ij, b_ii, b_jj),
            KernelFunction::Sigmoid { gamma, coef0 } => (gamma * b_ij + coef0).tanh(),
        }
    }

    /// Evaluate the kernel directly on two points (reference path used by
    /// tests to validate the Gram-matrix path).
    pub fn evaluate<T: Scalar>(&self, x: &[T], y: &[T]) -> f64 {
        let b_ij: f64 = x
            .iter()
            .zip(y.iter())
            .map(|(&a, &b)| a.to_f64() * b.to_f64())
            .sum();
        let b_ii: f64 = x.iter().map(|&a| a.to_f64() * a.to_f64()).sum();
        let b_jj: f64 = y.iter().map(|&b| b.to_f64() * b.to_f64()).sum();
        self.apply(b_ij, b_ii, b_jj)
    }

    /// Transform a Gram matrix `B = P̂ P̂ᵀ` into the kernel matrix `K` in
    /// place (paper Eq. 11–12). The diagonal of `B` is captured first so the
    /// Gaussian kernel sees the original `xᵀx` values.
    pub fn apply_to_gram<T: Scalar>(&self, b: &mut DenseMatrix<T>) {
        let n = b.rows();
        debug_assert!(b.is_square(), "Gram matrix must be square");
        let diag: Vec<f64> = (0..n).map(|i| b[(i, i)].to_f64()).collect();
        self.apply_to_gram_tile(b, 0, &diag);
    }

    /// Transform a row tile `B[row_offset .. row_offset + tile.rows(), :]` of
    /// a Gram matrix into the corresponding kernel-matrix rows in place.
    ///
    /// `gram_diag` holds the **full** Gram diagonal (`xᵀx` per point, as
    /// `f64` exactly as [`KernelFunction::apply_to_gram`] captures it) — the
    /// Gaussian kernel needs the diagonal entries of both the tile's rows and
    /// every column. The full-matrix transform above is the single-tile
    /// special case, so tiled and in-core kernel matrices agree bit for bit.
    pub fn apply_to_gram_tile<T: Scalar>(
        &self,
        tile: &mut DenseMatrix<T>,
        row_offset: usize,
        gram_diag: &[f64],
    ) {
        debug_assert!(row_offset + tile.rows() <= gram_diag.len());
        debug_assert_eq!(tile.cols(), gram_diag.len());
        let row_diag = &gram_diag[row_offset..row_offset + tile.rows()];
        self.apply_to_rows(tile.as_mut_slice(), row_diag, gram_diag);
    }

    /// Transform a cross Gram tile `B = Q P̂ᵀ` (queries × training points)
    /// into the cross kernel tile in place.
    ///
    /// `query_diag[row]` holds `qᵀq` for each tile row and `train_diag[col]`
    /// holds `xᵀx` for each training column, both as `f64` exactly as the
    /// Gram-diagonal extraction captures them. The per-entry arithmetic is
    /// identical to [`KernelFunction::apply_to_gram_tile`] — a query that
    /// coincides bitwise with a training point therefore reproduces that
    /// point's kernel row bit for bit.
    pub fn apply_to_cross_tile<T: Scalar>(
        &self,
        tile: &mut DenseMatrix<T>,
        query_diag: &[f64],
        train_diag: &[f64],
    ) {
        debug_assert_eq!(tile.rows(), query_diag.len());
        debug_assert_eq!(tile.cols(), train_diag.len());
        self.apply_to_rows(tile.as_mut_slice(), query_diag, train_diag);
    }

    /// The per-entry transform behind every Gram-tile variant: `rows` is a
    /// row-major block of `row_diag.len()` rows of `col_diag.len()` Gram
    /// entries, where row `r` has diagonal entry `row_diag[r]` and column `c`
    /// has `col_diag[c]`. Taking a plain slice lets callers hand disjoint row
    /// chunks of one matrix to parallel workers.
    ///
    /// Each entry gets exactly [`KernelFunction::apply`]'s arithmetic, but the
    /// kernel is matched once per call: the linear kernel is the identity
    /// and leaves the entries untouched, and the polynomial kernel raises
    /// whole blocks of entries to its power so the element loop vectorizes.
    pub(crate) fn apply_to_rows<T: Scalar>(
        &self,
        rows: &mut [T],
        row_diag: &[f64],
        col_diag: &[f64],
    ) {
        if col_diag.is_empty() {
            return;
        }
        debug_assert_eq!(rows.len(), row_diag.len() * col_diag.len());
        match *self {
            KernelFunction::Linear => {}
            KernelFunction::Polynomial {
                gamma,
                coef0,
                degree,
            } => dispatch(
                #[inline(always)]
                || {
                    for block in rows.chunks_mut(MAP_LANES) {
                        // Lanes past a short tail block compute a discarded 0^r.
                        let mut x = [0.0f64; MAP_LANES];
                        for (x, &value) in x.iter_mut().zip(block.iter()) {
                            *x = gamma * value.to_f64() + coef0;
                        }
                        powi_lanes(&mut x, degree);
                        for (value, &x) in block.iter_mut().zip(&x) {
                            *value = T::from_f64(x);
                        }
                    }
                },
            ),
            KernelFunction::Gaussian { gamma, sigma } => {
                for (row, &b_ii) in rows.chunks_exact_mut(col_diag.len()).zip(row_diag) {
                    for (value, &b_jj) in row.iter_mut().zip(col_diag) {
                        *value = T::from_f64(gaussian(gamma, sigma, value.to_f64(), b_ii, b_jj));
                    }
                }
            }
            KernelFunction::Sigmoid { gamma, coef0 } => {
                for value in rows.iter_mut() {
                    *value = T::from_f64((gamma * value.to_f64() + coef0).tanh());
                }
            }
        }
    }

    /// Number of floating point operations the elementwise transform performs
    /// per matrix entry (used for cost accounting).
    pub fn flops_per_entry(&self) -> usize {
        match self {
            KernelFunction::Linear => 0,
            KernelFunction::Polynomial { .. } => 4,
            KernelFunction::Gaussian { .. } => 8,
            KernelFunction::Sigmoid { .. } => 10,
        }
    }
}

/// Entries per block of the polynomial map: the block's power is one short
/// loop per exponent bit over `MAP_LANES` lanes.
const MAP_LANES: usize = 64;

/// `κ(x, y) = exp(−γ‖x − y‖² / σ²)` from Gram entries. Symmetric in
/// `(b_ii, b_jj)`: the one addition that reads both commutes.
#[inline(always)]
fn gaussian(gamma: f64, sigma: f64, b_ij: f64, b_ii: f64, b_jj: f64) -> f64 {
    let sq_dist = b_ii + b_jj - 2.0 * b_ij;
    (-gamma * sq_dist / (sigma * sigma)).exp()
}

/// Raise every lane of `x` to the integer power `degree` with exactly the
/// multiplications of [`f64::powi`] (the runtime library's binary
/// exponentiation): starting from `1`, multiply the product by the running
/// square on each set bit of `|degree|`, low bit first, squaring between
/// bits, and take `1 / product` for a negative `degree`. Every lane's result
/// is therefore `x.powi(degree)` bit for bit; the exponent loop runs once
/// per call, outside the lane loops, so those vectorize.
#[inline(always)]
fn powi_lanes<const N: usize>(x: &mut [f64; N], degree: i32) {
    let mut product = [1.0f64; N];
    let mut bits = degree.unsigned_abs();
    loop {
        if bits & 1 == 1 {
            for (p, &a) in product.iter_mut().zip(x.iter()) {
                *p *= a;
            }
        }
        bits >>= 1;
        if bits == 0 {
            break;
        }
        for a in x.iter_mut() {
            *a *= *a;
        }
    }
    if degree < 0 {
        for (a, &p) in x.iter_mut().zip(&product) {
            *a = 1.0 / p;
        }
    } else {
        *x = product;
    }
}

/// Compute the full kernel matrix directly from points with `O(n²d)`
/// pairwise evaluations. This is the slow reference used by tests; the
/// production path goes through the Gram matrix (`kernel_matrix` module).
pub fn kernel_matrix_reference<T: Scalar>(
    points: &DenseMatrix<T>,
    kernel: KernelFunction,
) -> DenseMatrix<T> {
    let n = points.rows();
    DenseMatrix::from_fn(n, n, |i, j| {
        T::from_f64(kernel.evaluate(points.row(i), points.row(j)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::matmul_nt;

    fn sample_points() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![0.5, -1.0, 1.0],
            vec![0.0, 0.0, 0.0],
            vec![2.0, 2.0, -1.0],
        ])
        .unwrap()
    }

    #[test]
    fn linear_kernel_is_inner_product() {
        let k = KernelFunction::Linear;
        assert_eq!(k.apply(3.5, 1.0, 2.0), 3.5);
        assert_eq!(k.evaluate(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(k.flops_per_entry(), 0);
        assert!(!k.needs_diagonal());
    }

    #[test]
    fn polynomial_kernel_paper_parameters() {
        let k = KernelFunction::paper_polynomial();
        // (1*2 + 1)^2 = 9
        assert_eq!(k.apply(2.0, 0.0, 0.0), 9.0);
        assert_eq!(k.name(), "polynomial");
    }

    #[test]
    fn gaussian_kernel_properties() {
        let k = KernelFunction::Gaussian {
            gamma: 1.0,
            sigma: 1.0,
        };
        // identical points -> distance 0 -> kernel 1
        assert!((k.evaluate(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        // farther points -> smaller kernel value
        let near = k.evaluate(&[0.0], &[0.1]);
        let far = k.evaluate(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
        assert!(k.needs_diagonal());
    }

    #[test]
    fn sigmoid_kernel_bounded() {
        let k = KernelFunction::Sigmoid {
            gamma: 0.5,
            coef0: 0.0,
        };
        for b in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let v = k.apply(b, 0.0, 0.0);
            assert!((-1.0..=1.0).contains(&v));
        }
        assert_eq!(k.name(), "sigmoid");
    }

    #[test]
    fn apply_to_gram_matches_reference_all_kernels() {
        let points = sample_points();
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 0.7,
                sigma: 1.3,
            },
            KernelFunction::Sigmoid {
                gamma: 0.2,
                coef0: 0.1,
            },
        ] {
            let mut gram = matmul_nt(&points, &points).unwrap();
            kernel.apply_to_gram(&mut gram);
            let reference = kernel_matrix_reference(&points, kernel);
            assert!(
                gram.approx_eq(&reference, 1e-10, 1e-10),
                "kernel {} disagrees with reference",
                kernel.name()
            );
        }
    }

    #[test]
    fn kernel_matrix_is_symmetric() {
        let points = sample_points();
        for kernel in [
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 1.0,
                sigma: 2.0,
            },
        ] {
            let k = kernel_matrix_reference(&points, kernel);
            for i in 0..points.rows() {
                for j in 0..points.rows() {
                    assert!((k[(i, j)] - k[(j, i)]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn gaussian_diagonal_is_one() {
        let points = sample_points();
        let k = kernel_matrix_reference(&points, KernelFunction::default_gaussian());
        for i in 0..points.rows() {
            assert!((k[(i, i)] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn flops_per_entry_positive_for_nonlinear() {
        assert!(KernelFunction::paper_polynomial().flops_per_entry() > 0);
        assert!(KernelFunction::default_gaussian().flops_per_entry() > 0);
        assert!(
            KernelFunction::Sigmoid {
                gamma: 1.0,
                coef0: 0.0
            }
            .flops_per_entry()
                > 0
        );
    }

    #[test]
    fn cross_tile_matches_gram_tile_on_training_rows() {
        // A cross tile whose "queries" are the training points themselves
        // must reproduce the square kernel matrix bit for bit.
        let points = sample_points();
        let diag: Vec<f64> = (0..points.rows())
            .map(|i| {
                points
                    .row(i)
                    .iter()
                    .fold(0.0f64, |acc, &x| x.mul_add(x, acc))
            })
            .collect();
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 0.7,
                sigma: 1.3,
            },
            KernelFunction::Sigmoid {
                gamma: 0.2,
                coef0: 0.1,
            },
        ] {
            let mut square = matmul_nt(&points, &points).unwrap();
            let mut cross = square.clone();
            kernel.apply_to_gram_tile(&mut square, 0, &diag);
            kernel.apply_to_cross_tile(&mut cross, &diag, &diag);
            for i in 0..points.rows() {
                for j in 0..points.rows() {
                    assert_eq!(
                        cross[(i, j)].to_bits(),
                        square[(i, j)].to_bits(),
                        "kernel {} entry ({i},{j})",
                        kernel.name()
                    );
                }
            }
        }
    }

    /// Gram entries that stress the map's bit-identity: signed zeros,
    /// subnormals of both precisions, ±∞, NaN, a value one ulp above 1,
    /// overflow-prone magnitudes and ordinary values.
    fn awkward_gram(i: usize) -> f64 {
        const VALUES: [f64; 14] = [
            0.0,
            -0.0,
            1e-310,
            -1e-40,
            1.0 + f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e200,
            -3e-5,
            -2.5,
            0.37,
            3.7,
            -1.0,
        ];
        VALUES[i % VALUES.len()]
    }

    /// The per-entry definition each map must reproduce, on the standard
    /// library's `powi`, `exp` and `tanh`.
    fn reference_entry(kernel: KernelFunction, b_ij: f64, b_ii: f64, b_jj: f64) -> f64 {
        match kernel {
            KernelFunction::Linear => b_ij,
            KernelFunction::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * b_ij + coef0).powi(std::hint::black_box(degree)),
            KernelFunction::Gaussian { gamma, sigma } => {
                (-gamma * (b_ii + b_jj - 2.0 * b_ij) / (sigma * sigma)).exp()
            }
            KernelFunction::Sigmoid { gamma, coef0 } => (gamma * b_ij + coef0).tanh(),
        }
    }

    fn check_map_bits<T: Scalar>(kernel: KernelFunction, bits: fn(T) -> u64) {
        // 9 x 150: rows straddle the map's lane blocks and end in a short one.
        let (rows, cols) = (9, 150);
        let gram =
            DenseMatrix::<T>::from_fn(rows, cols, |i, j| T::from_f64(awkward_gram(i * 5 + j * 3)));
        let row_diag: Vec<f64> = (0..rows).map(|i| awkward_gram(i * 7 + 2)).collect();
        let col_diag: Vec<f64> = (0..cols).map(|j| awkward_gram(j * 11 + 1)).collect();
        let mut mapped = gram.clone();
        kernel.apply_to_cross_tile(&mut mapped, &row_diag, &col_diag);
        for i in 0..rows {
            for j in 0..cols {
                let b_ij = gram[(i, j)].to_f64();
                let want = reference_entry(kernel, b_ij, row_diag[i], col_diag[j]);
                let at = format!("{kernel:?} entry ({i},{j}) of {b_ij}");
                assert_eq!(bits(mapped[(i, j)]), bits(T::from_f64(want)), "map: {at}");
                let scalar = kernel.apply(b_ij, row_diag[i], col_diag[j]);
                assert_eq!(scalar.to_bits(), want.to_bits(), "apply: {at}");
            }
        }
    }

    #[test]
    fn per_kernel_maps_match_the_per_entry_definition_bit_for_bit() {
        let mut kernels: Vec<KernelFunction> = (-3..=6)
            .map(|degree| KernelFunction::Polynomial {
                gamma: 0.7,
                coef0: 1.0 + f64::EPSILON,
                degree,
            })
            .collect();
        kernels.extend([
            KernelFunction::Linear,
            KernelFunction::Gaussian {
                gamma: 0.7,
                sigma: 1.3,
            },
            KernelFunction::Sigmoid {
                gamma: 0.2,
                coef0: -0.1,
            },
        ]);
        for kernel in kernels {
            check_map_bits::<f32>(kernel, |x| u64::from(x.to_bits()));
            check_map_bits::<f64>(kernel, f64::to_bits);
        }
    }

    #[test]
    fn f32_gram_path() {
        let points: DenseMatrix<f32> = sample_points().cast();
        let mut gram = matmul_nt(&points, &points).unwrap();
        KernelFunction::paper_polynomial().apply_to_gram(&mut gram);
        let reference = kernel_matrix_reference(&points, KernelFunction::paper_polynomial());
        assert!(gram.approx_eq(&reference, 1e-4, 1e-4));
    }
}
