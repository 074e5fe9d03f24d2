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
    /// Gaussian kernel sees the original `xᵀx` values. Each entry gets the
    /// arithmetic of the map every kernel-matrix producer fuses into its
    /// write-back, so a map applied after the product and one fused into it
    /// store the same bits. Sequential, for the single-core CPU reference.
    pub fn apply_to_gram<T: Scalar>(&self, b: &mut DenseMatrix<T>) {
        let n = b.rows();
        debug_assert!(b.is_square(), "Gram matrix must be square");
        if n == 0 {
            return;
        }
        let diag: Vec<f64> = (0..n).map(|i| b[(i, i)].to_f64()).collect();
        let map = KernelMap::new(*self, &diag, &diag);
        dispatch(
            #[inline(always)]
            || {
                for (i, row) in b.as_mut_slice().chunks_exact_mut(n).enumerate() {
                    map.run(i, 0, row);
                }
            },
        )
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

/// The kernel map as the write-back of a Gram product (epilogue fusion, as
/// in CUTLASS): every producer of exact kernel entries — the GEMM, SYRK and
/// CSR kernel matrices, the baseline's GEMM, the tiled panels and rows,
/// serve's cross kernel — stores each run of Gram entries and hands it to
/// [`KernelMap::run`] before moving on, so each entry of `K` is written
/// once, already mapped, instead of being read back by a second pass.
///
/// Each entry gets exactly [`KernelFunction::apply`]'s arithmetic, but the
/// kernel is matched once per run: the linear kernel is the identity and
/// leaves the run untouched, and the polynomial kernel raises the whole run
/// to its power in lanes as wide as the products' register blocks, so the
/// element loop vectorizes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelMap<'a> {
    kernel: KernelFunction,
    row_diag: &'a [f64],
    col_diag: &'a [f64],
}

impl<'a> KernelMap<'a> {
    /// The map of a product whose row `i` has Gram diagonal `row_diag[i]`
    /// and column `j` has `col_diag[j]` (`xᵀx` as `f64`, exactly as
    /// `TiledKernel::compute_gram_diag` replays the Gram paths' diagonal).
    /// Only the Gaussian reads them; other kernels may pass empty slices.
    pub(crate) fn new(kernel: KernelFunction, row_diag: &'a [f64], col_diag: &'a [f64]) -> Self {
        Self {
            kernel,
            row_diag,
            col_diag,
        }
    }

    /// Map in place the run `cells` of Gram entries `(i, j0 ..)`.
    #[inline(always)]
    pub(crate) fn run<T: Scalar>(&self, i: usize, j0: usize, cells: &mut [T]) {
        match self.kernel {
            KernelFunction::Linear => {}
            KernelFunction::Polynomial {
                gamma,
                coef0,
                degree,
            } => {
                // One block per run of the dense products: 16 lanes for
                // `f32` (the register block's width), 8 for `f64`.
                if std::mem::size_of::<T>() == 4 {
                    polynomial::<T, 16>(cells, gamma, coef0, degree)
                } else {
                    polynomial::<T, 8>(cells, gamma, coef0, degree)
                }
            }
            KernelFunction::Gaussian { gamma, sigma } => {
                let b_ii = self.row_diag[i];
                let col_diag = &self.col_diag[j0..j0 + cells.len()];
                for (value, &b_jj) in cells.iter_mut().zip(col_diag) {
                    *value = T::from_f64(gaussian(gamma, sigma, value.to_f64(), b_ii, b_jj));
                }
            }
            KernelFunction::Sigmoid { gamma, coef0 } => {
                for value in cells.iter_mut() {
                    *value = T::from_f64((gamma * value.to_f64() + coef0).tanh());
                }
            }
        }
    }
}

/// `(γ·b + c)^r` over `cells` in blocks of `L` lanes: the block's power is
/// one short loop per exponent bit. Whole blocks have a length the compiler
/// knows, so each is straight-line vector code; lanes past a short tail
/// block compute a discarded `0^r`.
#[inline(always)]
fn polynomial<T: Scalar, const L: usize>(cells: &mut [T], gamma: f64, coef0: f64, degree: i32) {
    let mut blocks = cells.chunks_exact_mut(L);
    for block in &mut blocks {
        let block: &mut [T; L] = block.try_into().expect("an exact chunk");
        power_block(block, gamma, coef0, degree);
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut block = [T::ZERO; L];
        block[..tail.len()].copy_from_slice(tail);
        power_block(&mut block, gamma, coef0, degree);
        tail.copy_from_slice(&block[..tail.len()]);
    }
}

/// `(γ·b + c)^r` over one block of `L` lanes, in place.
#[inline(always)]
fn power_block<T: Scalar, const L: usize>(block: &mut [T; L], gamma: f64, coef0: f64, degree: i32) {
    let mut x = [0.0f64; L];
    for (x, &value) in x.iter_mut().zip(block.iter()) {
        *x = gamma * value.to_f64() + coef0;
    }
    powi_lanes(&mut x, degree);
    for (value, &x) in block.iter_mut().zip(&x) {
        *value = T::from_f64(x);
    }
}

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
            kernel.apply_to_gram(&mut square);
            map_in_runs(KernelMap::new(kernel, &diag, &diag), &mut cross);
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

    /// Map `m` through `map` in runs of uneven widths, as the products
    /// hand them out: whole lane blocks, short runs, and runs wider than a
    /// block.
    fn map_in_runs<T: Scalar>(map: KernelMap<'_>, m: &mut DenseMatrix<T>) {
        const WIDTHS: [usize; 6] = [16, 3, 8, 6, 1, 37];
        for i in 0..m.rows() {
            let row = m.row_mut(i);
            let mut j0 = 0;
            for &width in WIDTHS.iter().cycle() {
                if j0 == row.len() {
                    break;
                }
                let j1 = (j0 + width).min(row.len());
                map.run(i, j0, &mut row[j0..j1]);
                j0 = j1;
            }
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
        map_in_runs(KernelMap::new(kernel, &row_diag, &col_diag), &mut mapped);
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
