//! # popcorn-dense
//!
//! Dense linear-algebra substrate for the Popcorn kernel k-means reproduction
//! (PPoPP '25, "Popcorn: Accelerating Kernel K-means on GPUs through Sparse
//! Linear Algebra").
//!
//! The paper offloads its dense work to cuBLAS (GEMM, SYRK) and small
//! hand-written CUDA kernels (the distance assembly, row-wise argmin). This
//! crate provides the operations Popcorn runs as portable, multi-threaded
//! host implementations:
//!
//! * [`DenseMatrix`] — a row-major dense matrix over [`Scalar`] (`f32`/`f64`),
//! * [`mod@gemm`] — the `A·Bᵀ` products (whole or by rows) and `A·B`,
//! * [`mod@syrk`] — the symmetric product, packed or mirrored,
//! * [`packed`] — the lower triangle of a symmetric matrix, packed by rows,
//! * [`microkernel`] — the packed, register-blocked `A·Bᵀ` kernel behind
//!   GEMM, SYRK and the cross Gram, run through the FMA dispatch in [`fma`],
//! * the distance assembly, diagonals, row sums and row-wise argmin in
//!   [`ops`] and [`norms`],
//! * a tiny scoped-thread helper in [`parallel`] used by every kernel.
//!
//! The numerical semantics match the BLAS routines the paper uses so that the
//! higher layers (`popcorn-sparse`, `popcorn-core`) can be validated against
//! straightforward reference implementations.

pub mod errors;
pub mod fma;
pub mod gemm;
pub mod matrix;
pub mod microkernel;
pub mod norms;
pub mod ops;
pub mod packed;
pub mod parallel;
pub mod scalar;
pub mod syrk;

pub use errors::DenseError;
pub use gemm::{matmul, matmul_nt, matmul_nt_rows, matmul_nt_rows_with};
pub use matrix::DenseMatrix;
pub use norms::{diagonal, row_argmin, row_argmin_into};
pub use packed::{packed_len, packed_offset, PackedRows, PackedSymmetric};
pub use scalar::Scalar;
pub use syrk::{symmetrize_lower, syrk_full, syrk_packed_with, Triangle};

/// Result alias used across the dense crate.
pub type Result<T> = std::result::Result<T, DenseError>;
