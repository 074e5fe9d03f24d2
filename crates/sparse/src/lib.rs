//! # popcorn-sparse
//!
//! Sparse linear-algebra substrate for the Popcorn kernel k-means
//! reproduction (PPoPP '25).
//!
//! The paper's key idea is to cast the per-iteration work of kernel k-means
//! as operations on the *selection matrix* `V` (k×n, exactly one non-zero per
//! column, Eq. 7):
//!
//! * `E = −2 K Vᵀ` via **SpMM** (cuSPARSE `cusparseSpMM` in the original),
//! * centroid norms via the **SpMV** trick `−0.5 · V z` (Eq. 14–15),
//! * optionally `V K Vᵀ` via **SpGEMM** (the wasteful alternative the SpMV
//!   trick replaces — kept here for the ablation study).
//!
//! This crate provides the CSR container, its transpose and Gram product,
//! the SpMM folds, SpMV, SpGEMM and the [`selection::SelectionMatrix`]
//! builder that the core algorithm uses.

pub mod csr;
pub mod errors;
pub mod selection;
pub mod spgemm;
pub mod spmm;
pub mod spmv;

#[cfg(test)]
mod test_values;

pub use csr::{ColumnSlots, CsrMatrix, CsrRows, GramIndex};
pub use errors::SparseError;
pub use selection::SelectionMatrix;
pub use spgemm::spgemm;
pub use spmm::{
    spmm_csr_rows_selection_t_into, spmm_selection_lower_accumulate, spmm_transpose_b_into,
};
pub use spmv::spmv;

/// Result alias used across the sparse crate.
pub type Result<T> = std::result::Result<T, SparseError>;
