//! Initial cluster assignments.
//!
//! The paper initialises Kernel K-means by giving every point a uniformly
//! random cluster label (Alg. 2 line 3, artifact `--init random`). A kernel
//! k-means++ seeding is provided as an extension: it selects well-spread
//! initial "centres" in *feature space* using only kernel-matrix entries
//! (`‖φ(pᵢ) − φ(p_c)‖² = K_ii + K_cc − 2K_ic`) and derives the initial
//! labels from them.

use crate::kernel_source::{KernelSource, PhaseResidency};
use crate::{CoreError, Result};
use popcorn_dense::Scalar;
use popcorn_gpusim::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial assignment strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initialization {
    /// Uniformly random label per point (the paper's method).
    Random,
    /// Kernel-space k-means++ seeding followed by a nearest-centre assignment.
    KmeansPlusPlus,
}

impl Initialization {
    /// Name matching the artifact's `--init` flag.
    pub fn name(&self) -> &'static str {
        match self {
            Initialization::Random => "random",
            Initialization::KmeansPlusPlus => "kmeans++",
        }
    }
}

/// Produce random initial assignments (every label in `0..k`).
pub fn random_assignments(n: usize, k: usize, seed: u64) -> Result<Vec<usize>> {
    if k == 0 || n == 0 || k > n {
        return Err(CoreError::InvalidConfig(format!(
            "cannot initialise {k} clusters over {n} points"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..n).map(|_| rng.gen_range(0..k)).collect())
}

/// Kernel k-means++ assignments: select `k` spread-out seed points in feature
/// space (D² sampling on kernel-trick distances), then assign every point to
/// its nearest seed.
///
/// The needed entries (`diag(K)` plus the rows of the chosen seed points) are
/// pulled from the [`KernelSource`], so the full matrix never has to be
/// resident: one algorithm, one RNG draw sequence, so streamed and resident
/// kernel matrices seed identically by construction.
pub fn kmeanspp_assignments_source<T: Scalar>(
    source: &dyn KernelSource<T>,
    k: usize,
    seed: u64,
    executor: &dyn Executor,
) -> Result<Vec<usize>> {
    let n = source.n();
    if k == 0 || n == 0 || k > n {
        return Err(CoreError::InvalidConfig(format!(
            "cannot initialise {k} clusters over {n} points"
        )));
    }
    let diag = source.diag(executor)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // Rows of K for the chosen centres, fetched once per centre. These (plus
    // the best-distance vector) are resident for the whole seeding phase, so
    // their footprint counts towards the modeled peak; the guard frees it on
    // every exit path, so an error mid-seeding cannot leak tracked bytes
    // into a caller-attached executor's residency.
    let seeding_bytes = (k as u64 * n as u64) * std::mem::size_of::<T>() as u64 + n as u64 * 8;
    let _seeding = PhaseResidency::track(executor, seeding_bytes);
    let center_rows = select_spread_rows(source, k, &diag, &mut rng, executor)?;

    // Assign every point to the nearest seed.
    let labels = (0..n)
        .map(|i| {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c_idx, (c, row_c)) in center_rows.iter().enumerate() {
                let d = kernel_sq_dist(&diag, row_c, *c, i);
                if d < best_d {
                    best_d = d;
                    best = c_idx;
                }
            }
            best
        })
        .collect();
    Ok(labels)
}

/// Kernel-trick squared feature-space distance between points `i` and `c`
/// given `diag(K)` and row `c` of `K`: `K_ii + K_cc − 2 K_ic`, clamped at 0.
#[inline]
fn kernel_sq_dist<T: Scalar>(diag: &[T], row_c: &[T], c: usize, i: usize) -> f64 {
    (diag[i].to_f64() + diag[c].to_f64() - 2.0 * row_c[i].to_f64()).max(0.0)
}

/// The D²-sampling core of kernel k-means++: draw `k` spread-out rows of `K`
/// from `source` (first uniformly, then proportional to the best squared
/// feature-space distance so far), returning each chosen index with its
/// kernel-matrix row.
///
/// This single loop is shared verbatim between k-means++ seeding (the rows
/// are the seed centres) and Nyström landmark selection
/// ([`crate::nystrom::NystromKernel`], where the rows are the columns of the
/// cross-kernel factor `C`) — one implementation, one RNG draw sequence.
/// Chosen indices are distinct whenever `k` distinct points exist: a chosen
/// row's best-distance drops to zero, so D² sampling never re-draws it, and
/// the `total <= 0` fallback picks unused indices deterministically.
///
/// The caller validates `0 < k <= n` and accounts the residency of the
/// returned rows.
pub(crate) fn select_spread_rows<T: Scalar>(
    source: &dyn KernelSource<T>,
    k: usize,
    diag: &[T],
    rng: &mut StdRng,
    executor: &dyn Executor,
) -> Result<Vec<(usize, Vec<T>)>> {
    let mut center_rows: Vec<(usize, Vec<T>)> = Vec::with_capacity(k);
    let mut best_dist: Vec<f64> = Vec::new();
    extend_spread_rows(
        source,
        k,
        diag,
        rng,
        executor,
        &mut center_rows,
        &mut best_dist,
    )?;
    Ok(center_rows)
}

/// Resumable form of [`select_spread_rows`]: grow `center_rows` to
/// `target_k` entries, continuing the D² sampling from the caller-held
/// `(center_rows, best_dist)` state. Starting from empty state and growing to
/// `k` draws exactly the RNG sequence of a fresh [`select_spread_rows`] call
/// — so growing to `m` rows and later extending to `2m` is bitwise identical
/// to selecting `2m` rows in one call (the property the adaptive Nyström
/// rank search relies on).
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_spread_rows<T: Scalar>(
    source: &dyn KernelSource<T>,
    target_k: usize,
    diag: &[T],
    rng: &mut StdRng,
    executor: &dyn Executor,
    center_rows: &mut Vec<(usize, Vec<T>)>,
    best_dist: &mut Vec<f64>,
) -> Result<()> {
    let n = source.n();
    if center_rows.is_empty() && target_k > 0 {
        let first = rng.gen_range(0..n);
        let first_row = source.row(first, executor)?;
        *best_dist = (0..n)
            .map(|i| kernel_sq_dist(diag, &first_row, first, i))
            .collect();
        center_rows.push((first, first_row));
    }

    while center_rows.len() < target_k {
        let total: f64 = best_dist.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with existing centres; fall back
            // to picking an unused index deterministically.
            (0..n)
                .find(|i| !center_rows.iter().any(|(c, _)| c == i))
                .unwrap_or(0)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in best_dist.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let next_row = source.row(next, executor)?;
        for (i, best) in best_dist.iter_mut().enumerate() {
            let d = kernel_sq_dist(diag, &next_row, next, i);
            if d < *best {
                *best = d;
            }
        }
        center_rows.push((next, next_row));
    }
    Ok(())
}

/// Dispatch on the configured initialisation method over a [`KernelSource`].
/// Random initialisation needs only `n`; kernel k-means++ streams the entries
/// it needs.
pub fn initial_assignments_source<T: Scalar>(
    source: &dyn KernelSource<T>,
    k: usize,
    init: Initialization,
    seed: u64,
    executor: &dyn Executor,
) -> Result<Vec<usize>> {
    match init {
        Initialization::Random => random_assignments(source.n(), k, seed),
        Initialization::KmeansPlusPlus => kmeanspp_assignments_source(source, k, seed, executor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{kernel_matrix_reference, KernelFunction};
    use crate::kernel_source::{FullKernel, TiledKernel};
    use crate::solver::FitInput;
    use popcorn_dense::DenseMatrix;
    use popcorn_gpusim::SimExecutor;

    #[test]
    fn random_assignments_in_range_and_deterministic() {
        let a = random_assignments(100, 7, 42).unwrap();
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&l| l < 7));
        assert_eq!(a, random_assignments(100, 7, 42).unwrap());
        assert_ne!(a, random_assignments(100, 7, 43).unwrap());
    }

    #[test]
    fn random_assignments_use_all_clusters_for_large_n() {
        let a = random_assignments(1000, 10, 1).unwrap();
        let mut seen = [false; 10];
        for &l in &a {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_assignments_validate_inputs() {
        assert!(random_assignments(0, 3, 0).is_err());
        assert!(random_assignments(10, 0, 0).is_err());
        assert!(random_assignments(3, 10, 0).is_err());
    }

    /// Two tight groups far apart.
    fn two_blob_points() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ])
        .unwrap()
    }

    fn two_blob_kernel() -> DenseMatrix<f64> {
        kernel_matrix_reference(&two_blob_points(), KernelFunction::Linear)
    }

    /// k-means++ over a resident kernel matrix, as the in-core solvers seed.
    fn kmeanspp(kernel_matrix: &DenseMatrix<f64>, k: usize, seed: u64) -> Result<Vec<usize>> {
        let source = FullKernel::new(kernel_matrix)?;
        kmeanspp_assignments_source(&source, k, seed, &SimExecutor::a100_f32())
    }

    #[test]
    fn kmeanspp_separates_obvious_blobs() {
        let k = two_blob_kernel();
        let labels = kmeanspp(&k, 2, 3).unwrap();
        assert_eq!(labels.len(), 6);
        // Points 0-2 share a label, points 3-5 share the other label.
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn kmeanspp_is_deterministic_given_seed() {
        let k = two_blob_kernel();
        assert_eq!(kmeanspp(&k, 3, 11).unwrap(), kmeanspp(&k, 3, 11).unwrap());
    }

    #[test]
    fn kmeanspp_handles_duplicate_points() {
        // All points identical: distances are all zero; must still terminate
        // and produce valid labels.
        let points = DenseMatrix::from_rows(&vec![vec![1.0, 1.0]; 5]).unwrap();
        let k = kernel_matrix_reference(&points, KernelFunction::Linear);
        let labels = kmeanspp(&k, 3, 0).unwrap();
        assert_eq!(labels.len(), 5);
        assert!(labels.iter().all(|&l| l < 3));
    }

    #[test]
    fn kmeanspp_validates_inputs() {
        let k = two_blob_kernel();
        assert!(kmeanspp(&k, 0, 0).is_err());
        assert!(kmeanspp(&k, 100, 0).is_err());
        let rect = DenseMatrix::<f64>::zeros(2, 3);
        assert!(kmeanspp(&rect, 1, 0).is_err());
    }

    #[test]
    fn source_kmeanspp_matches_in_core_kmeanspp() {
        // A streamed source seeds as the resident matrix of its own rows.
        let points = two_blob_points();
        let exec = SimExecutor::a100_f32();
        let tiled =
            TiledKernel::new(FitInput::Dense(&points), KernelFunction::Linear, 2, &exec).unwrap();
        let rows: Vec<Vec<f64>> = (0..6).map(|i| tiled.row(i, &exec).unwrap()).collect();
        let k_matrix = DenseMatrix::from_rows(&rows).unwrap();
        for seed in [0u64, 3, 11, 29] {
            let streamed = kmeanspp_assignments_source(&tiled, 2, seed, &exec).unwrap();
            let in_core = kmeanspp(&k_matrix, 2, seed).unwrap();
            assert_eq!(streamed, in_core, "seed {seed}");
        }
        assert!(kmeanspp_assignments_source(&tiled, 0, 0, &exec).is_err());
        assert!(kmeanspp_assignments_source(&tiled, 100, 0, &exec).is_err());
    }

    #[test]
    fn extend_spread_rows_resumes_bitwise_identically() {
        let k_matrix = two_blob_kernel();
        let exec = SimExecutor::a100_f32();
        let source = FullKernel::new(&k_matrix).unwrap();
        let diag = source.diag(&exec).unwrap();
        for seed in [0u64, 7, 19] {
            let mut rng = StdRng::seed_from_u64(seed);
            let one_shot = select_spread_rows(&source, 4, &diag, &mut rng, &exec).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows = Vec::new();
            let mut best = Vec::new();
            extend_spread_rows(&source, 2, &diag, &mut rng, &exec, &mut rows, &mut best).unwrap();
            assert_eq!(rows.len(), 2);
            extend_spread_rows(&source, 4, &diag, &mut rng, &exec, &mut rows, &mut best).unwrap();
            let one_shot: Vec<(usize, Vec<u64>)> = one_shot
                .into_iter()
                .map(|(i, row)| (i, row.iter().map(|v| v.to_bits()).collect()))
                .collect();
            let resumed: Vec<(usize, Vec<u64>)> = rows
                .into_iter()
                .map(|(i, row)| (i, row.iter().map(|v| v.to_bits()).collect()))
                .collect();
            assert_eq!(one_shot, resumed, "seed {seed}");
        }
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let k = two_blob_kernel();
        let source = FullKernel::new(&k).unwrap();
        let exec = SimExecutor::a100_f32();
        let init = |method| initial_assignments_source(&source, 2, method, 5, &exec).unwrap();
        assert_eq!(
            init(Initialization::Random),
            random_assignments(6, 2, 5).unwrap()
        );
        assert_eq!(
            init(Initialization::KmeansPlusPlus),
            kmeanspp(&k, 2, 5).unwrap()
        );
        assert_eq!(Initialization::Random.name(), "random");
        assert_eq!(Initialization::KmeansPlusPlus.name(), "kmeans++");
    }
}
