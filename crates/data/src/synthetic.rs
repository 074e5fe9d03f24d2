//! Seeded synthetic dataset generators.
//!
//! Two roles:
//!
//! * The GEMM/SYRK study (paper Figure 2) uses uniform random matrices with
//!   controlled `n` and `d` — [`uniform_matrix`] / [`uniform_dataset`].
//! * The clustering-quality examples need workloads where kernel k-means
//!   demonstrably beats classical k-means: [`concentric_rings`] is the
//!   canonical non-linearly separable case, while [`gaussian_blobs`] is the
//!   linearly separable control.
//!
//! All generators are deterministic given a seed.

use crate::dataset::{Dataset, SparseDataset};
use popcorn_dense::{DenseError, DenseMatrix, Scalar};
use popcorn_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::f64::consts::PI;

/// Draw one standard-normal sample using the Box–Muller transform (avoids a
/// dependency on `rand_distr`).
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// An `n × d` matrix with i.i.d. uniform entries in `[0, 1)`, drawn in
/// row-major order. The shape comes from the caller's input, so the entry
/// count is checked and the buffer reserved fallibly: a shape whose bytes
/// overflow, or that the allocator refuses, is
/// [`DenseError::AllocationFailed`] instead of an abort.
pub fn uniform_matrix<T: Scalar>(
    n: usize,
    d: usize,
    seed: u64,
) -> Result<DenseMatrix<T>, DenseError> {
    let failed = || DenseError::AllocationFailed {
        what: "the generated points",
        bytes: n as u128 * d as u128 * std::mem::size_of::<T>() as u128,
    };
    let len = n.checked_mul(d).ok_or_else(failed)?;
    let mut data = Vec::new();
    data.try_reserve_exact(len).map_err(|_| failed())?;
    let mut rng = StdRng::seed_from_u64(seed);
    data.extend((0..len).map(|_| T::from_f64(rng.gen::<f64>())));
    DenseMatrix::from_vec(n, d, data)
}

/// A dataset wrapping [`uniform_matrix`], named after its shape
/// ([`uniform_name`]). Panics where [`uniform_matrix`] returns an error:
/// a caller sizing it from input calls [`uniform_matrix`] instead.
pub fn uniform_dataset<T: Scalar>(n: usize, d: usize, seed: u64) -> Dataset<T> {
    let points = uniform_matrix(n, d, seed).unwrap_or_else(|e| panic!("{e}"));
    Dataset::new(uniform_name(n, d), points)
}

/// The name [`uniform_dataset`] gives an `n × d` uniform dataset.
pub fn uniform_name(n: usize, d: usize) -> String {
    format!("synthetic-uniform-n{n}-d{d}")
}

/// Isotropic Gaussian blobs: `k` cluster centres drawn uniformly in
/// `[-center_box, center_box]^d`, each point drawn from a spherical Gaussian
/// with the given standard deviation around its centre. Linearly separable
/// when `std_dev` is small relative to the centre spacing.
pub fn gaussian_blobs<T: Scalar>(
    n: usize,
    d: usize,
    k: usize,
    std_dev: f64,
    seed: u64,
) -> Dataset<T> {
    assert!(k >= 1, "need at least one blob");
    assert!(d >= 1, "need at least one feature");
    let mut rng = StdRng::seed_from_u64(seed);
    let center_box = 10.0;
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| {
            (0..d)
                .map(|_| rng.gen_range(-center_box..center_box))
                .collect()
        })
        .collect();
    let mut labels = Vec::with_capacity(n);
    let points = DenseMatrix::from_fn(n, d, |i, j| {
        if j == 0 {
            labels.push(i % k);
        }
        let c = i % k;
        T::from_f64(centers[c][j] + std_dev * sample_standard_normal(&mut rng))
    });
    Dataset::with_labels(format!("blobs-n{n}-d{d}-k{k}"), points, labels)
        .expect("labels match points by construction")
}

/// Concentric rings in 2-D: ring `c` has radius `(c + 1) * radius_step` with
/// Gaussian radial noise. Classical k-means cannot separate the rings; kernel
/// k-means with a Gaussian or polynomial kernel can — this is the motivating
/// example of the paper's introduction.
pub fn concentric_rings<T: Scalar>(
    n: usize,
    rings: usize,
    radius_step: f64,
    noise: f64,
    seed: u64,
) -> Dataset<T> {
    assert!(rings >= 1, "need at least one ring");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = Vec::with_capacity(n);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let ring = i % rings;
        let radius = (ring + 1) as f64 * radius_step + noise * sample_standard_normal(&mut rng);
        let theta = rng.gen_range(0.0..(2.0 * PI));
        rows.push(vec![
            T::from_f64(radius * theta.cos()),
            T::from_f64(radius * theta.sin()),
        ]);
        labels.push(ring);
    }
    let points = DenseMatrix::from_rows(&rows).expect("rows are uniform length 2");
    Dataset::with_labels(format!("rings-n{n}-r{rings}"), points, labels)
        .expect("labels match points by construction")
}

/// A dense Gaussian blob at the origin enclosed by a ring of the given
/// radius — the textbook non-linearly separable workload: both clusters have
/// (nearly) the same mean, so classical k-means cannot separate them, while
/// kernel k-means with a Gaussian kernel separates them reliably.
///
/// Points alternate blob / ring, so labels are `i % 2` (0 = blob, 1 = ring).
pub fn ring_with_blob<T: Scalar>(
    n: usize,
    ring_radius: f64,
    blob_std: f64,
    ring_noise: f64,
    seed: u64,
) -> Dataset<T> {
    assert!(ring_radius > 0.0, "ring radius must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = Vec::with_capacity(n);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        if i % 2 == 0 {
            rows.push(vec![
                T::from_f64(blob_std * sample_standard_normal(&mut rng)),
                T::from_f64(blob_std * sample_standard_normal(&mut rng)),
            ]);
            labels.push(0);
        } else {
            let theta = rng.gen_range(0.0..(2.0 * PI));
            let radius = ring_radius + ring_noise * sample_standard_normal(&mut rng);
            rows.push(vec![
                T::from_f64(radius * theta.cos()),
                T::from_f64(radius * theta.sin()),
            ]);
            labels.push(1);
        }
    }
    let points = DenseMatrix::from_rows(&rows).expect("rows are uniform length 2");
    Dataset::with_labels(format!("ring-with-blob-n{n}"), points, labels)
        .expect("labels match points by construction")
}

/// Gaussian blobs embedded in a higher-dimensional space with `d_informative`
/// informative dimensions and `d - d_informative` pure-noise dimensions;
/// loosely imitates image/text feature matrices where most variance lives in
/// a low-dimensional subspace.
pub fn blobs_with_noise_dims<T: Scalar>(
    n: usize,
    d: usize,
    d_informative: usize,
    k: usize,
    std_dev: f64,
    noise_scale: f64,
    seed: u64,
) -> Dataset<T> {
    assert!(d_informative <= d, "informative dims exceed total dims");
    let informative = gaussian_blobs::<f64>(n, d_informative.max(1), k, std_dev, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E3779B97F4A7C15));
    let labels = informative.labels().expect("blobs are labelled").to_vec();
    let points = DenseMatrix::from_fn(n, d, |i, j| {
        if j < d_informative {
            T::from_f64(informative.points()[(i, j)])
        } else {
            T::from_f64(noise_scale * sample_standard_normal(&mut rng))
        }
    });
    Dataset::with_labels(format!("noisy-blobs-n{n}-d{d}-k{k}"), points, labels)
        .expect("labels match points by construction")
}

/// A sparse, cluster-structured, bag-of-words-like dataset built directly in
/// CSR form — the stand-in for the paper's text workloads (scotus:
/// n = 6 400, d = 126 405, ~8 200 non-zeros per row; ledgar is similar).
///
/// The feature space is split into `k` disjoint vocabulary blocks plus a
/// shared block of `d / (2k)` common "stop word" features. Each point draws
/// `nnz_per_row` distinct features, ~80% from its cluster's block and the
/// rest from the shared block, with positive tf-idf-like weights. The result
/// is linearly clusterable in feature space while staying extremely sparse,
/// so it exercises the sparse Gram path end to end.
pub fn sparse_text_like<T: Scalar>(
    n: usize,
    d: usize,
    k: usize,
    nnz_per_row: usize,
    seed: u64,
) -> SparseDataset<T> {
    assert!(k >= 1, "need at least one cluster");
    assert!(d >= 2 * k, "need at least two features per cluster");
    assert!(nnz_per_row >= 1, "need at least one non-zero per row");
    let mut rng = StdRng::seed_from_u64(seed);

    let shared = (d / (2 * k)).max(1);
    let block = (d - shared) / k;
    let nnz_per_row = nnz_per_row.min(block + shared);

    let mut row_ptrs = Vec::with_capacity(n + 1);
    let mut col_indices = Vec::with_capacity(n * nnz_per_row);
    let mut values = Vec::with_capacity(n * nnz_per_row);
    let mut labels = Vec::with_capacity(n);
    row_ptrs.push(0usize);

    for i in 0..n {
        let cluster = i % k;
        let block_start = shared + cluster * block;
        let mut features: BTreeSet<usize> = BTreeSet::new();
        while features.len() < nnz_per_row {
            let j = if rng.gen::<f64>() < 0.8 {
                block_start + rng.gen_range(0..block)
            } else {
                rng.gen_range(0..shared)
            };
            features.insert(j);
        }
        for j in features {
            col_indices.push(j);
            values.push(T::from_f64(0.1 + rng.gen::<f64>()));
        }
        row_ptrs.push(values.len());
        labels.push(cluster);
    }

    let points = CsrMatrix::from_raw_unchecked(n, d, row_ptrs, col_indices, values);
    SparseDataset::with_labels(format!("sparse-text-n{n}-d{d}-k{k}"), points, labels)
        .expect("labels match points by construction")
}

/// A graph-shaped workload built directly as a sparse **affinity matrix**:
/// Gaussian-blob points whose `n × n` kNN affinity graph is assembled in CSR
/// form — the natural input for the CSR-resident kernel path
/// (`SparsifiedKernel::from_csr`), which clusters over a precomputed sparse
/// `K` without ever forming the dense matrix.
///
/// Each point is connected to its `neighbors` nearest points (Euclidean,
/// ties toward the smaller index) with Gaussian affinity
/// `exp(-||x_i - x_j||² / (2 σ²))`; the edge set is symmetrized (union) and
/// every vertex carries a unit self-loop, so the matrix is symmetric with a
/// full diagonal — the structural invariants the sparse kernel path expects.
/// Deterministic given a seed; labels are the generating blob assignment.
pub fn graph_affinity_blobs<T: Scalar>(
    n: usize,
    d: usize,
    k: usize,
    neighbors: usize,
    std_dev: f64,
    sigma: f64,
    seed: u64,
) -> SparseDataset<T> {
    assert!(n >= 2, "need at least two vertices");
    assert!(neighbors >= 1, "need at least one neighbor per vertex");
    assert!(sigma > 0.0, "affinity bandwidth must be positive");
    let blobs = gaussian_blobs::<f64>(n, d, k, std_dev, seed);
    let labels = blobs.labels().expect("blobs are labelled").to_vec();
    let points = blobs.points();
    let dist2 = |a: usize, b: usize| -> f64 {
        points
            .row(a)
            .iter()
            .zip(points.row(b))
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    };

    // kNN edge set, symmetrized by union. BTreeSet keeps row scans sorted.
    let neighbors = neighbors.min(n - 1);
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 0..n {
        let mut order: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        order.sort_by(|&a, &b| {
            dist2(i, a)
                .partial_cmp(&dist2(i, b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for &j in order.iter().take(neighbors) {
            edges.insert((i, j));
            edges.insert((j, i));
        }
    }

    let mut row_ptrs = Vec::with_capacity(n + 1);
    let mut col_indices = Vec::with_capacity(edges.len() + n);
    let mut values = Vec::with_capacity(edges.len() + n);
    row_ptrs.push(0usize);
    let mut edge_iter = edges.iter().peekable();
    for i in 0..n {
        let mut inserted_diag = false;
        while let Some(&&(r, j)) = edge_iter.peek() {
            if r != i {
                break;
            }
            edge_iter.next();
            if !inserted_diag && j > i {
                col_indices.push(i);
                values.push(T::ONE);
                inserted_diag = true;
            }
            col_indices.push(j);
            // ||x_i - x_j||² is bitwise symmetric in (i, j), so mirrored
            // affinities are bitwise equal — no second pass needed.
            values.push(T::from_f64((-dist2(i, j) / (2.0 * sigma * sigma)).exp()));
        }
        if !inserted_diag {
            col_indices.push(i);
            values.push(T::ONE);
        }
        row_ptrs.push(values.len());
    }

    let affinity = CsrMatrix::from_raw_unchecked(n, n, row_ptrs, col_indices, values);
    SparseDataset::with_labels(
        format!("graph-affinity-n{n}-k{k}-nn{neighbors}"),
        affinity,
        labels,
    )
    .expect("labels match vertices by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matrix_is_deterministic_and_in_range() {
        let a = uniform_matrix::<f64>(20, 5, 42).unwrap();
        let b = uniform_matrix::<f64>(20, 5, 42).unwrap();
        let c = uniform_matrix::<f64>(20, 5, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
        // Row-major draws: element (i, j) is the (i·d + j)-th sample.
        let mut rng = StdRng::seed_from_u64(42);
        let draws: Vec<f64> = (0..100).map(|_| rng.gen::<f64>()).collect();
        assert_eq!(a.as_slice(), &draws[..]);
    }

    #[test]
    fn oversized_uniform_shapes_are_typed_errors() {
        // Neither shape reaches the allocator: the first overflows the entry
        // count, the second the largest buffer a `Vec` may hold.
        for (n, d, bytes) in [
            (1usize << 32, 1usize << 32, 1u128 << 66),
            (usize::MAX / 4, 2, (usize::MAX / 4) as u128 * 8),
        ] {
            assert_eq!(
                uniform_matrix::<f32>(n, d, 0),
                Err(DenseError::AllocationFailed {
                    what: "the generated points",
                    bytes
                })
            );
        }
    }

    #[test]
    fn blobs_shapes_and_labels() {
        let d = gaussian_blobs::<f64>(30, 4, 3, 0.5, 7);
        assert_eq!(d.n(), 30);
        assert_eq!(d.d(), 4);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.labels().unwrap().len(), 30);
        // deterministic
        let d2 = gaussian_blobs::<f64>(30, 4, 3, 0.5, 7);
        assert_eq!(d.points(), d2.points());
    }

    #[test]
    fn blobs_are_roughly_separated() {
        // With tiny noise, points of the same blob should be much closer to
        // each other than to other blobs.
        let ds = gaussian_blobs::<f64>(60, 3, 2, 0.01, 11);
        let labels = ds.labels().unwrap();
        let p = ds.points();
        let dist = |a: usize, b: usize| -> f64 {
            p.row(a)
                .iter()
                .zip(p.row(b))
                .map(|(x, y)| (x - y).powi(2))
                .sum()
        };
        let same = dist(0, 2); // both label of i%2 pattern
        let diff = dist(0, 1);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[1]);
        assert!(same < diff);
    }

    #[test]
    fn rings_radii_separate_clusters() {
        let ds = concentric_rings::<f64>(200, 2, 5.0, 0.05, 3);
        let labels = ds.labels().unwrap();
        for (i, &label) in labels.iter().enumerate() {
            let r = (ds.points()[(i, 0)].powi(2) + ds.points()[(i, 1)].powi(2)).sqrt();
            if label == 0 {
                assert!(r < 7.5, "inner ring point at radius {r}");
            } else {
                assert!(r > 7.5, "outer ring point at radius {r}");
            }
        }
    }

    #[test]
    fn rings_are_not_linearly_separable_by_mean() {
        // Both rings are centred at the origin, so their means coincide —
        // the property that defeats classical k-means.
        let ds = concentric_rings::<f64>(1000, 2, 4.0, 0.05, 9);
        let labels = ds.labels().unwrap();
        let mut means = [[0.0f64; 2]; 2];
        let mut counts = [0usize; 2];
        for i in 0..ds.n() {
            means[labels[i]][0] += ds.points()[(i, 0)];
            means[labels[i]][1] += ds.points()[(i, 1)];
            counts[labels[i]] += 1;
        }
        for c in 0..2 {
            means[c][0] /= counts[c] as f64;
            means[c][1] /= counts[c] as f64;
        }
        let mean_dist =
            ((means[0][0] - means[1][0]).powi(2) + (means[0][1] - means[1][1]).powi(2)).sqrt();
        assert!(
            mean_dist < 1.0,
            "ring means should nearly coincide, got {mean_dist}"
        );
    }

    #[test]
    fn ring_with_blob_structure() {
        let ds = ring_with_blob::<f64>(300, 5.0, 0.3, 0.1, 17);
        assert_eq!(ds.n(), 300);
        assert_eq!(ds.d(), 2);
        assert_eq!(ds.num_classes(), 2);
        let labels = ds.labels().unwrap();
        for (i, &label) in labels.iter().enumerate() {
            let r = (ds.points()[(i, 0)].powi(2) + ds.points()[(i, 1)].powi(2)).sqrt();
            if label == 0 {
                assert!(r < 2.5, "blob point at radius {r}");
            } else {
                assert!(r > 2.5, "ring point at radius {r}");
            }
        }
        // deterministic
        assert_eq!(
            ds.points(),
            ring_with_blob::<f64>(300, 5.0, 0.3, 0.1, 17).points()
        );
    }

    #[test]
    #[should_panic(expected = "ring radius must be positive")]
    fn ring_with_blob_rejects_bad_radius() {
        let _ = ring_with_blob::<f64>(10, 0.0, 0.1, 0.1, 1);
    }

    #[test]
    fn noisy_blobs_dimensions() {
        let ds = blobs_with_noise_dims::<f64>(40, 10, 3, 4, 0.3, 1.0, 21);
        assert_eq!(ds.d(), 10);
        assert_eq!(ds.num_classes(), 4);
        let d2 = blobs_with_noise_dims::<f64>(40, 10, 3, 4, 0.3, 1.0, 21);
        assert_eq!(ds.points(), d2.points());
    }

    #[test]
    #[should_panic(expected = "informative dims exceed total dims")]
    fn noisy_blobs_rejects_bad_dims() {
        let _ = blobs_with_noise_dims::<f64>(10, 3, 5, 2, 0.3, 1.0, 1);
    }

    #[test]
    fn sparse_text_like_shape_and_sparsity() {
        let ds = sparse_text_like::<f32>(64, 5_000, 4, 20, 7);
        assert_eq!(ds.n(), 64);
        assert_eq!(ds.d(), 5_000);
        assert_eq!(ds.num_classes(), 4);
        assert_eq!(ds.nnz(), 64 * 20);
        assert!(ds.density() < 0.005, "density {}", ds.density());
        // deterministic
        let again = sparse_text_like::<f32>(64, 5_000, 4, 20, 7);
        assert_eq!(ds.points(), again.points());
        // all stored values positive, CSR structure valid
        assert!(ds.points().values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn sparse_text_like_clusters_use_disjoint_blocks() {
        let ds = sparse_text_like::<f64>(40, 1_000, 2, 10, 3);
        let labels = ds.labels().unwrap();
        let shared = 1_000 / 4;
        let block = (1_000 - shared) / 2;
        for (i, &label) in labels.iter().enumerate() {
            let (cols, _) = ds.points().row(i);
            for &j in cols {
                if j >= shared {
                    // Non-shared features must fall in the point's own block.
                    let block_index = (j - shared) / block;
                    assert_eq!(block_index, label, "point {i} feature {j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "two features per cluster")]
    fn sparse_text_like_rejects_tiny_d() {
        let _ = sparse_text_like::<f64>(10, 3, 2, 2, 1);
    }

    #[test]
    fn graph_affinity_is_square_symmetric_with_unit_diagonal() {
        let ds = graph_affinity_blobs::<f64>(50, 3, 2, 5, 0.4, 1.0, 13);
        let a = ds.points();
        assert_eq!(a.shape(), (50, 50));
        assert_eq!(ds.num_classes(), 2);
        assert!(a.nnz() < 50 * 50, "affinity graph must be sparse");
        for i in 0..50 {
            let (cols, vals) = a.row(i);
            // Sorted columns, unit self-loop, all affinities in (0, 1].
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            assert_eq!(a.get(i, i), 1.0, "missing self-loop at {i}");
            assert!(vals.iter().all(|&v| v > 0.0 && v <= 1.0));
            // Symmetric pattern with bitwise-equal mirrored values.
            for &j in cols {
                assert_eq!(a.get(i, j).to_bits(), a.get(j, i).to_bits());
                assert!(a.get(j, i) != 0.0, "edge ({i},{j}) missing its mirror");
            }
        }
        // Deterministic given the seed.
        let again = graph_affinity_blobs::<f64>(50, 3, 2, 5, 0.4, 1.0, 13);
        assert_eq!(ds.points(), again.points());
    }

    #[test]
    fn graph_affinity_connects_within_blobs_more_than_across() {
        // With well-separated blobs and few neighbors, edges should mostly
        // stay within a blob: intra-cluster affinity dominates.
        let ds = graph_affinity_blobs::<f64>(60, 3, 2, 4, 0.05, 1.0, 29);
        let labels = ds.labels().unwrap();
        let a = ds.points();
        let mut intra = 0usize;
        let mut inter = 0usize;
        for i in 0..60 {
            let (cols, _) = a.row(i);
            for &j in cols {
                if j == i {
                    continue;
                }
                if labels[i] == labels[j] {
                    intra += 1;
                } else {
                    inter += 1;
                }
            }
        }
        assert!(
            intra > 10 * inter.max(1),
            "expected intra-blob edges to dominate: intra={intra} inter={inter}"
        );
    }

    #[test]
    #[should_panic(expected = "affinity bandwidth must be positive")]
    fn graph_affinity_rejects_bad_sigma() {
        let _ = graph_affinity_blobs::<f64>(10, 2, 2, 3, 0.3, 0.0, 1);
    }
}
