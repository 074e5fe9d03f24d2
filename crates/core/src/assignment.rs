//! Cluster assignment and empty-cluster repair (paper Alg. 2 lines 11–14).
//!
//! The assignment step is a row-wise argmin over the distance matrix `D`
//! (the original uses RAPIDS `coalescedReduction`), followed by a rebuild of
//! the selection matrix `V`. The paper leaves empty clusters unspecified; the
//! optional repair policy here reassigns, for each empty cluster, the point
//! that is currently farthest from its own centroid — a common, cheap fix
//! that keeps `k` effective clusters alive.

use popcorn_dense::{row_argmin_into, DenseMatrix, Scalar};
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase};

/// Statistics of one assignment step whose labels were written into a
/// caller-provided buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignmentStats {
    /// Number of points whose label changed relative to `previous`.
    pub changed: usize,
    /// Kernel k-means objective Σᵢ D\[i\]\[labels\[i\]\] under the new labels.
    pub objective: f64,
    /// Number of empty clusters in the new labelling (before any repair).
    pub empty_clusters: usize,
}

/// Assign every point to its closest centroid (row-wise argmin of `D`),
/// writing the new labels into `labels` (cleared and resized — the hot-loop
/// entry point that reuses the caller's buffer across iterations instead of
/// allocating one per pass).
pub fn assign_clusters_into<T: Scalar>(
    distances: &DenseMatrix<T>,
    previous: &[usize],
    labels: &mut Vec<usize>,
    executor: &dyn Executor,
) -> AssignmentStats {
    let n = distances.rows();
    let k = distances.cols();
    let elem = std::mem::size_of::<T>();
    executor.run(
        format!("argmin over D rows (n={n}, k={k})"),
        Phase::Assignment,
        OpClass::Reduction,
        OpCost::elementwise_elems(n as u64 * k as u64, 1, 0, 1, elem),
        || row_argmin_into(distances, labels),
    );
    let objective: f64 = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| distances[(i, l)].to_f64())
        .sum();
    AssignmentStats::of(labels, previous, k, objective)
}

impl AssignmentStats {
    /// The statistics of `labels` (over `k` clusters, scoring `objective`)
    /// against the `previous` labels.
    pub fn of(labels: &[usize], previous: &[usize], k: usize, objective: f64) -> Self {
        let changed = labels
            .iter()
            .zip(previous.iter())
            .filter(|(new, old)| new != old)
            .count();
        let mut sizes = vec![0usize; k];
        for &l in labels {
            sizes[l] += 1;
        }
        let empty_clusters = sizes.iter().filter(|&&c| c == 0).count();
        Self {
            changed,
            objective,
            empty_clusters,
        }
    }
}

/// Repair empty clusters by moving, for each empty cluster, the point that is
/// currently farthest from its assigned centroid (and not itself the sole
/// member of its cluster) into the empty cluster. Returns the number of
/// clusters repaired.
pub fn repair_empty_clusters<T: Scalar>(
    labels: &mut [usize],
    distances: &DenseMatrix<T>,
    k: usize,
) -> usize {
    let n = labels.len();
    let mut sizes = vec![0usize; k];
    for &l in labels.iter() {
        sizes[l] += 1;
    }
    let empty: Vec<usize> = (0..k).filter(|&c| sizes[c] == 0).collect();
    if empty.is_empty() {
        return 0;
    }
    let mut repaired = 0usize;
    for &target in &empty {
        // Find the point farthest from its own centroid among clusters that
        // can spare a member.
        let mut best_point: Option<usize> = None;
        let mut best_dist = f64::NEG_INFINITY;
        for i in 0..n {
            let own = labels[i];
            if sizes[own] <= 1 {
                continue;
            }
            let d = distances[(i, own)].to_f64();
            if d > best_dist {
                best_dist = d;
                best_point = Some(i);
            }
        }
        if let Some(i) = best_point {
            sizes[labels[i]] -= 1;
            labels[i] = target;
            sizes[target] += 1;
            repaired += 1;
        }
    }
    repaired
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_gpusim::SimExecutor;

    /// [`assign_clusters_into`] with a fresh label buffer.
    fn assign(
        distances: &DenseMatrix<f64>,
        previous: &[usize],
        exec: &SimExecutor,
    ) -> (Vec<usize>, AssignmentStats) {
        let mut labels = Vec::new();
        let stats = assign_clusters_into(distances, previous, &mut labels, exec);
        (labels, stats)
    }

    fn distances() -> DenseMatrix<f64> {
        // 4 points, 3 clusters
        DenseMatrix::from_rows(&[
            vec![0.1, 5.0, 9.0],
            vec![4.0, 0.2, 9.0],
            vec![6.0, 0.3, 9.0],
            vec![7.0, 8.0, 0.4],
        ])
        .unwrap()
    }

    #[test]
    fn argmin_assignment_and_objective() {
        let exec = SimExecutor::a100_f32();
        let (labels, out) = assign(&distances(), &[0, 0, 0, 0], &exec);
        assert_eq!(labels, vec![0, 1, 1, 2]);
        assert_eq!(out.changed, 3);
        assert!((out.objective - (0.1 + 0.2 + 0.3 + 0.4)).abs() < 1e-12);
        assert_eq!(out.empty_clusters, 0);
        // charged to the Assignment phase
        assert!(exec.trace().phase_modeled_seconds(Phase::Assignment) > 0.0);
    }

    #[test]
    fn change_count_zero_when_stable() {
        let exec = SimExecutor::a100_f32();
        let (_, out) = assign(&distances(), &[0, 1, 1, 2], &exec);
        assert_eq!(out.changed, 0);
    }

    #[test]
    fn empty_cluster_detection() {
        let d = DenseMatrix::from_rows(&[vec![0.1, 5.0, 9.0], vec![0.2, 5.0, 9.0]]).unwrap();
        let exec = SimExecutor::a100_f32();
        let (labels, out) = assign(&d, &[0, 0], &exec);
        assert_eq!(labels, vec![0, 0]);
        assert_eq!(out.empty_clusters, 2);
    }

    #[test]
    fn repair_moves_farthest_point_into_empty_cluster() {
        let d = DenseMatrix::from_rows(&[
            vec![0.1, 9.0, 9.0],
            vec![0.2, 9.0, 9.0],
            vec![3.0, 9.0, 9.0], // farthest from its centroid
            vec![9.0, 0.1, 9.0],
            vec![9.0, 0.2, 9.0],
        ])
        .unwrap();
        let mut labels = vec![0, 0, 0, 1, 1];
        let repaired = repair_empty_clusters(&mut labels, &d, 3);
        assert_eq!(repaired, 1);
        assert_eq!(labels, vec![0, 0, 2, 1, 1]);
    }

    #[test]
    fn repair_noop_when_no_empty_clusters() {
        let mut labels = vec![0, 1, 2];
        let d = DenseMatrix::<f64>::filled(3, 3, 1.0);
        assert_eq!(repair_empty_clusters(&mut labels, &d, 3), 0);
        assert_eq!(labels, vec![0, 1, 2]);
    }

    #[test]
    fn repair_does_not_strip_singleton_clusters() {
        // Cluster 0 has a single member; it must not be stolen to fill
        // cluster 1 because that would just move the hole.
        let d = DenseMatrix::from_rows(&[vec![5.0, 1.0]]).unwrap();
        let mut labels = vec![0];
        assert_eq!(repair_empty_clusters(&mut labels, &d, 2), 0);
        assert_eq!(labels, vec![0]);
    }

    #[test]
    fn repair_multiple_empty_clusters() {
        let d = DenseMatrix::from_rows(&[
            vec![0.5, 9.0, 9.0, 9.0],
            vec![1.5, 9.0, 9.0, 9.0],
            vec![2.5, 9.0, 9.0, 9.0],
            vec![3.5, 9.0, 9.0, 9.0],
        ])
        .unwrap();
        let mut labels = vec![0, 0, 0, 0];
        let repaired = repair_empty_clusters(&mut labels, &d, 4);
        assert_eq!(repaired, 3);
        // All four clusters are now non-empty.
        let mut sizes = [0usize; 4];
        for &l in &labels {
            sizes[l] += 1;
        }
        assert!(sizes.iter().all(|&s| s >= 1));
    }
}
