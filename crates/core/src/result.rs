//! Solver outputs: cluster assignments, objective history and timing
//! breakdowns.

use crate::config::KernelKmeansConfig;
use popcorn_gpusim::{OpTrace, Phase, RecoveryReport, StreamingReport};

/// Per-iteration statistics recorded by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Kernel k-means objective Σᵢ minⱼ D\[i\]\[j\] after this iteration's
    /// assignment step.
    pub objective: f64,
    /// Number of points whose assignment changed in this iteration.
    pub changed: usize,
    /// Number of empty clusters observed before repair.
    pub empty_clusters: usize,
}

/// Wall-clock / modeled time attributed to each pipeline phase, in seconds.
///
/// Matches the categories of the paper's Figure 8: kernel-matrix
/// computation, pairwise distances, and argmin + cluster update; data
/// preparation (the host→device copy) is kept separately.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingBreakdown {
    /// Data preparation / transfer time.
    pub data_preparation: f64,
    /// Kernel matrix computation time (Alg. 2 line 1).
    pub kernel_matrix: f64,
    /// Pairwise distance time summed over iterations (Alg. 2 lines 7–10).
    pub pairwise_distances: f64,
    /// Argmin + cluster update time summed over iterations (lines 11–14).
    pub assignment: f64,
    /// Anything not attributed to the above.
    pub other: f64,
}

impl TimingBreakdown {
    /// Total time across all phases.
    pub fn total(&self) -> f64 {
        self.data_preparation
            + self.kernel_matrix
            + self.pairwise_distances
            + self.assignment
            + self.other
    }

    /// Clustering-only time (everything except data preparation and the
    /// kernel matrix) — the quantity compared in the paper's Figure 4.
    pub fn clustering(&self) -> f64 {
        self.pairwise_distances + self.assignment + self.other
    }

    /// Build a breakdown from a simulator trace, using modeled device times.
    pub fn from_trace_modeled(trace: &OpTrace) -> Self {
        Self {
            data_preparation: trace.phase_modeled_seconds(Phase::DataPreparation),
            kernel_matrix: trace.phase_modeled_seconds(Phase::KernelMatrix),
            pairwise_distances: trace.phase_modeled_seconds(Phase::PairwiseDistances),
            assignment: trace.phase_modeled_seconds(Phase::Assignment),
            other: trace.phase_modeled_seconds(Phase::Other),
        }
    }

    /// Build a breakdown from a simulator trace, using measured host times.
    pub fn from_trace_host(trace: &OpTrace) -> Self {
        let host = |phase: Phase| {
            trace
                .records()
                .iter()
                .filter(|r| r.phase == phase)
                .map(|r| r.host_seconds)
                .sum::<f64>()
        };
        Self {
            data_preparation: host(Phase::DataPreparation),
            kernel_matrix: host(Phase::KernelMatrix),
            pairwise_distances: host(Phase::PairwiseDistances),
            assignment: host(Phase::Assignment),
            other: host(Phase::Other),
        }
    }
}

/// The complete output of one clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringResult {
    /// Final cluster assignment, one label in `0..k` per point.
    pub labels: Vec<usize>,
    /// Number of clusters requested.
    pub k: usize,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the run stopped because assignments stopped changing (or the
    /// objective change fell below tolerance) rather than hitting `max_iter`.
    pub converged: bool,
    /// Final value of the kernel k-means objective.
    pub objective: f64,
    /// Per-iteration statistics.
    pub history: Vec<IterationStats>,
    /// Modeled device-time breakdown.
    pub modeled_timings: TimingBreakdown,
    /// Measured host-time breakdown.
    pub host_timings: TimingBreakdown,
    /// High-water mark of the modeled device-memory residency over the run
    /// (points + kernel matrix or tile + iteration buffers). Tiled fits keep
    /// this under [`popcorn_gpusim::DeviceSpec::mem_bytes`] even when the
    /// full `n × n` matrix would not fit.
    pub peak_resident_bytes: u64,
    /// Full operation trace (kept for profiling experiments; may be empty for
    /// solvers that do not run through the simulator).
    pub trace: OpTrace,
    /// Quality bound of an approximate kernel source (`None` for exact
    /// fits): the mean diagonal reconstruction error of the Nyström
    /// factorization the run clustered over
    /// (see `KernelSource::approx_error_bound`).
    pub approx_error_bound: Option<f64>,
    /// Double-buffered streaming accounting, present when the fit ran with
    /// [`popcorn_gpusim::Streaming::DoubleBuffered`]: per-tile produce and
    /// consume totals, the first-tile exposure, and how much serial time the
    /// pipeline hides. Derived from the trace — the trace itself is
    /// bit-identical with streaming on or off.
    pub streaming: Option<StreamingReport>,
    /// The exact configuration the fit ran under (kernel function, approx
    /// parameters, tiling, seed), carried so a serving path can recompute
    /// cross-kernel rows consistently instead of re-deriving the settings.
    /// `None` only for results assembled outside the shared loop.
    pub config: Option<KernelKmeansConfig>,
    /// Elastic-topology recovery accounting, present when the fit's executor
    /// lost a device and the row stream resumed on the survivors: devices
    /// lost, rows migrated, bytes re-uploaded, tiles replayed and the
    /// modeled re-shard time. `None` on a fault-free fit. The report is read off
    /// the executor, so repeated fits on one executor see the cumulative
    /// recovery history.
    pub recovery: Option<RecoveryReport>,
    /// For Lloyd (feature-space) fits: the centroids that produced the final
    /// assignment (i.e. the centroids *entering* the last assignment step),
    /// one `d`-vector per cluster in `f64`. Replaying the assignment against
    /// these reproduces `labels` bit for bit even when the fit stopped at
    /// `max_iter`. `None` for kernel-space fits, whose model is the
    /// coefficient set over the training points instead.
    pub centroids: Option<Vec<Vec<f64>>>,
}

impl ClusteringResult {
    /// Objective values per iteration, convenient for monotonicity checks.
    pub fn objective_history(&self) -> Vec<f64> {
        self.history.iter().map(|h| h.objective).collect()
    }

    /// Cluster cardinalities of the final assignment.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &l in &self.labels {
            if l < self.k {
                sizes[l] += 1;
            }
        }
        sizes
    }

    /// Number of non-empty clusters in the final assignment.
    pub fn non_empty_clusters(&self) -> usize {
        self.cluster_sizes().iter().filter(|&&c| c > 0).count()
    }

    /// Modeled wall-clock of this fit: the serial modeled total, minus the
    /// tile production the double-buffered pipeline hides under distance
    /// folds when the fit ran with streaming on. Never exceeds
    /// `modeled_timings.total()`, and equals it with streaming off or when
    /// the fit had a single tile per pass (nothing to hide behind).
    pub fn modeled_wallclock_seconds(&self) -> f64 {
        let serial = self.modeled_timings.total();
        match &self.streaming {
            Some(report) => serial - report.hidden_seconds,
            None => serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_gpusim::{OpClass, OpCost, OpRecord};

    fn trace_with(phase: Phase, modeled: f64, host: f64) -> OpTrace {
        let mut t = OpTrace::new();
        t.push(OpRecord {
            name: "x".into(),
            phase,
            class: OpClass::Other,
            cost: OpCost::new(1, 1, 0),
            modeled_seconds: modeled,
            host_seconds: host,
        });
        t
    }

    #[test]
    fn breakdown_totals() {
        let b = TimingBreakdown {
            data_preparation: 1.0,
            kernel_matrix: 2.0,
            pairwise_distances: 3.0,
            assignment: 0.5,
            other: 0.25,
        };
        assert!((b.total() - 6.75).abs() < 1e-12);
        assert!((b.clustering() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn breakdown_from_trace() {
        let mut trace = trace_with(Phase::KernelMatrix, 2.0, 4.0);
        trace.extend(&trace_with(Phase::PairwiseDistances, 1.0, 3.0));
        let modeled = TimingBreakdown::from_trace_modeled(&trace);
        assert_eq!(modeled.kernel_matrix, 2.0);
        assert_eq!(modeled.pairwise_distances, 1.0);
        assert_eq!(modeled.assignment, 0.0);
        let host = TimingBreakdown::from_trace_host(&trace);
        assert_eq!(host.kernel_matrix, 4.0);
        assert_eq!(host.pairwise_distances, 3.0);
    }

    #[test]
    fn result_helpers() {
        let result = ClusteringResult {
            labels: vec![0, 1, 1, 0, 1],
            k: 3,
            iterations: 2,
            converged: true,
            objective: 1.5,
            history: vec![
                IterationStats {
                    iteration: 0,
                    objective: 3.0,
                    changed: 5,
                    empty_clusters: 1,
                },
                IterationStats {
                    iteration: 1,
                    objective: 1.5,
                    changed: 0,
                    empty_clusters: 1,
                },
            ],
            modeled_timings: TimingBreakdown::default(),
            host_timings: TimingBreakdown::default(),
            peak_resident_bytes: 0,
            trace: OpTrace::new(),
            approx_error_bound: None,
            streaming: None,
            config: None,
            recovery: None,
            centroids: None,
        };
        assert_eq!(result.objective_history(), vec![3.0, 1.5]);
        assert_eq!(result.cluster_sizes(), vec![2, 3, 0]);
        assert_eq!(result.non_empty_clusters(), 2);
        assert_eq!(result.modeled_wallclock_seconds(), 0.0);
    }

    #[test]
    fn streamed_wallclock_subtracts_hidden_seconds() {
        let mut result = ClusteringResult {
            labels: vec![0],
            k: 1,
            iterations: 1,
            converged: true,
            objective: 0.0,
            history: Vec::new(),
            modeled_timings: TimingBreakdown {
                pairwise_distances: 4.0,
                ..TimingBreakdown::default()
            },
            host_timings: TimingBreakdown::default(),
            peak_resident_bytes: 0,
            trace: OpTrace::new(),
            approx_error_bound: None,
            streaming: None,
            config: None,
            recovery: None,
            centroids: None,
        };
        assert_eq!(result.modeled_wallclock_seconds(), 4.0);
        result.streaming = Some(StreamingReport {
            hidden_seconds: 1.5,
            ..StreamingReport::default()
        });
        assert!((result.modeled_wallclock_seconds() - 2.5).abs() < 1e-12);
    }
}
