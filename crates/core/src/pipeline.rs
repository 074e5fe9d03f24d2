//! The shared kernel k-means iteration loop.
//!
//! Popcorn, the CPU reference and the dense GPU baseline all run the same
//! outer loop (paper Alg. 2 lines 3–14): initial assignment, then per
//! iteration a distance matrix, a row-wise argmin, optional empty-cluster
//! repair and a convergence check. The three implementations differ **only**
//! in how the distance matrix is produced — Popcorn's SpMM/SpMV engine, the
//! PRMLT-style sequential loops, or the baseline's three hand-written
//! kernels. [`iterate`] owns the loop; each family supplies a
//! [`DistanceEngine`] for its distance phase ([`crate::ModelFamily::engine`]),
//! so the convergence/repair plumbing exists exactly once.
//!
//! The kernel matrix reaches the loop as a [`KernelSource`], never as a
//! borrowed full matrix: every iteration streams `K` in row tiles
//! (`begin_iteration` → one `consume_tile` per tile → `finish_iteration`),
//! which is the in-core path unchanged when the source is a single-tile
//! [`crate::FullKernel`] and the out-of-core compute-consume path when it is
//! a [`crate::TiledKernel`]. [`LoopState`] factors the per-iteration
//! assignment/convergence bookkeeping out of the loop so the batched
//! lockstep driver (`crate::batch`) can run many jobs over one tile pass.

use crate::assignment::{assign_clusters_into, repair_empty_clusters};
use crate::config::KernelKmeansConfig;
use crate::init::initial_assignments_source;
use crate::kernel_source::{for_each_panel, KernelSource, Panel};
use crate::result::{ClusteringResult, IterationStats, TimingBreakdown};
use crate::Result;
use popcorn_dense::{DenseMatrix, PackedRows, Scalar};
use popcorn_gpusim::{Executor, StreamMeter};
use popcorn_sparse::CsrRows;
use std::ops::Range;

/// Produces the `n × k` distance matrix for one iteration, consuming the
/// kernel matrix as a stream of row tiles. Implementations charge their own
/// operations to the executor.
///
/// Call protocol per iteration: one `begin_iteration`, then `consume_tile`
/// for every tile of the source (a single call spanning all rows for in-core
/// sources), then one `finish_iteration` returning the distances. After the
/// assignment step consumed the distances, drivers may hand the matrix back
/// through [`DistanceEngine::recycle_distances`] so the engine can reuse the
/// allocation for the next iteration instead of reallocating per pass.
///
/// Engines are `Send` by contract: the parallel batch driver moves each job's
/// engine to whichever host thread owns the job for the current phase.
pub trait DistanceEngine<T: Scalar>: Send {
    /// Start one iteration: rebuild per-iteration state from the current
    /// labels (selection matrix, cluster sizes, output buffers).
    fn begin_iteration(
        &mut self,
        iteration: usize,
        source: &dyn KernelSource<T>,
        labels: &[usize],
        executor: &dyn Executor,
    ) -> Result<()>;

    /// Fold one row tile `K[rows, :]` into the iteration state.
    fn consume_tile(
        &mut self,
        rows: Range<usize>,
        tile: &DenseMatrix<T>,
        executor: &dyn Executor,
    ) -> Result<()>;

    /// Fold one CSR row panel `K[rows, :]` into the iteration state — the
    /// nnz-proportional counterpart of [`DistanceEngine::consume_tile`],
    /// driven when the source keeps `K` CSR-resident
    /// ([`KernelSource::csr`]). At full density the fold is bit-identical to
    /// the dense one; the default errs for engines without a sparse path.
    fn consume_csr_tile(
        &mut self,
        rows: Range<usize>,
        panel: CsrRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        let _ = (rows, panel, executor);
        Err(crate::CoreError::Unsupported(
            "this distance engine has no sparse kernel-tile fold".into(),
        ))
    }

    /// Fold the packed lower rows `panel = K[r, 0..=r]` (`r ∈ rows`) of a
    /// symmetric `K` — the half-size counterpart of
    /// [`DistanceEngine::consume_tile`], driven when the source hands out
    /// lower panels ([`KernelSource::for_each_lower_tile`]). Bit-identical
    /// to folding the full rows; the default errs for engines without a
    /// packed path.
    fn consume_lower_tile(
        &mut self,
        rows: Range<usize>,
        panel: PackedRows<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        let _ = (rows, panel, executor);
        Err(crate::CoreError::Unsupported(
            "this distance engine has no packed kernel-tile fold".into(),
        ))
    }

    /// Fold one panel of whichever kind ([`for_each_panel`]).
    fn consume(
        &mut self,
        rows: Range<usize>,
        panel: Panel<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()> {
        match panel {
            Panel::Rows(tile) => self.consume_tile(rows, tile, executor),
            Panel::Lower(panel) => self.consume_lower_tile(rows, panel, executor),
            Panel::Csr(panel) => self.consume_csr_tile(rows, panel, executor),
        }
    }

    /// The columns of `K` this iteration's fold reads, ascending, once
    /// `begin_iteration` ran: the source may then hand out compact tiles of
    /// just those columns ([`KernelSource::for_each_tile_of`]), and
    /// `consume_tile` takes them as well as full ones. The default, `None`,
    /// reads every column.
    fn columns(&self) -> Option<&[usize]> {
        None
    }

    /// Produce the `n × k` distance matrix once every tile was consumed.
    fn finish_iteration(&mut self, executor: &dyn Executor) -> Result<DenseMatrix<T>>;

    /// Hand a consumed distance matrix back for reuse. Engines that keep a
    /// scratch buffer zero-fill it on the next `begin_iteration` instead of
    /// allocating a fresh matrix — a pure allocation optimisation that never
    /// changes results (a zero-filled buffer is bit-identical to a fresh
    /// one). The default drops the matrix.
    fn recycle_distances(&mut self, distances: DenseMatrix<T>) {
        let _ = distances;
    }

    /// Whether `begin_iteration` reads [`KernelSource::diag`]. The lockstep
    /// batch driver computes and charges that diagonal once, in the shared
    /// phase, when any job's engine reads it. The default is `false`, for
    /// engines that collect the diagonal from the tiles they fold.
    fn reads_source_diag(&self) -> bool {
        false
    }
}

/// Per-run loop bookkeeping: labels, history, convergence. Shared by the
/// single-fit loop below and the batched lockstep driver, so the
/// assignment/repair/convergence semantics exist exactly once.
#[derive(Debug, Clone)]
pub struct LoopState {
    labels: Vec<usize>,
    /// Reused per-iteration assignment buffer: `step` writes the new labels
    /// here and swaps it with `labels`, so no label vector is allocated after
    /// the first iteration.
    scratch_labels: Vec<usize>,
    history: Vec<IterationStats>,
    converged: bool,
    iterations: usize,
    prev_objective: f64,
    k: usize,
}

impl LoopState {
    /// Start a run from its initial assignment.
    pub fn new(labels: Vec<usize>, k: usize) -> Self {
        Self {
            labels,
            scratch_labels: Vec::new(),
            history: Vec::new(),
            converged: false,
            iterations: 0,
            prev_objective: f64::INFINITY,
            k,
        }
    }

    /// `true` while the run wants more iterations under `config`.
    pub fn active(&self, config: &KernelKmeansConfig) -> bool {
        !self.converged && self.iterations < config.max_iter
    }

    /// The iteration the next `step` will account to (0-based).
    pub fn iteration(&self) -> usize {
        self.iterations
    }

    /// Current labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Apply one iteration's distance matrix: argmin assignment, optional
    /// empty-cluster repair, history update and the convergence check
    /// (paper Alg. 2 lines 11–14).
    pub fn step<T: Scalar>(
        &mut self,
        distances: &DenseMatrix<T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
    ) {
        let iteration = self.iterations;
        let outcome =
            assign_clusters_into(distances, &self.labels, &mut self.scratch_labels, executor);
        if config.repair_empty_clusters && outcome.empty_clusters > 0 {
            repair_empty_clusters(&mut self.scratch_labels, distances, self.k);
        }

        self.history.push(IterationStats {
            iteration,
            objective: outcome.objective,
            changed: outcome.changed,
            empty_clusters: outcome.empty_clusters,
        });
        // The new labels become current; the old vector becomes next
        // iteration's scratch (no allocation per pass).
        std::mem::swap(&mut self.labels, &mut self.scratch_labels);
        self.iterations = iteration + 1;

        // Convergence: assignments stopped changing, or the objective's
        // relative improvement fell below the tolerance.
        if config.check_convergence {
            let rel_change = if self.prev_objective.is_finite() {
                (self.prev_objective - outcome.objective).abs()
                    / outcome.objective.abs().max(f64::MIN_POSITIVE)
            } else {
                f64::INFINITY
            };
            if outcome.changed == 0 || rel_change <= config.tolerance {
                self.converged = true;
            }
        }
        self.prev_objective = outcome.objective;
    }

    /// Assemble the [`ClusteringResult`] from the loop state and the
    /// executor's trace.
    pub fn into_result(self, executor: &dyn Executor) -> ClusteringResult {
        finalize(
            self.labels,
            self.k,
            self.iterations,
            self.converged,
            self.history,
            executor,
        )
    }
}

/// Run the clustering iterations over a kernel source and assemble the
/// [`ClusteringResult`] from the executor's trace.
pub fn iterate<T: Scalar>(
    source: &dyn KernelSource<T>,
    config: &KernelKmeansConfig,
    executor: &dyn Executor,
    engine: &mut dyn DistanceEngine<T>,
) -> Result<ClusteringResult> {
    iterate_init(source, config, executor, engine, None)
}

/// [`iterate`] with an optional caller-supplied initial assignment — the
/// warm-start entry point used by `Solver::refit`, where the previous fit's
/// labels seed the loop instead of the configured initialization. `None`
/// reproduces [`iterate`] exactly (including its RNG draws), so a cold refit
/// is bit-identical to a cold fit by construction.
pub fn iterate_init<T: Scalar>(
    source: &dyn KernelSource<T>,
    config: &KernelKmeansConfig,
    executor: &dyn Executor,
    engine: &mut dyn DistanceEngine<T>,
    init: Option<Vec<usize>>,
) -> Result<ClusteringResult> {
    let n = source.n();
    config.validate(n)?;
    let k = config.k;

    // Initial assignment (Alg. 2 line 3), or the caller's warm start.
    let labels = match init {
        Some(labels) => {
            if labels.len() != n {
                return Err(crate::CoreError::InvalidInput(format!(
                    "warm-start labels have length {} but the source has {n} rows",
                    labels.len()
                )));
            }
            if let Some(&bad) = labels.iter().find(|&&l| l >= k) {
                return Err(crate::CoreError::InvalidInput(format!(
                    "warm-start label {bad} is out of range for k = {k}"
                )));
            }
            labels
        }
        None => initial_assignments_source(source, k, config.init, config.seed, executor)?,
    };
    let mut state = LoopState::new(labels, k);

    // Measures the per-tile produce (source charges) / consume (engine
    // charges) segments the double-buffer model prices; a no-op with
    // streaming off. The trace itself is identical either way — the meter
    // only reads marks off it.
    let mut meter = StreamMeter::new(config.streaming);
    while state.active(config) {
        let distances = distance_pass(
            source,
            engine,
            state.iteration(),
            state.labels(),
            &mut meter,
            executor,
        )?;
        state.step(&distances, config, executor);
        engine.recycle_distances(distances);
    }

    let mut result = state.into_result(executor);
    result.approx_error_bound = source.approx_error_bound();
    result.streaming = meter.into_report();
    result.config = Some(config.clone());
    Ok(result)
}

/// One iteration's distance pass of `engine` over `source` under `labels`:
/// `begin_iteration`, one fold per panel of the kind the source hands out
/// ([`for_each_panel`]; dense tiles of the columns the engine reads,
/// [`DistanceEngine::columns`]), then `finish_iteration`. `meter` reads the
/// pass's produce/consume segments off the trace and never changes it.
pub(crate) fn distance_pass<T: Scalar>(
    source: &dyn KernelSource<T>,
    engine: &mut dyn DistanceEngine<T>,
    iteration: usize,
    labels: &[usize],
    meter: &mut StreamMeter,
    executor: &dyn Executor,
) -> Result<DenseMatrix<T>> {
    engine.begin_iteration(iteration, source, labels, executor)?;
    meter.begin_pass(executor);
    // A copy, because the panels go back to the engine mutably.
    let columns = engine.columns().map(<[usize]>::to_vec);
    for_each_panel(source, executor, columns.as_deref(), &mut |rows, panel| {
        meter.tile_produced(executor);
        let folded = engine.consume(rows, panel, executor);
        meter.tile_consumed(executor);
        folded
    })?;
    meter.finish_pass();
    engine.finish_iteration(executor)
}

/// Assemble a [`ClusteringResult`] from loop state and the executor's trace.
pub fn finalize(
    labels: Vec<usize>,
    k: usize,
    iterations: usize,
    converged: bool,
    history: Vec<IterationStats>,
    executor: &dyn Executor,
) -> ClusteringResult {
    let trace = executor.trace();
    let objective = history.last().map(|h| h.objective).unwrap_or(f64::NAN);
    ClusteringResult {
        labels,
        k,
        iterations,
        converged,
        objective,
        history,
        modeled_timings: TimingBreakdown::from_trace_modeled(&trace),
        host_timings: TimingBreakdown::from_trace_host(&trace),
        peak_resident_bytes: executor.peak_resident_bytes(),
        trace,
        approx_error_bound: None,
        streaming: None,
        config: None,
        recovery: executor.recovery_report().filter(|r| !r.is_empty()),
        centroids: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distances::compute_distances_reference;
    use crate::errors::CoreError;
    use crate::kernel::{kernel_matrix_reference, KernelFunction};
    use crate::kernel_source::FullKernel;
    use popcorn_gpusim::SimExecutor;

    /// A trivially correct engine: the reference kernel-trick distances,
    /// assembled from whatever tiles the source hands out.
    struct ReferenceEngine {
        k_rows: Option<DenseMatrix<f64>>,
        labels: Vec<usize>,
    }

    impl ReferenceEngine {
        fn new() -> Self {
            Self {
                k_rows: None,
                labels: Vec::new(),
            }
        }
    }

    impl DistanceEngine<f64> for ReferenceEngine {
        fn begin_iteration(
            &mut self,
            _iteration: usize,
            source: &dyn KernelSource<f64>,
            labels: &[usize],
            _executor: &dyn Executor,
        ) -> Result<()> {
            self.k_rows = Some(DenseMatrix::zeros(source.n(), source.n()));
            self.labels = labels.to_vec();
            Ok(())
        }

        fn consume_tile(
            &mut self,
            rows: Range<usize>,
            tile: &DenseMatrix<f64>,
            _executor: &dyn Executor,
        ) -> Result<()> {
            let buffer = self.k_rows.as_mut().expect("begin_iteration ran");
            for (local, i) in rows.enumerate() {
                buffer.row_mut(i).copy_from_slice(tile.row(local));
            }
            Ok(())
        }

        fn finish_iteration(&mut self, _executor: &dyn Executor) -> Result<DenseMatrix<f64>> {
            let kernel_matrix = self.k_rows.take().expect("begin_iteration ran");
            let k = self.labels.iter().copied().max().unwrap_or(0) + 1;
            Ok(compute_distances_reference(
                &kernel_matrix,
                &self.labels,
                k.max(2),
            ))
        }
    }

    #[test]
    fn loop_converges_on_separated_blobs() {
        let points = DenseMatrix::from_fn(20, 2, |i, j| {
            let offset = if i < 10 { 0.0 } else { 30.0 };
            offset + ((i * 2 + j) as f64 * 0.3).sin()
        });
        let kernel_matrix = kernel_matrix_reference(&points, KernelFunction::Linear);
        let config = KernelKmeansConfig::paper_defaults(2)
            .with_max_iter(20)
            .with_convergence_check(true, 1e-12)
            .with_seed(4);
        let exec = SimExecutor::a100_f32();
        let source = FullKernel::new(&kernel_matrix).unwrap();
        let result = iterate(&source, &config, &exec, &mut ReferenceEngine::new()).unwrap();
        assert!(result.converged);
        assert_eq!(result.labels.len(), 20);
        assert_eq!(result.non_empty_clusters(), 2);
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn loop_validates_kernel_matrix_shape() {
        let rect = DenseMatrix::<f64>::zeros(4, 3);
        assert!(matches!(
            FullKernel::new(&rect),
            Err(CoreError::InvalidInput(_))
        ));
    }

    #[test]
    fn finalize_empty_history_gives_nan_objective() {
        let exec = SimExecutor::a100_f32();
        let result = finalize(vec![0, 1], 2, 0, false, Vec::new(), &exec);
        assert!(result.objective.is_nan());
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn loop_state_tracks_convergence_and_history() {
        let exec = SimExecutor::a100_f32();
        let config = KernelKmeansConfig::paper_defaults(2)
            .with_max_iter(5)
            .with_convergence_check(true, 1e-12);
        let mut state = LoopState::new(vec![0, 0, 1], 2);
        assert!(state.active(&config));
        assert_eq!(state.iteration(), 0);
        // Distances that pin every point to its current cluster: converges on
        // the second step (no changes).
        let d = DenseMatrix::from_rows(&[vec![0.1, 9.0], vec![0.2, 9.0], vec![9.0, 0.3]]).unwrap();
        state.step(&d, &config, &exec);
        assert_eq!(state.iteration(), 1);
        state.step(&d, &config, &exec);
        assert!(!state.active(&config), "no label changed -> converged");
        let result = state.into_result(&exec);
        assert!(result.converged);
        assert_eq!(result.iterations, 2);
        assert_eq!(result.history.len(), 2);
        assert_eq!(result.labels, vec![0, 0, 1]);
    }
}
