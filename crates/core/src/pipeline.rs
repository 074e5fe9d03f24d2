//! The kernel k-means iteration loop, once.
//!
//! Popcorn, the CPU reference and the dense GPU baseline all run the same
//! outer loop (paper Alg. 2 lines 3–14): initial assignment, then per
//! iteration a distance matrix, a row-wise argmin, optional empty-cluster
//! repair and a convergence check. The three implementations differ **only**
//! in how the distance matrix is produced — Popcorn's SpMM/SpMV engine, the
//! PRMLT-style sequential loops, or the baseline's three hand-written
//! kernels — so each family supplies a [`DistanceEngine`]
//! ([`crate::ModelFamily::engine`]) and `lockstep` owns everything else.
//!
//! The kernel matrix reaches the loop as a [`KernelSource`], never as a
//! borrowed full matrix: every pass streams `K` in row panels of the
//! source's own kind (`begin_iteration` → one [`DistanceEngine::consume`]
//! per panel of [`KernelSource::for_each_panel`] → `finish_iteration`),
//! which is the in-core path when the source is a single-panel
//! [`crate::FullKernel`] and the out-of-core compute-consume path when it is
//! a streamed [`crate::ShardedKernelSource`] (the source
//! [`crate::kernel_source::run_with_source`] hands out whenever `K` is not
//! kept whole, on one device or several).
//!
//! `lockstep` drives any number of runs over one source, one pass per
//! iteration feeding every run still iterating: a fit or refit
//! ([`iterate_init`]) is one run on the fit's own executor, a restart batch
//! (`crate::batch`) one run per job on forks of the shared executor, and a
//! fitted model's training replay one pass and one step of a single run.
//! [`LoopState`] is a run's assignment/history/convergence bookkeeping, which
//! Lloyd's loop records its iterations through as well.

use crate::assignment::{assign_clusters_into, repair_empty_clusters, AssignmentStats};
use crate::batch::par_over;
use crate::config::KernelKmeansConfig;
use crate::init::initial_assignments_source;
use crate::kernel_source::{KernelSource, Panel};
use crate::result::{ClusteringResult, IterationStats, TimingBreakdown};
use crate::Result;
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_gpusim::{EngineSeconds, Executor, StreamMeter};
use std::ops::Range;

/// Produces the `n × k` distance matrix for one iteration, consuming the
/// kernel matrix as a stream of row panels. Implementations charge their own
/// operations to the executor.
///
/// Call protocol per iteration: one `begin_iteration`, then `consume` for
/// every panel of the source (a single call spanning all rows for in-core
/// sources), then one `finish_iteration` returning the distances. After the
/// assignment step consumed the distances, drivers may hand the matrix back
/// through [`DistanceEngine::recycle_distances`] so the engine can reuse the
/// allocation for the next iteration instead of reallocating per pass.
///
/// Engines are `Send` by contract: `lockstep` hands each run's engine to
/// whichever host thread owns the run for the current phase.
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

    /// Fold one panel `K[rows, :]` of whichever kind the source hands out
    /// ([`KernelSource::for_each_panel`]) into the iteration state. Packed
    /// lower rows and CSR rows fold bit for bit as the full dense rows they
    /// stand for would.
    fn consume(
        &mut self,
        rows: Range<usize>,
        panel: Panel<'_, T>,
        executor: &dyn Executor,
    ) -> Result<()>;

    /// The columns of `K` this iteration's fold reads, ascending, once
    /// `begin_iteration` ran: a source of dense rows may then hand out
    /// compact tiles of just those columns (the `columns` of
    /// [`KernelSource::for_each_panel`]), and `consume` takes them as well as
    /// full ones. The default, `None`, reads every column.
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

    /// Whether `begin_iteration` reads [`KernelSource::diag`]. The restart
    /// batch computes and charges that diagonal once, in the shared phase,
    /// when any job's engine reads it. The default is `false`, for
    /// engines that collect the diagonal from the tiles they fold.
    fn reads_source_diag(&self) -> bool {
        false
    }
}

/// A run's loop bookkeeping: labels, history, convergence. `lockstep`
/// steps it from each pass's distances and Lloyd's loop records its own
/// assignments through it, so the history, the changed and empty-cluster
/// counts and the convergence rule exist once.
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
        let outcome =
            assign_clusters_into(distances, &self.labels, &mut self.scratch_labels, executor);
        if config.repair_empty_clusters && outcome.empty_clusters > 0 {
            repair_empty_clusters(&mut self.scratch_labels, distances, self.k);
        }
        self.advance(outcome, config);
    }

    /// Record one iteration whose assignment the caller made itself
    /// (Lloyd's nearest-centroid sweep): `labels` and their `objective`
    /// enter the history and the convergence check as a `step`'s would. No
    /// repair runs.
    pub fn record(&mut self, labels: Vec<usize>, objective: f64, config: &KernelKmeansConfig) {
        let outcome = AssignmentStats::of(&labels, &self.labels, self.k, objective);
        self.scratch_labels = labels;
        self.advance(outcome, config);
    }

    /// Make the assignment in `scratch_labels` current and account it.
    fn advance(&mut self, outcome: AssignmentStats, config: &KernelKmeansConfig) {
        self.history.push(IterationStats {
            iteration: self.iterations,
            objective: outcome.objective,
            changed: outcome.changed,
            empty_clusters: outcome.empty_clusters,
        });
        // The new labels become current; the old vector becomes next
        // iteration's scratch (no allocation per pass).
        std::mem::swap(&mut self.labels, &mut self.scratch_labels);
        self.iterations += 1;

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
        let trace = executor.trace();
        let objective = self.history.last().map_or(f64::NAN, |h| h.objective);
        ClusteringResult {
            labels: self.labels,
            k: self.k,
            iterations: self.iterations,
            converged: self.converged,
            objective,
            history: self.history,
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
/// is bit-identical to a cold fit by construction. Either way the fit is one
/// `lockstep` run on `executor`.
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
    if let Some(labels) = &init {
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
    }
    let mut runs = [Run::new(config, executor, engine, init)];
    // Prices the per-tile produce (source charges) / consume (engine
    // charges) segments of the double-buffer model; a no-op with streaming
    // off. The trace itself is identical either way.
    let mut meter = StreamMeter::new(config.streaming);
    lockstep(&mut runs, source, executor, 1, &mut meter)?;
    let [run] = runs;
    let mut result = run.state.into_result(executor);
    result.approx_error_bound = source.approx_error_bound();
    result.streaming = meter.into_report();
    result.config = Some(config.clone());
    Ok(result)
}

/// One run of [`lockstep`]: its config, the executor its own operations
/// charge to, its distance engine and its loop state. Runs borrow their
/// executor and engine: a fit's are the fit's own, a batch's the forks and
/// engines the batch driver owns.
pub(crate) struct Run<'a, T: Scalar> {
    config: &'a KernelKmeansConfig,
    executor: &'a dyn Executor,
    engine: &'a mut dyn DistanceEngine<T>,
    /// Warm-start labels, which seeding takes instead of running the
    /// configured initialization.
    init: Option<Vec<usize>>,
    pub(crate) state: LoopState,
}

impl<'a, T: Scalar> Run<'a, T> {
    pub(crate) fn new(
        config: &'a KernelKmeansConfig,
        executor: &'a dyn Executor,
        engine: &'a mut dyn DistanceEngine<T>,
        init: Option<Vec<usize>>,
    ) -> Self {
        Self {
            config,
            executor,
            engine,
            init,
            state: LoopState::new(Vec::new(), config.k),
        }
    }

    fn active(&self) -> bool {
        self.state.active(self.config)
    }
}

/// One phase of the loop: [`par_over`] the runs that are still iterating;
/// runs that stopped skip the phase.
fn over_active<T: Scalar>(
    runs: &mut [Run<'_, T>],
    threads: usize,
    f: impl Fn(&mut Run<'_, T>) -> Result<()> + Sync,
) -> Result<()> {
    par_over(
        runs,
        threads,
        |run| if run.active() { f(run) } else { Ok(()) },
    )
}

/// The iteration loop (paper Alg. 2 lines 3–14) of every run over `source`:
/// seeding (or each run's warm-start labels), then per pass, while any run
/// is active, `begin_iteration`, one panel pass over `source` whose every
/// panel each active run folds, and `finish_iteration` plus the assignment
/// step. Seeding, each phase and every panel's folds are one [`par_over`]
/// fan-out over `threads` host threads, so each run's work and its order are
/// the same at every thread count and everything downstream is bit-identical.
/// A panel's borrow never leaves the source's visitor: the fan-out over it
/// joins before the visitor returns.
///
/// The source charges what it produces (a tiled source's recomputation) to
/// `shared_executor`, on the calling thread, once for every run. A pass asks
/// for the columns of its only active run ([`DistanceEngine::columns`]) and
/// for every column while two or more runs are active. `meter` prices the
/// pass as it goes: produce segments off `shared_executor`, consume segments
/// as the seconds the active runs' folds charged to their own executors,
/// summed in run order.
pub(crate) fn lockstep<T: Scalar>(
    runs: &mut [Run<'_, T>],
    source: &dyn KernelSource<T>,
    shared_executor: &dyn Executor,
    threads: usize,
    meter: &mut StreamMeter,
) -> Result<()> {
    // Kernel k-means++ row pulls on a *sharded* source go through the
    // shared shard-activation state (`Executor::activate_shard` on the
    // topology every fork shares), so seeding fans out only on single-shard
    // topologies; per-fork row charges are deterministic either way.
    let seed_threads = if shared_executor.shard_count() == 1 {
        threads
    } else {
        1
    };
    par_over(runs, seed_threads, |run| {
        let KernelKmeansConfig { k, init, seed, .. } = *run.config;
        let labels = match run.init.take() {
            Some(labels) => labels,
            None => initial_assignments_source(source, k, init, seed, run.executor)?,
        };
        run.state = LoopState::new(labels, k);
        Ok(())
    })?;
    let measure = meter.active();
    while runs.iter().any(Run::active) {
        over_active(runs, threads, |run| {
            let (iteration, labels) = (run.state.iteration(), run.state.labels());
            run.engine
                .begin_iteration(iteration, source, labels, run.executor)
        })?;
        let mut active = runs.iter().filter(|run| run.active());
        // A copy, because the panels go back to the engines mutably.
        let columns = match (active.next(), active.next()) {
            (Some(run), None) => run.engine.columns().map(<[usize]>::to_vec),
            _ => None,
        };
        meter.begin_pass(shared_executor);
        source.for_each_panel(shared_executor, columns.as_deref(), &mut |rows, panel| {
            meter.tile_produced(shared_executor);
            let marks: Vec<usize> = if measure {
                runs.iter().map(|run| run.executor.trace_len()).collect()
            } else {
                Vec::new()
            };
            over_active(runs, threads, |run| {
                run.engine.consume(rows.clone(), panel, run.executor)
            })?;
            let mut seconds = EngineSeconds::default();
            for (run, &mark) in runs.iter().zip(&marks).filter(|(run, _)| run.active()) {
                seconds.accumulate(run.executor.engine_seconds_since(mark));
            }
            meter.tile_consumed(seconds, shared_executor);
            Ok(())
        })?;
        meter.finish_pass();
        over_active(runs, threads, |run| {
            let distances = run.engine.finish_iteration(run.executor)?;
            run.state.step(&distances, run.config, run.executor);
            run.engine.recycle_distances(distances);
            Ok(())
        })?;
    }
    Ok(())
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
    /// assembled from the dense row tiles of a caller's matrix.
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

        fn consume(
            &mut self,
            rows: Range<usize>,
            panel: Panel<'_, f64>,
            _executor: &dyn Executor,
        ) -> Result<()> {
            let Panel::Rows(tile) = panel else {
                return Err(CoreError::Unsupported("dense rows only".into()));
            };
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
        let result = LoopState::new(vec![0, 1], 2).into_result(&exec);
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
