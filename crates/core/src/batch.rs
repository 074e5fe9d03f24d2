//! Batched multi-fit (restart) driver over a shared kernel matrix.
//!
//! The paper's evaluation protocol runs kernel k-means many times per dataset
//! — several seeds per `k`, several `k` values per dataset — and the dominant
//! cost, the `n × n` kernel matrix, is identical across every one of those
//! runs. [`crate::Solver::fit_batch`] exploits that: the points are uploaded
//! and the kernel matrix computed **exactly once** (charged once to the
//! simulator), then every job's clustering iterations borrow the same shared
//! `K`. Each per-job result is bit-identical to the equivalent standalone
//! `fit_input` call — sharing changes the accounting, never the arithmetic.
//!
//! Every kernel family's solver ([`crate::KernelSolver`]) runs `fit_batch`
//! through the shared-source **lockstep** driver in this module
//! ([`drive_shared_source_with`]): all jobs advance one iteration at a time
//! so a single tile pass over the [`KernelSource`] feeds every job — which is
//! what makes the batched-tiled combination pay off when `K` is recomputed
//! per tile. Lloyd's algorithm has no kernel matrix to share but still
//! charges its single points upload once per batch
//! ([`drive_shared_kernel_with`]). [`BatchReport`] records what the sharing
//! bought: the modeled cost of the batch as executed (shared phase charged
//! once) next to the modeled cost of the same jobs run independently.
//!
//! Large sweeps additionally run **host-parallel**: per-job engine work fans
//! out across host threads ([`BatchOptions::host_threads`], CLI
//! `--host-threads`). The lockstep driver runs one sequence of phases — seed,
//! begin, one fold per tile, finish — and each phase is one scoped fan-out
//! over `min(threads, jobs)` balanced contiguous job chunks that joins before
//! the driver moves on; at one host thread it runs inline and spawns
//! nothing. A tile's borrow never leaves the source's visitor, so no pointer,
//! channel or barrier crosses threads. All merging happens on the driver
//! thread in fixed job order, so results and traces stay bit-identical to the
//! inline drive at any thread count. [`BatchReport::host_seconds`] carries
//! the measured wall-clock of the drive, and
//! [`BatchReport::modeled_concurrent_seconds`] the stream-aware modeled
//! wall-clock (jobs sharing one device serialize on the compute engine but
//! overlap transfers across streams).

use crate::config::KernelKmeansConfig;
use crate::errors::CoreError;
use crate::init::initial_assignments_source;
use crate::kernel_source::{for_each_panel, KernelSource};
use crate::pipeline::{DistanceEngine, LoopState};
use crate::result::ClusteringResult;
use crate::solver::FitInput;
use crate::Result;
use popcorn_dense::parallel::split_ranges;
use popcorn_dense::Scalar;
use popcorn_gpusim::{
    DeviceEngine, EngineSeconds, Executor, OpTrace, StreamMeter, Streaming, StreamingReport,
};
use std::time::Instant;

/// How many host threads a batch driver may fan per-job work out across.
///
/// This is **host-side** parallelism only: it decides how fast the simulation
/// executes the per-job engine work, never what is modeled. Results, traces
/// and residency accounting are bit-identical at every setting — the
/// `tests/parallel_batch_properties.rs` suite pins that contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostParallelism {
    /// One thread, the classic sequential driver (the default).
    #[default]
    Sequential,
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
    /// Exactly this many workers (values below 1 are clamped to 1).
    Threads(usize),
}

impl HostParallelism {
    /// The concrete worker count this setting resolves to on this host.
    pub fn resolve(self) -> usize {
        match self {
            HostParallelism::Sequential => 1,
            HostParallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            HostParallelism::Threads(n) => n.max(1),
        }
    }

    /// Name matching the CLI flag values (`auto` or the thread count).
    pub fn describe(self) -> String {
        match self {
            HostParallelism::Sequential => "1".to_string(),
            HostParallelism::Auto => "auto".to_string(),
            HostParallelism::Threads(n) => n.max(1).to_string(),
        }
    }
}

/// Batch-level execution options (everything that is not part of a job's
/// clustering configuration), passed to `Solver::fit_batch_with`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOptions {
    /// Host threads the lockstep driver fans per-job work across.
    pub host_threads: HostParallelism,
}

impl BatchOptions {
    /// Builder-style setter for the host-thread policy.
    pub fn with_host_threads(mut self, host_threads: HostParallelism) -> Self {
        self.host_threads = host_threads;
        self
    }
}

/// One unit of a batch: a full solver configuration (the `(config, seed)`
/// pair of the restart protocol — the seed lives inside the config).
#[derive(Debug, Clone, PartialEq)]
pub struct FitJob {
    /// The configuration this job runs with.
    pub config: KernelKmeansConfig,
}

impl FitJob {
    /// A job from a base configuration and the seed that distinguishes it.
    pub fn new(config: KernelKmeansConfig, seed: u64) -> Self {
        Self {
            config: config.with_seed(seed),
        }
    }

    /// The restart protocol: one job per seed, all sharing `base`.
    pub fn restarts(base: &KernelKmeansConfig, seeds: impl IntoIterator<Item = u64>) -> Vec<Self> {
        seeds
            .into_iter()
            .map(|seed| Self::new(base.clone(), seed))
            .collect()
    }

    /// The sweep protocol: `restarts` seeded jobs per `k` value (seeds
    /// `base.seed, base.seed + 1, …`), the full grid the paper's tables run.
    pub fn k_sweep(base: &KernelKmeansConfig, k_values: &[usize], restarts: usize) -> Vec<Self> {
        let mut jobs = Vec::with_capacity(k_values.len() * restarts);
        for &k in k_values {
            for r in 0..restarts {
                let mut config = base.clone();
                config.k = k;
                jobs.push(Self::new(config, base.seed.wrapping_add(r as u64)));
            }
        }
        jobs
    }
}

impl From<KernelKmeansConfig> for FitJob {
    fn from(config: KernelKmeansConfig) -> Self {
        Self { config }
    }
}

/// Per-job summary kept in the [`BatchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Number of clusters this job requested.
    pub k: usize,
    /// RNG seed this job ran with.
    pub seed: u64,
    /// Final objective.
    pub objective: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the job stopped on convergence.
    pub converged: bool,
    /// Modeled device time of this job's own operations (the clustering
    /// iterations — the shared upload/kernel-matrix work is not included).
    pub modeled_seconds: f64,
    /// The slice of [`JobReport::modeled_seconds`] spent on the device's
    /// compute engine ([`DeviceEngine::Compute`]).
    pub modeled_compute_seconds: f64,
    /// The slice of [`JobReport::modeled_seconds`] spent on the device's
    /// copy engine ([`DeviceEngine::Copy`]: transfers, all-reduces).
    pub modeled_copy_seconds: f64,
}

impl JobReport {
    fn new(job: &FitJob, result: &ClusteringResult, job_trace: &OpTrace) -> Self {
        Self {
            k: job.config.k,
            seed: job.config.seed,
            objective: result.objective,
            iterations: result.iterations,
            converged: result.converged,
            modeled_seconds: job_trace.total_modeled_seconds(),
            modeled_compute_seconds: job_trace.engine_modeled_seconds(DeviceEngine::Compute),
            modeled_copy_seconds: job_trace.engine_modeled_seconds(DeviceEngine::Copy),
        }
    }
}

/// Cost accounting for one batch: what was charged once, what was charged
/// per job, and what the same jobs would have cost as independent fits.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Trace of the operations charged once for the whole batch: the upload,
    /// the kernel-matrix computation (in-core) or the per-iteration tile
    /// recomputations (tiled). Empty when nothing was shared.
    pub shared_trace: OpTrace,
    /// One summary per job, in job order.
    pub jobs: Vec<JobReport>,
    /// High-water mark of the batch's modeled device residency. For the
    /// lockstep driver this is the shared baseline plus the **sum** of every
    /// job's concurrently-live buffers — higher than any single job's
    /// [`ClusteringResult::peak_resident_bytes`], which only sees its own.
    pub peak_resident_bytes: u64,
    /// Host threads the driver actually used (resolved from
    /// [`BatchOptions::host_threads`], clamped to the job count; 1 for the
    /// sequential driver).
    pub host_threads: usize,
    /// **Measured** host wall-clock of the batch drive (seeding plus the
    /// clustering iterations; the shared upload/kernel-matrix phase is not
    /// included) — the number the parallel driver shrinks. Compare one run at
    /// `host_threads = 1` against one at `N` to see the real speedup; the
    /// modeled device numbers are bit-identical across thread counts.
    pub host_seconds: f64,
    /// Double-buffered streaming accounting for the shared lockstep tile
    /// pass, present when the jobs ran with
    /// [`popcorn_gpusim::Streaming::DoubleBuffered`]: the produce side is the
    /// shared tile recomputation (charged once per pass to the shared
    /// executor), the consume side sums every job fork's fold over the tile
    /// (forks share one device, so concurrent folds serialize). Like the
    /// single-fit meter this is derived from trace marks only — traces and
    /// results stay bit-identical with streaming on or off. `None` for
    /// streaming-off batches and drivers with no shared tile pass (Lloyd,
    /// independent fits).
    pub streaming: Option<StreamingReport>,
}

impl BatchReport {
    /// Modeled device time of the shared (charged once) phase.
    pub fn shared_modeled_seconds(&self) -> f64 {
        self.shared_trace.total_modeled_seconds()
    }

    /// Modeled device time summed over every job's own iterations.
    pub fn jobs_modeled_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.modeled_seconds).sum()
    }

    /// Modeled cost of the batch as executed: shared phase once, then the
    /// per-job iterations.
    pub fn amortized_modeled_seconds(&self) -> f64 {
        self.shared_modeled_seconds() + self.jobs_modeled_seconds()
    }

    /// Modeled cost of running the same jobs as independent `fit_input`
    /// calls, each recomputing the shared phase.
    ///
    /// For in-core batches (shared phase = upload + one kernel matrix) the
    /// deterministic cost model makes this exact. For lockstep **tiled**
    /// batches the shared phase holds one tile pass per *global* iteration
    /// (the max over jobs), so this is exact when every job runs the full
    /// iteration budget (the paper's timing protocol) and an upper bound on
    /// the independent cost when early convergence lets some jobs stop
    /// before others.
    pub fn independent_modeled_seconds(&self) -> f64 {
        self.jobs.len() as f64 * self.shared_modeled_seconds() + self.jobs_modeled_seconds()
    }

    /// How much faster the batch is than the equivalent independent fits
    /// (1.0 when nothing was shared).
    pub fn reuse_speedup(&self) -> f64 {
        let amortized = self.amortized_modeled_seconds();
        if amortized <= 0.0 {
            1.0
        } else {
            self.independent_modeled_seconds() / amortized
        }
    }

    /// Stream-aware modeled wall-clock of the batch on one device.
    ///
    /// Model: the shared phase runs first on a single stream; then every job
    /// runs in its own device stream. Streams sharing a device **serialize on
    /// the compute engine** (the SMs execute one kernel grid's worth of work
    /// at a time, so restart jobs cannot speed each other's GEMM/SpMM up),
    /// but the copy engine is independent — one job's transfers overlap other
    /// jobs' compute. Hence: shared + max(Σ compute, Σ copy) over the jobs
    /// (see [`DeviceEngine`]).
    ///
    /// For compute-bound clustering iterations this is close to
    /// [`BatchReport::amortized_modeled_seconds`] — which is exactly the
    /// honest statement: host threads cut the *measured* wall-clock
    /// ([`BatchReport::host_seconds`]), while a single modeled device is
    /// already saturated by one stream's compute.
    pub fn modeled_concurrent_seconds(&self) -> f64 {
        let compute: f64 = self.jobs.iter().map(|j| j.modeled_compute_seconds).sum();
        let copy: f64 = self.jobs.iter().map(|j| j.modeled_copy_seconds).sum();
        self.shared_modeled_seconds() + compute.max(copy)
    }

    /// Modeled wall-clock of the batch: the amortized modeled total, minus
    /// the shared tile production the double-buffered pipeline hides under
    /// the jobs' distance folds when the batch ran with streaming on. Never
    /// exceeds [`BatchReport::amortized_modeled_seconds`], and equals it with
    /// streaming off or when every pass had a single tile (nothing to hide
    /// behind) — the batched counterpart of
    /// [`crate::ClusteringResult::modeled_wallclock_seconds`].
    pub fn modeled_wallclock_seconds(&self) -> f64 {
        let serial = self.amortized_modeled_seconds();
        match &self.streaming {
            Some(report) => serial - report.hidden_seconds,
            None => serial,
        }
    }

    /// How much modeled wall-clock the stream overlap hides (≥ 1.0; the ratio
    /// of the fully serialized amortized time over the stream-aware time).
    pub fn stream_overlap_speedup(&self) -> f64 {
        let concurrent = self.modeled_concurrent_seconds();
        if concurrent <= 0.0 {
            1.0
        } else {
            self.amortized_modeled_seconds() / concurrent
        }
    }
}

/// The outcome of one `fit_batch` call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One clustering result per job, in job order; each is bit-identical to
    /// the equivalent standalone `fit_input` call.
    pub results: Vec<ClusteringResult>,
    /// Index of the best job by final objective (the restart protocol's
    /// selection rule; ties keep the earliest job).
    pub best: usize,
    /// Cost accounting for the batch.
    pub report: BatchReport,
}

impl BatchResult {
    /// The best run by objective.
    pub fn best_result(&self) -> &ClusteringResult {
        &self.results[self.best]
    }

    /// Index of the best job restricted to one `k` (restart selection inside
    /// a k-sweep), or `None` if no job ran with that `k`.
    pub fn best_for_k(&self, k: usize) -> Option<usize> {
        // Tie-break on the index so equal objectives keep the earliest job
        // (`min_by` alone would return the last of tied minima).
        self.results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.k == k)
            .min_by(|(ia, a), (ib, b)| a.objective.total_cmp(&b.objective).then(ia.cmp(ib)))
            .map(|(i, _)| i)
    }

    /// Every operation the batch charged, in execution order: the shared
    /// phase followed by each job's own operations.
    pub fn combined_trace(&self) -> OpTrace {
        let mut trace = self.report.shared_trace.clone();
        for result in &self.results {
            trace.extend(&result.trace);
        }
        trace
    }
}

/// Validate the per-job configurations of a batch against an input: jobs
/// must be non-empty and every config valid for `n`. This is the whole
/// contract for solvers that share no kernel matrix (Lloyd — its jobs may
/// freely mix kernels it never evaluates); kernel-matrix solvers
/// additionally go through [`validate_jobs`].
pub fn validate_job_configs<T: Scalar>(input: &FitInput<'_, T>, jobs: &[FitJob]) -> Result<()> {
    if jobs.is_empty() {
        return Err(CoreError::InvalidConfig(
            "fit_batch requires at least one job".into(),
        ));
    }
    for job in jobs {
        job.config.validate(input.n())?;
    }
    Ok(())
}

/// Validate a batch against an input: jobs must be non-empty, every config
/// valid for `n`, and — because one `K` (or one tile stream) is shared —
/// every job must use the same kernel function, Gram strategy, tiling
/// policy, approximation and streaming policy, so the first job's config
/// speaks for the shared phase.
pub fn validate_jobs<T: Scalar>(input: &FitInput<'_, T>, jobs: &[FitJob]) -> Result<()> {
    validate_job_configs(input, jobs)?;
    let first = &jobs.first().expect("validated non-empty").config;
    for job in jobs {
        if job.config.kernel != first.kernel || job.config.strategy != first.strategy {
            return Err(CoreError::InvalidConfig(
                "all jobs in a batch must share the kernel function and Gram strategy \
                 so the kernel matrix can be shared; split differing kernels into \
                 separate batches"
                    .into(),
            ));
        }
        if job.config.tiling != first.tiling {
            return Err(CoreError::InvalidConfig(
                "all jobs in a batch must share the tiling policy so one residency \
                 plan (and one tile stream) can serve the whole batch"
                    .into(),
            ));
        }
        if job.config.approx != first.approx {
            return Err(CoreError::InvalidConfig(
                "all jobs in a batch must share the kernel approximation so one \
                 kernel representation (exact matrix or Nyström factors) can be \
                 shared; split differing approximations into separate batches"
                    .into(),
            ));
        }
        if job.config.streaming != first.streaming {
            return Err(CoreError::InvalidConfig(
                "all jobs in a batch must share the streaming policy: the lockstep \
                 driver runs one shared tile pass, so one produce/consume pricing \
                 applies to the whole batch"
                    .into(),
            ));
        }
    }
    Ok(())
}

/// The records appended to `executor` since it held `mark` records — the
/// shared-phase slice of a batch.
pub fn trace_since(executor: &dyn Executor, mark: usize) -> OpTrace {
    let snapshot = executor.trace();
    let mut trace = OpTrace::new();
    for record in snapshot.records().iter().skip(mark) {
        trace.push(record.clone());
    }
    trace
}

/// Fan `f` out over the jobs' per-job slots on exactly
/// `min(threads, jobs.len())` scoped host threads (one balanced contiguous
/// chunk each), preserving sequential semantics:
///
/// * [`split_ranges`] cuts the slots into contiguous chunks in **job
///   order**, as many as [`BatchReport::host_threads`] reports; each worker
///   owns its chunk exclusively, and within a chunk jobs run in order;
/// * the returned error is the error of the earliest failing job (chunks are
///   ordered and each worker stops at its first failure, so the first
///   failing chunk's error belongs to the globally earliest failing job);
/// * a worker panic is resumed on the driver thread, exactly as if the job
///   had panicked inline.
///
/// With `threads <= 1` (or a single job) everything runs on the calling
/// thread with no spawning at all — the classic sequential driver.
fn par_over_jobs<S: Send, F>(jobs: &[FitJob], slots: &mut [S], threads: usize, f: F) -> Result<()>
where
    F: Fn(&FitJob, &mut S) -> Result<()> + Sync,
{
    debug_assert_eq!(jobs.len(), slots.len());
    if threads <= 1 || jobs.len() <= 1 {
        for (job, slot) in jobs.iter().zip(slots.iter_mut()) {
            f(job, slot)?;
        }
        return Ok(());
    }
    let ranges = split_ranges(jobs.len(), threads);
    let outcomes: Vec<std::thread::Result<Result<()>>> = std::thread::scope(|scope| {
        let mut rest = slots;
        let handles: Vec<_> = ranges
            .iter()
            .map(|range| {
                let (slot_chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                let job_chunk = &jobs[range.clone()];
                let f = &f;
                scope.spawn(move || -> Result<()> {
                    for (job, slot) in job_chunk.iter().zip(slot_chunk.iter_mut()) {
                        f(job, slot)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    for outcome in outcomes {
        match outcome {
            Ok(result) => result?,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    Ok(())
}

/// Drive every job's clustering iterations over shared per-batch state whose
/// trace the caller has already sliced into `shared_trace` (e.g. Lloyd's
/// single shared upload).
///
/// `run_job` runs one job's iterations on the executor it is handed. Each job
/// runs on a fork of the shared executor so its [`ClusteringResult`] carries
/// only its own operations; the fork's records (and residency peak) are
/// absorbed back — always in job order — so a caller-attached executor still
/// accumulates the complete batch history. Jobs here share no per-iteration
/// state at all, so [`BatchOptions::host_threads`] fans **whole jobs** out
/// across workers; the merge order keeps results and traces bit-identical to
/// the sequential drive.
pub fn drive_shared_kernel_with(
    jobs: &[FitJob],
    shared_executor: &dyn Executor,
    shared_trace: OpTrace,
    options: &BatchOptions,
    run_job: impl Fn(&FitJob, &dyn Executor) -> Result<ClusteringResult> + Sync,
) -> Result<BatchResult> {
    let threads = options.host_threads.resolve().min(jobs.len().max(1));
    struct Slot {
        executor: Box<dyn Executor>,
        result: Option<ClusteringResult>,
    }
    // Forks are created up front, in job order, so every fork sees the same
    // residency baseline it would in the sequential drive (absorb/merge on
    // the shared executor never move its resident counter).
    let mut slots: Vec<Slot> = jobs
        .iter()
        .map(|_| Slot {
            executor: shared_executor.fork(),
            result: None,
        })
        .collect();
    // The host clock starts only now: building O(jobs) forks above is driver
    // bookkeeping, not per-job clustering work, and charging it made
    // `host_seconds` grow with batch size even for trivially small jobs.
    let start = Instant::now();
    par_over_jobs(jobs, &mut slots, threads, |job, slot| {
        slot.result = Some(run_job(job, &*slot.executor)?);
        Ok(())
    })?;
    let mut results = Vec::with_capacity(jobs.len());
    let mut job_reports = Vec::with_capacity(jobs.len());
    for (job, slot) in jobs.iter().zip(slots) {
        let result = slot.result.expect("par_over_jobs filled every slot");
        let job_trace = slot.executor.trace();
        shared_executor.absorb(&job_trace);
        shared_executor.merge_peak(slot.executor.peak_resident_bytes());
        job_reports.push(JobReport::new(job, &result, &job_trace));
        results.push(result);
    }
    let peak = shared_executor.peak_resident_bytes();
    Ok(assemble(
        results,
        shared_trace,
        job_reports,
        peak,
        threads,
        start.elapsed().as_secs_f64(),
        // No shared tile pass here: jobs run whole fits independently, so
        // there is no produce/consume pipeline to price.
        None,
    ))
}

/// Per-job state owned by the lockstep driver: the job's forked executor,
/// its distance engine and its iteration state. Each phase's fan-out hands
/// every worker a disjoint contiguous chunk of these.
struct JobRun<T: Scalar> {
    executor: Box<dyn Executor>,
    engine: Box<dyn DistanceEngine<T>>,
    state: LoopState,
}

/// One phase of the lockstep loop: [`par_over_jobs`] over the jobs that are
/// still iterating; jobs that stopped skip the phase.
fn over_active<T: Scalar>(
    jobs: &[FitJob],
    runs: &mut [JobRun<T>],
    threads: usize,
    f: impl Fn(&FitJob, &mut JobRun<T>) -> Result<()> + Sync,
) -> Result<()> {
    par_over_jobs(jobs, runs, threads, |job, run| {
        if run.state.active(&job.config) {
            f(job, run)
        } else {
            Ok(())
        }
    })
}

/// Seeding plus the lockstep iteration loop over `runs`: per global
/// iteration, `begin_iteration`, one tile pass over `K` serving every active
/// job, then `finish_iteration` and the assignment step. Seeding, each of
/// those phases and every tile of the pass is one [`par_over_jobs`] fan-out,
/// so the per-job work and its order within a chunk are the same at every
/// thread count, and everything downstream of this call is bit-identical.
/// A tile's borrow never leaves the source's visitor: the fan-out over it
/// joins before the visitor returns.
///
/// A tiled source charges the recomputation once, to the shared executor,
/// on the driver thread; a CSR-resident source streams zero-copy sparse
/// panels instead. Streaming accounting prices the pass as it goes: produce
/// segments are the tile recomputation on the shared executor, consume
/// segments the per-job folds measured off each fork's own trace and summed
/// in job order.
fn lockstep<T: Scalar>(
    jobs: &[FitJob],
    runs: &mut [JobRun<T>],
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
    par_over_jobs(jobs, runs, seed_threads, |job, run| {
        let KernelKmeansConfig { k, init, seed, .. } = job.config;
        let labels = initial_assignments_source(source, k, init, seed, &*run.executor)?;
        run.state = LoopState::new(labels, k);
        Ok(())
    })?;
    let measure = meter.active();
    while jobs
        .iter()
        .zip(runs.iter())
        .any(|(job, run)| run.state.active(&job.config))
    {
        over_active(jobs, runs, threads, |_, run| {
            let (iteration, labels) = (run.state.iteration(), run.state.labels());
            run.engine
                .begin_iteration(iteration, source, labels, &*run.executor)
        })?;
        meter.begin_pass(shared_executor);
        // One tile's folds: a fan-out of `consume` over the active jobs.
        let mut fold = |consume: &(dyn Fn(&mut JobRun<T>) -> Result<()> + Sync)| {
            meter.tile_produced(shared_executor);
            let marks: Vec<usize> = if measure {
                runs.iter().map(|run| run.executor.trace_len()).collect()
            } else {
                Vec::new()
            };
            over_active(jobs, runs, threads, |_, run| consume(run))?;
            let mut seconds = EngineSeconds::default();
            for (run, &mark) in runs.iter().zip(&marks) {
                seconds.accumulate(run.executor.engine_seconds_since(mark));
            }
            meter.tile_consumed_external(seconds);
            Ok(())
        };
        for_each_panel(source, shared_executor, None, &mut |rows, panel| {
            fold(&|run| run.engine.consume(rows.clone(), panel, &*run.executor))
        })?;
        meter.finish_pass();
        over_active(jobs, runs, threads, |job, run| {
            let distances = run.engine.finish_iteration(&*run.executor)?;
            run.state.step(&distances, &job.config, &*run.executor);
            run.engine.recycle_distances(distances);
            Ok(())
        })?;
    }
    Ok(())
}

/// Drive every job's clustering iterations over one shared [`KernelSource`]
/// in **lockstep**: per global iteration, a single tile pass over `K` feeds
/// every still-active job.
///
/// This is what makes the batched-tiled combination pay off — with a
/// [`crate::TiledKernel`] the (expensive) per-iteration tile recomputation is
/// charged once to the shared executor and serves the whole restart/k-sweep,
/// instead of once per job; with a single-tile [`crate::FullKernel`] the
/// pass is free and this reduces to the classic shared-`K` driver. Each
/// job's own operations (SpMM over the tile, argmin, ...) run on a forked
/// executor, so per-job results stay bit-identical to standalone
/// `fit_input` calls and per-job modeled times stay attributable. The caller
/// charged the shared phase (data preparation, and the kernel matrix when
/// in-core) starting at trace index `mark`. The driver adds `diag(K)` to it
/// when a job's engine reads the source's diagonal
/// ([`DistanceEngine::reads_source_diag`]) or a job seeds with kernel
/// k-means++, and everything the tile stream charges during the loop lands
/// on the shared executor and joins that shared slice. `make_engine` builds
/// each job's engine ([`crate::ModelFamily::engine`] for the solvers).
///
/// # Host parallelism
///
/// [`BatchOptions::host_threads`] fans the per-job seeding and
/// `begin_iteration` / `consume_tile` / `finish_iteration` + assignment work
/// of each phase out across host threads. The tile stream itself stays on
/// the driver thread (one pass, charged once); workers
/// own disjoint contiguous job chunks, every job's state/engine/executor is
/// touched by at most one thread per phase, and all merging back into the
/// shared executor happens on the driver thread in fixed job order — so
/// results, traces and residency accounting are **bit-identical at any
/// thread count**. What changes is only the measured host wall-clock
/// ([`BatchReport::host_seconds`]).
///
/// At one host thread every phase runs inline on the driver thread and
/// nothing is spawned. Above that, each phase — kernel k-means++ seeding
/// included, once the shared `diag(K)` cache is pre-warmed — and each tile
/// of the pass is one scoped fan-out that joins before the driver moves on.
pub fn drive_shared_source_with<T: Scalar>(
    jobs: &[FitJob],
    source: &dyn KernelSource<T>,
    shared_executor: &dyn Executor,
    mark: usize,
    options: &BatchOptions,
    make_engine: impl FnMut(&FitJob) -> Result<Box<dyn DistanceEngine<T>>>,
) -> Result<BatchResult> {
    if jobs.is_empty() {
        return Err(CoreError::InvalidConfig(
            "fit_batch requires at least one job".into(),
        ));
    }
    let engines = jobs.iter().map(make_engine).collect::<Result<Vec<_>>>()?;
    // diag(K) is identical across jobs. Engines that read it from the source
    // and kernel k-means++ seeding would each pull it on whichever job's
    // fork gets there first, so compute and charge it once in the shared
    // phase. Pre-warming it here is also what lets seeding fan out across
    // workers without the first-to-seed job absorbing the shared charge.
    if engines.iter().any(|engine| engine.reads_source_diag())
        || jobs
            .iter()
            .any(|j| j.config.init == crate::init::Initialization::KmeansPlusPlus)
    {
        source.diag(shared_executor)?;
    }
    let start = Instant::now();
    let threads = options.host_threads.resolve().min(jobs.len());
    // Residency at fork time: the shared state (points, kernel matrix or
    // tile buffer) every job's executor starts from.
    let shared_baseline = shared_executor.resident_bytes();
    // Forks are built up front on the driver thread, in job order, so every
    // fork sees the same residency baseline it would in the sequential
    // drive. Seeding replaces the placeholder states before the first
    // iteration.
    let mut runs: Vec<JobRun<T>> = jobs
        .iter()
        .zip(engines)
        .map(|(job, engine)| JobRun {
            executor: shared_executor.fork(),
            engine,
            state: LoopState::new(Vec::new(), job.config.k),
        })
        .collect();

    // One meter for the shared tile pass; jobs were validated to share the
    // streaming policy, so the first job's setting speaks for the batch.
    let mut meter = StreamMeter::new(
        jobs.first()
            .map(|job| job.config.streaming)
            .unwrap_or(Streaming::Off),
    );
    lockstep(
        jobs,
        &mut runs,
        source,
        shared_executor,
        threads,
        &mut meter,
    )?;

    // Slice the shared phase before absorbing per-job records on top of it.
    let shared_trace = trace_since(shared_executor, mark);
    // Lockstep means every job's *persistent* buffers (still resident at the
    // end) are live at the same time, so they SUM into the batch peak.
    // Transient spikes (e.g. a job's kmeans++ seeding rows, freed before the
    // loop) count only once, at the largest spike: the modeled residency is
    // DEFINED as the sequential interleaving's peak — the bit-identity
    // contract pins it to the same number at every host-thread count, so
    // host threads (which can overlap transients in real time) never move
    // the modeled accounting.
    let mut persistent_sum = 0u64;
    let mut max_transient = 0u64;
    for run in &runs {
        let persistent = run
            .executor
            .resident_bytes()
            .saturating_sub(shared_baseline);
        let transient = run
            .executor
            .peak_resident_bytes()
            .saturating_sub(shared_baseline)
            .saturating_sub(persistent);
        persistent_sum = persistent_sum.saturating_add(persistent);
        max_transient = max_transient.max(transient);
    }
    shared_executor.merge_peak(
        shared_baseline
            .saturating_add(persistent_sum)
            .saturating_add(max_transient),
    );
    let mut results = Vec::with_capacity(jobs.len());
    let mut job_reports = Vec::with_capacity(jobs.len());
    for (job, run) in jobs.iter().zip(runs) {
        let job_trace = run.executor.trace();
        shared_executor.absorb(&job_trace);
        let mut result = run.state.into_result(&run.executor);
        result.approx_error_bound = source.approx_error_bound();
        job_reports.push(JobReport::new(job, &result, &job_trace));
        results.push(result);
    }
    let peak = shared_executor.peak_resident_bytes();
    Ok(assemble(
        results,
        shared_trace,
        job_reports,
        peak,
        threads,
        start.elapsed().as_secs_f64(),
        meter.into_report(),
    ))
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    results: Vec<ClusteringResult>,
    shared_trace: OpTrace,
    jobs: Vec<JobReport>,
    peak_resident_bytes: u64,
    host_threads: usize,
    host_seconds: f64,
    streaming: Option<StreamingReport>,
) -> BatchResult {
    // Tie-break on the index so equal objectives keep the earliest job
    // (`min_by` alone would return the last of tied minima).
    let best = results
        .iter()
        .enumerate()
        .min_by(|(ia, a), (ib, b)| a.objective.total_cmp(&b.objective).then(ia.cmp(ib)))
        .map(|(i, _)| i)
        .unwrap_or(0);
    BatchResult {
        results,
        best,
        report: BatchReport {
            shared_trace,
            jobs,
            peak_resident_bytes,
            host_threads,
            host_seconds,
            streaming,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popcorn::KernelKmeans;
    use crate::solver::Solver;
    use crate::{KernelFunction, KernelMatrixStrategy, TilePolicy};
    use popcorn_dense::DenseMatrix;
    use popcorn_gpusim::SimExecutor;
    use popcorn_gpusim::{OpClass, OpCost, Phase};

    fn blob_points() -> DenseMatrix<f64> {
        DenseMatrix::from_fn(24, 3, |i, j| {
            let offset = if i < 12 { 0.0 } else { 18.0 };
            offset + ((i * 3 + j) as f64 * 0.31).sin() * 0.4
        })
    }

    fn config(k: usize) -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(10)
            .with_convergence_check(true, 1e-10)
    }

    #[test]
    fn job_constructors() {
        let base = config(3).with_seed(5);
        let job = FitJob::new(base.clone(), 9);
        assert_eq!(job.config.seed, 9);
        assert_eq!(job.config.k, 3);

        let restarts = FitJob::restarts(&base, 0..4);
        assert_eq!(restarts.len(), 4);
        assert_eq!(restarts[2].config.seed, 2);
        assert!(restarts.iter().all(|j| j.config.k == 3));

        let sweep = FitJob::k_sweep(&base, &[2, 4], 3);
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0].config.k, 2);
        assert_eq!(sweep[0].config.seed, 5);
        assert_eq!(sweep[4].config.k, 4);
        assert_eq!(sweep[4].config.seed, 6);

        let from: FitJob = base.clone().into();
        assert_eq!(from.config, base);
    }

    #[test]
    fn validate_jobs_rules() {
        let points = blob_points();
        let input = FitInput::from(&points);
        assert!(validate_jobs(&input, &[]).is_err());
        let ok = FitJob::restarts(&config(2), 0..2);
        assert!(validate_jobs(&input, &ok).is_ok());
        // k exceeding n fails through the per-job config validation.
        let too_big = vec![FitJob::new(config(100), 0)];
        assert!(validate_jobs(&input, &too_big).is_err());
        // Mixed kernels cannot share one K.
        let mixed = vec![
            FitJob::new(config(2).with_kernel(KernelFunction::Linear), 0),
            FitJob::new(config(2).with_kernel(KernelFunction::paper_polynomial()), 1),
        ];
        let err = validate_jobs(&input, &mixed).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        // Mixed strategies cannot guarantee bit-identical Grams either.
        let mixed_strategy = vec![
            FitJob::new(config(2).with_strategy(KernelMatrixStrategy::ForceGemm), 0),
            FitJob::new(config(2).with_strategy(KernelMatrixStrategy::ForceSyrk), 1),
        ];
        assert!(validate_jobs(&input, &mixed_strategy).is_err());
    }

    #[test]
    fn trace_since_slices_the_tail() {
        let exec = SimExecutor::a100_f32();
        exec.charge("before", Phase::Other, OpClass::Other, OpCost::new(1, 1, 1));
        let mark = exec.trace().len();
        exec.charge("after", Phase::Other, OpClass::Other, OpCost::new(2, 2, 2));
        let tail = trace_since(&exec, mark);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.records()[0].name, "after");
    }

    #[test]
    fn report_accounting_adds_up() {
        let points = blob_points();
        let jobs = FitJob::restarts(&config(2), 0..3);
        let batch = KernelKmeans::new(config(2))
            .fit_batch(FitInput::from(&points), &jobs)
            .unwrap();
        let report = &batch.report;
        assert_eq!(report.jobs.len(), 3);
        assert!(report.shared_modeled_seconds() > 0.0);
        assert!(report.jobs_modeled_seconds() > 0.0);
        let amortized = report.amortized_modeled_seconds();
        let independent = report.independent_modeled_seconds();
        assert!(
            (independent - amortized - 2.0 * report.shared_modeled_seconds()).abs() < 1e-15,
            "independent must charge the shared phase once per extra job"
        );
        assert!(report.reuse_speedup() > 1.0);
        // The combined trace partitions the amortized total.
        assert!((batch.combined_trace().total_modeled_seconds() - amortized).abs() < 1e-12);
    }

    #[test]
    fn double_buffered_batch_reports_the_overlay_and_keeps_results_bit_identical() {
        let points = blob_points();
        let jobs_off = FitJob::restarts(&config(2).with_tiling(TilePolicy::Rows(6)), 0..3);
        let jobs_on = FitJob::restarts(
            &config(2)
                .with_tiling(TilePolicy::Rows(6))
                .with_streaming(Streaming::DoubleBuffered),
            0..3,
        );
        let solver = KernelKmeans::new(config(2));
        let off = solver
            .fit_batch(FitInput::from(&points), &jobs_off)
            .unwrap();
        let on = solver.fit_batch(FitInput::from(&points), &jobs_on).unwrap();

        // The overlay is a pricing policy: labels, objectives and traces are
        // bit-identical with streaming on or off.
        for (a, b) in off.results.iter().zip(on.results.iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
        assert!(off.report.streaming.is_none());
        assert_eq!(
            off.report.modeled_wallclock_seconds(),
            off.report.amortized_modeled_seconds()
        );

        let report = on.report.streaming.as_ref().expect("metered batch");
        assert!(report.passes > 0);
        assert!(report.tiles > report.passes, "4 tiles per pass");
        assert!(
            report.produce.total() > 0.0,
            "tile recompute is the produce"
        );
        assert!(report.consume.total() > 0.0, "job folds are the consume");
        assert!(report.hidden_seconds > 0.0);
        assert!(
            on.report.modeled_wallclock_seconds() < on.report.amortized_modeled_seconds(),
            "the pipeline must hide some shared tile production"
        );

        // The overlay is fan-out independent: the parallel drive measures
        // the same modeled segments the sequential drive does.
        let parallel = solver
            .fit_batch_with(
                FitInput::from(&points),
                &jobs_on,
                &BatchOptions::default().with_host_threads(HostParallelism::Threads(2)),
            )
            .unwrap();
        let parallel_report = parallel.report.streaming.as_ref().expect("metered batch");
        assert_eq!(parallel_report.passes, report.passes);
        assert_eq!(parallel_report.tiles, report.tiles);
        assert_eq!(
            parallel_report.hidden_seconds.to_bits(),
            report.hidden_seconds.to_bits()
        );

        // A k-sweep gives every job its own fold cost, so a tile's consume
        // sum depends on the order its per-job terms are added in: it must be
        // the job order at every thread count, never the order the chunks
        // happen to finish in. Two chunk sums commute, so only three or more
        // chunks can expose a scheduling-dependent order; repeat the drive so
        // such a race shows reliably.
        let sweep_points = DenseMatrix::from_fn(60, 3, |i, j| {
            (i % 4) as f64 * 5.0 + ((i * 3 + j) as f64 * 0.37).sin()
        });
        // No convergence check: every job folds every tile of all 4 passes.
        let sweep = FitJob::k_sweep(
            &KernelKmeansConfig::paper_defaults(2)
                .with_max_iter(4)
                .with_tiling(TilePolicy::Rows(7))
                .with_streaming(Streaming::DoubleBuffered),
            &[2, 3, 5, 7, 11, 13],
            1,
        );
        let streaming_bits = |threads: usize| {
            let batch = solver
                .fit_batch_with(
                    FitInput::from(&sweep_points),
                    &sweep,
                    &BatchOptions::default().with_host_threads(HostParallelism::Threads(threads)),
                )
                .unwrap();
            let report = batch.report.streaming.expect("metered batch");
            [
                report.hidden_seconds,
                report.produce.compute,
                report.produce.copy,
                report.consume.compute,
                report.consume.copy,
            ]
            .map(f64::to_bits)
        };
        let sequential = streaming_bits(1);
        for threads in [3usize, 6] {
            for repetition in 0..25 {
                assert_eq!(
                    streaming_bits(threads),
                    sequential,
                    "{threads} threads, repetition {repetition}"
                );
            }
        }

        // Mixed streaming policies cannot share one pass pricing.
        let mixed = vec![jobs_off[0].clone(), jobs_on[1].clone()];
        assert!(validate_jobs(&FitInput::from(&points), &mixed).is_err());
    }

    #[test]
    fn host_parallelism_resolution_and_description() {
        assert_eq!(HostParallelism::default(), HostParallelism::Sequential);
        assert_eq!(HostParallelism::Sequential.resolve(), 1);
        assert_eq!(HostParallelism::Threads(0).resolve(), 1);
        assert_eq!(HostParallelism::Threads(6).resolve(), 6);
        assert!(HostParallelism::Auto.resolve() >= 1);
        assert_eq!(HostParallelism::Sequential.describe(), "1");
        assert_eq!(HostParallelism::Auto.describe(), "auto");
        assert_eq!(HostParallelism::Threads(0).describe(), "1");
        let options = BatchOptions::default().with_host_threads(HostParallelism::Threads(4));
        assert_eq!(options.host_threads, HostParallelism::Threads(4));
        assert_eq!(
            BatchOptions::default().host_threads,
            HostParallelism::Sequential
        );
    }

    #[test]
    fn split_ranges_make_exactly_min_threads_jobs_workers() {
        // The regression this partition fixes: ceil(5/4) = 2 packs 5 jobs
        // into 3 chunks, so one of 4 requested workers never spawned while
        // the report still claimed 4.
        assert_eq!(split_ranges(5, 4), vec![0..2, 2..3, 3..4, 4..5]);
        assert_eq!(split_ranges(4, 8), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(split_ranges(9, 3), vec![0..3, 3..6, 6..9]);
        assert_eq!(split_ranges(1, 1), vec![0..1]);
        assert!(split_ranges(0, 4).is_empty());
        // Sizes always differ by at most one and cover 0..len exactly.
        for len in 0..40usize {
            for workers in 1..10usize {
                let ranges = split_ranges(len, workers);
                assert_eq!(ranges.len(), workers.min(len));
                let mut next = 0usize;
                for range in &ranges {
                    assert_eq!(range.start, next);
                    assert!(!range.is_empty());
                    next = range.end;
                }
                assert_eq!(next, len);
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn host_threads_report_matches_actual_worker_count() {
        // 5 jobs on 4 requested threads: exactly 4 workers run and exactly
        // 4 is reported (the div_ceil split used to run 3 but report 4).
        let points = blob_points();
        let jobs = FitJob::k_sweep(&config(2), &[2], 5);
        assert_eq!(jobs.len(), 5);
        let batch = KernelKmeans::new(config(2))
            .fit_batch_with(
                FitInput::from(&points),
                &jobs,
                &BatchOptions::default().with_host_threads(HostParallelism::Threads(4)),
            )
            .unwrap();
        assert_eq!(batch.report.host_threads, 4);
        // More threads than jobs clamp to the job count.
        let batch = KernelKmeans::new(config(2))
            .fit_batch_with(
                FitInput::from(&points),
                &jobs,
                &BatchOptions::default().with_host_threads(HostParallelism::Threads(64)),
            )
            .unwrap();
        assert_eq!(batch.report.host_threads, 5);
    }

    #[test]
    fn fanout_modes_produce_identical_batches() {
        // The inline one-thread drive and the three-way fan-out over a tiled
        // source: one phase per tile either way, identical batches.
        let points = blob_points();
        let tiled = config(2).with_tiling(TilePolicy::Rows(5));
        let jobs = FitJob::k_sweep(&tiled, &[2, 3], 2);
        let drive = |threads: usize| {
            KernelKmeans::new(tiled.clone())
                .fit_batch_with(
                    FitInput::from(&points),
                    &jobs,
                    &BatchOptions::default().with_host_threads(HostParallelism::Threads(threads)),
                )
                .unwrap()
        };
        let (inline, fanned) = (drive(1), drive(3));
        assert_eq!(fanned.report.host_threads, 3);
        assert_eq!(inline.best, fanned.best);
        assert_eq!(
            inline.report.peak_resident_bytes,
            fanned.report.peak_resident_bytes
        );
        for (a, b) in inline.results.iter().zip(fanned.results.iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.trace.len(), b.trace.len());
        }
    }

    #[test]
    fn fanout_resumes_worker_panics_on_the_driver() {
        let points = blob_points();
        let kernel_matrix =
            crate::kernel::kernel_matrix_reference(&points, crate::KernelFunction::Linear);
        let source = crate::FullKernel::new(&kernel_matrix).unwrap();
        struct PanickingEngine {
            explode: bool,
        }
        impl DistanceEngine<f64> for PanickingEngine {
            fn begin_iteration(
                &mut self,
                _iteration: usize,
                _source: &dyn KernelSource<f64>,
                _labels: &[usize],
                _executor: &dyn Executor,
            ) -> Result<()> {
                Ok(())
            }
            fn consume_tile(
                &mut self,
                _rows: std::ops::Range<usize>,
                _tile: &popcorn_dense::DenseMatrix<f64>,
                _executor: &dyn Executor,
            ) -> Result<()> {
                if self.explode {
                    panic!("injected worker panic");
                }
                Ok(())
            }
            fn finish_iteration(
                &mut self,
                _executor: &dyn Executor,
            ) -> Result<popcorn_dense::DenseMatrix<f64>> {
                Ok(popcorn_dense::DenseMatrix::zeros(24, 2))
            }
        }
        let good = config(2);
        let jobs = vec![
            FitJob::new(good.clone(), 0),
            FitJob::new(good.clone().with_seed(1), 1),
            FitJob::new(good, 2),
        ];
        for threads in [1usize, 2, 4] {
            let exec = SimExecutor::a100_f32();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive_shared_source_with(
                    &jobs,
                    &source,
                    &exec,
                    exec.trace().len(),
                    &BatchOptions::default().with_host_threads(HostParallelism::Threads(threads)),
                    |job| {
                        Ok(Box::new(PanickingEngine {
                            explode: job.config.seed == 1,
                        }))
                    },
                )
            }));
            let payload = outcome.expect_err("worker panic must reach the driver");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string payload>");
            assert!(
                message.contains("injected worker panic"),
                "threads {threads}: unexpected payload {message}"
            );
        }
    }

    #[test]
    fn parallel_batch_matches_sequential_batch_exactly() {
        let points = blob_points();
        let jobs = FitJob::k_sweep(&config(2), &[2, 3], 2);
        let sequential = KernelKmeans::new(config(2))
            .fit_batch(FitInput::from(&points), &jobs)
            .unwrap();
        let parallel = KernelKmeans::new(config(2))
            .fit_batch_with(
                FitInput::from(&points),
                &jobs,
                &BatchOptions::default().with_host_threads(HostParallelism::Threads(4)),
            )
            .unwrap();
        assert_eq!(sequential.best, parallel.best);
        assert_eq!(sequential.report.host_threads, 1);
        assert_eq!(parallel.report.host_threads, 4);
        assert!(parallel.report.host_seconds >= 0.0);
        for (a, b) in sequential.results.iter().zip(parallel.results.iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.trace.len(), b.trace.len());
        }
        assert_eq!(
            sequential.report.peak_resident_bytes,
            parallel.report.peak_resident_bytes
        );
        assert_eq!(
            sequential.report.shared_trace.len(),
            parallel.report.shared_trace.len()
        );
    }

    #[test]
    fn parallel_driver_surfaces_the_earliest_job_error() {
        // Jobs 1 and 3 of 4 fail at their first tile fold with different
        // messages. At two threads they sit in different chunks, at four each
        // has its own, and job 1 fails only after job 3 has, so the later
        // chunk always finishes first. The driver must still return job 1's
        // error: chunk errors come back in chunk order.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let points = blob_points();
        let kernel_matrix =
            crate::kernel::kernel_matrix_reference(&points, crate::KernelFunction::Linear);
        let source = crate::FullKernel::new(&kernel_matrix).unwrap();
        let exec = SimExecutor::a100_f32();
        let jobs = FitJob::restarts(&config(2), 0..4);
        struct FailingEngine {
            seed: u64,
            parallel: bool,
            job_3_failed: Arc<AtomicBool>,
        }
        impl DistanceEngine<f64> for FailingEngine {
            fn begin_iteration(
                &mut self,
                _iteration: usize,
                _source: &dyn KernelSource<f64>,
                _labels: &[usize],
                _executor: &dyn Executor,
            ) -> Result<()> {
                Ok(())
            }
            fn consume_tile(
                &mut self,
                _rows: std::ops::Range<usize>,
                _tile: &popcorn_dense::DenseMatrix<f64>,
                _executor: &dyn Executor,
            ) -> Result<()> {
                match self.seed {
                    1 => {
                        while self.parallel && !self.job_3_failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        Err(CoreError::InvalidConfig("injected failure of job 1".into()))
                    }
                    3 => {
                        self.job_3_failed.store(true, Ordering::SeqCst);
                        Err(CoreError::InvalidConfig("injected failure of job 3".into()))
                    }
                    _ => Ok(()),
                }
            }
            fn finish_iteration(
                &mut self,
                _executor: &dyn Executor,
            ) -> Result<popcorn_dense::DenseMatrix<f64>> {
                Ok(popcorn_dense::DenseMatrix::zeros(24, 2))
            }
        }
        for threads in [1usize, 2, 4] {
            let job_3_failed = Arc::new(AtomicBool::new(false));
            let err = drive_shared_source_with(
                &jobs,
                &source,
                &exec,
                exec.trace().len(),
                &BatchOptions::default().with_host_threads(HostParallelism::Threads(threads)),
                |job| {
                    Ok(Box::new(FailingEngine {
                        seed: job.config.seed,
                        parallel: threads > 1,
                        job_3_failed: Arc::clone(&job_3_failed),
                    }))
                },
            )
            .unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfig(m) if m == "injected failure of job 1"),
                "threads {threads}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn best_selection_minimizes_objective() {
        let points = blob_points();
        let jobs = FitJob::k_sweep(&config(2), &[2, 3], 2);
        let batch = KernelKmeans::new(config(2))
            .fit_batch(FitInput::from(&points), &jobs)
            .unwrap();
        let best_objective = batch.best_result().objective;
        assert!(batch.results.iter().all(|r| best_objective <= r.objective));
        // Per-k selection stays within the k it was asked for.
        let best_k3 = batch.best_for_k(3).unwrap();
        assert_eq!(batch.results[best_k3].k, 3);
        assert!(batch
            .results
            .iter()
            .filter(|r| r.k == 3)
            .all(|r| batch.results[best_k3].objective <= r.objective));
        assert_eq!(batch.best_for_k(7), None);
    }

    #[test]
    fn tied_objectives_keep_the_earliest_job() {
        // Duplicate seeds produce bit-identical objectives; the documented
        // selection rule keeps the first of the tied jobs.
        let points = blob_points();
        let jobs = vec![
            FitJob::new(config(2), 3),
            FitJob::new(config(2), 3),
            FitJob::new(config(2), 3),
        ];
        let batch = KernelKmeans::new(config(2))
            .fit_batch(FitInput::from(&points), &jobs)
            .unwrap();
        assert_eq!(
            batch.results[0].objective.to_bits(),
            batch.results[2].objective.to_bits()
        );
        assert_eq!(batch.best, 0);
        assert_eq!(batch.best_for_k(2), Some(0));
    }
}
