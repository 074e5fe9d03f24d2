//! Drives the selected solver from parsed CLI arguments.
//!
//! All four implementations are held behind `Box<dyn Solver<f32>>` and fed a
//! [`FitInput`], so this module contains no per-solver fit plumbing: libSVM
//! inputs flow to the solvers as CSR without ever being densified, CSV and
//! generated inputs flow as dense matrices.

use crate::args::{ApproxMode, CliArgs, Implementation, InputFormat, LandmarkSpec};
use popcorn_core::batch::{BatchOptions, BatchReport, FitJob};
use popcorn_core::solver::{FitInput, Solver};
use popcorn_core::{ClusteringResult, KernelApprox, KernelKmeansConfig, TilePolicy};
use popcorn_data::dataset::{Dataset, SparseDataset};
use popcorn_data::synthetic::{uniform_matrix, uniform_name};
use popcorn_data::{csv, libsvm};
use popcorn_gpusim::{DeviceTopology, FaultPlan, RecoveryReport};
use popcorn_gpusim::{Executor, ShardedExecutor, SimExecutor};
use std::sync::Arc;

/// Summary of one CLI invocation (one run per entry in `results`).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Dataset name.
    pub dataset: String,
    /// Number of points.
    pub n: usize,
    /// Number of features.
    pub d: usize,
    /// Whether the points were fed to the solver in CSR form.
    pub sparse: bool,
    /// Implementation used.
    pub implementation: Implementation,
    /// One clustering result per run (per job in batch mode).
    pub results: Vec<ClusteringResult>,
    /// Batch accounting when `--restarts`/`--k-sweep` drove a batched fit:
    /// the report plus the index of the best job by objective.
    pub batch: Option<(usize, BatchReport)>,
    /// Kernel-matrix residency policy the runs used.
    pub tiling: TilePolicy,
    /// Kernel-matrix representation the runs used (exact or Nyström).
    pub approx: KernelApprox,
    /// Simulated device memory capacity in bytes, when overridden.
    pub device_mem_bytes: Option<u64>,
    /// Multi-device accounting when `--devices` sharded the run.
    pub sharding: Option<ShardingSummary>,
}

/// What the multi-device sharded run cost, per device and in aggregate —
/// read back from the [`ShardedExecutor`] after the fits.
#[derive(Debug, Clone)]
pub struct ShardingSummary {
    /// Human-readable device pool, e.g. `4 x NVIDIA A100 80GB` or
    /// `2 x NVIDIA A100 80GB + 2 x NVIDIA H100 80GB` for a mixed topology.
    pub pool: String,
    /// Interconnect name.
    pub interconnect: String,
    /// Per-device memory capacity in bytes, in shard order.
    pub per_device_mem_bytes: Vec<u64>,
    /// Per-device concurrent modeled seconds and peak residency, in shard
    /// order.
    pub per_device: Vec<(f64, u64)>,
    /// Per-device liveness after the runs (`false` = lost mid-fit).
    pub device_alive: Vec<bool>,
    /// Recovery accounting when injected faults fired (`None` on a
    /// fault-free invocation).
    pub recovery: Option<RecoveryReport>,
    /// Modeled seconds of the serial (non-sharded) stream.
    pub serial_seconds: f64,
    /// Modeled seconds of the device↔device all-reduces.
    pub comm_seconds: f64,
    /// Overlap-aware modeled wall-clock (serial + comm + busiest device).
    pub wallclock_seconds: f64,
    /// Serialized single-device total of the same operations.
    pub serialized_seconds: f64,
    /// Modeled speedup over serializing on one device.
    pub speedup: f64,
}

impl ShardingSummary {
    fn from_executor(executor: &ShardedExecutor) -> Self {
        let topology = executor.device_topology();
        let per_device = executor
            .per_device_modeled_seconds()
            .into_iter()
            .zip(executor.per_device_peak_resident_bytes())
            .collect();
        // Group consecutive identical devices: `4 x NVIDIA A100 80GB`, or
        // `2 x NVIDIA A100 80GB + 2 x NVIDIA H100 80GB` for a mixed pool.
        let mut groups: Vec<(&str, usize)> = Vec::new();
        for device in &topology.devices {
            match groups.last_mut() {
                Some((name, count)) if *name == device.name => *count += 1,
                _ => groups.push((&device.name, 1)),
            }
        }
        let pool = groups
            .iter()
            .map(|(name, count)| format!("{count} x {name}"))
            .collect::<Vec<_>>()
            .join(" + ");
        Self {
            pool,
            interconnect: topology.interconnect.name.clone(),
            per_device_mem_bytes: topology.devices.iter().map(|d| d.mem_bytes).collect(),
            per_device,
            device_alive: executor.device_alive(),
            recovery: executor.recovery_report().filter(|r| !r.is_empty()),
            serial_seconds: executor.serial_modeled_seconds(),
            comm_seconds: executor.comm_modeled_seconds(),
            wallclock_seconds: executor.modeled_wallclock_seconds(),
            serialized_seconds: executor.serialized_single_device_seconds(),
            speedup: executor.modeled_speedup(),
        }
    }

    /// The busiest single device's residency high-water mark.
    pub fn max_device_peak_bytes(&self) -> u64 {
        self.per_device
            .iter()
            .map(|&(_, peak)| peak)
            .max()
            .unwrap_or(0)
    }

    /// Human-readable per-device block of the run report.
    pub fn report(&self) -> String {
        let mut out = format!(
            "sharded over {} via {}: modeled wall-clock {:.6} s vs {:.6} s \
             serialized on one device ({:.2}x modeled speedup; serial {:.6} s, \
             all-reduce {:.6} s)\n",
            self.pool,
            self.interconnect,
            self.wallclock_seconds,
            self.serialized_seconds,
            self.speedup,
            self.serial_seconds,
            self.comm_seconds,
        );
        for (device, (seconds, peak)) in self.per_device.iter().enumerate() {
            out.push_str(&format!(
                "device {device}: busy {:.6} s, peak residency {:.3} MB of {:.3} MB capacity{}\n",
                seconds,
                *peak as f64 / 1e6,
                self.per_device_mem_bytes[device] as f64 / 1e6,
                if self.device_alive.get(device).copied().unwrap_or(true) {
                    ""
                } else {
                    " (lost mid-fit)"
                },
            ));
        }
        if let Some(recovery) = &self.recovery {
            out.push_str(&format!(
                "recovered from {} device loss(es): {} row(s) migrated, {} byte(s) \
                 re-uploaded, {} tile(s) replayed, re-shard {:.6} s\n",
                recovery.devices_lost,
                recovery.rows_migrated,
                recovery.bytes_reuploaded,
                recovery.replayed_tiles,
                recovery.reshard_seconds,
            ));
        }
        out
    }
}

impl RunSummary {
    /// Mean modeled device time across runs, in seconds.
    pub fn mean_modeled_seconds(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| r.modeled_timings.total())
            .sum::<f64>()
            / self.results.len() as f64
    }

    /// Mean host wall-clock time across runs, in seconds.
    pub fn mean_host_seconds(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| r.host_timings.total())
            .sum::<f64>()
            / self.results.len() as f64
    }

    /// High-water mark of the modeled device residency: the batch-level peak
    /// in batch mode (the lockstep driver keeps every job's buffers live at
    /// once), the worst single run otherwise.
    pub fn peak_resident_bytes(&self) -> u64 {
        if let Some((_, report)) = &self.batch {
            return report.peak_resident_bytes;
        }
        self.results
            .iter()
            .map(|r| r.peak_resident_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Human-readable report, one line per run plus a summary footer.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "dataset={} n={} d={} layout={} implementation={} tile-rows={} approx={}\n",
            self.dataset,
            self.n,
            self.d,
            if self.sparse { "csr" } else { "dense" },
            self.implementation.name(),
            self.tiling.describe(),
            self.approx.describe(),
        ));
        if let Some(sharding) = &self.sharding {
            out.push_str(&sharding.report());
            // Under sharding the per-fit aggregate counter spans the whole
            // topology (replicated + every shard's buffers) — no single
            // device ever holds it, so headline the busiest device instead.
            out.push_str(&format!(
                "peak modeled device residency: {:.3} MB on the busiest device \
                 ({:.3} MB summed across the topology)\n",
                sharding.max_device_peak_bytes() as f64 / 1e6,
                self.peak_resident_bytes() as f64 / 1e6,
            ));
        } else {
            let peak_mb = self.peak_resident_bytes() as f64 / 1e6;
            match self.device_mem_bytes {
                Some(mem) => out.push_str(&format!(
                    "peak modeled device residency: {:.3} MB of {:.3} MB capacity\n",
                    peak_mb,
                    mem as f64 / 1e6
                )),
                None => out.push_str(&format!("peak modeled device residency: {peak_mb:.3} MB\n")),
            }
        }
        if let Some((best, report)) = &self.batch {
            for (job, result) in report.jobs.iter().zip(self.results.iter()) {
                out.push_str(&format!(
                    "job k={} seed={}: iterations={} converged={} objective={:.6e} modeled={:.6}s\n",
                    job.k,
                    job.seed,
                    result.iterations,
                    result.converged,
                    result.objective,
                    job.modeled_seconds,
                ));
            }
            out.push_str(&format!(
                "kernel matrix computed once for {} jobs: shared {:.6} s, amortized total {:.6} s vs {:.6} s independent ({:.2}x reuse speedup)\n",
                report.jobs.len(),
                report.shared_modeled_seconds(),
                report.amortized_modeled_seconds(),
                report.independent_modeled_seconds(),
                report.reuse_speedup(),
            ));
            out.push_str(&format!(
                "host driver: {} thread(s), measured {:.6} s; modeled concurrent (streams) {:.6} s vs {:.6} s serial\n",
                report.host_threads,
                report.host_seconds,
                report.modeled_concurrent_seconds(),
                report.amortized_modeled_seconds(),
            ));
            let best_job = &report.jobs[*best];
            out.push_str(&format!(
                "best job: k={} seed={} objective={:.6e}\n",
                best_job.k, best_job.seed, best_job.objective
            ));
            if let Some(footer) = self.approx_footer() {
                out.push_str(&footer);
            }
            return out;
        }
        for (run, result) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "run {run}: iterations={} converged={} objective={:.6e} modeled={:.6}s host={:.6}s\n",
                result.iterations,
                result.converged,
                result.objective,
                result.modeled_timings.total(),
                result.host_timings.total(),
            ));
            if let Some(streaming) = &result.streaming {
                out.push_str(&format!(
                    "  streaming: double-buffered over {} tile(s) in {} pass(es) — modeled wall-clock {:.6} s vs {:.6} s serial ({:.6} s hidden, first tile exposes {:.6} s)\n",
                    streaming.tiles,
                    streaming.passes,
                    result.modeled_wallclock_seconds(),
                    result.modeled_timings.total(),
                    streaming.hidden_seconds,
                    streaming.exposed_first_tile_seconds,
                ));
            }
        }
        out.push_str(&format!(
            "mean modeled time: {:.6} s | mean host time: {:.6} s\n",
            self.mean_modeled_seconds(),
            self.mean_host_seconds()
        ));
        if let Some(footer) = self.approx_footer() {
            out.push_str(&footer);
        }
        out
    }

    /// Report footer describing the approximate-kernel quality bound, when
    /// the runs clustered over an approximation (`None` on exact fits).
    fn approx_footer(&self) -> Option<String> {
        let bound = self.results.iter().find_map(|r| r.approx_error_bound)?;
        Some(match self.approx {
            KernelApprox::Sparsified { .. } => format!(
                "approximate kernel {}: mean row kernel mass dropped {bound:.3e}\n",
                self.approx.describe(),
            ),
            _ => format!(
                "approximate kernel {}: mean diagonal reconstruction error {bound:.3e}\n",
                self.approx.describe(),
            ),
        })
    }
}

/// Points in whichever layout the input source produced.
enum LoadedPoints {
    Dense(Dataset<f32>),
    Sparse(SparseDataset<f32>),
}

impl LoadedPoints {
    fn name(&self) -> &str {
        match self {
            LoadedPoints::Dense(ds) => ds.name(),
            LoadedPoints::Sparse(ds) => ds.name(),
        }
    }

    fn n(&self) -> usize {
        match self {
            LoadedPoints::Dense(ds) => ds.n(),
            LoadedPoints::Sparse(ds) => ds.n(),
        }
    }

    fn d(&self) -> usize {
        match self {
            LoadedPoints::Dense(ds) => ds.d(),
            LoadedPoints::Sparse(ds) => ds.d(),
        }
    }

    fn fit_input(&self) -> FitInput<'_, f32> {
        match self {
            LoadedPoints::Dense(ds) => FitInput::Dense(ds.points()),
            LoadedPoints::Sparse(ds) => FitInput::Sparse(ds.points()),
        }
    }
}

/// Resolve `--format auto`: trust an unambiguous extension, otherwise sniff
/// the content ([`libsvm::looks_like_libsvm`]).
fn resolve_format(path: &str, text: &str, requested: InputFormat) -> InputFormat {
    match requested {
        InputFormat::Csv | InputFormat::Libsvm => requested,
        InputFormat::Auto => {
            let lower = path.to_lowercase();
            if lower.ends_with(".libsvm") || lower.ends_with(".svm") {
                InputFormat::Libsvm
            } else if lower.ends_with(".csv") {
                InputFormat::Csv
            } else if libsvm::looks_like_libsvm(text) {
                InputFormat::Libsvm
            } else {
                InputFormat::Csv
            }
        }
    }
}

fn load_dataset(args: &CliArgs) -> Result<LoadedPoints, String> {
    let Some(path) = &args.input else {
        let (n, d) = (args.n, args.d);
        let points = uniform_matrix::<f32>(n, d, args.seed).map_err(|e| e.to_string())?;
        return Ok(LoadedPoints::Dense(Dataset::new(
            uniform_name(n, d),
            points,
        )));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let format = resolve_format(path, &text, args.format);
    // Only suggest overriding the format when it was guessed, not chosen.
    let hint = if args.format == InputFormat::Auto {
        " (use --format to override the detected format)"
    } else {
        ""
    };
    let name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| path.clone());
    match format {
        InputFormat::Libsvm => libsvm::parse_libsvm_sparse::<f32>(name, &text, None)
            .map(LoadedPoints::Sparse)
            .map_err(|e| format!("failed to parse {path} as libsvm: {e}{hint}")),
        InputFormat::Csv => csv::parse_csv::<f32>(name, &text, false)
            .map(LoadedPoints::Dense)
            .map_err(|e| format!("failed to parse {path} as csv: {e}{hint}")),
        InputFormat::Auto => unreachable!("resolve_format never returns Auto"),
    }
}

fn config_from(args: &CliArgs, run: usize) -> KernelKmeansConfig {
    KernelKmeansConfig {
        k: args.k,
        max_iter: args.max_iter,
        tolerance: args.tolerance,
        check_convergence: args.check_convergence,
        kernel: args.kernel,
        strategy: Default::default(),
        init: args.init,
        seed: args.seed.wrapping_add(run as u64),
        repair_empty_clusters: args.repair_empty_clusters,
        tiling: args.tiling,
        approx: match (args.sparsify, args.approx) {
            // --sparsify picks the CSR-resident representation (the parser
            // rejects combining it with --approx nystrom).
            (Some(sparsify), _) => KernelApprox::Sparsified { sparsify },
            (None, ApproxMode::Exact) => KernelApprox::Exact,
            // The Nyström landmark draw is seeded independently of the
            // per-run assignment seed so restarts share one factorization.
            (None, ApproxMode::Nystrom) => match args.landmarks {
                Some(LandmarkSpec::Auto { epsilon }) => KernelApprox::NystromAuto {
                    epsilon,
                    seed: args.seed,
                },
                Some(LandmarkSpec::Count(landmarks)) => KernelApprox::Nystrom {
                    landmarks,
                    seed: args.seed,
                },
                None => KernelApprox::Nystrom {
                    landmarks: 256,
                    seed: args.seed,
                },
            },
        },
        streaming: args.streaming,
    }
}

/// Construct the selected implementation behind the unified [`Solver`] trait
/// via the shared `popcorn-baselines` registry.
pub fn build_solver(
    implementation: Implementation,
    config: KernelKmeansConfig,
) -> Box<dyn Solver<f32>> {
    implementation.build(config)
}

/// Memory-capacity override in bytes implied by `--device-mem`.
fn device_mem_bytes(args: &CliArgs) -> Option<u64> {
    args.device_mem_gb.map(|gb| (gb * 1e9) as u64)
}

/// The row-sharded topology `--devices` asks for, built once per invocation
/// so the summary covers every run (fits scope their residency; seconds and
/// peaks accumulate across runs on purpose).
fn sharded_executor_for(args: &CliArgs) -> Option<Arc<ShardedExecutor>> {
    if args.devices <= 1 {
        return None;
    }
    let link = args.interconnect.unwrap_or_default().link_spec();
    let executor = match &args.device_pool {
        // A bare `--devices N` shards across the implementation's default
        // device; a preset pool builds the mixed topology in flag order.
        None => ShardedExecutor::homogeneous(
            args.implementation.default_device(),
            args.devices,
            link,
            std::mem::size_of::<f32>(),
        ),
        Some(pool) => {
            let devices = pool
                .iter()
                .flat_map(|&(preset, count)| std::iter::repeat_n(preset.spec(), count))
                .collect();
            ShardedExecutor::new(
                DeviceTopology {
                    devices,
                    interconnect: link,
                },
                std::mem::size_of::<f32>(),
            )
        }
    };
    if args.inject_faults.is_empty() {
        return Some(Arc::new(executor));
    }
    let mut plan = FaultPlan::new();
    for fault in &args.inject_faults {
        plan = plan.lose(fault.device, fault.at_pass);
    }
    Some(Arc::new(executor.with_fault_plan(plan)))
}

/// Build the solver for one run: the invocation-wide sharded topology when
/// `--devices` asked for one, a memory-capped device when `--device-mem` was
/// given, the default single-device executor otherwise.
fn build_solver_for(
    args: &CliArgs,
    config: KernelKmeansConfig,
    sharded: &Option<Arc<ShardedExecutor>>,
) -> Box<dyn Solver<f32>> {
    if let Some(executor) = sharded {
        return args
            .implementation
            .build_with_executor(config, executor.clone() as Arc<dyn Executor>);
    }
    match device_mem_bytes(args) {
        None => args.implementation.build(config),
        Some(mem) => {
            let device = args.implementation.default_device().with_mem_bytes(mem);
            let executor: Arc<dyn Executor> =
                Arc::new(SimExecutor::new(device, std::mem::size_of::<f32>()));
            args.implementation.build_with_executor(config, executor)
        }
    }
}

/// `true` when the arguments ask for the batched (shared kernel matrix)
/// driver rather than independent `--runs` repetitions.
fn batch_mode(args: &CliArgs) -> bool {
    args.restarts > 1 || !args.k_sweep.is_empty()
}

/// Run the requested clustering and return a summary (library entry point
/// used by both the binary and the tests).
pub fn run(args: &CliArgs) -> Result<RunSummary, String> {
    let data = load_dataset(args)?;
    let k_values: Vec<usize> = if args.k_sweep.is_empty() {
        vec![args.k]
    } else {
        args.k_sweep.clone()
    };
    if let Some(&k) = k_values.iter().find(|&&k| k > data.n()) {
        return Err(format!("-k {k} exceeds the number of points {}", data.n()));
    }

    // One sharded topology for the whole invocation, so the summary covers
    // every run (not just the last one).
    let sharded_executor = sharded_executor_for(args);
    let (results, batch) = if batch_mode(args) {
        // One batch: the kernel matrix is computed once (or its tiles are
        // streamed once per iteration for the whole batch) and every
        // (k, seed) job iterates over it; `--runs` does not apply.
        let jobs = FitJob::k_sweep(&config_from(args, 0), &k_values, args.restarts)
            .map_err(|e| e.to_string())?;
        let solver = build_solver_for(args, config_from(args, 0), &sharded_executor);
        let options = BatchOptions::default().with_host_threads(args.host_threads);
        let batch = solver
            .fit_batch_with(data.fit_input(), &jobs, &options)
            .map_err(|e| e.to_string())?;
        (batch.results, Some((batch.best, batch.report)))
    } else {
        let mut results = Vec::new();
        results.try_reserve_exact(args.runs).map_err(|_| {
            let bytes = args.runs as u128 * std::mem::size_of::<ClusteringResult>() as u128;
            format!(
                "cannot allocate the results of {} runs on the host: {bytes} bytes",
                args.runs
            )
        })?;
        for run_idx in 0..args.runs {
            let solver = build_solver_for(args, config_from(args, run_idx), &sharded_executor);
            // --save-model freezes the last run's fit as the serving model;
            // fit_model reruns nothing — the fit and the model come out of
            // one pass over the resident kernel state.
            let save_here = args
                .save_model
                .as_deref()
                .filter(|_| run_idx + 1 == args.runs);
            let result = match save_here {
                Some(path) => {
                    let (result, model) = solver
                        .fit_model(data.fit_input())
                        .map_err(|e| e.to_string())?;
                    std::fs::write(path, model.save())
                        .map_err(|e| format!("failed to write model to {path}: {e}"))?;
                    result
                }
                None => solver
                    .fit_input(data.fit_input())
                    .map_err(|e| e.to_string())?,
            };
            results.push(result);
        }
        (results, None)
    };
    let sharding = sharded_executor
        .as_deref()
        .map(ShardingSummary::from_executor);

    if let Some(path) = &args.output {
        let mut text = String::new();
        // Batch mode writes the best job's assignment, plain runs the last.
        let chosen = match &batch {
            Some((best, _)) => results.get(*best),
            None => results.last(),
        };
        if let Some(result) = chosen {
            for (i, label) in result.labels.iter().enumerate() {
                text.push_str(&format!("{i},{label}\n"));
            }
        }
        std::fs::write(path, text).map_err(|e| format!("failed to write {path}: {e}"))?;
    }

    Ok(RunSummary {
        dataset: data.name().to_string(),
        n: data.n(),
        d: data.d(),
        sparse: matches!(data, LoadedPoints::Sparse(_)),
        implementation: args.implementation,
        results,
        batch,
        tiling: args.tiling,
        approx: config_from(args, 0).approx,
        device_mem_bytes: device_mem_bytes(args),
        sharding,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args() -> CliArgs {
        CliArgs {
            n: 60,
            d: 4,
            k: 3,
            runs: 2,
            max_iter: 5,
            check_convergence: true,
            ..CliArgs::default()
        }
    }

    #[test]
    fn runs_popcorn_on_generated_data() {
        let summary = run(&quick_args()).unwrap();
        assert_eq!(summary.n, 60);
        assert_eq!(summary.d, 4);
        assert_eq!(summary.results.len(), 2);
        assert!(!summary.sparse);
        assert!(summary.mean_modeled_seconds() > 0.0);
        assert!(summary.report().contains("run 0"));
        assert!(summary.report().contains("popcorn"));
        assert!(summary.report().contains("layout=dense"));
    }

    #[test]
    fn runs_all_implementations() {
        for implementation in Implementation::ALL {
            let args = CliArgs {
                implementation,
                runs: 1,
                ..quick_args()
            };
            let summary = run(&args).unwrap();
            assert_eq!(summary.results.len(), 1);
            assert_eq!(summary.implementation, implementation);
            assert_eq!(summary.results[0].labels.len(), 60);
        }
    }

    #[test]
    fn rejects_k_larger_than_n() {
        let args = CliArgs {
            k: 100,
            ..quick_args()
        };
        assert!(run(&args).is_err());
        let args = CliArgs {
            k_sweep: vec![2, 100],
            ..quick_args()
        };
        assert!(run(&args).is_err());
    }

    #[test]
    fn restarts_run_as_one_batch_and_match_independent_runs() {
        // `--restarts R` must produce the same per-run clusterings as
        // `--runs R` (identical seed schedule), while computing the kernel
        // matrix once and saying so in the report.
        let base = quick_args();
        let batched = run(&CliArgs {
            restarts: 3,
            runs: 1,
            ..base.clone()
        })
        .unwrap();
        let independent = run(&CliArgs { runs: 3, ..base }).unwrap();
        assert_eq!(batched.results.len(), 3);
        let (best, report) = batched.batch.as_ref().unwrap();
        assert_eq!(report.jobs.len(), 3);
        assert!(*best < 3);
        for (a, b) in batched.results.iter().zip(independent.results.iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
        assert!(report.reuse_speedup() > 1.0);
        let text = batched.report();
        assert!(text.contains("kernel matrix computed once for 3 jobs"));
        assert!(text.contains("best job"));
    }

    #[test]
    fn host_threads_keep_batches_bit_identical_and_reach_the_report() {
        use popcorn_core::HostParallelism;
        let base = CliArgs {
            restarts: 4,
            ..quick_args()
        };
        let sequential = run(&base).unwrap();
        let parallel = run(&CliArgs {
            host_threads: HostParallelism::Threads(3),
            ..base
        })
        .unwrap();
        assert_eq!(sequential.results.len(), parallel.results.len());
        for (a, b) in sequential.results.iter().zip(parallel.results.iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
        let (_, seq_report) = sequential.batch.as_ref().unwrap();
        let (_, par_report) = parallel.batch.as_ref().unwrap();
        assert_eq!(seq_report.host_threads, 1);
        assert_eq!(par_report.host_threads, 3);
        assert_eq!(
            seq_report.peak_resident_bytes,
            par_report.peak_resident_bytes
        );
        let text = parallel.report();
        assert!(text.contains("host driver: 3 thread(s)"), "{text}");
        assert!(text.contains("modeled concurrent (streams)"), "{text}");
    }

    #[test]
    fn k_sweep_batches_all_implementations() {
        for implementation in Implementation::ALL {
            let args = CliArgs {
                implementation,
                k_sweep: vec![2, 4],
                restarts: 2,
                ..quick_args()
            };
            let summary = run(&args).unwrap();
            assert_eq!(summary.results.len(), 4, "{}", implementation.name());
            let (_, report) = summary.batch.as_ref().unwrap();
            assert_eq!(
                report.jobs.iter().map(|j| j.k).collect::<Vec<_>>(),
                vec![2, 2, 4, 4]
            );
            // Lloyd shares only the upload (no kernel matrix); the kernel
            // solvers share the kernel-matrix computation.
            assert!(report.shared_modeled_seconds() > 0.0);
            let shared_kernel_matrix = report
                .shared_trace
                .phase_modeled_seconds(popcorn_gpusim::Phase::KernelMatrix);
            if implementation == Implementation::Lloyd {
                assert_eq!(report.shared_trace.len(), 1);
                assert_eq!(shared_kernel_matrix, 0.0);
            } else {
                assert!(shared_kernel_matrix > 0.0);
            }
        }
    }

    #[test]
    fn tiled_runs_match_full_runs_and_report_residency() {
        // --tile-rows N must not change any label, and the report shows the
        // tiling and the peak modeled residency.
        let full = run(&CliArgs {
            tiling: TilePolicy::Full,
            runs: 1,
            ..quick_args()
        })
        .unwrap();
        let tiled = run(&CliArgs {
            tiling: TilePolicy::Rows(7),
            runs: 1,
            ..quick_args()
        })
        .unwrap();
        assert_eq!(full.results[0].labels, tiled.results[0].labels);
        assert_eq!(
            full.results[0].objective.to_bits(),
            tiled.results[0].objective.to_bits()
        );
        // Streaming keeps less resident than the in-core plan.
        assert!(tiled.peak_resident_bytes() < full.peak_resident_bytes());
        let text = tiled.report();
        assert!(text.contains("tile-rows=7"), "{text}");
        assert!(text.contains("peak modeled device residency"), "{text}");
    }

    #[test]
    fn device_mem_override_forces_auto_tiling_past_the_wall() {
        // 400 points of f32: K is 640 KB. Cap the device at 0.5 MB total:
        // the full matrix + workspace cannot fit, auto-tiling kicks in, and
        // the labels still match an unconstrained run.
        let args = CliArgs {
            n: 400,
            d: 8,
            k: 3,
            runs: 1,
            max_iter: 4,
            ..CliArgs::default()
        };
        let unconstrained = run(&args).unwrap();
        let constrained = run(&CliArgs {
            device_mem_gb: Some(0.0005),
            ..args.clone()
        })
        .unwrap();
        assert_eq!(
            unconstrained.results[0].labels,
            constrained.results[0].labels
        );
        assert!(constrained.peak_resident_bytes() <= 500_000);
        assert!(constrained.report().contains("of 0.500 MB capacity"));
        // Forcing the full plan on the starved device is rejected.
        let err = run(&CliArgs {
            device_mem_gb: Some(0.0005),
            tiling: TilePolicy::Full,
            ..args
        })
        .unwrap_err();
        assert!(err.contains("device memory exceeded"), "{err}");
    }

    #[test]
    fn sharded_run_matches_single_device_and_reports_devices() {
        let base = CliArgs {
            n: 200,
            d: 6,
            k: 3,
            runs: 1,
            max_iter: 5,
            ..CliArgs::default()
        };
        let single = run(&base).unwrap();
        let sharded = run(&CliArgs {
            devices: 4,
            interconnect: Some(crate::args::Interconnect::Nvlink),
            ..base.clone()
        })
        .unwrap();
        // Sharding only moves where tiles are priced — the clustering is
        // bit-identical.
        assert_eq!(single.results[0].labels, sharded.results[0].labels);
        assert_eq!(
            single.results[0].objective.to_bits(),
            sharded.results[0].objective.to_bits()
        );
        let summary = sharded.sharding.as_ref().unwrap();
        assert_eq!(summary.per_device.len(), 4);
        assert!(summary.speedup > 1.0);
        assert!(summary.comm_seconds > 0.0);
        assert!(summary.per_device.iter().all(|&(s, b)| s > 0.0 && b > 0));
        let text = sharded.report();
        assert!(
            text.contains("sharded over 4 x NVIDIA A100 80GB via NVLink3"),
            "{text}"
        );
        assert!(text.contains("device 3: busy"), "{text}");
        assert!(text.contains("modeled speedup"), "{text}");
        assert!(single.sharding.is_none());
    }

    #[test]
    fn mixed_pool_with_injected_loss_recovers_and_reports() {
        use crate::args::{DevicePreset, InjectedFault};
        let base = CliArgs {
            n: 180,
            d: 6,
            k: 3,
            runs: 1,
            max_iter: 5,
            ..CliArgs::default()
        };
        let single = run(&base).unwrap();
        let elastic = run(&CliArgs {
            devices: 3,
            device_pool: Some(vec![
                (DevicePreset::A100, 1),
                (DevicePreset::H100, 1),
                (DevicePreset::V100, 1),
            ]),
            inject_faults: vec![InjectedFault {
                device: 1,
                at_pass: 1,
            }],
            ..base.clone()
        })
        .unwrap();
        // Losing a device mid-fit only moves where rows are priced — the
        // clustering matches a fault-free single-device run bit for bit.
        assert_eq!(single.results[0].labels, elastic.results[0].labels);
        assert_eq!(
            single.results[0].objective.to_bits(),
            elastic.results[0].objective.to_bits()
        );
        let summary = elastic.sharding.as_ref().unwrap();
        assert_eq!(summary.device_alive, vec![true, false, true]);
        let recovery = summary.recovery.as_ref().unwrap();
        assert_eq!(recovery.devices_lost, 1);
        assert!(recovery.rows_migrated > 0);
        // The per-fit result carries the same accounting for programmatic use.
        assert!(elastic.results[0]
            .recovery
            .as_ref()
            .is_some_and(|r| r.devices_lost == 1));
        let text = elastic.report();
        assert!(
            text.contains(
                "sharded over 1 x NVIDIA A100 80GB + 1 x NVIDIA H100 80GB + \
                 1 x NVIDIA V100 via NVLink3"
            ),
            "{text}"
        );
        assert!(text.contains("recovered from 1 device loss(es)"), "{text}");
        assert!(text.contains("(lost mid-fit)"), "{text}");
    }

    #[test]
    fn sharded_batch_matches_single_device_batch() {
        let base = CliArgs {
            n: 150,
            d: 5,
            k: 3,
            restarts: 3,
            max_iter: 4,
            ..CliArgs::default()
        };
        let single = run(&base).unwrap();
        let sharded = run(&CliArgs { devices: 3, ..base }).unwrap();
        assert_eq!(single.results.len(), sharded.results.len());
        for (a, b) in single.results.iter().zip(sharded.results.iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
        assert!(sharded.sharding.is_some());
    }

    #[test]
    fn batch_output_writes_best_assignment() {
        let dir = std::env::temp_dir().join("popcorn_cli_batch_out");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("best.csv");
        let args = CliArgs {
            restarts: 3,
            output: Some(out.to_string_lossy().to_string()),
            ..quick_args()
        };
        let summary = run(&args).unwrap();
        let (best, _) = summary.batch.as_ref().unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let first_label: usize = text
            .lines()
            .next()
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(first_label, summary.results[*best].labels[0]);
        assert_eq!(text.lines().count(), summary.n);
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn writes_output_file() {
        let dir = std::env::temp_dir().join("popcorn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("assignments.csv");
        let args = CliArgs {
            runs: 1,
            output: Some(out.to_string_lossy().to_string()),
            ..quick_args()
        };
        run(&args).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert_eq!(text.lines().count(), 60);
        assert!(text.lines().next().unwrap().starts_with("0,"));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn reads_libsvm_and_csv_inputs() {
        let dir = std::env::temp_dir().join("popcorn_cli_inputs");
        std::fs::create_dir_all(&dir).unwrap();
        let libsvm_path = dir.join("toy.libsvm");
        std::fs::write(
            &libsvm_path,
            "0 1:1.0 2:0.5\n1 1:5.0 2:5.5\n0 1:1.2 2:0.4\n1 1:5.2 2:5.4\n",
        )
        .unwrap();
        let args = CliArgs {
            input: Some(libsvm_path.to_string_lossy().to_string()),
            k: 2,
            runs: 1,
            max_iter: 5,
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert_eq!(summary.n, 4);
        assert_eq!(summary.d, 2);
        // libSVM inputs flow to the solver as CSR.
        assert!(summary.sparse);
        assert!(summary.report().contains("layout=csr"));

        let csv_path = dir.join("toy.csv");
        std::fs::write(&csv_path, "1.0,0.5\n5.0,5.5\n1.2,0.4\n5.2,5.4\n").unwrap();
        let args = CliArgs {
            input: Some(csv_path.to_string_lossy().to_string()),
            ..args
        };
        let summary = run(&args).unwrap();
        assert_eq!(summary.n, 4);
        assert!(!summary.sparse);
        std::fs::remove_file(&libsvm_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn sparse_and_dense_layouts_agree_for_all_kernel_solvers() {
        // The same libSVM content driven once as CSR and once (via --format
        // csv on an equivalent dense file) must cluster identically.
        let dir = std::env::temp_dir().join("popcorn_cli_equiv");
        std::fs::create_dir_all(&dir).unwrap();
        let libsvm_path = dir.join("points.libsvm");
        std::fs::write(
            &libsvm_path,
            "0 1:1.0 2:0.5\n1 1:5.0 2:5.5\n0 1:1.2 2:0.4\n1 1:5.2 2:5.4\n0 1:0.9\n1 2:5.1\n",
        )
        .unwrap();
        let csv_path = dir.join("points.csv");
        std::fs::write(
            &csv_path,
            "1.0,0.5\n5.0,5.5\n1.2,0.4\n5.2,5.4\n0.9,0.0\n0.0,5.1\n",
        )
        .unwrap();
        for implementation in Implementation::ALL {
            let base = CliArgs {
                k: 2,
                runs: 1,
                max_iter: 8,
                implementation,
                ..CliArgs::default()
            };
            let sparse = run(&CliArgs {
                input: Some(libsvm_path.to_string_lossy().to_string()),
                ..base.clone()
            })
            .unwrap();
            let dense = run(&CliArgs {
                input: Some(csv_path.to_string_lossy().to_string()),
                ..base
            })
            .unwrap();
            assert!(sparse.sparse && !dense.sparse);
            assert_eq!(
                sparse.results[0].labels,
                dense.results[0].labels,
                "{} disagrees across layouts",
                implementation.name()
            );
        }
        std::fs::remove_file(&libsvm_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn format_sniffing_handles_txt_extension() {
        // A .txt file with libSVM content must parse as libSVM, and a .txt
        // file with CSV content as CSV — the extension alone decides nothing.
        let dir = std::env::temp_dir().join("popcorn_cli_sniff");
        std::fs::create_dir_all(&dir).unwrap();
        let svm_txt = dir.join("svm_style.txt");
        std::fs::write(&svm_txt, "0 1:1.0\n1 1:5.0\n0 1:1.1\n1 1:5.1\n").unwrap();
        let args = CliArgs {
            input: Some(svm_txt.to_string_lossy().to_string()),
            k: 2,
            runs: 1,
            max_iter: 3,
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert!(summary.sparse);

        let csv_txt = dir.join("csv_style.txt");
        std::fs::write(&csv_txt, "1.0,2.0\n5.0,6.0\n1.1,2.1\n5.1,6.1\n").unwrap();
        let args = CliArgs {
            input: Some(csv_txt.to_string_lossy().to_string()),
            ..args
        };
        let summary = run(&args).unwrap();
        assert!(!summary.sparse);
        std::fs::remove_file(&svm_txt).ok();
        std::fs::remove_file(&csv_txt).ok();
    }

    #[test]
    fn explicit_format_overrides_extension() {
        let dir = std::env::temp_dir().join("popcorn_cli_override");
        std::fs::create_dir_all(&dir).unwrap();
        // libSVM content behind a .csv extension: auto would mis-read it, the
        // explicit flag routes it correctly.
        let path = dir.join("mislabeled.csv");
        std::fs::write(&path, "0 1:1.0\n1 1:5.0\n").unwrap();
        let args = CliArgs {
            input: Some(path.to_string_lossy().to_string()),
            format: InputFormat::Libsvm,
            k: 2,
            runs: 1,
            max_iter: 3,
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert!(summary.sparse);
        assert_eq!(summary.n, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sniffing_skips_ambiguous_label_only_lines() {
        // A libSVM file whose first row is label-only (a legal all-zero
        // point) must still be detected as libSVM from the later rows.
        let dir = std::env::temp_dir().join("popcorn_cli_labelonly");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("leading_zero_row.txt");
        std::fs::write(&path, "0\n1 1:5.0\n0 2:1.5\n1 1:4.8\n").unwrap();
        let args = CliArgs {
            input: Some(path.to_string_lossy().to_string()),
            k: 2,
            runs: 1,
            max_iter: 3,
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert!(summary.sparse);
        assert_eq!(summary.n, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explicit_format_failure_has_no_override_hint() {
        let dir = std::env::temp_dir().join("popcorn_cli_nohint");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.libsvm");
        std::fs::write(&path, "0 1:notanumber\n").unwrap();
        let args = CliArgs {
            input: Some(path.to_string_lossy().to_string()),
            format: InputFormat::Libsvm,
            ..quick_args()
        };
        let err = run(&args).unwrap_err();
        assert!(err.contains("as libsvm"), "unexpected error: {err}");
        // The user chose the format explicitly; suggesting an override would
        // point them at the wrong remedy.
        assert!(!err.contains("--format"), "unexpected error: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_failures_name_the_format_and_suggest_override() {
        let dir = std::env::temp_dir().join("popcorn_cli_badparse");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.libsvm");
        std::fs::write(&path, "0 1:notanumber\n").unwrap();
        let args = CliArgs {
            input: Some(path.to_string_lossy().to_string()),
            ..quick_args()
        };
        let err = run(&args).unwrap_err();
        assert!(err.contains("as libsvm"), "unexpected error: {err}");
        assert!(err.contains("--format"), "unexpected error: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_input_file_is_an_error() {
        let args = CliArgs {
            input: Some("/nonexistent/popcorn.libsvm".to_string()),
            ..quick_args()
        };
        assert!(run(&args).is_err());
    }

    #[test]
    fn nystrom_runs_and_reports_the_error_bound() {
        let args = CliArgs {
            n: 120,
            d: 4,
            k: 3,
            runs: 1,
            max_iter: 6,
            approx: ApproxMode::Nystrom,
            landmarks: Some(LandmarkSpec::Count(24)),
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert_eq!(summary.results[0].labels.len(), 120);
        assert!(summary.results[0].approx_error_bound.is_some());
        let text = summary.report();
        assert!(text.contains("approx=nystrom(m=24, seed=0)"), "{text}");
        assert!(
            text.contains("mean diagonal reconstruction error"),
            "{text}"
        );
        // Exact runs say approx=exact and carry no footer.
        let exact = run(&CliArgs {
            approx: ApproxMode::Exact,
            landmarks: None,
            ..args.clone()
        })
        .unwrap();
        assert_eq!(exact.results[0].approx_error_bound, None);
        let text = exact.report();
        assert!(text.contains("approx=exact"), "{text}");
        assert!(!text.contains("reconstruction error"), "{text}");
        // Full-rank Nyström degenerates to the exact dispatch bit for bit.
        let full_rank = run(&CliArgs {
            approx: ApproxMode::Nystrom,
            landmarks: Some(LandmarkSpec::Count(120)),
            ..args
        })
        .unwrap();
        assert_eq!(full_rank.results[0].labels, exact.results[0].labels);
        assert_eq!(full_rank.results[0].approx_error_bound, None);
    }

    #[test]
    fn landmarks_auto_drives_the_adaptive_nystrom_rank() {
        let args = CliArgs {
            n: 120,
            d: 4,
            k: 3,
            runs: 1,
            max_iter: 6,
            approx: ApproxMode::Nystrom,
            landmarks: Some(LandmarkSpec::Auto { epsilon: 0.05 }),
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert_eq!(summary.results[0].labels.len(), 120);
        assert_eq!(
            summary.approx,
            KernelApprox::NystromAuto {
                epsilon: 0.05,
                seed: 0
            }
        );
        let text = summary.report();
        assert!(
            text.contains("approx=nystrom-auto(eps=0.05, seed=0)"),
            "{text}"
        );
    }

    #[test]
    fn save_model_writes_a_loadable_serving_model() {
        let dir = std::env::temp_dir().join("popcorn_cli_save_model");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.popcorn");
        let args = CliArgs {
            save_model: Some(path.to_string_lossy().to_string()),
            runs: 2,
            ..quick_args()
        };
        let summary = run(&args).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let model = popcorn_core::FittedModel::<f32>::load(&text).unwrap();
        // The saved model is the LAST run's fit, bit for bit.
        assert_eq!(model.labels(), summary.results[1].labels.as_slice());
        assert_eq!(model.k(), args.k);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nystrom_batch_shares_the_factorization_and_reports_the_bound() {
        let args = CliArgs {
            n: 100,
            d: 4,
            k: 3,
            restarts: 3,
            max_iter: 5,
            approx: ApproxMode::Nystrom,
            landmarks: Some(LandmarkSpec::Count(20)),
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert_eq!(summary.results.len(), 3);
        for result in &summary.results {
            assert!(result.approx_error_bound.is_some());
        }
        let text = summary.report();
        assert!(text.contains("best job"), "{text}");
        assert!(
            text.contains("mean diagonal reconstruction error"),
            "{text}"
        );
    }

    #[test]
    fn sparsify_runs_and_reports_the_dropped_mass() {
        use popcorn_core::Sparsify;
        let args = CliArgs {
            n: 120,
            d: 4,
            k: 3,
            runs: 1,
            max_iter: 6,
            sparsify: Some(Sparsify::Knn { neighbors: 16 }),
            ..CliArgs::default()
        };
        let summary = run(&args).unwrap();
        assert_eq!(summary.results[0].labels.len(), 120);
        assert!(summary.results[0].approx_error_bound.is_some());
        let text = summary.report();
        assert!(text.contains("approx=sparsified(knn:16)"), "{text}");
        assert!(text.contains("mean row kernel mass dropped"), "{text}");
        // Keep-everything sparsifiers degenerate to the exact dispatch.
        let exact = run(&CliArgs {
            sparsify: None,
            ..args.clone()
        })
        .unwrap();
        let full_density = run(&CliArgs {
            sparsify: Some(Sparsify::Threshold { tau: 0.0 }),
            ..args
        })
        .unwrap();
        assert_eq!(full_density.results[0].labels, exact.results[0].labels);
        assert_eq!(full_density.results[0].approx_error_bound, None);
    }

    #[test]
    fn sparsify_batch_shares_the_csr_matrix_across_jobs() {
        use popcorn_core::Sparsify;
        let base = CliArgs {
            n: 90,
            d: 4,
            k: 3,
            max_iter: 5,
            sparsify: Some(Sparsify::Knn { neighbors: 12 }),
            ..CliArgs::default()
        };
        let batched = run(&CliArgs {
            restarts: 3,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(batched.results.len(), 3);
        for result in &batched.results {
            assert!(result.approx_error_bound.is_some());
        }
        let text = batched.report();
        assert!(text.contains("mean row kernel mass dropped"), "{text}");
        // Batched restarts match independent runs label for label, exactly
        // as on the exact path.
        let independent = run(&CliArgs { runs: 3, ..base }).unwrap();
        for (a, b) in batched.results.iter().zip(independent.results.iter()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
    }

    #[test]
    fn repair_flag_reaches_solver_config() {
        let args = CliArgs {
            repair_empty_clusters: false,
            ..quick_args()
        };
        let config = config_from(&args, 0);
        assert!(!config.repair_empty_clusters);
        let solver = build_solver(Implementation::Popcorn, config);
        assert!(!solver.config().repair_empty_clusters);
        assert_eq!(solver.name(), "popcorn");
    }
}
