//! Executed-run harness and shared CLI options for the experiment binaries.

use crate::analytic::ModelWorkload;
use popcorn_core::batch::{BatchResult, FitJob};
use popcorn_core::result::TimingBreakdown;
use popcorn_core::solver::FitInput;
use popcorn_core::{ClusteringResult, KernelKmeansConfig};
use popcorn_data::paper::PaperDataset;
use popcorn_data::synthetic::uniform_dataset;
use popcorn_data::{Dataset, SparseDataset};

/// Options shared by every experiment binary.
///
/// ```text
/// --scale FLOAT     fraction of the published dataset sizes to execute at
/// --trials INT      number of trials to average over (paper: 4)
/// --k LIST          comma-separated k values (paper: 10,50,100)
/// --iterations INT  clustering iterations per run (paper: 30)
/// --restarts INT    seeds per configuration for the batched protocol (paper: 4)
/// --execute         actually run the solvers (default: analytic model only)
/// --out-dir DIR     where to write the CSV output
/// --seed INT        RNG seed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Fraction of the published sizes used for executed runs.
    pub scale: f64,
    /// Number of trials to average over.
    pub trials: usize,
    /// Cluster counts to sweep.
    pub k_values: Vec<usize>,
    /// Clustering iterations per run.
    pub iterations: usize,
    /// Seeds per configuration for the batched restart protocol.
    pub restarts: usize,
    /// Whether to execute the solvers in addition to the analytic model.
    pub execute: bool,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            scale: 0.01,
            trials: 4,
            k_values: vec![10, 50, 100],
            iterations: 30,
            restarts: 4,
            execute: false,
            out_dir: "experiment-results".to_string(),
            seed: 1,
        }
    }
}

impl ExperimentOptions {
    /// Parse options from an argument vector (unknown flags are an error).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = Self::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = iter.next().ok_or("missing value for --scale")?;
                    options.scale =
                        v.parse().map_err(|_| format!("--scale expects a number, got '{v}'"))?;
                    if options.scale <= 0.0 || options.scale > 1.0 {
                        return Err("--scale must be in (0, 1]".to_string());
                    }
                }
                "--trials" => {
                    let v = iter.next().ok_or("missing value for --trials")?;
                    options.trials = v
                        .parse()
                        .map_err(|_| format!("--trials expects an integer, got '{v}'"))?;
                    if options.trials == 0 {
                        return Err("--trials must be at least 1".to_string());
                    }
                }
                "--k" => {
                    let v = iter.next().ok_or("missing value for --k")?;
                    let mut values = Vec::new();
                    for tok in v.split(',') {
                        values.push(
                            tok.trim()
                                .parse()
                                .map_err(|_| format!("--k expects integers, got '{tok}'"))?,
                        );
                    }
                    if values.is_empty() {
                        return Err("--k expects at least one value".to_string());
                    }
                    options.k_values = values;
                }
                "--iterations" => {
                    let v = iter.next().ok_or("missing value for --iterations")?;
                    options.iterations = v
                        .parse()
                        .map_err(|_| format!("--iterations expects an integer, got '{v}'"))?;
                }
                "--restarts" => {
                    let v = iter.next().ok_or("missing value for --restarts")?;
                    options.restarts = v
                        .parse()
                        .map_err(|_| format!("--restarts expects an integer, got '{v}'"))?;
                    if options.restarts == 0 {
                        return Err("--restarts must be at least 1".to_string());
                    }
                }
                "--execute" => options.execute = true,
                "--out-dir" => {
                    options.out_dir =
                        iter.next().ok_or("missing value for --out-dir")?.to_string();
                }
                "--seed" => {
                    let v = iter.next().ok_or("missing value for --seed")?;
                    options.seed =
                        v.parse().map_err(|_| format!("--seed expects an integer, got '{v}'"))?;
                }
                "-h" | "--help" => {
                    return Err(
                        "options: --scale F --trials N --k LIST --iterations N --restarts N --execute --out-dir DIR --seed N"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(options)
    }

    /// Parse from `std::env::args` (skipping the program name), exiting with
    /// a message on error — convenience for the binaries' `main`.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// Ensure the output directory exists and return a path inside it.
    pub fn out_path(&self, file: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(&self.out_dir);
        std::fs::create_dir_all(dir).ok();
        dir.join(file)
    }

    /// The model workload for a paper dataset at the *published* size.
    pub fn paper_workload(&self, dataset: PaperDataset, k: usize) -> ModelWorkload {
        ModelWorkload {
            n: dataset.n(),
            d: dataset.d(),
            k,
            iterations: self.iterations,
        }
    }

    /// Generate the scaled stand-in dataset for executed runs.
    pub fn scaled_dataset(&self, dataset: PaperDataset) -> Dataset<f32> {
        dataset.generate::<f32>(self.scale, self.seed)
    }

    /// Generate a scaled synthetic (n, d) matrix for the Figure 2 sweep.
    pub fn scaled_uniform(&self, n: usize, d: usize) -> Dataset<f32> {
        let n_scaled = ((n as f64 * self.scale).round() as usize).max(16);
        let d_scaled = ((d as f64 * self.scale).round() as usize).max(2);
        uniform_dataset::<f32>(n_scaled, d_scaled, self.seed)
    }

    /// Base solver configuration for executed runs.
    pub fn config(&self, k: usize) -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(self.iterations)
            .with_convergence_check(false, 0.0)
            .with_seed(self.seed)
    }
}

/// Which implementation an executed run used — the shared registry from
/// `popcorn-baselines` (`build` constructs a `Box<dyn Solver<T>>`, `name`
/// gives the display name).
pub use popcorn_baselines::SolverKind as Solver;

/// Result of one executed run.
#[derive(Debug, Clone)]
pub struct ExecutedRun {
    /// Which solver ran.
    pub solver: Solver,
    /// Dataset name.
    pub dataset: String,
    /// Number of clusters.
    pub k: usize,
    /// The clustering result (labels, history, trace, timings).
    pub result: ClusteringResult,
}

impl ExecutedRun {
    /// Modeled timing breakdown of this run.
    pub fn modeled(&self) -> TimingBreakdown {
        self.result.modeled_timings
    }
}

/// Execute one solver on a fit input with the paper's protocol — the single
/// dispatch point every executed experiment goes through.
pub fn execute_input(
    solver: Solver,
    dataset_name: &str,
    input: FitInput<'_, f32>,
    config: KernelKmeansConfig,
) -> popcorn_core::Result<ExecutedRun> {
    let k = config.k;
    let result = solver.build(config).fit_input(input)?;
    Ok(ExecutedRun {
        solver,
        dataset: dataset_name.to_string(),
        k,
        result,
    })
}

/// Execute one solver on a dense dataset with the paper's protocol.
pub fn execute(
    solver: Solver,
    dataset: &Dataset<f32>,
    config: KernelKmeansConfig,
) -> popcorn_core::Result<ExecutedRun> {
    execute_input(
        solver,
        dataset.name(),
        FitInput::Dense(dataset.points()),
        config,
    )
}

/// Result of one executed batch (the restart protocol).
#[derive(Debug, Clone)]
pub struct ExecutedBatch {
    /// Which solver ran.
    pub solver: Solver,
    /// Dataset name.
    pub dataset: String,
    /// The batch outcome: per-job results, best index, cost accounting.
    pub batch: BatchResult,
}

/// Execute the restart protocol: `restarts` seeded jobs per `k` in
/// `k_values`, driven as one `fit_batch` so the kernel matrix is computed
/// once and shared across every job (Lloyd falls back to independent fits).
pub fn execute_batch(
    solver: Solver,
    dataset_name: &str,
    input: FitInput<'_, f32>,
    base_config: KernelKmeansConfig,
    k_values: &[usize],
    restarts: usize,
) -> popcorn_core::Result<ExecutedBatch> {
    execute_batch_with(
        solver,
        dataset_name,
        input,
        base_config,
        k_values,
        restarts,
        &popcorn_core::BatchOptions::default(),
    )
}

/// [`execute_batch`] with explicit batch options (host-thread policy for the
/// parallel restart driver).
#[allow(clippy::too_many_arguments)]
pub fn execute_batch_with(
    solver: Solver,
    dataset_name: &str,
    input: FitInput<'_, f32>,
    base_config: KernelKmeansConfig,
    k_values: &[usize],
    restarts: usize,
    options: &popcorn_core::BatchOptions,
) -> popcorn_core::Result<ExecutedBatch> {
    let jobs = FitJob::k_sweep(&base_config, k_values, restarts)?;
    let batch = solver
        .build(base_config)
        .fit_batch_with(input, &jobs, options)?;
    Ok(ExecutedBatch {
        solver,
        dataset: dataset_name.to_string(),
        batch,
    })
}

/// Execute one solver on a CSR dataset with the paper's protocol; the points
/// reach the solver without being densified.
pub fn execute_sparse(
    solver: Solver,
    dataset: &SparseDataset<f32>,
    config: KernelKmeansConfig,
) -> popcorn_core::Result<ExecutedRun> {
    execute_input(
        solver,
        dataset.name(),
        FitInput::Sparse(dataset.points()),
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{popcorn_modeled, ELEM};
    use popcorn_core::KernelFunction;

    fn parse(tokens: &[&str]) -> Result<ExperimentOptions, String> {
        ExperimentOptions::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_defaults_and_flags() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.k_values, vec![10, 50, 100]);
        assert_eq!(defaults.trials, 4);
        assert!(!defaults.execute);

        let opts = parse(&[
            "--scale",
            "0.05",
            "--trials",
            "2",
            "--k",
            "5,25",
            "--iterations",
            "10",
            "--execute",
            "--out-dir",
            "/tmp/out",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(opts.scale, 0.05);
        assert_eq!(opts.trials, 2);
        assert_eq!(opts.k_values, vec![5, 25]);
        assert_eq!(opts.iterations, 10);
        assert!(opts.execute);
        assert_eq!(opts.out_dir, "/tmp/out");
        assert_eq!(opts.seed, 9);
    }

    #[test]
    fn parses_restarts() {
        assert_eq!(parse(&[]).unwrap().restarts, 4);
        assert_eq!(parse(&["--restarts", "7"]).unwrap().restarts, 7);
        assert!(parse(&["--restarts", "0"]).is_err());
        assert!(parse(&["--restarts", "x"]).is_err());
    }

    #[test]
    fn execute_batch_matches_independent_executions() {
        let opts = ExperimentOptions {
            iterations: 4,
            ..Default::default()
        };
        let dataset = opts.scaled_dataset(PaperDataset::Letter);
        let k_values = [2usize, 3];
        let restarts = 2;
        let batch = execute_batch(
            Solver::Popcorn,
            dataset.name(),
            FitInput::Dense(dataset.points()),
            opts.config(2),
            &k_values,
            restarts,
        )
        .unwrap();
        assert_eq!(batch.batch.results.len(), 4);
        assert!(batch.batch.report.reuse_speedup() > 1.0);
        // Every job reproduces the standalone run bit for bit.
        for (job, result) in batch
            .batch
            .report
            .jobs
            .iter()
            .zip(batch.batch.results.iter())
        {
            let mut config = opts.config(job.k);
            config.seed = job.seed;
            let standalone = execute(Solver::Popcorn, &dataset, config).unwrap();
            assert_eq!(standalone.result.labels, result.labels);
            assert_eq!(
                standalone.result.objective.to_bits(),
                result.objective.to_bits()
            );
        }
    }

    #[test]
    fn rejects_bad_options() {
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "2"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--k", ""]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn workload_and_dataset_helpers() {
        let opts = ExperimentOptions {
            scale: 0.01,
            ..Default::default()
        };
        let w = opts.paper_workload(PaperDataset::Mnist, 50);
        assert_eq!(w.n, 60_000);
        assert_eq!(w.d, 780);
        assert_eq!(w.k, 50);
        assert_eq!(w.iterations, 30);
        let ds = opts.scaled_dataset(PaperDataset::Letter);
        assert_eq!(ds.n(), 105);
        let uni = opts.scaled_uniform(10_000, 100);
        assert_eq!(uni.n(), 100);
        assert_eq!(uni.d(), 2);
    }

    #[test]
    fn executed_and_analytic_modeled_times_agree() {
        // Run Popcorn for real at a small size and compare its modeled total
        // against the analytic replay of the same (n, d, k, iterations).
        let n = 120;
        let d = 6;
        let k = 4;
        let iterations = 5;
        let dataset = uniform_dataset::<f32>(n, d, 3);
        let dataset = Dataset::new("check", dataset.points().clone());
        let config = KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(iterations)
            .with_convergence_check(false, 0.0)
            .with_seed(3);
        let run = execute(Solver::Popcorn, &dataset, config).unwrap();
        let executed_total = run.modeled().total();
        let analytic_total = popcorn_modeled(
            ModelWorkload {
                n,
                d,
                k,
                iterations,
            },
            KernelFunction::paper_polynomial(),
        )
        .total();
        let rel = (executed_total - analytic_total).abs() / analytic_total;
        assert!(
            rel < 0.05,
            "executed modeled {executed_total:.6e} vs analytic {analytic_total:.6e} (rel {rel:.3})"
        );
        assert_eq!(std::mem::size_of::<f32>(), ELEM);
    }

    #[test]
    fn execute_all_solvers_small() {
        let opts = ExperimentOptions {
            iterations: 3,
            ..Default::default()
        };
        let dataset = opts.scaled_dataset(PaperDataset::Letter);
        for solver in Solver::ALL {
            let run = execute(solver, &dataset, opts.config(3)).unwrap();
            assert_eq!(run.result.labels.len(), dataset.n());
            assert_eq!(run.k, 3);
            assert!(run.modeled().total() > 0.0);
        }
    }

    #[test]
    fn execute_sparse_drives_the_csr_path() {
        use popcorn_data::synthetic::sparse_text_like;
        use popcorn_gpusim::OpClass;
        let dataset = sparse_text_like::<f32>(48, 2_000, 3, 16, 5);
        let config = KernelKmeansConfig::paper_defaults(3)
            .with_max_iter(5)
            .with_convergence_check(false, 0.0)
            .with_seed(2);
        let run = execute_sparse(Solver::Popcorn, &dataset, config.clone()).unwrap();
        assert_eq!(run.result.labels.len(), 48);
        // The sparse gram is charged as SpGEMM, never as dense GEMM.
        assert!(run.result.trace.class_summary(OpClass::SpGEMM).0 > 0.0);
        assert_eq!(run.result.trace.class_summary(OpClass::Gemm).0, 0.0);
        // And the clustering matches the densified equivalent exactly.
        let dense = execute(Solver::Popcorn, &dataset.to_dense(), config).unwrap();
        assert_eq!(run.result.labels, dense.result.labels);
    }

    #[test]
    fn solver_enum_builds_every_implementation() {
        for solver in Solver::ALL {
            let built = solver.build::<f32>(KernelKmeansConfig::paper_defaults(2));
            assert_eq!(built.name(), solver.name());
            assert_eq!(built.config().k, 2);
        }
    }

    #[test]
    fn out_path_creates_directory() {
        let dir = std::env::temp_dir().join("popcorn_bench_outdir");
        let opts = ExperimentOptions {
            out_dir: dir.to_string_lossy().to_string(),
            ..Default::default()
        };
        let path = opts.out_path("x.csv");
        assert!(path.parent().unwrap().exists());
        assert!(path.to_string_lossy().ends_with("x.csv"));
    }
}
