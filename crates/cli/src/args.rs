//! Command line argument parsing for `gpukmeans`.

use popcorn_core::{HostParallelism, Initialization, KernelFunction, Sparsify, TilePolicy};
use popcorn_gpusim::{DeviceSpec, LinkSpec, Streaming};

/// Device↔device interconnect selected by `--interconnect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interconnect {
    /// NVLink 3.0 (the default for multi-device topologies).
    #[default]
    Nvlink,
    /// PCIe Gen4 x16 peer transfers.
    Pcie,
}

impl Interconnect {
    /// Name matching the `--interconnect` flag values.
    pub fn name(&self) -> &'static str {
        match self {
            Interconnect::Nvlink => "nvlink",
            Interconnect::Pcie => "pcie",
        }
    }

    /// The simulator link specification this choice stands for.
    pub fn link_spec(&self) -> LinkSpec {
        match self {
            Interconnect::Nvlink => LinkSpec::nvlink(),
            Interconnect::Pcie => LinkSpec::pcie_gen4(),
        }
    }
}

/// Named device preset accepted in a `--devices` pool (`a100:2,h100:2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePreset {
    /// NVIDIA A100 80GB (what a bare `--devices N` shards across).
    A100,
    /// NVIDIA H100 80GB SXM5.
    H100,
    /// NVIDIA V100 16GB.
    V100,
}

impl DevicePreset {
    /// Name matching the `--devices` pool syntax.
    pub fn name(&self) -> &'static str {
        match self {
            DevicePreset::A100 => "a100",
            DevicePreset::H100 => "h100",
            DevicePreset::V100 => "v100",
        }
    }

    /// The simulator device specification this preset stands for.
    pub fn spec(&self) -> DeviceSpec {
        match self {
            DevicePreset::A100 => DeviceSpec::a100_80gb(),
            DevicePreset::H100 => DeviceSpec::h100_80gb(),
            DevicePreset::V100 => DeviceSpec::v100(),
        }
    }
}

/// One scheduled device loss from `--inject-fault lost:DEV@PASS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Topology index of the device that disappears.
    pub device: usize,
    /// Kernel-matrix pass at whose boundary the loss fires.
    pub at_pass: usize,
}

/// Kernel-matrix representation selected by `--approx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApproxMode {
    /// The exact `n × n` kernel matrix (resident, tiled or sharded — the
    /// planner decides). The default.
    #[default]
    Exact,
    /// Rank-`m` Nyström factorization over `--landmarks` columns.
    Nystrom,
}

impl ApproxMode {
    /// Name matching the `--approx` flag values.
    pub fn name(&self) -> &'static str {
        match self {
            ApproxMode::Exact => "exact",
            ApproxMode::Nystrom => "nystrom",
        }
    }
}

/// `--landmarks` operand: a fixed Nyström rank or the error-driven auto rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LandmarkSpec {
    /// `--landmarks N`: exactly `N` landmark columns.
    Count(usize),
    /// `--landmarks auto:EPS`: grow the landmark set until the mean diagonal
    /// reconstruction error drops below `epsilon`.
    Auto {
        /// Target mean diagonal reconstruction error.
        epsilon: f64,
    },
}

/// Which implementation the `-l` flag selects (artifact: 0 = naive GPU
/// baseline, 2 = Popcorn; we additionally expose 1 = CPU reference and
/// 3 = classical Lloyd k-means). This is the shared solver registry from
/// `popcorn-baselines` — the flag parses straight into it, so the CLI has no
/// parallel enum to keep in sync.
pub use popcorn_baselines::SolverKind as Implementation;

/// Input file format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputFormat {
    /// Comma-separated dense rows.
    Csv,
    /// libSVM sparse text (`label index:value ...`), kept sparse end to end.
    Libsvm,
    /// Decide from the file extension, falling back to content sniffing
    /// (default).
    #[default]
    Auto,
}

impl InputFormat {
    /// Name matching the `--format` flag values.
    pub fn name(&self) -> &'static str {
        match self {
            InputFormat::Csv => "csv",
            InputFormat::Libsvm => "libsvm",
            InputFormat::Auto => "auto",
        }
    }
}

/// Parsed command line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// `-n`: number of points (used when generating a random dataset).
    pub n: usize,
    /// `-d`: number of features (used when generating a random dataset).
    pub d: usize,
    /// `-k`: number of clusters.
    pub k: usize,
    /// `--runs`: number of repetitions.
    pub runs: usize,
    /// `--restarts`: seeds per configuration, driven as one batch over a
    /// shared kernel matrix (`> 1` enables batch mode).
    pub restarts: usize,
    /// `--k-sweep`: cluster counts to sweep in one batch over a shared
    /// kernel matrix (empty = just `-k`; non-empty enables batch mode).
    pub k_sweep: Vec<usize>,
    /// `-t`: convergence tolerance.
    pub tolerance: f64,
    /// `-m`: maximum iterations.
    pub max_iter: usize,
    /// `-c`: whether to check convergence.
    pub check_convergence: bool,
    /// `--init`: initialisation method.
    pub init: Initialization,
    /// `-f`: kernel function.
    pub kernel: KernelFunction,
    /// `-i`: optional input file. `None` generates a random dataset.
    pub input: Option<String>,
    /// `--format`: how to parse the input file (default: auto-detect).
    pub format: InputFormat,
    /// `--repair {0|1}`: whether to repair empty clusters by reassigning the
    /// points farthest from their centroids (default: on).
    pub repair_empty_clusters: bool,
    /// `--tile-rows {auto|full|N}`: kernel-matrix residency policy — keep the
    /// full `n × n` matrix, stream row tiles of `N` rows, or let the planner
    /// pick the largest layout fitting device memory (default).
    pub tiling: TilePolicy,
    /// `--device-mem GB`: override the simulated device's memory capacity in
    /// gigabytes (`None` keeps the device preset's capacity). Rejected in
    /// combination with a multi-device preset topology (`--devices` ≥ 2).
    pub device_mem_gb: Option<f64>,
    /// `--devices N`: number of modeled devices kernel-matrix rows are
    /// sharded across (1 = the classic single-device run). Always the total
    /// device count, whether the flag gave a number or a preset pool.
    pub devices: usize,
    /// `--devices a100:2,h100:2`: the mixed preset pool behind `devices`,
    /// in flag order. `None` when the flag gave a plain count (a homogeneous
    /// pool of the implementation's default device).
    pub device_pool: Option<Vec<(DevicePreset, usize)>>,
    /// `--inject-fault lost:DEV@PASS`: deterministic device losses replayed
    /// during the fit (repeatable; requires `--devices` ≥ 2). The run
    /// recovers onto the survivors and reports the recovery cost.
    pub inject_faults: Vec<InjectedFault>,
    /// `--interconnect {nvlink|pcie}`: the device↔device link of a
    /// multi-device topology; only meaningful with `--devices` ≥ 2.
    pub interconnect: Option<Interconnect>,
    /// `--approx {exact|nystrom}`: kernel-matrix representation — the exact
    /// matrix (default) or a rank-`m` Nyström factorization that trades a
    /// bounded approximation error for `O(n·m)` memory.
    pub approx: ApproxMode,
    /// `--landmarks {N|auto:EPS}`: Nyström rank `m` (number of landmark
    /// columns) or the auto rule that grows the rank until the mean diagonal
    /// reconstruction error drops below `EPS`. Only meaningful with
    /// `--approx nystrom`; `None` uses the default of 256 columns.
    pub landmarks: Option<LandmarkSpec>,
    /// `--sparsify {knn:N|threshold:T}`: sparsify the kernel matrix into a
    /// CSR-resident form — keep the `N` largest-magnitude entries per row, or
    /// every entry with `|K_ij| >= T` (plus the diagonal, symmetrized).
    /// `None` (the default) keeps the representation chosen by `--approx`.
    pub sparsify: Option<Sparsify>,
    /// `--host-threads {auto|N}`: host threads the batched restart driver
    /// fans per-job work across (batch mode only; results are bit-identical
    /// at any setting). Default: 1 (sequential).
    pub host_threads: HostParallelism,
    /// `--streaming {off|double-buffer}`: tile-streaming pricing for single
    /// fits — `double-buffer` models tile `t+1`'s production hidden under
    /// tile `t`'s distance fold. Never changes labels or traces; single-fit
    /// mode only (the batch driver has its own stream-aware number).
    pub streaming: Streaming,
    /// `-s`: RNG seed.
    pub seed: u64,
    /// `-l`: implementation selector.
    pub implementation: Implementation,
    /// `-o`: optional output file for the final assignment.
    pub output: Option<String>,
    /// `--save-model FILE`: freeze the last run's fit as a serving model and
    /// write it to `FILE` (the `popcorn-serve` handoff). Single-configuration
    /// fits only — batch mode produces many fits, none of them "the" model.
    pub save_model: Option<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            n: 1000,
            d: 16,
            k: 10,
            runs: 1,
            restarts: 1,
            k_sweep: Vec::new(),
            tolerance: 1e-4,
            max_iter: 30,
            check_convergence: false,
            init: Initialization::Random,
            kernel: KernelFunction::paper_polynomial(),
            input: None,
            format: InputFormat::Auto,
            repair_empty_clusters: true,
            tiling: TilePolicy::Auto,
            device_mem_gb: None,
            devices: 1,
            device_pool: None,
            inject_faults: Vec::new(),
            interconnect: None,
            approx: ApproxMode::Exact,
            landmarks: None,
            sparsify: None,
            host_threads: HostParallelism::Threads(1),
            streaming: Streaming::Off,
            seed: 0,
            implementation: Implementation::Popcorn,
            output: None,
            save_model: None,
        }
    }
}

/// Usage text printed on `--help` or on a parse error.
pub const USAGE: &str = "gpukmeans — Popcorn kernel k-means (PPoPP '25 reproduction)

USAGE:
  gpukmeans [OPTIONS]

OPTIONS:
  -n INT          number of points for the generated dataset   [default: 1000]
  -d INT          number of features for the generated dataset [default: 16]
  -k INT          number of clusters                           [default: 10]
  --runs INT      number of clustering runs                    [default: 1]
  --restarts INT  seeds per configuration, run as ONE batch that computes
                  the kernel matrix once and reuses it across all restarts
                  (the paper's multi-run protocol)              [default: 1]
  --k-sweep LIST  comma-separated k values swept in the same batch (shares
                  the kernel matrix with the restarts; overrides -k)
                  (batch mode ignores --runs; best run selected by objective)
  -t FLOAT        convergence tolerance                        [default: 1e-4]
  -m INT          maximum number of iterations                 [default: 30]
  -c {0|1}        1 = stop at convergence, 0 = run all iterations [default: 0]
  --init STR      centroid initialisation: random | kmeans++   [default: random]
  -f STR          kernel: linear | polynomial | gaussian | sigmoid
                                                               [default: polynomial]
  -i FILE         input file; omit to generate data
  --format STR    input format: csv | libsvm | auto            [default: auto]
                  (auto = by extension, then content sniffing; libSVM inputs
                  stay sparse end to end)
  --repair {0|1}  1 = repair empty clusters, 0 = leave them    [default: 1]
  --tile-rows V   kernel-matrix residency: auto (largest layout that fits
                  device memory), full (always materialize n x n), or an
                  integer row count streamed per tile           [default: auto]
  --device-mem GB simulated device memory capacity in decimal GB (1 GB =
                  1e9 bytes; accepts fractions, e.g. 0.5). Note the device
                  presets use binary GiB, so --device-mem 80 is ~7% smaller
                  than the A100-80GB preset. Default: the preset's capacity.
                  Incompatible with --devices >= 2 (preset topologies fix
                  each device's capacity)
  --devices V     devices to shard kernel-matrix rows across: an integer
                  count (a homogeneous pool of the implementation's default
                  device) or a mixed preset pool like a100:2,h100:2
                  (presets: a100 | h100 | v100; shards are sized by each
                  device's modeled throughput). The report then shows
                  per-device residency and the modeled multi-device speedup
                                                               [default: 1]
  --interconnect  device link for --devices >= 2: nvlink | pcie
                                                               [default: nvlink]
  --inject-fault  deterministic device loss replayed during the fit:
                  lost:DEV@PASS loses device DEV at kernel-matrix pass PASS
                  (repeatable / comma-separated; requires --devices >= 2).
                  The run re-shards the lost rows over the survivors —
                  labels stay bit-identical — and the report prices the
                  recovery (rows migrated, bytes re-uploaded, re-shard time)
  --approx STR    kernel-matrix representation: exact (the n x n matrix) or
                  nystrom (a rank-m factorization K ~ C W+ C^T over m landmark
                  columns; O(n*m) memory instead of O(n^2), approximate
                  labels)                                      [default: exact]
  --landmarks V   Nystrom rank m: an integer count of landmark columns, or
                  auto:EPS to grow the rank until the mean diagonal
                  reconstruction error drops below EPS. Requires
                  --approx nystrom. m >= n falls back to the exact path
                                                               [default: 256]
  --sparsify V    sparsify the kernel matrix into CSR-resident form:
                  knn:N (keep the N largest-magnitude entries per row) or
                  threshold:T (keep entries with |K_ij| >= T); the diagonal
                  is always kept and the pattern symmetrized. Residency is
                  the CSR footprint (nnz), not n^2, and the distance fold
                  runs as SpMM. knn:n / threshold:0 reproduce the exact
                  path exactly. Incompatible with --approx nystrom
  --host-threads  host threads for the batched restart driver: auto (one per
                  hardware thread) or an integer count. Only affects batch
                  mode (--restarts/--k-sweep); results and traces are
                  bit-identical at any setting — only the measured host
                  wall-clock changes                           [default: 1]
  --streaming STR tile-pipeline pricing for single fits: off (serial) or
                  double-buffer (tile t+1's panel GEMM + upload priced as
                  hidden under tile t's distance fold, first tile exposed).
                  Never changes labels, objectives or traces — only the
                  modeled wall-clock and the streaming report line
                                                               [default: off]
  -s INT          RNG seed                                     [default: 0]
  -l {0|1|2|3}    implementation: 0 = dense GPU baseline, 1 = CPU,
                  2 = Popcorn, 3 = Lloyd (classical k-means)   [default: 2]
  -o FILE         write the final cluster assignment to FILE
  --save-model F  freeze the last run's fit as a serving model and write it
                  to F; feed it to popcorn-serve --model F. Incompatible
                  with batch mode (--restarts/--k-sweep)
  -h, --help      print this help text
";

/// Parse an argument vector (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut parsed = CliArgs::default();
    let mut iter = args.iter().peekable();

    fn value<'a>(
        flag: &str,
        iter: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    ) -> Result<&'a String, String> {
        iter.next()
            .ok_or_else(|| format!("missing value for {flag}"))
    }

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "-n" => parsed.n = parse_usize("-n", value("-n", &mut iter)?)?,
            "-d" => parsed.d = parse_usize("-d", value("-d", &mut iter)?)?,
            "-k" => parsed.k = parse_usize("-k", value("-k", &mut iter)?)?,
            "--runs" => parsed.runs = parse_usize("--runs", value("--runs", &mut iter)?)?,
            "--restarts" => {
                parsed.restarts = parse_usize("--restarts", value("--restarts", &mut iter)?)?
            }
            "--k-sweep" => {
                let v = value("--k-sweep", &mut iter)?;
                let mut values = Vec::new();
                for tok in v.split(',') {
                    values.push(parse_usize("--k-sweep", tok.trim())?);
                }
                parsed.k_sweep = values;
            }
            "-t" => {
                let v = value("-t", &mut iter)?;
                parsed.tolerance = v
                    .parse()
                    .map_err(|_| format!("-t expects a number, got '{v}'"))?;
            }
            "-m" => parsed.max_iter = parse_usize("-m", value("-m", &mut iter)?)?,
            "-c" => {
                let v = value("-c", &mut iter)?;
                parsed.check_convergence = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("-c expects 0 or 1, got '{v}'")),
                };
            }
            "--init" => {
                let v = value("--init", &mut iter)?;
                parsed.init = match v.as_str() {
                    "random" => Initialization::Random,
                    "kmeans++" | "kmeanspp" => Initialization::KmeansPlusPlus,
                    _ => return Err(format!("--init expects random or kmeans++, got '{v}'")),
                };
            }
            "-f" => {
                let v = value("-f", &mut iter)?;
                parsed.kernel = match v.as_str() {
                    "linear" => KernelFunction::Linear,
                    "polynomial" => KernelFunction::paper_polynomial(),
                    "gaussian" | "rbf" => KernelFunction::default_gaussian(),
                    "sigmoid" => KernelFunction::Sigmoid {
                        gamma: 1.0,
                        coef0: 0.0,
                    },
                    _ => {
                        return Err(format!(
                            "-f expects linear | polynomial | gaussian | sigmoid, got '{v}'"
                        ))
                    }
                };
            }
            "-i" => parsed.input = Some(value("-i", &mut iter)?.clone()),
            "--format" => {
                let v = value("--format", &mut iter)?;
                parsed.format = match v.as_str() {
                    "csv" => InputFormat::Csv,
                    "libsvm" | "svm" => InputFormat::Libsvm,
                    "auto" => InputFormat::Auto,
                    _ => return Err(format!("--format expects csv | libsvm | auto, got '{v}'")),
                };
            }
            "--repair" => {
                let v = value("--repair", &mut iter)?;
                parsed.repair_empty_clusters = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--repair expects 0 or 1, got '{v}'")),
                };
            }
            "--tile-rows" => {
                let v = value("--tile-rows", &mut iter)?;
                parsed.tiling = match v.as_str() {
                    "auto" => TilePolicy::Auto,
                    "full" => TilePolicy::Full,
                    other => TilePolicy::Rows(parse_usize("--tile-rows", other)?),
                };
            }
            "--device-mem" => {
                let v = value("--device-mem", &mut iter)?;
                let gb: f64 = v
                    .parse()
                    .map_err(|_| format!("--device-mem expects a number of GB, got '{v}'"))?;
                if !gb.is_finite() || gb <= 0.0 {
                    return Err(format!("--device-mem must be positive, got '{v}'"));
                }
                parsed.device_mem_gb = Some(gb);
            }
            "--devices" => {
                let v = value("--devices", &mut iter)?;
                if v.bytes().all(|b| b.is_ascii_digit()) {
                    parsed.devices = parse_usize("--devices", v)?;
                    parsed.device_pool = None;
                } else {
                    let pool = parse_device_pool(v)?;
                    parsed.devices = pool.iter().map(|&(_, count)| count).sum();
                    parsed.device_pool = Some(pool);
                }
            }
            "--inject-fault" => parsed
                .inject_faults
                .extend(parse_inject_faults(value("--inject-fault", &mut iter)?)?),
            "--interconnect" => {
                let v = value("--interconnect", &mut iter)?;
                parsed.interconnect = Some(match v.as_str() {
                    "nvlink" => Interconnect::Nvlink,
                    "pcie" => Interconnect::Pcie,
                    _ => return Err(format!("--interconnect expects nvlink or pcie, got '{v}'")),
                });
            }
            "--approx" => {
                let v = value("--approx", &mut iter)?;
                parsed.approx = match v.as_str() {
                    "exact" => ApproxMode::Exact,
                    "nystrom" => ApproxMode::Nystrom,
                    _ => return Err(format!("--approx expects exact or nystrom, got '{v}'")),
                };
            }
            "--landmarks" => {
                parsed.landmarks = Some(parse_landmarks(value("--landmarks", &mut iter)?)?)
            }
            "--sparsify" => {
                parsed.sparsify = Some(parse_sparsify(value("--sparsify", &mut iter)?)?)
            }
            "--host-threads" => {
                let v = value("--host-threads", &mut iter)?;
                parsed.host_threads = match v.as_str() {
                    "auto" => HostParallelism::Auto,
                    other => {
                        let n = parse_usize("--host-threads", other)?;
                        if n == 0 {
                            return Err("--host-threads must be at least 1 (or auto)".to_string());
                        }
                        HostParallelism::Threads(n)
                    }
                };
            }
            "--streaming" => {
                let v = value("--streaming", &mut iter)?;
                parsed.streaming = match v.as_str() {
                    "off" => Streaming::Off,
                    "double-buffer" | "double-buffered" => Streaming::DoubleBuffered,
                    _ => {
                        return Err(format!(
                            "--streaming expects off or double-buffer, got '{v}'"
                        ))
                    }
                };
            }
            "-s" => parsed.seed = parse_usize("-s", value("-s", &mut iter)?)? as u64,
            "-l" => {
                let v = value("-l", &mut iter)?;
                parsed.implementation = match v.as_str() {
                    "0" => Implementation::DenseBaseline,
                    "1" => Implementation::Cpu,
                    "2" => Implementation::Popcorn,
                    "3" => Implementation::Lloyd,
                    _ => return Err(format!("-l expects 0, 1, 2 or 3, got '{v}'")),
                };
            }
            "-o" => parsed.output = Some(value("-o", &mut iter)?.clone()),
            "--save-model" => parsed.save_model = Some(value("--save-model", &mut iter)?.clone()),
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }

    if parsed.k == 0 {
        return Err("-k must be at least 1".to_string());
    }
    if parsed.runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    if parsed.restarts == 0 {
        return Err("--restarts must be at least 1".to_string());
    }
    if parsed.k_sweep.contains(&0) {
        return Err("--k-sweep values must be at least 1".to_string());
    }
    if parsed.tiling == TilePolicy::Rows(0) {
        return Err("--tile-rows must be at least 1".to_string());
    }
    if parsed.input.is_none() && (parsed.n == 0 || parsed.d == 0) {
        return Err("-n and -d must be positive when generating a dataset".to_string());
    }
    // Contradictory device flags are rejected here, not silently forwarded
    // to the driver.
    if parsed.devices == 0 {
        return Err("--devices must be at least 1".to_string());
    }
    if (parsed.devices >= 2 || parsed.device_pool.is_some()) && parsed.device_mem_gb.is_some() {
        return Err(
            "--device-mem cannot be combined with --devices >= 2: the multi-device \
             preset topology fixes each device's capacity"
                .to_string(),
        );
    }
    if parsed.interconnect.is_some() && parsed.devices < 2 {
        return Err("--interconnect requires --devices >= 2".to_string());
    }
    if !parsed.inject_faults.is_empty() && parsed.devices < 2 {
        return Err(
            "--inject-fault requires --devices >= 2: a single-device run has no \
             survivors to recover onto"
                .to_string(),
        );
    }
    if let Some(fault) = parsed
        .inject_faults
        .iter()
        .find(|fault| fault.device >= parsed.devices)
    {
        return Err(format!(
            "--inject-fault device {} is out of range for a {}-device topology \
             (device indices are 0..{})",
            fault.device, parsed.devices, parsed.devices
        ));
    }
    if parsed.landmarks.is_some() && parsed.approx != ApproxMode::Nystrom {
        return Err("--landmarks requires --approx nystrom".to_string());
    }
    if parsed.landmarks == Some(LandmarkSpec::Count(0)) {
        return Err("--landmarks must be at least 1".to_string());
    }
    if parsed.save_model.is_some() && (parsed.restarts > 1 || !parsed.k_sweep.is_empty()) {
        return Err(
            "--save-model cannot be combined with batch mode (--restarts/--k-sweep): a batch \
             produces many fits, none of them the serving model — pick one configuration"
                .to_string(),
        );
    }
    if parsed.sparsify.is_some() && parsed.approx == ApproxMode::Nystrom {
        return Err(
            "--sparsify cannot be combined with --approx nystrom: pick one kernel-matrix \
             representation"
                .to_string(),
        );
    }
    Ok(parsed)
}

/// Parse a `--devices` preset pool (`a100:2,h100:2`; a bare preset counts 1).
fn parse_device_pool(value: &str) -> Result<Vec<(DevicePreset, usize)>, String> {
    value
        .split(',')
        .map(|token| {
            let token = token.trim();
            let (name, count) = match token.split_once(':') {
                Some((name, count)) => (name, parse_usize("--devices", count)?),
                None => (token, 1),
            };
            let preset = match name {
                "a100" => DevicePreset::A100,
                "h100" => DevicePreset::H100,
                "v100" => DevicePreset::V100,
                _ => {
                    return Err(format!(
                        "--devices expects a device count or a preset pool like a100:2,h100:2 \
                         (presets: a100 | h100 | v100), got '{token}'"
                    ))
                }
            };
            if count == 0 {
                return Err(format!(
                    "--devices pool counts must be at least 1, got '{token}'"
                ));
            }
            Ok((preset, count))
        })
        .collect()
}

/// Parse an `--inject-fault` value: comma-separated `lost:DEV@PASS` events.
fn parse_inject_faults(value: &str) -> Result<Vec<InjectedFault>, String> {
    value
        .split(',')
        .map(|token| {
            let token = token.trim();
            let event = token
                .strip_prefix("lost:")
                .and_then(|operand| operand.split_once('@'));
            let Some((device, pass)) = event else {
                return Err(format!(
                    "--inject-fault expects lost:DEV@PASS events (e.g. lost:1@3), got '{token}'"
                ));
            };
            Ok(InjectedFault {
                device: parse_usize("--inject-fault", device)?,
                at_pass: parse_usize("--inject-fault", pass)?,
            })
        })
        .collect()
}

/// Parse a `--landmarks` value: a plain integer count or `auto:EPS`.
fn parse_landmarks(value: &str) -> Result<LandmarkSpec, String> {
    match value.split_once(':') {
        Some(("auto", operand)) => {
            let epsilon: f64 = operand.parse().map_err(|_| {
                format!("--landmarks auto:EPS expects a number for EPS, got '{operand}'")
            })?;
            if !epsilon.is_finite() || epsilon <= 0.0 {
                return Err(format!(
                    "--landmarks auto:EPS requires a positive finite EPS, got '{operand}'"
                ));
            }
            Ok(LandmarkSpec::Auto { epsilon })
        }
        Some(_) => Err(format!(
            "--landmarks expects an integer count or auto:EPS, got '{value}'"
        )),
        None => Ok(LandmarkSpec::Count(parse_usize("--landmarks", value)?)),
    }
}

/// Parse a `--sparsify` value: `knn:N` or `threshold:T`.
fn parse_sparsify(value: &str) -> Result<Sparsify, String> {
    let (rule, operand) = value
        .split_once(':')
        .ok_or_else(|| format!("--sparsify expects knn:N or threshold:T, got '{value}'"))?;
    match rule {
        "knn" => {
            let neighbors = parse_usize("--sparsify knn", operand)?;
            if neighbors == 0 {
                return Err("--sparsify knn:N requires N >= 1".to_string());
            }
            Ok(Sparsify::Knn { neighbors })
        }
        "threshold" => {
            let tau: f64 = operand
                .parse()
                .map_err(|_| format!("--sparsify threshold expects a number, got '{operand}'"))?;
            if !tau.is_finite() || tau < 0.0 {
                return Err(format!(
                    "--sparsify threshold:T requires a non-negative finite T, got '{operand}'"
                ));
            }
            Ok(Sparsify::Threshold { tau })
        }
        _ => Err(format!(
            "--sparsify expects knn:N or threshold:T, got '{value}'"
        )),
    }
}

fn parse_usize(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got '{value}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<CliArgs, String> {
        parse_args(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_with_no_args() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, CliArgs::default());
    }

    #[test]
    fn full_flag_set() {
        let args = parse(&[
            "-n",
            "5000",
            "-d",
            "32",
            "-k",
            "50",
            "--runs",
            "4",
            "-t",
            "1e-6",
            "-m",
            "100",
            "-c",
            "1",
            "--init",
            "kmeans++",
            "-f",
            "gaussian",
            "-i",
            "data.libsvm",
            "-s",
            "7",
            "-l",
            "0",
            "-o",
            "out.csv",
        ])
        .unwrap();
        assert_eq!(args.n, 5000);
        assert_eq!(args.d, 32);
        assert_eq!(args.k, 50);
        assert_eq!(args.runs, 4);
        assert_eq!(args.tolerance, 1e-6);
        assert_eq!(args.max_iter, 100);
        assert!(args.check_convergence);
        assert_eq!(args.init, Initialization::KmeansPlusPlus);
        assert_eq!(args.kernel, KernelFunction::default_gaussian());
        assert_eq!(args.input.as_deref(), Some("data.libsvm"));
        assert_eq!(args.seed, 7);
        assert_eq!(args.implementation, Implementation::DenseBaseline);
        assert_eq!(args.output.as_deref(), Some("out.csv"));
    }

    #[test]
    fn kernel_and_implementation_variants() {
        assert_eq!(
            parse(&["-f", "linear"]).unwrap().kernel,
            KernelFunction::Linear
        );
        assert_eq!(
            parse(&["-f", "sigmoid"]).unwrap().kernel,
            KernelFunction::Sigmoid {
                gamma: 1.0,
                coef0: 0.0
            }
        );
        assert_eq!(
            parse(&["-l", "1"]).unwrap().implementation,
            Implementation::Cpu
        );
        assert_eq!(
            parse(&["-l", "2"]).unwrap().implementation,
            Implementation::Popcorn
        );
        assert_eq!(
            parse(&["-l", "3"]).unwrap().implementation,
            Implementation::Lloyd
        );
        assert_eq!(Implementation::Popcorn.name(), "popcorn");
        assert_eq!(Implementation::Cpu.name(), "cpu-reference");
        assert_eq!(Implementation::DenseBaseline.name(), "dense-gpu-baseline");
        assert_eq!(Implementation::Lloyd.name(), "lloyd");
    }

    #[test]
    fn format_and_repair_flags() {
        assert_eq!(parse(&[]).unwrap().format, InputFormat::Auto);
        assert_eq!(
            parse(&["--format", "csv"]).unwrap().format,
            InputFormat::Csv
        );
        assert_eq!(
            parse(&["--format", "libsvm"]).unwrap().format,
            InputFormat::Libsvm
        );
        assert_eq!(
            parse(&["--format", "auto"]).unwrap().format,
            InputFormat::Auto
        );
        assert_eq!(InputFormat::Csv.name(), "csv");
        assert_eq!(InputFormat::Libsvm.name(), "libsvm");
        assert_eq!(InputFormat::Auto.name(), "auto");
        assert!(parse(&[]).unwrap().repair_empty_clusters);
        assert!(!parse(&["--repair", "0"]).unwrap().repair_empty_clusters);
        assert!(parse(&["--repair", "1"]).unwrap().repair_empty_clusters);
    }

    #[test]
    fn tile_rows_and_device_mem_flags() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.tiling, TilePolicy::Auto);
        assert_eq!(defaults.device_mem_gb, None);
        assert_eq!(
            parse(&["--tile-rows", "auto"]).unwrap().tiling,
            TilePolicy::Auto
        );
        assert_eq!(
            parse(&["--tile-rows", "full"]).unwrap().tiling,
            TilePolicy::Full
        );
        assert_eq!(
            parse(&["--tile-rows", "4096"]).unwrap().tiling,
            TilePolicy::Rows(4096)
        );
        assert_eq!(
            parse(&["--device-mem", "40"]).unwrap().device_mem_gb,
            Some(40.0)
        );
        assert_eq!(
            parse(&["--device-mem", "0.5"]).unwrap().device_mem_gb,
            Some(0.5)
        );
        assert!(parse(&["--tile-rows", "0"]).is_err());
        assert!(parse(&["--tile-rows", "some"]).is_err());
        assert!(parse(&["--tile-rows"]).is_err());
        assert!(parse(&["--device-mem", "0"]).is_err());
        assert!(parse(&["--device-mem", "-1"]).is_err());
        assert!(parse(&["--device-mem", "NaN"]).is_err());
        assert!(parse(&["--device-mem", "lots"]).is_err());
    }

    #[test]
    fn devices_and_interconnect_flags() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.devices, 1);
        assert_eq!(defaults.interconnect, None);
        let args = parse(&["--devices", "4"]).unwrap();
        assert_eq!(args.devices, 4);
        let args = parse(&["--devices", "8", "--interconnect", "pcie"]).unwrap();
        assert_eq!(args.interconnect, Some(Interconnect::Pcie));
        assert_eq!(
            parse(&["--devices", "2", "--interconnect", "nvlink"])
                .unwrap()
                .interconnect,
            Some(Interconnect::Nvlink)
        );
        assert_eq!(Interconnect::Nvlink.name(), "nvlink");
        assert_eq!(Interconnect::Pcie.name(), "pcie");
        assert_eq!(Interconnect::Nvlink.link_spec().name, "NVLink3");
        assert_eq!(Interconnect::Pcie.link_spec().name, "PCIe Gen4 x16");
    }

    #[test]
    fn device_pool_syntax() {
        // A plain count stays a homogeneous pool of the default device.
        let args = parse(&["--devices", "4"]).unwrap();
        assert_eq!(args.devices, 4);
        assert_eq!(args.device_pool, None);
        // Mixed preset pools: devices is always the total count.
        let args = parse(&["--devices", "a100:2,h100:2"]).unwrap();
        assert_eq!(args.devices, 4);
        assert_eq!(
            args.device_pool,
            Some(vec![(DevicePreset::A100, 2), (DevicePreset::H100, 2)])
        );
        // A bare preset counts one device; whitespace around commas is fine.
        let args = parse(&["--devices", "h100, v100:3"]).unwrap();
        assert_eq!(args.devices, 4);
        assert_eq!(
            args.device_pool,
            Some(vec![(DevicePreset::H100, 1), (DevicePreset::V100, 3)])
        );
        assert_eq!(DevicePreset::A100.name(), "a100");
        assert_eq!(DevicePreset::H100.name(), "h100");
        assert_eq!(DevicePreset::V100.name(), "v100");
        assert_eq!(DevicePreset::A100.spec().name, "NVIDIA A100 80GB");
        assert_eq!(DevicePreset::H100.spec().name, "NVIDIA H100 80GB");
        assert_eq!(DevicePreset::V100.spec().name, "NVIDIA V100");
        // Unknown presets and zero counts are named in the error.
        let err = parse(&["--devices", "b200:2"]).unwrap_err();
        assert!(err.contains("a100 | h100 | v100"), "{err}");
        let err = parse(&["--devices", "a100:0"]).unwrap_err();
        assert!(err.contains("pool counts must be at least 1"), "{err}");
        assert!(parse(&["--devices", "a100:x"]).is_err());
        // Pool topologies fix each device's capacity, like plain --devices.
        let err = parse(&["--devices", "a100:2", "--device-mem", "40"]).unwrap_err();
        assert!(err.contains("--device-mem cannot be combined"), "{err}");
        let err = parse(&["--devices", "a100:1", "--device-mem", "40"]).unwrap_err();
        assert!(err.contains("--device-mem cannot be combined"), "{err}");
    }

    #[test]
    fn inject_fault_flag() {
        assert!(parse(&[]).unwrap().inject_faults.is_empty());
        let args = parse(&["--devices", "4", "--inject-fault", "lost:1@3"]).unwrap();
        assert_eq!(
            args.inject_faults,
            vec![InjectedFault {
                device: 1,
                at_pass: 3
            }]
        );
        // Repeatable and comma-separable, order preserved.
        let args = parse(&[
            "--devices",
            "4",
            "--inject-fault",
            "lost:1@3,lost:2@5",
            "--inject-fault",
            "lost:0@7",
        ])
        .unwrap();
        assert_eq!(
            args.inject_faults,
            vec![
                InjectedFault {
                    device: 1,
                    at_pass: 3
                },
                InjectedFault {
                    device: 2,
                    at_pass: 5
                },
                InjectedFault {
                    device: 0,
                    at_pass: 7
                },
            ]
        );
        // Faults need a multi-device topology and an in-range device.
        let err = parse(&["--inject-fault", "lost:0@1"]).unwrap_err();
        assert!(err.contains("requires --devices >= 2"), "{err}");
        let err = parse(&["--devices", "2", "--inject-fault", "lost:2@1"]).unwrap_err();
        assert!(
            err.contains("out of range for a 2-device topology"),
            "{err}"
        );
        // Malformed events name the expected shape.
        for bad in ["lost:1", "lost:@3", "joined:1@3", "1@3", ""] {
            let err = parse(&["--devices", "2", "--inject-fault", bad]).unwrap_err();
            assert!(err.contains("--inject-fault"), "{bad}: {err}");
        }
        assert!(parse(&["--inject-fault"]).is_err());
    }

    #[test]
    fn contradictory_device_flags_are_rejected_with_clear_errors() {
        // --devices 0 names the offending flag.
        let err = parse(&["--devices", "0"]).unwrap_err();
        assert!(err.contains("--devices must be at least 1"), "{err}");
        // --device-mem with a preset topology cannot pass through silently.
        let err = parse(&["--devices", "4", "--device-mem", "40"]).unwrap_err();
        assert!(err.contains("--device-mem cannot be combined"), "{err}");
        let err = parse(&["--device-mem", "40", "--devices", "4"]).unwrap_err();
        assert!(err.contains("--device-mem cannot be combined"), "{err}");
        // --interconnect without a multi-device topology is meaningless.
        let err = parse(&["--interconnect", "nvlink"]).unwrap_err();
        assert!(
            err.contains("--interconnect requires --devices >= 2"),
            "{err}"
        );
        let err = parse(&["--devices", "1", "--interconnect", "pcie"]).unwrap_err();
        assert!(err.contains("requires --devices >= 2"), "{err}");
        // Unknown link names are rejected at parse time.
        assert!(parse(&["--devices", "2", "--interconnect", "infiniband"]).is_err());
        // Single-device --device-mem stays legal.
        assert!(parse(&["--device-mem", "40"]).is_ok());
        assert!(parse(&["--devices", "1", "--device-mem", "40"]).is_ok());
    }

    #[test]
    fn approx_and_landmarks_flags() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.approx, ApproxMode::Exact);
        assert_eq!(defaults.landmarks, None);
        assert_eq!(
            parse(&["--approx", "exact"]).unwrap().approx,
            ApproxMode::Exact
        );
        let args = parse(&["--approx", "nystrom"]).unwrap();
        assert_eq!(args.approx, ApproxMode::Nystrom);
        assert_eq!(args.landmarks, None);
        let args = parse(&["--approx", "nystrom", "--landmarks", "512"]).unwrap();
        assert_eq!(args.landmarks, Some(LandmarkSpec::Count(512)));
        let args = parse(&["--landmarks", "64", "--approx", "nystrom"]).unwrap();
        assert_eq!(args.landmarks, Some(LandmarkSpec::Count(64)));
        assert_eq!(ApproxMode::Exact.name(), "exact");
        assert_eq!(ApproxMode::Nystrom.name(), "nystrom");
        // --landmarks is meaningless outside the Nyström path.
        let err = parse(&["--landmarks", "512"]).unwrap_err();
        assert!(
            err.contains("--landmarks requires --approx nystrom"),
            "{err}"
        );
        let err = parse(&["--approx", "exact", "--landmarks", "512"]).unwrap_err();
        assert!(err.contains("requires --approx nystrom"), "{err}");
        let err = parse(&["--approx", "nystrom", "--landmarks", "0"]).unwrap_err();
        assert!(err.contains("--landmarks must be at least 1"), "{err}");
        assert!(parse(&["--approx", "lowrank"]).is_err());
        assert!(parse(&["--approx"]).is_err());
        assert!(parse(&["--landmarks", "few"]).is_err());
    }

    #[test]
    fn landmarks_auto_rule() {
        let args = parse(&["--approx", "nystrom", "--landmarks", "auto:0.05"]).unwrap();
        assert_eq!(args.landmarks, Some(LandmarkSpec::Auto { epsilon: 0.05 }));
        let args = parse(&["--approx", "nystrom", "--landmarks", "auto:1e-3"]).unwrap();
        assert_eq!(args.landmarks, Some(LandmarkSpec::Auto { epsilon: 1e-3 }));
        // The auto rule rides the same --approx nystrom gate as the count.
        let err = parse(&["--landmarks", "auto:0.05"]).unwrap_err();
        assert!(err.contains("requires --approx nystrom"), "{err}");
        // The tolerance must be a positive finite number.
        for bad in ["auto:0", "auto:-0.1", "auto:inf", "auto:nan", "auto:tight"] {
            let err = parse(&["--approx", "nystrom", "--landmarks", bad]).unwrap_err();
            assert!(err.contains("--landmarks auto:EPS"), "{bad}: {err}");
        }
        // Unknown colon-rules don't silently parse as counts.
        let err = parse(&["--approx", "nystrom", "--landmarks", "rank:32"]).unwrap_err();
        assert!(err.contains("integer count or auto:EPS"), "{err}");
    }

    #[test]
    fn save_model_flag() {
        assert_eq!(parse(&[]).unwrap().save_model, None);
        let args = parse(&["--save-model", "model.popcorn"]).unwrap();
        assert_eq!(args.save_model.as_deref(), Some("model.popcorn"));
        assert!(parse(&["--save-model"]).is_err());
        // Batch mode has no single fit to freeze.
        let err = parse(&["--save-model", "m", "--restarts", "3"]).unwrap_err();
        assert!(err.contains("--save-model cannot be combined"), "{err}");
        let err = parse(&["--save-model", "m", "--k-sweep", "2,4"]).unwrap_err();
        assert!(err.contains("--save-model cannot be combined"), "{err}");
        // Plain --runs repetitions stay legal (the last run's model is saved).
        assert!(parse(&["--save-model", "m", "--runs", "2"]).is_ok());
    }

    #[test]
    fn sparsify_flag() {
        assert_eq!(parse(&[]).unwrap().sparsify, None);
        assert_eq!(
            parse(&["--sparsify", "knn:32"]).unwrap().sparsify,
            Some(Sparsify::Knn { neighbors: 32 })
        );
        assert_eq!(
            parse(&["--sparsify", "threshold:0.25"]).unwrap().sparsify,
            Some(Sparsify::Threshold { tau: 0.25 })
        );
        // threshold:0 is the degenerate keep-everything rule — legal, and
        // the driver degenerates it to the exact path.
        assert_eq!(
            parse(&["--sparsify", "threshold:0"]).unwrap().sparsify,
            Some(Sparsify::Threshold { tau: 0.0 })
        );
        // The sparsified representation coexists with tiling/devices flags
        // but not with the Nyström factorization.
        let err = parse(&["--sparsify", "knn:8", "--approx", "nystrom"]).unwrap_err();
        assert!(err.contains("--sparsify cannot be combined"), "{err}");
        let err = parse(&["--sparsify", "knn:0"]).unwrap_err();
        assert!(err.contains("requires N >= 1"), "{err}");
        assert!(parse(&["--sparsify", "knn"]).is_err());
        assert!(parse(&["--sparsify", "knn:some"]).is_err());
        assert!(parse(&["--sparsify", "threshold:-1"]).is_err());
        assert!(parse(&["--sparsify", "threshold:inf"]).is_err());
        assert!(parse(&["--sparsify", "topk:5"]).is_err());
        assert!(parse(&["--sparsify"]).is_err());
    }

    #[test]
    fn host_threads_flag() {
        assert_eq!(
            parse(&[]).unwrap().host_threads,
            HostParallelism::Threads(1)
        );
        assert_eq!(
            parse(&["--host-threads", "auto"]).unwrap().host_threads,
            HostParallelism::Auto
        );
        assert_eq!(
            parse(&["--host-threads", "4"]).unwrap().host_threads,
            HostParallelism::Threads(4)
        );
        assert_eq!(
            parse(&["--host-threads", "1"]).unwrap().host_threads,
            HostParallelism::Threads(1)
        );
        let err = parse(&["--host-threads", "0"]).unwrap_err();
        assert!(err.contains("--host-threads must be at least 1"), "{err}");
        assert!(parse(&["--host-threads", "many"]).is_err());
        assert!(parse(&["--host-threads"]).is_err());
        // Resolution semantics the driver relies on.
        assert_eq!(HostParallelism::Threads(1).resolve(), 1);
        assert_eq!(HostParallelism::Threads(4).resolve(), 4);
        assert!(HostParallelism::Auto.resolve() >= 1);
        assert_eq!(HostParallelism::Auto.describe(), "auto");
        assert_eq!(HostParallelism::Threads(8).describe(), "8");
    }

    #[test]
    fn streaming_flag() {
        assert_eq!(parse(&[]).unwrap().streaming, Streaming::Off);
        assert_eq!(
            parse(&["--streaming", "off"]).unwrap().streaming,
            Streaming::Off
        );
        assert_eq!(
            parse(&["--streaming", "double-buffer"]).unwrap().streaming,
            Streaming::DoubleBuffered
        );
        assert_eq!(
            parse(&["--streaming", "double-buffered"])
                .unwrap()
                .streaming,
            Streaming::DoubleBuffered
        );
        let err = parse(&["--streaming", "triple"]).unwrap_err();
        assert!(
            err.contains("--streaming expects off or double-buffer"),
            "{err}"
        );
        assert!(parse(&["--streaming"]).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["-n", "abc"]).is_err());
        assert!(parse(&["-c", "2"]).is_err());
        assert!(parse(&["-f", "unknown"]).is_err());
        assert!(parse(&["-l", "9"]).is_err());
        assert!(parse(&["--init", "zeros"]).is_err());
        assert!(parse(&["--format", "parquet"]).is_err());
        assert!(parse(&["--repair", "yes"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["-k"]).is_err());
        assert!(parse(&["-k", "0"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
        assert!(parse(&["-n", "0"]).is_err());
    }

    #[test]
    fn restart_and_sweep_flags() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.restarts, 1);
        assert!(defaults.k_sweep.is_empty());
        let args = parse(&["--restarts", "4", "--k-sweep", "2, 5,10"]).unwrap();
        assert_eq!(args.restarts, 4);
        assert_eq!(args.k_sweep, vec![2, 5, 10]);
        assert!(parse(&["--restarts", "0"]).is_err());
        assert!(parse(&["--restarts", "x"]).is_err());
        assert!(parse(&["--k-sweep", "3,0"]).is_err());
        assert!(parse(&["--k-sweep", ""]).is_err());
        assert!(parse(&["--k-sweep"]).is_err());
    }

    #[test]
    fn help_returns_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.contains("USAGE"));
        let err = parse(&["-h"]).unwrap_err();
        assert!(err.contains("gpukmeans"));
    }
}
