//! The four workloads: their generated inputs, their configurations, their
//! correctness gates, and the untraced end-to-end run of each.

use crate::stats::{median, peak_rss_mb, percentile, rss_mb, Report};
use popcorn_baselines::SolverKind;
use popcorn_core::model::{FittedModel, OwnedPoints, RefitRequest};
use popcorn_core::{
    ClusteringResult, FitInput, KernelApprox, KernelFunction, KernelKmeans, KernelKmeansConfig,
    Solver,
};
use popcorn_data::synthetic::{gaussian_blobs, sparse_text_like};
use popcorn_dense::DenseMatrix;
use popcorn_gpusim::SimExecutor;
use popcorn_metrics::adjusted_rand_index;
use popcorn_serve::{ServeOptions, ServeRequest, ServeResponse, Server};
use std::time::Instant;

/// Spread of every Gaussian blob around its centre.
const BLOB_STD: f64 = 1.0;
/// Timed fits per run, at least, however short `--seconds` is.
const MIN_FITS: usize = 2;
/// Set-ups per run of a fit workload; `setup_s` is their median. Data
/// generation takes milliseconds, so many repeats keep the median steady.
const SETUP_REPEATS: usize = 15;
/// Set-ups per run of the serve workload, whose set-up includes a fit.
const SERVE_SETUP_REPEATS: usize = 3;

/// Serve: training rows, held-out rows, features, clusters.
pub const SERVE_TRAIN: usize = 4_000;
const SERVE_HELD_OUT: usize = 2_000;
const SERVE_D: usize = 16;
const SERVE_K: usize = 8;
/// Rows per batch request.
pub const BATCH_ROWS: usize = 64;
/// One cycle of the fixed interleave: 10 × (10 lookups + 1 batch), 1 refit.
const CYCLE_REQUESTS: usize = 111;
/// Cycles per server lifetime. Each burst starts a fresh server, so the
/// op trace the server keeps (and the memory it holds) grows over a fixed
/// request count, whatever the run length.
const BURST_CYCLES: usize = 10;
/// Fewest cycles per run: twenty refits leave ten beyond their median.
const MIN_CYCLES: usize = 20;

/// ARI floors against the generator's labels; a fit below its floor counts
/// as failed. Random init lands in a local minimum on some seeds (the text
/// data reaches ARI 1.0 on about half of them), so each floor sits well below
/// the lowest ARI measured over seeds 0-39 (0-49 for sparse-text and serve):
/// 0.64 dense-exact, 0.70 sparse-text, 0.58 nystrom, 0.42 serve. A broken
/// distance or assignment step scores near 0.
const DENSE_EXACT_ARI_FLOOR: f64 = 0.5;
const SPARSE_TEXT_ARI_FLOOR: f64 = 0.5;
const NYSTROM_ARI_FLOOR: f64 = 0.45;
const SERVE_ARI_FLOOR: f64 = 0.3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseExact,
    SparseText,
    Nystrom,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DenseExact,
        Workload::SparseText,
        Workload::Nystrom,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseExact => "dense-exact",
            Workload::SparseText => "sparse-text",
            Workload::Nystrom => "nystrom",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input shape and configuration, one line.
    pub fn shape(self) -> &'static str {
        match self {
            Workload::DenseExact => {
                "gaussian_blobs n=4000 d=48 k=16; polynomial; random init; 30 iterations; \
                 default strategy (SYRK); resident FullKernel"
            }
            Workload::SparseText => {
                "sparse_text_like n=4000 d=8000 k=8, 100 nnz/row, CSR; linear; random init; \
                 30 iterations; SpGEMM Gram"
            }
            Workload::Nystrom => {
                "gaussian_blobs n=2000 d=32 k=16; polynomial; Nystrom m=32; random init; \
                 15 iterations"
            }
            Workload::Serve => {
                "gaussian_blobs 4000 train + 2000 held out, d=16 k=8; polynomial; converged \
                 fit_model, full resident K; 1 worker, queue 64; closed loop, 1 client"
            }
        }
    }
}

/// Generated input of a fit workload, with the generator's labels.
pub struct FitData {
    pub points: OwnedPoints<f32>,
    pub truth: Vec<usize>,
}

/// Generate the input of a fit workload from the workload seed.
pub fn generate(workload: Workload, seed: u64) -> FitData {
    let dense = |n, d, k| {
        let data = gaussian_blobs::<f32>(n, d, k, BLOB_STD, seed);
        let truth = data.labels().expect("blobs are labelled").to_vec();
        FitData {
            points: OwnedPoints::Dense(data.points().clone()),
            truth,
        }
    };
    match workload {
        Workload::DenseExact => dense(4_000, 48, 16),
        Workload::Nystrom => dense(2_000, 32, 16),
        Workload::SparseText => {
            let data = sparse_text_like::<f32>(4_000, 8_000, 8, 100, seed);
            let truth = data.labels().expect("text data is labelled").to_vec();
            FitData {
                points: OwnedPoints::Csr(data.points().clone()),
                truth,
            }
        }
        Workload::Serve => unreachable!("the serve workload generates its own inputs"),
    }
}

/// The solver configuration of a fit workload (paper defaults: polynomial
/// kernel, random init, fixed iterations with the convergence check off).
pub fn config(workload: Workload, seed: u64) -> KernelKmeansConfig {
    match workload {
        Workload::DenseExact => KernelKmeansConfig::paper_defaults(16).with_seed(seed),
        Workload::SparseText => KernelKmeansConfig::paper_defaults(8)
            .with_kernel(KernelFunction::Linear)
            .with_seed(seed),
        Workload::Nystrom => KernelKmeansConfig::paper_defaults(16)
            .with_max_iter(15)
            .with_approx(KernelApprox::Nystrom {
                landmarks: 32,
                seed,
            })
            .with_seed(seed),
        Workload::Serve => KernelKmeansConfig::paper_defaults(SERVE_K)
            .with_convergence_check(true, 1e-9)
            .with_max_iter(200)
            .with_seed(seed),
    }
}

/// One complete untraced fit: `Solver::fit` or `Solver::fit_sparse`.
pub fn fit(
    config: &KernelKmeansConfig,
    points: &OwnedPoints<f32>,
) -> popcorn_core::Result<ClusteringResult> {
    let solver = KernelKmeans::new(config.clone());
    match points {
        OwnedPoints::Dense(points) => solver.fit(points),
        OwnedPoints::Csr(points) => solver.fit_sparse(points),
    }
}

fn ari(truth: &[usize], labels: &[usize]) -> f64 {
    adjusted_rand_index(truth, labels).unwrap_or(f64::NAN)
}

/// The correctness gate of a fit workload's reference fit: ARI against the
/// generator labels at its floor.
pub fn check_quality(report: &mut Report, workload: Workload, truth: &[usize], labels: &[usize]) {
    let ari = ari(truth, labels);
    let floor = match workload {
        Workload::DenseExact => DENSE_EXACT_ARI_FLOOR,
        Workload::SparseText => SPARSE_TEXT_ARI_FLOOR,
        Workload::Nystrom => NYSTROM_ARI_FLOOR,
        Workload::Serve => unreachable!("serve checks held-out rows"),
    };
    report.check(ari >= floor, || {
        format!("{}: ARI {ari} below its floor {floor}", workload.name())
    });
    println!("{}: ARI vs generator labels {ari:.4}", workload.name());
}

/// Time one closure, seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Untraced run of a fit workload: set up, one untimed warm-up fit (the
/// reference for every later fit's labels), then complete fits for
/// `seconds`. Reports `work_s` (median fit), `setup_s`, `peak_rss_mb`.
pub fn run_fit(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        drop(data.take()); // one data set resident at a time
        let (generated, secs) = timed(|| generate(workload, seed));
        setup_s.push(secs);
        data = Some(generated);
    }
    let data = data.expect("at least one set-up");
    let setup_s = median(&setup_s);
    let config = config(workload, seed);

    let reference = match fit(&config, &data.points) {
        Ok(result) => result.labels,
        Err(e) => {
            report.check(false, || {
                format!("{}: warm-up fit failed: {e}", workload.name())
            });
            return report;
        }
    };
    report.check(true, String::new);
    check_quality(&mut report, workload, &data.truth, &reference);

    let start = Instant::now();
    let mut fits = Vec::new();
    while fits.len() < MIN_FITS || start.elapsed().as_secs_f64() < seconds {
        let (result, secs) = timed(|| fit(&config, &data.points));
        fits.push(secs);
        report.check(result.is_ok_and(|r| r.labels == reference), || {
            format!(
                "{}: fit diverged from the warm-up fit's labels",
                workload.name()
            )
        });
    }
    println!(
        "{}: {} timed fits, s: {fits:.3?}",
        workload.name(),
        fits.len()
    );
    report.put("work_s", median(&fits), "s");
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

/// The serve workload's inputs and its fitted model.
pub struct ServeSetup {
    pub model: FittedModel<f32>,
    /// One single-row query per held-out row.
    pub lookups: Vec<OwnedPoints<f32>>,
    /// Consecutive 64-row batches of held-out rows, with the labels a direct
    /// `FittedModel::assign` gives each batch.
    pub batches: Vec<(OwnedPoints<f32>, Vec<usize>)>,
    /// Direct-assign label of every held-out row.
    pub held_out_labels: Vec<usize>,
    /// Seconds spent generating the data.
    pub generate_s: f64,
}

/// The served model with the held-out rows it will be asked about.
pub struct ServeFit {
    model: FittedModel<f32>,
    held_out: DenseMatrix<f32>,
    held_out_truth: Vec<usize>,
    generate_s: f64,
}

/// The serve workload's set-up proper: generate 4000 + 2000 blob rows and
/// fit the model on the first 4000 to convergence (checked into `report`).
pub fn serve_fit(seed: u64, report: &mut Report) -> Option<ServeFit> {
    let n = SERVE_TRAIN + SERVE_HELD_OUT;
    let (data, generate_s) = timed(|| gaussian_blobs::<f32>(n, SERVE_D, SERVE_K, BLOB_STD, seed));
    let points = data.points();
    let rows =
        |r0: usize, r1: usize| DenseMatrix::from_fn(r1 - r0, SERVE_D, |i, j| points[(r0 + i, j)]);
    let train = rows(0, SERVE_TRAIN);
    let solver = SolverKind::Popcorn.build::<f32>(config(Workload::Serve, seed));
    let (fit, model) = match solver.fit_model(FitInput::Dense(&train)) {
        Ok(fitted) => fitted,
        Err(e) => {
            report.check(false, || format!("serve: model fit failed: {e}"));
            return None;
        }
    };
    report.check(fit.converged, || {
        "serve: the served model did not converge".into()
    });
    Some(ServeFit {
        model,
        held_out: rows(SERVE_TRAIN, n),
        held_out_truth: data.labels().expect("blobs are labelled")[SERVE_TRAIN..].to_vec(),
        generate_s,
    })
}

impl ServeSetup {
    /// Build the request payloads and their expected labels from a direct
    /// `FittedModel::assign`, and gate the held-out ARI.
    pub fn new(fit: ServeFit, report: &mut Report) -> Option<Self> {
        let ServeFit {
            model,
            held_out,
            held_out_truth,
            generate_s,
        } = fit;
        let executor = SimExecutor::a100_f32();
        let rows = |r0: usize, r1: usize| {
            DenseMatrix::from_fn(r1 - r0, SERVE_D, |i, j| held_out[(r0 + i, j)])
        };
        let mut direct = |queries: &DenseMatrix<f32>| {
            let labels = model
                .assign(FitInput::Dense(queries), &executor)
                .map(|batch| batch.labels);
            report.check(labels.is_ok(), || {
                format!("serve: direct assign failed: {labels:?}")
            });
            labels.ok()
        };
        let held_out_labels = direct(&held_out)?;
        let ari = ari(&held_out_truth, &held_out_labels);
        println!("serve: held-out ARI vs generator labels {ari:.4}");
        let lookups = (0..SERVE_HELD_OUT)
            .map(|r| OwnedPoints::Dense(rows(r, r + 1)))
            .collect();
        let batches = (0..SERVE_HELD_OUT / BATCH_ROWS)
            .map(|b| {
                let queries = rows(b * BATCH_ROWS, (b + 1) * BATCH_ROWS);
                Some((OwnedPoints::Dense(queries.clone()), direct(&queries)?))
            })
            .collect::<Option<_>>()?;
        report.check(ari >= SERVE_ARI_FLOOR, || {
            format!("serve: held-out ARI {ari} below its floor {SERVE_ARI_FLOOR}")
        });
        Some(Self {
            model,
            lookups,
            batches,
            held_out_labels,
            generate_s,
        })
    }
}

/// Which request of the fixed interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestKind {
    Lookup,
    Batch,
    Refit,
}

/// Latencies and counters of the bursts a run served.
#[derive(Debug, Default)]
pub struct ServeSamples {
    pub lookup_s: Vec<f64>,
    pub batch_s: Vec<f64>,
    pub refit_s: Vec<f64>,
    pub cycle_s: Vec<f64>,
    /// RSS after the first burst minus RSS after its warm-up request, MiB.
    pub rss_growth_mb: Option<f64>,
    /// Records in the server's op trace at the end of the first burst.
    pub trace_records: Option<usize>,
    pub rejected: usize,
    pub errors: usize,
}

impl ServeSamples {
    pub fn cycles(&self) -> usize {
        self.cycle_s.len()
    }
}

/// Serve one burst of [`BURST_CYCLES`] cycles from a fresh server, checking
/// every answer. `around` wraps each submit-to-reply call (the traced run
/// records a span there).
pub fn serve_burst(
    setup: &ServeSetup,
    samples: &mut ServeSamples,
    report: &mut Report,
    around: &mut dyn FnMut(&mut dyn FnMut() -> ServeResponse) -> ServeResponse,
) {
    let server = Server::start(
        setup.model.clone(),
        SolverKind::Popcorn,
        ServeOptions {
            queue_capacity: 64,
            workers: 1,
        },
    );
    let mut lookup = samples.lookup_s.len();
    let mut batch = samples.batch_s.len();
    let mut request = |kind: RequestKind, samples: &mut ServeSamples, report: &mut Report| {
        let (message, expected) = match kind {
            RequestKind::Lookup => {
                let row = lookup % setup.lookups.len();
                lookup += 1;
                let queries = setup.lookups[row].clone();
                (
                    ServeRequest::Assign { queries },
                    Some(&setup.held_out_labels[row..row + 1]),
                )
            }
            RequestKind::Batch => {
                let (queries, labels) = &setup.batches[batch % setup.batches.len()];
                batch += 1;
                (
                    ServeRequest::Assign {
                        queries: queries.clone(),
                    },
                    Some(labels.as_slice()),
                )
            }
            RequestKind::Refit => (
                ServeRequest::Refit {
                    request: RefitRequest::warm(),
                },
                None,
            ),
        };
        let mut message = Some(message);
        let mut call = || {
            let message = message.take().expect("each request is sent once");
            server
                .request(message)
                .unwrap_or_else(|e| ServeResponse::Error(e.to_string()))
        };
        let (response, secs) = timed(|| around(&mut call));
        let ok = match (&response, expected) {
            (ServeResponse::Assigned(answer), Some(expected)) => answer.labels == expected,
            (ServeResponse::Refitted(summary), None) => {
                summary.converged && summary.n == SERVE_TRAIN
            }
            _ => false,
        };
        report.check(ok, || format!("serve: {kind:?} answered {response:?}"));
        match kind {
            RequestKind::Lookup => samples.lookup_s.push(secs),
            RequestKind::Batch => samples.batch_s.push(secs),
            RequestKind::Refit => samples.refit_s.push(secs),
        }
    };

    // Warm-up: one untimed lookup before the memory baseline.
    let mut warm_up = ServeSamples::default();
    request(RequestKind::Lookup, &mut warm_up, report);
    let rss_before = rss_mb();
    for _ in 0..BURST_CYCLES {
        let start = Instant::now();
        for i in 0..CYCLE_REQUESTS - 1 {
            let kind = if i % 11 == 10 {
                RequestKind::Batch
            } else {
                RequestKind::Lookup
            };
            request(kind, samples, report);
        }
        request(RequestKind::Refit, samples, report);
        samples.cycle_s.push(start.elapsed().as_secs_f64());
    }
    if samples.rss_growth_mb.is_none() {
        samples.rss_growth_mb = Some(rss_mb() - rss_before);
        samples.trace_records = Some(server.executor().trace_len());
    }
    let stats = server.shutdown();
    samples.rejected += stats.rejected;
    samples.errors += stats.errors;
}

/// Pass-through request wrapper for untraced bursts.
pub fn untraced(call: &mut dyn FnMut() -> ServeResponse) -> ServeResponse {
    call()
}

/// Serve bursts until `seconds` passed and at least [`MIN_CYCLES`] cycles
/// ran.
pub fn serve_for(
    setup: &ServeSetup,
    seconds: f64,
    report: &mut Report,
    around: &mut dyn FnMut(&mut dyn FnMut() -> ServeResponse) -> ServeResponse,
) -> ServeSamples {
    let mut samples = ServeSamples::default();
    let start = Instant::now();
    while samples.cycles() < MIN_CYCLES || start.elapsed().as_secs_f64() < seconds {
        serve_burst(setup, &mut samples, report, around);
    }
    samples
}

/// The request-level latency figures of a set of bursts, ms.
pub fn latency_figures(samples: &ServeSamples) -> [(&'static str, f64); 5] {
    let ms = |s: f64| s * 1e3;
    [
        ("lookup_p50_ms", ms(median(&samples.lookup_s))),
        ("lookup_p99_ms", ms(percentile(&samples.lookup_s, 99.0))),
        ("batch_p50_ms", ms(median(&samples.batch_s))),
        ("batch_p90_ms", ms(percentile(&samples.batch_s, 90.0))),
        ("refit_p50_ms", ms(median(&samples.refit_s))),
    ]
}

/// Untraced run of the serve workload. Reports `work_s` (median seconds of
/// one 111-request cycle), `setup_s` (data, model fit, server start) and
/// `peak_rss_mb`; prints the per-kind latencies and memory growth.
pub fn run_serve(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut fit = None;
    for _ in 0..SERVE_SETUP_REPEATS {
        drop(fit.take()); // one model resident at a time
        let start = Instant::now();
        let Some(fitted) = serve_fit(seed, &mut report) else {
            return report;
        };
        drop(Server::start(
            fitted.model.clone(),
            SolverKind::Popcorn,
            ServeOptions::default(),
        ));
        setup_s.push(start.elapsed().as_secs_f64());
        fit = Some(fitted);
    }
    let Some(setup) = ServeSetup::new(fit.expect("at least one set-up"), &mut report) else {
        return report;
    };

    let samples = serve_for(&setup, seconds, &mut report, &mut untraced);
    println!(
        "serve: {} cycles, {} lookups, {} batches, {} refits; rejected {}, errors {}",
        samples.cycles(),
        samples.lookup_s.len(),
        samples.batch_s.len(),
        samples.refit_s.len(),
        samples.rejected,
        samples.errors
    );
    for (name, value) in latency_figures(&samples) {
        println!("serve: {name} {value:.4}");
    }
    println!(
        "serve: serve_rss_growth_mb {:.3} over {} requests, gpusim trace records {}",
        samples.rss_growth_mb.unwrap_or(0.0),
        BURST_CYCLES * CYCLE_REQUESTS,
        samples.trace_records.unwrap_or(0)
    );
    report.put("work_s", median(&samples.cycle_s), "s");
    report.put("setup_s", median(&setup_s), "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report
}
