//! The traced run: the same work as the untraced workloads, driven layer by
//! layer through the workspace's public functions with a span recorded
//! around each call.
//!
//! Span tree of a fit: `fit` → `kernel_matrix.gram` | `kernel_matrix.apply`
//! | `nystrom.build` → `iteration` → `assignment.select` | `distances.fold`
//! (under `nystrom.pass` for Nyström) | `distances.finish` |
//! `assignment.step`. Serving adds `serve.request`, `model.assign` and
//! `model.refit`. The decomposition mirrors `pipeline::iterate` with the
//! Popcorn distance engine, so its labels must equal the untraced fit's bit
//! for bit; the run checks that on every traced fit.

use crate::probe::Roofline;
use crate::stats::{median, Report};
use crate::workloads::{
    self, check_quality, latency_figures, serve_fit, serve_for, timed, untraced, ServeSetup,
    Workload, BATCH_ROWS, SERVE_TRAIN,
};
use popcorn_baselines::SolverKind;
use popcorn_core::distances::{accumulate_distance_tile, finish_distances};
use popcorn_core::init::initial_assignments_source;
use popcorn_core::kernel_matrix::{compute_gram, compute_gram_csr};
use popcorn_core::model::OwnedPoints;
use popcorn_core::pipeline::LoopState;
use popcorn_core::{
    FitInput, FullKernel, KernelApprox, KernelKmeansConfig, KernelSource, NystromKernel,
    RefitRequest,
};
use popcorn_dense::DenseMatrix;
use popcorn_gpusim::{DeviceSpec, Executor, SimExecutor};
use popcorn_sparse::SelectionMatrix;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Untraced/traced fit pairs per traced run of a fit workload.
const FIT_PAIRS: usize = 2;
/// Direct model calls timed per request kind.
const DIRECT_LOOKUPS: usize = 200;
const DIRECT_BATCHES: usize = 40;
const DIRECT_REFITS: usize = 10;
/// Bytes per kernel-matrix entry (f32).
const ELEM: f64 = 4.0;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder for one run; written out when the run ends.
pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Record `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Index of the next span; with [`Tracer::total`], scopes sums to the
    /// spans recorded after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans named `name` recorded since `mark`.
    pub fn total(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Summed self time (duration minus the time its children cover) of the
    /// spans named `name` recorded since `mark`.
    pub fn self_time(&self, mark: usize, name: &str) -> f64 {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans[mark..] {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        (mark..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.spans[i].end - self.spans[i].start - child_time[i])
            .sum()
    }

    /// Durations of the spans named `name` recorded since `mark`.
    pub fn durations(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_s\": {:?}, \"end_s\": {:?}}}",
                self.run_id, span.name, span.start, span.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// One fit, layer by layer, mirroring `KernelKmeans::fit_input_with` and
/// `pipeline::iterate` with the Popcorn distance engine. Returns the labels.
pub fn traced_fit(
    input: FitInput<'_, f32>,
    config: &KernelKmeansConfig,
    tracer: &mut Tracer,
) -> popcorn_core::Result<Vec<usize>> {
    let executor = SimExecutor::new(DeviceSpec::a100_80gb(), 4);
    let fit = tracer.open("fit");
    config.validate(input.n())?;
    input.validate()?;
    input.charge_upload(&executor);
    let labels = match config.approx {
        KernelApprox::Nystrom { landmarks, seed } => {
            assert!(
                landmarks < input.n(),
                "a rank-n factorization runs the exact path"
            );
            let source = tracer.span("nystrom.build", || {
                NystromKernel::new(
                    input,
                    config.kernel,
                    landmarks,
                    seed,
                    config.tiling,
                    config.k,
                    &executor,
                )
            })?;
            iterate(&source, Some("nystrom.pass"), config, &executor, tracer)?
        }
        KernelApprox::Exact => {
            let mut gram = tracer.span("kernel_matrix.gram", || match input {
                FitInput::Dense(points) => compute_gram(
                    points,
                    config.strategy.select(points.rows(), points.cols()),
                    &executor,
                ),
                FitInput::Sparse(points) => compute_gram_csr(points, &executor),
            })?;
            tracer.span("kernel_matrix.apply", || {
                config.kernel.apply_to_gram(&mut gram)
            });
            iterate(&FullKernel::new(&gram)?, None, config, &executor, tracer)?
        }
        other => unimplemented!("no traced decomposition for {}", other.describe()),
    };
    tracer.close(fit);
    Ok(labels)
}

/// The iteration loop of `pipeline::iterate`, engine calls inlined.
fn iterate(
    source: &dyn KernelSource<f32>,
    pass: Option<&'static str>,
    config: &KernelKmeansConfig,
    executor: &dyn Executor,
    tracer: &mut Tracer,
) -> popcorn_core::Result<Vec<usize>> {
    let (n, k) = (source.n(), config.k);
    let labels = initial_assignments_source(source, k, config.init, config.seed, executor)?;
    let mut state = LoopState::new(labels, k);
    let point_norms = source.diag(executor)?;
    let mut spare: Option<DenseMatrix<f32>> = None;
    while state.active(config) {
        let iteration = tracer.open("iteration");
        let selection = tracer.span("assignment.select", || {
            SelectionMatrix::<f32>::from_assignments(state.labels(), k)
        })?;
        let mut e = spare.take().unwrap_or_else(|| DenseMatrix::zeros(n, k));
        e.fill(0.0);
        let pass = pass.map(|name| tracer.open(name));
        source.for_each_tile(executor, &mut |rows, tile| {
            let fold = tracer.open("distances.fold");
            let folded = accumulate_distance_tile(&mut e, rows, tile, &selection, executor);
            tracer.close(fold);
            folded
        })?;
        if let Some(pass) = pass {
            tracer.close(pass);
        }
        let distances = tracer.span("distances.finish", || {
            finish_distances(e, &point_norms, &selection, executor)
        })?;
        tracer.span("assignment.step", || {
            state.step(&distances.distances, config, executor)
        });
        spare = Some(distances.distances);
        tracer.close(iteration);
    }
    Ok(state.labels().to_vec())
}

/// Computed operation and byte counts of one fit's layers.
struct Work {
    /// Gram product (exact) or reconstructed panels (Nyström), per fit.
    produce_flops: f64,
    produce_bytes: f64,
    /// Kernel entries the distance fold reads, per fit.
    fold_bytes: f64,
}

fn computed_work(points: &OwnedPoints<f32>, config: &KernelKmeansConfig) -> Work {
    let n = points.n() as f64;
    let iterations = config.max_iter as f64;
    let fold_bytes = iterations * n * n * ELEM;
    match (config.approx, points) {
        (KernelApprox::Nystrom { landmarks, .. }, _) => {
            let m = landmarks as f64;
            Work {
                produce_flops: iterations * 2.0 * n * n * m,
                produce_bytes: iterations * ELEM * (2.0 * n * m + n * n),
                fold_bytes,
            }
        }
        (_, OwnedPoints::Dense(p)) => {
            let d = p.cols() as f64;
            let flops = match config.strategy.select(p.rows(), p.cols()) {
                popcorn_core::GramRoutine::Syrk => n * (n + 1.0) * d,
                _ => 2.0 * n * n * d,
            };
            Work {
                produce_flops: flops,
                produce_bytes: ELEM * (n * d + n * n),
                fold_bytes,
            }
        }
        (_, OwnedPoints::Csr(p)) => Work {
            produce_flops: p.gram_flops() as f64,
            produce_bytes: ELEM * (2.0 * p.nnz() as f64 + n * n) + 8.0 * p.nnz() as f64,
            fold_bytes,
        },
    }
}

/// Achieved rate over the attainable one for a kernel with `flops` and
/// `bytes` computed work taking `seconds`.
fn roofline_frac(roofline: &Roofline, flops: f64, bytes: f64, seconds: f64) -> f64 {
    flops / seconds / 1e9 / roofline.attainable_gflops(flops / bytes)
}

/// Traced run of a fit workload: warm-up, then untraced and traced fits in
/// turn; every traced fit's labels must equal the untraced fit's.
pub fn traced_fit_workload(
    workload: Workload,
    seed: u64,
    roofline: &Roofline,
    tracer: &mut Tracer,
) -> Report {
    let mut report = Report::default();
    let (data, generate_s) = timed(|| workloads::generate(workload, seed));
    let config = workloads::config(workload, seed);
    let reference = match workloads::fit(&config, &data.points) {
        Ok(result) => result.labels,
        Err(e) => {
            report.check(false, || {
                format!("{}: warm-up fit failed: {e}", workload.name())
            });
            return report;
        }
    };
    check_quality(&mut report, workload, &data.truth, &reference);

    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers: Vec<[f64; 7]> = Vec::new();
    for _ in 0..FIT_PAIRS {
        let (result, secs) = timed(|| workloads::fit(&config, &data.points));
        untraced_s.push(secs);
        report.check(result.is_ok_and(|r| r.labels == reference), || {
            format!("{}: untraced fit diverged", workload.name())
        });

        let mark = tracer.mark();
        let labels = traced_fit(data.points.as_input(), &config, tracer);
        let same = labels.as_ref().is_ok_and(|labels| *labels == reference);
        report.check(same, || {
            format!(
                "{}: the traced decomposition's labels differ from the untraced fit's ({:?})",
                workload.name(),
                labels.as_ref().err()
            )
        });
        if !same {
            return report;
        }
        traced_s.push(tracer.total(mark, "fit"));
        layers.push([
            tracer.total(mark, "kernel_matrix.gram"),
            tracer.total(mark, "kernel_matrix.apply"),
            tracer.total(mark, "nystrom.build"),
            tracer.self_time(mark, "nystrom.pass"),
            tracer.total(mark, "distances.fold"),
            tracer.total(mark, "distances.finish"),
            tracer.total(mark, "assignment.select") + tracer.total(mark, "assignment.step"),
        ]);
    }
    let layer = |i: usize| median(&layers.iter().map(|l| l[i]).collect::<Vec<_>>());
    let work = computed_work(&data.points, &config);

    report.put("data.generate_s", generate_s, "s");
    if matches!(config.approx, KernelApprox::Nystrom { .. }) {
        let (build_s, panel_s) = (layer(2), layer(3));
        report.put("nystrom.build_s", build_s, "s");
        report.put("nystrom.panel_s", panel_s, "s");
        report.put(
            "nystrom.panel_gflops",
            work.produce_flops / panel_s / 1e9,
            "GFLOP/s",
        );
        report.put(
            "nystrom.panel_roofline_frac",
            roofline_frac(roofline, work.produce_flops, work.produce_bytes, panel_s),
            "frac",
        );
    } else {
        let gram_s = layer(0);
        report.put("kernel_matrix.gram_s", gram_s, "s");
        report.put(
            "kernel_matrix.gram_gflops",
            work.produce_flops / gram_s / 1e9,
            "GFLOP/s",
        );
        report.put(
            "kernel_matrix.gram_roofline_frac",
            roofline_frac(roofline, work.produce_flops, work.produce_bytes, gram_s),
            "frac",
        );
        report.put("kernel_matrix.apply_s", layer(1), "s");
    }
    let fold_s = layer(4);
    // One multiply-add per kernel entry read.
    let fold_flops = work.fold_bytes / ELEM * 2.0;
    report.put("distances.fold_s", fold_s, "s");
    report.put("distances.fold_gbs", work.fold_bytes / fold_s / 1e9, "GB/s");
    report.put(
        "distances.fold_roofline_frac",
        roofline_frac(roofline, fold_flops, work.fold_bytes, fold_s),
        "frac",
    );
    report.put("distances.finish_s", layer(5), "s");
    report.put("assignment.step_s", layer(6), "s");
    report.put(
        "trace.overhead_frac",
        median(&traced_s) / median(&untraced_s) - 1.0,
        "frac",
    );
    report.put("fit_s", median(&untraced_s), "s");
    report
}

/// Traced run of the serve workload: untraced bursts (request latencies,
/// memory growth, trace records), one traced burst with a `serve.request`
/// span per request, and the model layer called directly.
pub fn traced_serve(seed: u64, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let Some(setup) =
        serve_fit(seed, &mut report).and_then(|fit| ServeSetup::new(fit, &mut report))
    else {
        return report;
    };

    let untraced_samples = serve_for(&setup, 0.0, &mut report, &mut untraced);
    let mut traced_samples = workloads::ServeSamples::default();
    workloads::serve_burst(&setup, &mut traced_samples, &mut report, &mut |call| {
        tracer.span("serve.request", call)
    });

    let direct = direct_model_layer(&setup, &mut report, tracer);
    report.put("data.generate_s", setup.generate_s, "s");
    for (name, value) in latency_figures(&untraced_samples) {
        report.put(format!("serve.{name}"), value, "ms");
    }
    report.put("model.lookup_ms", direct[0] * 1e3, "ms");
    report.put("model.batch_ms", direct[1] * 1e3, "ms");
    report.put("model.refit_ms", direct[2] * 1e3, "ms");
    report.put(
        "serve.overhead_ms",
        (median(&untraced_samples.lookup_s) - direct[0]) * 1e3,
        "ms",
    );
    report.put("serve.rejected", untraced_samples.rejected as f64, "count");
    report.put("serve.errors", untraced_samples.errors as f64, "count");
    report.put(
        "serve.rss_growth_mb",
        untraced_samples.rss_growth_mb.expect("a burst ran"),
        "MB",
    );
    report.put(
        "gpusim.trace_records",
        untraced_samples.trace_records.expect("a burst ran") as f64,
        "count",
    );
    report.put(
        "trace.overhead_frac",
        median(&traced_samples.cycle_s) / median(&untraced_samples.cycle_s) - 1.0,
        "frac",
    );
    report
}

/// Median seconds of direct `FittedModel::assign` on one row and on 64
/// rows, and of a direct warm `Solver::refit`, each call in its own span.
fn direct_model_layer(setup: &ServeSetup, report: &mut Report, tracer: &mut Tracer) -> [f64; 3] {
    let executor = SimExecutor::a100_f32();
    let model = &setup.model;
    let mark = tracer.mark();
    for (i, queries) in setup
        .lookups
        .iter()
        .cycle()
        .take(DIRECT_LOOKUPS)
        .enumerate()
    {
        let row = i % setup.lookups.len();
        let answer = tracer.span("model.assign", || {
            model.assign(queries.as_input(), &executor)
        });
        report.check(
            answer.is_ok_and(|a| a.labels == setup.held_out_labels[row..row + 1]),
            || "serve: direct single-row assign changed labels".into(),
        );
    }
    let lookup = median(&tracer.durations(mark, "model.assign"));

    let mark = tracer.mark();
    for (queries, labels) in setup.batches.iter().cycle().take(DIRECT_BATCHES) {
        let answer = tracer.span("model.assign", || {
            model.assign(queries.as_input(), &executor)
        });
        report.check(answer.is_ok_and(|a| a.labels == *labels), || {
            format!("serve: direct {BATCH_ROWS}-row assign changed labels")
        });
    }
    let batch = median(&tracer.durations(mark, "model.assign"));

    let solver = SolverKind::Popcorn.build::<f32>(model.config().clone());
    let mark = tracer.mark();
    for _ in 0..DIRECT_REFITS {
        let refit = tracer.span("model.refit", || solver.refit(model, &RefitRequest::warm()));
        report.check(
            refit.is_ok_and(|(result, _)| result.converged && result.labels.len() == SERVE_TRAIN),
            || "serve: direct warm refit failed".into(),
        );
    }
    let refit = median(&tracer.durations(mark, "model.refit"));
    [lookup, batch, refit]
}
