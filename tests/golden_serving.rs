//! Golden serving: FNV-1a hashes of what fixed-seed fitted models do once
//! they are served, recorded from the build whose serving path still kept
//! its own copies of the baseline distance engines and deep copies of the
//! fit's kernel state.
//!
//! A fitted model must behave as the fit it froze. So a rewrite of how a
//! model holds its kernel state, or of how it replays and refits, must leave
//! these exactly as they were: the fit's labels, objective bits and trace;
//! the saved model text; an out-of-sample assignment's labels and trace; a
//! warm refit's labels, objective bits, iteration count, trace, residency
//! peak and saved text; and the training replay's labels. A trace record is
//! hashed as its name, phase, class and modeled-seconds bits. The training
//! replay's trace is pinned for the Popcorn family only: the CPU-reference
//! and dense-baseline replays are priced as their own engines, so only
//! their labels are compared with the earlier build.

use popcorn::baselines::SolverKind;
use popcorn::data::synthetic::gaussian_blobs;
use popcorn::prelude::*;
use popcorn_gpusim::OpTrace;
use std::sync::Arc;

/// FNV-1a over a stream of words, each as eight little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }

    fn labels(&mut self, labels: &[usize]) {
        self.word(labels.len() as u64);
        for &label in labels {
            self.word(label as u64);
        }
    }

    fn trace(&mut self, trace: &OpTrace) {
        self.word(trace.len() as u64);
        for record in trace.records() {
            self.text(&record.name);
            self.text(&format!("{:?}", record.phase));
            self.text(&format!("{:?}", record.class));
            self.word(record.modeled_seconds.to_bits());
        }
    }
}

fn points() -> DenseMatrix<f64> {
    gaussian_blobs::<f64>(36, 4, 3, 2.5, 31).points().clone()
}

/// Eight rows the model never saw.
fn queries() -> DenseMatrix<f64> {
    gaussian_blobs::<f64>(8, 4, 3, 2.5, 32).points().clone()
}

fn config() -> KernelKmeansConfig {
    KernelKmeansConfig::paper_defaults(3)
        .with_seed(4)
        .with_max_iter(12)
}

/// A fresh executor on the solver family's default device.
fn executor(kind: SolverKind) -> Arc<dyn Executor> {
    Arc::new(SimExecutor::new(
        kind.default_device(),
        std::mem::size_of::<f64>(),
    ))
}

/// One kernel-family model: fit, out-of-sample assignment, warm refit and
/// training replay, each on its own executor.
fn kernel_case(kind: SolverKind, config: KernelKmeansConfig) -> u64 {
    let points = points();
    let input = FitInput::Dense(&points);
    let mut hash = Fnv::new();

    let fit_executor = executor(kind);
    let (fit, model) = kind
        .build_with_executor::<f64>(config.clone(), fit_executor.clone())
        .fit_model(input)
        .expect("golden fit runs");
    hash.labels(&fit.labels);
    hash.word(fit.objective.to_bits());
    hash.trace(&fit_executor.trace());
    hash.text(&model.save());

    let queries = queries();
    let assign_executor = executor(kind);
    let assigned = model
        .assign(FitInput::Dense(&queries), &*assign_executor)
        .expect("golden assignment runs");
    assert!(!assigned.replayed_training);
    hash.labels(&assigned.labels);
    hash.trace(&assign_executor.trace());

    let refit_executor = executor(kind);
    let (refit, refitted) = kind
        .build_with_executor::<f64>(config, refit_executor.clone())
        .refit(&model, &RefitRequest::warm())
        .expect("golden refit runs");
    hash.labels(&refit.labels);
    hash.word(refit.objective.to_bits());
    hash.word(refit.iterations as u64);
    hash.trace(&refit_executor.trace());
    hash.word(refit.peak_resident_bytes);
    hash.text(&refitted.save());

    let replay_executor = executor(kind);
    let replay = model
        .assign(input, &*replay_executor)
        .expect("golden replay runs");
    assert!(replay.replayed_training);
    hash.labels(&replay.labels);
    if kind == SolverKind::Popcorn {
        hash.trace(&replay_executor.trace());
    }
    hash.0
}

/// The Lloyd model: fit, saved text and out-of-sample assignment.
fn lloyd_case() -> u64 {
    let points = points();
    let mut hash = Fnv::new();
    let fit_executor = executor(SolverKind::Lloyd);
    let (fit, model) = SolverKind::Lloyd
        .build_with_executor::<f64>(config(), fit_executor.clone())
        .fit_model(FitInput::Dense(&points))
        .expect("golden Lloyd fit runs");
    hash.labels(&fit.labels);
    hash.word(fit.objective.to_bits());
    hash.trace(&fit_executor.trace());
    hash.text(&model.save());

    let queries = queries();
    let assign_executor = executor(SolverKind::Lloyd);
    let assigned = model
        .assign(FitInput::Dense(&queries), &*assign_executor)
        .expect("golden Lloyd assignment runs");
    hash.labels(&assigned.labels);
    hash.trace(&assign_executor.trace());
    hash.0
}

/// Every case, by name, with its hash.
fn cases() -> Vec<(String, u64)> {
    let representations = [
        ("exact auto", config()),
        ("exact rows 7", config().with_tiling(TilePolicy::Rows(7))),
        (
            "nystrom m=8",
            config().with_approx(KernelApprox::Nystrom {
                landmarks: 8,
                seed: 3,
            }),
        ),
        (
            "sparsified knn:4",
            config().with_approx(KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 4 },
            }),
        ),
    ];
    let mut cases = Vec::new();
    for kind in [
        SolverKind::Popcorn,
        SolverKind::Cpu,
        SolverKind::DenseBaseline,
    ] {
        for (name, config) in &representations {
            cases.push((
                format!("{}, {name}", kind.name()),
                kernel_case(kind, config.clone()),
            ));
        }
    }
    cases.push(("lloyd".to_string(), lloyd_case()));
    cases
}

/// Hashes recorded by running [`cases`] on the earlier build.
const GOLDEN: &[(&str, u64)] = &[
    ("popcorn, exact auto", 0xa06bae4c8bf54dd4),
    ("popcorn, exact rows 7", 0xc9a69c9b1051827d),
    ("popcorn, nystrom m=8", 0x46e8aab4b838960f),
    ("popcorn, sparsified knn:4", 0x9962714beba389f0),
    ("cpu-reference, exact auto", 0x4d2d366e3b8e5c1e),
    ("cpu-reference, exact rows 7", 0x7468e736301909b8),
    ("cpu-reference, nystrom m=8", 0xab939df343b36a93),
    ("cpu-reference, sparsified knn:4", 0x2f3c6ed7164f7695),
    ("dense-gpu-baseline, exact auto", 0x6123cd99effda393),
    ("dense-gpu-baseline, exact rows 7", 0x9406660760f9f671),
    ("dense-gpu-baseline, nystrom m=8", 0x3499db3c5686d76b),
    ("dense-gpu-baseline, sparsified knn:4", 0xef94f2f248fdc2ee),
    ("lloyd", 0xbc067df44f4430e9),
];

#[test]
fn serving_matches_the_earlier_build() {
    let mut mismatches = Vec::new();
    for (name, hash) in cases() {
        match GOLDEN.iter().find(|(golden, _)| *golden == name) {
            Some(&(_, golden)) if golden == hash => {}
            Some(&(_, golden)) => {
                mismatches.push(format!("{name}: hash {hash:#018x}, golden {golden:#018x}"))
            }
            None => mismatches.push(format!("{name}: no golden hash {hash:#018x}")),
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
