//! One request's host memory is bounded by the model, not by the request.
//!
//! Out-of-sample assignment folds each run of the `q × n` cross kernel into
//! the `q × k` scores as it is written, so labelling 20,000 fresh rows
//! against a 4000-point model holds `q × k` scores and distances, one
//! training row of scratch and the product's packed chunk of at most
//! 64 KiB, never the 320 MB cross kernel.
//!
//! Linux only: the test reads the process's peak resident set (`VmHWM`)
//! from `/proc/self/status`. The file holds this one test, so the process
//! and its peak are the test's own.
#![cfg(target_os = "linux")]

use popcorn::data::synthetic::gaussian_blobs;
use popcorn::prelude::*;

const TRAIN: usize = 4_000;
const FRESH: usize = 20_000;
const D: usize = 16;
const K: usize = 8;
/// The bound on the peak's rise: the request's own `q × k` buffers take
/// about 2 MB here, its cross kernel would take 320 MB.
const BOUND_BYTES: u64 = 8 << 20;

/// The process's peak resident set so far, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("the status file reports VmHWM");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a count of kB");
    kib * 1024
}

#[test]
fn assigning_20000_fresh_rows_raises_the_peak_rss_by_less_than_8_mb() {
    let data = gaussian_blobs::<f32>(TRAIN + FRESH, D, K, 1.0, 7);
    let points = data.points();
    let rows = |r0: usize, r1: usize| DenseMatrix::from_fn(r1 - r0, D, |i, j| points[(r0 + i, j)]);
    let train = rows(0, TRAIN);
    let fresh = rows(TRAIN, TRAIN + FRESH);
    let config = KernelKmeansConfig::paper_defaults(K)
        .with_convergence_check(true, 1e-9)
        .with_max_iter(200)
        .with_seed(7);
    let (_, model) = KernelKmeans::new(config)
        .fit_model(FitInput::Dense(&train))
        .unwrap();
    let executor = SimExecutor::a100_f32();

    let before = peak_rss_bytes();
    let batch = model.assign(FitInput::Dense(&fresh), &executor).unwrap();
    let rise = peak_rss_bytes().saturating_sub(before);

    assert_eq!(batch.labels.len(), FRESH);
    assert!(!batch.replayed_training);
    assert!(
        rise < BOUND_BYTES,
        "a {FRESH}-row assign raised the peak RSS by {:.1} MB (bound {} MB)",
        rise as f64 / (1 << 20) as f64,
        BOUND_BYTES >> 20
    );
}
