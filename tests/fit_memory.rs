//! An in-core fit holds its kernel matrix as the packed lower triangle.
//!
//! The host keeps `n(n+1)/2` entries of the symmetric `K`, written once by
//! the triangular product, and folds them in place: at 4000 points in `f32`
//! that is 30.5 MiB, where the full matrix took 61 MiB and its SYRK mirror
//! wrote half of it a second time.
//!
//! Linux only: the test reads the process's peak resident set (`VmHWM`)
//! from `/proc/self/status`. The file holds this one test, so the process
//! and its peak are the test's own.
#![cfg(target_os = "linux")]

use popcorn::data::synthetic::gaussian_blobs;
use popcorn::prelude::*;

/// perfbench's `dense-exact` shape: 4000 × 48, 16 blobs.
const N: usize = 4_000;
const D: usize = 48;
const K: usize = 16;
/// The bound on the peak's rise: the packed `K` takes 30.5 MiB, the full
/// matrix 61 MiB.
const BOUND_BYTES: u64 = 40 << 20;

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
fn an_in_core_fit_of_4000_points_raises_the_peak_rss_by_less_than_40_mb() {
    let data = gaussian_blobs::<f32>(N, D, K, 1.0, 7);
    let config = KernelKmeansConfig::paper_defaults(K).with_seed(7);

    let before = peak_rss_bytes();
    let result = KernelKmeans::new(config).fit(data.points()).unwrap();
    let rise = peak_rss_bytes().saturating_sub(before);

    assert_eq!(result.labels.len(), N);
    assert!(
        rise < BOUND_BYTES,
        "a {N}-point in-core fit raised the peak RSS by {:.1} MB (bound {} MB)",
        rise as f64 / (1 << 20) as f64,
        BOUND_BYTES >> 20
    );
}
