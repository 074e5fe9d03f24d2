//! Golden labels: FNV-1a hashes of what fixed-seed fits produce, recorded
//! from the build that predates the FMA-dispatched hot path (the
//! register-blocked `A·Bᵀ` microkernel, the row-blocked distance fold and
//! the row-blocked SpGEMM Gram).
//!
//! Those kernels promise to change speed and never bits. The property suites
//! compare paths of the current build with one another; this suite compares
//! the current build with the earlier one. Each hash covers the labels and
//! the bits of every iteration's objective, so a single changed rounding
//! anywhere in the kernel matrix, the fold or the assignment shows, even when
//! no label moves.

use popcorn::baselines::SolverKind;
use popcorn::data::synthetic::{gaussian_blobs, sparse_text_like};
use popcorn::prelude::*;
use std::sync::Arc;

/// FNV-1a over the labels, then the bits of each iteration's objective and
/// of the final objective, each word as eight little-endian bytes.
fn fnv1a(result: &ClusteringResult) -> u64 {
    let labels = result.labels.iter().map(|&label| label as u64);
    let objectives = result.history.iter().map(|h| h.objective.to_bits());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in labels.chain(objectives).chain([result.objective.to_bits()]) {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Overlapping blobs, so many points sit near a cluster boundary. `n / d`
/// decides whether the kernel matrix comes from GEMM (above the paper's
/// threshold of 100) or SYRK.
fn blobs(n: usize, d: usize, seed: u64) -> DenseMatrix<f32> {
    gaussian_blobs::<f32>(n, d, 4, 6.0, seed).points().clone()
}

fn fit(kind: SolverKind, config: KernelKmeansConfig, input: FitInput<'_, f32>) -> ClusteringResult {
    kind.build::<f32>(config)
        .fit_input(input)
        .expect("golden fit runs")
}

/// Every case, by name, with the fit it produces.
fn cases() -> Vec<(String, ClusteringResult)> {
    let gemm_points = blobs(600, 4, 11);
    let syrk_points = blobs(240, 24, 12);
    let text = sparse_text_like::<f32>(240, 400, 4, 24, 13);
    let gemm = FitInput::Dense(&gemm_points);
    let syrk = FitInput::Dense(&syrk_points);
    let csr = FitInput::Sparse(text.points());
    let poly = KernelKmeansConfig::paper_defaults(4).with_seed(5);
    let linear = poly.clone().with_kernel(KernelFunction::Linear);
    let mut cases = Vec::new();
    for (level, kind) in [
        ("l0", SolverKind::DenseBaseline),
        ("l1", SolverKind::Cpu),
        ("l2", SolverKind::Popcorn),
    ] {
        cases.push((format!("-{level} gemm"), fit(kind, poly.clone(), gemm)));
        cases.push((format!("-{level} syrk"), fit(kind, poly.clone(), syrk)));
        cases.push((format!("-{level} csr"), fit(kind, linear.clone(), csr)));
    }
    let popcorn = |config: KernelKmeansConfig, input| fit(SolverKind::Popcorn, config, input);
    cases.push((
        "-l2 gaussian".into(),
        popcorn(
            poly.clone().with_kernel(KernelFunction::Gaussian {
                gamma: 1.0,
                sigma: 4.0,
            }),
            gemm,
        ),
    ));
    cases.push((
        "-l2 sigmoid kmeans++".into(),
        popcorn(
            poly.clone()
                .with_kernel(KernelFunction::Sigmoid {
                    gamma: 0.01,
                    coef0: 0.0,
                })
                .with_init(Initialization::KmeansPlusPlus),
            syrk,
        ),
    ));
    cases.push((
        "-l2 nystrom m=8".into(),
        popcorn(
            poly.clone().with_approx(KernelApprox::Nystrom {
                landmarks: 8,
                seed: 7,
            }),
            gemm,
        ),
    ));
    cases.push((
        "-l2 tile-rows 37".into(),
        popcorn(poly.clone().with_tiling(TilePolicy::Rows(37)), syrk),
    ));
    cases.push((
        "-l2 sparsify knn:40".into(),
        popcorn(
            poly.clone().with_approx(KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 40 },
            }),
            gemm,
        ),
    ));
    let devices = Arc::new(ShardedExecutor::homogeneous(
        DeviceSpec::a100_80gb(),
        3,
        LinkSpec::nvlink(),
        std::mem::size_of::<f32>(),
    ));
    cases.push((
        "-l2 devices 3".into(),
        SolverKind::Popcorn
            .build_with_executor::<f32>(poly.clone(), devices)
            .fit_input(syrk)
            .expect("sharded fit runs"),
    ));
    cases
}

/// Hashes recorded by running [`cases`] on the earlier build.
const GOLDEN: &[(&str, u64)] = &[
    ("-l0 gemm", 0xf09bac4f9ee00abc),
    ("-l0 syrk", 0x4bc1e7f4eb31c8d5),
    ("-l0 csr", 0xe2b28032eb3dbc56),
    ("-l1 gemm", 0x7929d0659d7c2856),
    ("-l1 syrk", 0x245c08a1a545d2ad),
    ("-l1 csr", 0x07fd5f90efc63e8e),
    ("-l2 gemm", 0x4deb52d059db24e9),
    ("-l2 syrk", 0xfeebd3560dbfcefe),
    ("-l2 csr", 0x336e999bd03c514a),
    ("-l2 gaussian", 0x517f06ee7c7048a9),
    ("-l2 sigmoid kmeans++", 0x3b152fc7be9fe77f),
    ("-l2 nystrom m=8", 0xbef8b23f66a70d66),
    ("-l2 tile-rows 37", 0xfeebd3560dbfcefe),
    ("-l2 sparsify knn:40", 0x115f29df5dec6357),
    ("-l2 devices 3", 0xfeebd3560dbfcefe),
];

#[test]
fn labels_match_the_earlier_build() {
    let mut mismatches = Vec::new();
    for (name, result) in cases() {
        let hash = fnv1a(&result);
        match GOLDEN.iter().find(|(golden, _)| *golden == name) {
            Some(&(_, golden)) if golden == hash => {}
            Some(&(_, golden)) => {
                mismatches.push(format!("{name}: hash {hash:#018x}, golden {golden:#018x}"))
            }
            None => mismatches.push(format!("{name}: no golden hash")),
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
