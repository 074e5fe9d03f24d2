//! Golden traces: FNV-1a hashes of everything a fixed-seed sharded fit
//! reports besides its labels, recorded from the build that still carried
//! one copy of the elastic shard protocol per kernel representation. The
//! CPU-reference and dense-baseline batch cases and the CSR fit cases were
//! recorded from the build that still carried one solver shell per kernel
//! family. The eight device-loss cases were re-recorded, on the build that
//! still carried a whole-fit retry beside the in-place recovery, when the
//! recovery hash dropped the event, join, retry and backoff counters.
//!
//! The elastic row protocol (pass counter, fault polling, device-loss
//! recovery, the per-device walk and the all-reduce charge) decides where
//! work is priced and what each device holds, never what is computed. So a
//! rewrite of it must leave three things exactly as they were: every trace
//! record's name, phase, class and modeled-seconds bits; every
//! [`RecoveryReport`] field; and each device's residency peak. The batch
//! cases pin every kernel family's lockstep restart drive the same way, at
//! one host thread (the inline drive) and at two (the scoped fan-out), and
//! one CSR fit per family pins what each family charges to move sparse
//! points and build `K` from them.

use popcorn::baselines::SolverKind;
use popcorn::core::batch::{BatchOptions, FitJob, HostParallelism};
use popcorn::data::synthetic::{gaussian_blobs, sparse_text_like};
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

    fn trace(&mut self, trace: &OpTrace) {
        self.word(trace.len() as u64);
        for record in trace.records() {
            self.text(&record.name);
            self.text(&format!("{:?}", record.phase));
            self.text(&format!("{:?}", record.class));
            self.word(record.modeled_seconds.to_bits());
        }
    }

    fn result(&mut self, result: &ClusteringResult) {
        for &label in &result.labels {
            self.word(label as u64);
        }
        self.word(result.objective.to_bits());
    }

    fn recovery(&mut self, report: Option<RecoveryReport>) {
        let Some(r) = report else {
            self.word(u64::MAX);
            return;
        };
        for word in [
            r.devices_lost as u64,
            r.rows_migrated,
            r.bytes_reuploaded,
            r.replayed_tiles as u64,
            r.replayed_bytes,
            r.reshard_seconds.to_bits(),
        ] {
            self.word(word);
        }
    }
}

fn points() -> DenseMatrix<f64> {
    gaussian_blobs::<f64>(48, 4, 3, 2.5, 21).points().clone()
}

/// Enough fixed iterations that a loss scheduled at pass 3 always fires.
fn config() -> KernelKmeansConfig {
    KernelKmeansConfig::paper_defaults(3)
        .with_seed(4)
        .with_max_iter(6)
        .with_convergence_check(false, 0.0)
}

fn three_a100s(faults: FaultPlan) -> Arc<ShardedExecutor> {
    Arc::new(
        ShardedExecutor::homogeneous(
            DeviceSpec::a100_80gb(),
            3,
            LinkSpec::nvlink(),
            std::mem::size_of::<f64>(),
        )
        .with_fault_plan(faults),
    )
}

/// One sharded fit, hashed over its trace, recovery and per-device peaks.
fn sharded_case(config: KernelKmeansConfig, faults: FaultPlan) -> u64 {
    let points = points();
    let executor = three_a100s(faults);
    let result = KernelKmeans::new(config)
        .with_shared_executor(executor.clone())
        .fit(&points)
        .expect("golden sharded fit runs");
    let mut hash = Fnv::new();
    hash.result(&result);
    hash.trace(&executor.trace());
    hash.recovery(executor.recovery_report());
    for peak in executor.per_device_peak_resident_bytes() {
        hash.word(peak);
    }
    hash.0
}

/// The family's default device, alone.
fn default_executor(kind: SolverKind) -> Arc<SimExecutor> {
    Arc::new(SimExecutor::new(
        kind.default_device(),
        std::mem::size_of::<f64>(),
    ))
}

/// A 4-job restart sweep on the family's default device, hashed over every
/// job's result and the shared executor's full trace and residency peak.
fn batch_case(kind: SolverKind, threads: usize) -> u64 {
    let points = points();
    let executor = default_executor(kind);
    let config = config().with_tiling(TilePolicy::Rows(6));
    let jobs = FitJob::restarts(&config, 0..4);
    let batch = kind
        .build_with_executor::<f64>(config, executor.clone())
        .fit_batch_with(
            FitInput::Dense(&points),
            &jobs,
            &BatchOptions::default().with_host_threads(HostParallelism::Threads(threads)),
        )
        .expect("golden batch runs");
    let mut hash = Fnv::new();
    for result in &batch.results {
        hash.result(result);
        hash.trace(&result.trace);
    }
    hash.trace(&batch.report.shared_trace);
    hash.trace(&executor.trace());
    hash.word(batch.report.peak_resident_bytes);
    hash.word(executor.peak_resident_bytes());
    hash.0
}

/// One fit of CSR points on the family's default device, hashed over its
/// result and the executor's trace and residency peak.
fn csr_case(kind: SolverKind) -> u64 {
    let text = sparse_text_like::<f64>(60, 90, 3, 8, 22);
    let executor = default_executor(kind);
    let result = kind
        .build_with_executor::<f64>(config(), executor.clone())
        .fit_sparse(text.points())
        .expect("golden csr fit runs");
    let mut hash = Fnv::new();
    hash.result(&result);
    hash.trace(&executor.trace());
    hash.word(executor.peak_resident_bytes());
    hash.0
}

/// Every case, by name, with its hash.
fn cases() -> Vec<(String, u64)> {
    let representations = [
        ("exact auto", config()),
        ("exact rows 7", config().with_tiling(TilePolicy::Rows(7))),
        (
            "nystrom m=16",
            config().with_approx(KernelApprox::Nystrom {
                landmarks: 16,
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
    let faults = [
        ("no fault", FaultPlan::new()),
        ("lose 1@1", FaultPlan::new().lose(1, 1)),
        ("lose 2@1, 0@3", FaultPlan::new().lose(2, 1).lose(0, 3)),
    ];
    let mut cases = Vec::new();
    for (name, config) in &representations {
        for (fault, plan) in &faults {
            cases.push((
                format!("{name}, {fault}"),
                sharded_case(config.clone(), plan.clone()),
            ));
        }
    }
    let batches = [
        ("batch rows 6", SolverKind::Popcorn),
        ("cpu-reference batch rows 6", SolverKind::Cpu),
        ("dense-gpu-baseline batch rows 6", SolverKind::DenseBaseline),
    ];
    for (name, kind) in batches {
        for threads in [1, 2] {
            cases.push((
                format!("{name}, {threads} threads"),
                batch_case(kind, threads),
            ));
        }
    }
    for (_, kind) in batches {
        cases.push((format!("{} csr fit", kind.name()), csr_case(kind)));
    }
    cases
}

/// Hashes recorded by running [`cases`] on the earlier build.
const GOLDEN: &[(&str, u64)] = &[
    ("exact auto, no fault", 0x343ae62a6db10e12),
    ("exact auto, lose 1@1", 0xa6075997c521d711),
    ("exact auto, lose 2@1, 0@3", 0x00dcde9c64093b30),
    ("exact rows 7, no fault", 0xc27248083bfb9eaf),
    ("exact rows 7, lose 1@1", 0x4f2c68e6a9128e46),
    ("exact rows 7, lose 2@1, 0@3", 0x01018a116891c73f),
    ("nystrom m=16, no fault", 0xe693e29620c51146),
    ("nystrom m=16, lose 1@1", 0xda9a67304d29df89),
    ("nystrom m=16, lose 2@1, 0@3", 0x65b751ee732f1dcd),
    ("sparsified knn:4, no fault", 0x32d969d4912ba08d),
    ("sparsified knn:4, lose 1@1", 0x49a807515a972ddd),
    ("sparsified knn:4, lose 2@1, 0@3", 0x3a9afd7e81a402b5),
    ("batch rows 6, 1 threads", 0x7daf062cab29406b),
    ("batch rows 6, 2 threads", 0x7daf062cab29406b),
    ("cpu-reference batch rows 6, 1 threads", 0x1b9c8a0ebbf9914d),
    ("cpu-reference batch rows 6, 2 threads", 0x1b9c8a0ebbf9914d),
    (
        "dense-gpu-baseline batch rows 6, 1 threads",
        0xbe61979b9c29a251,
    ),
    (
        "dense-gpu-baseline batch rows 6, 2 threads",
        0xbe61979b9c29a251,
    ),
    ("popcorn csr fit", 0x4256f28ef4f9a95c),
    ("cpu-reference csr fit", 0xe412eab9a36707c0),
    ("dense-gpu-baseline csr fit", 0x205cc4443647dcf0),
];

#[test]
fn traces_match_the_earlier_build() {
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
