//! Property tests for the parallel restart driver: host threads are a
//! **wall-clock** decision, never a numerical or accounting one.
//!
//! For any dataset, any solver, either point layout, in-core or tiled or
//! row-sharded kernel sources, and any host-thread count in {1, 2, 4, 8} —
//! per-job labels, objectives, histories, executor traces (op for op,
//! modeled seconds to the bit), the shared-phase trace and the batch-level
//! peak-residency accounting are identical to the sequential driver. The
//! merge back into the shared executor happens on the driver thread in fixed
//! job order, and these tests pin that contract.
//!
//! The proptests run the parallel fan-out (one scoped fan-out over balanced
//! contiguous job chunks per phase and per tile, seeding included), so the
//! whole bit-identity contract is exercised against it; dedicated tests
//! below additionally pin fan-out-vs-inline equivalence and the
//! streaming-pricing overlay for single fits.

use popcorn::baselines::SolverKind;
use popcorn::core::batch::{BatchOptions, FitJob, HostParallelism};
use popcorn::prelude::*;
use popcorn_gpusim::{OpTrace, Streaming};
use proptest::prelude::*;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn mixed_points(max_n: usize, max_d: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (8..=max_n, 2..=max_d).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-4.0f64..4.0, n * d).prop_map(move |mut data| {
            for (i, v) in data.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            DenseMatrix::from_vec(n, d, data).unwrap()
        })
    })
}

fn base_config(k: usize) -> KernelKmeansConfig {
    KernelKmeansConfig::paper_defaults(k)
        .with_max_iter(6)
        .with_convergence_check(true, 1e-10)
}

fn options(threads: usize) -> BatchOptions {
    BatchOptions::default().with_host_threads(HostParallelism::Threads(threads))
}

fn assert_traces_match(
    name: &str,
    a: &OpTrace,
    b: &OpTrace,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.len(),
        b.len(),
        "{}: trace lengths diverge {}",
        name,
        context
    );
    for (i, (x, y)) in a.records().iter().zip(b.records().iter()).enumerate() {
        prop_assert_eq!(&x.name, &y.name, "{}: record {} name {}", name, i, context);
        prop_assert_eq!(x.phase, y.phase, "{}: record {} phase {}", name, i, context);
        prop_assert_eq!(x.class, y.class, "{}: record {} class {}", name, i, context);
        prop_assert_eq!(x.cost, y.cost, "{}: record {} cost {}", name, i, context);
        prop_assert_eq!(
            x.modeled_seconds.to_bits(),
            y.modeled_seconds.to_bits(),
            "{}: record {} modeled seconds {}",
            name,
            i,
            context
        );
    }
    Ok(())
}

/// Everything that must not move between thread counts: results (labels,
/// objectives, histories, per-job traces), the shared trace, the best index,
/// per-job modeled seconds and the batch residency peak.
fn assert_batches_identical(
    name: &str,
    sequential: &BatchResult,
    parallel: &BatchResult,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(sequential.results.len(), parallel.results.len());
    prop_assert_eq!(sequential.best, parallel.best, "{}: best {}", name, context);
    for (i, (a, b)) in sequential
        .results
        .iter()
        .zip(parallel.results.iter())
        .enumerate()
    {
        let context = format!("{context} job {i}");
        prop_assert_eq!(&a.labels, &b.labels, "{}: labels {}", name, &context);
        prop_assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "{}: objective {}",
            name,
            &context
        );
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.converged, b.converged);
        let ha: Vec<u64> = a.history.iter().map(|h| h.objective.to_bits()).collect();
        let hb: Vec<u64> = b.history.iter().map(|h| h.objective.to_bits()).collect();
        prop_assert_eq!(ha, hb, "{}: history {}", name, &context);
        prop_assert_eq!(
            a.peak_resident_bytes,
            b.peak_resident_bytes,
            "{}: job peak {}",
            name,
            &context
        );
        assert_traces_match(name, &a.trace, &b.trace, &context)?;
    }
    assert_traces_match(
        name,
        &sequential.report.shared_trace,
        &parallel.report.shared_trace,
        &format!("{context} shared trace"),
    )?;
    for (a, b) in sequential
        .report
        .jobs
        .iter()
        .zip(parallel.report.jobs.iter())
    {
        prop_assert_eq!(a.modeled_seconds.to_bits(), b.modeled_seconds.to_bits());
        prop_assert_eq!(
            a.modeled_compute_seconds.to_bits(),
            b.modeled_compute_seconds.to_bits()
        );
        prop_assert_eq!(
            a.modeled_copy_seconds.to_bits(),
            b.modeled_copy_seconds.to_bits()
        );
    }
    prop_assert_eq!(
        sequential.report.peak_resident_bytes,
        parallel.report.peak_resident_bytes,
        "{}: batch peak {}",
        name,
        context
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: every solver, both layouts, in-core and tiled
    /// sources — the parallel driver is bit-identical to the sequential one
    /// at every thread count.
    #[test]
    fn parallel_batches_are_bit_identical_for_all_solvers_and_sources(
        points in mixed_points(18, 5),
        k in 2usize..4,
        base_seed in 0u64..50,
        tile_rows in 3usize..8,
    ) {
        prop_assume!(k <= points.rows());
        let csr = CsrMatrix::from_dense(&points);
        for kind in SolverKind::ALL {
            for (layout, input) in [
                ("dense", FitInput::Dense(&points)),
                ("csr", FitInput::Sparse(&csr)),
            ] {
                for (source, tiling) in [
                    ("full", TilePolicy::Full),
                    ("tiled", TilePolicy::Rows(tile_rows)),
                ] {
                    let config = base_config(k).with_tiling(tiling);
                    let jobs = FitJob::restarts(&config, base_seed..base_seed + 3);
                    let sequential = kind
                        .build::<f64>(config.clone())
                        .fit_batch(input, &jobs)
                        .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                    prop_assert_eq!(sequential.report.host_threads, 1);
                    for threads in THREAD_COUNTS {
                        let parallel = kind
                            .build::<f64>(config.clone())
                            .fit_batch_with(input, &jobs, &options(threads))
                            .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                        // The recorded thread count is resolved and clamped
                        // to the job count (Lloyd's default driver is
                        // whole-job parallel, the kernel solvers lockstep).
                        prop_assert!(parallel.report.host_threads >= 1);
                        prop_assert!(parallel.report.host_threads <= threads);
                        assert_batches_identical(
                            kind.name(),
                            &sequential,
                            &parallel,
                            &format!("(layout {layout}, source {source}, threads {threads})"),
                        )?;
                    }
                }
            }
        }
    }

    /// Row-sharded sources under host threads: the lockstep tile pass stays
    /// on the driver thread (device attribution untouched) while per-job
    /// folds fan out — still bit-identical, and still identical to the
    /// unsharded sequential fit.
    #[test]
    fn parallel_sharded_batches_are_bit_identical(
        points in mixed_points(16, 4),
        k in 2usize..4,
        base_seed in 0u64..50,
        devices in 2usize..=4,
    ) {
        prop_assume!(k <= points.rows());
        let csr = CsrMatrix::from_dense(&points);
        let config = base_config(k);
        let jobs = FitJob::restarts(&config, base_seed..base_seed + 3);
        for kind in [SolverKind::Popcorn, SolverKind::Cpu, SolverKind::DenseBaseline] {
            for (layout, input) in [
                ("dense", FitInput::Dense(&points)),
                ("csr", FitInput::Sparse(&csr)),
            ] {
                let sharded = |threads: Option<usize>| {
                    let executor: Arc<ShardedExecutor> = Arc::new(ShardedExecutor::homogeneous(
                        kind.default_device(),
                        devices,
                        LinkSpec::nvlink(),
                        std::mem::size_of::<f64>(),
                    ));
                    let solver = kind.build_with_executor::<f64>(config.clone(), executor);
                    match threads {
                        None => solver.fit_batch(input, &jobs),
                        Some(t) => solver.fit_batch_with(input, &jobs, &options(t)),
                    }
                };
                let sequential = sharded(None)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                let plain = kind
                    .build::<f64>(config.clone())
                    .fit_batch(input, &jobs)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                for threads in THREAD_COUNTS {
                    let parallel = sharded(Some(threads))
                        .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                    assert_batches_identical(
                        kind.name(),
                        &sequential,
                        &parallel,
                        &format!("(layout {layout}, devices {devices}, threads {threads})"),
                    )?;
                    // Sharding + threading together still reproduce the
                    // plain single-device labels.
                    for (a, b) in plain.results.iter().zip(parallel.results.iter()) {
                        prop_assert_eq!(&a.labels, &b.labels);
                        prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                    }
                }
            }
        }
    }

    /// Kernel k-means++ seeding pulls shared diag/rows through the source
    /// caches — the part of the driver that stays sequential by design. It
    /// must not depend on the thread count either.
    #[test]
    fn parallel_batches_with_kmeanspp_seeding_stay_identical(
        points in mixed_points(14, 4),
        k in 2usize..4,
        base_seed in 0u64..50,
    ) {
        prop_assume!(k <= points.rows());
        let config = base_config(k).with_init(Initialization::KmeansPlusPlus);
        let jobs = FitJob::restarts(&config, base_seed..base_seed + 3);
        for kind in SolverKind::ALL {
            let input = FitInput::Dense(&points);
            let sequential = kind
                .build::<f64>(config.clone())
                .fit_batch(input, &jobs)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
            for threads in THREAD_COUNTS {
                let parallel = kind
                    .build::<f64>(config.clone())
                    .fit_batch_with(input, &jobs, &options(threads))
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                assert_batches_identical(
                    kind.name(),
                    &sequential,
                    &parallel,
                    &format!("(kmeans++, threads {threads})"),
                )?;
            }
        }
    }
}

/// The stream-aware concurrency accounting: compute + copy partition every
/// job's modeled time, and the concurrent wall-clock is shared + max of the
/// two engine sums (compute-bound iterations ⇒ equals the amortized total).
#[test]
fn concurrent_seconds_accounting_adds_up() {
    let points = DenseMatrix::<f64>::from_fn(24, 3, |i, j| {
        let offset = if i < 12 { 0.0 } else { 18.0 };
        offset + ((i * 3 + j) as f64 * 0.31).sin() * 0.4
    });
    let jobs = FitJob::restarts(&base_config(2), 0..4);
    let batch = KernelKmeans::new(base_config(2))
        .fit_batch_with(
            FitInput::Dense(&points),
            &jobs,
            &BatchOptions::default().with_host_threads(HostParallelism::Threads(2)),
        )
        .unwrap();
    let report = &batch.report;
    for job in &report.jobs {
        assert!(
            (job.modeled_compute_seconds + job.modeled_copy_seconds - job.modeled_seconds).abs()
                < 1e-15,
            "engines must partition the job's modeled time"
        );
    }
    let compute: f64 = report.jobs.iter().map(|j| j.modeled_compute_seconds).sum();
    let copy: f64 = report.jobs.iter().map(|j| j.modeled_copy_seconds).sum();
    let expected = report.shared_modeled_seconds() + compute.max(copy);
    assert!((report.modeled_concurrent_seconds() - expected).abs() < 1e-15);
    assert!(report.modeled_concurrent_seconds() <= report.amortized_modeled_seconds() + 1e-15);
    assert!(report.stream_overlap_speedup() >= 1.0);
    // Job phases are pure compute here (the upload is shared), so the
    // stream-aware number equals the amortized one — a single device
    // serializes the jobs' compute.
    assert_eq!(copy, 0.0);
    assert_eq!(report.host_threads, 2);
    assert!(report.host_seconds >= 0.0);
}

/// The parallel fan-out and the inline one-thread drive execute identical
/// per-job work over identical chunk partitions: whole batches are
/// bit-identical between them across sources, seeding modes and thread
/// counts. Every phase of every iteration (and, for kmeans++, the seeding)
/// fans out over the same chunks of each drive.
#[test]
fn fanout_modes_are_bit_identical() {
    let points = DenseMatrix::<f64>::from_fn(20, 4, |i, j| {
        let offset = if i % 2 == 0 { 0.0 } else { 7.0 };
        offset + ((i * 4 + j) as f64 * 0.29).sin() * 1.2
    });
    for tiling in [TilePolicy::Full, TilePolicy::Rows(6)] {
        for init in [Initialization::Random, Initialization::KmeansPlusPlus] {
            let config = base_config(3).with_tiling(tiling).with_init(init);
            let jobs = FitJob::restarts(&config, 0..5);
            let sequential = KernelKmeans::new(config.clone())
                .fit_batch(FitInput::Dense(&points), &jobs)
                .unwrap();
            for threads in THREAD_COUNTS {
                let context = format!("(tiling {tiling:?}, init {init:?}, threads {threads})");
                let pool = KernelKmeans::new(config.clone())
                    .fit_batch_with(FitInput::Dense(&points), &jobs, &options(threads))
                    .unwrap();
                assert_batches_identical("popcorn", &sequential, &pool, &context).unwrap();
            }
        }
    }
}

/// Streaming is a pricing overlay for single fits: labels, objectives and
/// traces are bit-identical with it on or off — only the modeled wall-clock
/// (serial minus hidden production) and the attached report change, and the
/// overlapped price never beats the serial one. A single-tile (in-core) fit
/// has nothing to hide behind, so its wall-clock equals the serial total.
#[test]
fn streaming_changes_only_the_modeled_wallclock() {
    let points = DenseMatrix::<f64>::from_fn(24, 3, |i, j| {
        let offset = if i < 12 { 0.0 } else { 15.0 };
        offset + ((i * 3 + j) as f64 * 0.41).sin() * 0.6
    });
    for (tiling, multi_tile) in [(TilePolicy::Full, false), (TilePolicy::Rows(6), true)] {
        let config = base_config(2).with_tiling(tiling);
        let off = KernelKmeans::new(config.clone())
            .fit_input(FitInput::Dense(&points))
            .unwrap();
        let on = KernelKmeans::new(config.with_streaming(Streaming::DoubleBuffered))
            .fit_input(FitInput::Dense(&points))
            .unwrap();
        assert!(off.streaming.is_none());
        let report = on.streaming.as_ref().expect("double-buffered fit reports");
        // Bit-identical numerics and trace.
        assert_eq!(off.labels, on.labels);
        assert_eq!(off.objective.to_bits(), on.objective.to_bits());
        assert_traces_match("popcorn", &off.trace, &on.trace, &format!("{tiling:?}")).unwrap();
        // Pricing: serial stays serial with streaming off...
        assert_eq!(off.modeled_wallclock_seconds(), off.modeled_timings.total());
        // ...and the overlapped price is serial minus hidden, first tile
        // exposed, never better than serial.
        assert_eq!(report.passes, on.iterations);
        assert!(report.hidden_seconds >= 0.0);
        assert!(report.serial_seconds() - report.hidden_seconds <= report.serial_seconds() + 1e-15);
        let expected = on.modeled_timings.total() - report.hidden_seconds;
        assert!((on.modeled_wallclock_seconds() - expected).abs() < 1e-15);
        assert!(on.modeled_wallclock_seconds() <= on.modeled_timings.total() + 1e-15);
        if multi_tile {
            assert!(report.tiles > report.passes, "multi-tile fit: {report:?}");
            // Tile production is real (panel GEMM + upload), so the
            // steady-state pipeline hides a nonzero amount and the first
            // tile's production is exposed.
            assert!(report.produce.total() > 0.0);
            assert!(report.hidden_seconds > 0.0);
            assert!(report.exposed_first_tile_seconds > 0.0);
            assert!(on.modeled_wallclock_seconds() < on.modeled_timings.total());
        } else {
            // One resident tile per pass: nothing is produced per tile, so
            // nothing hides and the wall-clock equals the serial total.
            assert_eq!(report.tiles, report.passes);
            assert_eq!(report.hidden_seconds, 0.0);
            assert_eq!(on.modeled_wallclock_seconds(), on.modeled_timings.total());
        }
    }
}

/// Oversubscription is legal: more threads than jobs clamps to the job
/// count, one job degenerates to the sequential path.
#[test]
fn thread_counts_clamp_to_job_count() {
    let points = DenseMatrix::<f64>::from_fn(12, 2, |i, j| (i * 2 + j) as f64);
    let jobs = FitJob::restarts(&base_config(2), 0..2);
    let batch = KernelKmeans::new(base_config(2))
        .fit_batch_with(
            FitInput::Dense(&points),
            &jobs,
            &BatchOptions::default().with_host_threads(HostParallelism::Threads(64)),
        )
        .unwrap();
    assert_eq!(batch.report.host_threads, 2);
    let single = FitJob::restarts(&base_config(2), 0..1);
    let batch = KernelKmeans::new(base_config(2))
        .fit_batch_with(
            FitInput::Dense(&points),
            &single,
            &BatchOptions::default().with_host_threads(HostParallelism::Auto),
        )
        .unwrap();
    assert_eq!(batch.report.host_threads, 1);
}
