//! Property tests for the sparse kernel subsystem: sparsification is a
//! **representation** decision, never an execution one. A sparsifier that
//! keeps every entry (`knn ≥ n`, `τ = 0`) falls through to the exact
//! dispatch and is bit-identical to an `Exact` fit for every solver and
//! both point layouts; below full density, the CSR-resident path composes
//! with every execution axis the exact paths have — tile height,
//! host-thread count, device count, standalone or batched — without moving
//! a single bit of the clustering. The stored pattern is symmetric and the
//! build is deterministic; the nnz pricing survives 32-bit product
//! boundaries; and the memory side is exercised the way the tentpole
//! promises: a device cap the dense `n × n` matrix exceeds admits the
//! CSR-resident fit while the exact in-core plan is rejected outright.

use popcorn::baselines::SolverKind;
use popcorn::core::kernel_source::full_kernel_matrix_bytes;
use popcorn::core::model::ResidentKernel;
use popcorn::gpusim::OpCost;
use popcorn::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn blobby_points(max_n: usize, max_d: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (12..=max_n, 2..=max_d).prop_flat_map(|(n, d)| {
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

fn assert_bit_identical(
    name: &str,
    reference: &ClusteringResult,
    candidate: &ClusteringResult,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &reference.labels,
        &candidate.labels,
        "{}: labels diverge {}",
        name,
        context
    );
    prop_assert_eq!(
        reference.iterations,
        candidate.iterations,
        "{}: {}",
        name,
        context
    );
    prop_assert_eq!(
        reference.objective.to_bits(),
        candidate.objective.to_bits(),
        "{}: objectives diverge ({} vs {}) {}",
        name,
        reference.objective,
        candidate.objective,
        context
    );
    let a: Vec<u64> = reference
        .history
        .iter()
        .map(|h| h.objective.to_bits())
        .collect();
    let b: Vec<u64> = candidate
        .history
        .iter()
        .map(|h| h.objective.to_bits())
        .collect();
    prop_assert_eq!(a, b, "{}: history diverges {}", name, context);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A sparsifier that keeps every entry is the exact fit: `knn ≥ n`
    /// keeps every row whole and `τ = 0` passes every magnitude, so the
    /// dispatch falls through to the exact backends and labels, objectives
    /// and histories are bit-identical for every solver and both layouts —
    /// and the result carries no dropped-mass bound, because nothing was
    /// dropped.
    #[test]
    fn full_density_sparsifiers_are_bit_identical_to_exact_for_all_solvers(
        points in blobby_points(20, 6),
        k in 2usize..4,
        seed in 0u64..50,
        surplus in 0usize..3,
    ) {
        prop_assume!(k <= points.rows());
        let n = points.rows();
        let csr = CsrMatrix::from_dense(&points);
        let exact_config = base_config(k).with_seed(seed);
        for (rule, sparsify) in [
            ("knn", Sparsify::Knn { neighbors: n + surplus }),
            ("threshold", Sparsify::Threshold { tau: 0.0 }),
        ] {
            let sparse_config = exact_config
                .clone()
                .with_approx(KernelApprox::Sparsified { sparsify });
            for kind in SolverKind::ALL {
                for (layout, input) in [
                    ("dense", FitInput::Dense(&points)),
                    ("csr", FitInput::Sparse(&csr)),
                ] {
                    let exact = kind
                        .build::<f64>(exact_config.clone())
                        .fit_input(input)
                        .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                    let full_density = kind
                        .build::<f64>(sparse_config.clone())
                        .fit_input(input)
                        .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                    assert_bit_identical(
                        kind.name(),
                        &exact,
                        &full_density,
                        &format!("(layout {layout}, rule {rule}, surplus {surplus})"),
                    )?;
                    prop_assert!(
                        full_density.approx_error_bound.is_none(),
                        "{}: a keep-everything sparsifier must not report a bound",
                        kind.name()
                    );
                }
            }
        }
    }

    /// Below full density, the CSR path composes with the tiling axis: the
    /// panel height is a pure batching choice over the resident arrays, so
    /// the clustering is independent of the streamed tile height, for every
    /// kernel solver and both layouts. (Lloyd never touches the kernel
    /// matrix, so the kernel solvers are the interesting set here.)
    #[test]
    fn sparsified_fit_is_bit_identical_across_tile_heights(
        points in blobby_points(18, 5),
        k in 2usize..4,
        seed in 0u64..50,
        neighbors in 2usize..6,
        tile_rows in 1usize..7,
    ) {
        prop_assume!(k <= points.rows());
        prop_assume!(neighbors < points.rows());
        let csr = CsrMatrix::from_dense(&points);
        let approx = KernelApprox::Sparsified {
            sparsify: Sparsify::Knn { neighbors },
        };
        let auto = base_config(k).with_seed(seed).with_approx(approx);
        let pinned = auto.clone().with_tiling(TilePolicy::Rows(tile_rows));
        for kind in [SolverKind::Popcorn, SolverKind::DenseBaseline, SolverKind::Cpu] {
            for (layout, input) in [
                ("dense", FitInput::Dense(&points)),
                ("csr", FitInput::Sparse(&csr)),
            ] {
                let reference = kind
                    .build::<f64>(auto.clone())
                    .fit_input(input)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                let tiled = kind
                    .build::<f64>(pinned.clone())
                    .fit_input(input)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                assert_bit_identical(
                    kind.name(),
                    &reference,
                    &tiled,
                    &format!("(layout {layout}, knn {neighbors}, tile {tile_rows})"),
                )?;
                prop_assert_eq!(
                    reference.approx_error_bound.map(f64::to_bits),
                    tiled.approx_error_bound.map(f64::to_bits),
                    "{}: the dropped-mass bound must not depend on the tile height",
                    kind.name()
                );
            }
        }
    }

    /// The CSR path composes with the sharding axis: any device count in
    /// [1, 16] folds the same row panels of the same resident matrix (plus
    /// an all-reduce that moves no bits of the math), so the sharded fit is
    /// bit-identical to the single-device one.
    #[test]
    fn sparsified_fit_is_bit_identical_across_device_counts(
        points in blobby_points(18, 5),
        k in 2usize..4,
        seed in 0u64..50,
        neighbors in 2usize..6,
        devices in 1usize..=16,
    ) {
        prop_assume!(k <= points.rows());
        prop_assume!(neighbors < points.rows());
        let config = base_config(k).with_seed(seed).with_approx(KernelApprox::Sparsified {
            sparsify: Sparsify::Knn { neighbors },
        });
        let kind = SolverKind::Popcorn;
        let single = kind
            .build::<f64>(config.clone())
            .fit(&points)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let executor = Arc::new(ShardedExecutor::homogeneous(
            kind.default_device(),
            devices,
            LinkSpec::nvlink(),
            std::mem::size_of::<f64>(),
        ));
        let sharded = kind
            .build_with_executor::<f64>(config, executor)
            .fit(&points)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        assert_bit_identical(
            kind.name(),
            &single,
            &sharded,
            &format!("(devices {devices}, knn {neighbors})"),
        )?;
        prop_assert_eq!(
            single.approx_error_bound.map(f64::to_bits),
            sharded.approx_error_bound.map(f64::to_bits),
            "the dropped-mass bound must not depend on the device count"
        );
    }

    /// The CSR path composes with the batch driver and its host-thread
    /// fan-out: one shared CSR matrix feeds every restart, and driving the
    /// jobs from 4 threads moves nothing — every per-job result matches the
    /// sequential batch and the standalone fit, each carrying the shared
    /// sparsification's dropped-mass bound.
    #[test]
    fn sparsified_batch_is_bit_identical_across_host_thread_counts(
        points in blobby_points(16, 5),
        k in 2usize..4,
        base_seed in 0u64..50,
        neighbors in 2usize..6,
    ) {
        prop_assume!(k <= points.rows());
        prop_assume!(neighbors < points.rows());
        let config = base_config(k).with_approx(KernelApprox::Sparsified {
            sparsify: Sparsify::Knn { neighbors },
        });
        let jobs = FitJob::restarts(&config, base_seed..base_seed + 3);
        let solver = SolverKind::Popcorn.build::<f64>(config.clone());
        let input = FitInput::Dense(&points);
        let sequential = solver
            .fit_batch(input, &jobs)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let threaded = solver
            .fit_batch_with(
                input,
                &jobs,
                &BatchOptions::default().with_host_threads(HostParallelism::Threads(4)),
            )
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(sequential.best, threaded.best);
        for ((job, a), b) in jobs
            .iter()
            .zip(sequential.results.iter())
            .zip(threaded.results.iter())
        {
            let context = format!("(seed {}, knn {neighbors})", job.config.seed);
            assert_bit_identical("popcorn", a, b, &context)?;
            prop_assert!(
                b.approx_error_bound.is_some(),
                "a sparsified batch job must carry the shared dropped-mass bound {}",
                context
            );
            prop_assert_eq!(
                a.approx_error_bound.map(f64::to_bits),
                b.approx_error_bound.map(f64::to_bits),
                "the bound must not depend on the thread count {}",
                &context
            );
            let standalone = solver
                .fit_input_with(input, &job.config)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            assert_bit_identical("popcorn", &standalone, b, &format!("standalone {context}"))?;
        }
    }

    /// The sparsifier's structural contract: the stored pattern is
    /// symmetric with bitwise-equal mirrored values (`S ∪ Sᵀ` over a
    /// bitwise-symmetric `K`), every row keeps its diagonal entry, and the
    /// build is deterministic — two builds from the same inputs produce the
    /// same pattern and the same value bits.
    #[test]
    fn sparsifier_is_symmetric_keeps_the_diagonal_and_is_deterministic(
        points in blobby_points(16, 5),
        neighbors in 1usize..6,
        pick_threshold in 0usize..2,
        tau in 0.05f64..0.9,
    ) {
        let sparsify = if pick_threshold == 1 {
            Sparsify::Threshold { tau }
        } else {
            Sparsify::Knn { neighbors }
        };
        let kernel = KernelFunction::Gaussian { gamma: 1.0, sigma: 2.0 };
        let build = || {
            let executor = SimExecutor::new(DeviceSpec::a100_80gb(), std::mem::size_of::<f64>());
            SparsifiedKernel::build(
                FitInput::Dense(&points),
                kernel,
                sparsify,
                TilePolicy::Auto,
                3,
                &executor,
            )
        };
        let first = build().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let second = build().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let ResidentKernel::Csr(csr) = KernelSource::resident(&first) else {
            panic!("a sparsified kernel is CSR-resident")
        };
        for i in 0..csr.rows() {
            let (cols, vals) = csr.row(i);
            prop_assert!(
                cols.contains(&i),
                "row {} must keep its diagonal entry ({:?})",
                i,
                sparsify
            );
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                prop_assert_eq!(
                    csr.get(j, i).to_bits(),
                    v.to_bits(),
                    "entry ({}, {}) must mirror bitwise ({:?})",
                    i,
                    j,
                    sparsify
                );
            }
        }
        let ResidentKernel::Csr(twin) = KernelSource::resident(&second) else {
            panic!("a sparsified kernel is CSR-resident")
        };
        prop_assert_eq!(csr.row_ptrs(), twin.row_ptrs(), "indptr must be deterministic");
        prop_assert_eq!(
            csr.col_indices(),
            twin.col_indices(),
            "pattern must be deterministic"
        );
        let a: Vec<u64> = csr.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = twin.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b, "values must be deterministic bitwise");
        prop_assert_eq!(
            first.dropped_mass().map(f64::to_bits),
            second.dropped_mass().map(f64::to_bits),
            "the dropped-mass diagnostic must be deterministic"
        );
    }
}

/// The nnz pricing survives 32-bit product boundaries: a fully dense panel
/// at `n = 70_000` stores `4.9e9` entries — past `u32::MAX` before any
/// byte multiplier — and the charge widens to `u64` before multiplying, so
/// the exact FLOP and traffic counts hold on every 64-bit target. At full
/// density the FLOPs and output traffic match the dense-K tile charge
/// exactly; the traffic, not the FLOPs, is where sparsity pays.
#[test]
fn nnz_pricing_survives_u64_product_boundaries() {
    let rows = 70_000usize;
    let n = 70_000usize;
    let k = 10usize;
    if usize::BITS >= 64 {
        let nnz = 4_900_000_000usize; // rows * n, past u32::MAX
        let sparse = OpCost::spmm_csr_kvt_rows(nnz, rows, n, k, 8, 4);
        assert_eq!(sparse.flops, 2 * 4_900_000_000u64);
        assert_eq!(
            sparse.bytes_read,
            4_900_000_000u64 * (8 + 4) + 70_001u64 * 4 + 70_000u64 * (8 + 4)
        );
        assert_eq!(sparse.bytes_written, 70_000u64 * 10 * 8);
        let dense = OpCost::spmm_kvt_rows(rows, n, k, 8, 4);
        assert_eq!(
            sparse.flops, dense.flops,
            "full density must match the dense FLOPs"
        );
        assert_eq!(sparse.bytes_written, dense.bytes_written);
        // One entry per row (the retained diagonal) is the floor of the
        // sparsifier's output: the charge collapses with the nnz count
        // rather than the matrix order.
        let floor = OpCost::spmm_csr_kvt_rows(rows, rows, n, k, 8, 4);
        assert!(floor.bytes_read < dense.bytes_read / 100);
        assert_eq!(floor.flops, 2 * 70_000u64);
    }
    // The boundary pair: one entry below and one entry above u32::MAX nnz
    // must price monotonically, with the exact 12-byte step of one stored
    // (value, index) pair.
    let below = OpCost::spmm_csr_kvt_rows(u32::MAX as usize, 1000, 1000, 4, 8, 4);
    let above = OpCost::spmm_csr_kvt_rows(u32::MAX as usize + 1, 1000, 1000, 4, 8, 4);
    assert_eq!(above.flops - below.flops, 2);
    assert_eq!(above.bytes_read - below.bytes_read, 12);
}

/// The memory promise, executed: a device cap the dense `n × n` matrix
/// exceeds rejects the exact in-core plan but admits the CSR-resident fit,
/// whose modeled peak residency stays under the cap and which reports how
/// much kernel mass the sparsifier dropped to get there.
#[test]
fn csr_residency_stays_under_a_cap_the_dense_matrix_exceeds() {
    let n = 600;
    let cap: u64 = 2 << 20;
    assert!(
        full_kernel_matrix_bytes(n, std::mem::size_of::<f64>()) > cap as u128,
        "the wall must be real"
    );
    let points = DenseMatrix::<f64>::from_fn(n, 6, |i, j| ((i * 6 + j) as f64 * 0.37).sin());
    let device = DeviceSpec::a100_80gb().with_mem_bytes(cap);

    // The exact in-core plan cannot fit under the cap.
    let exact_in_core = KernelKmeans::new(
        KernelKmeansConfig::paper_defaults(4)
            .with_max_iter(4)
            .with_tiling(TilePolicy::Full),
    )
    .with_executor(SimExecutor::new(device.clone(), std::mem::size_of::<f64>()))
    .fit(&points);
    assert!(
        exact_in_core.is_err(),
        "the exact full-matrix plan must be rejected under the cap"
    );

    // The CSR-resident fit holds the whole sparsified matrix under the same
    // policy — TilePolicy::Full demands only that the *CSR* fits — and says
    // what it cost in kernel mass.
    let executor = SimExecutor::new(device, std::mem::size_of::<f64>());
    let result = KernelKmeans::new(
        KernelKmeansConfig::paper_defaults(4)
            .with_max_iter(4)
            .with_tiling(TilePolicy::Full)
            .with_approx(KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 16 },
            }),
    )
    .with_executor(executor)
    .fit(&points)
    .expect("the CSR-resident fit must succeed under the cap");
    assert!(
        result.peak_resident_bytes <= cap,
        "peak residency {} must respect the cap {cap}",
        result.peak_resident_bytes
    );
    assert!(
        result.approx_error_bound.is_some(),
        "the sparsified fit must report its dropped-mass diagnostic"
    );
}
